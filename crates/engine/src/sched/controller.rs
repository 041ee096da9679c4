//! The adaptive controller: Fig. 7 as a first-class type.
//!
//! [`AdaptiveController`] owns one pipeline run's decision loop: workers
//! call [`maybe_decide`] after each morsel, the controller polls on a
//! cadence, extrapolates from the lock-free progress window, claims the
//! (single) compilation slot, spawns the compile on a *tracked* thread,
//! and [`finalize`] joins every in-flight compile before the pipeline's
//! results are read — no leaks, no lost trace events.
//!
//! The controller decides with exactly the [`CostModel`] it was given
//! (`ExecOptions::model`). Its six constants are fitted once from Fig. 6
//! and Table II (EXPERIMENTS.md) and are not adjusted at run time, so a
//! decision is a pure function of (model, instrs, n, w, r0, level):
//! [`extrapolate_pipeline_durations`].
//!
//! [`maybe_decide`]: AdaptiveController::maybe_decide
//! [`finalize`]: AdaptiveController::finalize

use crate::cancel::CancelToken;
use crate::exec::{FunctionHandle, TraceEvent};
use crate::sched::morsel::MorselDispenser;
use crate::sched::progress::PipelineProgress;
use crate::sched::quarantine::PipelineQuarantine;
use crate::tiers::TierTable;
use aqe_vm::backend::ExecMode;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The rungs of the ladder (paper Fig. 3): what a pipeline is running at,
/// what a compilation targets, and the index of a pipeline's
/// [`TierTable`]. `Interpreted` is the bytecode VM (or the naive IR walker
/// it degrades to); `Unoptimized` and `Optimized` are the two
/// configurations of the native emitter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ExecLevel {
    Interpreted,
    Unoptimized,
    Optimized,
}

impl ExecLevel {
    /// The levels a compilation can target, in rank order.
    pub const COMPILED: [ExecLevel; 2] = [ExecLevel::Unoptimized, ExecLevel::Optimized];

    /// Number of levels (the size of a tier table).
    pub const COUNT: usize = Self::COMPILED.len() + 1;

    /// The level with discriminant `i` (`Optimized` for anything larger).
    pub fn from_index(i: u8) -> ExecLevel {
        match i {
            0 => ExecLevel::Interpreted,
            1 => ExecLevel::Unoptimized,
            _ => ExecLevel::Optimized,
        }
    }

    /// Classify a backend rank (see `ExecMode::rank`): the two
    /// interpreters are one level, every rank above is a level of its own.
    pub fn from_rank(rank: u8) -> ExecLevel {
        ExecLevel::from_index(rank.saturating_sub(ExecMode::Bytecode.rank()))
    }

    /// The next rung down (`None` below `Interpreted`): where a pipeline
    /// degrades to when this level cannot be compiled.
    pub fn below(self) -> Option<ExecLevel> {
        (self as u8).checked_sub(1).map(ExecLevel::from_index)
    }
}

/// The empirical model behind Fig. 7's `ctime(f)` and `speedup(f)`: compile
/// time is linear in IR instruction count (Fig. 6: "the number of LLVM
/// instructions of a query correlates very well with its compilation
/// time"); speedups are global empirical factors (§V-D).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    pub unopt_base_s: f64,
    pub unopt_per_instr_s: f64,
    pub opt_base_s: f64,
    pub opt_per_instr_s: f64,
    /// Execution speedup of unoptimized and optimized machine code over
    /// bytecode, per scanned row. A scan's pre-filter runs in front of
    /// every level alike, so it cancels out of these ratios.
    pub speedup_unopt: f64,
    pub speedup_opt: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Fitted once from `fig06_compile_scaling` (per-function least
        // squares) and `table2_exec` (single-threaded geometric means);
        // table and procedure in EXPERIMENTS.md. Both binaries print these
        // constants next to their fresh measurements.
        CostModel {
            unopt_base_s: 6.9e-6,
            unopt_per_instr_s: 0.13e-6,
            opt_base_s: 8.8e-6,
            opt_per_instr_s: 0.60e-6,
            speedup_unopt: 3.0,
            speedup_opt: 3.3,
        }
    }
}

impl CostModel {
    /// Modelled compile time for reaching `level` (zero for the level the
    /// engine starts at — interpretation needs no compilation).
    pub fn ctime(&self, level: ExecLevel, instrs: usize) -> f64 {
        let (base, per) = match level {
            ExecLevel::Interpreted => return 0.0,
            ExecLevel::Unoptimized => (self.unopt_base_s, self.unopt_per_instr_s),
            ExecLevel::Optimized => (self.opt_base_s, self.opt_per_instr_s),
        };
        base + per * instrs as f64
    }

    /// Modelled execution speedup of `level` over bytecode.
    pub fn speedup(&self, level: ExecLevel) -> f64 {
        match level {
            ExecLevel::Interpreted => 1.0,
            ExecLevel::Unoptimized => self.speedup_unopt,
            ExecLevel::Optimized => self.speedup_opt,
        }
    }
}

/// `extrapolatePipelineDurations` (Fig. 7, verbatim structure): given the
/// remaining tuples `n`, the number of active workers `w`, the observed
/// current processing rate `r0` (tuples/s per thread), the model, and the
/// level the pipeline is *currently* executing at, pick the level to
/// compile to — or `None` to keep going as is.
///
/// A compilation level is only a candidate when it lies strictly above
/// `current` — the hot-swap handle refuses downgrades, so proposing the
/// current level or below would waste the (single) compile slot — and at
/// or below `ceiling`, the highest level the pipeline can reach in this
/// process ([`TierTable::ceiling`]).
pub fn extrapolate_pipeline_durations(
    model: &CostModel,
    instrs: usize,
    n: f64,
    w: f64,
    r0: f64,
    current: ExecLevel,
    ceiling: ExecLevel,
) -> Option<ExecLevel> {
    if r0 <= 0.0 || n <= 0.0 {
        return None;
    }
    let cur_speedup = model.speedup(current);
    let t0 = n / r0 / w;
    let mut best = (t0, None);
    for cand in ExecLevel::COMPILED {
        if cand <= current || cand > ceiling {
            continue;
        }
        let r = r0 * (model.speedup(cand) / cur_speedup);
        let c = model.ctime(cand, instrs);
        // While compiling, w-1 workers keep processing at the current rate.
        let t = c + (n - (w - 1.0) * r0 * c).max(0.0) / r / w;
        if t < best.0 && r > r0 {
            best = (t, Some(cand));
        }
    }
    best.1
}

/// Per-pipeline scheduler summary, surfaced in `Report::sched`.
#[derive(Clone, Debug)]
pub struct PipelineSchedReport {
    pub pipeline: usize,
    /// The [`ExecLevel`] the pipeline's first morsel ran at. Cold queries
    /// always start [`Interpreted`](ExecLevel::Interpreted); a warm
    /// prepared-query re-execution starts at the highest level a prior run
    /// reached.
    pub start_level: ExecLevel,
    pub total_rows: u64,
    pub morsels: u64,
    /// Work-stealing transitions between workers.
    pub steals: u64,
    pub stolen_tuples: u64,
    /// Fig. 7 evaluations performed.
    pub decisions: u64,
    pub compiles_started: u64,
    /// Tuples processed per worker — individually observable thanks to the
    /// per-worker partitions (a global cursor could not attribute them).
    pub worker_tuples: Vec<u64>,
    /// Rows the scan's vectorized pre-filter proved failing (cleared mask
    /// bits, summed over every morsel). Zero on a pipeline without a scan
    /// kernel and under `ExecMode::NaiveIr`, which is never pre-filtered.
    /// `total_rows`, `worker_tuples` and the controller's rates count
    /// *scanned* rows and include these.
    pub rows_skipped: u64,
    /// Background compiles that failed (or panicked) and were contained:
    /// the pipeline kept running at its current level and the broken
    /// tier was quarantined.
    pub degraded: u64,
}

/// Everything a pipeline's controller needs that outlives the worker loop
/// (shared query-level channels plus this pipeline's identity).
pub struct ControllerCtx {
    /// The execution's cooperative cancellation token. The controller
    /// checks it at poll cadence — a poisoned query stops *claiming*
    /// compilations — and every tracked background `CompileJob`
    /// re-checks it before compiling, so a cancelled query also stops
    /// paying for compiles that have not started yet. (A compile that
    /// already ran to completion stays in the tier table: it is paid
    /// for, valid, and keeps the next execution warm.)
    pub cancel: CancelToken,
    pub pid: usize,
    pub handle: Arc<FunctionHandle>,
    /// The prepared query's tier table for this pipeline. Background
    /// compiles go through it, so a level another execution of the same
    /// prepared query already compiled — or is compiling right now — is
    /// never compiled a second time, and what this run compiles is there
    /// for every concurrent and later execution the moment it finishes.
    pub tiers: Arc<TierTable>,
    pub progress: Arc<PipelineProgress>,
    /// The model every decision of this pipeline run is made with.
    pub model: CostModel,
    pub compile_events: Arc<Mutex<Vec<TraceEvent>>>,
    pub background_compiles: Arc<AtomicUsize>,
    /// Query start (trace timestamps are relative to it).
    pub exec_start: Instant,
    pub total_rows: u64,
    pub threads: usize,
    /// This execution's quarantine view of the pipeline: tiers whose
    /// compiles failed recently are skipped by `decide` (the ladder
    /// degrades one rung instead), and compile outcomes are recorded
    /// back into the engine-shared store.
    pub quarantine: Option<PipelineQuarantine>,
    /// `false` pins the initial backend (static modes): `maybe_decide`
    /// becomes a no-op and only the sched report is produced.
    pub adaptive: bool,
    /// Delay before the first evaluation (paper: 1 ms); later evaluations
    /// poll on the same cadence (floored at 50 µs).
    pub first_eval: Duration,
}

/// One pipeline run's adaptive controller (Fig. 7).
pub struct AdaptiveController {
    ctx: ControllerCtx,
    /// Backend level installed when the controller was constructed.
    start_level: ExecLevel,
    /// Highest level the pipeline can reach (snapshotted once: the
    /// `AQE_NATIVE` gate is not re-read on the per-morsel decision path).
    ceiling: ExecLevel,
    instrs: usize,
    pipeline_start: Instant,
    poll_us: u64,
    next_eval_us: AtomicU64,
    deciding: AtomicBool,
    decisions: AtomicU64,
    compiles_started: AtomicU64,
    compile_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Failed/panicked background compiles, contained (see
    /// [`PipelineSchedReport::degraded`]). Shared with the compile jobs.
    degraded: Arc<AtomicU64>,
}

impl AdaptiveController {
    pub fn new(ctx: ControllerCtx) -> AdaptiveController {
        let start_level = ExecLevel::from_rank(ctx.handle.rank());
        let instrs = ctx.tiers.function().instruction_count();
        let first_us = ctx.first_eval.as_micros() as u64;
        let ceiling = ctx.tiers.ceiling();
        AdaptiveController {
            start_level,
            ceiling,
            instrs,
            pipeline_start: Instant::now(),
            poll_us: first_us.max(50),
            next_eval_us: AtomicU64::new(first_us),
            deciding: AtomicBool::new(false),
            decisions: AtomicU64::new(0),
            compiles_started: AtomicU64::new(0),
            compile_threads: Mutex::new(Vec::new()),
            degraded: Arc::new(AtomicU64::new(0)),
            ctx,
        }
    }

    /// Called by workers after every morsel: cheap cadence check, then at
    /// most one worker at a time runs the Fig. 7 evaluation.
    pub fn maybe_decide(&self) {
        if !self.ctx.adaptive {
            return;
        }
        let now_us = self.pipeline_start.elapsed().as_micros() as u64;
        if now_us < self.next_eval_us.load(Ordering::Relaxed) {
            return;
        }
        if self.deciding.swap(true, Ordering::AcqRel) {
            return;
        }
        self.next_eval_us.store(now_us + self.poll_us, Ordering::Relaxed);
        self.decide();
        self.deciding.store(false, Ordering::Release);
    }

    fn decide(&self) {
        // The controller-cadence cancellation check: a poisoned query
        // must not claim the compile slot or burn a background thread —
        // the workers are about to observe the poison on their next
        // claim anyway.
        if self.ctx.cancel.is_cancelled() {
            return;
        }
        self.decisions.fetch_add(1, Ordering::Relaxed);
        let progress = &self.ctx.progress;
        let (win_tuples, win_secs) = progress.window();
        let w = self.ctx.threads as f64;
        let r0 = if win_secs > 0.0 { win_tuples as f64 / win_secs / w } else { 0.0 };
        let n = self.ctx.total_rows.saturating_sub(progress.total()) as f64;
        // Lock-free poll of the current backend via the cached rank — the
        // decision path never touches the handle's lock.
        let current = ExecLevel::from_rank(self.ctx.handle.rank());
        let target = extrapolate_pipeline_durations(
            &self.ctx.model,
            self.instrs,
            n,
            w,
            r0,
            current,
            self.ceiling,
        );
        let Some(mut level) = target else { return };
        // Ladder degradation: a tier whose compile failed recently is
        // quarantined — fall to the next-lower rung that is still an
        // upgrade, or do nothing this round (the next execution after
        // the skip budget is spent probes the tier again).
        if let Some(q) = &self.ctx.quarantine {
            while q.blocked(level) {
                match level.below() {
                    Some(lower) if lower > current => level = lower,
                    _ => return,
                }
            }
        }
        // A concurrent execution of the same prepared query may already
        // have compiled this pipeline at (or above) the target level —
        // install that for free instead of burning a background thread.
        // Rate bookkeeping mirrors a compile install: reset the window so
        // the next decision's `r0` is measured at the new level. (`install`
        // only publishes: a compile of this pipeline's own that is still
        // in flight keeps its claim.)
        if self.ctx.tiers.best_level() >= level {
            if let Some(b) = self.ctx.tiers.best() {
                if self.ctx.handle.install(b) {
                    progress.reset_window();
                }
                return;
            }
        }
        if !self.ctx.handle.try_begin_compile() {
            return;
        }
        // "the thread compiles the worker function and resets all
        // processing rates" — we hand the compile to a background thread
        // (§III: compilation is single-threaded, the other workers keep
        // going) but keep its JoinHandle: `finalize` joins it, so a
        // compile can never outlive the pipeline's bookkeeping.
        let job = CompileJob {
            cancel: self.ctx.cancel.clone(),
            handle: self.ctx.handle.clone(),
            tiers: self.ctx.tiers.clone(),
            progress: progress.clone(),
            events: self.ctx.compile_events.clone(),
            counter: self.ctx.background_compiles.clone(),
            exec_start: self.ctx.exec_start,
            pid: self.ctx.pid,
            level,
            quarantine: self.ctx.quarantine.clone(),
            degraded: self.degraded.clone(),
        };
        match std::thread::Builder::new()
            .name(format!("aqe-compile-p{}", self.ctx.pid))
            .spawn(move || job.run())
        {
            Ok(handle) => {
                self.compiles_started.fetch_add(1, Ordering::Relaxed);
                self.compile_threads.lock().push(handle);
                progress.reset_window();
            }
            Err(_) => {
                // Thread exhaustion is a fault like any other: release
                // the claim and keep running at the current level.
                self.ctx.handle.end_compile();
            }
        }
    }

    /// End of the pipeline run: join every in-flight compile (their trace
    /// events land before the report is read) and summarise.
    pub fn finalize(self, dispenser: &MorselDispenser) -> PipelineSchedReport {
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *self.compile_threads.lock());
        for t in threads {
            let _ = t.join();
        }
        PipelineSchedReport {
            pipeline: self.ctx.pid,
            start_level: self.start_level,
            total_rows: self.ctx.total_rows,
            morsels: self.ctx.progress.morsels(),
            steals: dispenser.steals(),
            stolen_tuples: dispenser.stolen_tuples(),
            decisions: self.decisions.load(Ordering::Relaxed),
            compiles_started: self.compiles_started.load(Ordering::Relaxed),
            worker_tuples: (0..self.ctx.progress.worker_count())
                .map(|i| self.ctx.progress.worker(i).tuples())
                .collect(),
            rows_skipped: self.ctx.progress.skipped(),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// The body of one tracked background-compile thread.
struct CompileJob {
    /// The owning execution's cancel token (see [`ControllerCtx::cancel`]):
    /// checked once more on the compile thread before any work happens,
    /// closing the race where the query is cancelled between the
    /// controller's claim and the thread actually starting.
    cancel: CancelToken,
    handle: Arc<FunctionHandle>,
    tiers: Arc<TierTable>,
    progress: Arc<PipelineProgress>,
    events: Arc<Mutex<Vec<TraceEvent>>>,
    counter: Arc<AtomicUsize>,
    exec_start: Instant,
    pid: usize,
    level: ExecLevel,
    /// Records compile success/failure into the per-fingerprint
    /// quarantine so later executions skip a broken tier.
    quarantine: Option<PipelineQuarantine>,
    /// Controller-shared count of contained compile failures.
    degraded: Arc<AtomicU64>,
}

impl CompileJob {
    /// The claimant's side of the single compilation slot: whatever the
    /// compile does — publish, fail, panic, or be abandoned because the
    /// query was cancelled while this thread was being spawned — the claim
    /// `decide` took is released here, once, after the outcome is recorded.
    fn run(self) {
        if !self.cancel.is_cancelled() {
            self.compile_and_install();
        }
        self.handle.end_compile();
    }

    fn compile_and_install(&self) {
        let t_c0 = self.exec_start.elapsed().as_micros() as u64;
        // The compile runs under `catch_unwind`: a panicking emitter (or
        // an injected `compile_job=panic` fault) is contained on this
        // thread and handled exactly like a failed compile — the tier is
        // quarantined, the query keeps running at its current level.
        let compiled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            aqe_fault::failpoint("compile_job")?;
            self.tiers.get_or_compile(self.level)
        }));
        match compiled {
            Ok(Ok(claimed)) => {
                let t_c1 = self.exec_start.elapsed().as_micros() as u64;
                self.events.lock().push(TraceEvent {
                    thread: u16::MAX,
                    pipeline: self.pid as u16,
                    kind: 255,
                    start_us: t_c0,
                    end_us: t_c1,
                    tuples: 0,
                });
                // Publish into the handle: all workers switch on their next
                // morsel. Reset the rate window so the next decision's `r0`
                // is measured at the new level only.
                if self.handle.install(claimed.backend) {
                    self.counter.fetch_add(1, Ordering::Relaxed);
                    self.progress.reset_window();
                }
                // A successful compile clears any quarantine on the tier
                // (this is how a probe recovers it).
                if let Some(q) = &self.quarantine {
                    q.record_success(self.level);
                }
            }
            Ok(Err(_)) | Err(_) => {
                // The failure degrades, never surfaces: quarantine the
                // level that did not compile and count it.
                self.degraded.fetch_add(1, Ordering::Relaxed);
                if let Some(q) = &self.quarantine {
                    q.record_failure(self.level);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelKind;

    #[test]
    fn cancelled_compile_job_publishes_nothing_and_reopens_the_slot() {
        use aqe_ir::{FunctionBuilder, Type};

        let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let p = b.param(0);
        b.ret(Some(p.into()));
        let f = b.finish().unwrap();
        let tiers = Arc::new(TierTable::new(Arc::new(f), Arc::new(Vec::new())));
        let bc = tiers.get_or_compile(ExecLevel::Interpreted).unwrap().backend;
        let handle = Arc::new(FunctionHandle::new(bc));
        assert!(handle.try_begin_compile());

        let cancel = CancelToken::new();
        cancel.cancel(CancelKind::Client);
        let job = CompileJob {
            cancel,
            handle: handle.clone(),
            tiers: tiers.clone(),
            progress: Arc::new(PipelineProgress::new(1)),
            events: Arc::new(Mutex::new(Vec::new())),
            counter: Arc::new(AtomicUsize::new(0)),
            exec_start: Instant::now(),
            pid: 0,
            level: ExecLevel::Optimized,
            quarantine: None,
            degraded: Arc::new(AtomicU64::new(0)),
        };
        job.run();
        // Nothing published anywhere — the query stopped paying — and the
        // compile claim is re-opened (same discipline as a failed compile).
        assert_eq!(handle.kind(), ExecMode::Bytecode);
        assert_eq!(
            tiers.best_level(),
            ExecLevel::Interpreted,
            "a cancelled compile must not fill the tier table"
        );
        assert!(handle.try_begin_compile(), "cancelled job must re-open the compile slot");
    }

    #[test]
    fn exec_level_classifies_ranks() {
        assert_eq!(ExecLevel::from_rank(ExecMode::NaiveIr.rank()), ExecLevel::Interpreted);
        assert_eq!(ExecLevel::from_rank(ExecMode::Bytecode.rank()), ExecLevel::Interpreted);
        assert_eq!(ExecLevel::from_rank(ExecMode::NativeUnopt.rank()), ExecLevel::Unoptimized);
        assert_eq!(ExecLevel::from_rank(ExecMode::Native.rank()), ExecLevel::Optimized);
        assert!(ExecLevel::Interpreted < ExecLevel::Unoptimized);
        assert!(ExecLevel::Unoptimized < ExecLevel::Optimized);
        for (i, level) in
            [ExecLevel::Interpreted].into_iter().chain(ExecLevel::COMPILED).enumerate()
        {
            assert_eq!(level as usize, i);
            assert_eq!(ExecLevel::from_index(i as u8), level);
        }
        assert_eq!(ExecLevel::Optimized.below(), Some(ExecLevel::Unoptimized));
        assert_eq!(ExecLevel::Interpreted.below(), None);
    }

    /// `extrapolate_pipeline_durations` with the default model on a
    /// 4-worker pipeline of `instrs` IR instructions.
    fn choose(
        instrs: usize,
        n: f64,
        r0: f64,
        current: ExecLevel,
        ceiling: ExecLevel,
    ) -> Option<ExecLevel> {
        extrapolate_pipeline_durations(&CostModel::default(), instrs, n, 4.0, r0, current, ceiling)
    }

    #[test]
    fn extrapolation_prefers_interpretation_for_tiny_work() {
        // 100 remaining tuples at 1M tuples/s/thread: done in 25 µs — less
        // than the cheapest compile.
        let c = choose(5000, 1e2, 1e6, ExecLevel::Interpreted, ExecLevel::Optimized);
        assert_eq!(c, None);
    }

    #[test]
    fn extrapolation_compiles_for_large_work() {
        // 100M tuples at 10M tuples/s/thread: worth compiling.
        let c = choose(5000, 1e8, 1e7, ExecLevel::Interpreted, ExecLevel::Optimized);
        assert!(c.is_some());
    }

    #[test]
    fn extrapolation_picks_the_cheap_level_for_middling_work() {
        // Work that outlasts an unoptimized compile but not the optimized
        // one's extra cost: the frontier has a middle point.
        let m = CostModel::default();
        let instrs = 20_000;
        let r0 = 1e6;
        // Remaining bytecode time per worker ≈ twice the unoptimized
        // compile, well under the optimized one.
        let n = 2.0 * m.ctime(ExecLevel::Unoptimized, instrs) * r0 * 4.0;
        let c = choose(instrs, n, r0, ExecLevel::Interpreted, ExecLevel::Optimized);
        assert_eq!(c, Some(ExecLevel::Unoptimized));
    }

    #[test]
    fn extrapolation_upgrades_from_unopt_to_opt() {
        // Already running unoptimized code; for huge remaining work the
        // optimized level should still win — and unoptimized must never be
        // re-proposed.
        let c = choose(2000, 1e9, 2e7, ExecLevel::Unoptimized, ExecLevel::Optimized);
        assert_eq!(c, Some(ExecLevel::Optimized));
    }

    #[test]
    fn extrapolation_never_downgrades_from_the_ceiling() {
        let c = choose(2000, 1e9, 2e7, ExecLevel::Optimized, ExecLevel::Optimized);
        assert_eq!(c, None);
    }

    #[test]
    fn extrapolation_reaches_the_top_for_huge_work() {
        // Enormous remaining work: the higher compile cost amortizes and
        // the higher speedup wins outright.
        let c = choose(2000, 1e9, 2e7, ExecLevel::Interpreted, ExecLevel::Optimized);
        assert_eq!(c, Some(ExecLevel::Optimized));
    }

    #[test]
    fn an_interpreted_ceiling_means_bytecode_only() {
        // No emitter: whatever the remaining work, nothing is proposed.
        let c = choose(2000, 1e9, 2e7, ExecLevel::Interpreted, ExecLevel::Interpreted);
        assert_eq!(c, None);
    }

    #[test]
    fn ctime_is_linear_in_instrs() {
        let m = CostModel::default();
        let a = m.ctime(ExecLevel::Optimized, 1000);
        let b = m.ctime(ExecLevel::Optimized, 2000);
        assert!((b - a - m.opt_per_instr_s * 1000.0).abs() < 1e-12);
    }

    /// The Fig. 7 frontier with the default model, over seeded random
    /// pipelines (`instrs`, `w`, `r0`, current level, ceiling) and a
    /// log-spaced sweep of the remaining work `n`: the proposal never
    /// falls as `n` grows, nothing is proposed from bytecode while the
    /// remaining bytecode time is below the cheapest compile, and every
    /// proposal is an upgrade at or below the ceiling.
    #[test]
    fn fig7_frontier_is_monotone_in_remaining_work() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let m = CostModel::default();
        let mut rng = SmallRng::seed_from_u64(7);
        let levels = [ExecLevel::Interpreted, ExecLevel::Unoptimized, ExecLevel::Optimized];
        for _ in 0..4000 {
            let instrs = rng.random_range(10usize..=100_000);
            let w = [1.0, 2.0, 3.0, 4.0, 8.0][rng.random_range(0usize..5)];
            let r0 = 10f64.powf(4.0 + 4.0 * rng.random_range(0u32..=1_000_000) as f64 / 1e6);
            let current = levels[rng.random_range(0usize..2)];
            let ceiling = levels[rng.random_range(0usize..3)];
            let mut prev = None;
            for k in 0..200 {
                let n = 10f64.powf(k as f64 / 20.0);
                let got = extrapolate_pipeline_durations(&m, instrs, n, w, r0, current, ceiling);
                let case = || format!("instrs={instrs} w={w} r0={r0:.0} n={n:.0} {current:?}");
                assert!(got >= prev, "proposal fell from {prev:?} to {got:?}: {}", case());
                if current == ExecLevel::Interpreted
                    && n / (r0 * w) < m.ctime(ExecLevel::Unoptimized, instrs)
                {
                    assert_eq!(got, None, "compile proposed before it can pay: {}", case());
                }
                if let Some(level) = got {
                    assert!(
                        level > current && level <= ceiling,
                        "{level:?} proposed under ceiling {ceiling:?}: {}",
                        case()
                    );
                }
                prev = got;
            }
        }
    }
}
