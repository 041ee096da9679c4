//! The adaptive controller: Fig. 7 as a first-class type.
//!
//! [`AdaptiveController`] owns one pipeline run's decision loop: workers
//! call [`maybe_decide`] after each morsel, the controller polls on a
//! cadence, and the one worker that holds the `deciding` flag
//! extrapolates from the lock-free progress window and, if a compile
//! pays, runs it itself (Fig. 7: "the thread compiles the worker function
//! and resets all processing rates") while the other workers keep
//! claiming morsels. So a compile is over when its worker's loop is, and
//! [`finalize`] only summarises.
//!
//! The controller decides with exactly the [`CostModel`] it was given
//! (`ExecOptions::model`). Its nine constants are fitted once from Fig. 6
//! and Table II (EXPERIMENTS.md) and are not adjusted at run time, so a
//! decision is a pure function of (model, instrs, n, w, r0, level):
//! [`extrapolate_pipeline_durations`]. The same frontier, evaluated with
//! nothing built yet, picks the level a cold pipeline starts on
//! ([`plan_pipeline_start`]).
//!
//! [`maybe_decide`]: AdaptiveController::maybe_decide
//! [`finalize`]: AdaptiveController::finalize

use crate::cancel::CancelToken;
use crate::exec::{compile_step, FunctionHandle, WorkerTrace};
use crate::sched::morsel::MorselDispenser;
use crate::sched::progress::PipelineProgress;
use crate::sched::quarantine::PipelineQuarantine;
use crate::tiers::TierTable;
use aqe_vm::backend::ExecLevel;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// The empirical model behind Fig. 7's `ctime(f)` and `speedup(f)`: the
/// time to build a level is linear in IR instruction count (Fig. 6: "the
/// number of LLVM instructions of a query correlates very well with its
/// compilation time") — bytecode translation included, since on this
/// emitter it costs about half an unoptimized compile; speedups are
/// global empirical factors (§V-D), and one constant prices bytecode
/// execution itself, so a pipeline's whole run can be priced at every
/// level before its first row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    pub bc_base_s: f64,
    pub bc_per_instr_s: f64,
    pub unopt_base_s: f64,
    pub unopt_per_instr_s: f64,
    pub opt_base_s: f64,
    pub opt_per_instr_s: f64,
    /// Bytecode execution time per scanned row per IR instruction of the
    /// worker function.
    pub bc_row_instr_s: f64,
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
            bc_base_s: 1.7e-6,
            bc_per_instr_s: 0.185e-6,
            unopt_base_s: 15.0e-6,
            unopt_per_instr_s: 0.28e-6,
            opt_base_s: 16.2e-6,
            opt_per_instr_s: 1.36e-6,
            bc_row_instr_s: 0.84e-9,
            speedup_unopt: 2.8,
            speedup_opt: 3.05,
        }
    }
}

impl CostModel {
    /// Modelled time to build `level`'s backend from the worker function:
    /// bytecode translation for `Interpreted`, a machine-code compile for
    /// the two compiled levels.
    pub fn ctime(&self, level: ExecLevel, instrs: usize) -> f64 {
        let (base, per) = match level {
            ExecLevel::Interpreted => (self.bc_base_s, self.bc_per_instr_s),
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

    /// Modelled bytecode seconds per scanned row of a worker function of
    /// `instrs` IR instructions, on one thread.
    pub fn bc_row_s(&self, instrs: usize) -> f64 {
        self.bc_row_instr_s * instrs as f64
    }
}

/// `extrapolatePipelineDurations` (Fig. 7, verbatim structure): given the
/// remaining tuples `n`, the number of active workers `w`, the current
/// processing rate `r0` (tuples/s per thread), the model, and the level
/// the pipeline is *currently* executing at, pick the level to compile
/// to — or `None` to keep going as is.
///
/// A compilation level is only a candidate when it lies strictly above
/// `current` — the hot-swap handle refuses downgrades, so proposing the
/// current level or below would waste the (single) compile slot — and at
/// or below `ceiling`, the highest level the pipeline can reach in this
/// process ([`TierTable::ceiling`]).
///
/// `current = None` is the frontier before anything is built: `r0` is
/// then the modelled bytecode rate, every level up to `ceiling` is a
/// candidate (bytecode too, at the price of its translation), no worker
/// runs while the winner is built, and the answer is always a level.
pub fn extrapolate_pipeline_durations(
    model: &CostModel,
    instrs: usize,
    n: f64,
    w: f64,
    r0: f64,
    current: Option<ExecLevel>,
    ceiling: ExecLevel,
) -> Option<ExecLevel> {
    let Some(current) = current else {
        let mut best = (f64::INFINITY, ExecLevel::Interpreted);
        for cand in (0..ExecLevel::COUNT as u8).map(ExecLevel::from_index) {
            if cand > ceiling {
                break;
            }
            let t = model.ctime(cand, instrs) + n / (r0 * model.speedup(cand)) / w;
            if t < best.0 {
                best = (t, cand);
            }
        }
        return Some(best.1);
    };
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

/// How a cold pipeline starts (see [`plan_pipeline_start`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineStart {
    /// The level built synchronously before the first morsel.
    pub level: ExecLevel,
    /// The frontier's winner, compiled by the first worker to finish a
    /// morsel because it costs more to build than the pipeline should
    /// wait.
    pub compile: Option<ExecLevel>,
}

/// Fig. 7 at pipeline start: `n` rows are known exactly and nothing is
/// built, so the frontier ([`extrapolate_pipeline_durations`] with
/// `current = None`) prices the whole run at every level up to `ceiling`.
/// A winner that `blocked` (the execution's quarantine view) refuses
/// falls one rung at a time, bytecode last. A winner that builds in less
/// than one `min_morsel` of bytecode work is built synchronously. A
/// costlier one is compiled by the first worker to finish a morsel while
/// the others keep running, and the pipeline starts on the cheapest run
/// among the levels below it that do build that fast — bytecode at least.
/// A pipeline with no rows starts on bytecode.
pub fn plan_pipeline_start(
    model: &CostModel,
    instrs: usize,
    n: u64,
    w: usize,
    min_morsel: usize,
    ceiling: ExecLevel,
    blocked: impl Fn(ExecLevel) -> bool,
) -> PipelineStart {
    let row_s = model.bc_row_s(instrs);
    let frontier = |top: ExecLevel| {
        let r0 = 1.0 / row_s;
        let w = w.max(1) as f64;
        let best = extrapolate_pipeline_durations(model, instrs, n as f64, w, r0, None, top);
        let mut level = best.unwrap_or(ExecLevel::Interpreted);
        while let Some(lower) = level.below().filter(|_| blocked(level)) {
            level = lower;
        }
        level
    };
    if n == 0 {
        return PipelineStart { level: ExecLevel::Interpreted, compile: None };
    }
    let winner = frontier(ceiling);
    let mut top = winner;
    while let Some(lower) =
        top.below().filter(|_| model.ctime(top, instrs) >= min_morsel as f64 * row_s)
    {
        top = lower;
    }
    let level = if top == winner { winner } else { frontier(top) };
    PipelineStart { level, compile: (winner > level).then_some(winner) }
}

/// Per-pipeline scheduler summary, surfaced in `Report::sched`.
#[derive(Clone, Debug)]
pub struct PipelineSchedReport {
    pub pipeline: usize,
    /// The [`ExecLevel`] the pipeline's first morsel ran at. A cold
    /// adaptive pipeline starts where the cost model puts it for its row
    /// count — [`Interpreted`](ExecLevel::Interpreted) for little
    /// work, or while a costly winner compiles; a warm
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
    /// Machine-code compiles this run started: an adaptive pipeline's
    /// synchronous start compile and the compiles its controller ran on a
    /// morsel worker.
    pub compiles_started: u64,
    /// Rows the scan's vectorized pre-filter proved failing (cleared mask
    /// bits, summed over every morsel). Zero on a pipeline without a scan
    /// kernel, whatever backend it runs on.
    /// `total_rows` and the controller's rates count
    /// *scanned* rows and include these.
    pub rows_skipped: u64,
    /// Compiles the controller ran on a morsel worker that failed (or
    /// panicked) and were contained: the pipeline kept running at its
    /// current level and the broken tier was quarantined.
    pub degraded: u64,
}

/// What a pipeline's controller borrows from its pipeline run.
pub struct ControllerCtx<'a> {
    /// The execution's cooperative cancellation token. The controller
    /// checks it before every evaluation: a poisoned query compiles
    /// nothing more. (A compile that already ran to completion stays in
    /// the tier table: it is paid for, valid, and keeps the next execution
    /// warm.)
    pub cancel: &'a CancelToken,
    pub pid: usize,
    pub handle: &'a FunctionHandle,
    /// The prepared query's tier table for this pipeline. Compiles go
    /// through it, so a level another execution of the same prepared query
    /// already compiled — or is compiling right now — is never compiled a
    /// second time, and what this run compiles is there for every
    /// concurrent and later execution the moment it finishes.
    pub tiers: &'a TierTable,
    pub progress: &'a PipelineProgress,
    /// The model every decision of this pipeline run is made with.
    pub model: CostModel,
    pub total_rows: u64,
    pub threads: usize,
    /// This execution's quarantine view of the pipeline: tiers whose
    /// compiles failed recently are skipped by `decide` (the ladder
    /// degrades one rung instead), and compile outcomes are recorded
    /// back into the engine-shared store.
    pub quarantine: &'a PipelineQuarantine,
    /// `false` pins the initial backend (static modes): `maybe_decide`
    /// becomes a no-op and only the sched report is produced.
    pub adaptive: bool,
    /// Delay before the first evaluation (paper: 1 ms); later evaluations
    /// poll on the same cadence (floored at 50 µs).
    pub first_eval: Duration,
}

/// No start compile is pending (see [`AdaptiveController::start_compile`]).
const NO_START_COMPILE: u8 = u8::MAX;

/// One pipeline run's adaptive controller (Fig. 7).
pub struct AdaptiveController<'a> {
    ctx: ControllerCtx<'a>,
    /// Backend level installed when the controller was constructed.
    start_level: ExecLevel,
    /// Highest level the pipeline can reach (snapshotted once: the
    /// `AQE_NATIVE` gate is not re-read on the per-morsel decision path).
    ceiling: ExecLevel,
    instrs: usize,
    pipeline_start: Instant,
    poll_us: u64,
    next_eval_us: AtomicU64,
    /// Held by the one worker evaluating or compiling; the others keep
    /// claiming morsels.
    deciding: AtomicBool,
    decisions: AtomicU64,
    compiles_started: AtomicU64,
    /// Compiles this controller published into the handle.
    installs: AtomicU64,
    /// The start winner [`plan_pipeline_start`] handed over, as a level
    /// index ([`NO_START_COMPILE`]: none), compiled by the first worker to
    /// finish a morsel.
    start_compile: AtomicU8,
    /// Failed/panicked compiles, contained (see
    /// [`PipelineSchedReport::degraded`]).
    degraded: AtomicU64,
}

impl<'a> AdaptiveController<'a> {
    /// A controller for one pipeline run; `start_compile` is the winner of
    /// [`plan_pipeline_start`] that was too costly to build before the
    /// first morsel.
    pub fn new(ctx: ControllerCtx<'a>, start_compile: Option<ExecLevel>) -> AdaptiveController<'a> {
        let start_level = ctx.handle.level();
        let instrs = ctx.tiers.function().instruction_count();
        let first_us = ctx.first_eval.as_micros() as u64;
        let ceiling = ctx.tiers.ceiling();
        AdaptiveController {
            start_level,
            ceiling,
            instrs,
            pipeline_start: Instant::now(),
            poll_us: first_us.max(50),
            // A pending start compile is due after the first morsel.
            next_eval_us: AtomicU64::new(if start_compile.is_some() { 0 } else { first_us }),
            deciding: AtomicBool::new(false),
            decisions: AtomicU64::new(0),
            compiles_started: AtomicU64::new(0),
            installs: AtomicU64::new(0),
            start_compile: AtomicU8::new(start_compile.map_or(NO_START_COMPILE, |l| l as u8)),
            degraded: AtomicU64::new(0),
            ctx,
        }
    }

    /// Called by each worker after every morsel, with that worker's trace:
    /// a cheap cadence check, then at most one worker at a time either
    /// compiles the pending start winner — after a morsel, so the switch
    /// away from the start level is observable — or runs the Fig. 7
    /// evaluation. A cancelled execution does neither.
    pub fn maybe_decide(&self, trace: &mut WorkerTrace) {
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
        if !self.ctx.cancel.is_cancelled() {
            match self.start_compile.swap(NO_START_COMPILE, Ordering::Relaxed) {
                NO_START_COMPILE => self.decide(trace),
                level => self.compile(ExecLevel::from_index(level), trace),
            }
        }
        // The cadence restarts once this evaluation (and any compile it
        // ran) is over.
        let done_us = self.pipeline_start.elapsed().as_micros() as u64;
        self.next_eval_us.store(done_us + self.poll_us, Ordering::Relaxed);
        self.deciding.store(false, Ordering::Release);
    }

    fn decide(&self, trace: &mut WorkerTrace) {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        let progress = self.ctx.progress;
        let (win_tuples, win_secs) = progress.window();
        let w = self.ctx.threads as f64;
        let r0 = if win_secs > 0.0 { win_tuples as f64 / win_secs / w } else { 0.0 };
        let n = self.ctx.total_rows.saturating_sub(progress.total()) as f64;
        // Lock-free poll of the current backend via the cached level — the
        // decision path never touches the handle's lock.
        let current = self.ctx.handle.level();
        let target = extrapolate_pipeline_durations(
            &self.ctx.model,
            self.instrs,
            n,
            w,
            r0,
            Some(current),
            self.ceiling,
        );
        let Some(mut level) = target else { return };
        // Ladder degradation: a tier whose compile failed recently is
        // quarantined — fall to the next-lower rung that is still an
        // upgrade, or do nothing this round (the next execution after
        // the skip budget is spent probes the tier again).
        while self.ctx.quarantine.blocked(level) {
            match level.below() {
                Some(lower) if lower > current => level = lower,
                _ => return,
            }
        }
        // A concurrent execution of the same prepared query may already
        // have compiled this pipeline at (or above) the target level —
        // install that for free instead of compiling. Rate bookkeeping
        // mirrors a compile install: reset the window so the next
        // decision's `r0` is measured at the new level.
        if self.ctx.tiers.best_level() >= level {
            if let Some(b) = self.ctx.tiers.best() {
                if self.ctx.handle.install(b) {
                    progress.reset_window();
                }
                return;
            }
        }
        self.compile(level, trace);
    }

    /// "The thread compiles the worker function and resets all processing
    /// rates": `level` is compiled here, on the worker that decided, while
    /// the other w−1 workers keep claiming morsels — and steal this one's
    /// partition — as [`extrapolate_pipeline_durations`] prices it. The
    /// backend is published into the handle, so every worker switches on
    /// its next morsel. A failed or panicking compile is contained
    /// ([`compile_step`]): the pipeline keeps its level.
    fn compile(&self, level: ExecLevel, trace: &mut WorkerTrace) {
        self.compiles_started.fetch_add(1, Ordering::Relaxed);
        let (tiers, q) = (self.ctx.tiers, self.ctx.quarantine);
        match compile_step(tiers, level, q, Some("compile_job"), Some(trace)) {
            Some(claimed) => {
                if self.ctx.handle.install(claimed.backend) {
                    self.installs.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.degraded.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.ctx.progress.reset_window();
    }

    /// End of the pipeline run: its summary, and how many compiles it
    /// published (`Report::background_compiles`).
    pub fn finalize(self, dispenser: &MorselDispenser) -> (PipelineSchedReport, usize) {
        let sched = PipelineSchedReport {
            pipeline: self.ctx.pid,
            start_level: self.start_level,
            total_rows: self.ctx.total_rows,
            morsels: self.ctx.progress.morsels(),
            steals: dispenser.steals(),
            stolen_tuples: dispenser.stolen_tuples(),
            decisions: self.decisions.load(Ordering::Relaxed),
            compiles_started: self.compiles_started.load(Ordering::Relaxed),
            rows_skipped: self.ctx.progress.skipped(),
            degraded: self.degraded.load(Ordering::Relaxed),
        };
        (sched, self.installs.load(Ordering::Relaxed) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelKind;
    use crate::sched::quarantine::QuarantineStore;
    use std::sync::Arc;

    #[test]
    fn cancelled_execution_compiles_and_publishes_nothing() {
        use aqe_ir::{FunctionBuilder, Type};

        // A single-worker pipeline of 2^40 rows that just ran a million of
        // them through bytecode within a millisecond: both a pending start
        // winner and a Fig. 7 climb would compile optimized code.
        let run = |cancelled: bool, start_compile: Option<ExecLevel>| {
            let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
            let p = b.param(0);
            b.ret(Some(p.into()));
            let f = b.finish().unwrap();
            let tiers = TierTable::new(Arc::new(f), Arc::new(Vec::new()));
            let handle =
                FunctionHandle::new(tiers.get_or_compile(ExecLevel::Interpreted).unwrap().backend);
            let progress = PipelineProgress::new(1);
            progress.record(0, 1_000_000);
            std::thread::sleep(Duration::from_millis(1));
            let cancel = CancelToken::new();
            if cancelled {
                cancel.cancel(CancelKind::Client);
            }
            let quarantine = Arc::new(QuarantineStore::new()).pipeline(0, 0);
            let ctx = ControllerCtx {
                cancel: &cancel,
                pid: 0,
                handle: &handle,
                tiers: &tiers,
                progress: &progress,
                model: CostModel::default(),
                total_rows: 1 << 40,
                threads: 1,
                quarantine: &quarantine,
                adaptive: true,
                first_eval: Duration::ZERO,
            };
            let controller = AdaptiveController::new(ctx, start_compile);
            controller.maybe_decide(&mut WorkerTrace::new(false, 0, 0, Instant::now()));
            let (sched, installs) = controller.finalize(&MorselDispenser::new(0, 1, 1, 1));
            (handle.level(), tiers.best_level(), sched.compiles_started, installs)
        };
        // The start winner, then a climb; the same run live compiles and
        // publishes wherever an emitter exists.
        let nothing = (ExecLevel::Interpreted, ExecLevel::Interpreted, 0, 0);
        let live = (ExecLevel::Optimized, ExecLevel::Optimized, 1, 1);
        for start_compile in [Some(ExecLevel::Optimized), None] {
            assert_eq!(run(true, start_compile), nothing, "cancelled, {start_compile:?}");
            if aqe_jit::native::enabled() {
                assert_eq!(run(false, start_compile), live, "live, {start_compile:?}");
            }
        }
    }

    #[test]
    fn exec_level_classifies_ranks() {
        use aqe_ir::{FunctionBuilder, Type};

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

        // The controller reads a pipeline's level off its handle: the level
        // of the backend installed there, at every rung this process reaches.
        let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let p = b.param(0);
        b.ret(Some(p.into()));
        let f = b.finish().unwrap();
        let tiers = TierTable::new(Arc::new(f), Arc::new(Vec::new()));
        let mut level = Some(tiers.ceiling());
        while let Some(l) = level {
            let backend = tiers.get_or_compile(l).unwrap().backend;
            assert_eq!(backend.level(), l);
            assert_eq!(FunctionHandle::new(backend).level(), l);
            level = l.below();
        }
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
        extrapolate_pipeline_durations(
            &CostModel::default(),
            instrs,
            n,
            4.0,
            r0,
            Some(current),
            ceiling,
        )
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
    ///
    /// The same sweep plans each pipeline's start with a random quarantine:
    /// the level it runs at once any start compile has landed never falls
    /// as `n` grows, is never above the ceiling or quarantined, no rows
    /// start on bytecode, and an `Interpreted` ceiling never compiles.
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
            let quarantined = [false, rng.random_bool(0.25), rng.random_bool(0.25)];
            let blocked = |level: ExecLevel| quarantined[level as usize];
            let min_morsel = [64, 1024, 16384][rng.random_range(0usize..3)];
            let case = |n: f64| format!("instrs={instrs} w={w} r0={r0:.0} n={n:.0} {current:?}");
            let start = |n: u64| {
                plan_pipeline_start(&m, instrs, n, w as usize, min_morsel, ceiling, blocked)
            };
            let empty = start(0);
            assert_eq!(empty, PipelineStart { level: ExecLevel::Interpreted, compile: None });
            let mut prev = None;
            let mut prev_start = empty;
            for k in 0..200 {
                let n = 10f64.powf(k as f64 / 20.0);
                let got =
                    extrapolate_pipeline_durations(&m, instrs, n, w, r0, Some(current), ceiling);
                assert!(got >= prev, "proposal fell from {prev:?} to {got:?}: {}", case(n));
                if current == ExecLevel::Interpreted
                    && n / (r0 * w) < m.ctime(ExecLevel::Unoptimized, instrs)
                {
                    assert_eq!(got, None, "compile proposed before it can pay: {}", case(n));
                }
                if let Some(level) = got {
                    assert!(
                        level > current && level <= ceiling,
                        "{level:?} proposed under ceiling {ceiling:?}: {}",
                        case(n)
                    );
                }
                prev = got;

                let s = start(n as u64);
                let target = s.compile.unwrap_or(s.level);
                let prev_target = prev_start.compile.unwrap_or(prev_start.level);
                assert!(
                    s.level >= prev_start.level && target >= prev_target,
                    "start fell from {prev_start:?} to {s:?}: {}",
                    case(n)
                );
                for level in [s.level, target] {
                    assert!(level <= ceiling && !blocked(level), "{s:?} under {ceiling:?}");
                }
                assert!(s.compile.is_none_or(|c| c > s.level), "{s:?}: {}", case(n));
                if ceiling == ExecLevel::Interpreted {
                    assert_eq!(s, empty, "a bytecode-only process compiled: {}", case(n));
                }
                prev_start = s;
            }
        }
    }

    #[test]
    fn pipeline_start_builds_cheap_winners_and_compiles_costly_ones_in_the_background() {
        use ExecLevel::{Interpreted, Optimized, Unoptimized};
        // A 200-instruction worker function on two threads, default model.
        let m = CostModel::default();
        let plan = |n, min_morsel, blocked: &dyn Fn(ExecLevel) -> bool| {
            plan_pipeline_start(&m, 200, n, 2, min_morsel, Optimized, blocked)
        };
        let open = |_| false;
        let start = |level, compile| PipelineStart { level, compile };
        // A handful of rows: translating beats any compile.
        assert_eq!(plan(10, 1024, &open), start(Interpreted, None));
        // Enough rows for the unoptimized compile to pay, and it builds in
        // less than one morsel of bytecode work: synchronously.
        assert_eq!(plan(10_000, 1024, &open), start(Unoptimized, None));
        // Millions of rows: the optimized level wins but takes longer to
        // build than a morsel — compiled by the first worker to finish a
        // morsel of unoptimized code, which does build that fast…
        assert!(m.ctime(Optimized, 200) > 1024.0 * m.bc_row_s(200));
        assert_eq!(plan(50_000_000, 1024, &open), start(Unoptimized, Some(Optimized)));
        // …and on bytecode when morsels are too small for any compile.
        assert_eq!(plan(50_000_000, 64, &open), start(Interpreted, Some(Optimized)));
        // A quarantined winner falls one rung.
        let no_opt = |l| l == Optimized;
        assert_eq!(plan(50_000_000, 1024, &no_opt), start(Unoptimized, None));
    }
}
