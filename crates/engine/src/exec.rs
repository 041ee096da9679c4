//! Query execution orchestration: hot-swappable function handles (Fig. 5),
//! pipeline setup, and sink finalisation.
//!
//! "We always start executing every query using the bytecode interpreter and
//! all available threads. We then monitor the execution progress to decide
//! whether (unoptimized or optimized) compilation would be beneficial. If
//! this is the case, we start compiling on a background thread, while the
//! other threads continue the interpreted execution. Once compilation is
//! finished, all threads quickly switch to the compiled machine code."
//!
//! Deviation (DESIGN.md §2): that start rests on bytecode translation
//! being almost free (Fig. 2). With this emitter it costs about half an
//! unoptimized compile (Fig. 6), so a cold adaptive pipeline does not
//! start on bytecode by default. When it starts, its row count is known
//! exactly, and the cost model prices the whole run at every level with
//! nothing built yet (`sched::controller::plan_pipeline_start`). A cheap
//! winner is built before the first morsel. A costly one is compiled by
//! the first worker to finish a morsel, while the others run on the best
//! level that builds that fast — bytecode at least, as in the paper. A
//! pipeline is translated to bytecode only when it starts on bytecode or
//! falls to it. From there on the controller only climbs.
//!
//! Threads: a pipeline runs on its own `threads` workers and nothing else.
//! Worker 0 is the calling thread; the other `threads − 1` are scoped
//! threads that end with the pipeline's morsel loop. No compile has a
//! thread of its own: the worker that decides compiles, as in Fig. 7, and
//! every build of a backend goes through `compile_step`.
//!
//! The *scheduling* half of that loop — who runs which rows, how progress
//! is observed, and when the controller compiles — lives in the crate's
//! `sched` module; this module owns the per-query state, the handle
//! indirection, and the pipeline-end sinks.

use crate::cancel::CancelToken;
use crate::plan::{FieldTy, PhysicalPlan, Sink, Source};
use crate::runtime::{merge_agg_tables, sort_rows, JoinHt, WorkerRt};
use crate::sched::{
    plan_pipeline_start, AdaptiveController, ControllerCtx, CostModel, ExecLevel, MorselDispenser,
    PipelineProgress, PipelineQuarantine, PipelineSchedReport,
};
use crate::simd::ScanKernel;
use crate::tiers::{Claimed, TierTable};
use aqe_storage::CatalogSnapshot;
use aqe_vm::interp::{ExecError, Frame};
use aqe_vm::naive::NaiveBackend;
use aqe_vm::rt::Registry;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Execution modes (re-export)
// ---------------------------------------------------------------------------

/// Re-exported from `aqe-vm`: the mode vocabulary is shared by every
/// backend implementation, so it lives next to [`PipelineBackend`].
pub use aqe_vm::backend::{ExecMode, PipelineBackend};

// ---------------------------------------------------------------------------
// Function handles (Fig. 5)
// ---------------------------------------------------------------------------

/// "Instead of identifying a worker function by its memory address, we
/// introduce an additional handle indirection. … to change the execution
/// mode, one only needs to set a function pointer in this handle object."
///
/// The handle holds exactly one `Arc<dyn PipelineBackend>` — the *current*
/// executable representation of the worker function. Workers [`load`] it
/// once per morsel and call through it without knowing (or branching on)
/// which backend it is; the worker that compiles a better representation
/// publishes it with [`install`], and every worker picks it up on its next
/// morsel. Swaps are monotonic in [`ExecLevel`], so execution only ever
/// upgrades.
///
/// [`load`]: FunctionHandle::load
/// [`install`]: FunctionHandle::install
pub(crate) struct FunctionHandle {
    /// The current backend. An uncontended RwLock read is cheap relative
    /// to a morsel's worth of work (with the real `parking_lot` it is a
    /// single atomic op; the vendored offline stand-in wraps `std::sync`
    /// and costs slightly more), and writers only ever hold the lock for
    /// the duration of an `Arc` store.
    current: RwLock<Arc<dyn PipelineBackend>>,
    /// Cached `level() as u8` of the current backend; workers and the
    /// adaptive controller poll this without touching the lock.
    level: AtomicU8,
}

impl FunctionHandle {
    pub fn new(initial: Arc<dyn PipelineBackend>) -> Self {
        let level = initial.level() as u8;
        FunctionHandle { current: RwLock::new(initial), level: AtomicU8::new(level) }
    }

    /// The function-pointer read of Fig. 5: the backend to run the next
    /// morsel with.
    pub fn load(&self) -> Arc<dyn PipelineBackend> {
        self.current.read().clone()
    }

    /// Level of the current backend, read lock-free.
    pub fn level(&self) -> ExecLevel {
        ExecLevel::from_index(self.level.load(Ordering::Acquire))
    }

    /// Atomically publish `backend` if its level is above the current one.
    /// Returns whether the swap happened.
    pub fn install(&self, backend: Arc<dyn PipelineBackend>) -> bool {
        let level = backend.level();
        let mut cur = self.current.write();
        if level > cur.level() {
            *cur = backend;
            self.level.store(level as u8, Ordering::Release);
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Tracing (Fig. 14)
// ---------------------------------------------------------------------------

/// One trace event (times in µs since query start).
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    pub thread: u16,
    pub pipeline: u16,
    /// [`ExecLevel`] of the backend the morsel ran on, as its index —
    /// 0 = interpreted, 1 = unoptimized machine code, 2 = optimized
    /// machine code — or 255 for a machine-code compile, on the row of the
    /// worker that ran it: a controller's mid-query compile, or an
    /// adaptive pipeline's synchronous start compile (worker 0).
    pub kind: u8,
    pub start_us: u64,
    pub end_us: u64,
    /// Rows of the morsel as scanned; whether a scan pre-filter kept some
    /// of them from the backend shows in
    /// [`PipelineSchedReport::rows_skipped`], not here.
    pub tuples: u64,
}

/// One worker's row of [`Report::trace`] for one pipeline run: its morsels
/// and the compiles it ran. Records nothing, and reads no clock, unless
/// [`ExecOptions::trace`] is set.
pub(crate) struct WorkerTrace {
    on: bool,
    thread: u16,
    pipeline: u16,
    exec_start: Instant,
    events: Vec<TraceEvent>,
}

impl WorkerTrace {
    /// Worker `thread`'s empty row for `pipeline`, recording if `on`.
    pub fn new(on: bool, thread: usize, pipeline: usize, exec_start: Instant) -> WorkerTrace {
        let (thread, pipeline) = (thread as u16, pipeline as u16);
        WorkerTrace { on, thread, pipeline, exec_start, events: Vec::new() }
    }

    /// µs since query start (0 while not tracing).
    pub fn now_us(&self) -> u64 {
        if self.on {
            self.exec_start.elapsed().as_micros() as u64
        } else {
            0
        }
    }

    /// Record an event of `kind` that ran from `start_us` until now.
    pub fn push(&mut self, kind: u8, start_us: u64, tuples: u64) {
        if self.on {
            let end_us = self.now_us();
            let (thread, pipeline) = (self.thread, self.pipeline);
            self.events.push(TraceEvent { thread, pipeline, kind, start_us, end_us, tuples });
        }
    }
}

/// Full execution report.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Wall time spent generating IR for this execution.
    /// `Duration::ZERO` on a warm prepared-query re-execution.
    pub codegen: Duration,
    /// Wall time spent translating IR to bytecode for this execution, for
    /// the pipelines that started on bytecode or fell to it.
    /// `Duration::ZERO` on a warm prepared-query re-execution, and when
    /// every pipeline started on machine code.
    pub bc_translate: Duration,
    /// Machine-code compiles paid before a pipeline's first morsel: every
    /// pipeline's pinned level in a static mode, and a cold adaptive
    /// pipeline's synchronous start compile.
    pub upfront_compile: Duration,
    pub exec: Duration,
    /// Backends the adaptive controller compiled during a pipeline run and
    /// published into its handle: a start winner too costly to build before
    /// the first morsel, and the climbs of Fig. 7. Each was compiled by the
    /// morsel worker that decided on it, while the others kept running.
    pub background_compiles: usize,
    /// One event per morsel and per machine-code compile a worker ran,
    /// ordered by thread and start time. Empty unless
    /// [`ExecOptions::trace`] was set.
    pub trace: Vec<TraceEvent>,
    /// Pipeline labels, by pipeline id (for rendering traces). Empty on a
    /// result-cache hit, which runs no pipeline (like `sched`).
    pub pipeline_labels: Vec<String>,
    /// Per-pipeline scheduler summaries (morsels, steals, decisions,
    /// compiles).
    pub sched: Vec<PipelineSchedReport>,
    /// The result came from the engine's versioned query-result cache:
    /// no codegen, no translation, no morsel ran (and `sched` is empty).
    pub result_cache_hit: bool,
    /// Version of the immutable catalog snapshot this execution ran
    /// against. Every artifact of the run — cache key, compiled state,
    /// column base pointers — derives from this one epoch, so a torn read
    /// (mixing two catalog versions within one execution) is impossible
    /// by construction.
    pub snapshot_version: u64,
    /// This execution built the prepared query's compiled state (codegen,
    /// registry resolution) under the cold-compile latch. Warm executions
    /// reuse the published state without ever taking that latch.
    pub cold_build: bool,
    /// Compilations (up-front or mid-query) that failed or panicked and
    /// were contained by ladder degradation: the execution continued one
    /// rung down instead of surfacing `ExecError::Compile`. The broken
    /// tier is quarantined: later executions of the plan skip it for a
    /// while ([`Report::quarantine_skips`]).
    pub degraded: u64,
    /// Tiers this execution skipped because an earlier execution
    /// quarantined them (no compile was attempted; the ladder topped out
    /// one rung lower).
    pub quarantine_skips: u64,
}

// ---------------------------------------------------------------------------
// Query state assembly & pipeline finalisation
// ---------------------------------------------------------------------------

struct QueryState {
    slots: Vec<u64>,
    join_hts: Vec<Option<JoinHt>>,
    agg_rows: Vec<Vec<u64>>, // merged group rows per agg
    mat_rows: Vec<Vec<u64>>,
    out_rows: Vec<u64>,
    /// Keep dictionaries alive for the duration.
    _dicts: Vec<Arc<Vec<u8>>>,
}

/// Execution result: dense rows of the output schema.
#[derive(Clone, Debug)]
pub struct ResultRows {
    pub tys: Vec<FieldTy>,
    pub rows: Vec<u64>,
}

impl ResultRows {
    pub fn row_count(&self) -> usize {
        if self.tys.is_empty() {
            0
        } else {
            self.rows.len() / self.tys.len()
        }
    }
}

/// A bind-variable value supplied to
/// [`Session::execute_bound`](crate::session::Session::execute_bound).
/// Decimal parameters are
/// bound in their scaled integer representation (cents), date parameters
/// as day numbers — the same representation the plan's literals use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ParamValue {
    I64(i64),
    F64(f64),
}

impl ParamValue {
    /// The representation type this value binds to.
    pub fn field_ty(&self) -> FieldTy {
        match self {
            ParamValue::I64(_) => FieldTy::I64,
            ParamValue::F64(_) => FieldTy::F64,
        }
    }

    /// The 64-bit pattern stored in the parameter block.
    pub fn bits(&self) -> u64 {
        match self {
            ParamValue::I64(v) => *v as u64,
            ParamValue::F64(v) => v.to_bits(),
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> ParamValue {
        ParamValue::I64(v)
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> ParamValue {
        ParamValue::F64(v)
    }
}

/// Execution options.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    pub mode: ExecMode,
    pub threads: usize,
    /// Record [`Report::trace`].
    pub trace: bool,
    pub model: CostModel,
    /// Initial morsel size; grows ×2 up to `max_morsel` ("we can further
    /// refine this extrapolation by using a dynamically growing morsel
    /// size").
    pub min_morsel: usize,
    pub max_morsel: usize,
    /// Delay before the first adaptive evaluation (paper: 1 ms).
    pub first_eval: Duration,
    /// Consult and populate the engine's versioned query-result cache
    /// (`session::Engine`). Disable for benchmarks that must observe a
    /// real execution on every run.
    pub cache_results: bool,
    /// This execution's cooperative cancellation token: poisoning it (or
    /// its armed deadline expiring) stops the morsel loop within one
    /// range claim and surfaces as `ExecError::Cancelled`. The default is
    /// a fresh, never-poisoned token. Note that cloning an `ExecOptions`
    /// *shares* the token — callers that cancel should install a fresh
    /// token per execution, as the server does.
    pub cancel: CancelToken,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mode: ExecMode::Adaptive,
            threads: 1,
            trace: false,
            model: CostModel::default(),
            min_morsel: 1024,
            max_morsel: 64 * 1024,
            first_eval: Duration::from_millis(1),
            cache_results: true,
            cancel: CancelToken::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline-loop core (driven by the session layer)
// ---------------------------------------------------------------------------

/// Everything one query execution needs once its artifacts (registry,
/// per-pipeline tier tables and the initial backends known up front) have
/// been assembled by the session layer.
pub(crate) struct QueryRun<'a> {
    pub plan: &'a PhysicalPlan,
    /// The immutable catalog epoch this execution is pinned to — cloned
    /// `Arc`s, never a lock held across the morsel loop.
    pub cat: &'a CatalogSnapshot,
    pub registry: &'a Arc<Registry>,
    /// Per pipeline, the backend its first morsel runs on: a static mode's
    /// pinned level, or a warm adaptive pipeline's best. `None` is a cold
    /// adaptive pipeline, whose start level is chosen when it starts.
    pub initial: &'a [Option<Arc<dyn PipelineBackend>>],
    /// Per-pipeline tier tables of the prepared query's compiled state:
    /// mid-query compiles fill these, so concurrent executions warm-start
    /// mid-flight.
    pub tiers: &'a [Arc<TierTable>],
    /// Per-pipeline scan pre-filters (`None` where the plan has no
    /// vectorizable filter in front of a table scan), same indexing.
    pub kernels: &'a [Option<Arc<ScanKernel>>],
    pub opts: &'a ExecOptions,
    /// Bind-variable values for this execution, one `u64` bit pattern per
    /// entry of `plan.params` (`f64` parameters as `to_bits`). Empty for
    /// non-parameterized plans. The slice is installed into the plan's
    /// param state slot, so every backend and the scan pre-filter read the
    /// same block.
    pub params: &'a [u64],
    /// Per-pipeline quarantine views (one per pipeline, same indexing as
    /// `initial`): the controller skips tiers an earlier execution
    /// quarantined and records this run's compile outcomes.
    pub quarantine: &'a [PipelineQuarantine],
}

/// Run every pipeline of the plan in order through the hot-swap handles:
/// state assembly, the morsel loops, sink finalisation, and the report's
/// execution-side fields. Code generation and the static modes' up-front
/// compiles have already happened; a cold adaptive pipeline builds its
/// start level here, when its row count is known.
pub(crate) fn run_pipelines(
    run: QueryRun<'_>,
    report: &mut Report,
) -> Result<ResultRows, ExecError> {
    let QueryRun { plan, cat, registry, initial, tiers, kernels, opts, params, quarantine } = run;

    // ---- state assembly ---------------------------------------------------
    let mut state = QueryState {
        slots: vec![0; plan.state_slots],
        join_hts: (0..plan.join_hts.len()).map(|_| None).collect(),
        agg_rows: vec![Vec::new(); plan.aggs.len()],
        mat_rows: vec![Vec::new(); plan.mats.len()],
        out_rows: Vec::new(),
        _dicts: plan.dicts.iter().map(|d| d.bytes.clone()).collect(),
    };
    for d in &plan.dicts {
        state.slots[d.state_slot] = d.bytes.as_ptr() as u64;
    }
    if let Some(ps) = plan.param_slot {
        if params.len() != plan.params.len() {
            return Err(ExecError::Bind(format!(
                "plan expects {} parameter(s), got {}",
                plan.params.len(),
                params.len()
            )));
        }
        // `params` borrows from the caller, which outlives the morsel
        // loops — same lifetime discipline as the dictionary slots above.
        state.slots[ps] = params.as_ptr() as u64;
    }

    let agg_shapes: Vec<(usize, Vec<crate::plan::AggFunc>)> =
        plan.aggs.iter().map(|a| (a.nkeys, a.aggs.clone())).collect();

    let exec_start = Instant::now();

    // One reusable register-file buffer per worker for the *whole query*:
    // a pipeline whose frame spills to the heap re-uses the previous
    // pipeline's allocation instead of growing a fresh one.
    let threads = opts.threads.max(1);
    let mut frames: Vec<Frame> = (0..threads).map(|_| Frame::new()).collect();

    // ---- run pipelines in order -------------------------------------------
    for p in &plan.pipelines {
        // Cancellation checkpoint between pipelines: a query poisoned
        // while pipeline k was finalizing never starts pipeline k+1.
        opts.cancel.check()?;
        // Resolve the source: base pointers + total work.
        let total_rows = match &p.source {
            Source::Table { table, cols, slot_base, .. } => {
                let t = cat
                    .get(table)
                    .ok_or_else(|| ExecError::Setup(format!("unknown table {table}")))?;
                for (k, &c) in cols.iter().enumerate() {
                    state.slots[slot_base + k] = t.column(c).base_ptr() as u64;
                }
                t.row_count()
            }
            Source::Rows { rows_slot, field_tys } => {
                // Filled by a previous finalize step.
                let _ = field_tys;
                state.slots[*rows_slot + 1] as usize
            }
        };

        let pipeline = PipelineRun {
            pid: p.id,
            initial: initial[p.id].as_ref(),
            tiers: &tiers[p.id],
            kernel: kernels[p.id].as_deref(),
            registry,
            total_rows,
            plan,
            agg_shapes: &agg_shapes,
            opts,
            exec_start,
            quarantine: &quarantine[p.id],
        };
        pipeline.run(report, &mut state, &mut frames)?;
    }

    report.exec = exec_start.elapsed();
    report.trace.sort_by_key(|e| (e.thread, e.start_us));

    // ---- final output ------------------------------------------------------
    let rows = std::mem::take(&mut state.out_rows);
    Ok(ResultRows { tys: plan.output_tys.clone(), rows })
}

/// Widest row any sink of the plan stages into the row buffer.
fn plan_max_row_width(plan: &PhysicalPlan) -> usize {
    let mut w = plan.output_tys.len();
    for ht in &plan.join_hts {
        w = w.max(ht.nkeys + ht.payload);
    }
    for a in &plan.aggs {
        w = w.max(a.nkeys + a.aggs.len());
    }
    for m in &plan.mats {
        w = w.max(m.width);
    }
    w
}

/// Everything one pipeline run needs (bundled so the orchestration reads
/// as: pick the start, build the scheduler, run the workers, finalize the
/// controller, run the sink).
struct PipelineRun<'a> {
    pid: usize,
    initial: Option<&'a Arc<dyn PipelineBackend>>,
    tiers: &'a TierTable,
    kernel: Option<&'a ScanKernel>,
    registry: &'a Arc<Registry>,
    total_rows: usize,
    plan: &'a PhysicalPlan,
    agg_shapes: &'a [(usize, Vec<crate::plan::AggFunc>)],
    opts: &'a ExecOptions,
    exec_start: Instant,
    quarantine: &'a PipelineQuarantine,
}

impl PipelineRun<'_> {
    /// The morsel loop on `frames.len()` workers: worker 0 is the calling
    /// thread, the others are scoped threads that end with the loop.
    fn run(
        self,
        report: &mut Report,
        state: &mut QueryState,
        frames: &mut [Frame],
    ) -> Result<(), ExecError> {
        let opts = self.opts;
        let threads = frames.len();
        let mut traces: Vec<WorkerTrace> = (0..threads)
            .map(|tid| WorkerTrace::new(opts.trace, tid, self.pid, self.exec_start))
            .collect();

        // ---- the start level ----------------------------------------------
        // A cold start compiles on this thread, which is worker 0.
        let (start, start_compile) = match self.initial {
            Some(b) => (Built { backend: b.clone(), compiles: 0 }, None),
            None => self.cold_start(threads, &mut traces[0], report),
        };
        let handle = FunctionHandle::new(start.backend);

        // ---- scheduler assembly (see crate::sched) ------------------------
        let dispenser = MorselDispenser::new(
            self.total_rows as u64,
            threads,
            opts.min_morsel as u64,
            opts.max_morsel as u64,
        );
        let progress = PipelineProgress::new(threads);
        let controller = AdaptiveController::new(
            ControllerCtx {
                cancel: &opts.cancel,
                pid: self.pid,
                handle: &handle,
                tiers: self.tiers,
                progress: &progress,
                model: opts.model,
                total_rows: self.total_rows as u64,
                threads,
                quarantine: self.quarantine,
                adaptive: opts.mode == ExecMode::Adaptive,
                first_eval: opts.first_eval,
            },
            start_compile,
        );

        let state_ptr = state.slots.as_ptr() as u64;
        // The scan's vectorized pre-filter (see `crate::simd`), resolved
        // against this execution's parameter block once for the whole
        // pipeline run; a binding that drops every conjunct leaves nothing
        // to filter with. It sits in front of whatever backend the handle
        // holds.
        let prefilter = self.kernel.and_then(|kernel| {
            // SAFETY: `run_pipelines` installed the parameter-block pointer
            // and checked its arity against `plan.params`.
            let conjuncts = unsafe { kernel.resolve(state.slots.as_ptr()) };
            (!conjuncts.is_empty()).then_some((kernel, conjuncts))
        });
        // Workers poll only the flag (relaxed, once per morsel); the error
        // value itself is stored under the mutex on the cold path.
        let failed = AtomicBool::new(false);
        let error: Mutex<Option<ExecError>> = Mutex::new(None);
        let fail = |e: ExecError| {
            let mut slot = error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
            failed.store(true, Ordering::Relaxed);
        };

        // Worker runtimes, one per thread (created up front so finalize can
        // collect them after the scope).
        let row_buf_slots = plan_max_row_width(self.plan);
        let mut worker_rts: Vec<Box<WorkerRt>> = (0..threads)
            .map(|_| {
                WorkerRt::new(
                    self.plan.join_hts.len(),
                    self.agg_shapes,
                    self.plan.mats.len(),
                    row_buf_slots,
                )
            })
            .collect();

        // ---- the morsel loop ----------------------------------------------
        let worker = |tid, wrt: &mut WorkerRt, trace: &mut WorkerTrace, frame: &mut Frame| {
            // Panic isolation at the worker boundary: a worker that panics
            // (a backend bug, an injected `worker=panic` fault) must fail
            // the *query* with a typed error, not unwind through the scope
            // join or into the caller. The shared locks are non-poisoning
            // (vendored parking_lot), so the other workers drain cleanly
            // via the `failed` flag.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let wctx = wrt.wctx_ptr();
                // The Fig. 5 indirection, loaded once and then refreshed
                // only when the handle's (atomic) level says a better
                // backend was published: the `Arc` clone + lock of a full
                // `load()` happens once per *switch*, not once per morsel —
                // the controller can't swap more often than the level
                // changes, so nothing newer can be missed.
                let mut backend = handle.load();
                let mut backend_level = backend.level();
                loop {
                    if failed.load(Ordering::Relaxed) {
                        return;
                    }
                    // The cooperative cancellation checkpoint: one atomic
                    // load per claim on the live path. A poisoned token
                    // (client cancel, expired deadline, dropped connection)
                    // stops this worker before it claims another range —
                    // never mid-morsel, so sinks only ever see whole
                    // morsels.
                    if let Err(e) = opts.cancel.check() {
                        return fail(e);
                    }
                    // Injectable fault site, once per claim round
                    // (`AQE_FAULT="worker=..."`). An `err` action surfaces
                    // as a typed internal error; a `panic` action exercises
                    // the catch_unwind boundary.
                    if let Err(site) = aqe_fault::failpoint("worker") {
                        return fail(ExecError::Internal { site });
                    }
                    // Front of our own partition, or stolen loot once it
                    // runs dry; `None` means the pipeline is done.
                    let Some(m) = dispenser.claim(tid) else { return };
                    let t_m0 = trace.now_us();
                    let level = handle.level();
                    if level != backend_level {
                        backend = handle.load();
                        backend_level = level;
                    }
                    let mut call = |begin, end| {
                        let args = [wctx, state_ptr, begin, end];
                        backend.call(&args, self.registry, frame).map(drop)
                    };
                    let called = match &prefilter {
                        None => call(m.begin, m.end),
                        // SAFETY: the state slots hold this epoch's column
                        // base pointers and the dispenser hands out
                        // in-bounds row ranges — the contract the worker
                        // function loads under.
                        Some((kernel, conjuncts)) => unsafe {
                            let state = state_ptr as *const u64;
                            kernel.for_each_run(conjuncts, state, m.begin, m.end, call)
                        }
                        .map(|skipped| progress.record_skipped(tid, skipped)),
                    };
                    if let Err(e) = called {
                        return fail(e);
                    }
                    progress.record(tid, m.tuples());
                    trace.push(backend_level as u8, t_m0, m.tuples());
                    // ---- adaptive decision (Fig. 7) -----------------------
                    controller.maybe_decide(trace);
                }
            }));
            if caught.is_err() {
                let site = format!("morsel worker {tid} (pipeline {})", self.pid);
                fail(ExecError::Internal { site });
            }
        };
        std::thread::scope(|scope| {
            let mut workers =
                worker_rts.iter_mut().zip(&mut traces).zip(frames.iter_mut()).enumerate();
            let caller = workers.next();
            for (tid, ((wrt, trace), frame)) in workers {
                let worker = &worker;
                scope.spawn(move || worker(tid, wrt, trace, frame));
            }
            if let Some((tid, ((wrt, trace), frame))) = caller {
                worker(tid, wrt, trace, frame);
            }
        });

        let (mut sched, installs) = controller.finalize(&dispenser);
        sched.compiles_started += start.compiles;
        report.background_compiles += installs;
        report.degraded += sched.degraded;
        report.quarantine_skips += self.quarantine.skips();
        report.sched.push(sched);

        if let Some(e) = error.into_inner() {
            return Err(e);
        }
        for t in traces {
            report.trace.extend(t.events);
        }

        self.finalize_sink(state, &mut worker_rts)
    }

    /// A cold adaptive pipeline's first backend, built by the caller (worker
    /// 0) before the first morsel: the level [`plan_pipeline_start`] picks
    /// for this run's row count, through [`build_backend`] like a static
    /// mode's pin. The second value is the start winner the controller
    /// compiles once the pipeline runs.
    fn cold_start(
        &self,
        threads: usize,
        trace: &mut WorkerTrace,
        report: &mut Report,
    ) -> (Built, Option<ExecLevel>) {
        let opts = self.opts;
        let plan = plan_pipeline_start(
            &opts.model,
            self.tiers.function().instruction_count(),
            self.total_rows as u64,
            threads,
            opts.min_morsel,
            self.tiers.ceiling(),
            |level| self.quarantine.blocked(level),
        );
        (build_backend(self.tiers, plan.level, self.quarantine, report, Some(trace)), plan.compile)
    }

    /// Pipeline finalize (the "queryStart" host side).
    fn finalize_sink(
        &self,
        state: &mut QueryState,
        worker_rts: &mut [Box<WorkerRt>],
    ) -> Result<(), ExecError> {
        let plan = self.plan;
        let pipeline = &plan.pipelines[self.pid];
        match &pipeline.sink {
            Sink::BuildJoin { ht, keys, payload } => {
                let bufs: Vec<Vec<u64>> =
                    worker_rts.iter_mut().map(|w| std::mem::take(&mut w.join_bufs[*ht])).collect();
                let table = JoinHt::build(keys.len(), payload.len(), &bufs);
                let spec = &plan.join_hts[*ht];
                state.slots[spec.state_slot] = table.buckets.as_ptr() as u64;
                state.slots[spec.state_slot + 1] = table.mask;
                state.join_hts[*ht] = Some(table);
            }
            Sink::BuildAgg { agg, .. } => {
                let spec = &plan.aggs[*agg];
                let tables: Vec<crate::runtime::AggTable> = worker_rts
                    .iter_mut()
                    .map(|w| {
                        let fresh = crate::runtime::AggTable::new(spec.nkeys, &spec.aggs);
                        std::mem::replace(&mut w.agg_tables[*agg], fresh)
                    })
                    .collect();
                let rows = merge_agg_tables(&tables, spec.nkeys, &spec.aggs)?;
                let width = spec.nkeys + spec.aggs.len();
                let nrows = rows.len().checked_div(width).unwrap_or(0);
                state.agg_rows[*agg] = rows;
                state.slots[spec.rows_slot] = state.agg_rows[*agg].as_ptr() as u64;
                state.slots[spec.rows_slot + 1] = nrows as u64;
            }
            Sink::Materialize { mat } => {
                let spec = &plan.mats[*mat];
                let mut rows: Vec<u64> = Vec::new();
                for w in worker_rts.iter_mut() {
                    rows.append(&mut w.mat_bufs[*mat]);
                }
                if let Some((keys, limit)) = &spec.sort {
                    sort_rows(&mut rows, spec.width, keys, *limit);
                }
                state.mat_rows[*mat] = rows;
                state.slots[spec.rows_slot] = state.mat_rows[*mat].as_ptr() as u64;
                state.slots[spec.rows_slot + 1] =
                    (state.mat_rows[*mat].len() / spec.width.max(1)) as u64;
            }
            Sink::Emit => {
                for w in worker_rts.iter_mut() {
                    state.out_rows.append(&mut w.out_buf);
                }
            }
        }

        // A root sort materialises; expose it as the output.
        if self.pid == plan.pipelines.len() - 1 {
            if let Sink::Materialize { mat } = &pipeline.sink {
                state.out_rows = std::mem::take(&mut state.mat_rows[*mat]);
            }
        }
        Ok(())
    }
}

/// A pipeline's backend as [`build_backend`] hands it out.
pub(crate) struct Built {
    pub backend: Arc<dyn PipelineBackend>,
    /// Machine-code compiles this call ran, failed ones included. Zero
    /// when every level it needed was already in the tier table.
    pub compiles: u64,
}

/// Pipeline backend at `level`, or the highest rung below it that builds:
/// capped at what the pipeline can reach here ([`TierTable::ceiling`] —
/// bytecode without an emitter, which does not count as a degradation),
/// read from the tier table or compiled into it now through
/// [`compile_step`] (timed in `Report::upfront_compile`). A compile that
/// fails or panics never surfaces: the level is quarantined,
/// `Report::degraded` counts it, and the pipeline takes the next rung down;
/// a live quarantine skips the compile the same way. A backend some run
/// already paid for is always reused — the quarantine only gates fresh
/// compile attempts.
///
/// The floor is bytecode, translated once (timed in
/// `Report::bc_translate`), degrading to the naive IR walker if
/// translation itself fails (the walker interprets the function directly
/// and cannot fail to build) — the bottom rung is unconditional, so no
/// execution ever dies on a broken translator.
pub(crate) fn build_backend(
    tiers: &TierTable,
    level: ExecLevel,
    q: &PipelineQuarantine,
    report: &mut Report,
    mut trace: Option<&mut WorkerTrace>,
) -> Built {
    let mut compiles = 0;
    let mut level = level.min(tiers.ceiling());
    while level > ExecLevel::Interpreted {
        if let Some(backend) = tiers.get(level) {
            return Built { backend, compiles };
        }
        if !q.blocked(level) {
            match compile_step(tiers, level, q, None, trace.as_deref_mut()) {
                Some(claimed) => {
                    if let Some(t) = claimed.compiled_in {
                        report.upfront_compile += t;
                        compiles += 1;
                    }
                    return Built { backend: claimed.backend, compiles };
                }
                None => {
                    report.degraded += 1;
                    compiles += 1;
                }
            }
        }
        level = level.below().unwrap_or(ExecLevel::Interpreted);
    }
    let backend = match compile_step(tiers, ExecLevel::Interpreted, q, None, None) {
        Some(bc) => {
            report.bc_translate += bc.compiled_in.unwrap_or_default();
            bc.backend
        }
        None => {
            report.degraded += 1;
            Arc::new(NaiveBackend::new(tiers.function().clone()))
        }
    };
    Built { backend, compiles }
}

/// The one step every build of a pipeline's backend goes through — a
/// static mode's pin, a cold adaptive start, the controller's compile on a
/// morsel worker: `level` read from the tier table or built into it, with
/// the failpoint `fault_site` (if any) in front. The build runs under
/// `catch_unwind`, so a panicking emitter is contained like a failed
/// compile. Either outcome is recorded in the quarantine view; a failure
/// returns `None`, and the caller counts it as a degradation. A
/// machine-code compile this call paid for is traced on `trace`, the row
/// of the worker that ran it.
pub(crate) fn compile_step(
    tiers: &TierTable,
    level: ExecLevel,
    q: &PipelineQuarantine,
    fault_site: Option<&str>,
    trace: Option<&mut WorkerTrace>,
) -> Option<Claimed> {
    let t0 = trace.as_ref().map_or(0, |t| t.now_us());
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(site) = fault_site {
            aqe_fault::failpoint(site)?;
        }
        tiers.get_or_compile(level)
    }));
    let Ok(Ok(claimed)) = built else {
        q.record_failure(level);
        return None;
    };
    q.record_success(level);
    let paid = level > ExecLevel::Interpreted && claimed.compiled_in.is_some();
    if let Some(trace) = trace.filter(|_| paid) {
        trace.push(255, t0, 0);
    }
    Some(claimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqe_ir::Function;
    use aqe_jit::compile::OptLevel;
    use aqe_jit::native::compile_native_at;
    use aqe_vm::translate::{translate, TranslateOptions};

    fn identity_function() -> Function {
        use aqe_ir::{FunctionBuilder, Type};
        let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let p = b.param(0);
        b.ret(Some(p.into()));
        b.finish().unwrap()
    }

    #[test]
    fn handle_swaps_are_monotonic_upgrades() {
        let f = identity_function();
        let bc = translate(&f, &[], TranslateOptions::default()).unwrap();
        let h = FunctionHandle::new(Arc::new(bc));
        assert_eq!(h.level(), ExecLevel::Interpreted);

        // The two interpreters are one level: neither replaces the other.
        assert!(!h.install(Arc::new(NaiveBackend::new(Arc::new(f.clone())))));
        assert_eq!(h.level(), ExecLevel::Interpreted);

        if !aqe_jit::native::enabled() {
            return;
        }
        let unopt = compile_native_at(&f, &[], OptLevel::Unoptimized).unwrap();
        assert!(h.install(Arc::new(unopt)));
        assert_eq!(h.level(), ExecLevel::Unoptimized);
        let opt = compile_native_at(&f, &[], OptLevel::Optimized).unwrap();
        assert!(h.install(Arc::new(opt)));
        assert_eq!(h.level(), ExecLevel::Optimized);
        assert_eq!(h.load().level(), ExecLevel::Optimized);
        // Downgrades are refused: a racing unoptimized compile arriving
        // late, or the interpreter.
        let late = compile_native_at(&f, &[], OptLevel::Unoptimized).unwrap();
        assert!(!h.install(Arc::new(late)));
        let bc = translate(&f, &[], TranslateOptions::default()).unwrap();
        assert!(!h.install(Arc::new(bc)));
        assert_eq!(h.level(), ExecLevel::Optimized);
    }

    #[test]
    fn every_backend_agrees_through_the_handle() {
        // The §III-B contract, exercised end-to-end through the seam the
        // engine actually uses: identical results from every backend kind
        // installed into a FunctionHandle.
        let f = identity_function();
        let shared = Arc::new(f.clone());
        let mut backends: Vec<Arc<dyn PipelineBackend>> = vec![
            Arc::new(NaiveBackend::new(shared)),
            Arc::new(translate(&f, &[], TranslateOptions::default()).unwrap()),
        ];
        if aqe_jit::native::enabled() {
            for level in [OptLevel::Unoptimized, OptLevel::Optimized] {
                backends.push(Arc::new(compile_native_at(&f, &[], level).unwrap()));
            }
        }
        let rt = Registry::new();
        let mut frame = Frame::new();
        for b in backends {
            let h = FunctionHandle::new(b);
            let got = h.load().call(&[42], &rt, &mut frame).unwrap();
            assert_eq!(got, Some(42), "backend {:?}", h.level());
        }
    }
}
