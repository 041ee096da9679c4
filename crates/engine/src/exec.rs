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
//! The *scheduling* half of that loop — who runs which rows, how progress
//! is observed, when the controller compiles, and how the cost model is
//! calibrated — lives in [`crate::sched`]; this module owns the per-query
//! state, the handle indirection, and the pipeline-end sinks.

use crate::cancel::CancelToken;
use crate::plan::{FieldTy, PhysicalPlan, Sink, Source};
use crate::runtime::{merge_agg_tables, sort_rows, JoinHt, WorkerRt};
use crate::sched::{
    AdaptiveController, ControllerCtx, CostCalibrator, MorselDispenser, PipelineProgress,
    PipelineQuarantine,
};
use crate::simd::ScanKernel;
use crate::tiers::TierTable;
use aqe_storage::CatalogSnapshot;
use aqe_vm::interp::{ExecError, Frame};
use aqe_vm::rt::Registry;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Execution modes & scheduler vocabulary (re-exports)
// ---------------------------------------------------------------------------

/// Re-exported from `aqe-vm`: the mode vocabulary is shared by every
/// backend implementation, so it lives next to [`PipelineBackend`].
pub use aqe_vm::backend::{ExecMode, PipelineBackend};

/// Re-exported from [`crate::sched`]: the cost model, the Fig. 7
/// extrapolation, and the calibration/report vocabulary grew out of this
/// module in PR 2 and keep their historical import paths.
pub use crate::sched::{
    extrapolate_pipeline_durations, CalibrationReport, CostModel, ExecLevel, PipelineSchedReport,
};

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
/// which backend it is; a background compilation publishes a better
/// representation with [`install`], and every worker picks it up on its
/// next morsel. Swaps are monotonic in [`ExecMode::rank`], so execution
/// only ever upgrades.
///
/// [`load`]: FunctionHandle::load
/// [`install`]: FunctionHandle::install
pub struct FunctionHandle {
    /// The current backend. An uncontended RwLock read is cheap relative
    /// to a morsel's worth of work (with the real `parking_lot` it is a
    /// single atomic op; the vendored offline stand-in wraps `std::sync`
    /// and costs slightly more), and writers only ever hold the lock for
    /// the duration of an `Arc` store.
    current: RwLock<Arc<dyn PipelineBackend>>,
    /// Cached `rank()` of the current backend; the adaptive controller
    /// polls this without touching the lock.
    rank: AtomicU8,
    /// A compilation is in flight: set by [`try_begin_compile`], cleared
    /// only by the claimant's [`end_compile`] — never by [`install`],
    /// which anyone may call.
    ///
    /// [`try_begin_compile`]: FunctionHandle::try_begin_compile
    /// [`end_compile`]: FunctionHandle::end_compile
    /// [`install`]: FunctionHandle::install
    compiling: AtomicBool,
}

impl FunctionHandle {
    pub fn new(initial: Arc<dyn PipelineBackend>) -> Self {
        let rank = initial.kind().rank();
        FunctionHandle {
            current: RwLock::new(initial),
            rank: AtomicU8::new(rank),
            compiling: AtomicBool::new(false),
        }
    }

    /// The function-pointer read of Fig. 5: the backend to run the next
    /// morsel with.
    pub fn load(&self) -> Arc<dyn PipelineBackend> {
        self.current.read().clone()
    }

    /// Rank of the current backend (see [`ExecMode::rank`]).
    pub fn rank(&self) -> u8 {
        self.rank.load(Ordering::Acquire)
    }

    /// Kind of the current backend.
    pub fn kind(&self) -> ExecMode {
        self.current.read().kind()
    }

    /// Atomically publish `backend` if it outranks the current one.
    /// Returns whether the swap happened. Publishing is all it does: a
    /// compile claim stays with its claimant, so installing a backend some
    /// other execution compiled cannot free the slot under a compile of
    /// this pipeline's own that is still in flight.
    pub fn install(&self, backend: Arc<dyn PipelineBackend>) -> bool {
        let rank = backend.kind().rank();
        let mut cur = self.current.write();
        if rank > cur.kind().rank() {
            *cur = backend;
            self.rank.store(rank, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Claim the right to start a (single) background compilation.
    pub fn try_begin_compile(&self) -> bool {
        !self.compiling.swap(true, Ordering::AcqRel)
    }

    /// Release the claim taken with [`try_begin_compile`]: the claimant
    /// calls this once its compile is over, whether it published, failed
    /// or was abandoned — a claim that is never released would disable
    /// upgrades for the pipeline permanently.
    ///
    /// [`try_begin_compile`]: FunctionHandle::try_begin_compile
    pub fn end_compile(&self) {
        self.compiling.store(false, Ordering::Release);
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
    /// [`ExecMode::trace_kind`] of the backend the morsel ran on —
    /// 0 = bytecode, 1 = unoptimized machine code, 3 = naive IR,
    /// 4 = optimized machine code — or 255 for a background compilation.
    pub kind: u8,
    pub start_us: u64,
    pub end_us: u64,
    /// Rows of the morsel as scanned; whether a scan pre-filter kept some
    /// of them from the backend shows in
    /// [`PipelineSchedReport::rows_skipped`], not here.
    pub tuples: u64,
}

/// Full execution report.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Wall time spent generating IR for this execution.
    /// `Duration::ZERO` on a warm prepared-query re-execution.
    pub codegen: Duration,
    /// Wall time spent translating IR to bytecode for this execution.
    /// `Duration::ZERO` on a warm prepared-query re-execution.
    pub bc_translate: Duration,
    /// Up-front compilations (static modes): per pipeline.
    pub upfront_compile: Duration,
    pub exec: Duration,
    pub background_compiles: usize,
    pub trace: Vec<TraceEvent>,
    /// Pipeline labels, by pipeline id (for rendering traces).
    pub pipeline_labels: Vec<String>,
    /// IR instruction count of the module.
    pub ir_instrs: usize,
    /// Per-pipeline scheduler summaries (morsels, steals, decisions, the
    /// model each controller decided with).
    pub sched: Vec<PipelineSchedReport>,
    /// What the query's cost calibrator learned (final model + counts).
    pub calibration: CalibrationReport,
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
    /// Executions in flight on the engine (this one included) when this
    /// execution started — the contention observability counter for the
    /// concurrency benchmark.
    pub concurrent_executions: usize,
    /// How this execution fared in the front-door server's admission
    /// controller (`None` for direct library calls): queue wait, the
    /// priority it was admitted at, and the server's cumulative shed
    /// count at dispatch time. Copied verbatim from
    /// [`ExecOptions::admission`].
    pub admission: Option<AdmissionReport>,
    /// `Some(reason)` when this execution's [`CancelToken`] was poisoned.
    /// An execution that observed the poison returns
    /// `ExecError::Cancelled` instead of a report; this field covers the
    /// complementary race — the cancel landed after the last claim, so
    /// the run completed anyway.
    pub cancelled: Option<String>,
    /// Compilations (up-front or background) that failed or panicked and
    /// were contained by ladder degradation: the execution continued one
    /// rung down instead of surfacing `ExecError::Compile`. The broken
    /// tier is quarantined (see [`crate::sched::QuarantineStore`]).
    pub degraded: u64,
    /// Tiers this execution skipped because an earlier execution
    /// quarantined them (no compile was attempted; the ladder topped out
    /// one rung lower).
    pub quarantine_skips: u64,
}

/// What the server's admission controller did to an execution before the
/// engine saw it ([`Report::admission`]). Produced by `crates/server` at
/// dispatch time and threaded through [`ExecOptions::admission`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdmissionReport {
    /// Time between submission and dispatch onto an engine executor.
    pub queue_wait: Duration,
    /// Priority tier the request was admitted at (0 = lowest).
    pub priority: u8,
    /// The server's cumulative shed count when this request dispatched —
    /// a load signal: a fast-rising value means the request ran under
    /// active shedding.
    pub shed_at_dispatch: u64,
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
    /// Admission-controller provenance to surface in
    /// [`Report::admission`]. Set by the server at dispatch; `None` for
    /// direct library calls.
    pub admission: Option<AdmissionReport>,
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
            admission: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline-loop core (driven by the session layer)
// ---------------------------------------------------------------------------

/// Everything one query execution needs once its artifacts (registry,
/// per-pipeline tier tables and handles with their initial backends) have
/// been assembled by the session layer.
pub(crate) struct QueryRun<'a> {
    pub plan: &'a PhysicalPlan,
    /// The immutable catalog epoch this execution is pinned to — cloned
    /// `Arc`s, never a lock held across the morsel loop.
    pub cat: &'a CatalogSnapshot,
    pub registry: &'a Arc<Registry>,
    pub handles: &'a [Arc<FunctionHandle>],
    /// Per-pipeline tier tables of the prepared query's compiled state:
    /// background compiles fill these, so concurrent executions warm-start
    /// mid-flight.
    pub tiers: &'a [Arc<TierTable>],
    /// Per-pipeline scan pre-filters (`None` where the plan has no
    /// vectorizable filter in front of a table scan), same indexing.
    pub kernels: &'a [Option<Arc<ScanKernel>>],
    /// Per-query calibrator, possibly seeded from the engine's
    /// cross-query `CalibrationStore`.
    pub calibrator: &'a Arc<CostCalibrator>,
    pub opts: &'a ExecOptions,
    /// Bind-variable values for this execution, one `u64` bit pattern per
    /// entry of `plan.params` (`f64` parameters as `to_bits`). Empty for
    /// non-parameterized plans. The slice is installed into the plan's
    /// param state slot, so every backend and the scan pre-filter read the
    /// same block.
    pub params: &'a [u64],
    /// Per-pipeline quarantine views (one per pipeline, same indexing as
    /// `handles`): the controller skips tiers an earlier execution
    /// quarantined and records this run's compile outcomes.
    pub quarantine: &'a [PipelineQuarantine],
}

/// Run every pipeline of the plan in order through the hot-swap handles:
/// state assembly, the morsel loops, sink finalisation, and the report's
/// execution-side fields. Code generation, translation, and up-front
/// compilation have already happened — this is the part a warm prepared
/// query repeats on every execution.
pub(crate) fn run_pipelines(
    run: QueryRun<'_>,
    report: &mut Report,
) -> Result<ResultRows, ExecError> {
    let QueryRun {
        plan,
        cat,
        registry,
        handles,
        tiers,
        kernels,
        calibrator,
        opts,
        params,
        quarantine,
    } = run;

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
    let compile_events: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let background_compiles = Arc::new(AtomicUsize::new(0));

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
            handle: &handles[p.id],
            tiers: &tiers[p.id],
            kernel: kernels[p.id].as_deref(),
            registry,
            total_rows,
            plan,
            agg_shapes: &agg_shapes,
            opts,
            exec_start,
            compile_events: &compile_events,
            background_compiles: &background_compiles,
            calibrator,
            quarantine: &quarantine[p.id],
        };
        pipeline.run(report, &mut state, &mut frames)?;
    }

    report.background_compiles += background_compiles.load(Ordering::Relaxed);
    report.exec = exec_start.elapsed();
    report.trace.extend(compile_events.lock().drain(..));
    report.trace.sort_by_key(|e| (e.thread, e.start_us));
    report.calibration = calibrator.report();

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
/// as: build scheduler, spawn workers, finalize controller, run the sink).
struct PipelineRun<'a> {
    pid: usize,
    handle: &'a Arc<FunctionHandle>,
    tiers: &'a Arc<TierTable>,
    kernel: Option<&'a ScanKernel>,
    registry: &'a Arc<Registry>,
    total_rows: usize,
    plan: &'a PhysicalPlan,
    agg_shapes: &'a [(usize, Vec<crate::plan::AggFunc>)],
    opts: &'a ExecOptions,
    exec_start: Instant,
    compile_events: &'a Arc<Mutex<Vec<TraceEvent>>>,
    background_compiles: &'a Arc<AtomicUsize>,
    calibrator: &'a Arc<CostCalibrator>,
    quarantine: &'a PipelineQuarantine,
}

impl PipelineRun<'_> {
    fn run(
        self,
        report: &mut Report,
        state: &mut QueryState,
        frames: &mut [Frame],
    ) -> Result<(), ExecError> {
        let opts = self.opts;
        let threads = frames.len();

        // ---- scheduler assembly (see crate::sched) ------------------------
        let dispenser = MorselDispenser::new(
            self.total_rows as u64,
            threads,
            opts.min_morsel as u64,
            opts.max_morsel as u64,
        );
        let progress = Arc::new(PipelineProgress::new(threads));
        let controller = AdaptiveController::new(ControllerCtx {
            cancel: opts.cancel.clone(),
            pid: self.pid,
            handle: self.handle.clone(),
            tiers: self.tiers.clone(),
            progress: progress.clone(),
            calibrator: self.calibrator.clone(),
            compile_events: self.compile_events.clone(),
            background_compiles: self.background_compiles.clone(),
            exec_start: self.exec_start,
            total_rows: self.total_rows as u64,
            threads,
            quarantine: Some(self.quarantine.clone()),
            adaptive: opts.mode == ExecMode::Adaptive,
            first_eval: opts.first_eval,
        });

        let state_ptr = state.slots.as_ptr() as u64;
        // The scan's vectorized pre-filter (see `crate::simd`), resolved
        // against this execution's parameter block once for the whole
        // pipeline run; a binding that drops every conjunct leaves nothing
        // to filter with. It sits in front of whatever backend the handle
        // holds — except under `NaiveIr`, the oracle the differential
        // suites compare against, which must see every row itself.
        let prefilter = match self.kernel {
            Some(kernel) if opts.mode != ExecMode::NaiveIr => {
                // SAFETY: `run_pipelines` installed the parameter-block
                // pointer and checked its arity against `plan.params`.
                let conjuncts = unsafe { kernel.resolve(state.slots.as_ptr()) };
                (!conjuncts.is_empty()).then_some((kernel, conjuncts))
            }
            _ => None,
        };
        // Workers poll only the flag (relaxed, once per morsel); the error
        // value itself is stored under the mutex on the cold path.
        let failed = AtomicBool::new(false);
        let error: Mutex<Option<ExecError>> = Mutex::new(None);

        // Worker runtimes, one per thread (created up front so finalize can
        // collect them after the scope).
        let row_buf_slots = plan_max_row_width(self.plan);
        let mut worker_rts: Vec<Box<WorkerRt>> = (0..threads)
            .map(|_| {
                WorkerRt::with_row_buf(
                    self.plan.join_hts.len(),
                    self.agg_shapes,
                    self.plan.mats.len(),
                    row_buf_slots,
                )
            })
            .collect();
        let mut thread_traces: Vec<Vec<TraceEvent>> = vec![Vec::new(); threads];

        // ---- the morsel loop ----------------------------------------------
        std::thread::scope(|scope| {
            for (tid, ((wrt, ttrace), frame)) in worker_rts
                .iter_mut()
                .zip(thread_traces.iter_mut())
                .zip(frames.iter_mut())
                .enumerate()
            {
                let dispenser = &dispenser;
                let progress = &progress;
                let controller = &controller;
                let failed = &failed;
                let error = &error;
                let handle = self.handle;
                let registry = self.registry;
                let exec_start = self.exec_start;
                let pid = self.pid;
                let cancel = &opts.cancel;
                let prefilter = &prefilter;
                scope.spawn(move || {
                    // Panic isolation at the thread boundary: a worker
                    // that panics (a backend bug, an injected
                    // `worker=panic` fault) must fail the *query* with a
                    // typed error, not unwind through the scope join and
                    // abort the caller. The shared locks are
                    // non-poisoning (vendored parking_lot), so the other
                    // workers drain cleanly via the `failed` flag.
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let wctx = wrt.wctx_ptr();
                        // The Fig. 5 indirection, loaded once and then refreshed
                        // only when the handle's (atomic) rank says a better
                        // backend was published: the `Arc` clone + lock of a
                        // full `load()` happens once per *switch*, not once per
                        // morsel — the controller can't swap more often than
                        // the rank changes, so nothing newer can be missed.
                        let mut backend = handle.load();
                        let mut backend_rank = backend.kind().rank();
                        loop {
                            if failed.load(Ordering::Relaxed) {
                                return;
                            }
                            // The cooperative cancellation checkpoint: one
                            // atomic load per claim on the live path. A
                            // poisoned token (client cancel, expired
                            // deadline, dropped connection) stops this
                            // worker before it claims another range — never
                            // mid-morsel, so sinks only ever see whole
                            // morsels.
                            if let Err(e) = cancel.check() {
                                let mut slot = error.lock();
                                if slot.is_none() {
                                    *slot = Some(e);
                                }
                                failed.store(true, Ordering::Relaxed);
                                return;
                            }
                            // Injectable fault site, once per claim round
                            // (`AQE_FAULT="worker=..."`). An `err` action
                            // surfaces as a typed internal error; a `panic`
                            // action exercises the catch_unwind boundary.
                            if let Err(m) = aqe_fault::failpoint("worker") {
                                let mut slot = error.lock();
                                if slot.is_none() {
                                    *slot = Some(ExecError::Internal { site: m });
                                }
                                failed.store(true, Ordering::Relaxed);
                                return;
                            }
                            // Front of our own partition, or stolen loot once
                            // it runs dry; `None` means the pipeline is done.
                            let Some(m) = dispenser.claim(tid) else { return };
                            let t_m0 = exec_start.elapsed().as_micros() as u64;
                            let rank = handle.rank();
                            if rank != backend_rank {
                                backend = handle.load();
                                backend_rank = rank;
                            }
                            let mut call = |begin, end| {
                                let args = [wctx, state_ptr, begin, end];
                                backend.call(&args, registry, frame).map(drop)
                            };
                            let called = match prefilter {
                                None => call(m.begin, m.end),
                                // SAFETY: the state slots hold this epoch's
                                // column base pointers and the dispenser
                                // hands out in-bounds row ranges — the
                                // contract the worker function loads under.
                                Some((kernel, conjuncts)) => unsafe {
                                    let state = state_ptr as *const u64;
                                    kernel.for_each_run(conjuncts, state, m.begin, m.end, call)
                                }
                                .map(|skipped| progress.record_skipped(tid, skipped)),
                            };
                            if let Err(e) = called {
                                let mut slot = error.lock();
                                if slot.is_none() {
                                    *slot = Some(e);
                                }
                                failed.store(true, Ordering::Relaxed);
                                return;
                            }
                            progress.record(tid, m.tuples());
                            if opts.trace {
                                ttrace.push(TraceEvent {
                                    thread: tid as u16,
                                    pipeline: pid as u16,
                                    kind: backend.kind().trace_kind(),
                                    start_us: t_m0,
                                    end_us: exec_start.elapsed().as_micros() as u64,
                                    tuples: m.tuples(),
                                });
                            }
                            // ---- adaptive decision (Fig. 7) -------------------
                            controller.maybe_decide();
                        }
                    }));
                    if caught.is_err() {
                        let mut slot = error.lock();
                        if slot.is_none() {
                            *slot = Some(ExecError::Internal {
                                site: format!("morsel worker {tid} (pipeline {pid})"),
                            });
                        }
                        failed.store(true, Ordering::Relaxed);
                    }
                });
            }
        });

        // Joins in-flight compiles (no detached-thread leak: their trace
        // events and calibration feedback land before the report is read).
        let sched = controller.finalize(&dispenser);
        report.degraded += sched.degraded;
        report.quarantine_skips += self.quarantine.skips();
        report.sched.push(sched);

        if let Some(e) = error.into_inner() {
            return Err(e);
        }
        for t in thread_traces {
            report.trace.extend(t);
        }

        self.finalize_sink(state, &mut worker_rts)
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

#[cfg(test)]
mod tests {
    use super::*;
    use aqe_ir::Function;
    use aqe_jit::compile::OptLevel;
    use aqe_jit::native::compile_native_at;
    use aqe_vm::naive::NaiveBackend;
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
        let h = FunctionHandle::new(Arc::new(NaiveBackend::new(Arc::new(f.clone()))));
        assert_eq!(h.kind(), ExecMode::NaiveIr);
        assert!(h.try_begin_compile());
        assert!(!h.try_begin_compile(), "second compile attempt must be rejected");
        // A failed compile releases the slot instead of leaking it.
        h.end_compile();
        assert!(h.try_begin_compile(), "releasing must re-open the compile slot");

        assert!(h.install(Arc::new(bc)));
        assert_eq!(h.kind(), ExecMode::Bytecode);
        h.end_compile();
        assert!(h.try_begin_compile(), "compiles allowed again once the claimant is done");

        // Downgrades are refused: the handle only moves up the rank order.
        assert!(!h.install(Arc::new(NaiveBackend::new(Arc::new(f.clone())))));
        assert_eq!(h.kind(), ExecMode::Bytecode);

        if !aqe_jit::native::enabled() {
            return;
        }
        let unopt = compile_native_at(&f, &[], OptLevel::Unoptimized).unwrap();
        assert!(h.install(Arc::new(unopt)));
        assert_eq!(h.kind(), ExecMode::NativeUnopt);
        let opt = compile_native_at(&f, &[], OptLevel::Optimized).unwrap();
        assert!(h.install(Arc::new(opt)));
        assert_eq!(h.kind(), ExecMode::Native);
        assert_eq!(h.rank(), ExecMode::Native.rank());
        // A racing unoptimized compile arriving late is refused.
        let late = compile_native_at(&f, &[], OptLevel::Unoptimized).unwrap();
        assert!(!h.install(Arc::new(late)));
        assert_eq!(h.kind(), ExecMode::Native);
    }

    #[test]
    fn installing_from_outside_does_not_release_a_compile_claim() {
        // The controller's free-install path publishes a backend a
        // concurrent execution compiled while this pipeline's own compile
        // job may still be running: the job's claim must survive it, or the
        // next poll starts a second compile thread.
        let f = identity_function();
        let h = FunctionHandle::new(Arc::new(NaiveBackend::new(Arc::new(f.clone()))));
        assert!(h.try_begin_compile(), "the claimant's compile is now in flight");
        let bc = translate(&f, &[], TranslateOptions::default()).unwrap();
        assert!(h.install(Arc::new(bc)), "a higher backend arrives from outside");
        assert!(!h.try_begin_compile(), "the claim is the claimant's to release");
        h.end_compile();
        assert!(h.try_begin_compile());
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
            assert_eq!(got, Some(42), "backend {:?}", h.kind());
        }
    }
}
