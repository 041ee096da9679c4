//! The long-lived execution API: [`Engine`] → [`Session`] → [`PreparedQuery`].
//!
//! The paper's whole premise is amortizing compilation against execution,
//! yet a one-shot execution re-runs codegen, bytecode translation, and the
//! adaptive warm-up ladder on every call. This subsystem is the
//! connection/prepared-statement lifecycle that lets all of that outlive
//! a single execution (DESIGN.md §6), built so that **concurrent traffic
//! never serializes on shared state** (DESIGN.md §8):
//!
//! * [`Engine`] — owns the catalog as an immutable, versioned
//!   [`CatalogSnapshot`] epoch swapped atomically on mutation, the
//!   per-fingerprint tier quarantine, and a sharded, byte-budgeted result
//!   cache keyed by `(plan fingerprint, catalog version)`;
//! * [`Session`] — a per-client handle: `prepare` / `execute` plus the
//!   session's [`ExecOptions`] defaults;
//! * [`PreparedQuery`] — retains, per pipeline, the generated worker
//!   function and every backend a prior run already translated or
//!   compiled, so a re-execution skips codegen and translation entirely
//!   and starts at the highest [`ExecLevel`] previously reached. First
//!   runs are governed by the cost model — a start level chosen when each
//!   pipeline starts, then the Fig. 7 controller — so the ladder is only
//!   ever climbed once per (prepared query, catalog version).
//!
//! The concurrency discipline is uniform: an execution pins its epoch
//! (two `Arc` clones) at start and never holds an engine-wide lock across
//! the morsel loop; the only mutex a warm execution can block on is a
//! tier-table entry's latch held for the duration of a pointer copy. Invalidation
//! is by construction, not by scanning: every cache key embeds
//! [`CatalogSnapshot::version`], which every mutation bumps.

mod cache;
mod epoch;

pub use cache::CacheStats;

use crate::cancel::CancelKind;
use crate::codegen;
use crate::exec::{
    build_backend, run_pipelines, ExecMode, ExecOptions, ParamValue, PipelineBackend, QueryRun,
    Report, ResultRows,
};
use crate::plan::{decompose, DictTable, FieldTy, PhysicalPlan, PlanNode, Source};
use crate::sched::{ExecLevel, PipelineQuarantine, QuarantineStore};
use crate::simd::ScanKernel;
use crate::tiers::TierTable;
use aqe_ir::{ExternDecl, Function};
use aqe_storage::{Catalog, CatalogSnapshot, DataType};
use aqe_vm::interp::ExecError;
use aqe_vm::rt::Registry;
use cache::ResultCache;
use epoch::EpochCell;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Everything sessions share. `Arc`-held by every [`Session`] and
/// [`PreparedQuery`], so prepared statements stay valid for as long as
/// anything still references the engine.
struct EngineShared {
    /// The current catalog epoch. Executions `get` an `Arc` at start and
    /// run lock-free against it; mutations publish a copy-on-write
    /// successor. No execution ever holds a catalog-wide lock.
    catalog: EpochCell<Arc<CatalogSnapshot>>,
    /// Serializes *mutators* only (so two `with_catalog_mut` calls cannot
    /// lose each other's update); readers never touch it.
    catalog_mut: Mutex<()>,
    results: ResultCache,
    stats: EngineStats,
    /// Serving-path counters ([`Engine::server_stats`]): the engine
    /// increments the cancellation outcomes itself; the front-door
    /// server increments the admission-side counters through
    /// [`Engine::server_counters`].
    server: Arc<ServerCounters>,
    /// Per-fingerprint tier quarantine: compile tiers that failed
    /// recently are skipped for a while, then probed again (ladder
    /// degradation, DESIGN.md §14).
    quarantine: Arc<QuarantineStore>,
}

/// Engine-lifetime concurrency counters (all atomics; written on the
/// execution path with relaxed ordering — observability, not
/// synchronization).
#[derive(Default)]
struct EngineStats {
    executions_started: AtomicU64,
    executions_completed: AtomicU64,
    /// Executions that built compiled state under the cold-compile latch.
    cold_builds: AtomicU64,
    /// Executions that reused published state without taking any latch.
    warm_executions: AtomicU64,
    /// Catalog epochs published by `with_catalog_mut`.
    snapshot_swaps: AtomicU64,
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
}

impl EngineStats {
    /// Enter an execution: bump started/in-flight and track the peak.
    /// The guard leaves it again.
    fn enter(&self) -> InFlight<'_> {
        self.executions_started.fetch_add(1, Ordering::Relaxed);
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_in_flight.fetch_max(now, Ordering::Relaxed);
        InFlight(self)
    }
}

/// Drops the in-flight count on every exit path (success, error, cache
/// hit) of one execution.
struct InFlight<'a>(&'a EngineStats);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.0.executions_completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Serving-path counters shared between the engine and the front-door
/// server (`crates/server`). The engine owns them so any embedder can
/// observe the serving surface through [`Engine::server_stats`] — the
/// same discipline as [`Engine::cache_stats`] — while the server crate
/// increments the admission-side half through
/// [`Engine::server_counters`]. All writes are relaxed atomics:
/// observability, not synchronization.
#[derive(Default)]
pub struct ServerCounters {
    accepted: AtomicU64,
    active: AtomicU64,
    queued: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    deadline_expired: AtomicU64,
    degraded: AtomicU64,
    quarantined: AtomicU64,
    overflowed: AtomicU64,
    conn_poisoned: AtomicU64,
    idle_reaped: AtomicU64,
}

impl ServerCounters {
    /// An execute request passed admission (it will run, now or queued).
    pub fn note_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// A request entered the admission wait queue.
    pub fn note_enqueued(&self) {
        self.queued.fetch_add(1, Ordering::Relaxed);
    }

    /// A request left the wait queue (dispatched or shed as a victim).
    pub fn note_dequeued(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
    }

    /// A request began executing on an engine worker.
    pub fn note_active(&self) {
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// A request finished executing (any outcome).
    pub fn note_done(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Admission shed a request (the incoming one, or a queued victim
    /// displaced by higher-priority work).
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// An execution ended (or was refused at its first checkpoint)
    /// because its token was poisoned. Called by the engine itself.
    pub(crate) fn note_cancelled(&self, kind: CancelKind) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
        if kind == CancelKind::Deadline {
            self.deadline_expired.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// An execution's fault-containment outcome: `degraded` compiles
    /// failed and were absorbed by ladder degradation; `quarantined`
    /// tiers were skipped because of earlier failures. Called by the
    /// engine after every execution.
    pub(crate) fn note_containment(&self, degraded: u64, quarantined: u64) {
        if degraded > 0 {
            self.degraded.fetch_add(degraded, Ordering::Relaxed);
        }
        if quarantined > 0 {
            self.quarantined.fetch_add(quarantined, Ordering::Relaxed);
        }
    }

    /// A finished result overflowed its connection's outbound byte
    /// budget and was shed with a backpressure notice.
    pub fn note_overflow(&self) {
        self.overflowed.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection stopped draining even the shed notices and was
    /// poisoned (the event loop closes it).
    pub fn note_conn_poisoned(&self) {
        self.conn_poisoned.fetch_add(1, Ordering::Relaxed);
    }

    /// A quiescent connection sat past the idle window and was reaped.
    pub fn note_idle_reaped(&self) {
        self.idle_reaped.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time view of [`ServerCounters`] ([`Engine::server_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Execute requests that passed admission.
    pub accepted: u64,
    /// Requests currently executing on engine workers.
    pub active: u64,
    /// Requests currently waiting in the admission queue.
    pub queued: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Executions that ended cancelled (any [`CancelKind`]).
    pub cancelled: u64,
    /// The subset of `cancelled` whose cause was an expired deadline.
    pub deadline_expired: u64,
    /// Compilations that failed (or panicked) and were contained by
    /// ladder degradation: the execution continued one rung down.
    pub degraded: u64,
    /// Tier skips served from the per-fingerprint quarantine (no compile
    /// attempted because an earlier execution's failure was still fresh).
    pub quarantined: u64,
    /// Results shed because they overflowed a connection's outbound
    /// byte budget (answered with a backpressure error frame).
    pub overflowed: u64,
    /// Connections poisoned for not draining past the outbound budget.
    pub conn_poisoned: u64,
    /// Connections closed by the idle reaper.
    pub idle_reaped: u64,
}

/// A point-in-time view of the engine's concurrency counters
/// ([`Engine::concurrency`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ConcurrencyStats {
    pub executions_started: u64,
    pub executions_completed: u64,
    /// Executions that built compiled state under a cold-compile latch.
    pub cold_builds: u64,
    /// Executions that reused published compiled state latch-free.
    pub warm_executions: u64,
    /// Catalog snapshot epochs published by mutations.
    pub snapshot_swaps: u64,
    pub in_flight: usize,
    pub peak_in_flight: usize,
}

/// The long-lived engine: catalog + caches + tier quarantine. Its result
/// cache holds up to 64 MiB of rows.
///
/// ```no_run
/// use aqe_engine::session::Engine;
/// use aqe_storage::tpch;
///
/// let engine = Engine::new(tpch::generate(0.01));
/// let session = engine.session();
/// # let plan = unimplemented!();
/// let query = session.prepare_plan(plan);
/// let (rows, report) = session.execute(&query).unwrap();   // cold: codegen + warm-up
/// let (rows, report) = session.execute(&query).unwrap();   // warm: cached
/// ```
pub struct Engine {
    shared: Arc<EngineShared>,
}

impl Engine {
    /// An engine over `catalog`; its sessions start from the default
    /// [`ExecOptions`].
    pub fn new(catalog: Catalog) -> Engine {
        Engine {
            shared: Arc::new(EngineShared {
                catalog: EpochCell::new(Arc::new(catalog.snapshot())),
                catalog_mut: Mutex::new(()),
                results: ResultCache::new(),
                stats: EngineStats::default(),
                server: Arc::new(ServerCounters::default()),
                quarantine: Arc::new(QuarantineStore::new()),
            }),
        }
    }

    /// Open a session (a per-client handle; cheap, any number may exist).
    pub fn session(&self) -> Session {
        Session { shared: self.shared.clone(), defaults: ExecOptions::default() }
    }

    /// Current catalog version (bumped by every mutation through
    /// [`with_catalog_mut`](Engine::with_catalog_mut)).
    pub fn catalog_version(&self) -> u64 {
        self.shared.catalog.get().version()
    }

    /// Read access to the catalog (a view of the current epoch).
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        let snap = self.shared.catalog.get();
        f(&Catalog::from_snapshot((*snap).clone()))
    }

    /// Mutate the catalog. The mutation runs against a copy-on-write
    /// builder and publishes a new snapshot epoch in one atomic swap —
    /// in-flight executions keep their pinned epoch; everything *derived*
    /// from older versions (cached results, retained code) is invalidated
    /// by the version bump, and unreachable result-cache entries are
    /// purged eagerly.
    pub fn with_catalog_mut<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> R {
        let _mutators = self.shared.catalog_mut.lock();
        let before = self.shared.catalog.get();
        let mut cat = Catalog::from_snapshot((*before).clone());
        let r = f(&mut cat);
        let snap = cat.snapshot();
        if snap.version() != before.version() {
            let version = snap.version();
            self.shared.catalog.set(Arc::new(snap));
            self.shared.stats.snapshot_swaps.fetch_add(1, Ordering::Relaxed);
            self.shared.results.retain_version(version);
        }
        r
    }

    /// Result-cache behavior counters: entries, bytes, hit/miss/
    /// admission-rejection/eviction counts (see [`CacheStats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.results.stats()
    }

    /// The engine's concurrency counters: executions started/completed/
    /// in flight, cold builds vs latch-free warm reuses, snapshot swaps.
    pub fn concurrency(&self) -> ConcurrencyStats {
        let s = &self.shared.stats;
        ConcurrencyStats {
            executions_started: s.executions_started.load(Ordering::Relaxed),
            executions_completed: s.executions_completed.load(Ordering::Relaxed),
            cold_builds: s.cold_builds.load(Ordering::Relaxed),
            warm_executions: s.warm_executions.load(Ordering::Relaxed),
            snapshot_swaps: s.snapshot_swaps.load(Ordering::Relaxed),
            in_flight: s.in_flight.load(Ordering::Relaxed),
            peak_in_flight: s.peak_in_flight.load(Ordering::Relaxed),
        }
    }

    /// The serving-path counters, for the front-door server to increment
    /// its admission-side half (accepted / queued / shed / active). The
    /// cancellation outcomes are counted by the engine itself.
    pub fn server_counters(&self) -> Arc<ServerCounters> {
        self.shared.server.clone()
    }

    /// A point-in-time view of the serving-path counters: accepted,
    /// active, queued, shed, cancelled, deadline-expired.
    pub fn server_stats(&self) -> ServerStats {
        let s = &self.shared.server;
        ServerStats {
            accepted: s.accepted.load(Ordering::Relaxed),
            active: s.active.load(Ordering::Relaxed),
            queued: s.queued.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            cancelled: s.cancelled.load(Ordering::Relaxed),
            deadline_expired: s.deadline_expired.load(Ordering::Relaxed),
            degraded: s.degraded.load(Ordering::Relaxed),
            quarantined: s.quarantined.load(Ordering::Relaxed),
            overflowed: s.overflowed.load(Ordering::Relaxed),
            conn_poisoned: s.conn_poisoned.load(Ordering::Relaxed),
            idle_reaped: s.idle_reaped.load(Ordering::Relaxed),
        }
    }

    /// Quarantine entries currently holding a live skip budget (broken
    /// tiers being avoided right now).
    pub fn quarantine_active(&self) -> usize {
        self.shared.quarantine.active()
    }
}

/// A per-client handle onto an [`Engine`]: prepares and executes queries
/// with its own [`ExecOptions`] defaults.
pub struct Session {
    shared: Arc<EngineShared>,
    defaults: ExecOptions,
}

impl Session {
    /// Replace the options [`execute`](Session::execute) runs with.
    pub fn set_defaults(&mut self, defaults: ExecOptions) {
        self.defaults = defaults;
    }

    /// Read access to the engine's catalog (e.g. for planning SQL against
    /// it — see `aqe_sql::prepare`).
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        let snap = self.shared.catalog.get();
        f(&Catalog::from_snapshot((*snap).clone()))
    }

    /// Decompose a plan tree against the engine's catalog and prepare it.
    pub fn prepare(&self, root: &PlanNode, dicts: Vec<DictTable>) -> PreparedQuery {
        let snap = self.shared.catalog.get();
        self.prepare_plan(decompose(&snap, root, dicts))
    }

    /// Prepare an already-decomposed physical plan.
    pub fn prepare_plan(&self, plan: PhysicalPlan) -> PreparedQuery {
        PreparedQuery {
            engine: self.shared.clone(),
            fingerprint: plan.fingerprint(),
            plan: Arc::new(plan),
            state: EpochCell::new(None),
            build: Mutex::new(()),
        }
    }

    /// Execute with the session's default options.
    pub fn execute(&self, query: &PreparedQuery) -> Result<(ResultRows, Report), ExecError> {
        self.execute_with(query, &self.defaults)
    }

    /// Execute a prepared query.
    ///
    /// Cold path: generate IR, then start each pipeline at the level the
    /// cost model picks for its row count — translating to bytecode only
    /// where bytecode runs — and let Fig. 7 climb from there. Warm path:
    /// reuse the retained module/bytecode/compiled backends
    /// (`Report::{codegen, bc_translate}` are zero) and start every
    /// pipeline at the highest level a prior run reached — **without
    /// blocking concurrent warm executions of the same query**: the
    /// compiled state is read through
    /// an epoch cell and the per-pipeline backends through their tier
    /// tables, so the only serialization left is the one-time
    /// cold-compile latch. With `opts.cache_results`, an identical plan over an
    /// unchanged catalog returns straight from the sharded result cache
    /// (`Report::result_cache_hit`) without running a single morsel.
    pub fn execute_with(
        &self,
        query: &PreparedQuery,
        opts: &ExecOptions,
    ) -> Result<(ResultRows, Report), ExecError> {
        if !query.plan.params.is_empty() {
            return Err(ExecError::Bind(format!(
                "query expects {} parameter(s); use execute_bound",
                query.plan.params.len()
            )));
        }
        self.execute_inner(query, &[], opts)
    }

    /// Execute a parameterized prepared query with bind values, using the
    /// session's default options.
    ///
    /// This is the warm path the whole binding pipeline exists for: the
    /// retained module, bytecode, compiled backends, and reached
    /// [`ExecLevel`] are all keyed by the *generalized* plan, so distinct
    /// bindings of one statement share every compilation artifact —
    /// a warm bound execution reports `codegen == bc_translate == ZERO`
    /// no matter how fresh its values are. Results are cached per
    /// `(fingerprint, param values, catalog version)`, so bindings never
    /// alias each other's rows.
    pub fn execute_bound(
        &self,
        query: &PreparedQuery,
        params: &[ParamValue],
    ) -> Result<(ResultRows, Report), ExecError> {
        self.execute_bound_with(query, params, &self.defaults)
    }

    /// [`execute_bound`](Session::execute_bound) with explicit options.
    ///
    /// Arity and type mismatches — and binding values to a query that has
    /// no parameters — are [`ExecError::Bind`] values, never panics.
    pub fn execute_bound_with(
        &self,
        query: &PreparedQuery,
        params: &[ParamValue],
        opts: &ExecOptions,
    ) -> Result<(ResultRows, Report), ExecError> {
        let want = &query.plan.params;
        if want.is_empty() && !params.is_empty() {
            return Err(ExecError::Bind(format!(
                "query has no parameters, got {} value(s)",
                params.len()
            )));
        }
        if params.len() != want.len() {
            return Err(ExecError::Bind(format!(
                "query expects {} parameter(s), got {}",
                want.len(),
                params.len()
            )));
        }
        for (i, (p, w)) in params.iter().zip(want.iter()).enumerate() {
            if p.field_ty() != *w {
                return Err(ExecError::Bind(format!(
                    "parameter ${} expects {w:?}, got {:?} ({p:?})",
                    i + 1,
                    p.field_ty()
                )));
            }
        }
        let bits: Vec<u64> = params.iter().map(ParamValue::bits).collect();
        self.execute_inner(query, &bits, opts)
    }

    fn execute_inner(
        &self,
        query: &PreparedQuery,
        params: &[u64],
        opts: &ExecOptions,
    ) -> Result<(ResultRows, Report), ExecError> {
        if !Arc::ptr_eq(&query.engine, &self.shared) {
            return Err(ExecError::Setup(
                "prepared query belongs to a different engine".to_string(),
            ));
        }
        // Pin this execution's catalog epoch: generated code dereferences
        // column base pointers, and the snapshot's `Arc`s keep them alive
        // even if a concurrent mutation publishes a newer epoch mid-run.
        // From here on, nothing in this execution reads shared catalog
        // state — no lock is held across the morsel loop.
        let snap: Arc<CatalogSnapshot> = self.shared.catalog.get();
        let version = snap.version();
        let plan = &query.plan;

        let stats = &self.shared.stats;
        let _in_flight = stats.enter();
        let mut report = Report { snapshot_version: version, ..Default::default() };

        // Refuse-before-work: a request whose token was poisoned while it
        // waited in an admission queue (or whose deadline expired there)
        // ends here — before touching prepared state, the compile latch,
        // or the result cache.
        if let Err(e) = opts.cancel.check() {
            if let Some(kind) = opts.cancel.kind() {
                self.shared.server.note_cancelled(kind);
            }
            return Err(e);
        }

        // ---- result cache -------------------------------------------------
        // Bind values join the key: one generalized fingerprint covers
        // every binding of a statement, so the values are what separate
        // one binding's rows from another's.
        let key = (query.fingerprint, version, params.to_vec());
        if opts.cache_results {
            if let Some(rows) = self.shared.results.get(&key) {
                report.result_cache_hit = true;
                return Ok((rows, report));
            }
        }

        report.pipeline_labels = plan.pipelines.iter().map(|p| p.label.clone()).collect();

        // ---- code reuse / (re)generation ---------------------------------
        // Warm executions read the published state epoch-style (an `Arc`
        // clone); only a version change funnels through the cold-compile
        // latch, and only the builder holds it.
        let state = query.state_for(&snap, stats, &mut report)?;
        // Every mode goes through the same hot-swap handles; they differ
        // only in what is installed before execution starts. A warm
        // adaptive run starts from the best backend any prior (or
        // concurrent!) run compiled, a cold one at the level its pipeline
        // start picks; the static modes pin their exact level, compiling
        // it under the tier-table entry's latch only if no run did.
        // Per-pipeline quarantine views for this execution: tiers whose
        // compiles failed recently are skipped (static modes degrade in
        // `initial_backends`; adaptive mode at pipeline start and in the
        // controller), and this run's compile outcomes are recorded back
        // into the store.
        let quarantine: Vec<PipelineQuarantine> = (0..plan.pipelines.len())
            .map(|pid| self.shared.quarantine.pipeline(query.fingerprint, pid))
            .collect();
        let initial = state.initial_backends(opts.mode, &quarantine, &mut report);

        // ---- the morsel loops ---------------------------------------------
        let run = run_pipelines(
            QueryRun {
                plan,
                cat: &snap,
                registry: &state.registry,
                initial: &initial,
                tiers: &state.tiers,
                kernels: &state.kernels,
                opts,
                params,
                quarantine: &quarantine,
            },
            &mut report,
        );
        // Containment accounting happens on every exit path: a query
        // that later failed (or was cancelled) still degraded/skipped.
        self.shared.server.note_containment(report.degraded, report.quarantine_skips);
        let rows = match run {
            Ok(rows) => rows,
            Err(e) => {
                // A cancelled execution is still a *clean* one: count it,
                // but leave the prepared state, tier tables, and result
                // cache exactly as the run left them — the next execution
                // of this statement runs warm.
                if matches!(e, ExecError::Cancelled { .. }) {
                    if let Some(kind) = opts.cancel.kind() {
                        self.shared.server.note_cancelled(kind);
                    }
                }
                return Err(e);
            }
        };
        // ---- persistence: results ----------------------------------------
        // (Code needs no step of its own: every compile of this run went
        // through *this* state object's tier tables. A concurrent catalog
        // mutation may have published a newer state in the meantime —
        // backends compiled from the old module sit in the old state,
        // which dies with its last `Arc`, so they can never leak across
        // versions.)
        if opts.cache_results && self.shared.results.admits(cache::entry_bytes(&rows)) {
            self.shared.results.put(key, rows.clone());
        }
        Ok((rows, report))
    }
}

/// A prepared query: the plan plus every execution artifact worth keeping
/// between runs. Create via [`Session::prepare`]; execute any number of
/// times — concurrently from any number of threads — via
/// [`Session::execute`].
pub struct PreparedQuery {
    engine: Arc<EngineShared>,
    plan: Arc<PhysicalPlan>,
    fingerprint: u64,
    /// The published compiled state for the newest catalog version built
    /// so far. Warm executions clone the `Arc` and go; they never touch
    /// the build latch.
    state: EpochCell<Option<Arc<PreparedState>>>,
    /// The one-time cold-compile latch: serializes *builders* (one per
    /// catalog version) so racing cold executions produce one state, not
    /// N. Never taken on the warm path.
    build: Mutex<()>,
}

impl PreparedQuery {
    /// The stable plan fingerprint this query is cached under. For a
    /// parameterized query this is the *generalized* fingerprint: every
    /// binding of the statement shares it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Representation types of the query's bind-variable slots, in slot
    /// order. Empty for non-parameterized queries.
    pub fn param_types(&self) -> &[FieldTy] {
        &self.plan.params
    }

    /// The decomposed plan.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// Highest [`ExecLevel`] reached so far, per pipeline — the level the
    /// next adaptive execution starts at. All-`Interpreted` before the
    /// first run.
    pub fn levels(&self) -> Vec<ExecLevel> {
        match self.state.get() {
            None => vec![ExecLevel::Interpreted; self.plan.pipelines.len()],
            Some(s) => s.tiers.iter().map(|t| t.best_level()).collect(),
        }
    }

    /// Pipeline `pipeline`'s backend at `level` in the current compiled
    /// state, if any execution has translated or compiled it. Every
    /// execution that runs the pipeline at that level runs exactly this
    /// `Arc` (`Interpreted` is the bytecode backend).
    pub fn backend_at(
        &self,
        pipeline: usize,
        level: ExecLevel,
    ) -> Option<Arc<dyn PipelineBackend>> {
        self.state.get()?.tiers.get(pipeline)?.get(level)
    }

    /// Backends translated or compiled so far for the current compiled
    /// state, over all pipelines and levels. A level compiles at most once
    /// per state, so this never exceeds pipelines × levels however many
    /// executions raced.
    pub fn backends_built(&self) -> u64 {
        self.state.get().map_or(0, |s| s.tiers.iter().map(|t| t.builds()).sum())
    }

    /// The compiled state for `snap`'s catalog version: the published one
    /// when fresh (warm path — an `Arc` clone, no latch), else built under
    /// the cold-compile latch. A straggler execution pinned to an *older*
    /// epoch than the published state builds privately without clobbering
    /// the newer publication.
    fn state_for(
        &self,
        snap: &CatalogSnapshot,
        stats: &EngineStats,
        report: &mut Report,
    ) -> Result<Arc<PreparedState>, ExecError> {
        let version = snap.version();
        if let Some(s) = self.state.get() {
            if s.catalog_version == version {
                stats.warm_executions.fetch_add(1, Ordering::Relaxed);
                return Ok(s);
            }
        }
        let _latch = self.build.lock();
        // Double-check: a racing cold execution may have built while this
        // one waited on the latch.
        if let Some(s) = self.state.get() {
            if s.catalog_version == version {
                stats.warm_executions.fetch_add(1, Ordering::Relaxed);
                return Ok(s);
            }
        }
        let built = Arc::new(PreparedState::build(&self.plan, snap, report)?);
        report.cold_build = true;
        stats.cold_builds.fetch_add(1, Ordering::Relaxed);
        let newer_published = self.state.get().is_some_and(|s| s.catalog_version > version);
        if !newer_published {
            self.state.set(Some(built.clone()));
        }
        Ok(built)
    }
}

/// The retained compilation artifacts of one prepared query at one
/// catalog version: the runtime registry plus, per pipeline, one
/// [`TierTable`] (worker function, externs, and every backend built from
/// them so far) and the scan's pre-filter kernel where it has one.
struct PreparedState {
    catalog_version: u64,
    registry: Arc<Registry>,
    tiers: Vec<Arc<TierTable>>,
    /// Each pipeline's vectorized scan pre-filter, beside its tier table:
    /// a property of the scan that the morsel loop applies in front of
    /// whichever backend runs. Extracted from the plan against this
    /// catalog version (column element widths come from the catalog), so
    /// rebuilt with the rest of the state on version bumps.
    kernels: Vec<Option<Arc<ScanKernel>>>,
}

/// The plan's table scans must still line up with the (possibly mutated)
/// catalog before any pointer is taken from it: a dropped table, an
/// out-of-range column, or a type-changed column is a `Setup` error here,
/// not a panic inside codegen or a misread base pointer in the morsel
/// loop. Plans are prepared against a catalog version and not re-bound,
/// so this is the re-validation point after mutations.
fn validate_sources(plan: &PhysicalPlan, cat: &CatalogSnapshot) -> Result<(), ExecError> {
    for p in &plan.pipelines {
        if let Source::Table { table, cols, field_tys, .. } = &p.source {
            let t =
                cat.get(table).ok_or_else(|| ExecError::Setup(format!("unknown table {table}")))?;
            for (k, &c) in cols.iter().enumerate() {
                if c >= t.column_count() {
                    return Err(ExecError::Setup(format!(
                        "table {table} has {} columns, plan scans column {c}",
                        t.column_count()
                    )));
                }
                let got = match t.column_type(c) {
                    DataType::Float64 => FieldTy::F64,
                    _ => FieldTy::I64,
                };
                if got != field_tys[k] {
                    return Err(ExecError::Setup(format!(
                        "column {c} of {table} changed representation type; re-prepare the query"
                    )));
                }
            }
        }
    }
    Ok(())
}

impl PreparedState {
    /// Cold path: source re-validation, codegen, registry resolution —
    /// each failure a value, not a panic.
    fn build(
        plan: &PhysicalPlan,
        cat: &CatalogSnapshot,
        report: &mut Report,
    ) -> Result<PreparedState, ExecError> {
        validate_sources(plan, cat)?;
        let t0 = Instant::now();
        let module = codegen::generate(plan, cat);
        report.codegen = t0.elapsed();

        let registry = Arc::new(
            Registry::for_externs(&module.externs, |name| {
                codegen::runtime_fns().iter().find(|(n, _)| *n == name).map(|(_, f)| *f)
            })
            .map_err(|e| ExecError::Setup(e.to_string()))?,
        );
        let externs: Arc<Vec<ExternDecl>> = Arc::new(module.externs.clone());
        let tiers: Vec<Arc<TierTable>> = module
            .functions
            .iter()
            .map(|f| Arc::new(TierTable::new(Arc::new(Function::clone(f)), externs.clone())))
            .collect();
        let kernels = plan
            .pipelines
            .iter()
            .map(|p| ScanKernel::extract(p, cat, plan.param_slot).map(Arc::new))
            .collect();
        Ok(PreparedState { catalog_version: cat.version(), registry, tiers, kernels })
    }

    /// Each pipeline's backend for `mode` where it is known before
    /// execution starts: the level a static mode pins ([`build_backend`]),
    /// or — adaptive — the best backend any prior or concurrently running
    /// execution compiled. `None` leaves a cold adaptive pipeline's start
    /// to the pipeline run, which knows its row count.
    fn initial_backends(
        &self,
        mode: ExecMode,
        quarantine: &[PipelineQuarantine],
        report: &mut Report,
    ) -> Vec<Option<Arc<dyn PipelineBackend>>> {
        let pin = match mode {
            ExecMode::Adaptive => return self.tiers.iter().map(|t| t.best()).collect(),
            ExecMode::Bytecode => ExecLevel::Interpreted,
            ExecMode::NativeUnopt => ExecLevel::Unoptimized,
            ExecMode::Native => ExecLevel::Optimized,
        };
        self.tiers
            .iter()
            .zip(quarantine)
            .map(|(tiers, q)| Some(build_backend(tiers, pin, q, report, None).backend))
            .collect()
    }
}
