//! Every call into the engine crates. The rest of the benchmark sees rows,
//! nanoseconds and counts, never an engine type, so when a later change
//! reshapes the engine this is the one file to follow it.
//!
//! Only API that ROADMAP directions 3–4 keep is used: `Engine` / `Session`
//! / `PreparedQuery`, `ExecOptions`, `ExecMode::{Bytecode, Native,
//! Adaptive}`, `aqe_sql::{tokenize, parse, plan_sql}`, `decompose`,
//! `codegen::generate`, `translate`, `compile_native`, `Server` / `Client`
//! / `protocol` / `Admission`, and for the oracle `execute_volcano`. Not
//! the threaded-code `OptLevel`s, `NaiveIr`, `Simd` or `RetainedSlot`.

use crate::corpus::KeySpace;
use crate::trace::{SpanId, Trace};
use aqe_engine::plan::{decompose, DictTable, FieldTy, PlanNode};
use aqe_engine::{
    Engine, ExecMode, ExecOptions, ParamValue, PreparedQuery, Report, ResultRows, Session,
};
use aqe_queries::Query;
use aqe_server::admission::{Admission, Submitted};
use aqe_server::protocol::FrameBuf;
use aqe_server::{Client, PreparedHandle, Request, Response, Server, ServerConfig, ServerHandle};
use aqe_storage::{Catalog, Table};
use std::borrow::Cow;
use std::hint::black_box;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A result set: dense row-major 64-bit values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rows {
    pub width: usize,
    pub vals: Vec<u64>,
}

impl Rows {
    pub fn row_count(&self) -> usize {
        self.vals.len().checked_div(self.width).unwrap_or(0)
    }
}

impl From<ResultRows> for Rows {
    fn from(r: ResultRows) -> Rows {
        Rows { width: r.tys.len(), vals: r.rows }
    }
}

/// What the engine reported about one execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecInfo {
    pub codegen_ns: u64,
    pub translate_ns: u64,
    pub exec_ns: u64,
    pub cache_hit: bool,
    pub cold_build: bool,
    pub pipelines: u64,
    pub morsels: u64,
    pub steals: u64,
    pub decisions: u64,
    pub compiles_started: u64,
    pub background_compiles: u64,
    pub degraded: u64,
}

impl From<&Report> for ExecInfo {
    fn from(r: &Report) -> ExecInfo {
        ExecInfo {
            codegen_ns: r.codegen.as_nanos() as u64,
            translate_ns: r.bc_translate.as_nanos() as u64,
            exec_ns: r.exec.as_nanos() as u64,
            cache_hit: r.result_cache_hit,
            cold_build: r.cold_build,
            pipelines: r.sched.len() as u64,
            morsels: r.sched.iter().map(|s| s.morsels).sum(),
            steals: r.sched.iter().map(|s| s.steals).sum(),
            decisions: r.sched.iter().map(|s| s.decisions).sum(),
            compiles_started: r.sched.iter().map(|s| s.compiles_started).sum(),
            background_compiles: r.background_compiles as u64,
            degraded: r.degraded,
        }
    }
}

/// The execution modes the benchmark pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Bytecode,
    Native,
    Adaptive,
}

impl Mode {
    fn exec_mode(self) -> ExecMode {
        match self {
            Mode::Bytecode => ExecMode::Bytecode,
            Mode::Native => ExecMode::Native,
            Mode::Adaptive => ExecMode::Adaptive,
        }
    }
}

/// A statement: a hand-planned query or SQL text.
pub enum Stmt {
    Plan(Query),
    Sql(String),
}

pub struct NamedStmt {
    pub name: String,
    pub stmt: Stmt,
}

// ---------------------------------------------------------------------------
// storage
// ---------------------------------------------------------------------------

pub struct Data(Catalog);

pub fn generate_tpch(sf: f64) -> Data {
    Data(aqe_storage::tpch::generate(sf))
}

/// The pgAdmin-style catalog tables of the paper's opening example.
pub fn generate_meta(relations: usize) -> Data {
    Data(aqe_storage::meta::generate(relations))
}

impl Data {
    pub fn table_bytes(&self) -> usize {
        self.0.table_names().iter().map(|t| self.0.get(t).map_or(0, |t| t.byte_size())).sum()
    }
}

pub fn key_space(sf: f64) -> KeySpace {
    let (_, supplier, customer, _, _) = aqe_storage::tpch::row_counts(sf);
    KeySpace { supplier: supplier as u32, customer: customer as u32 }
}

/// All 22 hand-planned TPC-H queries.
pub fn tpch_statements(data: &Data) -> Vec<NamedStmt> {
    aqe_queries::tpch::all(&data.0).into_iter().map(plan_stmt).collect()
}

/// The 12 catalog queries pgAdmin sends at start-up. Eight of them are
/// one lookup with different keys, so the position joins the name.
pub fn meta_statements() -> Vec<NamedStmt> {
    aqe_queries::meta::startup_batch()
        .into_iter()
        .enumerate()
        .map(|(i, q)| NamedStmt { name: format!("{}_{i}", q.name), stmt: Stmt::Plan(q) })
        .collect()
}

fn plan_stmt(q: Query) -> NamedStmt {
    NamedStmt { name: q.name.clone(), stmt: Stmt::Plan(q) }
}

// ---------------------------------------------------------------------------
// engine::session, in process
// ---------------------------------------------------------------------------

/// One long-lived engine and a session on it.
pub struct Db {
    engine: Arc<Engine>,
    session: Session,
    threads: usize,
}

/// A statement prepared once, executed any number of times.
pub struct Prepared(PreparedQuery);

/// Counters an engine keeps over its lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cold_builds: u64,
    pub warm_executions: u64,
    pub server_accepted: u64,
    pub server_shed: u64,
}

impl std::ops::AddAssign for EngineCounters {
    fn add_assign(&mut self, o: EngineCounters) {
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cold_builds += o.cold_builds;
        self.warm_executions += o.warm_executions;
        self.server_accepted += o.server_accepted;
        self.server_shed += o.server_shed;
    }
}

impl Db {
    pub fn open(data: Data, threads: usize) -> Db {
        let engine = Arc::new(Engine::new(data.0));
        let session = engine.session();
        Db { engine, session, threads }
    }

    fn opts(&self, mode: Mode, cache: bool) -> ExecOptions {
        ExecOptions {
            mode: mode.exec_mode(),
            threads: self.threads,
            cache_results: cache,
            ..Default::default()
        }
    }

    /// Plan (SQL text) and decompose one statement against the current
    /// catalog.
    fn prepare_traced(&self, stmt: &Stmt, trace: &mut Tracing) -> Result<PreparedQuery, String> {
        match stmt {
            Stmt::Plan(q) => {
                let s = begin(trace, "op.plan");
                let query = self.session.prepare(&q.root, q.dicts.clone());
                end(trace, s);
                Ok(query)
            }
            Stmt::Sql(sql) => {
                let s = begin(trace, "op.frontend");
                let bound = self.session.with_catalog(|cat| aqe_sql::plan_sql(cat, sql));
                end(trace, s);
                let bound = bound.map_err(|e| e.to_string())?;
                let s = begin(trace, "op.plan");
                let query = self.session.prepare(&bound.root, bound.dicts);
                end(trace, s);
                Ok(query)
            }
        }
    }

    pub fn prepare(&self, stmt: &Stmt) -> Result<Prepared, String> {
        self.prepare_traced(stmt, &mut None).map(Prepared)
    }

    /// The ad-hoc operation: a fresh prepare and one execution, result
    /// cache off.
    pub fn adhoc(
        &self,
        stmt: &Stmt,
        mode: Mode,
        mut trace: Tracing,
    ) -> Result<(Rows, ExecInfo), String> {
        let prepared = Prepared(self.prepare_traced(stmt, &mut trace)?);
        self.execute(&prepared, &[], mode, false, trace)
    }

    /// Execute a prepared statement with bound values (none for a
    /// statement without `?`). With a trace, the call is wrapped in a
    /// span and the stage durations the engine reports are placed inside
    /// it.
    pub fn execute(
        &self,
        stmt: &Prepared,
        values: &[i64],
        mode: Mode,
        cache: bool,
        mut trace: Tracing,
    ) -> Result<(Rows, ExecInfo), String> {
        let params: Vec<ParamValue> = values.iter().map(|&v| ParamValue::I64(v)).collect();
        let opts = self.opts(mode, cache);
        let s = begin(&mut trace, "op.execute");
        let run = self.session.execute_bound_with(&stmt.0, &params, &opts);
        end(&mut trace, s);
        let (rows, report) = run.map_err(|e| e.to_string())?;
        let info = ExecInfo::from(&report);
        if let (Some((t, _, id)), Some(s)) = (trace.as_mut(), s) {
            reported_spans(t, s, *id, &info);
        }
        Ok((rows.into(), info))
    }

    /// Publish a new catalog epoch by replacing the smallest table
    /// (`region` in TPC-H) with a copy of itself: the contents stay, every
    /// cached result and all retained code of every statement is
    /// invalidated.
    pub fn mutate(&self) {
        self.engine.with_catalog_mut(|cat| {
            let old = cat
                .table_names()
                .iter()
                .filter_map(|name| cat.get(name))
                .min_by_key(|t| t.byte_size())
                .expect("catalog has a table")
                .clone();
            let fields = old
                .schema()
                .iter()
                .enumerate()
                .map(|(i, (name, ty))| (name.as_str(), *ty, old.column(i).clone()))
                .collect();
            cat.add(Table::new(old.name.clone(), fields));
        });
    }

    pub fn counters(&self) -> EngineCounters {
        let cache = self.engine.cache_stats();
        let conc = self.engine.concurrency();
        let server = self.engine.server_stats();
        EngineCounters {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cold_builds: conc.cold_builds,
            warm_executions: conc.warm_executions,
            server_accepted: server.accepted,
            server_shed: server.shed,
        }
    }

    /// Rows of `stmt` from the Volcano baseline, which shares no codegen,
    /// VM or scheduler with the engine.
    pub fn oracle(&self, stmt: &Stmt) -> Result<Rows, String> {
        self.engine.with_catalog(|cat| {
            let (root, dicts) = plan_of(cat, stmt)?;
            let plan = decompose(cat, &root, dicts);
            let vals =
                aqe_baselines::execute_volcano(cat, &root, &plan).map_err(|e| e.to_string())?;
            Ok(Rows { width: plan.output_tys.len(), vals })
        })
    }
}

/// The plan tree and dictionaries of a statement; SQL text is planned
/// against `cat` first.
fn plan_of<'a>(
    cat: &Catalog,
    stmt: &'a Stmt,
) -> Result<(Cow<'a, PlanNode>, Vec<DictTable>), String> {
    match stmt {
        Stmt::Plan(q) => Ok((Cow::Borrowed(&q.root), q.dicts.clone())),
        Stmt::Sql(sql) => {
            let bound = aqe_sql::plan_sql(cat, sql).map_err(|e| e.to_string())?;
            Ok((Cow::Owned(bound.root), bound.dicts))
        }
    }
}

/// Where an operation's spans go: the buffer, the operation's root span,
/// and its statement id. `None` is an untraced run.
pub type Tracing<'a> = Option<(&'a mut Trace, SpanId, u32)>;

fn begin(trace: &mut Tracing, name: &'static str) -> Option<SpanId> {
    trace.as_mut().map(|(t, parent, stmt)| t.begin(name, *parent, *stmt))
}

fn end(trace: &mut Tracing, span: Option<SpanId>) {
    if let (Some((t, _, _)), Some(s)) = (trace.as_mut(), span) {
        t.end(s);
    }
}

/// Place the stage durations a `Report` carries inside the execute span:
/// codegen and translation from its start, the morsel loops up to its end.
fn reported_spans(t: &mut Trace, execute: SpanId, stmt: u32, info: &ExecInfo) {
    let ex = t.span(execute);
    let budget = ex.dur_ns();
    let codegen = info.codegen_ns.min(budget);
    let translate = info.translate_ns.min(budget - codegen);
    let exec = info.exec_ns.min(budget - codegen - translate);
    let mut at = ex.start_ns;
    for (name, ns) in [("op.execute.codegen", codegen), ("op.execute.translate", translate)] {
        if ns > 0 {
            t.push(name, at, at + ns, execute, stmt);
            at += ns;
        }
    }
    if exec > 0 {
        t.push("op.execute.exec", ex.end_ns - exec, ex.end_ns, execute, stmt);
    }
}

// ---------------------------------------------------------------------------
// sql, engine::plan, engine::codegen, vm::translate, jit::native — staged
// ---------------------------------------------------------------------------

/// Sizes of the artefacts one statement compiles to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StagedCounts {
    pub pipelines: u64,
    pub ir_instrs: u64,
    pub bc_instrs: u64,
}

impl Db {
    /// Walk one statement through the compile path's public functions,
    /// one span per call: `tokenize` → `parse` → `plan_sql` (SQL text
    /// only) → `decompose` → `generate` → `translate`.
    pub fn staged(
        &self,
        stmt: &Stmt,
        trace: &mut Trace,
        parent: SpanId,
        id: u32,
    ) -> Result<StagedCounts, String> {
        self.engine.with_catalog(|cat| {
            let bound;
            let (root, dicts) = match stmt {
                Stmt::Plan(q) => (&q.root, q.dicts.clone()),
                Stmt::Sql(sql) => {
                    let s = trace.begin("sql.tokenize", parent, id);
                    let tokens = aqe_sql::tokenize(sql);
                    trace.end(s);
                    let s = trace.begin("sql.parse", parent, id);
                    let ast = aqe_sql::parse(tokens?);
                    trace.end(s);
                    black_box(ast?);
                    let s = trace.begin("sql.plan_sql", parent, id);
                    let planned = aqe_sql::plan_sql(cat, sql);
                    trace.end(s);
                    bound = planned.map_err(|e| e.to_string())?;
                    (&bound.root, bound.dicts.clone())
                }
            };
            let s = trace.begin("plan.decompose", parent, id);
            let plan = decompose(cat, root, dicts);
            trace.end(s);
            let s = trace.begin("codegen.generate", parent, id);
            let module = aqe_engine::codegen::generate(&plan, cat);
            trace.end(s);
            let s = trace.begin("vm.translate", parent, id);
            let mut bc_instrs = 0;
            for f in &module.functions {
                bc_instrs += aqe_vm::translate::translate(f, &module.externs, Default::default())
                    .map_err(|e| e.to_string())?
                    .len();
            }
            trace.end(s);
            Ok(StagedCounts {
                pipelines: plan.pipelines.len() as u64,
                ir_instrs: module.instruction_count() as u64,
                bc_instrs: bc_instrs as u64,
            })
        })
    }

    /// `compile_native` on every worker function of one statement:
    /// (µs per function, machine-code bytes). Empty where the target has
    /// no emitter.
    pub fn native_compile(&self, stmt: &Stmt) -> Result<(Vec<f64>, u64), String> {
        self.engine.with_catalog(|cat| {
            let (root, dicts) = plan_of(cat, stmt)?;
            let plan = decompose(cat, &root, dicts);
            let module = aqe_engine::codegen::generate(&plan, cat);
            let mut us = Vec::new();
            let mut bytes = 0;
            for f in &module.functions {
                let t = Instant::now();
                let compiled = aqe_jit::native::compile_native(f, &module.externs);
                let took = t.elapsed();
                match compiled {
                    Ok(native) => {
                        us.push(took.as_secs_f64() * 1e6);
                        bytes += native.stats.code_bytes as u64;
                    }
                    Err(aqe_jit::native::NativeError::Unavailable(_)) => return Ok((vec![], 0)),
                    Err(e) => return Err(e.to_string()),
                }
            }
            Ok((us, bytes))
        })
    }
}

// ---------------------------------------------------------------------------
// server: loop, conn, client
// ---------------------------------------------------------------------------

/// A front-door server on a loopback port, running on its own thread.
pub struct Front {
    handle: ServerHandle,
    join: JoinHandle<std::io::Result<()>>,
}

impl Front {
    pub fn spawn(db: &Db, workers: usize, exec_threads: usize) -> Result<Front, String> {
        let config = ServerConfig {
            workers,
            exec: ExecOptions { threads: exec_threads, ..Default::default() },
            ..Default::default()
        };
        let (handle, join) = Server::spawn(db.engine.clone(), config).map_err(|e| e.to_string())?;
        Ok(Front { handle, join })
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let client = Client::connect(self.handle.addr()).map_err(|e| e.to_string())?;
        Ok(Conn { client, stmts: Vec::new() })
    }

    /// Stop the loop and wait for its thread.
    pub fn shutdown(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.join.join() {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// One client connection and the statements prepared on it.
pub struct Conn {
    client: Client,
    stmts: Vec<PreparedHandle>,
}

impl Conn {
    /// Prepare `sql` on this connection; returns its index.
    pub fn prepare(&mut self, sql: &str) -> Result<usize, String> {
        let handle = self.client.prepare(sql).map_err(|e| e.to_string())?;
        self.stmts.push(handle);
        Ok(self.stmts.len() - 1)
    }

    /// Send an execute at normal priority, no deadline; do not wait.
    pub fn submit(&mut self, stmt: usize, values: &[i64]) -> Result<u64, String> {
        let params: Vec<ParamValue> = values.iter().map(|&v| ParamValue::I64(v)).collect();
        self.client.submit(&self.stmts[stmt], &params, 1, 0).map_err(|e| e.to_string())
    }

    /// Block for the reply: rows and the admission queue wait in µs. A
    /// shed, an error frame or a transport error is an `Err`.
    pub fn wait(&mut self, request: u64) -> Result<(Rows, u64), String> {
        let r = self.client.wait(request).map_err(|e| e.to_string())?;
        Ok((Rows { width: r.tys.len(), vals: r.rows }, r.queue_wait_us))
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.client.ping().map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------
// server::protocol, server::admission — in isolation
// ---------------------------------------------------------------------------

/// ns per `encode` → `FrameBuf` → `decode` of an execute request with two
/// bound values, as the served statements send.
pub fn protocol_request_roundtrip_ns(iters: u32) -> f64 {
    let req = Request::Execute {
        stmt_id: 3,
        request_id: 77,
        priority: 1,
        deadline_ms: 0,
        params: vec![ParamValue::I64(2400), ParamValue::I64(123_456)],
    };
    let mut buf = FrameBuf::new();
    let t = Instant::now();
    for _ in 0..iters {
        buf.extend(&black_box(&req).encode());
        let body = buf.next_body().expect("well-formed frame").expect("complete frame");
        black_box(Request::decode(body).expect("decodes"));
    }
    t.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// ns per `encode` → `FrameBuf` → `decode` of a one-row, three-column
/// reply, as the served statements return.
pub fn protocol_rows_roundtrip_ns(iters: u32) -> f64 {
    let resp = Response::Rows {
        request_id: 77,
        queue_wait_us: 12,
        tys: vec![FieldTy::I64; 3],
        rows: vec![1, 2, 3],
    };
    let mut buf = FrameBuf::new();
    let t = Instant::now();
    for _ in 0..iters {
        buf.extend(&black_box(&resp).encode());
        let body = buf.next_body().expect("well-formed frame").expect("complete frame");
        black_box(Response::decode(body).expect("decodes"));
    }
    t.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// ns per `submit` + `next` on an idle admission queue.
pub fn admission_submit_next_ns(iters: u32) -> f64 {
    let queue: Admission<u64> = Admission::new(64);
    let t = Instant::now();
    for i in 0..iters {
        if let Submitted::Enqueued = queue.submit(u64::from(i), 1) {
            black_box(queue.next());
        }
    }
    t.elapsed().as_nanos() as f64 / f64::from(iters)
}
