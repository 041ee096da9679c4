//! The four workloads: what each sets up, what one operation is, and which
//! statements its layer probes walk. Why each exists is in `README.md`
//! and `BENCHMARK.json`.

use crate::corpus::{BoundSql, KeySpace, ADHOC_SQL, CHURN_SQL, SERVED_SCAN_SQL, SERVED_TINY_SQL};
use crate::gen::{AdhocGen, ChurnGen, Class, Op, ServedGen, CHURN_EPOCH, SERVED_ROUND};
use crate::probe::{
    self, Conn, Db, ExecInfo, Front, Mode, NamedStmt, Prepared, Rows, Stmt, Tracing,
};
use crate::trace::{Trace, NO_PARENT};
use std::collections::VecDeque;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AdhocSmall,
    AdhocLarge,
    BoundChurn,
    ServedMix,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::AdhocSmall, Workload::AdhocLarge, Workload::BoundChurn, Workload::ServedMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocSmall => "adhoc-small",
            Workload::AdhocLarge => "adhoc-large",
            Workload::BoundChurn => "bound-churn",
            Workload::ServedMix => "served-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `Smoke` shrinks data and warm-up so that all four workloads and their
/// traced runs finish within a minute; the numbers mean nothing, the
/// checks are the same.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

const SMOKE_SF: f64 = 0.005;
/// Worker threads of an in-process execution (`nproc` is 2).
const ENGINE_THREADS: usize = 2;
/// The server has one worker running single-threaded executions; the
/// generator keeps one request outstanding on each of two connections, so
/// the worker serves them in turn and a request sent behind the other
/// connection's scan waits in the admission queue (`gen::ServedGen`).
const SERVER_WORKERS: usize = 1;
const SERVER_EXEC_THREADS: usize = 1;
const SERVER_CONNECTIONS: usize = 2;

impl Workload {
    pub fn scale_factor(self, scale: Scale) -> f64 {
        match (scale, self) {
            (Scale::Smoke, _) => SMOKE_SF,
            (Scale::Full, Workload::AdhocSmall) => 0.01,
            (Scale::Full, Workload::AdhocLarge) => 0.2,
            (Scale::Full, Workload::BoundChurn) => 0.1,
            (Scale::Full, Workload::ServedMix) => 0.05,
        }
    }

    /// Warm-up operations inside set-up, sized so that set-up takes at
    /// least a second at full scale.
    fn warmup_ops(self, scale: Scale, round: usize) -> usize {
        match (scale, self) {
            (Scale::Smoke, Workload::ServedMix) => 100,
            (Scale::Smoke, _) => round,
            (Scale::Full, Workload::AdhocSmall) => 10 * round,
            (Scale::Full, Workload::AdhocLarge) => round,
            (Scale::Full, Workload::BoundChurn) => 192,
            (Scale::Full, Workload::ServedMix) => 2000,
        }
    }

    /// Rounds of the measured region: a fixed operation count, so that a
    /// slower machine or build runs longer instead of doing less. The
    /// rates are what the 2-vCPU sandbox does undisturbed, which makes the
    /// region last about `seconds` there.
    pub fn rounds(self, seconds: f64) -> usize {
        let rounds_per_s = match self {
            Workload::AdhocSmall => 10.5,
            Workload::AdhocLarge => 1.3,
            Workload::BoundChurn => 21.5,
            Workload::ServedMix => 5.4,
        };
        ((seconds * rounds_per_s).round() as usize).max(1)
    }

    pub fn threads(self) -> String {
        match self {
            Workload::ServedMix => format!(
                "server workers {SERVER_WORKERS}, exec threads {SERVER_EXEC_THREADS}, \
                 connections {SERVER_CONNECTIONS}, generator 1"
            ),
            _ => format!("engine threads {ENGINE_THREADS}, generator 1"),
        }
    }
}

/// One completed operation.
pub struct Done {
    pub stmt: u32,
    /// Index into the statement's bind-value domain, if it has one.
    pub value: Option<u32>,
    /// Row of the per-statement (per-class, for `served-mix`) table.
    pub group: u32,
    pub class: Class,
    /// Statement in → rows out.
    pub latency_ns: u64,
    /// Admission queue wait the server reported, for served requests.
    pub queue_wait_us: Option<u64>,
    pub rows: Result<Rows, String>,
}

/// A statement the layer probes walk: on which engine, and with which
/// binding if it takes one.
pub struct ProbeStmt<'a> {
    pub name: &'a str,
    pub db: &'a Db,
    pub stmt: &'a Stmt,
    pub bound: Option<&'a BoundSql>,
}

pub struct StmtMeta {
    pub name: String,
    pub domain: Option<u32>,
}

/// A set-up workload: engines started, statements prepared, warm.
pub trait Instance {
    fn statements(&self) -> Vec<StmtMeta>;
    /// Names of the rows `corpus_geomean_ms` is taken over: the
    /// statements, unless the workload reports classes.
    fn groups(&self) -> Vec<String> {
        self.statements().into_iter().map(|s| s.name).collect()
    }
    /// Operations per round: the measured region ends on a round boundary
    /// and the first and last round are checked by full fingerprint.
    fn round(&self) -> usize;
    /// Run the next operation of the seeded sequence.
    fn step(&mut self, trace: Option<&mut Trace>) -> Done;
    fn probe_corpus(&self) -> Vec<ProbeStmt<'_>>;
    fn key_space(&self) -> KeySpace;
    /// Every engine of the workload; the first holds the TPC-H tables.
    fn dbs(&self) -> Vec<&Db>;
    /// Called when warm-up or a measured region ends: collect what is
    /// still in flight, so that nothing waits through the pause before the
    /// next region.
    fn settle(&mut self) {}
    /// Round-trip times in µs of `pings` pings to the workload's server;
    /// none for a workload that runs in process.
    fn ping_us(&mut self, _pings: usize) -> Result<Vec<f64>, String> {
        Ok(Vec::new())
    }
    /// The oracle's rows for one statement and binding.
    fn oracle(&self, stmt: u32, value: Option<u32>) -> Result<Rows, String>;
    /// Stop what set-up started and wait for it.
    fn close(self: Box<Self>) -> Result<(), String>;
}

pub struct SetupInfo {
    /// Data generation, part of `total_s`.
    pub generate_s: f64,
    pub table_bytes: usize,
    /// Data generation + engine/server start + statement preparation +
    /// warm-up.
    pub total_s: f64,
}

/// Set up `workload`. `warm` runs the warm-up operations (the oracle needs
/// none).
pub fn setup(
    workload: Workload,
    scale: Scale,
    seed: u64,
    warm: bool,
) -> Result<(Box<dyn Instance>, SetupInfo), String> {
    let sf = workload.scale_factor(scale);
    let t0 = Instant::now();
    let tpch = probe::generate_tpch(sf);
    let meta = (workload == Workload::AdhocSmall).then(|| probe::generate_meta(300));
    let generate_s = t0.elapsed().as_secs_f64();
    let table_bytes = tpch.table_bytes() + meta.as_ref().map_or(0, probe::Data::table_bytes);
    let keys = probe::key_space(sf);

    let mut instance: Box<dyn Instance> = match workload {
        Workload::AdhocSmall | Workload::AdhocLarge => {
            let mut stmts: Vec<(NamedStmt, usize)> =
                probe::tpch_statements(&tpch).into_iter().map(|s| (s, 0)).collect();
            stmts.extend(ADHOC_SQL.iter().map(|s| {
                (NamedStmt { name: s.name.to_string(), stmt: Stmt::Sql(s.sql.to_string()) }, 0)
            }));
            let mut dbs = vec![Db::open(tpch, ENGINE_THREADS)];
            if let Some(meta) = meta {
                stmts.extend(probe::meta_statements().into_iter().map(|s| (s, 1)));
                dbs.push(Db::open(meta, ENGINE_THREADS));
            }
            let gen = AdhocGen::new(seed, stmts.len() as u32);
            Box::new(Adhoc { dbs, stmts, gen, keys })
        }
        Workload::BoundChurn => {
            let db = Db::open(tpch, ENGINE_THREADS);
            let stmts = CHURN_SQL
                .iter()
                .map(|sql| {
                    let text = Stmt::Sql(sql.sql.to_string());
                    let prepared = db.prepare(&text)?;
                    Ok(Bound { sql, text, prepared })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let gen = ChurnGen::new(seed, CHURN_SQL.iter().map(|s| s.domain).collect());
            Box::new(Churn { db, stmts, gen, keys })
        }
        Workload::ServedMix => {
            let db = Db::open(tpch, SERVER_EXEC_THREADS);
            Box::new(Served::start(db, seed, keys)?)
        }
    };
    if warm {
        for i in 0..workload.warmup_ops(scale, instance.round()) {
            if let Err(e) = instance.step(None).rows {
                instance.close()?;
                return Err(format!("warm-up operation {i} failed: {e}"));
            }
        }
        instance.settle();
    }
    let total_s = t0.elapsed().as_secs_f64();
    Ok((instance, SetupInfo { generate_s, table_bytes, total_s }))
}

/// Run one in-process operation, under an `op` root span when tracing.
fn in_op<R>(trace: Option<&mut Trace>, stmt: u32, f: impl FnOnce(Tracing<'_>) -> R) -> R {
    match trace {
        None => f(None),
        Some(t) => {
            let root = t.begin("op", NO_PARENT, stmt);
            let r = f(Some((&mut *t, root, stmt)));
            t.end(root);
            r
        }
    }
}

// ---------------------------------------------------------------------------
// adhoc-small, adhoc-large
// ---------------------------------------------------------------------------

struct Adhoc {
    /// The TPC-H engine, then (small only) the catalog-tables engine.
    dbs: Vec<Db>,
    /// Statement and the engine it runs on.
    stmts: Vec<(NamedStmt, usize)>,
    gen: AdhocGen,
    keys: KeySpace,
}

impl Instance for Adhoc {
    fn statements(&self) -> Vec<StmtMeta> {
        self.stmts.iter().map(|(s, _)| StmtMeta { name: s.name.clone(), domain: None }).collect()
    }

    fn round(&self) -> usize {
        self.gen.round_len()
    }

    fn step(&mut self, trace: Option<&mut Trace>) -> Done {
        let op = self.gen.next().expect("generator is endless");
        let (named, db) = &self.stmts[op.stmt as usize];
        let db = &self.dbs[*db];
        let t0 = Instant::now();
        let run = in_op(trace, op.stmt, |tracing| db.adhoc(&named.stmt, Mode::Adaptive, tracing));
        let latency_ns = t0.elapsed().as_nanos() as u64;
        Done {
            stmt: op.stmt,
            value: None,
            group: op.stmt,
            class: op.class,
            latency_ns,
            queue_wait_us: None,
            rows: run.map(|(rows, _)| rows),
        }
    }

    fn probe_corpus(&self) -> Vec<ProbeStmt<'_>> {
        self.stmts
            .iter()
            .map(|(s, db)| ProbeStmt {
                name: &s.name,
                db: &self.dbs[*db],
                stmt: &s.stmt,
                bound: None,
            })
            .collect()
    }

    fn key_space(&self) -> KeySpace {
        self.keys
    }

    fn dbs(&self) -> Vec<&Db> {
        self.dbs.iter().collect()
    }

    fn oracle(&self, stmt: u32, _value: Option<u32>) -> Result<Rows, String> {
        let (named, db) = &self.stmts[stmt as usize];
        self.dbs[*db].oracle(&named.stmt)
    }

    fn close(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// bound-churn
// ---------------------------------------------------------------------------

struct Bound {
    sql: &'static BoundSql,
    /// The same text as an ad-hoc statement, for the layer probes.
    text: Stmt,
    prepared: Prepared,
}

struct Churn {
    db: Db,
    stmts: Vec<Bound>,
    gen: ChurnGen,
    keys: KeySpace,
}

impl Instance for Churn {
    fn statements(&self) -> Vec<StmtMeta> {
        bound_meta(self.stmts.iter().map(|b| b.sql))
    }

    fn round(&self) -> usize {
        CHURN_EPOCH
    }

    fn step(&mut self, mut trace: Option<&mut Trace>) -> Done {
        let op = self.gen.next().expect("generator is endless");
        if op.mutate {
            // Outside the operation's latency, inside the run's wall time.
            let span = trace.as_mut().map(|t| t.begin("mutate", NO_PARENT, op.stmt));
            self.db.mutate();
            if let (Some(t), Some(s)) = (trace.as_mut(), span) {
                t.end(s);
            }
        }
        let bound = &self.stmts[op.stmt as usize];
        let values = bound.sql.values(op.value, op.salt, self.keys);
        let t0 = Instant::now();
        let run = in_op(trace, op.stmt, |tracing| {
            self.db.execute(&bound.prepared, &values, Mode::Adaptive, true, tracing)
        });
        let latency_ns = t0.elapsed().as_nanos() as u64;
        Done {
            stmt: op.stmt,
            value: Some(op.value),
            group: op.stmt,
            class: op.class,
            latency_ns,
            queue_wait_us: None,
            rows: run.and_then(|(rows, info)| check_class(op, &info).map(|()| rows)),
        }
    }

    fn probe_corpus(&self) -> Vec<ProbeStmt<'_>> {
        self.stmts
            .iter()
            .map(|b| ProbeStmt {
                name: b.sql.name,
                db: &self.db,
                stmt: &b.text,
                bound: Some(b.sql),
            })
            .collect()
    }

    fn key_space(&self) -> KeySpace {
        self.keys
    }

    fn dbs(&self) -> Vec<&Db> {
        vec![&self.db]
    }

    fn oracle(&self, stmt: u32, value: Option<u32>) -> Result<Rows, String> {
        let sql = self.stmts[stmt as usize].sql;
        self.db.oracle(&Stmt::Sql(sql.with_literals(value.unwrap_or(0), self.keys)))
    }

    fn close(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// The generator labels each operation hit, warm or cold from its own
/// bookkeeping; the percentiles are read against those shares, so an
/// engine that served the operation another way is an error, not a
/// silently different mix.
fn check_class(op: Op, info: &ExecInfo) -> Result<(), String> {
    let served = if info.cache_hit {
        Class::Hit
    } else if info.cold_build {
        Class::Cold
    } else {
        Class::Warm
    };
    if served == op.class {
        Ok(())
    } else {
        Err(format!("generated as {:?}, engine served it as {served:?}", op.class))
    }
}

fn bound_meta<'a>(stmts: impl Iterator<Item = &'a BoundSql>) -> Vec<StmtMeta> {
    stmts.map(|s| StmtMeta { name: s.name.to_string(), domain: Some(s.domain) }).collect()
}

// ---------------------------------------------------------------------------
// served-mix
// ---------------------------------------------------------------------------

struct Pending {
    conn: usize,
    request: u64,
    op: Op,
    submitted: Instant,
    sent: Instant,
}

struct Served {
    db: Db,
    front: Front,
    conns: Vec<Conn>,
    /// Tiny statements, then scan statements; prepared on every
    /// connection under the same index.
    stmts: Vec<(&'static BoundSql, Stmt)>,
    gen: ServedGen,
    keys: KeySpace,
    /// Requests in flight, oldest first: one per connection. The single
    /// worker answers in submission order, so the oldest is the one to
    /// wait for.
    pending: VecDeque<Pending>,
}

impl Served {
    fn start(db: Db, seed: u64, keys: KeySpace) -> Result<Served, String> {
        let front = Front::spawn(&db, SERVER_WORKERS, SERVER_EXEC_THREADS)?;
        let stmts: Vec<(&'static BoundSql, Stmt)> = SERVED_TINY_SQL
            .iter()
            .chain(SERVED_SCAN_SQL)
            .map(|s| (s, Stmt::Sql(s.sql.to_string())))
            .collect();
        let connect = || {
            let mut conns = Vec::new();
            for _ in 0..SERVER_CONNECTIONS {
                let mut conn = front.connect()?;
                for (sql, _) in &stmts {
                    conn.prepare(sql.sql)?;
                }
                conns.push(conn);
            }
            Ok(conns)
        };
        let conns = match connect() {
            Ok(conns) => conns,
            Err(e) => {
                front.shutdown()?;
                return Err(e);
            }
        };
        let domains = |set: &[BoundSql]| set.iter().map(|s| s.domain).collect::<Vec<_>>();
        let gen = ServedGen::new(seed, &domains(SERVED_TINY_SQL), &domains(SERVED_SCAN_SQL));
        Ok(Served { db, front, conns, stmts, gen, keys, pending: VecDeque::new() })
    }

    /// Collect the replies still in flight.
    fn drain(&mut self) {
        while let Some(p) = self.pending.pop_front() {
            let _ = self.conns[p.conn].wait(p.request);
        }
        self.gen.restart_round();
    }

    fn submit_next(&mut self, conn: usize) -> Result<(), String> {
        let op = self.gen.next().expect("generator is endless");
        let values = self.stmts[op.stmt as usize].0.values(op.value, op.salt, self.keys);
        let submitted = Instant::now();
        let request = self.conns[conn].submit(op.stmt as usize, &values)?;
        self.pending.push_back(Pending { conn, request, op, submitted, sent: Instant::now() });
        Ok(())
    }
}

impl Instance for Served {
    fn statements(&self) -> Vec<StmtMeta> {
        bound_meta(self.stmts.iter().map(|(s, _)| *s))
    }

    fn groups(&self) -> Vec<String> {
        vec!["tiny".to_string(), "scan".to_string()]
    }

    fn round(&self) -> usize {
        SERVED_ROUND
    }

    fn step(&mut self, trace: Option<&mut Trace>) -> Done {
        let failed = |e: String| Done {
            stmt: 0,
            value: None,
            group: 0,
            class: Class::Tiny,
            latency_ns: 0,
            queue_wait_us: None,
            rows: Err(e),
        };
        if self.pending.is_empty() {
            for conn in 0..self.conns.len() {
                if let Err(e) = self.submit_next(conn) {
                    return failed(e);
                }
            }
        }
        let p = self.pending.pop_front().expect("primed above");
        let reply = self.conns[p.conn].wait(p.request);
        let done = Instant::now();
        if let Some(t) = trace {
            let root = t.push("op", t.at_ns(p.submitted), t.at_ns(done), NO_PARENT, p.op.stmt);
            t.push("op.submit", t.at_ns(p.submitted), t.at_ns(p.sent), root, p.op.stmt);
            // In flight from the request's side: the generator may have
            // spent part of it collecting the other connection's reply.
            t.push("op.wait", t.at_ns(p.sent), t.at_ns(done), root, p.op.stmt);
        }
        let resubmit = self.submit_next(p.conn);
        let (queue_wait_us, rows) = match (reply, resubmit) {
            (Ok((rows, wait)), Ok(())) => (Some(wait), Ok(rows)),
            (Err(e), _) | (_, Err(e)) => (None, Err(e)),
        };
        Done {
            stmt: p.op.stmt,
            value: Some(p.op.value),
            // Two rows: tiny requests (queued or not) and scans.
            group: u32::from(p.op.class == Class::Scan),
            class: p.op.class,
            latency_ns: (done - p.submitted).as_nanos() as u64,
            queue_wait_us,
            rows,
        }
    }

    fn probe_corpus(&self) -> Vec<ProbeStmt<'_>> {
        self.stmts
            .iter()
            .map(|(sql, text)| ProbeStmt {
                name: sql.name,
                db: &self.db,
                stmt: text,
                bound: Some(sql),
            })
            .collect()
    }

    fn key_space(&self) -> KeySpace {
        self.keys
    }

    fn dbs(&self) -> Vec<&Db> {
        vec![&self.db]
    }

    fn oracle(&self, stmt: u32, value: Option<u32>) -> Result<Rows, String> {
        let sql = self.stmts[stmt as usize].0;
        self.db.oracle(&Stmt::Sql(sql.with_literals(value.unwrap_or(0), self.keys)))
    }

    fn settle(&mut self) {
        self.drain();
    }

    fn ping_us(&mut self, pings: usize) -> Result<Vec<f64>, String> {
        // On an idle server: a ping behind a scan would measure the scan.
        self.drain();
        let mut us = Vec::with_capacity(pings);
        for _ in 0..pings {
            let t = Instant::now();
            self.conns[0].ping()?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(us)
    }

    fn close(mut self: Box<Self>) -> Result<(), String> {
        self.drain();
        self.conns.clear();
        self.front.shutdown()
    }
}

/// The tiny statements answered from the result cache in process, in µs:
/// what a served tiny request costs without the server around it.
pub fn tiny_in_process_us(db: &Db, keys: KeySpace, runs: usize) -> Result<Vec<f64>, String> {
    let mut us = Vec::new();
    for sql in SERVED_TINY_SQL {
        let prepared = db.prepare(&Stmt::Sql(sql.sql.to_string()))?;
        let values = sql.values(0, 0, keys);
        db.execute(&prepared, &values, Mode::Adaptive, true, None)?;
        for _ in 0..runs {
            let t = Instant::now();
            let (_, info) = db.execute(&prepared, &values, Mode::Adaptive, true, None)?;
            if info.cache_hit {
                us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    Ok(us)
}
