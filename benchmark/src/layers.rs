//! The per-layer figures of a traced run. The traced operation loop gives
//! the shares of an operation; the passes here walk the workload's
//! statements through one layer at a time. They are separate passes of the
//! traced run, never part of a measured operation. A workload runs the
//! passes of the layers its operations go through (`metrics::PER_LAYER`
//! says which).

use crate::gen::Class;
use crate::measure::Samples;
use crate::probe::{self, Mode};
use crate::stats;
use crate::trace::{Trace, NO_PARENT};
use crate::workloads::{self, Instance, ProbeStmt, Scale, SetupInfo, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Domain index of the binding the probes use for a bound statement.
const PROBE_VALUE: u32 = 7;

struct Rounds {
    staged: usize,
    modes: usize,
    compile: usize,
    warm: usize,
    pings: usize,
    micro_iters: u32,
}

impl Rounds {
    fn of(scale: Scale) -> Rounds {
        match scale {
            Scale::Full => {
                Rounds { staged: 5, modes: 3, compile: 3, warm: 3, pings: 200, micro_iters: 20_000 }
            }
            Scale::Smoke => {
                Rounds { staged: 2, modes: 1, compile: 2, warm: 1, pings: 20, micro_iters: 2_000 }
            }
        }
    }
}

fn values(ps: &ProbeStmt<'_>, inst: &dyn Instance) -> Vec<i64> {
    ps.bound.map_or(Vec::new(), |b| b.values(PROBE_VALUE.min(b.domain - 1), 1000, inst.key_space()))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// What the traced run's operation loops leave for the layer passes.
pub struct TracedRun<'a> {
    pub workload: Workload,
    pub scale: Scale,
    pub inst: &'a dyn Instance,
    pub setup: &'a SetupInfo,
    /// The regions run without spans, alternately with the traced ones.
    pub untraced: &'a Samples,
    pub traced: &'a Samples,
    /// Counters of the workload's engines as its own operations left
    /// them, before the layer passes add their executions.
    pub counters: probe::EngineCounters,
    /// Ping round trips to the workload's server (`served-mix`).
    pub ping_us: Vec<f64>,
}

impl TracedRun<'_> {
    /// Pings a traced run sends, at this scale.
    pub fn pings(scale: Scale) -> usize {
        Rounds::of(scale).pings
    }
}

/// Everything the traced run reports.
pub fn measure(run: &TracedRun<'_>, trace: &mut Trace) -> Result<Metrics, String> {
    let inst = run.inst;
    let rounds = Rounds::of(run.scale);
    let mut m = Metrics::new();
    m.insert("storage.generate_s", run.setup.generate_s);
    m.insert("storage.table_bytes", run.setup.table_bytes as f64);

    operation_shares(trace, run.untraced, run.traced, &mut m)?;
    let corpus = inst.probe_corpus();
    let c = run.counters;
    let lookups = c.cache_hits + c.cache_misses;
    match run.workload {
        Workload::AdhocSmall | Workload::AdhocLarge | Workload::BoundChurn => {
            staged_walk(&corpus, trace, rounds.staged, &mut m)?;
            native_compile(&corpus, rounds.compile, &mut m)?;
            fixed_modes(&corpus, inst, rounds.modes, &mut m)?;
        }
        Workload::ServedMix => {
            let micro = rounds.micro_iters;
            m.insert(
                "protocol.request_roundtrip_us",
                probe::protocol_request_roundtrip_ns(micro) / 1e3,
            );
            m.insert("protocol.rows_roundtrip_us", probe::protocol_rows_roundtrip_ns(micro) / 1e3);
            m.insert("admission.submit_next_ns", probe::admission_submit_next_ns(micro));
            server(run, &rounds, &mut m)?;
            m.insert("server.accepted", c.server_accepted as f64);
            m.insert("server.shed", c.server_shed as f64);
        }
    }
    // The workloads that run with the result cache on.
    if matches!(run.workload, Workload::BoundChurn | Workload::ServedMix) {
        m.insert("session.cache_hit_share", c.cache_hits as f64 / lookups.max(1) as f64);
    }
    if run.workload == Workload::BoundChurn {
        session_cycle(&corpus, inst, rounds.warm, &mut m)?;
        m.insert("session.cold_builds", c.cold_builds as f64);
        m.insert("session.warm_executions", c.warm_executions as f64);
    }
    Ok(m)
}

/// Spans of an operation that are the compile path: frontend, plan,
/// codegen, translation.
const COMPILE_PATH: [&str; 4] =
    ["op.frontend", "op.plan", "op.execute.codegen", "op.execute.translate"];

/// One row of the traced run's per-statement table.
pub struct StatementRow {
    pub name: String,
    pub samples: usize,
    pub p50_ms: f64,
    /// Share of the statement's operation time spent on the compile path.
    pub compile_path_share: f64,
}

/// Per statement: operations traced, their median, and the compile path's
/// share of their time.
pub fn statement_rows(trace: &Trace, names: &[String]) -> Vec<StatementRow> {
    let own = trace.self_times_ns();
    let spans = trace.spans();
    // (operation durations, compile-path ns, total ns) per statement id
    let mut by_stmt: BTreeMap<u32, (Vec<f64>, u64, u64)> = BTreeMap::new();
    let mut in_op = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_op[i] = s.name == "op" || (s.parent != NO_PARENT && in_op[s.parent as usize]);
        if !in_op[i] {
            continue;
        }
        let row = by_stmt.entry(s.stmt).or_default();
        if s.name == "op" {
            row.0.push(s.dur_ns() as f64 / 1e6);
        }
        if COMPILE_PATH.contains(&s.name) {
            row.1 += own[i];
        }
        row.2 += own[i];
    }
    by_stmt
        .into_iter()
        .map(|(stmt, (durations, compile, total))| StatementRow {
            name: names.get(stmt as usize).cloned().unwrap_or_else(|| format!("statement {stmt}")),
            samples: durations.len(),
            p50_ms: stats::median(&durations),
            compile_path_share: compile as f64 / total.max(1) as f64,
        })
        .collect()
}

/// From the traced operation loop: what tracing cost (geometric mean over
/// statements of traced ÷ untraced median latency, less one — statement by
/// statement, so that it does not hinge on where the pooled median falls),
/// how much of an operation the layer spans cover, and how much of it is
/// the compile path (frontend, plan, codegen, translation).
fn operation_shares(
    trace: &Trace,
    untraced: &Samples,
    traced: &Samples,
    m: &mut Metrics,
) -> Result<(), String> {
    let (without, with) = (untraced.group_medians(), traced.group_medians());
    let ratios: Vec<f64> =
        with.iter().filter_map(|(g, ms)| without.get(g).map(|base| ms / base)).collect();
    if ratios.is_empty() {
        return Err("no statement succeeded both with and without spans".to_string());
    }
    let totals = trace.self_totals_under("op");
    let all: u64 = totals.values().sum();
    let of = |names: &[&str]| names.iter().filter_map(|n| totals.get(n)).sum::<u64>() as f64;
    m.insert("trace.overhead_share", stats::geomean(&ratios) - 1.0);
    m.insert("trace.covered_share", 1.0 - of(&["op"]) / all.max(1) as f64);
    m.insert("trace.compile_path_share", of(&COMPILE_PATH) / all.max(1) as f64);
    Ok(())
}

/// `sql`, `engine::plan`, `engine::codegen`, `vm::translate`: each
/// statement through the public function of each, one span per call.
/// The sizes of what they produce must repeat exactly.
fn staged_walk(
    corpus: &[ProbeStmt<'_>],
    trace: &mut Trace,
    rounds: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut first = Vec::new();
    for round in 0..rounds {
        for (i, ps) in corpus.iter().enumerate() {
            let root = trace.begin("staged", NO_PARENT, i as u32);
            let counts = ps.db.staged(ps.stmt, trace, root, i as u32);
            trace.end(root);
            let counts = counts.map_err(|e| format!("{}: {e}", ps.name))?;
            if round == 0 {
                first.push(counts);
            } else if first[i] != counts {
                return Err(format!(
                    "{}: sizes differ between two walks: {:?} then {counts:?}",
                    ps.name, first[i]
                ));
            }
        }
    }
    // `plan_sql` tokenizes and parses again; its own part is what is left.
    let mut own_plan_sql = Vec::new();
    let mut by_root: BTreeMap<u32, [u64; 3]> = BTreeMap::new();
    for s in trace.spans() {
        let slot = match s.name {
            "sql.tokenize" => 0,
            "sql.parse" => 1,
            "sql.plan_sql" => 2,
            _ => continue,
        };
        by_root.entry(s.parent).or_default()[slot] = s.dur_ns();
    }
    for [tokenize, parse, plan_sql] in by_root.into_values() {
        own_plan_sql.push(plan_sql.saturating_sub(tokenize + parse) as f64 / 1e3);
    }
    let median = |name| trace.median_self_us(name).unwrap_or(0.0);
    m.insert("sql.tokenize_us", median("sql.tokenize"));
    m.insert("sql.parse_us", median("sql.parse"));
    m.insert(
        "sql.bind_plan_us",
        if own_plan_sql.is_empty() { 0.0 } else { stats::median(&own_plan_sql) },
    );
    m.insert("plan.decompose_us", median("plan.decompose"));
    m.insert("codegen.generate_us", median("codegen.generate"));
    m.insert("translate.us", median("vm.translate"));
    m.insert("plan.pipelines", first.iter().map(|c| c.pipelines).sum::<u64>() as f64);
    m.insert("codegen.ir_instrs", first.iter().map(|c| c.ir_instrs).sum::<u64>() as f64);
    m.insert("translate.bc_instrs", first.iter().map(|c| c.bc_instrs).sum::<u64>() as f64);
    Ok(())
}

/// `jit::native`: `compile_native` on every worker function.
fn native_compile(corpus: &[ProbeStmt<'_>], rounds: usize, m: &mut Metrics) -> Result<(), String> {
    let mut us = Vec::new();
    let mut bytes_first = 0;
    for round in 0..rounds {
        let mut bytes = 0;
        for ps in corpus {
            let (per_fn, b) =
                ps.db.native_compile(ps.stmt).map_err(|e| format!("{}: {e}", ps.name))?;
            us.extend(per_fn);
            bytes += b;
        }
        if round == 0 {
            bytes_first = bytes;
        } else if bytes != bytes_first {
            return Err(format!(
                "native code size differs between two passes: {bytes_first} then {bytes}"
            ));
        }
    }
    m.insert("jit.native_compile_us", if us.is_empty() { 0.0 } else { stats::median(&us) });
    m.insert("jit.native_code_bytes", bytes_first as f64);
    Ok(())
}

/// `engine::exec` + `engine::sched`: a fresh prepare and one run of every
/// statement in each pinned mode and in adaptive mode — the paper's claim
/// is the last against the better of the first two.
fn fixed_modes(
    corpus: &[ProbeStmt<'_>],
    inst: &dyn Instance,
    rounds: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    const MODES: [Mode; 3] = [Mode::Bytecode, Mode::Native, Mode::Adaptive];
    // [mode][statement] -> ms per round
    let mut ms: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); corpus.len()]; MODES.len()];
    // Sums over the corpus of what the adaptive runs reported, per round.
    let mut sums: Vec<[f64; 9]> = Vec::new();
    for _ in 0..rounds {
        let mut sum = [0.0; 9];
        for (mi, &mode) in MODES.iter().enumerate() {
            for (si, ps) in corpus.iter().enumerate() {
                let vals = values(ps, inst);
                let t = Instant::now();
                let run = ps
                    .db
                    .prepare(ps.stmt)
                    .and_then(|p| ps.db.execute(&p, &vals, mode, false, None));
                let took = ms_since(t);
                let (_, info) = run.map_err(|e| format!("{} in {mode:?}: {e}", ps.name))?;
                ms[mi][si].push(took);
                if mode == Mode::Adaptive {
                    for (slot, v) in sum.iter_mut().zip([
                        info.exec_ns as f64 / 1e6,
                        took,
                        info.morsels as f64,
                        info.steals as f64,
                        info.decisions as f64,
                        info.background_compiles as f64,
                        info.compiles_started as f64,
                        info.pipelines as f64,
                        info.degraded as f64,
                    ]) {
                        *slot += v;
                    }
                }
            }
        }
        sums.push(sum);
    }
    let per_stmt = |mi: usize| -> Vec<f64> { ms[mi].iter().map(|v| stats::median(v)).collect() };
    let (bytecode, native, adaptive) = (per_stmt(0), per_stmt(1), per_stmt(2));
    let ratios: Vec<f64> =
        (0..corpus.len()).map(|i| adaptive[i] / bytecode[i].min(native[i])).collect();
    m.insert("engine.bytecode_ms", stats::geomean(&bytecode));
    m.insert("engine.native_ms", stats::geomean(&native));
    m.insert("engine.adaptive_ms", stats::geomean(&adaptive));
    m.insert("engine.adaptive_over_best_static", stats::geomean(&ratios));
    let col = |i: usize| stats::median(&sums.iter().map(|s| s[i]).collect::<Vec<_>>());
    m.insert("engine.exec_share", col(0) / col(1));
    m.insert("engine.morsels", col(2));
    m.insert("engine.steals", col(3));
    m.insert("engine.decisions", col(4));
    m.insert("engine.background_compiles", col(5));
    m.insert("engine.compiles_per_pipeline", col(6) / col(7).max(1.0));
    m.insert("engine.degraded", col(8));
    Ok(())
}

/// `engine::session`: one statement's life on a long-lived engine —
/// prepare, cold run, warm runs, a result-cache hit, a catalog mutation,
/// the rebuild after it.
fn session_cycle(
    corpus: &[ProbeStmt<'_>],
    inst: &dyn Instance,
    warm_runs: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let (mut prepare_us, mut warm_ms, mut hit_us, mut mutate_us, mut rebuild_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for ps in corpus {
        let vals = values(ps, inst);
        let fail = |e: String| format!("{}: {e}", ps.name);
        let t = Instant::now();
        let p = ps.db.prepare(ps.stmt).map_err(fail)?;
        prepare_us.push(us_since(t));
        ps.db.execute(&p, &vals, Mode::Adaptive, false, None).map_err(fail)?;
        let mut warm = Vec::new();
        for _ in 0..warm_runs {
            let t = Instant::now();
            ps.db.execute(&p, &vals, Mode::Adaptive, false, None).map_err(fail)?;
            warm.push(ms_since(t));
        }
        warm_ms.push(stats::median(&warm));
        // Fill the result cache, then hit it.
        ps.db.execute(&p, &vals, Mode::Adaptive, true, None).map_err(fail)?;
        let t = Instant::now();
        let (_, info) = ps.db.execute(&p, &vals, Mode::Adaptive, true, None).map_err(fail)?;
        if info.cache_hit {
            hit_us.push(us_since(t));
        }
        let t = Instant::now();
        ps.db.mutate();
        mutate_us.push(us_since(t));
        let t = Instant::now();
        let (_, info) = ps.db.execute(&p, &vals, Mode::Adaptive, false, None).map_err(fail)?;
        if info.cold_build {
            rebuild_ms.push(ms_since(t));
        }
    }
    let median = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    m.insert("session.prepare_us", median(&prepare_us));
    m.insert("session.warm_execute_ms", median(&warm_ms));
    m.insert("session.cache_hit_us", median(&hit_us));
    m.insert("session.mutate_us", median(&mutate_us));
    m.insert("session.rebuild_ms", median(&rebuild_ms));
    Ok(())
}

/// `server`: round trips over loopback, read from the workload's own
/// traced loop, against the same tiny statements answered in process.
fn server(run: &TracedRun<'_>, rounds: &Rounds, m: &mut Metrics) -> Result<(), String> {
    let (mut tiny_us, mut scan_ms, mut wait_us) = (Vec::new(), Vec::new(), Vec::new());
    for o in run.traced.ok() {
        match o.class {
            // A tiny request that found the worker free: the server's own
            // cost, without the wait for the other connection's scan.
            Class::Tiny => tiny_us.push(o.latency_ms * 1e3),
            Class::Scan => scan_ms.push(o.latency_ms),
            _ => {}
        }
        wait_us.extend(o.queue_wait_us.map(|w| w as f64));
    }
    if tiny_us.is_empty() || scan_ms.is_empty() || wait_us.is_empty() || run.ping_us.is_empty() {
        return Err("the traced loop has no tiny request, no scan or no ping".to_string());
    }
    let inst = run.inst;
    let hit_us = workloads::tiny_in_process_us(inst.dbs()[0], inst.key_space(), rounds.pings)?;
    if hit_us.is_empty() {
        return Err("no tiny statement was answered from the result cache in process".to_string());
    }
    let (tiny_p50, hit_p50) = (stats::median(&tiny_us), stats::median(&hit_us));
    m.insert("server.ping_rtt_us", stats::median(&run.ping_us));
    m.insert("server.tiny_p50_us", tiny_p50);
    m.insert("server.scan_p50_ms", stats::median(&scan_ms));
    // The mean: most requests do not wait, the ones behind a scan do.
    m.insert("server.queue_wait_us", wait_us.iter().sum::<f64>() / wait_us.len() as f64);
    m.insert("session.cache_hit_us", hit_p50);
    m.insert("server.overhead_us", tiny_p50 - hit_p50);
    Ok(())
}
