//! Engine-level tests for the hot-swap machinery itself:
//!
//! 1. a large synthetic query started in `ExecMode::Adaptive` must actually
//!    *switch* backends mid-pipeline: its optimized compile outlasts a
//!    morsel, so the scan starts on a cheaper level, a compilation
//!    appears in the trace on the row of the worker that ran it, with no
//!    morsel of that worker during it, and optimized morsels follow, and
//! 2. every one of the four `ExecMode`s produces the `ResultRows` of the
//!    Volcano engine on a TPC-H subset (without the emitter the compiled
//!    modes run bytecode and must still agree), and
//! 3. with a model under which unoptimized code buys nothing, the scan
//!    starts interpreted and climbs straight to optimized machine code
//!    mid-query: the trace shows morsels on that backend (kind 2) after
//!    interpreted ones and none on unoptimized code, and
//! 4. an untraced adaptive run that compiled mid-query returns an empty
//!    trace.
//!
//! Every result is checked against `aqe::baselines::execute_volcano`,
//! which shares no code with the engine but storage and the plan tree.
//! Without the emitter (`AQE_NATIVE=0`, or off x86-64 Linux) the engine is
//! bytecode only: there is no switch to observe and tests 1, 3 and 4
//! return early.

use aqe::baselines::execute_volcano;
use aqe::engine::exec::{ExecMode, ExecOptions, TraceEvent};
use aqe::engine::plan::decompose;
use aqe::engine::session::Engine;
use aqe::engine::ExecLevel;
use aqe::queries::{synthetic, tpch};
use aqe::storage::tpch as tpch_data;

/// Trace kinds (see `TraceEvent::kind`): a morsel's backend level, or a
/// compilation.
const KIND_INTERPRETED: u8 = ExecLevel::Interpreted as u8;
const KIND_OPTIMIZED: u8 = ExecLevel::Optimized as u8;
const KIND_COMPILE: u8 = 255;

fn normalized(rows: &[u64], width: usize, sorted: bool) -> Vec<Vec<u64>> {
    if width == 0 {
        return vec![];
    }
    let mut out: Vec<Vec<u64>> = rows.chunks_exact(width).map(|r| r.to_vec()).collect();
    if !sorted {
        out.sort();
    }
    out
}

/// The oracle's rows for `root`, normalized like the engine's.
fn volcano(
    cat: &aqe::storage::Catalog,
    root: &aqe::engine::plan::PlanNode,
    phys: &aqe::engine::plan::PhysicalPlan,
) -> Vec<Vec<u64>> {
    let rows = execute_volcano(cat, root, phys).expect("volcano run");
    normalized(&rows, phys.output_tys.len(), phys.sorted_output)
}

/// Whether anything can compile in this process (see the module docs).
fn emitter() -> bool {
    aqe::jit::native::enabled()
}

/// Pipeline `pid`'s morsel levels in execution order, per worker thread.
fn morsel_kinds_per_thread(trace: &[TraceEvent], pid: u16) -> Vec<Vec<u8>> {
    let threads: std::collections::BTreeSet<u16> = trace.iter().map(|e| e.thread).collect();
    threads
        .into_iter()
        .map(|tid| {
            trace
                .iter()
                .filter(|e| e.thread == tid && e.pipeline == pid && e.kind != KIND_COMPILE)
                .map(|e| e.kind)
                .collect()
        })
        .collect()
}

#[test]
fn adaptive_mode_switches_backend_mid_query() {
    if !emitter() {
        return;
    }
    // A wide synthetic aggregation: expensive enough per tuple that the
    // optimized level wins the start decision, and wide enough that its
    // compile takes longer than a morsel of bytecode work — so a worker
    // compiles it mid-query while the other runs the scan on a cheaper
    // level, and it lands while morsels remain.
    let cat = tpch_data::generate(0.02);
    let q = synthetic::wide_agg(120);
    let phys = decompose(&cat, &q.root, vec![]);

    let mut opts =
        ExecOptions { mode: ExecMode::Adaptive, threads: 2, trace: true, ..Default::default() };
    // Generous modeled speedup so the decision is deterministic even on a
    // slow CI machine; the *observed* switch below is what the test checks.
    opts.model.speedup_opt = 6.0;
    opts.model.speedup_unopt = 3.0;
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys.clone());
    let (rows, report) = session.execute_with(&prepared, &opts).expect("adaptive execution");

    assert!(
        report.background_compiles >= 1,
        "expected at least one background compilation, got {}",
        report.background_compiles
    );
    assert!(
        report.trace.iter().any(|e| e.kind == KIND_COMPILE && e.pipeline == 0),
        "trace must contain the scan's compilation event"
    );

    // The switch must be *observable in executed morsels* of the scan:
    // morsels at its start level first, optimized ones after the backend
    // was published into the handle.
    let start = report.sched[0].start_level as u8;
    assert!(start < KIND_OPTIMIZED, "the scan started at {start}");
    let per_thread = morsel_kinds_per_thread(&report.trace, 0);
    let kinds: std::collections::BTreeSet<u8> = per_thread.iter().flatten().copied().collect();
    assert_eq!(
        kinds,
        [start, KIND_OPTIMIZED].into(),
        "the scan must run at its start level, then on optimized code"
    );

    // Same thread, backend changes between consecutive morsels: the
    // hot-swap handle picked up the new backend on the very next morsel.
    let per_thread_switches: usize =
        per_thread.iter().map(|k| k.windows(2).filter(|w| w[0] != w[1]).count()).sum();
    assert!(per_thread_switches >= 1, "at least one worker must switch backends");

    // Fig. 7's placement: the worker that decided ran the compile. A
    // mid-query compile (one that began once its pipeline's morsels had)
    // sits on a worker's row, and that worker ran no morsel meanwhile.
    let morsels = || report.trace.iter().filter(|e| e.kind != KIND_COMPILE);
    let mut mid_query = 0;
    for c in report.trace.iter().filter(|e| e.kind == KIND_COMPILE) {
        let first = morsels().filter(|m| m.pipeline == c.pipeline).map(|m| m.start_us).min();
        if first.is_none_or(|t| c.start_us < t) {
            continue;
        }
        mid_query += 1;
        assert!((c.thread as usize) < opts.threads, "compile on thread {}: {c:?}", c.thread);
        let overlap = morsels()
            .find(|m| m.thread == c.thread && m.start_us < c.end_us && m.end_us > c.start_us);
        assert!(overlap.is_none(), "{overlap:?} ran on the worker compiling {c:?}");
    }
    assert!(mid_query >= 1, "the scan's climb must be a mid-query compile");

    // And the switch must not have changed the answer.
    assert_eq!(
        normalized(&rows.rows, phys.output_tys.len(), phys.sorted_output),
        volcano(&cat, &q.root, &phys),
        "adaptive result differs from Volcano"
    );
}

#[test]
fn untraced_adaptive_runs_return_no_trace() {
    if !emitter() {
        return;
    }
    // The setup of `adaptive_mode_switches_backend_mid_query`, without the
    // trace: the mid-query compile still happens, its event must not be
    // kept.
    let cat = tpch_data::generate(0.02);
    let q = synthetic::wide_agg(120);
    let phys = decompose(&cat, &q.root, vec![]);
    let mut opts = ExecOptions { mode: ExecMode::Adaptive, threads: 2, ..Default::default() };
    opts.model.speedup_opt = 6.0;
    opts.model.speedup_unopt = 3.0;
    let engine = Engine::new(cat);
    let session = engine.session();
    let prepared = session.prepare_plan(phys);
    let (_, report) = session.execute_with(&prepared, &opts).expect("adaptive execution");
    assert!(
        report.background_compiles >= 1,
        "expected at least one background compilation, got {}",
        report.background_compiles
    );
    assert!(
        report.trace.is_empty(),
        "an untraced run returned {} trace events",
        report.trace.len()
    );
}

#[test]
fn work_stealing_is_observable_in_the_sched_report() {
    // A 4-thread run over a pipeline whose workers race to the end: the
    // per-pipeline scheduler report surfaces morsel and steal counts.
    let cat = tpch_data::generate(0.02);
    let q = synthetic::wide_agg(40);
    let phys = decompose(&cat, &q.root, vec![]);

    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys);
    let opts = ExecOptions {
        mode: ExecMode::Bytecode,
        threads: 4,
        min_morsel: 64,
        max_morsel: 256,
        cache_results: false,
        ..Default::default()
    };
    let (_, report) = session.execute_with(&prepared, &opts).expect("bytecode execution");
    let total_morsels: u64 = report.sched.iter().map(|s| s.morsels).sum();
    assert!(total_morsels > 0);
    let total_rows: u64 = report.sched.iter().map(|s| s.total_rows).max().unwrap();
    assert_eq!(total_rows, cat.get("lineitem").unwrap().row_count() as u64);
    for s in &report.sched {
        assert!(s.stolen_tuples <= s.total_rows, "stole more rows than the pipeline has: {s:?}");
        assert_eq!(s.steals == 0, s.stolen_tuples == 0, "steal counters disagree: {s:?}");
    }
}

#[test]
fn all_four_modes_agree_with_volcano_on_tpch_subset() {
    let cat = tpch_data::generate(0.005);
    let all = tpch::all(&cat);
    // A subset that covers scan+filter+agg, joins, and sorted output.
    let subset = ["q1", "q3", "q6", "q14"];
    let mut covered = 0;
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    for q in all.iter().filter(|q| subset.contains(&q.name.as_str())) {
        covered += 1;
        let phys = decompose(&cat, &q.root, q.dicts.clone());
        let want = volcano(&cat, &q.root, &phys);
        let prepared = session.prepare_plan(phys.clone());
        for mode in
            [ExecMode::Bytecode, ExecMode::NativeUnopt, ExecMode::Native, ExecMode::Adaptive]
        {
            let opts = ExecOptions { mode, threads: 2, cache_results: false, ..Default::default() };
            let (res, _) = session
                .execute_with(&prepared, &opts)
                .unwrap_or_else(|e| panic!("{} {mode:?}: {e}", q.name));
            let got = normalized(&res.rows, phys.output_tys.len(), phys.sorted_output);
            assert_eq!(got, want, "{} {mode:?} disagrees with Volcano", q.name);
        }
    }
    assert_eq!(covered, subset.len(), "TPC-H subset lookup failed");
}

#[test]
fn adaptive_controller_skips_straight_to_optimized_code() {
    if !emitter() {
        return;
    }
    // Make the optimized rung irresistible and the unoptimized one
    // worthless: unoptimized code runs no faster than bytecode and costs
    // more to build, so the scan starts interpreted; a huge modelled
    // optimized speedup over a wide aggregation easily amortizes the
    // optimized compile, which outlasts a morsel and so runs on a worker
    // after the first morsel.
    let cat = tpch_data::generate(0.02);
    let q = synthetic::wide_agg(120);
    let phys = decompose(&cat, &q.root, vec![]);

    let mut opts =
        ExecOptions { mode: ExecMode::Adaptive, threads: 2, trace: true, ..Default::default() };
    opts.model.speedup_unopt = 1.0;
    opts.model.speedup_opt = 20.0;
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys.clone());
    let (rows, report) = session.execute_with(&prepared, &opts).expect("adaptive execution");

    assert!(report.background_compiles >= 1, "a background compile must have landed");
    assert_eq!(report.sched[0].start_level, ExecLevel::Interpreted, "the scan starts interpreted");
    let kinds: std::collections::BTreeSet<u8> =
        morsel_kinds_per_thread(&report.trace, 0).into_iter().flatten().collect();
    assert_eq!(
        kinds,
        [KIND_INTERPRETED, KIND_OPTIMIZED].into(),
        "the scan must run interpreted, then optimized, never unoptimized"
    );

    // The switch must not change the answer.
    assert_eq!(
        normalized(&rows.rows, phys.output_tys.len(), phys.sorted_output),
        volcano(&cat, &q.root, &phys),
        "switched result differs from Volcano"
    );
}

#[test]
fn native_mode_runs_machine_code_or_bytecode_cleanly() {
    // `ExecMode::Native` must work on every target: real machine code
    // where the emitter exists, bytecode elsewhere (and under
    // AQE_NATIVE=0) — without counting a degradation. Either way the rows
    // match Volcano's.
    let cat = tpch_data::generate(0.01);
    let q = synthetic::wide_agg(40);
    let phys = decompose(&cat, &q.root, vec![]);
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys.clone());
    let native_opts = ExecOptions {
        mode: ExecMode::Native,
        threads: 2,
        trace: true,
        cache_results: false,
        ..Default::default()
    };
    let (rows, report) = session.execute_with(&prepared, &native_opts).expect("native execution");
    let kinds: std::collections::BTreeSet<u8> =
        report.trace.iter().filter(|e| e.kind != KIND_COMPILE).map(|e| e.kind).collect();
    if emitter() {
        assert_eq!(
            kinds,
            [KIND_OPTIMIZED].into(),
            "every morsel must run on machine code: {kinds:?}"
        );
    } else {
        assert_eq!(kinds, [KIND_INTERPRETED].into(), "no emitter means bytecode only: {kinds:?}");
    }
    assert_eq!(report.degraded, 0, "an unavailable emitter is not a fault");
    assert_eq!(
        normalized(&rows.rows, phys.output_tys.len(), phys.sorted_output),
        volcano(&cat, &q.root, &phys),
        "native must agree with Volcano"
    );
}
