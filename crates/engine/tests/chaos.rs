//! Chaos suite: deterministic fault schedules driven through the
//! differential harness. Whatever `aqe_fault` injects — failed compiles
//! at any tier, bytecode translation errors, panicking background
//! compile jobs, panicking morsel workers — an execution must end in
//! exactly one of two ways: a bit-identical result produced by a
//! degraded ladder, or a *typed* error (`ExecError::Internal`). Never an
//! abort, never a wrong answer, never a poisoned engine.

use aqe_engine::exec::{ExecMode, ExecOptions};
use aqe_engine::plan::{AggFunc, AggSpec, ArithOp, CmpOp, PExpr, PlanNode};
use aqe_engine::sched::QUARANTINE_SKIPS;
use aqe_engine::session::Engine;
use aqe_storage::{tpch, Catalog};
use aqe_vm::interp::ExecError;
use std::sync::Mutex;

/// The fault schedule is process-global: every test that arms one holds
/// this lock for its whole body.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Injected panics are expected and contained; keep them out of the
/// test log so a real panic stays visible. Installed once.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected panic"));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn all_modes() -> [ExecMode; 5] {
    [
        ExecMode::NaiveIr,
        ExecMode::Bytecode,
        ExecMode::NativeUnopt,
        ExecMode::Native,
        ExecMode::Adaptive,
    ]
}

/// A Q6-like single-group aggregation: selective filter, checked
/// arithmetic, every tier has a lowering for it.
fn q6_plan() -> PlanNode {
    PlanNode::HashAgg {
        input: Box::new(PlanNode::Scan {
            table: "lineitem".into(),
            cols: vec![4, 5, 6],
            filter: Some(PExpr::and(
                PExpr::cmp(CmpOp::Lt, false, PExpr::Col(0), PExpr::ConstI(2400)),
                PExpr::cmp(CmpOp::Le, false, PExpr::Col(2), PExpr::ConstI(7)),
            )),
        }),
        group_by: vec![],
        aggs: vec![AggSpec {
            func: AggFunc::SumI,
            arg: Some(PExpr::arith(ArithOp::Mul, true, false, PExpr::Col(1), PExpr::Col(2))),
        }],
    }
}

fn run_once(
    cat: &Catalog,
    plan: &PlanNode,
    mode: ExecMode,
    threads: usize,
) -> Result<(Vec<u64>, aqe_engine::exec::Report), ExecError> {
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare(plan, vec![]);
    let opts = ExecOptions { mode, threads, cache_results: false, ..Default::default() };
    session.execute_with(&prepared, &opts).map(|(res, report)| (res.rows, report))
}

/// Oracle rows computed with no faults armed.
fn oracle(cat: &Catalog, plan: &PlanNode) -> Vec<u64> {
    assert!(!aqe_fault::armed(), "oracle must run clean");
    run_once(cat, plan, ExecMode::Bytecode, 1).expect("clean oracle run").0
}

/// Every machine-code compile fails, including the W^X map: all five
/// modes still answer, bit-identical, through degraded ladders.
#[test]
fn forced_compile_failures_degrade_not_error() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    let cat = tpch::generate(0.01);
    let plan = q6_plan();
    let expect = oracle(&cat, &plan);

    let _armed = aqe_fault::arm("native_compile=err,wx_map=err", 1).unwrap();
    for mode in all_modes() {
        for threads in [1, 4] {
            let (rows, report) = run_once(&cat, &plan, mode, threads)
                .unwrap_or_else(|e| panic!("{mode:?}/{threads} must degrade, got {e}"));
            assert_eq!(rows, expect, "{mode:?}/{threads} degraded result mismatch");
            // The pinned compiled tiers must have recorded their fall —
            // when the native emitter is live at all (otherwise they run
            // bytecode by design and nothing failed).
            let compiled = matches!(mode, ExecMode::NativeUnopt | ExecMode::Native);
            if aqe_jit::native::enabled() && compiled {
                assert!(report.degraded > 0, "{mode:?}/{threads} should count its degradation");
            }
        }
    }
}

/// A broken tier is quarantined: after the first failure, the next
/// `QUARANTINE_SKIPS` executions skip the compile entirely, then a probe
/// is allowed — and once the fault clears, the probe restores the tier.
#[test]
fn quarantine_skips_broken_tier_then_probe_recovers() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    if !aqe_jit::native::enabled() {
        return; // Bytecode only: nothing compiles, nothing to quarantine.
    }
    let cat = tpch::generate(0.005);
    let plan = q6_plan();
    let expect = oracle(&cat, &plan);

    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare(&plan, vec![]);
    let opts = ExecOptions {
        mode: ExecMode::Native,
        threads: 2,
        cache_results: false,
        ..Default::default()
    };

    let armed = aqe_fault::arm("native_compile=err", 1).unwrap();

    // First execution: the compile is attempted, fails, degrades.
    let (res, report) = session.execute_with(&prepared, &opts).unwrap();
    assert_eq!(res.rows, expect);
    assert!(report.degraded > 0, "first run attempts the compile and records the fall");
    assert_eq!(report.quarantine_skips, 0, "nothing was quarantined yet");
    // One entry per pipeline whose native compile was attempted.
    assert!(engine.quarantine_active() >= 1, "the broken tier is now quarantined");

    // The next QUARANTINE_SKIPS executions never reach the compiler:
    // they spend the skip budget instead of repeating the failure.
    let fired_before = aqe_fault::fired("native_compile");
    for i in 0..QUARANTINE_SKIPS {
        let (res, report) = session.execute_with(&prepared, &opts).unwrap();
        assert_eq!(res.rows, expect, "skip run {i}");
        assert_eq!(report.degraded, 0, "skip run {i} attempts no compile");
        assert!(report.quarantine_skips > 0, "skip run {i} is served from quarantine");
    }
    assert_eq!(
        aqe_fault::fired("native_compile") - fired_before,
        0,
        "the quarantined tier must not have been compiled during the skip window"
    );

    // The fault clears; the skip budget is spent; the probe recompiles
    // and the tier comes back.
    drop(armed);
    let (res, report) = session.execute_with(&prepared, &opts).unwrap();
    assert_eq!(res.rows, expect);
    assert_eq!(report.degraded, 0, "the probe compile succeeds");
    assert_eq!(engine.quarantine_active(), 0, "success clears the quarantine entry");

    // And the recovered backend serves warm from the tier table.
    let (res, report) = session.execute_with(&prepared, &opts).unwrap();
    assert_eq!(res.rows, expect);
    assert_eq!(report.quarantine_skips, 0);
    assert_eq!(report.degraded, 0);
}

/// Morsel workers that panic mid-query are contained at the thread
/// boundary: the execution returns `ExecError::Internal`, never aborts,
/// and clean runs stay bit-identical.
#[test]
fn worker_panics_are_contained_as_typed_errors() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    let cat = tpch::generate(0.01);
    let plan = q6_plan();
    let expect = oracle(&cat, &plan);

    for seed in [3u64, 11, 29] {
        let _armed = aqe_fault::arm("worker=panic:0.2", seed).unwrap();
        for _ in 0..6 {
            match run_once(&cat, &plan, ExecMode::Bytecode, 4) {
                Ok((rows, _)) => assert_eq!(rows, expect, "clean run under chaos (seed {seed})"),
                Err(ExecError::Internal { site }) => {
                    assert!(site.contains("worker"), "panic surfaced from {site}")
                }
                Err(other) => panic!("expected Internal, got {other} (seed {seed})"),
            }
        }
    }
}

/// An injected worker *error* (not panic) takes the same typed path,
/// and the very next execution on the same warm session succeeds —
/// prepared state and tier tables survive the failure.
#[test]
fn worker_error_fails_one_query_then_session_recovers() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    let cat = tpch::generate(0.005);
    let plan = q6_plan();
    let expect = oracle(&cat, &plan);

    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare(&plan, vec![]);
    let opts = ExecOptions {
        mode: ExecMode::Native,
        threads: 2,
        cache_results: false,
        ..Default::default()
    };

    let _armed = aqe_fault::arm("worker=err:1", 1).unwrap();
    match session.execute_with(&prepared, &opts) {
        Err(ExecError::Internal { site }) => assert!(site.contains("injected fault at worker")),
        other => panic!("first run must fail with Internal, got {other:?}"),
    }
    // First-N spent: the same statement runs clean, warm, and correct.
    let (res, report) = session.execute_with(&prepared, &opts).unwrap();
    assert_eq!(res.rows, expect);
    assert_eq!(report.degraded, 0);
}

/// Randomized composite schedules — failing compiles at every tier,
/// panicking background compile jobs, rare worker panics — across every
/// mode and several seeds. The contract: a correct result or a typed
/// error. Nothing else.
#[test]
fn randomized_fault_schedules_never_abort_or_corrupt() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    let cat = tpch::generate(0.01);
    let plan = q6_plan();
    let expect = oracle(&cat, &plan);

    const SCHEDULE: &str = "native_compile=err:0.5,wx_map=err:0.3,bc_translate=err:0.3,\
                            compile_job=panic:0.3,worker=panic:0.02";
    for seed in [1u64, 7, 42] {
        let _armed = aqe_fault::arm(SCHEDULE, seed).unwrap();
        for mode in all_modes() {
            for threads in [1, 4] {
                match run_once(&cat, &plan, mode, threads) {
                    Ok((rows, _)) => {
                        assert_eq!(rows, expect, "{mode:?}/{threads} seed {seed}");
                    }
                    Err(ExecError::Internal { .. }) => {} // contained worker panic
                    Err(other) => {
                        panic!("{mode:?}/{threads} seed {seed}: untyped escape: {other}")
                    }
                }
            }
        }
    }
}

/// Adaptive execution under panicking background compile jobs: the
/// controller's upgrade attempts die in their threads, the query
/// completes on whatever tier it holds, and the answer stays exact.
#[test]
fn adaptive_survives_panicking_compile_jobs() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    let cat = tpch::generate(0.05);
    let plan = q6_plan();
    let expect = oracle(&cat, &plan);

    let _armed = aqe_fault::arm("compile_job=panic:0.5", 7).unwrap();
    // Zeroed compile costs make upgrading irresistible, so the
    // controller keeps launching (and losing) compile jobs all query.
    let mut opts = ExecOptions {
        mode: ExecMode::Adaptive,
        threads: 2,
        cache_results: false,
        first_eval: std::time::Duration::from_micros(50),
        min_morsel: 256,
        ..Default::default()
    };
    opts.model.unopt_base_s = 0.0;
    opts.model.unopt_per_instr_s = 0.0;
    opts.model.opt_base_s = 0.0;
    opts.model.opt_per_instr_s = 0.0;
    opts.model.speedup_opt = 100.0;
    opts.model.speedup_unopt = 50.0;

    for _ in 0..6 {
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let prepared = session.prepare(&plan, vec![]);
        let (res, _report) = session.execute_with(&prepared, &opts).expect("adaptive completes");
        assert_eq!(res.rows, expect);
    }
}

/// The scan pre-filter does not depend on the ladder: the adaptive
/// controller aims a kernel pipeline at optimized machine code, the compile
/// fails, and nothing may paper over that — the failure is counted, the
/// level that broke is quarantined — while the pipeline, finishing on
/// bytecode, still has the kernel skip rows in front of it and returns
/// exact rows.
#[test]
fn adaptive_quarantines_a_failed_compile_and_the_kernel_keeps_skipping() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    let cat = tpch::generate(0.05);
    let plan = q6_plan();
    let expect = oracle(&cat, &plan);

    let _armed = aqe_fault::arm("native_compile=err", 1).unwrap();
    // A free optimized compile and a huge modelled speedup: the controller
    // claims `Optimized` at its first evaluation.
    let mut opts = ExecOptions {
        mode: ExecMode::Adaptive,
        threads: 2,
        cache_results: false,
        first_eval: std::time::Duration::from_micros(50),
        min_morsel: 256,
        ..Default::default()
    };
    opts.model.opt_base_s = 0.0;
    opts.model.opt_per_instr_s = 0.0;
    opts.model.speedup_opt = 200.0;

    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare(&plan, vec![]);
    let (res, report) = session.execute_with(&prepared, &opts).expect("adaptive completes");
    assert_eq!(res.rows, expect);
    assert_eq!(report.background_compiles, 0, "nothing compiled, nothing installed");
    assert!(report.sched[0].rows_skipped > 0, "the scan stayed on bytecode behind its kernel");
    if aqe_jit::native::enabled() {
        assert!(report.sched[0].compiles_started >= 1, "the controller must have tried");
        assert!(report.degraded >= 1, "a failed compile fails the job");
        assert!(engine.quarantine_active() >= 1, "the level that broke is quarantined");
        // The very next static run finds `Optimized` quarantined.
        let native = ExecOptions { mode: ExecMode::Native, ..opts.clone() };
        let (res, report) = session.execute_with(&prepared, &native).unwrap();
        assert_eq!(res.rows, expect);
        assert!(report.quarantine_skips >= 1, "the quarantine is on the optimized level");
        assert!(report.sched[0].rows_skipped > 0);
    } else {
        assert_eq!(report.degraded, 0, "bytecode only: nothing was attempted");
    }
}
