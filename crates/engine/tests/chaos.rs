//! Chaos suite: deterministic fault schedules driven through the
//! differential harness. Whatever `aqe_fault` injects — failed compiles
//! at any tier, bytecode translation errors, panicking controller
//! compiles, panicking morsel workers — an execution must end in
//! exactly one of two ways: a result bit-identical to the Volcano oracle
//! (`aqe_baselines::execute_volcano`, which no fault site reaches)
//! produced by a degraded ladder, or a *typed* error
//! (`ExecError::Internal`). Never an abort, never a wrong answer, never a
//! poisoned engine.

use aqe_baselines::execute_volcano;
use aqe_engine::exec::{ExecMode, ExecOptions};
use aqe_engine::plan::{decompose, AggFunc, AggSpec, ArithOp, CmpOp, PExpr, PlanNode};
use aqe_engine::session::Engine;
use aqe_engine::ExecLevel;
use aqe_storage::{tpch, Catalog};
use aqe_vm::interp::ExecError;
use std::sync::Mutex;
use std::time::Duration;

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

const MODES: [ExecMode; 4] =
    [ExecMode::Bytecode, ExecMode::NativeUnopt, ExecMode::Native, ExecMode::Adaptive];

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

/// Oracle rows: the Volcano engine over the same plan tree.
fn oracle(cat: &Catalog, plan: &PlanNode) -> Vec<u64> {
    execute_volcano(cat, plan, &decompose(cat, plan, vec![])).expect("volcano run")
}

/// Every machine-code compile fails, including the W^X map: all four
/// modes still answer, bit-identical, through degraded ladders.
#[test]
fn forced_compile_failures_degrade_not_error() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    let cat = tpch::generate(0.01);
    let plan = q6_plan();
    let expect = oracle(&cat, &plan);

    let _armed = aqe_fault::arm("native_compile=err,wx_map=err", 1).unwrap();
    for mode in MODES {
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

/// Every machine-code compile panics — the static pins and a cold
/// adaptive start too, which compile on the calling thread: the panic is
/// contained like a failed compile, so every mode answers with Volcano's
/// rows, and a mode that compiles counts the fall and quarantines the
/// level that broke.
#[test]
fn panicking_synchronous_compiles_are_contained() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    let cat = tpch::generate(0.01);
    let plan = q6_plan();
    let expect = oracle(&cat, &plan);

    let _armed = aqe_fault::arm("native_compile=panic", 1).unwrap();
    for mode in MODES {
        for threads in [1, 4] {
            let engine = Engine::new(cat.clone());
            let session = engine.session();
            let prepared = session.prepare(&plan, vec![]);
            let opts = ExecOptions { mode, threads, cache_results: false, ..Default::default() };
            let (res, report) = session
                .execute_with(&prepared, &opts)
                .unwrap_or_else(|e| panic!("{mode:?}/{threads} must degrade, got {e}"));
            assert_eq!(res.rows, expect, "{mode:?}/{threads} degraded result mismatch");
            if aqe_jit::native::enabled() && mode != ExecMode::Bytecode {
                assert!(report.degraded >= 1, "{mode:?}/{threads} should count its fall");
                assert!(engine.quarantine_active() >= 1, "{mode:?}/{threads}: no quarantine");
            }
        }
    }
}

/// Every bytecode translation fails: a pipeline that needs the interpreted
/// floor falls to the naive IR walker, never pays a translation, counts
/// the fall, and still has the scan pre-filter in front of it. A pipeline
/// that starts on machine code — pinned, or picked by the adaptive start —
/// never needs the floor and answers without a fall; a model that prices
/// every compile out sends the adaptive scan to the walker too.
#[test]
fn translation_failure_falls_to_the_ir_walker_behind_the_kernel() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    let cat = tpch::generate(0.01);
    let plan = q6_plan();
    let expect = oracle(&cat, &plan);

    let mut interpreted_only = ExecOptions::default();
    interpreted_only.model.unopt_base_s = 1.0;
    interpreted_only.model.opt_base_s = 1.0;
    let _armed = aqe_fault::arm("bc_translate=err", 1).unwrap();
    let runs = MODES
        .map(|mode| (mode, None))
        .into_iter()
        .chain([(ExecMode::Adaptive, Some(interpreted_only.model))]);
    for (mode, model) in runs {
        for threads in [1, 4] {
            let engine = Engine::new(cat.clone());
            let session = engine.session();
            let prepared = session.prepare(&plan, vec![]);
            let opts = ExecOptions {
                mode,
                threads,
                cache_results: false,
                model: model.unwrap_or_default(),
                ..Default::default()
            };
            let (res, report) = session
                .execute_with(&prepared, &opts)
                .unwrap_or_else(|e| panic!("{mode:?}/{threads} must fall to the walker, got {e}"));
            assert_eq!(res.rows, expect, "{mode:?}/{threads} walker result mismatch");
            assert_eq!(report.bc_translate, Duration::ZERO, "{mode:?}/{threads} translated");
            assert!(report.sched[0].rows_skipped > 0, "{mode:?}/{threads}: no pre-filter");
            // Exactly the pipelines that started interpreted fell.
            let floors =
                report.sched.iter().filter(|s| s.start_level == ExecLevel::Interpreted).count();
            assert_eq!(report.degraded, floors as u64, "{mode:?}/{threads}: {:?}", report.sched);
            let compiled = matches!(mode, ExecMode::NativeUnopt | ExecMode::Native);
            if aqe_jit::native::enabled() && compiled {
                assert_eq!(report.degraded, 0, "{mode:?}/{threads} needs no floor");
            }
            if model.is_some() || !aqe_jit::native::enabled() {
                let start = report.sched[0].start_level;
                assert_eq!(start, ExecLevel::Interpreted, "{mode:?}/{threads}: scan on the walker");
            }
        }
    }
}

/// A broken tier is quarantined: after a failure, a window of executions
/// skips the compile entirely, then a probe is allowed. A probe that fails
/// again re-arms a window of the same length; once the fault clears, the
/// probe restores the tier.
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

    // The following executions never reach the compiler: they spend the
    // skip budget instead of repeating the failure, until one probes.
    let fired_before = aqe_fault::fired("native_compile");
    let mut window = 0;
    let probe = loop {
        let (res, report) = session.execute_with(&prepared, &opts).unwrap();
        assert_eq!(res.rows, expect, "run {window} after the failure");
        if report.quarantine_skips == 0 {
            break report;
        }
        assert_eq!(report.degraded, 0, "skip run {window} attempts no compile");
        window += 1;
        assert!(window < 1000, "the skip window never ends");
    };
    assert!(window >= 1, "a failed tier must be skipped at least once");
    assert_eq!(
        aqe_fault::fired("native_compile"),
        fired_before + probe.degraded,
        "only the probe reaches the compiler"
    );
    assert!(probe.degraded > 0, "the probe compiles, and fails while the fault holds");

    // The failed probe re-armed the quarantine for another window of the
    // same length.
    for i in 0..window {
        let (res, report) = session.execute_with(&prepared, &opts).unwrap();
        assert_eq!(res.rows, expect, "re-armed skip run {i}");
        assert_eq!(report.degraded, 0, "re-armed skip run {i} attempts no compile");
        assert!(report.quarantine_skips > 0, "re-armed skip run {i} is served from quarantine");
    }

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
/// panicking controller compiles, rare worker panics — across every
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
        for mode in MODES {
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

/// Adaptive execution under panicking controller compiles: the upgrade
/// attempts die on the morsel worker that ran them and are contained, the
/// query completes on whatever tier it holds, and the answer stays exact.
#[test]
fn adaptive_survives_panicking_compile_jobs() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    let cat = tpch::generate(0.05);
    let plan = q6_plan();
    let expect = oracle(&cat, &plan);

    let _armed = aqe_fault::arm("compile_job=panic:0.5", 7).unwrap();
    // Large modelled speedups make upgrading irresistible, and a fixed
    // 1 ms compile outlasts a morsel of bytecode work: the scan starts on
    // bytecode and every compile — the start's and the controller's
    // climbs — runs on a morsel worker, which keeps starting (and
    // losing) compiles all query.
    let mut opts = ExecOptions {
        mode: ExecMode::Adaptive,
        threads: 2,
        cache_results: false,
        first_eval: std::time::Duration::from_micros(50),
        min_morsel: 256,
        ..Default::default()
    };
    opts.model.unopt_base_s = 1e-3;
    opts.model.unopt_per_instr_s = 0.0;
    opts.model.opt_base_s = 1e-3;
    opts.model.opt_per_instr_s = 0.0;
    opts.model.speedup_opt = 100.0;
    opts.model.speedup_unopt = 50.0;

    for _ in 0..6 {
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let prepared = session.prepare(&plan, vec![]);
        let (res, report) = session.execute_with(&prepared, &opts).expect("adaptive completes");
        assert_eq!(res.rows, expect);
        if aqe_jit::native::enabled() {
            assert_eq!(report.upfront_compile, Duration::ZERO, "no compile ran synchronously");
            assert!(report.sched[0].compiles_started >= 1, "the scan launched a compile job");
        }
    }
}

/// The scan pre-filter does not depend on the ladder: the adaptive start
/// aims a kernel pipeline at optimized machine code, the compile fails —
/// and so does the unoptimized rung it falls to — and nothing may paper
/// over that — the failure is counted, the
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
    // A free optimized compile and a huge modelled speedup: the start
    // decision builds `Optimized` before the scan's first morsel.
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
        assert!(report.sched[0].compiles_started >= 1, "the start must have tried");
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
