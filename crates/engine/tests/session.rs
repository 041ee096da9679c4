//! Tests for the long-lived `Engine` / `Session` / `PreparedQuery` API:
//!
//! * a warm prepared-query re-execution skips codegen and bytecode
//!   translation and starts at the `ExecLevel` a prior run reached;
//! * a result-cache hit returns identical `ResultRows` without running the
//!   morsel loop;
//! * a catalog mutation bumps the version and invalidates both the cached
//!   result and the retained code;
//! * a second query on the same engine decides with a calibrated
//!   (non-default) `CostModel` seeded from the `CalibrationStore`;
//! * setup failures (bad module, wrong engine) surface as `ExecError`
//!   values, and the deprecated one-shot shims still work.

use aqe_engine::exec::{ExecMode, ExecOptions, ParamValue};
use aqe_engine::plan::{
    decompose, AggFunc, AggSpec, ArithOp, CmpOp, FieldTy, PExpr, PhysicalPlan, PlanNode,
};
use aqe_engine::sched::{CostModel, ExecLevel};
use aqe_engine::session::Engine;
use aqe_storage::{tpch, Catalog, Column, DataType, Table};
use aqe_vm::interp::ExecError;
use std::time::Duration;

/// A wide aggregation over lineitem: expensive enough per tuple that the
/// Fig. 7 extrapolation (with the irresistible model below) reliably
/// compiles, and deterministic in its single output row.
fn wide_plan(aggs: usize) -> PlanNode {
    let specs = (0..aggs)
        .map(|k| AggSpec {
            func: AggFunc::SumI,
            arg: Some(PExpr::arith(
                ArithOp::Add,
                true,
                false,
                PExpr::arith(
                    ArithOp::Mul,
                    true,
                    false,
                    PExpr::Col(k % 3),
                    PExpr::ConstI(k as i64 + 1),
                ),
                PExpr::Col((k + 1) % 3),
            )),
        })
        .collect();
    PlanNode::HashAgg {
        input: Box::new(PlanNode::Scan {
            table: "lineitem".into(),
            cols: vec![4, 5, 6],
            filter: None,
        }),
        group_by: vec![],
        aggs: specs,
    }
}

/// Whether anything can compile in this process. Without the emitter
/// (`AQE_NATIVE=0`, or off x86-64 Linux) the engine is bytecode only:
/// every level stays `Interpreted` and no compile is ever observed.
fn emitter() -> bool {
    aqe_jit::native::enabled()
}

/// Options that make the compile decision irresistible and immediate.
fn eager_adaptive(threads: usize) -> ExecOptions {
    let mut opts = ExecOptions {
        mode: ExecMode::Adaptive,
        threads,
        min_morsel: 256,
        first_eval: Duration::from_micros(50),
        cache_results: false,
        ..Default::default()
    };
    opts.model.unopt_base_s = 0.0;
    opts.model.unopt_per_instr_s = 0.0;
    opts.model.opt_base_s = 0.0;
    opts.model.opt_per_instr_s = 0.0;
    opts.model.speedup_unopt = 50.0;
    opts.model.speedup_opt = 100.0;
    opts
}

/// Adaptive options with the *default* cost model (runs whose feedback the
/// engine's store absorbs — fabricated models are deliberately not
/// absorbed) and a prompt first evaluation. Paired with a large
/// `wide_plan`, the default-model extrapolation reliably chooses to
/// compile: tens of bytecode instructions per tuple over ~100k rows dwarf
/// a few ms of modelled compile time at any plausible machine speed.
fn default_adaptive(threads: usize) -> ExecOptions {
    ExecOptions {
        mode: ExecMode::Adaptive,
        threads,
        min_morsel: 256,
        first_eval: Duration::from_micros(50),
        cache_results: false,
        ..Default::default()
    }
}

fn physical(cat: &Catalog, plan: &PlanNode) -> PhysicalPlan {
    decompose(cat, plan, vec![])
}

#[test]
fn warm_reexecution_skips_codegen_and_starts_at_reached_level() {
    let cat = tpch::generate(0.02);
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare(&wide_plan(40), vec![]);
    let opts = eager_adaptive(2);

    let (rows1, cold) = session.execute_with(&prepared, &opts).expect("cold run");
    assert!(cold.codegen > Duration::ZERO, "cold run pays codegen");
    assert!(cold.bc_translate > Duration::ZERO, "cold run pays translation");
    assert_eq!(cold.background_compiles >= 1, emitter(), "the eager model must force a compile");
    assert!(cold.sched.iter().all(|s| s.start_level == ExecLevel::Interpreted));

    // What the first run reached is what the second starts from.
    let levels = prepared.levels();
    assert_eq!(
        levels.iter().any(|&l| l > ExecLevel::Interpreted),
        emitter(),
        "at least one pipeline must have been upgraded: {levels:?}"
    );

    let (rows2, warm) = session.execute_with(&prepared, &opts).expect("warm run");
    assert_eq!(warm.codegen, Duration::ZERO, "warm run must not regenerate IR");
    assert_eq!(warm.bc_translate, Duration::ZERO, "warm run must not re-translate");
    assert!(!warm.result_cache_hit, "caching was disabled; this really executed");
    let starts: Vec<ExecLevel> = warm.sched.iter().map(|s| s.start_level).collect();
    assert_eq!(starts, levels, "warm run starts at the previously reached levels");
    assert_eq!(rows1.rows, rows2.rows, "warm reuse must not change the answer");

    // The cold/warm split is observable: the first run built state under
    // the cold-compile latch, the second reused it latch-free.
    assert!(cold.cold_build, "the first run builds the compiled state");
    assert!(!warm.cold_build, "the warm run must not");
    assert_eq!(cold.snapshot_version, warm.snapshot_version, "same catalog epoch");
    let stats = engine.concurrency();
    assert_eq!(stats.cold_builds, 1);
    assert_eq!(stats.warm_executions, 1);
    assert_eq!(stats.executions_started, 2);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn cache_stats_surface_counts_behavior_under_load() {
    let cat = tpch::generate(0.005);
    let engine = Engine::new(cat);
    let session = engine.session();
    let prepared = session.prepare(&wide_plan(4), vec![]);
    let opts = ExecOptions { threads: 1, ..Default::default() };

    session.execute_with(&prepared, &opts).expect("miss + insert");
    session.execute_with(&prepared, &opts).expect("hit");
    session.execute_with(&prepared, &opts).expect("hit");

    let s = engine.cache_stats();
    assert_eq!(s.entries, 1);
    assert_eq!(s.insertions, 1);
    assert_eq!(s.misses, 1, "only the first submission misses");
    assert_eq!(s.hits, 2);
    assert!(s.bytes_used > 0 && s.bytes_used <= s.budget_bytes);
    assert!(s.shards > 1, "the engine's cache is sharded");

    // Invalidation shows up as occupancy, not as lost counters.
    engine.with_catalog_mut(|c| {
        c.add(Table::new("tiny", vec![("x", DataType::Int64, Column::I64(vec![1]))]))
    });
    let after = engine.cache_stats();
    assert_eq!(after.entries, 0);
    assert_eq!(after.bytes_used, 0);
    assert_eq!(after.hits, 2, "counters are engine-lifetime");
}

#[test]
fn result_cache_hit_skips_the_morsel_loop() {
    let cat = tpch::generate(0.005);
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare(&wide_plan(4), vec![]);

    let opts = ExecOptions { threads: 2, ..Default::default() };
    let (rows1, first) = session.execute_with(&prepared, &opts).expect("first run");
    assert!(!first.result_cache_hit);
    assert!(!first.sched.is_empty(), "the first run executes pipelines");
    assert_eq!(engine.result_cache_len(), 1);

    let (rows2, second) = session.execute_with(&prepared, &opts).expect("cached run");
    assert!(second.result_cache_hit, "identical re-submission must hit");
    assert!(second.sched.is_empty(), "a cache hit runs no pipeline");
    assert_eq!(second.codegen, Duration::ZERO);
    assert_eq!(rows1.tys, rows2.tys);
    assert_eq!(rows1.rows, rows2.rows, "cache hit must return identical rows");

    // A separately prepared identical plan shares the cache entry: the key
    // is the plan fingerprint, not the statement object.
    let twin = session.prepare(&wide_plan(4), vec![]);
    assert_eq!(twin.fingerprint(), prepared.fingerprint());
    let (_, third) = session.execute_with(&twin, &opts).expect("twin run");
    assert!(third.result_cache_hit, "fingerprint-identical plans share cached results");
}

#[test]
fn catalog_mutation_bumps_version_and_invalidates_caches() {
    let cat = tpch::generate(0.005);
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare(&wide_plan(4), vec![]);
    let opts = ExecOptions { threads: 2, ..Default::default() };

    let v0 = engine.catalog_version();
    let (rows1, _) = session.execute_with(&prepared, &opts).expect("first run");
    assert_eq!(engine.result_cache_len(), 1);

    // An unrelated mutation: the engine cannot know it is unrelated, so
    // everything derived from the old version must go.
    engine.with_catalog_mut(|c| {
        c.add(Table::new("tiny", vec![("x", DataType::Int64, Column::I64(vec![1, 2, 3]))]))
    });
    assert!(engine.catalog_version() > v0, "mutation must bump the version");
    assert_eq!(engine.result_cache_len(), 0, "stale results are purged eagerly");

    let (rows2, after) = session.execute_with(&prepared, &opts).expect("post-mutation run");
    assert!(!after.result_cache_hit, "the old cache entry must not serve the new version");
    assert!(after.codegen > Duration::ZERO, "retained code is stale after a catalog change");
    assert_eq!(rows1.rows, rows2.rows, "the data did not change, only the version");
}

#[test]
fn second_query_on_the_same_engine_is_calibrated() {
    if !emitter() {
        return; // no compiles, so nothing is ever measured or absorbed
    }
    let cat = tpch::generate(0.02);
    let engine = Engine::new(cat.clone());
    let session = engine.session();

    // Query A: a default-model run whose compiles feed measured constants
    // into the engine's calibration store (fabricated models would be
    // refused by the absorb gate).
    let a = session.prepare(&wide_plan(120), vec![]);
    let (_, rep_a) = session.execute_with(&a, &default_adaptive(2)).expect("query A");
    assert!(
        rep_a.calibration.compile_observations >= 1,
        "query A must record at least one measured compile"
    );
    assert!(!rep_a.sched[0].calibrated, "a cold engine has nothing to seed from");
    assert!(engine.calibration().absorbed() >= 1);

    // Query B: a different plan, default options — and still its *first*
    // pipeline decides with a store-seeded, non-default model.
    let b = session.prepare(&wide_plan(12), vec![]);
    let opts = ExecOptions { threads: 2, cache_results: false, ..Default::default() };
    let (_, rep_b) = session.execute_with(&b, &opts).expect("query B");
    assert!(
        rep_b.sched[0].calibrated,
        "query B's first pipeline must start from the engine's calibration store"
    );
    assert_ne!(
        rep_b.sched[0].model,
        CostModel::default(),
        "the seeded model must differ from the defaults"
    );
}

#[test]
fn module_override_queries_bypass_the_result_cache() {
    // A caller-supplied module is only trusted for its own statement: its
    // rows must never be cached under the plan's fingerprint, where an
    // honest prepare of the same plan would pick them up.
    let cat = tpch::generate(0.002);
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let phys = physical(&cat, &wide_plan(3));
    let module = aqe_engine::codegen::generate(&phys, &cat);
    let with_module = session.prepare_module(phys.clone(), module);

    let (_, first) = session.execute(&with_module).expect("module run");
    assert!(!first.result_cache_hit);
    assert_eq!(engine.result_cache_len(), 0, "module-override rows must not be cached");
    let (_, again) = session.execute(&with_module).expect("module re-run");
    assert!(!again.result_cache_hit, "…nor served from the cache");

    // The honest prepare of the same plan builds its own cached entry.
    let honest = session.prepare_plan(phys);
    let (_, h1) = session.execute(&honest).expect("honest run");
    assert!(!h1.result_cache_hit);
    assert_eq!(engine.result_cache_len(), 1);
}

#[test]
fn prepared_query_rejects_a_foreign_engine() {
    let cat = tpch::generate(0.001);
    let engine_a = Engine::new(cat.clone());
    let engine_b = Engine::new(cat);
    let prepared = engine_a.session().prepare(&wide_plan(2), vec![]);
    let err = engine_b.session().execute(&prepared).unwrap_err();
    assert!(matches!(err, ExecError::Setup(_)), "got {err:?}");
}

#[test]
fn bad_module_surfaces_as_a_setup_error_not_a_panic() {
    let cat = tpch::generate(0.001);
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let phys = physical(&cat, &wide_plan(2));
    // A module whose extern surface cannot be resolved against the
    // engine's runtime registry: pre-PR 3 this was an `.expect()` abort.
    let mut module = aqe_engine::codegen::generate(&phys, &cat);
    module.declare_extern("no_such_runtime_helper", vec![], None);
    let prepared = session.prepare_module(phys, module);
    let err = session.execute(&prepared).unwrap_err();
    assert!(matches!(err, ExecError::Setup(_)), "got {err:?}");
}

#[test]
fn explicit_cost_model_override_beats_the_store_seed() {
    if !emitter() {
        return; // no compiles, so the store never has a seed to override
    }
    let cat = tpch::generate(0.02);
    let engine = Engine::new(cat.clone());
    let session = engine.session();

    // Warm the store with an honest default-model run.
    let a = session.prepare(&wide_plan(120), vec![]);
    session.execute_with(&a, &default_adaptive(2)).expect("query A");
    assert!(engine.calibration().absorbed() >= 1);

    // A caller-nudged model must be used verbatim, not replaced by the
    // store's seed — nudging constants is the documented way to force (or
    // forbid) compiles deterministically.
    let absorbed_before = engine.calibration().absorbed();
    let b = session.prepare(&wide_plan(12), vec![]);
    let custom = eager_adaptive(2);
    let (_, rep) = session.execute_with(&b, &custom).expect("query B");
    assert!(
        !rep.sched[0].calibrated,
        "an explicit model is an instruction; the store must not override it"
    );
    assert_eq!(rep.sched[0].model, custom.model, "the custom constants are used verbatim");
    assert_eq!(
        engine.calibration().absorbed(),
        absorbed_before,
        "what a fabricated-model run 'learns' must not poison the store"
    );
}

#[test]
fn naive_ir_mode_never_pays_bytecode_translation() {
    let cat = tpch::generate(0.001);
    let engine = Engine::new(cat);
    let session = engine.session();
    let prepared = session.prepare(&wide_plan(3), vec![]);
    let opts = ExecOptions { mode: ExecMode::NaiveIr, ..Default::default() };
    let (_, report) = session.execute_with(&prepared, &opts).expect("naive run");
    assert_eq!(report.bc_translate, Duration::ZERO, "the IR walker needs no bytecode");
    // A later adaptive run on the same prepared query pays it exactly once.
    let adaptive = ExecOptions { cache_results: false, ..Default::default() };
    let (_, r2) = session.execute_with(&prepared, &adaptive).expect("adaptive run");
    assert!(r2.bc_translate > Duration::ZERO);
    let (_, r3) = session.execute_with(&prepared, &adaptive).expect("warm adaptive run");
    assert_eq!(r3.bc_translate, Duration::ZERO);
}

#[test]
fn dropping_a_scanned_table_errors_for_plain_prepared_queries_too() {
    // Same scenario as below but through the codegen path (`prepare`, no
    // module override): the rebuild after the mutation must fail as a
    // value before codegen dereferences the missing table.
    let cat = tpch::generate(0.001);
    let engine = Engine::new(cat);
    let session = engine.session();
    let prepared = session.prepare(&wide_plan(2), vec![]);
    session.execute(&prepared).expect("table still present");
    engine.with_catalog_mut(|c| {
        c.remove("lineitem");
    });
    let err = session.execute(&prepared).unwrap_err();
    assert!(matches!(err, ExecError::Setup(_)), "got {err:?}");
}

#[test]
fn dropping_a_scanned_table_is_a_setup_error() {
    let cat = tpch::generate(0.001);
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    // A caller-supplied module is retained across catalog versions, so
    // execution reaches source resolution — which must fail as a value,
    // not a panic, once the scanned table is gone.
    let phys = physical(&cat, &wide_plan(2));
    let module = aqe_engine::codegen::generate(&phys, &cat);
    let prepared = session.prepare_module(phys, module);
    session.execute(&prepared).expect("table still present");
    engine.with_catalog_mut(|c| {
        c.remove("lineitem");
    });
    let err = session.execute(&prepared).unwrap_err();
    assert!(matches!(err, ExecError::Setup(_)), "got {err:?}");
}

/// The one-shot pattern the deprecated `execute_plan`/`execute_module`
/// shims used to paper over, written out in the session API: a throwaway
/// engine per call still works, a caller-generated module produces the
/// same rows as engine codegen, and the module path pays no codegen.
#[test]
fn one_shot_execution_through_a_throwaway_engine() {
    let cat = tpch::generate(0.002);
    let phys = physical(&cat, &wide_plan(3));
    let opts = ExecOptions { threads: 1, ..Default::default() };

    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys.clone());
    let (rows, report) = session.execute_with(&prepared, &opts).expect("one-shot run");
    assert_eq!(rows.row_count(), 1);
    assert!(report.codegen > Duration::ZERO);

    // Stage-timing harnesses generate IR themselves and hand it in;
    // execution must then charge them nothing for codegen.
    let module = aqe_engine::codegen::generate(&phys, &cat);
    let engine2 = Engine::new(cat.clone());
    let session2 = engine2.session();
    let with_module = session2.prepare_module(phys, module);
    let (rows2, report2) = session2.execute_with(&with_module, &opts).expect("module run");
    assert_eq!(rows.rows, rows2.rows);
    assert_eq!(report2.codegen, Duration::ZERO, "caller-supplied module pays no codegen");
}

/// A parameterized variant of [`wide_plan`]: the same wide aggregation,
/// but the scan filters on `l_quantity < $1` so the sums depend on the
/// bound value. One fingerprint, many bindings.
fn bound_plan(aggs: usize) -> PlanNode {
    let specs = (0..aggs)
        .map(|k| AggSpec {
            func: AggFunc::SumI,
            arg: Some(PExpr::arith(
                ArithOp::Add,
                true,
                false,
                PExpr::arith(
                    ArithOp::Mul,
                    true,
                    false,
                    PExpr::Col(k % 3),
                    PExpr::ConstI(k as i64 + 1),
                ),
                PExpr::Col((k + 1) % 3),
            )),
        })
        .collect();
    PlanNode::HashAgg {
        input: Box::new(PlanNode::Scan {
            table: "lineitem".into(),
            cols: vec![4, 5, 6],
            filter: Some(PExpr::cmp(
                CmpOp::Lt,
                false,
                PExpr::Col(0),
                PExpr::Param { idx: 0, ty: FieldTy::I64 },
            )),
        }),
        group_by: vec![],
        aggs: specs,
    }
}

#[test]
fn distinct_bindings_never_alias_a_result_cache_entry() {
    let cat = tpch::generate(0.005);
    let engine = Engine::new(cat);
    let session = engine.session();
    let prepared = session.prepare(&bound_plan(4), vec![]);
    let opts = ExecOptions { threads: 2, ..Default::default() };

    // Two bindings with different selectivities: different answers, so
    // serving one from the other's cache entry would be visible here.
    let (rows_a, first) =
        session.execute_bound_with(&prepared, &[ParamValue::I64(2400)], &opts).expect("binding A");
    assert!(!first.result_cache_hit);
    let (rows_b, second) =
        session.execute_bound_with(&prepared, &[ParamValue::I64(1000)], &opts).expect("binding B");
    assert!(!second.result_cache_hit, "a fresh binding must not hit another binding's entry");
    assert_ne!(rows_a.rows, rows_b.rows, "the two bindings must select different rows");
    assert_eq!(engine.result_cache_len(), 2, "each binding owns its own cache entry");

    // Re-submitting either binding hits exactly its own entry.
    let (ra, ha) =
        session.execute_bound_with(&prepared, &[ParamValue::I64(2400)], &opts).expect("A again");
    assert!(ha.result_cache_hit);
    assert_eq!(ra.rows, rows_a.rows);
    let (rb, hb) =
        session.execute_bound_with(&prepared, &[ParamValue::I64(1000)], &opts).expect("B again");
    assert!(hb.result_cache_hit);
    assert_eq!(rb.rows, rows_b.rows);
}

#[test]
fn warm_bound_execution_with_a_fresh_value_pays_no_compilation() {
    let cat = tpch::generate(0.02);
    let engine = Engine::new(cat);
    let session = engine.session();
    let prepared = session.prepare(&bound_plan(40), vec![]);
    let opts = eager_adaptive(2);

    let (_, cold) =
        session.execute_bound_with(&prepared, &[ParamValue::I64(2400)], &opts).expect("cold bound");
    assert!(cold.codegen > Duration::ZERO, "the cold binding pays codegen");
    assert!(cold.bc_translate > Duration::ZERO);
    let levels = prepared.levels();
    assert_eq!(
        levels.iter().any(|&l| l > ExecLevel::Interpreted),
        emitter(),
        "the eager model must have upgraded at least one pipeline: {levels:?}"
    );

    // A *different* value on the same prepared query: all compilation
    // artifacts are keyed by the generalized plan, so nothing is rebuilt
    // and every pipeline starts at the level the first binding reached.
    let (_, warm) =
        session.execute_bound_with(&prepared, &[ParamValue::I64(900)], &opts).expect("warm bound");
    assert_eq!(warm.codegen, Duration::ZERO, "a fresh value must not regenerate IR");
    assert_eq!(warm.bc_translate, Duration::ZERO, "…nor re-translate bytecode");
    assert!(!warm.result_cache_hit, "a fresh value really executes");
    let starts: Vec<ExecLevel> = warm.sched.iter().map(|s| s.start_level).collect();
    assert_eq!(starts, levels, "warm bound run starts at the previously reached levels");
    assert!(!warm.cold_build, "the compiled state is shared across bindings");
}

#[test]
fn catalog_mutation_invalidates_every_binding_of_a_fingerprint() {
    let cat = tpch::generate(0.005);
    let engine = Engine::new(cat);
    let session = engine.session();
    let prepared = session.prepare(&bound_plan(4), vec![]);
    let opts = ExecOptions { threads: 2, ..Default::default() };

    let (rows_a, _) =
        session.execute_bound_with(&prepared, &[ParamValue::I64(2400)], &opts).expect("binding A");
    let (rows_b, _) =
        session.execute_bound_with(&prepared, &[ParamValue::I64(1000)], &opts).expect("binding B");
    assert_eq!(engine.result_cache_len(), 2);

    // One mutation, all bindings gone: the key's version component means
    // no binding of the old fingerprint can ever be served again.
    engine.with_catalog_mut(|c| {
        c.add(Table::new("tiny", vec![("x", DataType::Int64, Column::I64(vec![1]))]))
    });
    assert_eq!(engine.result_cache_len(), 0, "every binding's entry must be purged");

    let (ra, after_a) =
        session.execute_bound_with(&prepared, &[ParamValue::I64(2400)], &opts).expect("A again");
    assert!(!after_a.result_cache_hit);
    assert!(after_a.codegen > Duration::ZERO, "retained code is stale after the mutation");
    assert_eq!(ra.rows, rows_a.rows, "the data did not change, only the version");
    let (rb, after_b) =
        session.execute_bound_with(&prepared, &[ParamValue::I64(1000)], &opts).expect("B again");
    assert!(!after_b.result_cache_hit);
    assert_eq!(rb.rows, rows_b.rows);
}

#[test]
fn binding_mistakes_are_bind_errors_not_panics() {
    let cat = tpch::generate(0.001);
    let engine = Engine::new(cat);
    let session = engine.session();
    let with_params = session.prepare(&bound_plan(2), vec![]);
    let without = session.prepare(&wide_plan(2), vec![]);

    // Arity: too few, too many.
    let err = session.execute_bound(&with_params, &[]).unwrap_err();
    assert!(matches!(err, ExecError::Bind(_)), "got {err:?}");
    let err =
        session.execute_bound(&with_params, &[ParamValue::I64(1), ParamValue::I64(2)]).unwrap_err();
    assert!(matches!(err, ExecError::Bind(_)), "got {err:?}");

    // Type: the plan's slot is I64, the value is F64.
    let err = session.execute_bound(&with_params, &[ParamValue::F64(1.0)]).unwrap_err();
    assert!(matches!(err, ExecError::Bind(_)), "got {err:?}");

    // Binding values to a query that has no parameters.
    let err = session.execute_bound(&without, &[ParamValue::I64(1)]).unwrap_err();
    assert!(matches!(err, ExecError::Bind(_)), "got {err:?}");

    // And the unbound entry point on a parameterized query: the missing
    // values surface as a `Bind` error, not a read through a null block.
    let err = session.execute(&with_params).unwrap_err();
    assert!(matches!(err, ExecError::Bind(_)), "got {err:?}");

    // After all that, a correct binding still works.
    let (rows, _) = session.execute_bound(&with_params, &[ParamValue::I64(2400)]).expect("bound");
    assert_eq!(rows.row_count(), 1);
}

#[test]
fn native_mode_warms_prepared_query_to_the_optimized_level() {
    // One up-front Native run fills the `Optimized` entry of every
    // pipeline's tier table (nothing where the emitter is unavailable:
    // bytecode only); a later adaptive run starts every pipeline there.
    let cat = tpch::generate(0.01);
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare(&wide_plan(20), vec![]);
    let native_opts = ExecOptions {
        mode: ExecMode::Native,
        threads: 2,
        cache_results: false,
        ..Default::default()
    };
    let (rows_native, first) = session.execute_with(&prepared, &native_opts).expect("native run");
    assert_eq!(
        first.upfront_compile > Duration::ZERO,
        emitter(),
        "the cold native run compiles up front"
    );

    let expect = if emitter() { ExecLevel::Optimized } else { ExecLevel::Interpreted };
    assert!(
        prepared.levels().iter().all(|&l| l == expect),
        "retained levels {:?}, expected all {expect:?}",
        prepared.levels()
    );

    let warm = ExecOptions {
        mode: ExecMode::Adaptive,
        threads: 2,
        cache_results: false,
        ..Default::default()
    };
    let (rows_warm, report) = session.execute_with(&prepared, &warm).expect("warm adaptive run");
    assert!(
        report.sched.iter().all(|s| s.start_level == expect),
        "warm adaptive run must start at the retained level: {:?}",
        report.sched.iter().map(|s| s.start_level).collect::<Vec<_>>()
    );
    assert_eq!(report.background_compiles, 0, "nothing above the retained level to compile to");
    assert_eq!(rows_native.rows, rows_warm.rows);
}
