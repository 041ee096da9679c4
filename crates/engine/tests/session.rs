//! Tests for the long-lived `Engine` / `Session` / `PreparedQuery` API:
//!
//! * a cold adaptive pipeline starts at the level the cost model picks for
//!   its row count, and a synchronous start compile is counted, traced and
//!   timed like any other compile;
//! * a warm prepared-query re-execution skips codegen, bytecode
//!   translation and compilation, and starts at the `ExecLevel` a prior
//!   run reached;
//! * a result-cache hit returns identical `ResultRows` without running the
//!   morsel loop;
//! * a catalog mutation bumps the version and invalidates both the cached
//!   result and the retained code;
//! * setup failures (a dropped table, a foreign engine) surface as
//!   `ExecError` values;
//! * bound executions share one compiled statement across bindings and
//!   never alias each other's cached rows.

use aqe_engine::exec::{ExecMode, ExecOptions, ParamValue};
use aqe_engine::plan::{
    decompose, AggFunc, AggSpec, ArithOp, CmpOp, FieldTy, PExpr, PhysicalPlan, PlanNode,
};
use aqe_engine::session::Engine;
use aqe_engine::ExecLevel;
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

/// Options that make the compile decision irresistible and immediate: with
/// free compiles, every pipeline that has rows starts on optimized machine
/// code, built before its first morsel.
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
    let compiles: u64 = cold.sched.iter().map(|s| s.compiles_started).sum();
    assert_eq!(compiles >= 1, emitter(), "the eager model must force a compile");
    // Translation happens only where bytecode runs: nowhere with the
    // emitter under this model, everywhere without it.
    assert_eq!(cold.bc_translate > Duration::ZERO, !emitter(), "cold run translated");
    let top = if emitter() { ExecLevel::Optimized } else { ExecLevel::Interpreted };
    assert!(cold.sched.iter().all(|s| s.start_level == top), "{:?}", cold.sched);

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
    assert_eq!(warm.upfront_compile, Duration::ZERO, "warm run must not compile");
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
fn synchronous_start_compile_is_counted_traced_and_timed() {
    let cat = tpch::generate(0.01);
    let engine = Engine::new(cat);
    let session = engine.session();
    let prepared = session.prepare(&wide_plan(8), vec![]);
    let opts = ExecOptions { trace: true, ..eager_adaptive(2) };
    let (_, report) = session.execute_with(&prepared, &opts).expect("cold run");

    // Nothing runs in the background: every compile of this run happened
    // before its pipeline's first morsel.
    assert_eq!(report.background_compiles, 0);
    let events = |pid: usize, compile: bool| {
        report
            .trace
            .iter()
            .filter(move |e| e.pipeline as usize == pid && (e.kind == 255) == compile)
    };
    for s in &report.sched {
        let compiled = events(s.pipeline, true).count() as u64;
        if !emitter() {
            assert_eq!((s.compiles_started, compiled), (0, 0), "bytecode only: {s:?}");
            assert_eq!(s.start_level, ExecLevel::Interpreted);
            continue;
        }
        assert_eq!(s.start_level, ExecLevel::Optimized, "{s:?}");
        assert_eq!(s.compiles_started, 1, "the start compile counts: {s:?}");
        assert_eq!(compiled, 1, "the start compile is traced: pipeline {}", s.pipeline);
        let compile = events(s.pipeline, true).next().unwrap();
        assert!(
            events(s.pipeline, false).all(|m| m.start_us >= compile.end_us),
            "a morsel of pipeline {} ran before its start compile ended",
            s.pipeline
        );
    }
    assert_eq!(report.upfront_compile > Duration::ZERO, emitter(), "the start compile is timed");
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
    assert_eq!(engine.cache_stats().entries, 1);

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
    assert_eq!(engine.cache_stats().entries, 1);

    // An unrelated mutation: the engine cannot know it is unrelated, so
    // everything derived from the old version must go.
    engine.with_catalog_mut(|c| {
        c.add(Table::new("tiny", vec![("x", DataType::Int64, Column::I64(vec![1, 2, 3]))]))
    });
    assert!(engine.catalog_version() > v0, "mutation must bump the version");
    assert_eq!(engine.cache_stats().entries, 0, "stale results are purged eagerly");

    let (rows2, after) = session.execute_with(&prepared, &opts).expect("post-mutation run");
    assert!(!after.result_cache_hit, "the old cache entry must not serve the new version");
    assert!(after.codegen > Duration::ZERO, "retained code is stale after a catalog change");
    assert_eq!(rows1.rows, rows2.rows, "the data did not change, only the version");
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
fn dropping_a_scanned_table_errors_for_plain_prepared_queries_too() {
    // The rebuild after the mutation must fail as a value before codegen
    // dereferences the missing table.
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

/// The one-shot pattern written out in the session API: a throwaway
/// engine per call still works and pays its codegen.
#[test]
fn one_shot_execution_through_a_throwaway_engine() {
    let cat = tpch::generate(0.002);
    let phys = physical(&cat, &wide_plan(3));
    let opts = ExecOptions { threads: 1, ..Default::default() };

    let engine = Engine::new(cat);
    let session = engine.session();
    let prepared = session.prepare_plan(phys);
    let (rows, report) = session.execute_with(&prepared, &opts).expect("one-shot run");
    assert_eq!(rows.row_count(), 1);
    assert!(report.codegen > Duration::ZERO);
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
    assert_eq!(engine.cache_stats().entries, 2, "each binding owns its own cache entry");

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
    let built = if emitter() { cold.upfront_compile } else { cold.bc_translate };
    assert!(built > Duration::ZERO, "the cold binding builds its start levels");
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
    assert_eq!(warm.upfront_compile, Duration::ZERO, "…nor compile");
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
    assert_eq!(engine.cache_stats().entries, 2);

    // One mutation, all bindings gone: the key's version component means
    // no binding of the old fingerprint can ever be served again.
    engine.with_catalog_mut(|c| {
        c.add(Table::new("tiny", vec![("x", DataType::Int64, Column::I64(vec![1]))]))
    });
    assert_eq!(engine.cache_stats().entries, 0, "every binding's entry must be purged");

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
