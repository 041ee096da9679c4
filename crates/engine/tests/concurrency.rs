//! Concurrency stress tests for the session layer (DESIGN.md §8): warm
//! executions of one shared `PreparedQuery` racing each other and a
//! concurrently mutating catalog.
//!
//! What the epoch/snapshot design must guarantee under this load:
//!
//! * **result correctness** — every successful execution returns exactly
//!   the single-threaded reference rows, no matter which catalog epoch or
//!   retained backend it picked up;
//! * **no torn snapshots** — an execution's `Report::snapshot_version`
//!   names one epoch, and the versions a thread observes are monotonic
//!   (the catalog cell only ever publishes forward);
//! * **epoch pinning** — an execution that pinned its snapshot before a
//!   table drop completes against the old epoch's (still-alive) column
//!   data instead of crashing on a dangling base pointer;
//! * **one cold build** — racing cold executions produce one compiled
//!   state under the latch, the rest reuse it;
//! * **one compile per level** — whichever mix of static and adaptive
//!   executions asks for a pipeline's level, its tier-table entry is
//!   compiled once and every later execution gets that same backend;
//! * **eager invalidation** — a mutation purges every result cached for
//!   older versions.

use aqe_engine::exec::{ExecMode, ExecOptions, ParamValue, PipelineBackend};
use aqe_engine::plan::{AggFunc, AggSpec, ArithOp, CmpOp, FieldTy, PExpr, PlanNode};
use aqe_engine::session::{Engine, PreparedQuery};
use aqe_engine::ExecLevel;
use aqe_storage::{tpch, Column, DataType, Table};
use aqe_vm::interp::ExecError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A deterministic single-row aggregation over lineitem, expensive enough
/// per tuple that executions overlap under outer-thread concurrency.
fn agg_plan(aggs: usize) -> PlanNode {
    agg_plan_over(aggs, None)
}

/// [`agg_plan`] with a scan filter over (l_quantity, l_extendedprice,
/// l_discount).
fn agg_plan_over(aggs: usize, filter: Option<PExpr>) -> PlanNode {
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
        input: Box::new(PlanNode::Scan { table: "lineitem".into(), cols: vec![4, 5, 6], filter }),
        group_by: vec![],
        aggs: specs,
    }
}

fn no_cache_opts() -> ExecOptions {
    ExecOptions { mode: ExecMode::Adaptive, threads: 1, cache_results: false, ..Default::default() }
}

fn scratch_table(n: i64) -> Table {
    Table::new("scratch", vec![("x", DataType::Int64, Column::I64((0..n).collect()))])
}

#[test]
fn racing_cold_executions_build_the_compiled_state_once() {
    let engine = Arc::new(Engine::new(tpch::generate(0.005)));
    let prepared = Arc::new(engine.session().prepare(&agg_plan(8), vec![]));

    let reference = {
        // A twin prepared query computes the reference without touching
        // the shared one's cold latch.
        let (rows, _) = engine
            .session()
            .execute_with(&engine.session().prepare(&agg_plan(8), vec![]), &no_cache_opts())
            .expect("reference run");
        rows.rows
    };

    std::thread::scope(|scope| {
        for _ in 0..8 {
            let engine = engine.clone();
            let prepared = prepared.clone();
            let reference = reference.clone();
            scope.spawn(move || {
                let session = engine.session();
                let (rows, _) =
                    session.execute_with(&prepared, &no_cache_opts()).expect("racing cold run");
                assert_eq!(rows.rows, reference, "racing execution returned wrong rows");
            });
        }
    });

    let stats = engine.concurrency();
    // The twin built once; the 8 racers built the shared query's state
    // exactly once between them, no matter how the race interleaved.
    assert_eq!(stats.cold_builds, 2, "racing executions must share one cold build");
    assert!(stats.warm_executions >= 7, "losers of the build race reuse the published state");
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.executions_started, stats.executions_completed);
}

const LEVELS: [ExecLevel; 3] =
    [ExecLevel::Interpreted, ExecLevel::Unoptimized, ExecLevel::Optimized];

/// Every `(pipeline, level)` tier-table entry of `query` that is filled.
fn filled_entries(query: &PreparedQuery) -> Vec<((usize, ExecLevel), Arc<dyn PipelineBackend>)> {
    (0..query.plan().pipelines.len())
        .flat_map(|p| LEVELS.map(|l| (p, l)))
        .filter_map(|(p, l)| query.backend_at(p, l).map(|b| ((p, l), b)))
        .collect()
}

/// Static optimized, static unoptimized and (eagerly compiling) adaptive
/// executions race on one *cold* prepared query. Whoever asks first for a
/// pipeline's level compiles it; everyone else — during the race and
/// after it — must get that same backend.
#[test]
fn racing_modes_compile_each_tier_table_entry_once() {
    const RACERS: usize = 8;
    const ROUNDS: usize = 3;
    let engine = Arc::new(Engine::new(tpch::generate(0.01)));
    // A filtered scan (so the morsel loop runs its pre-filter in front of
    // every racer's backend) feeding a single-row aggregation.
    let plan = || {
        let filter = PExpr::cmp(CmpOp::Lt, false, PExpr::Col(0), PExpr::ConstI(2400));
        agg_plan_over(8, Some(filter))
    };
    let opts = |mode| {
        // Free compiles and large modelled speedups: every adaptive racer
        // goes for the top of the ladder at its first evaluation.
        let mut o = ExecOptions {
            mode,
            threads: 2,
            cache_results: false,
            first_eval: Duration::from_micros(50),
            min_morsel: 256,
            ..Default::default()
        };
        o.model.unopt_base_s = 0.0;
        o.model.unopt_per_instr_s = 0.0;
        o.model.opt_base_s = 0.0;
        o.model.opt_per_instr_s = 0.0;
        o
    };
    // The single-threaded bytecode reference, on a twin prepared query so
    // the shared one stays cold.
    let reference = {
        let session = engine.session();
        let bytecode = ExecOptions { threads: 1, ..opts(ExecMode::Bytecode) };
        session
            .execute_with(&session.prepare(&plan(), vec![]), &bytecode)
            .expect("reference")
            .0
            .rows
    };

    let prepared = Arc::new(engine.session().prepare(&plan(), vec![]));
    let start = Barrier::new(RACERS);
    std::thread::scope(|scope| {
        for i in 0..RACERS {
            let mode = [ExecMode::Native, ExecMode::NativeUnopt, ExecMode::Adaptive][i % 3];
            let (engine, prepared, reference, start) = (&engine, &prepared, &reference, &start);
            let opts = opts(mode);
            scope.spawn(move || {
                let session = engine.session();
                start.wait();
                for round in 0..ROUNDS {
                    let (rows, _) = session.execute_with(prepared, &opts).expect("racing run");
                    assert_eq!(&rows.rows, reference, "{mode:?} racer {i} round {round}");
                }
            });
        }
    });

    let after_race = filled_entries(&prepared);
    assert_eq!(
        prepared.backends_built(),
        after_race.len() as u64,
        "every filled entry was built exactly once, however many racers asked"
    );
    let pipelines = prepared.plan().pipelines.len();
    let filled = |level| after_race.iter().filter(|((_, l), _)| *l == level).count();
    if aqe_jit::native::enabled() {
        assert_eq!(filled(ExecLevel::Optimized), pipelines, "the static Native racers ran");
        assert_eq!(filled(ExecLevel::Unoptimized), pipelines, "the static unopt racers ran");
    } else {
        // Bytecode only: one translation per pipeline served all racers.
        assert_eq!(filled(ExecLevel::Interpreted), pipelines);
        assert_eq!(after_race.len(), pipelines);
    }

    // Later executions in every mode receive the racers' backends: each
    // entry still holds the very same `Arc`, and whatever a mode filled in
    // addition was again built once.
    let session = engine.session();
    for mode in [ExecMode::Bytecode, ExecMode::NativeUnopt, ExecMode::Native, ExecMode::Adaptive] {
        let (rows, _) = session.execute_with(&prepared, &opts(mode)).expect("later run");
        assert_eq!(rows.rows, reference, "later {mode:?} run");
    }
    let later = filled_entries(&prepared);
    for (key, backend) in &after_race {
        let (_, now) = later.iter().find(|(k, _)| k == key).expect("entries are never cleared");
        assert!(Arc::ptr_eq(backend, now), "entry {key:?} was replaced by a later execution");
    }
    assert_eq!(prepared.backends_built(), later.len() as u64);
}

#[test]
fn stress_warm_executions_against_a_mutating_catalog() {
    const WORKERS: usize = 8;
    const RUNS_PER_WORKER: usize = 12;
    const MUTATIONS: u64 = 40;

    let engine = Arc::new(Engine::new(tpch::generate(0.005)));
    let session = engine.session();
    let prepared = Arc::new(session.prepare(&agg_plan(8), vec![]));
    let (reference, first) =
        session.execute_with(&prepared, &no_cache_opts()).expect("reference run");
    let base_version = first.snapshot_version;

    let stop = AtomicBool::new(false);
    let max_seen_version = AtomicU64::new(base_version);

    std::thread::scope(|scope| {
        // Mutator: keeps publishing new catalog epochs (an unrelated
        // table, so the prepared query stays valid at every version).
        let mutator = scope.spawn(|| {
            for i in 0..MUTATIONS {
                engine.with_catalog_mut(|c| {
                    if i % 2 == 0 {
                        c.add(scratch_table(i as i64 + 1));
                    } else {
                        c.remove("scratch");
                    }
                });
                std::thread::sleep(Duration::from_micros(200));
            }
            stop.store(true, Ordering::Release);
        });

        for _ in 0..WORKERS {
            let engine = engine.clone();
            let prepared = prepared.clone();
            let reference = &reference;
            let max_seen_version = &max_seen_version;
            scope.spawn(move || {
                let session = engine.session();
                let mut last_version = 0u64;
                for _ in 0..RUNS_PER_WORKER {
                    let (rows, report) =
                        session.execute_with(&prepared, &no_cache_opts()).expect("warm run");
                    assert_eq!(
                        rows.rows, reference.rows,
                        "an execution under concurrent mutation returned wrong rows"
                    );
                    // One snapshot per run, and only ever forward: a torn
                    // or backwards epoch would show up right here.
                    assert!(
                        report.snapshot_version >= last_version,
                        "snapshot versions must be monotonic within a thread: \
                         {} after {last_version}",
                        report.snapshot_version
                    );
                    last_version = report.snapshot_version;
                    max_seen_version.fetch_max(last_version, Ordering::Relaxed);
                }
            });
        }

        mutator.join().expect("mutator");
    });

    // Every observed epoch was one the mutator actually published.
    assert!(
        max_seen_version.load(Ordering::Relaxed) <= base_version + MUTATIONS,
        "an execution observed a version no mutation produced"
    );
    assert_eq!(engine.catalog_version(), base_version + MUTATIONS);

    let stats = engine.concurrency();
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.executions_started, stats.executions_completed);
    assert_eq!(stats.snapshot_swaps, MUTATIONS);
    assert!(
        stats.peak_in_flight >= 2,
        "the stress must actually overlap executions (peak {})",
        stats.peak_in_flight
    );
    // Mutations keep invalidating retained code, so some executions
    // rebuild — but runs between mutations must still reuse state.
    assert!(stats.warm_executions > 0, "no execution ever took the warm path");
}

#[test]
fn executions_pinned_to_an_epoch_survive_table_drops() {
    // The mutator repeatedly drops and restores the *scanned* table. An
    // execution that pinned its snapshot before a drop completes against
    // the old epoch (the snapshot's `Arc<Table>` keeps the columns
    // alive); an execution that starts inside a dropped window fails
    // cleanly with `Setup`. Nothing crashes, and every success returns
    // the reference rows.
    let engine = Arc::new(Engine::new(tpch::generate(0.002)));
    let session = engine.session();
    let prepared = Arc::new(session.prepare(&agg_plan(6), vec![]));
    let (reference, _) = session.execute_with(&prepared, &no_cache_opts()).expect("reference");
    let lineitem = engine.with_catalog(|c| c.get("lineitem").unwrap().as_ref().clone());

    let successes = AtomicU64::new(0);
    let clean_failures = AtomicU64::new(0);
    let stop_flag = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let stop = &stop_flag;
        for _ in 0..6 {
            let engine = engine.clone();
            let prepared = prepared.clone();
            let reference = &reference;
            let (successes, clean_failures) = (&successes, &clean_failures);
            scope.spawn(move || {
                let session = engine.session();
                while !stop.load(Ordering::Acquire) {
                    match session.execute_with(&prepared, &no_cache_opts()) {
                        Ok((rows, _)) => {
                            assert_eq!(rows.rows, reference.rows, "epoch-pinned run wrong rows");
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ExecError::Setup(msg)) => {
                            assert!(
                                msg.contains("lineitem"),
                                "only the dropped-table window may fail: {msg}"
                            );
                            clean_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error under table drops: {e:?}"),
                    }
                }
            });
        }

        for _ in 0..10 {
            engine.with_catalog_mut(|c| {
                c.remove("lineitem");
            });
            std::thread::sleep(Duration::from_micros(500));
            engine.with_catalog_mut(|c| c.add(lineitem.clone()));
            std::thread::sleep(Duration::from_micros(500));
        }
        stop.store(true, Ordering::Release);
    });

    assert!(successes.load(Ordering::Relaxed) > 0, "some executions must have succeeded");
    assert_eq!(engine.concurrency().in_flight, 0);
}

/// [`agg_plan`] with the scan filtered on `l_quantity < $1`: one
/// fingerprint whose answer depends on the bound value.
fn bound_agg_plan(aggs: usize) -> PlanNode {
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
fn concurrent_bindings_of_one_prepared_query_never_cross_results() {
    // Many threads hammer ONE shared parameterized `PreparedQuery` with
    // different bind values while a mutator publishes new catalog epochs.
    // Result caching stays ON: the dangerous failure mode is binding B
    // being served binding A's cached rows (or a pre-mutation entry
    // surviving). Every run is checked against its value's reference.
    const WORKERS: usize = 6;
    const RUNS_PER_WORKER: usize = 10;
    const BINDINGS: [i64; 3] = [900, 1700, 2400];

    let engine = Arc::new(Engine::new(tpch::generate(0.005)));
    let session = engine.session();
    let prepared = Arc::new(session.prepare(&bound_agg_plan(8), vec![]));

    // Single-threaded, cache-off references — one per binding.
    let reference: Vec<_> = BINDINGS
        .iter()
        .map(|&v| {
            let (rows, _) = session
                .execute_bound_with(&prepared, &[ParamValue::I64(v)], &no_cache_opts())
                .expect("reference run");
            rows.rows
        })
        .collect();
    assert!(
        reference.iter().zip(reference.iter().skip(1)).all(|(a, b)| a != b),
        "the bindings must produce pairwise-distinct answers for aliasing to be observable"
    );

    let cached = ExecOptions { threads: 1, ..Default::default() };
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let engine = engine.clone();
            let prepared = prepared.clone();
            let reference = &reference;
            let opts = cached.clone();
            scope.spawn(move || {
                let session = engine.session();
                for r in 0..RUNS_PER_WORKER {
                    // Each worker walks the bindings in a different order.
                    let i = (w + r) % BINDINGS.len();
                    let params = [ParamValue::I64(BINDINGS[i])];
                    let (rows, _) =
                        session.execute_bound_with(&prepared, &params, &opts).expect("bound run");
                    assert_eq!(
                        rows.rows, reference[i],
                        "binding {} returned another binding's rows",
                        BINDINGS[i]
                    );
                }
            });
        }
        // A few mutations mid-flight: each purges every binding's entries
        // for the older versions, and post-mutation runs repopulate.
        for i in 0..3 {
            std::thread::sleep(Duration::from_micros(400));
            engine.with_catalog_mut(|c| c.add(scratch_table(i + 1)));
        }
    });

    // At most one entry per binding can remain, all for the final version.
    assert!(engine.result_cache_len() <= BINDINGS.len());
    engine.with_catalog_mut(|c| {
        c.remove("scratch");
    });
    assert_eq!(engine.result_cache_len(), 0, "stale binding entries must be purged eagerly");

    let stats = engine.concurrency();
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.executions_started, stats.executions_completed);
    assert!(stats.warm_executions > 0, "bindings between mutations must share warm state");
}

#[test]
fn eager_invalidation_under_concurrent_cached_load() {
    let engine = Arc::new(Engine::new(tpch::generate(0.002)));
    let session = engine.session();
    let prepared = Arc::new(session.prepare(&agg_plan(4), vec![]));
    let cached_opts = ExecOptions { threads: 1, ..Default::default() };

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let engine = engine.clone();
            let prepared = prepared.clone();
            let opts = cached_opts.clone();
            scope.spawn(move || {
                let session = engine.session();
                for _ in 0..8 {
                    session.execute_with(&prepared, &opts).expect("cached run");
                }
            });
        }
        // Interleave a few mutations: each purges the entries of every
        // older version.
        for i in 0..3 {
            std::thread::sleep(Duration::from_micros(300));
            engine.with_catalog_mut(|c| c.add(scratch_table(i + 1)));
        }
    });

    // Whatever survived the racing inserts is for the final version only;
    // one more mutation must purge all of it, eagerly.
    assert!(engine.result_cache_len() <= 1);
    engine.with_catalog_mut(|c| {
        c.remove("scratch");
    });
    assert_eq!(engine.result_cache_len(), 0, "stale entries must be purged eagerly");

    let cache = engine.cache_stats();
    assert!(cache.insertions >= 1, "the racing load must have populated the cache");
    assert!(cache.hits >= 1, "same-version re-submissions must have hit");
    assert_eq!(cache.entries, 0);
}
