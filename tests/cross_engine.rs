//! Workspace-level integration tests: the whole TPC-H corpus must produce
//! identical results across the compiling engine's four execution modes
//! (both machine-code levels included — bytecode in their place on targets
//! without the emitter) and both baseline engines, single- and
//! multi-threaded. The Volcano engine is the oracle: it shares no code with
//! the compiling engine but storage and the plan tree.

use aqe::baselines::{execute_vectorized, execute_volcano};
use aqe::engine::exec::{ExecMode, ExecOptions};
use aqe::engine::plan::decompose;
use aqe::engine::session::Engine;
use aqe::queries::{synthetic, tpcds, tpch};
use aqe::storage::{tpcds as ds_data, tpch as tpch_data};

const MODES: [ExecMode; 4] =
    [ExecMode::Bytecode, ExecMode::NativeUnopt, ExecMode::Native, ExecMode::Adaptive];

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

#[test]
fn tpch_corpus_agrees_across_all_engines_and_modes() {
    let cat = tpch_data::generate(0.01);
    for q in tpch::all(&cat) {
        let phys = decompose(&cat, &q.root, q.dicts.clone());
        let width = phys.output_tys.len();
        let sorted = phys.sorted_output;

        let volcano = normalized(
            &execute_volcano(&cat, &q.root, &phys).unwrap_or_else(|e| panic!("{}: {e}", q.name)),
            width,
            sorted,
        );
        let vector = normalized(&execute_vectorized(&cat, &q.root, &phys).unwrap(), width, sorted);
        assert_eq!(volcano, vector, "{}: baselines disagree", q.name);

        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let prepared = session.prepare_plan(phys.clone());
        for mode in MODES {
            for threads in [1, 4] {
                let opts =
                    ExecOptions { mode, threads, cache_results: false, ..Default::default() };
                let (res, _) = session
                    .execute_with(&prepared, &opts)
                    .unwrap_or_else(|e| panic!("{} {mode:?}: {e}", q.name));
                let got = normalized(&res.rows, width, sorted);
                assert_eq!(got, volcano, "{} {mode:?} x{threads} disagrees with baselines", q.name);
            }
        }
    }
}

#[test]
fn tpcds_corpus_agrees() {
    let cat = ds_data::generate(0.01);
    for q in tpcds::all(&cat) {
        let phys = decompose(&cat, &q.root, q.dicts.clone());
        let width = phys.output_tys.len();
        let volcano =
            normalized(&execute_volcano(&cat, &q.root, &phys).unwrap(), width, phys.sorted_output);
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let prepared = session.prepare_plan(phys.clone());
        for mode in MODES {
            let opts = ExecOptions { mode, threads: 2, cache_results: false, ..Default::default() };
            let (res, _) = session.execute_with(&prepared, &opts).unwrap();
            assert_eq!(
                normalized(&res.rows, width, phys.sorted_output),
                volcano,
                "{} {mode:?}",
                q.name
            );
        }
    }
}

#[test]
fn wide_aggregate_queries_agree_at_scale() {
    let cat = tpch_data::generate(0.002);
    for n in [10, 150] {
        let q = synthetic::wide_agg(n);
        let phys = decompose(&cat, &q.root, vec![]);
        let volcano = execute_volcano(&cat, &q.root, &phys).unwrap();
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let prepared = session.prepare_plan(phys);
        for mode in MODES {
            let opts = ExecOptions { mode, threads: 2, cache_results: false, ..Default::default() };
            let (res, _) = session.execute_with(&prepared, &opts).unwrap();
            assert_eq!(res.rows, volcano, "wide_agg_{n} {mode:?}");
        }
    }
}

#[test]
fn sql_frontend_to_adaptive_execution_end_to_end() {
    let cat = tpch_data::generate(0.005);
    let bound = aqe::sql::plan_sql(
        &cat,
        "SELECT n_name, count(*) AS cnt FROM supplier \
         JOIN nation ON s_nationkey = n_nationkey \
         GROUP BY n_name ORDER BY cnt DESC, n_name LIMIT 3",
    )
    .unwrap();
    let phys = decompose(&cat, &bound.root, bound.dicts);
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys.clone());
    let opts = ExecOptions { mode: ExecMode::Adaptive, threads: 2, ..Default::default() };
    let (res, _) = session.execute_with(&prepared, &opts).unwrap();
    assert_eq!(res.row_count(), 3);
    // Also through Volcano for agreement.
    let v = execute_volcano(&cat, &bound.root, &phys).unwrap();
    assert_eq!(res.rows, v);
}
