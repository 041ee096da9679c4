//! Property tests at the plan level: randomly generated filter/aggregate
//! plans over TPC-H data must produce identical results in every execution
//! mode and in the Volcano baseline (DESIGN.md §8: "random SQL-ish plans →
//! mode-equivalence").

use aqe::baselines::execute_volcano;
use aqe::engine::exec::{ExecMode, ExecOptions};
use aqe::engine::plan::{decompose, AggFunc, AggSpec, ArithOp, CmpOp, PExpr, PlanNode};
use aqe::engine::session::Engine;
use aqe::storage::{tpch, Catalog};
use proptest::prelude::*;
use std::sync::OnceLock;

fn catalog() -> &'static Catalog {
    static CAT: OnceLock<Catalog> = OnceLock::new();
    CAT.get_or_init(|| tpch::generate(0.002))
}

/// A random single-table aggregation query over lineitem's numeric columns.
#[derive(Clone, Debug)]
struct RandomQuery {
    /// Filter: col(ci) cmp constant
    filter_col: usize,
    cmp: CmpOp,
    threshold: i64,
    /// Group by returnflag?
    grouped: bool,
    /// Aggregate function selector.
    agg_sel: u8,
    /// Aggregate argument: col(a) op col(b)
    arg_a: usize,
    arg_b: usize,
    arg_op: ArithOp,
}

fn query_strategy() -> impl Strategy<Value = RandomQuery> {
    (
        0usize..3,
        prop_oneof![
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
            Just(CmpOp::Eq),
            Just(CmpOp::Ne)
        ],
        0i64..6000,
        any::<bool>(),
        0u8..4,
        0usize..3,
        0usize..3,
        prop_oneof![Just(ArithOp::Add), Just(ArithOp::Sub), Just(ArithOp::Mul)],
    )
        .prop_map(|(filter_col, cmp, threshold, grouped, agg_sel, arg_a, arg_b, arg_op)| {
            RandomQuery { filter_col, cmp, threshold, grouped, agg_sel, arg_a, arg_b, arg_op }
        })
}

fn build_plan(q: &RandomQuery) -> PlanNode {
    // fields: 0 qty, 1 extprice, 2 discount, 3 returnflag
    let scan = PlanNode::Scan {
        table: "lineitem".into(),
        cols: vec![4, 5, 6, 8],
        filter: Some(PExpr::cmp(
            q.cmp,
            false,
            PExpr::Col(q.filter_col),
            PExpr::ConstI(q.threshold),
        )),
    };
    let arg = PExpr::arith(q.arg_op, true, false, PExpr::Col(q.arg_a), PExpr::Col(q.arg_b));
    let agg = match q.agg_sel {
        0 => AggSpec { func: AggFunc::SumI, arg: Some(arg) },
        1 => AggSpec { func: AggFunc::MinI, arg: Some(arg) },
        2 => AggSpec { func: AggFunc::MaxI, arg: Some(arg) },
        _ => AggSpec { func: AggFunc::CountStar, arg: None },
    };
    PlanNode::HashAgg {
        input: Box::new(scan),
        group_by: if q.grouped { vec![3] } else { vec![] },
        aggs: vec![agg, AggSpec { func: AggFunc::CountStar, arg: None }],
    }
}

fn normalized(rows: &[u64], width: usize) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = rows.chunks_exact(width).map(|r| r.to_vec()).collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_plans_agree_across_modes(q in query_strategy()) {
        let cat = catalog();
        let plan = build_plan(&q);
        let phys = decompose(cat, &plan, vec![]);
        let width = phys.output_tys.len();

        let reference = execute_volcano(cat, &plan, &phys)
            .map(|rows| normalized(&rows, width));
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let prepared = session.prepare_plan(phys.clone());
        for mode in [ExecMode::Bytecode, ExecMode::NativeUnopt, ExecMode::Native, ExecMode::Adaptive] {
            let opts = ExecOptions { mode, threads: 2, cache_results: false, ..Default::default() };
            let got = session.execute_with(&prepared, &opts)
                .map(|(res, _)| normalized(&res.rows, width));
            // Both the result *and* any trap (overflow from checked
            // arithmetic) must agree with the baseline.
            match (&reference, &got) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{:?} vs volcano: {:?}", mode, q),
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb, "{:?} trap mismatch: {:?}", mode, q),
                (a, b) => prop_assert!(false, "{:?}: volcano={:?} engine={:?} for {:?}", mode, a, b, q),
            }
        }
    }
}
