//! Machine-generated wide-aggregate queries (§V-E, Fig. 15).
//!
//! "Our sample queries consist of a single table scan and an increasing
//! number of aggregate expressions. By scaling this number from 10 to 1900,
//! we receive query plans that contain between 1,000 and 160,000
//! \[IR\] instructions, most of which are in a single large function."

use crate::Query;
use aqe_engine::plan::{AggFunc, AggSpec, ArithOp, PExpr, PlanNode};

fn c(i: usize) -> PExpr {
    PExpr::Col(i)
}
fn ci(v: i64) -> PExpr {
    PExpr::ConstI(v)
}

/// A keyless aggregation over `lineitem` with `n` distinct overflow-checked
/// aggregate expressions; instruction count grows linearly with `n`.
pub fn wide_agg(n: usize) -> Query {
    // fields: 0 qty, 1 extprice, 2 discount, 3 tax
    let scan = PlanNode::Scan { table: "lineitem".into(), cols: vec![4, 5, 6, 7], filter: None };
    let mut aggs = Vec::with_capacity(n);
    for k in 0..n {
        let a = c(k % 4);
        let b = c((k / 4 + 1) % 4);
        // Distinct shape per aggregate: (a * w + b) - k, overflow-checked.
        let w = (k % 7 + 1) as i64;
        let e = PExpr::arith(
            ArithOp::Sub,
            true,
            false,
            PExpr::arith(
                ArithOp::Add,
                true,
                false,
                PExpr::arith(ArithOp::Mul, false, false, a, ci(w)),
                b,
            ),
            ci(k as i64),
        );
        aggs.push(AggSpec { func: AggFunc::SumI, arg: Some(e) });
    }
    Query {
        name: format!("wide_agg_{n}"),
        root: PlanNode::HashAgg { input: Box::new(scan), group_by: vec![], aggs },
        dicts: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqe_engine::plan::decompose;
    use aqe_storage::tpch;

    #[test]
    fn instruction_count_scales_linearly() {
        let cat = tpch::generate(0.001);
        let mut counts = Vec::new();
        for n in [10, 100, 400] {
            let q = wide_agg(n);
            let phys = decompose(&cat, &q.root, vec![]);
            let module = aqe_engine::codegen::generate(&phys, &cat);
            counts.push(module.instruction_count());
        }
        assert!(counts[1] > counts[0] * 5, "{counts:?}");
        assert!(counts[2] > counts[1] * 3, "{counts:?}");
    }

    #[test]
    fn wide_agg_runs_correctly_small() {
        use aqe_engine::exec::{ExecMode, ExecOptions};
        use aqe_engine::session::Engine;
        let cat = tpch::generate(0.001);
        let q = wide_agg(16);
        let phys = decompose(&cat, &q.root, vec![]);
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let want = aqe_baselines::execute_volcano(&cat, &q.root, &phys).unwrap();
        // One prepared query, two modes: the result cache must be off for
        // the second run to actually exercise the unoptimized backend.
        let prepared = session.prepare_plan(phys);
        for mode in [ExecMode::Bytecode, ExecMode::NativeUnopt] {
            let opts = ExecOptions { mode, threads: 1, cache_results: false, ..Default::default() };
            let res = session.execute_with(&prepared, &opts).unwrap().0;
            assert_eq!(res.rows, want, "{mode:?} disagrees with Volcano");
            assert_eq!(res.row_count(), 1);
        }
    }
}
