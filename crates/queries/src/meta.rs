//! pgAdmin-style metadata queries (the paper's introduction): complex plans
//! over tiny catalog tables, where compilation time dwarfs execution time by
//! 50× and interpretation wins outright.

use crate::Query;
use aqe_engine::plan::{AggFunc, AggSpec, CmpOp, JoinKind, PExpr, PlanNode, SortKey};

fn c(i: usize) -> PExpr {
    PExpr::Col(i)
}
fn scan(t: &str, cols: &[usize], f: Option<PExpr>) -> PlanNode {
    PlanNode::Scan { table: t.into(), cols: cols.to_vec(), filter: f }
}
fn join(b: PlanNode, p: PlanNode, bk: &[usize], pk: &[usize], pay: &[usize]) -> PlanNode {
    PlanNode::HashJoin {
        build: Box::new(b),
        probe: Box::new(p),
        build_keys: bk.to_vec(),
        probe_keys: pk.to_vec(),
        build_payload: pay.to_vec(),
        kind: JoinKind::Inner,
    }
}

/// The paper's example query:
/// `SELECT c.oid, c.relname, n.nspname FROM pg_inherits i JOIN pg_class c ON
/// c.oid = i.inhparent JOIN pg_namespace n ON n.oid = c.relnamespace WHERE
/// i.inhrelid = 16490 ORDER BY inhseqno` (the constant adapted to generated
/// oids).
pub fn inherits_lookup(relid: i64) -> Query {
    let inh = scan(
        "pg_inherits",
        &[0, 1, 2],
        Some(PExpr::cmp(CmpOp::Eq, false, c(0), PExpr::ConstI(relid))),
    );
    let cls = scan("pg_class", &[0, 1, 2], None);
    let j = join(inh, cls, &[1], &[0], &[2]);
    // fields: oid, relname, relnamespace, inhseqno
    let ns = scan("pg_namespace", &[0, 1], None);
    let j = join(ns, j, &[0], &[2], &[1]);
    Query {
        name: "pg_inherits_lookup".into(),
        root: PlanNode::Sort {
            input: Box::new(j),
            keys: vec![SortKey { field: 3, asc: true, float: false }],
            limit: None,
        },
        dicts: vec![],
    }
}

/// Attribute counts per namespace — a wider catalog join.
pub fn attribute_summary() -> Query {
    let cls = scan("pg_class", &[0, 2, 4], None);
    let att = scan("pg_attribute", &[0, 2], None);
    let j = join(cls, att, &[0], &[0], &[1]);
    let ns = scan("pg_namespace", &[0], None);
    let j = join(ns, j, &[0], &[2], &[]);
    let a = PlanNode::HashAgg {
        input: Box::new(j),
        group_by: vec![2],
        aggs: vec![
            AggSpec { func: AggFunc::CountStar, arg: None },
            AggSpec { func: AggFunc::MaxI, arg: Some(c(1)) },
        ],
    };
    Query {
        name: "pg_attribute_summary".into(),
        root: PlanNode::Sort {
            input: Box::new(a),
            keys: vec![SortKey { field: 0, asc: true, float: false }],
            limit: None,
        },
        dicts: vec![],
    }
}

/// A deliberately join-heavy catalog query (pgAdmin sends "up to 22 joins";
/// this chains `n` self-joins of pg_class through pg_namespace).
pub fn wide_catalog_join(n: usize) -> Query {
    let mut plan = scan("pg_class", &[0, 2], None);
    for _ in 0..n {
        let ns = scan("pg_namespace", &[0], None);
        plan = join(ns, plan, &[0], &[1], &[0]);
        // re-project to (oid, relnamespace)
        plan = PlanNode::Project { input: Box::new(plan), exprs: vec![c(0), c(2)] };
    }
    let a = PlanNode::HashAgg {
        input: Box::new(plan),
        group_by: vec![],
        aggs: vec![AggSpec { func: AggFunc::CountStar, arg: None }],
    };
    Query { name: format!("pg_wide_join_{n}"), root: a, dicts: vec![] }
}

/// The pgAdmin startup batch.
pub fn startup_batch() -> Vec<Query> {
    let mut v = vec![
        inherits_lookup(3),
        inherits_lookup(13),
        attribute_summary(),
        wide_catalog_join(4),
        wide_catalog_join(8),
        wide_catalog_join(16),
    ];
    for k in 0..6 {
        v.push(inherits_lookup(23 + 10 * k));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqe_engine::exec::{ExecMode, ExecOptions};
    use aqe_engine::session::Engine;
    use aqe_storage::meta;

    #[test]
    fn metadata_queries_run_in_all_relevant_modes() {
        let cat = meta::generate(300);
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        for q in startup_batch() {
            let prepared = session.prepare(&q.root, q.dicts.clone());
            let mut last = None;
            for mode in [ExecMode::Bytecode, ExecMode::NativeUnopt, ExecMode::Adaptive] {
                let opts =
                    ExecOptions { mode, threads: 1, cache_results: false, ..Default::default() };
                let (res, _) = session
                    .execute_with(&prepared, &opts)
                    .unwrap_or_else(|e| panic!("{}: {e}", q.name));
                if let Some(prev) = &last {
                    assert_eq!(prev, &res.rows, "{} mode {:?}", q.name, mode);
                }
                last = Some(res.rows);
            }
        }
    }
}
