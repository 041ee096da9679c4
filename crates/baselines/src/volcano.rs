//! Volcano-style iterator engine (the "PostgreSQL" baseline of Tables I/II).
//!
//! Classic textbook design: every operator is a boxed trait object with a
//! virtual `next()` returning one tuple; expressions are interpreted per
//! tuple. This is the execution model whose interpretation overhead
//! compilation eliminates (paper §I).

use crate::eval::{eval, sort_rows, truthy};
use aqe_engine::plan::{AggFunc, AggSpec, JoinKind, PExpr, PhysicalPlan, PlanNode, SortKey};
use aqe_storage::{Catalog, Table};
use aqe_vm::interp::ExecError;
use std::collections::HashMap;
use std::sync::Arc;

type Tuple = Vec<u64>;

trait Operator {
    fn next(&mut self) -> Result<Option<Tuple>, ExecError>;
}

struct ScanOp {
    table: Arc<Table>,
    cols: Vec<usize>,
    filter: Option<PExpr>,
    plan: Arc<PhysicalPlan>,
    pos: usize,
}

impl Operator for ScanOp {
    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        while self.pos < self.table.row_count() {
            let r = self.pos;
            self.pos += 1;
            let tuple: Tuple = self.cols.iter().map(|&c| self.table.column(c).get_u64(r)).collect();
            match &self.filter {
                Some(p) if !truthy(eval(p, &tuple, &self.plan)?) => continue,
                _ => return Ok(Some(tuple)),
            }
        }
        Ok(None)
    }
}

struct FilterOp {
    input: Box<dyn Operator>,
    pred: PExpr,
    plan: Arc<PhysicalPlan>,
}

impl Operator for FilterOp {
    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        while let Some(t) = self.input.next()? {
            if truthy(eval(&self.pred, &t, &self.plan)?) {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }
}

struct ProjectOp {
    input: Box<dyn Operator>,
    exprs: Vec<PExpr>,
    plan: Arc<PhysicalPlan>,
}

impl Operator for ProjectOp {
    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        match self.input.next()? {
            None => Ok(None),
            Some(t) => {
                let mut out = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    out.push(eval(e, &t, &self.plan)?);
                }
                Ok(Some(out))
            }
        }
    }
}

struct HashJoinOp {
    build: Option<Box<dyn Operator>>,
    probe: Box<dyn Operator>,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    build_payload: Vec<usize>,
    kind: JoinKind,
    table: HashMap<Vec<u64>, Vec<Tuple>>,
    /// Pending matches for the current probe tuple (inner join fan-out).
    pending: Vec<Tuple>,
}

impl HashJoinOp {
    fn ensure_built(&mut self) -> Result<(), ExecError> {
        if let Some(mut b) = self.build.take() {
            while let Some(t) = b.next()? {
                let key: Vec<u64> = self.build_keys.iter().map(|&k| t[k]).collect();
                self.table.entry(key).or_default().push(t);
            }
        }
        Ok(())
    }
}

impl Operator for HashJoinOp {
    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        self.ensure_built()?;
        loop {
            if let Some(t) = self.pending.pop() {
                return Ok(Some(t));
            }
            let Some(t) = self.probe.next()? else {
                return Ok(None);
            };
            let key: Vec<u64> = self.probe_keys.iter().map(|&k| t[k]).collect();
            match (self.kind, self.table.get(&key)) {
                (JoinKind::Inner, Some(matches)) => {
                    for m in matches {
                        let mut out = t.clone();
                        out.extend(self.build_payload.iter().map(|&i| m[i]));
                        self.pending.push(out);
                    }
                }
                (JoinKind::Semi, Some(_)) | (JoinKind::Anti, None) => return Ok(Some(t)),
                _ => {}
            }
        }
    }
}

struct HashAggOp {
    input: Option<Box<dyn Operator>>,
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    plan: Arc<PhysicalPlan>,
    out: Vec<Tuple>,
}

impl Operator for HashAggOp {
    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        if let Some(mut input) = self.input.take() {
            let mut groups: HashMap<Vec<u64>, Vec<u64>> = HashMap::new();
            // Key-less aggregation always yields a row.
            if self.group_by.is_empty() {
                groups.insert(vec![], self.aggs.iter().map(|a| a.func.init_bits()).collect());
            }
            while let Some(t) = input.next()? {
                let key: Vec<u64> = self.group_by.iter().map(|&k| t[k]).collect();
                let accs = groups
                    .entry(key)
                    .or_insert_with(|| self.aggs.iter().map(|a| a.func.init_bits()).collect());
                for (i, a) in self.aggs.iter().enumerate() {
                    let arg = match &a.arg {
                        Some(e) => eval(e, &t, &self.plan)?,
                        None => 0,
                    };
                    accs[i] = accumulate(&a.func, accs[i], arg)?;
                }
            }
            self.out = groups
                .into_iter()
                .map(|(mut k, accs)| {
                    k.extend(accs);
                    k
                })
                .collect();
        }
        Ok(self.out.pop())
    }
}

fn accumulate(f: &AggFunc, acc: u64, arg: u64) -> Result<u64, ExecError> {
    Ok(match f {
        AggFunc::SumI => (acc as i64).checked_add(arg as i64).ok_or(ExecError::Overflow)? as u64,
        AggFunc::CountStar => (acc as i64 + 1) as u64,
        AggFunc::SumF => (f64::from_bits(acc) + f64::from_bits(arg)).to_bits(),
        AggFunc::MinI => (acc as i64).min(arg as i64) as u64,
        AggFunc::MaxI => (acc as i64).max(arg as i64) as u64,
        AggFunc::MinF => {
            let (a, b) = (f64::from_bits(acc), f64::from_bits(arg));
            (if b < a { b } else { a }).to_bits()
        }
        AggFunc::MaxF => {
            let (a, b) = (f64::from_bits(acc), f64::from_bits(arg));
            (if b > a { b } else { a }).to_bits()
        }
    })
}

struct SortOp {
    input: Option<Box<dyn Operator>>,
    keys: Vec<SortKey>,
    limit: Option<usize>,
    out: std::vec::IntoIter<Tuple>,
}

impl Operator for SortOp {
    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        if let Some(mut input) = self.input.take() {
            let mut rows: Vec<Tuple> = Vec::new();
            while let Some(t) = input.next()? {
                rows.push(t);
            }
            sort_rows(&mut rows, &self.keys, self.limit);
            self.out = rows.into_iter();
        }
        Ok(self.out.next())
    }
}

fn build_op(node: &PlanNode, cat: &Catalog, plan: &Arc<PhysicalPlan>) -> Box<dyn Operator> {
    match node {
        PlanNode::Scan { table, cols, filter } => Box::new(ScanOp {
            table: cat.get(table).expect("unknown table").clone(),
            cols: cols.clone(),
            filter: filter.clone(),
            plan: plan.clone(),
            pos: 0,
        }),
        PlanNode::Filter { input, pred } => Box::new(FilterOp {
            input: build_op(input, cat, plan),
            pred: pred.clone(),
            plan: plan.clone(),
        }),
        PlanNode::Project { input, exprs } => Box::new(ProjectOp {
            input: build_op(input, cat, plan),
            exprs: exprs.clone(),
            plan: plan.clone(),
        }),
        PlanNode::HashJoin { build, probe, build_keys, probe_keys, build_payload, kind } => {
            Box::new(HashJoinOp {
                build: Some(build_op(build, cat, plan)),
                probe: build_op(probe, cat, plan),
                build_keys: build_keys.clone(),
                probe_keys: probe_keys.clone(),
                build_payload: build_payload.clone(),
                kind: *kind,
                table: HashMap::new(),
                pending: Vec::new(),
            })
        }
        PlanNode::HashAgg { input, group_by, aggs } => Box::new(HashAggOp {
            input: Some(build_op(input, cat, plan)),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            plan: plan.clone(),
            out: Vec::new(),
        }),
        PlanNode::Sort { input, keys, limit } => Box::new(SortOp {
            input: Some(build_op(input, cat, plan)),
            keys: keys.clone(),
            limit: *limit,
            out: Vec::new().into_iter(),
        }),
    }
}

/// Execute a plan tree tuple-at-a-time; returns flat output rows.
pub fn execute_volcano(
    cat: &Catalog,
    root: &PlanNode,
    plan: &PhysicalPlan,
) -> Result<Vec<u64>, ExecError> {
    let plan = Arc::new(plan.clone());
    let mut op = build_op(root, cat, &plan);
    let mut out = Vec::new();
    while let Some(t) = op.next()? {
        out.extend(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqe_engine::plan::{decompose, ArithOp, CmpOp};
    use aqe_storage::tpch;

    #[test]
    fn volcano_sum_matches_host() {
        let cat = tpch::generate(0.001);
        let plan = PlanNode::HashAgg {
            input: Box::new(PlanNode::Scan {
                table: "lineitem".into(),
                cols: vec![4, 6],
                filter: Some(PExpr::cmp(CmpOp::Le, false, PExpr::Col(1), PExpr::ConstI(5))),
            }),
            group_by: vec![],
            aggs: vec![AggSpec {
                func: AggFunc::SumI,
                arg: Some(PExpr::arith(ArithOp::Mul, true, false, PExpr::Col(0), PExpr::Col(1))),
            }],
        };
        let phys = decompose(&cat, &plan, vec![]);
        let got = execute_volcano(&cat, &plan, &phys).unwrap();

        let li = cat.get("lineitem").unwrap();
        let (q, d) =
            (li.column_by_name("l_quantity").unwrap(), li.column_by_name("l_discount").unwrap());
        let mut expect = 0i64;
        for r in 0..li.row_count() {
            let (qv, dv) = (q.get_u64(r) as i64, d.get_u64(r) as i64);
            if dv <= 5 {
                expect += qv * dv;
            }
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0] as i64, expect);
    }

    #[test]
    fn volcano_join_and_sort() {
        let cat = tpch::generate(0.001);
        let plan = PlanNode::Sort {
            input: Box::new(PlanNode::HashAgg {
                input: Box::new(PlanNode::HashJoin {
                    build: Box::new(PlanNode::Scan {
                        table: "nation".into(),
                        cols: vec![0, 2],
                        filter: None,
                    }),
                    probe: Box::new(PlanNode::Scan {
                        table: "supplier".into(),
                        cols: vec![3],
                        filter: None,
                    }),
                    build_keys: vec![0],
                    probe_keys: vec![0],
                    build_payload: vec![1], // regionkey
                    kind: JoinKind::Inner,
                }),
                group_by: vec![1],
                aggs: vec![AggSpec { func: AggFunc::CountStar, arg: None }],
            }),
            keys: vec![SortKey { field: 0, asc: true, float: false }],
            limit: None,
        };
        let phys = decompose(&cat, &plan, vec![]);
        let rows = execute_volcano(&cat, &plan, &phys).unwrap();
        // 5 regions, counts sum to supplier count.
        assert_eq!(rows.len() % 2, 0);
        let total: i64 = rows.chunks_exact(2).map(|r| r[1] as i64).sum();
        assert_eq!(total, cat.get("supplier").unwrap().row_count() as i64);
        // sorted ascending by regionkey
        let keys: Vec<i64> = rows.chunks_exact(2).map(|r| r[0] as i64).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
