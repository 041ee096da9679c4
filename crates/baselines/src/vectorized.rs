//! Column-at-a-time engine (the "MonetDB" baseline of Tables I/II).
//!
//! Every operator consumes and produces fully materialised column vectors —
//! MonetDB's execution model, simplified: expressions evaluate one operator
//! at a time over whole columns, filters produce selection vectors that are
//! immediately applied, joins and aggregations loop over materialised
//! inputs.

use crate::eval::sort_rows;
use aqe_engine::plan::{AggFunc, ArithOp, CmpOp, JoinKind, PExpr, PhysicalPlan, PlanNode};
use aqe_storage::Catalog;
use aqe_vm::interp::ExecError;
use std::collections::HashMap;

/// A materialised intermediate result: column vectors of equal length.
pub struct Chunk {
    pub cols: Vec<Vec<u64>>,
    pub len: usize,
}

impl Chunk {
    fn row(&self, r: usize) -> Vec<u64> {
        self.cols.iter().map(|c| c[r]).collect()
    }
}

/// Vectorised expression evaluation: one full column per operator node.
fn eval_vec(e: &PExpr, input: &Chunk, plan: &PhysicalPlan) -> Result<Vec<u64>, ExecError> {
    let n = input.len;
    Ok(match e {
        PExpr::Col(i) => input.cols[*i].clone(),
        PExpr::ConstI(c) => vec![*c as u64; n],
        PExpr::ConstF(c) => vec![c.to_bits(); n],
        PExpr::Arith { op, checked, float, a, b } => {
            let (x, y) = (eval_vec(a, input, plan)?, eval_vec(b, input, plan)?);
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(if *float {
                    let (a, b) = (f64::from_bits(x[i]), f64::from_bits(y[i]));
                    match op {
                        ArithOp::Add => a + b,
                        ArithOp::Sub => a - b,
                        ArithOp::Mul => a * b,
                        ArithOp::Div => a / b,
                    }
                    .to_bits()
                } else {
                    let (a, b) = (x[i] as i64, y[i] as i64);
                    (match (op, checked) {
                        (ArithOp::Add, true) => a.checked_add(b).ok_or(ExecError::Overflow)?,
                        (ArithOp::Sub, true) => a.checked_sub(b).ok_or(ExecError::Overflow)?,
                        (ArithOp::Mul, true) => a.checked_mul(b).ok_or(ExecError::Overflow)?,
                        (ArithOp::Add, false) => a.wrapping_add(b),
                        (ArithOp::Sub, false) => a.wrapping_sub(b),
                        (ArithOp::Mul, false) => a.wrapping_mul(b),
                        (ArithOp::Div, _) => {
                            if b == 0 {
                                return Err(ExecError::DivByZero);
                            }
                            if a == i64::MIN && b == -1 {
                                return Err(ExecError::Overflow);
                            }
                            a / b
                        }
                    }) as u64
                });
            }
            out
        }
        PExpr::Cmp { op, float, a, b } => {
            let (x, y) = (eval_vec(a, input, plan)?, eval_vec(b, input, plan)?);
            (0..n)
                .map(|i| {
                    let r = if *float {
                        let (a, b) = (f64::from_bits(x[i]), f64::from_bits(y[i]));
                        match op {
                            CmpOp::Eq => a == b,
                            CmpOp::Ne => a != b,
                            CmpOp::Lt => a < b,
                            CmpOp::Le => a <= b,
                            CmpOp::Gt => a > b,
                            CmpOp::Ge => a >= b,
                        }
                    } else {
                        let (a, b) = (x[i] as i64, y[i] as i64);
                        match op {
                            CmpOp::Eq => a == b,
                            CmpOp::Ne => a != b,
                            CmpOp::Lt => a < b,
                            CmpOp::Le => a <= b,
                            CmpOp::Gt => a > b,
                            CmpOp::Ge => a >= b,
                        }
                    };
                    r as u64
                })
                .collect()
        }
        PExpr::And(a, b) => {
            let (x, y) = (eval_vec(a, input, plan)?, eval_vec(b, input, plan)?);
            (0..n).map(|i| x[i] & y[i] & 1).collect()
        }
        PExpr::Or(a, b) => {
            let (x, y) = (eval_vec(a, input, plan)?, eval_vec(b, input, plan)?);
            (0..n).map(|i| (x[i] | y[i]) & 1).collect()
        }
        PExpr::Not(a) => {
            let x = eval_vec(a, input, plan)?;
            (0..n).map(|i| (x[i] ^ 1) & 1).collect()
        }
        PExpr::InList { v, list } => {
            let x = eval_vec(v, input, plan)?;
            (0..n).map(|i| list.contains(&(x[i] as i64)) as u64).collect()
        }
        PExpr::Case { cond, t, f, .. } => {
            let (c, x, y) = (
                eval_vec(cond, input, plan)?,
                eval_vec(t, input, plan)?,
                eval_vec(f, input, plan)?,
            );
            (0..n).map(|i| if c[i] & 1 != 0 { x[i] } else { y[i] }).collect()
        }
        PExpr::DictLookup { v, table, elem_size } => {
            let x = eval_vec(v, input, plan)?;
            let d = &plan.dicts[*table];
            (0..n)
                .map(|i| {
                    let code = x[i] as usize;
                    match elem_size {
                        1 => d.bytes[code] as u64,
                        _ => {
                            let b = &d.bytes[code * 4..code * 4 + 4];
                            u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as u64
                        }
                    }
                })
                .collect()
        }
        PExpr::IToF(v) => {
            let x = eval_vec(v, input, plan)?;
            (0..n).map(|i| ((x[i] as i64) as f64).to_bits()).collect()
        }
        // The baselines replay fixed statements; bind parameters belong to
        // the session layer's prepared-query path.
        PExpr::Param { .. } => {
            return Err(ExecError::Setup("baseline evaluators do not bind parameters".into()))
        }
    })
}

fn apply_selection(input: Chunk, sel: &[u32]) -> Chunk {
    let cols = input.cols.iter().map(|c| sel.iter().map(|&i| c[i as usize]).collect()).collect();
    Chunk { cols, len: sel.len() }
}

fn execute_node(node: &PlanNode, cat: &Catalog, plan: &PhysicalPlan) -> Result<Chunk, ExecError> {
    match node {
        PlanNode::Scan { table, cols, filter } => {
            let t = cat.get(table).expect("unknown table");
            let n = t.row_count();
            let materialised: Vec<Vec<u64>> =
                cols.iter().map(|&c| (0..n).map(|r| t.column(c).get_u64(r)).collect()).collect();
            let chunk = Chunk { cols: materialised, len: n };
            match filter {
                None => Ok(chunk),
                Some(p) => {
                    let mask = eval_vec(p, &chunk, plan)?;
                    let sel: Vec<u32> =
                        (0..n).filter(|&i| mask[i] & 1 != 0).map(|i| i as u32).collect();
                    Ok(apply_selection(chunk, &sel))
                }
            }
        }
        PlanNode::Filter { input, pred } => {
            let chunk = execute_node(input, cat, plan)?;
            let mask = eval_vec(pred, &chunk, plan)?;
            let sel: Vec<u32> =
                (0..chunk.len).filter(|&i| mask[i] & 1 != 0).map(|i| i as u32).collect();
            Ok(apply_selection(chunk, &sel))
        }
        PlanNode::Project { input, exprs } => {
            let chunk = execute_node(input, cat, plan)?;
            let cols: Result<Vec<Vec<u64>>, ExecError> =
                exprs.iter().map(|e| eval_vec(e, &chunk, plan)).collect();
            Ok(Chunk { cols: cols?, len: chunk.len })
        }
        PlanNode::HashJoin { build, probe, build_keys, probe_keys, build_payload, kind } => {
            let b = execute_node(build, cat, plan)?;
            let p = execute_node(probe, cat, plan)?;
            let mut table: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
            for r in 0..b.len {
                let key: Vec<u64> = build_keys.iter().map(|&k| b.cols[k][r]).collect();
                table.entry(key).or_default().push(r);
            }
            let out_width =
                p.cols.len() + if *kind == JoinKind::Inner { build_payload.len() } else { 0 };
            let mut out: Vec<Vec<u64>> = vec![Vec::new(); out_width];
            for r in 0..p.len {
                let key: Vec<u64> = probe_keys.iter().map(|&k| p.cols[k][r]).collect();
                match (kind, table.get(&key)) {
                    (JoinKind::Inner, Some(matches)) => {
                        for &m in matches {
                            for (c, col) in p.cols.iter().enumerate() {
                                out[c].push(col[r]);
                            }
                            for (j, &pay) in build_payload.iter().enumerate() {
                                out[p.cols.len() + j].push(b.cols[pay][m]);
                            }
                        }
                    }
                    (JoinKind::Semi, Some(_)) | (JoinKind::Anti, None) => {
                        for (c, col) in p.cols.iter().enumerate() {
                            out[c].push(col[r]);
                        }
                    }
                    _ => {}
                }
            }
            let len = out.first().map(|c| c.len()).unwrap_or(0);
            Ok(Chunk { cols: out, len })
        }
        PlanNode::HashAgg { input, group_by, aggs } => {
            let chunk = execute_node(input, cat, plan)?;
            // Argument columns evaluated column-at-a-time first.
            let mut arg_cols: Vec<Option<Vec<u64>>> = Vec::new();
            for a in aggs {
                arg_cols.push(match &a.arg {
                    Some(e) => Some(eval_vec(e, &chunk, plan)?),
                    None => None,
                });
            }
            let mut groups: HashMap<Vec<u64>, Vec<u64>> = HashMap::new();
            if group_by.is_empty() {
                groups.insert(vec![], aggs.iter().map(|a| a.func.init_bits()).collect());
            }
            for r in 0..chunk.len {
                let key: Vec<u64> = group_by.iter().map(|&k| chunk.cols[k][r]).collect();
                let accs = groups
                    .entry(key)
                    .or_insert_with(|| aggs.iter().map(|a| a.func.init_bits()).collect());
                for (i, a) in aggs.iter().enumerate() {
                    let arg = arg_cols[i].as_ref().map(|c| c[r]).unwrap_or(0);
                    accs[i] = step(&a.func, accs[i], arg)?;
                }
            }
            let width = group_by.len() + aggs.len();
            let mut cols: Vec<Vec<u64>> = vec![Vec::new(); width];
            for (k, accs) in groups {
                for (c, v) in k.into_iter().chain(accs).enumerate() {
                    cols[c].push(v);
                }
            }
            let len = cols.first().map(|c| c.len()).unwrap_or(0);
            Ok(Chunk { cols, len })
        }
        PlanNode::Sort { input, keys, limit } => {
            let chunk = execute_node(input, cat, plan)?;
            let mut rows: Vec<Vec<u64>> = (0..chunk.len).map(|r| chunk.row(r)).collect();
            sort_rows(&mut rows, keys, *limit);
            let mut cols: Vec<Vec<u64>> = vec![Vec::with_capacity(rows.len()); chunk.cols.len()];
            for row in &rows {
                for (c, &v) in row.iter().enumerate() {
                    cols[c].push(v);
                }
            }
            let len = cols.first().map(|c| c.len()).unwrap_or(0);
            Ok(Chunk { cols, len })
        }
    }
}

fn step(f: &AggFunc, acc: u64, arg: u64) -> Result<u64, ExecError> {
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

/// Execute a plan column-at-a-time; returns flat output rows.
pub fn execute_vectorized(
    cat: &Catalog,
    root: &PlanNode,
    plan: &PhysicalPlan,
) -> Result<Vec<u64>, ExecError> {
    let chunk = execute_node(root, cat, plan)?;
    let width = chunk.cols.len();
    let mut out = Vec::with_capacity(chunk.len * width);
    for r in 0..chunk.len {
        for c in 0..width {
            out.push(chunk.cols[c][r]);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volcano::execute_volcano;
    use aqe_engine::plan::{decompose, AggSpec, SortKey};
    use aqe_storage::tpch;

    #[test]
    fn vectorized_agrees_with_volcano() {
        let cat = tpch::generate(0.001);
        let plan = PlanNode::Sort {
            input: Box::new(PlanNode::HashAgg {
                input: Box::new(PlanNode::Scan {
                    table: "lineitem".into(),
                    cols: vec![8, 4, 6],
                    filter: Some(PExpr::cmp(CmpOp::Gt, false, PExpr::Col(2), PExpr::ConstI(2))),
                }),
                group_by: vec![0],
                aggs: vec![
                    AggSpec { func: AggFunc::SumI, arg: Some(PExpr::Col(1)) },
                    AggSpec { func: AggFunc::CountStar, arg: None },
                    AggSpec { func: AggFunc::MaxI, arg: Some(PExpr::Col(2)) },
                ],
            }),
            keys: vec![SortKey { field: 0, asc: true, float: false }],
            limit: None,
        };
        let phys = decompose(&cat, &plan, vec![]);
        let a = execute_vectorized(&cat, &plan, &phys).unwrap();
        let b = execute_volcano(&cat, &plan, &phys).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn join_kinds_agree_with_volcano() {
        let cat = tpch::generate(0.001);
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
            let plan = PlanNode::Sort {
                input: Box::new(PlanNode::HashJoin {
                    build: Box::new(PlanNode::Scan {
                        table: "nation".into(),
                        cols: vec![0, 2],
                        filter: Some(PExpr::cmp(CmpOp::Lt, false, PExpr::Col(1), PExpr::ConstI(3))),
                    }),
                    probe: Box::new(PlanNode::Scan {
                        table: "supplier".into(),
                        cols: vec![0, 3],
                        filter: None,
                    }),
                    build_keys: vec![0],
                    probe_keys: vec![1],
                    build_payload: if kind == JoinKind::Inner { vec![1] } else { vec![] },
                    kind,
                }),
                keys: vec![SortKey { field: 0, asc: true, float: false }],
                limit: None,
            };
            let phys = decompose(&cat, &plan, vec![]);
            let a = execute_vectorized(&cat, &plan, &phys).unwrap();
            let b = execute_volcano(&cat, &plan, &phys).unwrap();
            assert_eq!(a, b, "{kind:?}");
        }
    }
}
