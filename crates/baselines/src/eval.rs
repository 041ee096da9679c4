//! Shared interpreted expression evaluation over u64-encoded values
//! (sign-extended integers / f64 bit patterns — the same representation the
//! compiling engine uses, so results compare exactly).

use aqe_engine::plan::{ArithOp, CmpOp, PExpr, PhysicalPlan, SortKey};
use aqe_vm::interp::ExecError;
use std::cmp::Ordering;

/// Evaluate an expression against one tuple. `dicts` resolves
/// `PExpr::DictLookup` tables.
pub fn eval(e: &PExpr, row: &[u64], plan: &PhysicalPlan) -> Result<u64, ExecError> {
    Ok(match e {
        PExpr::Col(i) => row[*i],
        PExpr::ConstI(c) => *c as u64,
        PExpr::ConstF(c) => c.to_bits(),
        PExpr::Arith { op, checked, float, a, b } => {
            let (x, y) = (eval(a, row, plan)?, eval(b, row, plan)?);
            if *float {
                let (x, y) = (f64::from_bits(x), f64::from_bits(y));
                let r = match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                };
                r.to_bits()
            } else {
                let (x, y) = (x as i64, y as i64);
                let r = match (op, checked) {
                    (ArithOp::Add, true) => x.checked_add(y).ok_or(ExecError::Overflow)?,
                    (ArithOp::Sub, true) => x.checked_sub(y).ok_or(ExecError::Overflow)?,
                    (ArithOp::Mul, true) => x.checked_mul(y).ok_or(ExecError::Overflow)?,
                    (ArithOp::Add, false) => x.wrapping_add(y),
                    (ArithOp::Sub, false) => x.wrapping_sub(y),
                    (ArithOp::Mul, false) => x.wrapping_mul(y),
                    (ArithOp::Div, _) => {
                        if y == 0 {
                            return Err(ExecError::DivByZero);
                        }
                        if x == i64::MIN && y == -1 {
                            return Err(ExecError::Overflow);
                        }
                        x / y
                    }
                };
                r as u64
            }
        }
        PExpr::Cmp { op, float, a, b } => {
            let (x, y) = (eval(a, row, plan)?, eval(b, row, plan)?);
            let r = if *float {
                let (x, y) = (f64::from_bits(x), f64::from_bits(y));
                match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                }
            } else {
                let (x, y) = (x as i64, y as i64);
                match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                }
            };
            r as u64
        }
        PExpr::And(a, b) => eval(a, row, plan)? & eval(b, row, plan)? & 1,
        PExpr::Or(a, b) => (eval(a, row, plan)? | eval(b, row, plan)?) & 1,
        PExpr::Not(a) => (eval(a, row, plan)? ^ 1) & 1,
        PExpr::InList { v, list } => {
            let x = eval(v, row, plan)? as i64;
            list.contains(&x) as u64
        }
        PExpr::Case { cond, t, f, .. } => {
            if eval(cond, row, plan)? & 1 != 0 {
                eval(t, row, plan)?
            } else {
                eval(f, row, plan)?
            }
        }
        PExpr::DictLookup { v, table, elem_size } => {
            let code = eval(v, row, plan)? as usize;
            let d = &plan.dicts[*table];
            match elem_size {
                1 => d.bytes[code] as u64,
                _ => {
                    let b = &d.bytes[code * 4..code * 4 + 4];
                    u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as u64
                }
            }
        }
        PExpr::IToF(v) => ((eval(v, row, plan)? as i64) as f64).to_bits(),
        // The baselines replay fixed statements; bind parameters belong to
        // the session layer's prepared-query path.
        PExpr::Param { .. } => {
            return Err(ExecError::Setup("baseline evaluators do not bind parameters".into()))
        }
    })
}

/// Truthiness of a predicate result.
pub fn truthy(v: u64) -> bool {
    v & 1 != 0
}

/// Order rows by `keys` and keep the first `limit`. The sort is stable
/// (ties keep their input order); integers compare as `i64`, floats by
/// `f64::total_cmp`, and a descending key reverses its order — the
/// contract the engine's sort sink implements, written out separately so
/// that a bug in the engine's sort shows up against these engines.
pub fn sort_rows(rows: &mut Vec<Vec<u64>>, keys: &[SortKey], limit: Option<usize>) {
    rows.sort_by(|x, y| {
        keys.iter()
            .map(|k| {
                let (a, b) = (x[k.field], y[k.field]);
                let ord = if k.float {
                    f64::from_bits(a).total_cmp(&f64::from_bits(b))
                } else {
                    (a as i64).cmp(&(b as i64))
                };
                if k.asc {
                    ord
                } else {
                    ord.reverse()
                }
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    if let Some(l) = limit {
        rows.truncate(l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqe_engine::plan::PExpr as E;

    fn plan() -> PhysicalPlan {
        PhysicalPlan {
            pipelines: vec![],
            join_hts: vec![],
            aggs: vec![],
            mats: vec![],
            dicts: vec![],
            state_slots: 0,
            output_tys: vec![],
            sorted_output: false,
            params: vec![],
            param_slot: None,
        }
    }

    #[test]
    fn arithmetic_and_comparison() {
        let p = plan();
        let row = [10u64, (-3i64) as u64];
        let e = E::arith(ArithOp::Mul, true, false, E::Col(0), E::Col(1));
        assert_eq!(eval(&e, &row, &p).unwrap() as i64, -30);
        let c = E::cmp(CmpOp::Lt, false, E::Col(1), E::ConstI(0));
        assert_eq!(eval(&c, &row, &p).unwrap(), 1);
    }

    #[test]
    fn overflow_detected() {
        let p = plan();
        let row = [i64::MAX as u64];
        let e = E::arith(ArithOp::Add, true, false, E::Col(0), E::ConstI(1));
        assert_eq!(eval(&e, &row, &p), Err(ExecError::Overflow));
    }

    #[test]
    fn float_math() {
        let p = plan();
        let row = [2.5f64.to_bits()];
        let e = E::arith(ArithOp::Mul, false, true, E::Col(0), E::ConstF(4.0));
        assert_eq!(f64::from_bits(eval(&e, &row, &p).unwrap()), 10.0);
    }

    #[test]
    fn sort_is_stable_per_key_direction_and_limited() {
        let key = |field, asc, float| SortKey { field, asc, float };
        // (a, b): a ascending, b descending; the last column tags input order.
        let mut rows =
            vec![vec![2, 10, 0], vec![1, 20, 1], vec![2, 30, 2], vec![1, 5, 3], vec![2, 10, 4]];
        sort_rows(&mut rows, &[key(0, true, false), key(1, false, false)], None);
        let tags: Vec<u64> = rows.iter().map(|r| r[2]).collect();
        assert_eq!(tags, vec![1, 3, 2, 0, 4], "ties keep their input order");

        let mut neg = vec![vec![5], vec![(-7i64) as u64], vec![0]];
        sort_rows(&mut neg, &[key(0, true, false)], Some(2));
        assert_eq!(neg, vec![vec![(-7i64) as u64], vec![0]], "signed compare, then LIMIT");

        let mut floats: Vec<Vec<u64>> =
            [3.5f64, 1.5, 9.0, -2.0].iter().map(|f| vec![f.to_bits()]).collect();
        sort_rows(&mut floats, &[key(0, false, true)], Some(2));
        let vals: Vec<f64> = floats.iter().map(|r| f64::from_bits(r[0])).collect();
        assert_eq!(vals, vec![9.0, 3.5]);
    }

    #[test]
    fn case_and_inlist() {
        let p = plan();
        let row = [7u64];
        let e = E::Case {
            cond: Box::new(E::InList { v: E::coli(0), list: vec![5, 7, 9] }),
            t: Box::new(E::ConstI(1)),
            f: Box::new(E::ConstI(0)),
            float: false,
        };
        assert_eq!(eval(&e, &row, &p).unwrap(), 1);
    }
}
