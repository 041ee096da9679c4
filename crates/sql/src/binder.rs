//! Semantic analysis + optimization: AST → physical plan.
//!
//! Responsibilities (Fig. 1's "Semantic Analysis" and "Optimizer" boxes):
//! name resolution against the catalog, type derivation, projection pruning
//! (scans read only referenced columns), predicate pushdown into scans,
//! `avg` expansion, string-literal → dictionary-code folding, `LIKE` →
//! dictionary bitmaps, and lowering to the engine's physical plan.

use crate::lexer::tokenize;
use crate::parser::{parse, Ast, SelectStmt};
use aqe_engine::plan::{
    AggFunc, AggSpec, ArithOp, CmpOp, DictTable, FieldTy, JoinKind, PExpr, PlanNode, SortKey,
};
use aqe_storage::date::parse_date;
use aqe_storage::{Catalog, DataType};
use std::fmt;
use std::sync::Arc;

#[derive(Clone, Debug)]
pub struct PlanError(pub String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan error: {}", self.0)
    }
}
impl std::error::Error for PlanError {}

fn err<T>(m: impl Into<String>) -> Result<T, PlanError> {
    Err(PlanError(m.into()))
}

/// The bound query: plan + dictionaries + output names.
pub struct BoundQuery {
    pub root: PlanNode,
    pub dicts: Vec<DictTable>,
    pub output_names: Vec<String>,
}

struct TableRef {
    name: String,
    /// Referenced column indices (projection pruning) in field order.
    used_cols: Vec<usize>,
}

struct Binder<'a> {
    cat: &'a Catalog,
    tables: Vec<TableRef>,
    dicts: Vec<DictTable>,
    /// SQL-level type of each bind parameter, indexed by slot. User-written
    /// placeholders are `Other` (the caller binds representation values:
    /// decimals as hundredths, dates as day numbers); generalized literals
    /// keep the literal's type so fixed-point coercion applies identically.
    param_tys: Vec<SqlTy>,
}

impl<'a> Binder<'a> {
    /// Resolve `[table.]col` to (table index, column index, type).
    fn resolve(
        &self,
        table: &Option<String>,
        name: &str,
    ) -> Result<(usize, usize, DataType), PlanError> {
        for (ti, tr) in self.tables.iter().enumerate() {
            if let Some(t) = table {
                if *t != tr.name {
                    continue;
                }
            }
            let tab = self.cat.get(&tr.name).unwrap();
            if let Some(ci) = tab.column_index(name) {
                return Ok((ti, ci, tab.column_type(ci)));
            }
            if table.is_some() {
                return err(format!("column {name} not in {}", tr.name));
            }
        }
        err(format!("unknown column {name}"))
    }

    /// Note a column use; returns its position within the table's pruned
    /// column list.
    fn use_col(&mut self, ti: usize, ci: usize) -> usize {
        let used = &mut self.tables[ti].used_cols;
        match used.iter().position(|&c| c == ci) {
            Some(p) => p,
            None => {
                used.push(ci);
                used.len() - 1
            }
        }
    }
}

/// Collect all column references of an expression.
fn walk_cols(b: &mut Binder, ast: &Ast) -> Result<(), PlanError> {
    match ast {
        Ast::Col { table, name } => {
            let (ti, ci, _) = b.resolve(table, name)?;
            b.use_col(ti, ci);
            Ok(())
        }
        Ast::Bin { a, b: bb, .. } => {
            walk_cols(b, a)?;
            walk_cols(b, bb)
        }
        Ast::Not(a) => walk_cols(b, a),
        Ast::Between { v, lo, hi } => {
            walk_cols(b, v)?;
            walk_cols(b, lo)?;
            walk_cols(b, hi)
        }
        Ast::InList { v, list } => {
            walk_cols(b, v)?;
            list.iter().try_for_each(|e| walk_cols(b, e))
        }
        Ast::Like { v, .. } => walk_cols(b, v),
        Ast::Agg { arg, .. } => arg.as_deref().map_or(Ok(()), |a| walk_cols(b, a)),
        Ast::Case { cond, t, f } => {
            walk_cols(b, cond)?;
            walk_cols(b, t)?;
            walk_cols(b, f)
        }
        _ => Ok(()),
    }
}

/// Which tables an expression touches (by index); used for pushdown.
fn tables_of(b: &Binder, ast: &Ast, out: &mut Vec<usize>) {
    match ast {
        Ast::Col { table, name } => {
            if let Ok((ti, _, _)) = b.resolve(table, name) {
                if !out.contains(&ti) {
                    out.push(ti);
                }
            }
        }
        Ast::Bin { a, b: bb, .. } => {
            tables_of(b, a, out);
            tables_of(b, bb, out);
        }
        Ast::Not(a) | Ast::Like { v: a, .. } => tables_of(b, a, out),
        Ast::Between { v, lo, hi } => {
            tables_of(b, v, out);
            tables_of(b, lo, out);
            tables_of(b, hi, out);
        }
        Ast::InList { v, list } => {
            tables_of(b, v, out);
            list.iter().for_each(|e| tables_of(b, e, out));
        }
        Ast::Agg { arg: Some(a), .. } => tables_of(b, a, out),
        Ast::Case { cond, t, f } => {
            tables_of(b, cond, out);
            tables_of(b, t, out);
            tables_of(b, f, out);
        }
        _ => {}
    }
}

/// Simple SQL LIKE matcher (`%` wildcards only — TPC-H needs nothing more).
fn like_match(pattern: &str, s: &str) -> bool {
    let parts: Vec<&str> = pattern.split('%').collect();
    let mut pos = 0;
    for (i, p) in parts.iter().enumerate() {
        if p.is_empty() {
            continue;
        }
        if i == 0 {
            if !s.starts_with(p) {
                return false;
            }
            pos = p.len();
        } else if i == parts.len() - 1 && !pattern.ends_with('%') {
            return s.len() >= pos && s[pos..].ends_with(p);
        } else {
            match s[pos..].find(p) {
                Some(at) => pos += at + p.len(),
                None => return false,
            }
        }
    }
    true
}

/// Field environment: maps (table, col) to a pipeline field index.
struct Env {
    fields: Vec<(usize, usize, FieldTy)>,
}

impl Env {
    fn index_of(&self, ti: usize, ci: usize) -> Option<(usize, FieldTy)> {
        self.fields.iter().position(|&(t, c, _)| t == ti && c == ci).map(|p| (p, self.fields[p].2))
    }
}

fn field_ty(dt: DataType) -> FieldTy {
    match dt {
        DataType::Float64 => FieldTy::F64,
        _ => FieldTy::I64,
    }
}

/// SQL-level type used for literal coercion: integer literals compared with
/// (or added to) fixed-point decimal columns are scaled to hundredths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SqlTy {
    Int,
    Dec,
    Other,
}

fn sql_ty(dt: DataType) -> SqlTy {
    match dt {
        DataType::Decimal => SqlTy::Dec,
        DataType::Int32 | DataType::Int64 => SqlTy::Int,
        _ => SqlTy::Other,
    }
}

/// Scale a plain integer expression to hundredths when the other side is a
/// fixed-point decimal.
fn coerce_dec(e: PExpr, ty: SqlTy, other: SqlTy) -> (PExpr, SqlTy) {
    if ty == SqlTy::Int && other == SqlTy::Dec {
        (PExpr::arith(ArithOp::Mul, false, false, e, PExpr::ConstI(100)), SqlTy::Dec)
    } else {
        (e, ty)
    }
}

fn ast_sql_ty(b: &Binder, ast: &Ast) -> SqlTy {
    match ast {
        Ast::Col { table, name } => {
            b.resolve(table, name).map(|(_, _, dt)| sql_ty(dt)).unwrap_or(SqlTy::Other)
        }
        Ast::Int(_) => SqlTy::Int,
        Ast::Dec(_) => SqlTy::Dec,
        Ast::Param(n) => {
            n.and_then(|k| b.param_tys.get(k as usize - 1).copied()).unwrap_or(SqlTy::Other)
        }
        Ast::Bin { op, a, b: bb } if matches!(op.as_str(), "+" | "-" | "*" | "/") => {
            let (ta, tb) = (ast_sql_ty(b, a), ast_sql_ty(b, bb));
            if ta == SqlTy::Dec || tb == SqlTy::Dec {
                SqlTy::Dec
            } else if ta == SqlTy::Int && tb == SqlTy::Int {
                SqlTy::Int
            } else {
                SqlTy::Other
            }
        }
        _ => SqlTy::Other,
    }
}

/// Lower an AST expression to a `PExpr` over the environment.
fn lower_expr(b: &mut Binder, env: &Env, ast: &Ast) -> Result<(PExpr, FieldTy), PlanError> {
    Ok(match ast {
        Ast::Col { table, name } => {
            let (ti, ci, dt) = b.resolve(table, name)?;
            let (idx, _) = env
                .index_of(ti, ci)
                .ok_or_else(|| PlanError(format!("column {name} not in scope")))?;
            (PExpr::Col(idx), field_ty(dt))
        }
        Ast::Int(v) => (PExpr::ConstI(*v), FieldTy::I64),
        Ast::Dec(v) => (PExpr::ConstI(*v), FieldTy::I64),
        Ast::DateLit(s) => (PExpr::ConstI(parse_date(s) as i64), FieldTy::I64),
        Ast::Param(n) => {
            // Normalized upstream: every placeholder carries a 1-based slot.
            let idx = n.ok_or_else(|| PlanError("unnumbered parameter".into()))? as usize - 1;
            (PExpr::Param { idx, ty: FieldTy::I64 }, FieldTy::I64)
        }
        Ast::Str(_) => return err("string literal outside comparison"),
        Ast::Like { v, pattern } => {
            let Ast::Col { table, name } = v.as_ref() else {
                return err("LIKE requires a column");
            };
            let (ti, ci, dt) = b.resolve(table, name)?;
            if dt != DataType::Str {
                return err("LIKE on non-string column");
            }
            let (idx, _) = env.index_of(ti, ci).ok_or_else(|| PlanError("scope".into()))?;
            let tab = b.cat.get(&b.tables[ti].name).unwrap();
            let bitmap = tab.column(ci).as_str().unwrap().match_bitmap(|s| like_match(pattern, s));
            b.dicts.push(DictTable { bytes: Arc::new(bitmap), elem_size: 1, state_slot: 0 });
            let tblid = b.dicts.len() - 1;
            (
                PExpr::cmp(
                    CmpOp::Ne,
                    false,
                    PExpr::DictLookup { v: Box::new(PExpr::Col(idx)), table: tblid, elem_size: 1 },
                    PExpr::ConstI(0),
                ),
                FieldTy::I64,
            )
        }
        Ast::Bin { op, a, b: bb } => {
            // String equality folds to a dictionary-code comparison.
            if matches!(op.as_str(), "=" | "<>") {
                if let (Ast::Col { table, name }, Ast::Str(s)) = (a.as_ref(), bb.as_ref()) {
                    let (ti, ci, dt) = b.resolve(table, name)?;
                    if dt == DataType::Str {
                        let code = b
                            .cat
                            .get(&b.tables[ti].name)
                            .unwrap()
                            .column(ci)
                            .as_str()
                            .unwrap()
                            .code_of(s)
                            .map(|c| c as i64)
                            .unwrap_or(-1);
                        let (idx, _) =
                            env.index_of(ti, ci).ok_or_else(|| PlanError("scope".into()))?;
                        let cmp = if op == "=" { CmpOp::Eq } else { CmpOp::Ne };
                        return Ok((
                            PExpr::cmp(cmp, false, PExpr::Col(idx), PExpr::ConstI(code)),
                            FieldTy::I64,
                        ));
                    }
                }
            }
            let (sa, sb) = (ast_sql_ty(b, a), ast_sql_ty(b, bb));
            let (pa, ta) = lower_expr(b, env, a)?;
            let (pb, tb) = lower_expr(b, env, bb)?;
            let float = ta == FieldTy::F64 || tb == FieldTy::F64;
            let coerce = |e: PExpr, t: FieldTy| {
                if float && t == FieldTy::I64 {
                    PExpr::IToF(Box::new(e))
                } else {
                    e
                }
            };
            let (pa, pb) = (coerce(pa, ta), coerce(pb, tb));
            // Fixed-point coercion for comparisons and additive arithmetic.
            let (pa, pb) = if !float
                && matches!(op.as_str(), "=" | "<>" | "<" | "<=" | ">" | ">=" | "+" | "-")
            {
                let (pa, _) = coerce_dec(pa, sa, sb);
                let (pb, _) = coerce_dec(pb, sb, sa);
                (pa, pb)
            } else {
                (pa, pb)
            };
            match op.as_str() {
                "and" => (PExpr::and(pa, pb), FieldTy::I64),
                "or" => (PExpr::or(pa, pb), FieldTy::I64),
                "=" => (PExpr::cmp(CmpOp::Eq, float, pa, pb), FieldTy::I64),
                "<>" => (PExpr::cmp(CmpOp::Ne, float, pa, pb), FieldTy::I64),
                "<" => (PExpr::cmp(CmpOp::Lt, float, pa, pb), FieldTy::I64),
                "<=" => (PExpr::cmp(CmpOp::Le, float, pa, pb), FieldTy::I64),
                ">" => (PExpr::cmp(CmpOp::Gt, float, pa, pb), FieldTy::I64),
                ">=" => (PExpr::cmp(CmpOp::Ge, float, pa, pb), FieldTy::I64),
                "+" => (
                    PExpr::arith(ArithOp::Add, !float, float, pa, pb),
                    if float { FieldTy::F64 } else { FieldTy::I64 },
                ),
                "-" => (
                    PExpr::arith(ArithOp::Sub, !float, float, pa, pb),
                    if float { FieldTy::F64 } else { FieldTy::I64 },
                ),
                "*" => (
                    PExpr::arith(ArithOp::Mul, !float, float, pa, pb),
                    if float { FieldTy::F64 } else { FieldTy::I64 },
                ),
                "/" => (
                    PExpr::arith(ArithOp::Div, false, float, pa, pb),
                    if float { FieldTy::F64 } else { FieldTy::I64 },
                ),
                other => return err(format!("unknown operator {other}")),
            }
        }
        Ast::Not(a) => {
            let (p, _) = lower_expr(b, env, a)?;
            (PExpr::Not(Box::new(p)), FieldTy::I64)
        }
        Ast::Between { v, lo, hi } => {
            let (sv, sl, sh) = (ast_sql_ty(b, v), ast_sql_ty(b, lo), ast_sql_ty(b, hi));
            let (pv, tv) = lower_expr(b, env, v)?;
            let (pl, _) = lower_expr(b, env, lo)?;
            let (ph, _) = lower_expr(b, env, hi)?;
            let (pl, _) = coerce_dec(pl, sl, sv);
            let (ph, _) = coerce_dec(ph, sh, sv);
            let float = tv == FieldTy::F64;
            (
                PExpr::and(
                    PExpr::cmp(CmpOp::Ge, float, pv.clone(), pl),
                    PExpr::cmp(CmpOp::Le, float, pv, ph),
                ),
                FieldTy::I64,
            )
        }
        Ast::InList { v, list } => {
            // String lists fold to code lists.
            if let Ast::Col { table, name } = v.as_ref() {
                let (ti, ci, dt) = b.resolve(table, name)?;
                if dt == DataType::Str {
                    let sc = b.cat.get(&b.tables[ti].name).unwrap();
                    let col = sc.column(ci).as_str().unwrap();
                    let mut codes = Vec::new();
                    for item in list {
                        let Ast::Str(s) = item else {
                            return err("mixed IN list");
                        };
                        codes.push(col.code_of(s).map(|c| c as i64).unwrap_or(-1));
                    }
                    let (idx, _) = env.index_of(ti, ci).ok_or_else(|| PlanError("scope".into()))?;
                    return Ok((
                        PExpr::InList { v: Box::new(PExpr::Col(idx)), list: codes },
                        FieldTy::I64,
                    ));
                }
            }
            let (pv, _) = lower_expr(b, env, v)?;
            let mut codes = Vec::new();
            for item in list {
                match item {
                    Ast::Int(v) => codes.push(*v),
                    Ast::Dec(v) => codes.push(*v),
                    Ast::DateLit(s) => codes.push(parse_date(s) as i64),
                    Ast::Param(_) => return err("parameters are not supported in IN lists"),
                    _ => return err("unsupported IN list element"),
                }
            }
            (PExpr::InList { v: Box::new(pv), list: codes }, FieldTy::I64)
        }
        Ast::Case { cond, t, f } => {
            let (pc, _) = lower_expr(b, env, cond)?;
            let (pt, tt) = lower_expr(b, env, t)?;
            let (pf, _) = lower_expr(b, env, f)?;
            let float = tt == FieldTy::F64;
            (
                PExpr::Case { cond: Box::new(pc), t: Box::new(pt), f: Box::new(pf), float },
                if float { FieldTy::F64 } else { FieldTy::I64 },
            )
        }
        Ast::Agg { .. } => return err("aggregate in scalar context"),
    })
}

/// Assign dense slot indices to bind parameters: `?` placeholders number in
/// appearance order, `$n` placeholders use their explicit 1-based number
/// (mixing the two styles is rejected, as is a numbering gap). Returns the
/// parameter count.
fn normalize_params(stmt: &mut SelectStmt) -> Result<usize, PlanError> {
    fn walk(
        a: &mut Ast,
        f: &mut impl FnMut(&mut Option<u32>) -> Result<(), PlanError>,
    ) -> Result<(), PlanError> {
        match a {
            Ast::Param(n) => f(n),
            Ast::Bin { a, b, .. } => {
                walk(a, f)?;
                walk(b, f)
            }
            Ast::Not(x) => walk(x, f),
            Ast::Between { v, lo, hi } => {
                walk(v, f)?;
                walk(lo, f)?;
                walk(hi, f)
            }
            Ast::InList { v, list } => {
                walk(v, f)?;
                list.iter_mut().try_for_each(|e| walk(e, f))
            }
            Ast::Like { v, .. } => walk(v, f),
            Ast::Agg { arg, .. } => arg.as_deref_mut().map_or(Ok(()), |x| walk(x, f)),
            Ast::Case { cond, t, f: fa } => {
                walk(cond, f)?;
                walk(t, f)?;
                walk(fa, f)
            }
            _ => Ok(()),
        }
    }
    let (mut next, mut max) = (0u32, 0u32);
    let mut seen: Vec<u32> = Vec::new();
    let mut positional: Option<bool> = None;
    let mut visit = |n: &mut Option<u32>| -> Result<(), PlanError> {
        let style = n.is_none();
        if positional.replace(style).is_some_and(|prev| prev != style) {
            return err("cannot mix ? and $n parameter styles");
        }
        match *n {
            None => {
                next += 1;
                *n = Some(next);
            }
            Some(k) => {
                max = max.max(k);
                if !seen.contains(&k) {
                    seen.push(k);
                }
            }
        }
        Ok(())
    };
    for (e, _) in stmt.select.iter_mut() {
        walk(e, &mut visit)?;
    }
    if let Some(w) = stmt.where_.as_mut() {
        walk(w, &mut visit)?;
    }
    for e in stmt.group_by.iter_mut() {
        walk(e, &mut visit)?;
    }
    for (e, _) in stmt.order_by.iter_mut() {
        walk(e, &mut visit)?;
    }
    if positional == Some(false) {
        for k in 1..=max {
            if !seen.contains(&k) {
                return err(format!("parameter ${k} is never used"));
            }
        }
        Ok(max as usize)
    } else {
        Ok(next as usize)
    }
}

/// Rewrite `Int`/`Dec`/`DateLit` operands of comparisons and `BETWEEN`
/// bounds into bind parameters, appending each literal's value (decimals as
/// hundredths, dates as day numbers) and SQL type. String literals stay
/// baked: they fold to catalog-dependent dictionary codes.
fn generalize_literals(ast: &mut Ast, values: &mut Vec<i64>, tys: &mut Vec<SqlTy>) {
    fn slot(a: &mut Ast, values: &mut Vec<i64>, tys: &mut Vec<SqlTy>) {
        let (v, t) = match &*a {
            Ast::Int(v) => (*v, SqlTy::Int),
            Ast::Dec(v) => (*v, SqlTy::Dec),
            Ast::DateLit(s) => (parse_date(s) as i64, SqlTy::Other),
            _ => return,
        };
        values.push(v);
        tys.push(t);
        *a = Ast::Param(Some(values.len() as u32));
    }
    match ast {
        Ast::Bin { op, a, b } if matches!(op.as_str(), "=" | "<>" | "<" | "<=" | ">" | ">=") => {
            if matches!(a.as_ref(), Ast::Str(_)) || matches!(b.as_ref(), Ast::Str(_)) {
                return;
            }
            slot(a, values, tys);
            slot(b, values, tys);
        }
        Ast::Bin { op, a, b } if matches!(op.as_str(), "and" | "or") => {
            generalize_literals(a, values, tys);
            generalize_literals(b, values, tys);
        }
        Ast::Not(a) => generalize_literals(a, values, tys),
        Ast::Between { lo, hi, .. } => {
            slot(lo, values, tys);
            slot(hi, values, tys);
        }
        _ => {}
    }
}

/// Plan a SQL string against a catalog.
pub fn plan_sql(cat: &Catalog, sql: &str) -> Result<BoundQuery, PlanError> {
    let mut stmt = parse(tokenize(sql).map_err(PlanError)?).map_err(PlanError)?;
    let n = normalize_params(&mut stmt)?;
    plan_select(cat, &stmt, vec![SqlTy::Other; n])
}

/// Plan a SQL string after generalizing its comparison literals into bind
/// parameters, so textually different statements that differ only in those
/// literals share one plan fingerprint (and therefore one retained compiled
/// state). Returns the parameterized query plus the literal values extracted
/// from this statement, in slot order, ready to bind.
pub fn plan_sql_generalized(cat: &Catalog, sql: &str) -> Result<(BoundQuery, Vec<i64>), PlanError> {
    let mut stmt = parse(tokenize(sql).map_err(PlanError)?).map_err(PlanError)?;
    if normalize_params(&mut stmt)? != 0 {
        return err("cannot generalize a statement that already contains parameters");
    }
    let mut values = Vec::new();
    let mut tys = Vec::new();
    if let Some(w) = stmt.where_.as_mut() {
        generalize_literals(w, &mut values, &mut tys);
    }
    let bq = plan_select(cat, &stmt, tys)?;
    Ok((bq, values))
}

fn plan_select(
    cat: &Catalog,
    stmt: &SelectStmt,
    param_tys: Vec<SqlTy>,
) -> Result<BoundQuery, PlanError> {
    let mut tables = vec![TableRef { name: stmt.from.clone(), used_cols: vec![] }];
    for j in &stmt.joins {
        tables.push(TableRef { name: j.table.clone(), used_cols: vec![] });
    }
    for t in &tables {
        if cat.get(&t.name).is_none() {
            return err(format!("unknown table {}", t.name));
        }
    }
    let mut b = Binder { cat, tables, dicts: vec![], param_tys };

    // 1. Collect every referenced column (projection pruning), including
    //    join keys.
    for (e, _) in &stmt.select {
        walk_cols(&mut b, e)?;
    }
    let mut join_keys = Vec::new();
    for j in &stmt.joins {
        let (lt, lc, ld) = b.resolve(&j.on_left.0, &j.on_left.1)?;
        let (rt, rc, rd) = b.resolve(&j.on_right.0, &j.on_right.1)?;
        let _ = (ld, rd);
        b.use_col(lt, lc);
        b.use_col(rt, rc);
        join_keys.push(((lt, lc), (rt, rc)));
    }
    if let Some(w) = &stmt.where_ {
        walk_cols(&mut b, w)?;
    }
    for e in &stmt.group_by {
        walk_cols(&mut b, e)?;
    }
    for (e, _) in &stmt.order_by {
        if !matches!(e, Ast::Col { .. }) || order_key_is_output(stmt, e) {
            continue;
        }
        walk_cols(&mut b, e)?;
    }

    // 2. Split WHERE into per-table conjuncts (pushdown) and residue.
    let mut conjuncts = Vec::new();
    if let Some(w) = &stmt.where_ {
        split_conjuncts(w, &mut conjuncts);
    }
    let mut pushed: Vec<Vec<Ast>> = (0..b.tables.len()).map(|_| Vec::new()).collect();
    let mut residue: Vec<Ast> = Vec::new();
    for cj in conjuncts {
        let mut ts = Vec::new();
        tables_of(&b, &cj, &mut ts);
        if ts.len() == 1 {
            pushed[ts[0]].push(cj);
        } else {
            residue.push(cj);
        }
    }

    // 3. Build scans + left-deep join tree: `from` is the probe side,
    //    joined tables build (they are the smaller dimension sides in the
    //    workloads this frontend serves).
    let mk_scan =
        |b: &mut Binder, ti: usize, filters: &[Ast]| -> Result<(PlanNode, Env), PlanError> {
            let cols = b.tables[ti].used_cols.clone();
            let tab = cat.get(&b.tables[ti].name).unwrap();
            let env = Env {
                fields: cols.iter().map(|&c| (ti, c, field_ty(tab.column_type(c)))).collect(),
            };
            let mut filter = None;
            for f in filters {
                let (p, _) = lower_expr(b, &env, f)?;
                filter = Some(match filter {
                    None => p,
                    Some(prev) => PExpr::and(prev, p),
                });
            }
            Ok((PlanNode::Scan { table: b.tables[ti].name.clone(), cols, filter }, env))
        };

    let (mut plan, mut env) = mk_scan(&mut b, 0, &pushed[0].clone())?;
    for (ji, j) in stmt.joins.iter().enumerate() {
        let ti = ji + 1;
        let (build, benv) = mk_scan(&mut b, ti, &pushed[ti].clone())?;
        let ((lt, lc), (rt, rc)) = join_keys[ji];
        // Which side of ON belongs to the new table?
        let ((bt, bc), (pt, pc)) =
            if lt == ti { ((lt, lc), (rt, rc)) } else { ((rt, rc), (lt, lc)) };
        let bkey = benv.index_of(bt, bc).ok_or_else(|| PlanError("join key".into()))?.0;
        let pkey = env
            .index_of(pt, pc)
            .ok_or_else(|| PlanError(format!("join key not in scope for {}", j.table)))?
            .0;
        // Payload: every used column of the build table.
        let payload: Vec<usize> = (0..benv.fields.len()).collect();
        env.fields.extend(benv.fields.iter().copied());
        plan = PlanNode::HashJoin {
            build: Box::new(build),
            probe: Box::new(plan),
            build_keys: vec![bkey],
            probe_keys: vec![pkey],
            build_payload: payload,
            kind: JoinKind::Inner,
        };
    }
    for r in residue {
        let (p, _) = lower_expr(&mut b, &env, &r)?;
        plan = PlanNode::Filter { input: Box::new(plan), pred: p };
    }

    // 4. Aggregation / projection.
    let has_agg =
        stmt.select.iter().any(|(e, _)| matches!(e, Ast::Agg { .. })) || !stmt.group_by.is_empty();
    let mut output_names = Vec::new();
    if has_agg {
        // Pre-project: group keys then agg args.
        let mut pre: Vec<PExpr> = Vec::new();
        let mut pre_tys: Vec<FieldTy> = Vec::new();
        for g in &stmt.group_by {
            let (p, t) = lower_expr(&mut b, &env, g)?;
            pre.push(p);
            pre_tys.push(t);
        }
        let ngroup = pre.len();
        let mut aggs: Vec<AggSpec> = Vec::new();
        // (select index) -> result expression over [keys…, accs…]
        let mut select_out: Vec<PExpr> = Vec::new();
        for (e, alias) in &stmt.select {
            output_names.push(alias.clone().unwrap_or_else(|| e_name(e)));
            match e {
                Ast::Agg { func, arg } => {
                    let (arg_p, arg_t) = match arg {
                        Some(a) => {
                            let (p, t) = lower_expr(&mut b, &env, a)?;
                            (Some(p), t)
                        }
                        None => (None, FieldTy::I64),
                    };
                    let float = arg_t == FieldTy::F64;
                    let push_acc =
                        |pre: &mut Vec<PExpr>, aggs: &mut Vec<AggSpec>, f: AggFunc, p: PExpr| {
                            pre.push(p);
                            let idx = pre.len() - 1;
                            aggs.push(AggSpec { func: f, arg: Some(PExpr::Col(idx)) });
                            ngroup + aggs.len() - 1
                        };
                    let out = match (func.as_str(), float) {
                        ("count", _) => {
                            aggs.push(AggSpec { func: AggFunc::CountStar, arg: None });
                            PExpr::Col(ngroup + aggs.len() - 1)
                        }
                        ("sum", false) => {
                            let i = push_acc(&mut pre, &mut aggs, AggFunc::SumI, arg_p.unwrap());
                            PExpr::Col(i)
                        }
                        ("sum", true) => {
                            let i = push_acc(&mut pre, &mut aggs, AggFunc::SumF, arg_p.unwrap());
                            PExpr::Col(i)
                        }
                        ("min", false) => {
                            let i = push_acc(&mut pre, &mut aggs, AggFunc::MinI, arg_p.unwrap());
                            PExpr::Col(i)
                        }
                        ("min", true) => {
                            let i = push_acc(&mut pre, &mut aggs, AggFunc::MinF, arg_p.unwrap());
                            PExpr::Col(i)
                        }
                        ("max", false) => {
                            let i = push_acc(&mut pre, &mut aggs, AggFunc::MaxI, arg_p.unwrap());
                            PExpr::Col(i)
                        }
                        ("max", true) => {
                            let i = push_acc(&mut pre, &mut aggs, AggFunc::MaxF, arg_p.unwrap());
                            PExpr::Col(i)
                        }
                        ("avg", false) => {
                            // avg → sum / count (integer division on cents).
                            let s = push_acc(&mut pre, &mut aggs, AggFunc::SumI, arg_p.unwrap());
                            aggs.push(AggSpec { func: AggFunc::CountStar, arg: None });
                            let n = ngroup + aggs.len() - 1;
                            PExpr::arith(ArithOp::Div, false, false, PExpr::Col(s), PExpr::Col(n))
                        }
                        ("avg", true) => {
                            let s = push_acc(&mut pre, &mut aggs, AggFunc::SumF, arg_p.unwrap());
                            aggs.push(AggSpec { func: AggFunc::CountStar, arg: None });
                            let n = ngroup + aggs.len() - 1;
                            PExpr::arith(
                                ArithOp::Div,
                                false,
                                true,
                                PExpr::Col(s),
                                PExpr::IToF(Box::new(PExpr::Col(n))),
                            )
                        }
                        (other, _) => return err(format!("unknown aggregate {other}")),
                    };
                    select_out.push(out);
                }
                other => {
                    // Must match a GROUP BY key.
                    let pos = stmt
                        .group_by
                        .iter()
                        .position(|g| g == other)
                        .ok_or_else(|| PlanError("select item not in GROUP BY".into()))?;
                    select_out.push(PExpr::Col(pos));
                }
            }
        }
        plan = PlanNode::Project { input: Box::new(plan), exprs: pre };
        plan = PlanNode::HashAgg { input: Box::new(plan), group_by: (0..ngroup).collect(), aggs };
        plan = PlanNode::Project { input: Box::new(plan), exprs: select_out };
        let _ = pre_tys;
    } else {
        let mut exprs = Vec::new();
        for (e, alias) in &stmt.select {
            output_names.push(alias.clone().unwrap_or_else(|| e_name(e)));
            let (p, _) = lower_expr(&mut b, &env, e)?;
            exprs.push(p);
        }
        plan = PlanNode::Project { input: Box::new(plan), exprs };
    }

    // 5. ORDER BY over output positions (by alias or select-expr equality).
    if !stmt.order_by.is_empty() || stmt.limit.is_some() {
        let mut keys = Vec::new();
        for (e, asc) in &stmt.order_by {
            let pos = match e {
                Ast::Col { table: None, name } => stmt
                    .select
                    .iter()
                    .position(|(se, alias)| {
                        alias.as_deref() == Some(name.as_str())
                            || matches!(se, Ast::Col { name: n, .. } if n == name)
                    })
                    .ok_or_else(|| PlanError(format!("ORDER BY {name} not in SELECT")))?,
                other => stmt
                    .select
                    .iter()
                    .position(|(se, _)| se == other)
                    .ok_or_else(|| PlanError("ORDER BY expr not in SELECT".into()))?,
            };
            keys.push(SortKey { field: pos, asc: *asc, float: false });
        }
        plan = PlanNode::Sort { input: Box::new(plan), keys, limit: stmt.limit };
    }

    Ok(BoundQuery { root: plan, dicts: b.dicts, output_names })
}

fn order_key_is_output(stmt: &SelectStmt, e: &Ast) -> bool {
    if let Ast::Col { table: None, name } = e {
        stmt.select.iter().any(|(_, alias)| alias.as_deref() == Some(name.as_str()))
    } else {
        false
    }
}

fn split_conjuncts(ast: &Ast, out: &mut Vec<Ast>) {
    match ast {
        Ast::Bin { op, a, b } if op == "and" => {
            split_conjuncts(a, out);
            split_conjuncts(b, out);
        }
        other => out.push(other.clone()),
    }
}

fn e_name(e: &Ast) -> String {
    match e {
        Ast::Col { name, .. } => name.clone(),
        Ast::Agg { func, .. } => func.clone(),
        _ => "expr".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqe_engine::exec::{ExecMode, ExecOptions, ParamValue};
    use aqe_engine::plan::decompose;
    use aqe_engine::session::Engine;
    use aqe_storage::tpch;

    /// The oracle: the Volcano engine over the statement's plan.
    fn volcano_sql(cat: &Catalog, sql: &str) -> Vec<u64> {
        let bound = plan_sql(cat, sql).unwrap();
        let phys = decompose(cat, &bound.root, bound.dicts.clone());
        aqe_baselines::execute_volcano(cat, &bound.root, &phys).unwrap()
    }

    fn run_sql(cat: &Catalog, sql: &str, mode: ExecMode) -> Vec<u64> {
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let bound = plan_sql(cat, sql).unwrap();
        let prepared = session.prepare(&bound.root, bound.dicts);
        let opts = ExecOptions { mode, threads: 1, ..Default::default() };
        session.execute_with(&prepared, &opts).unwrap().0.rows
    }

    #[test]
    fn sql_q6_matches_reference() {
        let cat = tpch::generate(0.005);
        let rows = run_sql(
            &cat,
            "SELECT sum(l_extendedprice * l_discount) FROM lineitem \
             WHERE l_shipdate >= date '1994-01-01' AND l_shipdate <= date '1994-12-31' \
             AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
            ExecMode::Bytecode,
        );
        // Reference
        let li = cat.get("lineitem").unwrap();
        let (q, e, d, s) = (
            li.column_by_name("l_quantity").unwrap(),
            li.column_by_name("l_extendedprice").unwrap(),
            li.column_by_name("l_discount").unwrap(),
            li.column_by_name("l_shipdate").unwrap(),
        );
        let (lo, hi) = (parse_date("1994-01-01") as i64, parse_date("1994-12-31") as i64);
        let mut expect = 0i64;
        for r in 0..li.row_count() {
            let (qv, ev, dv, sv) = (
                q.get_u64(r) as i64,
                e.get_u64(r) as i64,
                d.get_u64(r) as i64,
                s.get_u64(r) as i64,
            );
            if (lo..=hi).contains(&sv) && (5..=7).contains(&dv) && qv < 2400 {
                expect += ev * dv;
            }
        }
        assert_eq!(rows, vec![expect as u64]);
    }

    #[test]
    fn sql_join_group_order_runs_in_all_modes() {
        let cat = tpch::generate(0.005);
        let sql = "SELECT n_name, count(*) AS cnt, sum(s_acctbal) AS bal FROM supplier \
                   JOIN nation ON s_nationkey = n_nationkey \
                   WHERE s_acctbal > 0 GROUP BY n_name ORDER BY cnt DESC, n_name LIMIT 5";
        let reference = volcano_sql(&cat, sql);
        for mode in
            [ExecMode::Bytecode, ExecMode::NativeUnopt, ExecMode::Native, ExecMode::Adaptive]
        {
            assert_eq!(run_sql(&cat, sql, mode), reference, "{mode:?}");
        }
        assert!(!reference.is_empty());
    }

    #[test]
    fn sql_like_and_string_eq() {
        let cat = tpch::generate(0.005);
        let rows = run_sql(
            &cat,
            "SELECT count(*) FROM part WHERE p_type LIKE '%BRASS' AND p_size < 20",
            ExecMode::Adaptive,
        );
        let part = cat.get("part").unwrap();
        let (ty, sz) = (
            part.column_by_name("p_type").unwrap().as_str().unwrap(),
            part.column_by_name("p_size").unwrap(),
        );
        let expect = (0..part.row_count())
            .filter(|&r| ty.value(r).ends_with("BRASS") && (sz.get_u64(r) as i64) < 20)
            .count() as u64;
        assert_eq!(rows, vec![expect]);
    }

    #[test]
    fn sql_avg_expansion() {
        let cat = tpch::generate(0.002);
        let rows = run_sql(&cat, "SELECT avg(l_quantity) FROM lineitem", ExecMode::Bytecode);
        let li = cat.get("lineitem").unwrap();
        let q = li.column_by_name("l_quantity").unwrap();
        let sum: i64 = (0..li.row_count()).map(|r| q.get_u64(r) as i64).sum();
        assert_eq!(rows[0] as i64, sum / li.row_count() as i64);
    }

    #[test]
    fn sql_bound_params_match_literal_plan() {
        let cat = tpch::generate(0.005);
        let expect = volcano_sql(
            &cat,
            "SELECT sum(l_extendedprice * l_discount) FROM lineitem \
             WHERE l_shipdate >= date '1994-01-01' AND l_shipdate <= date '1994-12-31' \
             AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
        );
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let bound = plan_sql(
            &cat,
            "SELECT sum(l_extendedprice * l_discount) FROM lineitem \
             WHERE l_shipdate >= ? AND l_shipdate <= ? \
             AND l_discount BETWEEN ? AND ? AND l_quantity < ?",
        )
        .unwrap();
        let prepared = session.prepare(&bound.root, bound.dicts);
        assert_eq!(prepared.param_types().len(), 5);
        // User-written placeholders bind representation values: day numbers
        // for dates, hundredths for decimals.
        let ps: Vec<ParamValue> =
            [parse_date("1994-01-01") as i64, parse_date("1994-12-31") as i64, 5, 7, 2400]
                .iter()
                .map(|&v| ParamValue::I64(v))
                .collect();
        let rows = session.execute_bound(&prepared, &ps).unwrap().0.rows;
        assert_eq!(rows, expect);
    }

    #[test]
    fn sql_generalization_shares_one_fingerprint() {
        let cat = tpch::generate(0.002);
        let sql_a = "SELECT count(*) FROM lineitem \
                     WHERE l_quantity < 24 AND l_discount BETWEEN 0.05 AND 0.07";
        let sql_b = "SELECT count(*) FROM lineitem \
                     WHERE l_quantity < 30 AND l_discount BETWEEN 0.02 AND 0.09";
        let (qa, va) = plan_sql_generalized(&cat, sql_a).unwrap();
        let (qb, vb) = plan_sql_generalized(&cat, sql_b).unwrap();
        assert_eq!(va, vec![24, 5, 7], "raw int, then cents");
        assert_eq!(vb, vec![30, 2, 9]);
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let pa = session.prepare(&qa.root, qa.dicts);
        let pb = session.prepare(&qb.root, qb.dicts);
        assert_eq!(pa.fingerprint(), pb.fingerprint(), "literals generalized away");
        for (p, v, sql) in [(&pa, &va, sql_a), (&pb, &vb, sql_b)] {
            let ps: Vec<ParamValue> = v.iter().map(|&x| ParamValue::I64(x)).collect();
            let rows = session.execute_bound(p, &ps).unwrap().0.rows;
            assert_eq!(rows, volcano_sql(&cat, sql), "{sql}");
        }
    }

    #[test]
    fn sql_param_misuse_is_rejected() {
        let cat = tpch::generate(0.001);
        let mixed = "SELECT count(*) FROM lineitem WHERE l_quantity < ? AND l_discount > $2";
        assert!(plan_sql(&cat, mixed).is_err(), "mixed styles");
        let gap = "SELECT count(*) FROM lineitem WHERE l_quantity < $2";
        assert!(plan_sql(&cat, gap).is_err(), "$1 never used");
        let inlist = "SELECT count(*) FROM lineitem WHERE l_linenumber IN (1, ?)";
        assert!(plan_sql(&cat, inlist).is_err(), "param in IN list");
    }

    #[test]
    fn sql_errors_are_reported() {
        let cat = tpch::generate(0.001);
        assert!(plan_sql(&cat, "SELECT nope FROM lineitem").is_err());
        assert!(plan_sql(&cat, "SELECT l_quantity FROM missing_table").is_err());
        assert!(plan_sql(&cat, "SELECT l_quantity, count(*) FROM lineitem").is_err());
    }

    #[test]
    fn like_matcher() {
        assert!(like_match("%BRASS", "LARGE BRASS"));
        assert!(!like_match("%BRASS", "BRASS PIN"));
        assert!(like_match("PROMO%", "PROMO TIN"));
        assert!(like_match("%special%requests%", "the special urgent requests today"));
        assert!(!like_match("%special%requests%", "special only"));
        assert!(like_match("%", "anything"));
    }
}
