//! Code generation: pipelines → IR worker functions (paper Fig. 4).
//!
//! Every pipeline becomes one `worker(wctx, state, morsel_begin, morsel_end)`
//! function: "Each worker function requires two arguments: the state (e.g.,
//! intermediate query processing hash tables) and a morsel, which determines
//! the range of values to process." Hash-table probes and aggregate
//! accumulator updates are inlined (HyPer-style); builds, materialisation,
//! and emission go through the runtime-call ABI.

use crate::plan::{
    AggFunc, AggSpec, ArithOp, CmpOp, FieldTy, JoinKind, PExpr, PhysicalPlan, PipeOp, Pipeline,
    Sink, Source,
};
use crate::runtime::{FNV_OFFSET, FNV_PRIME, WCTX_AGG_BASE, WCTX_ROWBUF};
use aqe_ir::{
    BinOp, BlockId, CastKind, CmpPred, Constant, ExternId, FunctionBuilder, Module, OvfOp, Type,
    ValueId,
};
use aqe_storage::{CatalogSnapshot, DataType};
use std::collections::HashMap;

/// Extern indices, fixed per module (order matches `runtime_fns`).
pub(crate) const EXT_JOIN_APPEND: u32 = 0;
pub(crate) const EXT_AGG_INSERT: u32 = 1;
pub(crate) const EXT_MAT_APPEND: u32 = 2;
pub(crate) const EXT_EMIT: u32 = 3;

/// The runtime function table matching the module's extern declarations
/// (used to build the VM registry).
pub(crate) fn runtime_fns() -> Vec<(&'static str, aqe_vm::rt::RtFn)> {
    vec![
        ("rt_join_append", crate::runtime::rt_join_append as aqe_vm::rt::RtFn),
        ("rt_agg_insert", crate::runtime::rt_agg_insert as aqe_vm::rt::RtFn),
        ("rt_mat_append", crate::runtime::rt_mat_append as aqe_vm::rt::RtFn),
        ("rt_emit", crate::runtime::rt_emit as aqe_vm::rt::RtFn),
    ]
}

fn declare_externs(m: &mut Module) {
    m.declare_extern("rt_join_append", vec![Type::Ptr, Type::I64, Type::I64], None);
    m.declare_extern("rt_agg_insert", vec![Type::Ptr, Type::I64, Type::I64], Some(Type::I64));
    m.declare_extern("rt_mat_append", vec![Type::Ptr, Type::I64, Type::I64], None);
    m.declare_extern("rt_emit", vec![Type::Ptr, Type::I64], None);
}

/// Generate the module for a physical plan: one worker per pipeline, in
/// pipeline order.
pub fn generate(plan: &PhysicalPlan, cat: &CatalogSnapshot) -> Module {
    let mut module = Module::new();
    declare_externs(&mut module);
    for p in &plan.pipelines {
        let f = gen_pipeline(plan, cat, p);
        module.add_function(f);
    }
    debug_assert!(aqe_ir::verify::verify_module(&module).is_ok());
    module
}

struct Cg<'a> {
    b: FunctionBuilder,
    plan: &'a PhysicalPlan,
    cat: &'a CatalogSnapshot,
    wctx: ValueId,
    state: ValueId,
    /// Hoisted `load ptr state[slot]` values, by state slot.
    slot_ptrs: HashMap<usize, ValueId>,
    /// Hoisted row-buffer pointer (staging area).
    rowbuf: Option<ValueId>,
    /// Hoisted aggregate header pointers, by agg index.
    agg_hdrs: HashMap<usize, ValueId>,
    /// Hoisted parameter values (loaded once from the param block in the
    /// entry — loop-invariant, so inside the morsel loop a bind variable
    /// costs exactly what a baked literal in a register does).
    param_vals: HashMap<usize, ValueId>,
}

fn gen_pipeline(plan: &PhysicalPlan, cat: &CatalogSnapshot, p: &Pipeline) -> aqe_ir::Function {
    let mut b = FunctionBuilder::new(
        format!("worker_p{}", p.id),
        &[Type::Ptr, Type::Ptr, Type::I64, Type::I64],
        None,
    );
    let (wctx, state, begin, end) = (b.param(0), b.param(1), b.param(2), b.param(3));

    // Blocks of the morsel loop skeleton.
    let head = b.add_block();
    let body = b.add_block();
    let latch = b.add_block();
    let exit = b.add_block();

    let mut cg = Cg {
        b,
        plan,
        cat,
        wctx,
        state,
        slot_ptrs: HashMap::new(),
        rowbuf: None,
        agg_hdrs: HashMap::new(),
        param_vals: HashMap::new(),
    };

    // ---- entry: hoist loop-invariant pointers --------------------------
    cg.hoist(p);
    let entry_block = cg.b.current_block();
    cg.b.br(head);

    // ---- morsel loop skeleton -------------------------------------------
    cg.b.switch_to(head);
    let i = cg.b.phi(Type::I64, vec![(entry_block, begin.into())]);
    let done = cg.b.cmp(CmpPred::SGe, Type::I64, i.into(), end.into());
    cg.b.cond_br(done.into(), exit, body);

    cg.b.switch_to(body);
    let fields = cg.load_source_fields(&p.source, i);
    cg.compile_ops(&p.ops, 0, fields, &p.sink, latch);

    cg.b.switch_to(latch);
    let inext = cg.b.bin(BinOp::Add, Type::I64, i.into(), Constant::i64(1).into());
    cg.b.phi_add_incoming(i, latch, inext.into());
    cg.b.br(head);

    cg.b.switch_to(exit);
    cg.b.ret(None);

    cg.b.finish().expect("generated worker must verify")
}

impl<'a> Cg<'a> {
    fn ir_ty(ft: FieldTy) -> Type {
        match ft {
            FieldTy::I64 => Type::I64,
            FieldTy::F64 => Type::F64,
        }
    }

    /// Hoist all loop-invariant state loads into the entry block.
    fn hoist(&mut self, p: &Pipeline) {
        // Source pointers.
        match &p.source {
            Source::Table { cols, slot_base, .. } => {
                for k in 0..cols.len() {
                    self.hoist_slot(slot_base + k);
                }
            }
            Source::Rows { rows_slot, .. } => {
                self.hoist_slot(*rows_slot);
            }
        }
        // Probe hash tables.
        for op in &p.ops {
            if let PipeOp::Probe { ht, .. } = op {
                let s = self.plan.join_hts[*ht].state_slot;
                self.hoist_slot(s);
                self.hoist_slot(s + 1);
            }
        }
        // Dictionary tables and bind parameters used anywhere in this
        // pipeline.
        let mut dicts = Vec::new();
        let mut params = Vec::new();
        let mut visit = |e: &PExpr| {
            collect_dicts(e, &mut dicts);
            collect_params(e, &mut params);
        };
        match &p.source {
            Source::Table { .. } | Source::Rows { .. } => {}
        }
        for op in &p.ops {
            match op {
                PipeOp::Filter(e) => visit(e),
                PipeOp::Project(es) => es.iter().for_each(&mut visit),
                PipeOp::Probe { .. } => {}
            }
        }
        if let Sink::BuildAgg { aggs, .. } = &p.sink {
            for a in aggs {
                if let Some(e) = &a.arg {
                    visit(e);
                }
            }
        }
        for d in dicts {
            self.hoist_slot(self.plan.dicts[d].state_slot);
        }
        // Parameter values: one pointer load for the block, one typed load
        // per distinct parameter, all in the entry block.
        if !params.is_empty() {
            let slot = self.plan.param_slot.expect("plan with params must carry a param slot");
            self.hoist_slot(slot);
            params.sort_unstable_by_key(|&(idx, _)| idx);
            params.dedup_by_key(|&mut (idx, _)| idx);
            for (idx, ft) in params {
                let base = self.slot_ptr(slot);
                let g = self.b.gep(base.into(), idx as i64 * 8);
                let v = self.b.load(Self::ir_ty(ft), g.into());
                self.param_vals.insert(idx, v);
            }
        }
        // Row buffer and aggregate headers.
        match &p.sink {
            Sink::BuildJoin { .. } | Sink::Materialize { .. } | Sink::Emit => {
                self.hoist_rowbuf();
            }
            Sink::BuildAgg { agg, .. } => {
                self.hoist_rowbuf();
                let hdr = self.b.gep(self.wctx.into(), (WCTX_AGG_BASE + agg) as i64 * 8);
                let hdr = self.b.load(Type::Ptr, hdr.into());
                self.agg_hdrs.insert(*agg, hdr);
            }
        }
    }

    fn hoist_slot(&mut self, slot: usize) {
        if self.slot_ptrs.contains_key(&slot) {
            return;
        }
        let g = self.b.gep(self.state.into(), slot as i64 * 8);
        let v = self.b.load(Type::Ptr, g.into());
        self.slot_ptrs.insert(slot, v);
    }

    fn hoist_rowbuf(&mut self) {
        if self.rowbuf.is_none() {
            let g = self.b.gep(self.wctx.into(), WCTX_ROWBUF as i64 * 8);
            let v = self.b.load(Type::Ptr, g.into());
            self.rowbuf = Some(v);
        }
    }

    fn slot_ptr(&self, slot: usize) -> ValueId {
        self.slot_ptrs[&slot]
    }

    /// Load the source fields for row `i`.
    fn load_source_fields(&mut self, src: &Source, i: ValueId) -> Vec<(ValueId, FieldTy)> {
        match src {
            Source::Table { table, cols, field_tys, slot_base } => {
                let t = self.cat.get(table).expect("unknown table");
                cols.iter()
                    .enumerate()
                    .map(|(k, &c)| {
                        let base = self.slot_ptr(slot_base + k);
                        let dt = t.column_type(c);
                        let v = self.load_column_value(base, dt, i);
                        (v, field_tys[k])
                    })
                    .collect()
            }
            Source::Rows { rows_slot, field_tys } => {
                let base = self.slot_ptr(*rows_slot);
                let stride = field_tys.len() as i64 * 8;
                field_tys
                    .iter()
                    .enumerate()
                    .map(|(j, &ft)| {
                        let g = self.b.gep_indexed(base.into(), j as i64 * 8, i.into(), stride);
                        let v = self.b.load(Self::ir_ty(ft), g.into());
                        (v, ft)
                    })
                    .collect()
            }
        }
    }

    /// Load and widen one column element.
    fn load_column_value(&mut self, base: ValueId, dt: DataType, i: ValueId) -> ValueId {
        match dt {
            DataType::Int32 | DataType::Date => {
                let g = self.b.gep_indexed(base.into(), 0, i.into(), 4);
                let v = self.b.load(Type::I32, g.into());
                self.b.cast(CastKind::SExt, Type::I32, Type::I64, v.into())
            }
            DataType::Str => {
                let g = self.b.gep_indexed(base.into(), 0, i.into(), 4);
                let v = self.b.load(Type::I32, g.into());
                self.b.cast(CastKind::ZExt, Type::I32, Type::I64, v.into())
            }
            DataType::Bool => {
                let g = self.b.gep_indexed(base.into(), 0, i.into(), 1);
                let v = self.b.load(Type::I8, g.into());
                self.b.cast(CastKind::ZExt, Type::I8, Type::I64, v.into())
            }
            DataType::Int64 | DataType::Decimal => {
                let g = self.b.gep_indexed(base.into(), 0, i.into(), 8);
                self.b.load(Type::I64, g.into())
            }
            DataType::Float64 => {
                let g = self.b.gep_indexed(base.into(), 0, i.into(), 8);
                self.b.load(Type::F64, g.into())
            }
        }
    }

    // ---- expressions ----------------------------------------------------

    /// Compile an expression to a value of its representation type
    /// (I64/F64); booleans are produced as I1 by `expr_bool`.
    fn expr(&mut self, e: &PExpr, fields: &[(ValueId, FieldTy)]) -> ValueId {
        match e {
            PExpr::Col(i) => fields[*i].0,
            PExpr::ConstI(c) => {
                // Materialise through a trivial add so the result is a value.
                self.b.bin(BinOp::Add, Type::I64, Constant::i64(*c).into(), Constant::i64(0).into())
            }
            PExpr::ConstF(c) => self.b.bin(
                BinOp::Add,
                Type::F64,
                Constant::f64(*c).into(),
                Constant::f64(0.0).into(),
            ),
            PExpr::Param { idx, .. } => self.param_vals[idx],
            PExpr::Arith { op, checked, float, a, b } => {
                let va = self.expr(a, fields);
                let vb = self.expr(b, fields);
                let ty = if *float { Type::F64 } else { Type::I64 };
                match (op, *checked && !*float) {
                    (ArithOp::Add, true) => {
                        self.b.checked_arith(OvfOp::Add, ty, va.into(), vb.into())
                    }
                    (ArithOp::Sub, true) => {
                        self.b.checked_arith(OvfOp::Sub, ty, va.into(), vb.into())
                    }
                    (ArithOp::Mul, true) => {
                        self.b.checked_arith(OvfOp::Mul, ty, va.into(), vb.into())
                    }
                    (ArithOp::Add, false) => self.b.bin(BinOp::Add, ty, va.into(), vb.into()),
                    (ArithOp::Sub, false) => self.b.bin(BinOp::Sub, ty, va.into(), vb.into()),
                    (ArithOp::Mul, false) => self.b.bin(BinOp::Mul, ty, va.into(), vb.into()),
                    (ArithOp::Div, _) => {
                        let op = if *float { BinOp::FDiv } else { BinOp::SDiv };
                        self.b.bin(op, ty, va.into(), vb.into())
                    }
                }
            }
            PExpr::IToF(v) => {
                let vi = self.expr(v, fields);
                self.b.cast(CastKind::SiToFp, Type::I64, Type::F64, vi.into())
            }
            PExpr::DictLookup { v, table, elem_size } => {
                let code = self.expr(v, fields);
                let tptr = self.slot_ptr(self.plan.dicts[*table].state_slot);
                match elem_size {
                    1 => {
                        let g = self.b.gep_indexed(tptr.into(), 0, code.into(), 1);
                        let v = self.b.load(Type::I8, g.into());
                        self.b.cast(CastKind::ZExt, Type::I8, Type::I64, v.into())
                    }
                    _ => {
                        let g = self.b.gep_indexed(tptr.into(), 0, code.into(), 4);
                        let v = self.b.load(Type::I32, g.into());
                        self.b.cast(CastKind::ZExt, Type::I32, Type::I64, v.into())
                    }
                }
            }
            PExpr::Case { cond, t, f, float } => {
                let c = self.expr_bool(cond, fields);
                let vt = self.expr(t, fields);
                let vf = self.expr(f, fields);
                let ty = if *float { Type::F64 } else { Type::I64 };
                self.b.select(ty, c.into(), vt.into(), vf.into())
            }
            // Boolean-valued expressions used as values: widen 0/1.
            PExpr::Cmp { .. }
            | PExpr::And(..)
            | PExpr::Or(..)
            | PExpr::Not(..)
            | PExpr::InList { .. } => {
                let c = self.expr_bool(e, fields);
                self.b.cast(CastKind::ZExt, Type::I1, Type::I64, c.into())
            }
        }
    }

    /// Compile a boolean expression to an I1 value.
    fn expr_bool(&mut self, e: &PExpr, fields: &[(ValueId, FieldTy)]) -> ValueId {
        match e {
            PExpr::Cmp { op, float, a, b } => {
                let va = self.expr(a, fields);
                let vb = self.expr(b, fields);
                let ty = if *float { Type::F64 } else { Type::I64 };
                let pred = match op {
                    CmpOp::Eq => CmpPred::Eq,
                    CmpOp::Ne => CmpPred::Ne,
                    CmpOp::Lt => CmpPred::SLt,
                    CmpOp::Le => CmpPred::SLe,
                    CmpOp::Gt => CmpPred::SGt,
                    CmpOp::Ge => CmpPred::SGe,
                };
                self.b.cmp(pred, ty, va.into(), vb.into())
            }
            PExpr::And(a, b) => {
                let va = self.expr_bool(a, fields);
                let vb = self.expr_bool(b, fields);
                self.b.bin(BinOp::And, Type::I1, va.into(), vb.into())
            }
            PExpr::Or(a, b) => {
                let va = self.expr_bool(a, fields);
                let vb = self.expr_bool(b, fields);
                self.b.bin(BinOp::Or, Type::I1, va.into(), vb.into())
            }
            PExpr::Not(a) => {
                let va = self.expr_bool(a, fields);
                self.b.bin(BinOp::Xor, Type::I1, va.into(), Constant::bool(true).into())
            }
            PExpr::InList { v, list } => {
                let vv = self.expr(v, fields);
                let mut acc: Option<ValueId> = None;
                for &c in list {
                    let eq = self.b.cmp(CmpPred::Eq, Type::I64, vv.into(), Constant::i64(c).into());
                    acc = Some(match acc {
                        None => eq,
                        Some(prev) => self.b.bin(BinOp::Or, Type::I1, prev.into(), eq.into()),
                    });
                }
                acc.unwrap_or_else(|| {
                    self.b.cmp(
                        CmpPred::Eq,
                        Type::I64,
                        Constant::i64(0).into(),
                        Constant::i64(1).into(),
                    )
                })
            }
            // Non-boolean expression in boolean position: value != 0.
            other => {
                let v = self.expr(other, fields);
                self.b.cmp(CmpPred::Ne, Type::I64, v.into(), Constant::i64(0).into())
            }
        }
    }

    /// FNV hash of the given key values (mirrors `runtime::hash_keys`).
    fn hash_values(&mut self, keys: &[ValueId]) -> ValueId {
        let mut h = self.b.bin(
            BinOp::Add,
            Type::I64,
            Constant::i64(FNV_OFFSET as i64).into(),
            Constant::i64(0).into(),
        );
        for &k in keys {
            let x = self.b.bin(BinOp::Xor, Type::I64, h.into(), k.into());
            h = self.b.bin(BinOp::Mul, Type::I64, x.into(), Constant::i64(FNV_PRIME as i64).into());
        }
        let hi = self.b.bin(BinOp::LShr, Type::I64, h.into(), Constant::i64(32).into());
        self.b.bin(BinOp::Xor, Type::I64, h.into(), hi.into())
    }

    /// Stage `values` into the row buffer.
    fn stage_row(&mut self, values: &[(ValueId, FieldTy)]) {
        let buf = self.rowbuf.expect("row buffer not hoisted");
        // The engine sizes each worker's row buffer to the plan's widest row.
        for (j, &(v, ft)) in values.iter().enumerate() {
            let g = self.b.gep(buf.into(), j as i64 * 8);
            self.b.store(Self::ir_ty(ft), v.into(), g.into());
        }
    }

    // ---- operators -------------------------------------------------------

    /// Compile ops `idx..` followed by the sink; `cont` is where a finished
    /// (or rejected) tuple jumps.
    fn compile_ops(
        &mut self,
        ops: &[PipeOp],
        idx: usize,
        fields: Vec<(ValueId, FieldTy)>,
        sink: &Sink,
        cont: BlockId,
    ) {
        if idx == ops.len() {
            self.compile_sink(sink, &fields, cont);
            return;
        }
        match &ops[idx] {
            PipeOp::Filter(pred) => {
                let c = self.expr_bool(pred, &fields);
                let next = self.b.add_block();
                self.b.cond_br(c.into(), next, cont);
                self.b.switch_to(next);
                self.compile_ops(ops, idx + 1, fields, sink, cont);
            }
            PipeOp::Project(exprs) => {
                let tys: Vec<FieldTy> = fields.iter().map(|&(_, t)| t).collect();
                let new_fields: Vec<(ValueId, FieldTy)> = exprs
                    .iter()
                    .map(|e| {
                        let t = e.ty(&tys);
                        (self.expr(e, &fields), t)
                    })
                    .collect();
                self.compile_ops(ops, idx + 1, new_fields, sink, cont);
            }
            PipeOp::Probe { ht, keys, kind, payload_tys } => {
                self.compile_probe(ops, idx, &fields, *ht, keys, *kind, payload_tys, sink, cont);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_probe(
        &mut self,
        ops: &[PipeOp],
        idx: usize,
        fields: &[(ValueId, FieldTy)],
        ht: usize,
        keys: &[usize],
        kind: JoinKind,
        payload_tys: &[FieldTy],
        sink: &Sink,
        cont: BlockId,
    ) {
        let spec = &self.plan.join_hts[ht];
        let key_vals: Vec<ValueId> = keys.iter().map(|&k| fields[k].0).collect();
        let h = self.hash_values(&key_vals);
        let buckets = self.slot_ptr(spec.state_slot);
        let mask_ptr = self.slot_ptr(spec.state_slot + 1);
        // mask was hoisted as a "pointer" load; reinterpret as integer.
        let mask = self.b.cast(CastKind::Bitcast, Type::Ptr, Type::I64, mask_ptr.into());
        let bidx = self.b.bin(BinOp::And, Type::I64, h.into(), mask.into());
        let g = self.b.gep_indexed(buckets.into(), 0, bidx.into(), 8);
        let entry0 = self.b.load(Type::Ptr, g.into());
        let pre = self.b.current_block();

        let chain = self.b.add_block();
        let keycheck = self.b.add_block();
        let matched = self.b.add_block();
        let next_e = self.b.add_block();
        // Where an exhausted chain goes / where a match sends the tuple:
        let (exhaust_to, match_to) = match kind {
            JoinKind::Inner | JoinKind::Semi => (cont, matched),
            JoinKind::Anti => (matched, cont),
        };

        self.b.br(chain);
        self.b.switch_to(chain);
        let entry = self.b.phi(Type::Ptr, vec![(pre, entry0.into())]);
        let is_null = self.b.cmp(CmpPred::Eq, Type::Ptr, entry.into(), Constant::null_ptr().into());
        self.b.cond_br(is_null.into(), exhaust_to, keycheck);

        self.b.switch_to(keycheck);
        let mut all_eq: Option<ValueId> = None;
        for (j, &kv) in key_vals.iter().enumerate() {
            let kg = self.b.gep(entry.into(), 8 + j as i64 * 8);
            let ek = self.b.load(Type::I64, kg.into());
            let eq = self.b.cmp(CmpPred::Eq, Type::I64, ek.into(), kv.into());
            all_eq = Some(match all_eq {
                None => eq,
                Some(p) => self.b.bin(BinOp::And, Type::I1, p.into(), eq.into()),
            });
        }
        let ok = all_eq.expect("joins have at least one key");
        self.b.cond_br(ok.into(), match_to, next_e);

        self.b.switch_to(next_e);
        let nxt = self.b.load(Type::Ptr, entry.into());
        let next_block = self.b.current_block();
        self.b.br(chain);
        self.b.phi_add_incoming(entry, next_block, nxt.into());

        self.b.switch_to(matched);
        match kind {
            JoinKind::Inner => {
                // Downstream runs once per matching entry; afterwards the
                // tuple continues with the next chain entry.
                let mut out = fields.to_vec();
                for (j, &ft) in payload_tys.iter().enumerate() {
                    let pg = self.b.gep(entry.into(), 8 + (spec.nkeys + j) as i64 * 8);
                    let v = self.b.load(Self::ir_ty(ft), pg.into());
                    out.push((v, ft));
                }
                self.compile_ops(ops, idx + 1, out, sink, next_e);
            }
            JoinKind::Semi | JoinKind::Anti => {
                // The tuple passes exactly once.
                self.compile_ops(ops, idx + 1, fields.to_vec(), sink, cont);
            }
        }
    }

    fn compile_sink(&mut self, sink: &Sink, fields: &[(ValueId, FieldTy)], cont: BlockId) {
        match sink {
            Sink::BuildJoin { ht, keys, payload } => {
                let row: Vec<(ValueId, FieldTy)> =
                    keys.iter().chain(payload.iter()).map(|&i| fields[i]).collect();
                self.stage_row(&row);
                self.b.call(
                    ExternId(EXT_JOIN_APPEND),
                    vec![
                        self.wctx.into(),
                        Constant::i64(*ht as i64).into(),
                        Constant::i64(row.len() as i64).into(),
                    ],
                    None,
                );
                self.b.br(cont);
            }
            Sink::Materialize { mat } => {
                self.stage_row(fields);
                self.b.call(
                    ExternId(EXT_MAT_APPEND),
                    vec![
                        self.wctx.into(),
                        Constant::i64(*mat as i64).into(),
                        Constant::i64(fields.len() as i64).into(),
                    ],
                    None,
                );
                self.b.br(cont);
            }
            Sink::Emit => {
                self.stage_row(fields);
                self.b.call(
                    ExternId(EXT_EMIT),
                    vec![self.wctx.into(), Constant::i64(fields.len() as i64).into()],
                    None,
                );
                self.b.br(cont);
            }
            Sink::BuildAgg { agg, group_by, aggs } => {
                self.compile_agg_sink(*agg, group_by, aggs, fields, cont);
            }
        }
    }

    fn compile_agg_sink(
        &mut self,
        agg: usize,
        group_by: &[usize],
        aggs: &[AggSpec],
        fields: &[(ValueId, FieldTy)],
        cont: BlockId,
    ) {
        let hdr = self.agg_hdrs[&agg];
        let nkeys = group_by.len();
        let entry: ValueId = if nkeys == 0 {
            // Key-less aggregation: direct pre-created group (header slot 2).
            let g = self.b.gep(hdr.into(), 16);
            self.b.load(Type::Ptr, g.into())
        } else {
            let key_vals: Vec<ValueId> = group_by.iter().map(|&k| fields[k].0).collect();
            let h = self.hash_values(&key_vals);
            // buckets/mask reload every tuple: inserts rehash.
            let bg = self.b.gep(hdr.into(), 0);
            let buckets = self.b.load(Type::Ptr, bg.into());
            let mg = self.b.gep(hdr.into(), 8);
            let mask = self.b.load(Type::I64, mg.into());
            let bidx = self.b.bin(BinOp::And, Type::I64, h.into(), mask.into());
            let eg = self.b.gep_indexed(buckets.into(), 0, bidx.into(), 8);
            let entry0 = self.b.load(Type::Ptr, eg.into());
            let pre = self.b.current_block();

            let chain = self.b.add_block();
            let keycheck = self.b.add_block();
            let miss = self.b.add_block();
            let next_e = self.b.add_block();
            let found = self.b.add_block();

            self.b.br(chain);
            self.b.switch_to(chain);
            let entry = self.b.phi(Type::Ptr, vec![(pre, entry0.into())]);
            let is_null =
                self.b.cmp(CmpPred::Eq, Type::Ptr, entry.into(), Constant::null_ptr().into());
            self.b.cond_br(is_null.into(), miss, keycheck);

            self.b.switch_to(keycheck);
            let mut all_eq: Option<ValueId> = None;
            for (j, &kv) in key_vals.iter().enumerate() {
                let kg = self.b.gep(entry.into(), 8 + j as i64 * 8);
                let ek = self.b.load(Type::I64, kg.into());
                let eq = self.b.cmp(CmpPred::Eq, Type::I64, ek.into(), kv.into());
                all_eq = Some(match all_eq {
                    None => eq,
                    Some(p) => self.b.bin(BinOp::And, Type::I1, p.into(), eq.into()),
                });
            }
            self.b.cond_br(all_eq.unwrap().into(), found, next_e);

            self.b.switch_to(next_e);
            let nxt = self.b.load(Type::Ptr, entry.into());
            let nb = self.b.current_block();
            self.b.br(chain);
            self.b.phi_add_incoming(entry, nb, nxt.into());

            self.b.switch_to(miss);
            let staged: Vec<(ValueId, FieldTy)> =
                key_vals.iter().map(|&v| (v, FieldTy::I64)).collect();
            self.stage_row(&staged);
            let new_entry = self.b.call(
                ExternId(EXT_AGG_INSERT),
                vec![self.wctx.into(), Constant::i64(agg as i64).into(), h.into()],
                Some(Type::I64),
            );
            let new_entry_p =
                self.b.cast(CastKind::Bitcast, Type::I64, Type::Ptr, new_entry.into());
            let miss_end = self.b.current_block();
            self.b.br(found);

            self.b.switch_to(found);
            self.b.phi(Type::Ptr, vec![(keycheck, entry.into()), (miss_end, new_entry_p.into())])
        };
        // `entry` points at [next, keys.., accs..]; accumulate each agg.
        let acc_base = 8 * (1 + nkeys) as i64;
        for (j, a) in aggs.iter().enumerate() {
            let off = acc_base + j as i64 * 8;
            match a.func {
                AggFunc::CountStar => {
                    let g = self.b.gep(entry.into(), off);
                    let cur = self.b.load(Type::I64, g.into());
                    let v = self.b.bin(BinOp::Add, Type::I64, cur.into(), Constant::i64(1).into());
                    let g2 = self.b.gep(entry.into(), off);
                    self.b.store(Type::I64, v.into(), g2.into());
                }
                AggFunc::SumI => {
                    let arg = self.expr(a.arg.as_ref().unwrap(), fields);
                    let g = self.b.gep(entry.into(), off);
                    let cur = self.b.load(Type::I64, g.into());
                    let v = self.b.checked_arith(OvfOp::Add, Type::I64, cur.into(), arg.into());
                    let g2 = self.b.gep(entry.into(), off);
                    self.b.store(Type::I64, v.into(), g2.into());
                }
                AggFunc::SumF => {
                    let arg = self.expr(a.arg.as_ref().unwrap(), fields);
                    let g = self.b.gep(entry.into(), off);
                    let cur = self.b.load(Type::F64, g.into());
                    let v = self.b.bin(BinOp::Add, Type::F64, cur.into(), arg.into());
                    let g2 = self.b.gep(entry.into(), off);
                    self.b.store(Type::F64, v.into(), g2.into());
                }
                AggFunc::MinI | AggFunc::MaxI => {
                    let arg = self.expr(a.arg.as_ref().unwrap(), fields);
                    let g = self.b.gep(entry.into(), off);
                    let cur = self.b.load(Type::I64, g.into());
                    let pred =
                        if matches!(a.func, AggFunc::MinI) { CmpPred::SLt } else { CmpPred::SGt };
                    let better = self.b.cmp(pred, Type::I64, arg.into(), cur.into());
                    let v = self.b.select(Type::I64, better.into(), arg.into(), cur.into());
                    let g2 = self.b.gep(entry.into(), off);
                    self.b.store(Type::I64, v.into(), g2.into());
                }
                AggFunc::MinF | AggFunc::MaxF => {
                    let arg = self.expr(a.arg.as_ref().unwrap(), fields);
                    let g = self.b.gep(entry.into(), off);
                    let cur = self.b.load(Type::F64, g.into());
                    let pred =
                        if matches!(a.func, AggFunc::MinF) { CmpPred::SLt } else { CmpPred::SGt };
                    let better = self.b.cmp(pred, Type::F64, arg.into(), cur.into());
                    let v = self.b.select(Type::F64, better.into(), arg.into(), cur.into());
                    let g2 = self.b.gep(entry.into(), off);
                    self.b.store(Type::F64, v.into(), g2.into());
                }
            }
        }
        self.b.br(cont);
    }
}

fn collect_params(e: &PExpr, out: &mut Vec<(usize, FieldTy)>) {
    match e {
        PExpr::Param { idx, ty } => out.push((*idx, *ty)),
        PExpr::Arith { a, b, .. } | PExpr::Cmp { a, b, .. } => {
            collect_params(a, out);
            collect_params(b, out);
        }
        PExpr::And(a, b) | PExpr::Or(a, b) => {
            collect_params(a, out);
            collect_params(b, out);
        }
        PExpr::Not(a) | PExpr::IToF(a) => collect_params(a, out),
        PExpr::InList { v, .. } => collect_params(v, out),
        PExpr::Case { cond, t, f, .. } => {
            collect_params(cond, out);
            collect_params(t, out);
            collect_params(f, out);
        }
        PExpr::DictLookup { v, .. } => collect_params(v, out),
        PExpr::Col(_) | PExpr::ConstI(_) | PExpr::ConstF(_) => {}
    }
}

fn collect_dicts(e: &PExpr, out: &mut Vec<usize>) {
    match e {
        PExpr::DictLookup { v, table, .. } => {
            out.push(*table);
            collect_dicts(v, out);
        }
        PExpr::Arith { a, b, .. } | PExpr::Cmp { a, b, .. } => {
            collect_dicts(a, out);
            collect_dicts(b, out);
        }
        PExpr::And(a, b) | PExpr::Or(a, b) => {
            collect_dicts(a, out);
            collect_dicts(b, out);
        }
        PExpr::Not(a) | PExpr::IToF(a) => collect_dicts(a, out),
        PExpr::InList { v, .. } => collect_dicts(v, out),
        PExpr::Case { cond, t, f, .. } => {
            collect_dicts(cond, out);
            collect_dicts(t, out);
            collect_dicts(f, out);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{decompose, PlanNode};
    use aqe_storage::tpch;

    #[test]
    fn q6_like_module_generates_and_verifies() {
        let cat = tpch::generate(0.001);
        // SELECT sum(extendedprice * discount) FROM lineitem WHERE ...
        let scan = PlanNode::Scan {
            table: "lineitem".into(),
            cols: vec![4, 5, 6, 10], // qty, extprice, discount, shipdate
            filter: Some(PExpr::and(
                PExpr::cmp(CmpOp::Lt, false, PExpr::Col(0), PExpr::ConstI(2400)),
                PExpr::cmp(CmpOp::Ge, false, PExpr::Col(3), PExpr::ConstI(8035)),
            )),
        };
        let agg = PlanNode::HashAgg {
            input: Box::new(scan),
            group_by: vec![],
            aggs: vec![AggSpec {
                func: AggFunc::SumI,
                arg: Some(PExpr::arith(ArithOp::Mul, true, false, PExpr::Col(1), PExpr::Col(2))),
            }],
        };
        let phys = decompose(&cat, &agg, vec![]);
        let module = generate(&phys, &cat);
        assert_eq!(module.functions.len(), 2);
        aqe_ir::verify::verify_module(&module).unwrap();
        // The agg pipeline contains the checked-mul overflow pattern.
        let txt = aqe_ir::print::print_module(&module);
        assert!(txt.contains("smul.ovf"), "{txt}");
        assert!(txt.contains("rt_emit"), "{txt}");
    }

    #[test]
    fn join_module_generates_and_verifies() {
        let cat = tpch::generate(0.001);
        let build = PlanNode::Scan { table: "supplier".into(), cols: vec![0, 3], filter: None };
        let probe = PlanNode::Scan { table: "lineitem".into(), cols: vec![2, 4], filter: None };
        let join = PlanNode::HashJoin {
            build: Box::new(build),
            probe: Box::new(probe),
            build_keys: vec![0],
            probe_keys: vec![0],
            build_payload: vec![1],
            kind: JoinKind::Inner,
        };
        let phys = decompose(&cat, &join, vec![]);
        let module = generate(&phys, &cat);
        aqe_ir::verify::verify_module(&module).unwrap();
        assert_eq!(module.functions.len(), 2);
        let txt = aqe_ir::print::print_module(&module);
        assert!(txt.contains("rt_join_append"), "{txt}");
    }

    #[test]
    fn workers_translate_to_bytecode() {
        let cat = tpch::generate(0.001);
        let scan = PlanNode::Scan { table: "orders".into(), cols: vec![0, 3], filter: None };
        let agg = PlanNode::HashAgg {
            input: Box::new(scan),
            group_by: vec![],
            aggs: vec![AggSpec { func: AggFunc::CountStar, arg: None }],
        };
        let phys = decompose(&cat, &agg, vec![]);
        let module = generate(&phys, &cat);
        for f in &module.functions {
            let bc = aqe_vm::translate::translate(
                f,
                &module.externs,
                aqe_vm::translate::TranslateOptions::default(),
            )
            .unwrap();
            assert!(!bc.is_empty());
        }
    }
}
