//! Direct IR interpretation — the "LLVM interpreter" stand-in of Fig. 2.
//!
//! "LLVM … also contains an interpreter. This interpreter directly executes
//! the LLVM IR without any additional compilation step. … the built-in
//! interpreter is extremely slow. The reason is that LLVM IR was designed as
//! a versatile and generic format … Its pointer-based in-memory
//! representation allows easy code transformations but is highly cache
//! unfriendly. Furthermore, the execution of an instruction involves a
//! costly runtime dispatch as there is only a single instruction (e.g.,
//! integer addition) for all operand widths."
//!
//! This module reproduces that execution mode honestly: it walks the SSA
//! structures directly, dispatches on the generic instruction enum, performs
//! width selection at runtime, and resolves φ nodes by scanning incoming
//! lists — no translation, no register file, no fusion. It exists to anchor
//! the latency end of the latency/throughput tradeoff (and as a semantics
//! oracle for differential tests). Being a purpose-built walker rather than
//! LLVM's pointer-chasing `ExecutionEngine`, its slowdown relative to the
//! bytecode VM is smaller than the paper's 800×; EXPERIMENTS.md reports the
//! measured ratio.

use crate::interp::ExecError;
use crate::rt::Registry;
use aqe_ir::{
    BinOp, CastKind, CmpPred, Function, Instr, Operand, OvfOp, Terminator, TrapKind, Type, ValueId,
};

/// Interpret `f` directly over its SSA form.
pub fn interpret(f: &Function, args: &[u64], rt: &Registry) -> Result<Option<u64>, ExecError> {
    assert_eq!(args.len(), f.param_count(), "argument count mismatch");
    // Value environment: (value, flag) — the flag doubles as the overflow
    // bit for pair values.
    let mut env: Vec<(u64, bool)> = vec![(0, false); f.value_count()];
    for (i, &a) in args.iter().enumerate() {
        env[i] = (a, false);
    }

    let operand = |env: &[(u64, bool)], op: Operand| -> u64 {
        match op {
            Operand::Value(v) => env[v.index()].0,
            Operand::Const(c) => c.bits,
        }
    };

    let mut block = Function::ENTRY;
    let mut prev = Function::ENTRY;
    let mut arg_buf: Vec<u64> = Vec::with_capacity(8);
    loop {
        let blk = f.block(block);
        // φ nodes first, with parallel-read semantics.
        let mut phi_vals: Vec<(ValueId, u64)> = Vec::new();
        for &vid in &blk.instrs {
            let Some(Instr::Phi { incomings, .. }) = f.instr(vid) else {
                break;
            };
            let (_, op) = f
                .phi_incomings(*incomings)
                .iter()
                .find(|(b, _)| *b == prev)
                .expect("verified φ covers all predecessors");
            phi_vals.push((vid, operand(&env, *op)));
        }
        let phi_count = phi_vals.len();
        for (vid, v) in phi_vals {
            env[vid.index()] = (v, false);
        }

        for &vid in &blk.instrs[phi_count..] {
            let instr = f.instr(vid).unwrap();
            let result: (u64, bool) = match instr {
                Instr::Phi { .. } => unreachable!("φs are a block prefix"),
                Instr::Bin { op, ty, a, b } => {
                    (eval_bin(*op, *ty, operand(&env, *a), operand(&env, *b))?, false)
                }
                Instr::BinOvf { op, ty, a, b } => {
                    eval_ovf(*op, *ty, operand(&env, *a), operand(&env, *b))
                }
                Instr::Extract { pair, field } => {
                    let (v, o) = env[pair.index()];
                    if *field == 0 {
                        (v, false)
                    } else {
                        (o as u64, false)
                    }
                }
                Instr::Cmp { pred, ty, a, b } => {
                    (eval_cmp(*pred, *ty, operand(&env, *a), operand(&env, *b)) as u64, false)
                }
                Instr::Select { cond, t, f: fv, .. } => {
                    let c = operand(&env, *cond) & 1;
                    (if c != 0 { operand(&env, *t) } else { operand(&env, *fv) }, false)
                }
                Instr::Cast { kind, to, v, from } => {
                    (eval_cast(*kind, *from, *to, operand(&env, *v)), false)
                }
                Instr::Load { ty, ptr } => {
                    let p = operand(&env, *ptr);
                    let v = unsafe {
                        match ty.mem_size() {
                            1 => std::ptr::read_unaligned(p as *const u8) as u64,
                            2 => std::ptr::read_unaligned(p as *const u16) as u64,
                            4 => std::ptr::read_unaligned(p as *const u32) as u64,
                            _ => std::ptr::read_unaligned(p as *const u64),
                        }
                    };
                    (v, false)
                }
                Instr::Store { ty, ptr, val } => {
                    let p = operand(&env, *ptr);
                    let v = operand(&env, *val);
                    unsafe {
                        match ty.mem_size() {
                            1 => std::ptr::write_unaligned(p as *mut u8, v as u8),
                            2 => std::ptr::write_unaligned(p as *mut u16, v as u16),
                            4 => std::ptr::write_unaligned(p as *mut u32, v as u32),
                            _ => std::ptr::write_unaligned(p as *mut u64, v),
                        }
                    }
                    (0, false)
                }
                Instr::Gep { base, offset, index } => {
                    let mut p = operand(&env, *base) as i64 + offset;
                    if let Some((iop, scale)) = index {
                        p += operand(&env, *iop) as i64 * scale;
                    }
                    (p as u64, false)
                }
                Instr::Call { func, args: call_args } => {
                    arg_buf.clear();
                    for a in f.operands(*call_args) {
                        arg_buf.push(operand(&env, *a));
                    }
                    let mut ret = 0u64;
                    let fptr = rt.fn_ptr(func.index());
                    unsafe { fptr(arg_buf.as_ptr(), &mut ret) };
                    (ret, false)
                }
            };
            env[vid.index()] = result;
        }

        match &blk.term {
            Terminator::Br { target } => {
                prev = block;
                block = *target;
            }
            Terminator::CondBr { cond, then_bb, else_bb } => {
                let c = operand(&env, *cond) & 1;
                prev = block;
                block = if c != 0 { *then_bb } else { *else_bb };
            }
            Terminator::Ret { value } => {
                return Ok(value.map(|v| operand(&env, v)));
            }
            Terminator::Trap { kind } => {
                return Err(match kind {
                    TrapKind::Overflow => ExecError::Overflow,
                    TrapKind::DivByZero => ExecError::DivByZero,
                    TrapKind::User(c) => ExecError::User(*c),
                });
            }
            Terminator::None => unreachable!("verifier rejects unterminated blocks"),
        }
    }
}

/// Width-generic binary evaluation: the runtime width dispatch the paper
/// criticises LLVM's interpreter for is exactly what happens here.
/// Public: the constant folder in `aqe-jit` reuses these semantics.
pub fn eval_bin(op: BinOp, ty: Type, a: u64, b: u64) -> Result<u64, ExecError> {
    if ty == Type::F64 {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::FDiv => x / y,
            _ => unreachable!("verifier rejects {op:?} on f64"),
        };
        return Ok(r.to_bits());
    }
    let bits = ty.bits().max(8);
    let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    let sext = |v: u64| -> i64 {
        let shift = 64 - bits;
        ((v << shift) as i64) >> shift
    };
    let (sa, sb) = (sext(a), sext(b));
    let (ua, ub) = (a & mask, b & mask);
    let r: u64 = match op {
        BinOp::Add => (sa.wrapping_add(sb)) as u64,
        BinOp::Sub => (sa.wrapping_sub(sb)) as u64,
        BinOp::Mul => (sa.wrapping_mul(sb)) as u64,
        BinOp::SDiv => {
            if sb == 0 {
                return Err(ExecError::DivByZero);
            }
            let min = (-1i64) << (bits - 1);
            if sa == min && sb == -1 {
                return Err(ExecError::Overflow);
            }
            (sa / sb) as u64
        }
        BinOp::UDiv => {
            if ub == 0 {
                return Err(ExecError::DivByZero);
            }
            ua / ub
        }
        BinOp::SRem => {
            if sb == 0 {
                return Err(ExecError::DivByZero);
            }
            sa.wrapping_rem(sb) as u64
        }
        BinOp::URem => {
            if ub == 0 {
                return Err(ExecError::DivByZero);
            }
            ua % ub
        }
        BinOp::FDiv => unreachable!("verifier rejects fdiv on ints"),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => (ua.wrapping_shl((ub as u32) % bits)) & mask,
        BinOp::AShr => (sext(a) >> ((ub as u32) % bits)) as u64,
        BinOp::LShr => ua.wrapping_shr((ub as u32) % bits),
    };
    Ok(r)
}

pub fn eval_ovf(op: OvfOp, ty: Type, a: u64, b: u64) -> (u64, bool) {
    match ty {
        Type::I32 => {
            let (x, y) = (a as u32 as i32, b as u32 as i32);
            let (v, o) = match op {
                OvfOp::Add => x.overflowing_add(y),
                OvfOp::Sub => x.overflowing_sub(y),
                OvfOp::Mul => x.overflowing_mul(y),
            };
            (v as u32 as u64, o)
        }
        _ => {
            let (x, y) = (a as i64, b as i64);
            let (v, o) = match op {
                OvfOp::Add => x.overflowing_add(y),
                OvfOp::Sub => x.overflowing_sub(y),
                OvfOp::Mul => x.overflowing_mul(y),
            };
            (v as u64, o)
        }
    }
}

pub fn eval_cmp(pred: CmpPred, ty: Type, a: u64, b: u64) -> bool {
    if ty == Type::F64 {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        return match pred {
            CmpPred::Eq => x == y,
            CmpPred::Ne => x != y,
            CmpPred::SLt => x < y,
            CmpPred::SLe => x <= y,
            CmpPred::SGt => x > y,
            CmpPred::SGe => x >= y,
            _ => unreachable!("verifier rejects unsigned float cmp"),
        };
    }
    let bits = ty.bits().max(8);
    let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    let sext = |v: u64| -> i64 {
        let shift = 64 - bits;
        ((v << shift) as i64) >> shift
    };
    let (sa, sb) = (sext(a), sext(b));
    let (ua, ub) = (a & mask, b & mask);
    match pred {
        CmpPred::Eq => ua == ub,
        CmpPred::Ne => ua != ub,
        CmpPred::SLt => sa < sb,
        CmpPred::SLe => sa <= sb,
        CmpPred::SGt => sa > sb,
        CmpPred::SGe => sa >= sb,
        CmpPred::ULt => ua < ub,
        CmpPred::ULe => ua <= ub,
        CmpPred::UGt => ua > ub,
        CmpPred::UGe => ua >= ub,
    }
}

pub fn eval_cast(kind: CastKind, from: Type, to: Type, v: u64) -> u64 {
    let sext_from = |v: u64| -> i64 {
        let bits = from.bits().max(8);
        let shift = 64 - bits;
        ((v << shift) as i64) >> shift
    };
    match kind {
        CastKind::ZExt => {
            let bits = from.bits().max(8);
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            // i1 sources are canonical 0/1 in the environment.
            if from == Type::I1 {
                v & 1
            } else {
                v & mask
            }
        }
        CastKind::SExt => sext_from(v) as u64,
        CastKind::Trunc => {
            let bits = to.bits().max(8);
            if bits == 64 {
                v
            } else {
                v & ((1u64 << bits) - 1)
            }
        }
        CastKind::Bitcast => v,
        CastKind::SiToFp => (sext_from(v) as f64).to_bits(),
        CastKind::FpToSi => {
            let x = f64::from_bits(v);
            match to {
                Type::I64 => (x as i64) as u64,
                _ => (x as i32) as u32 as u64,
            }
        }
    }
}

/// Convenience for tests: interpret with an empty runtime registry.
pub fn interpret_pure(f: &Function, args: &[u64]) -> Result<Option<u64>, ExecError> {
    interpret(f, args, &Registry::new())
}

/// The direct IR interpreter as a uniform execution backend. Holds the IR
/// function it walks; the caller's register-file `frame` is unused because
/// this mode evaluates straight over the SSA value environment.
pub struct NaiveBackend {
    function: std::sync::Arc<Function>,
}

impl NaiveBackend {
    pub fn new(function: std::sync::Arc<Function>) -> Self {
        NaiveBackend { function }
    }
}

impl crate::backend::PipelineBackend for NaiveBackend {
    fn call(
        &self,
        args: &[u64],
        rt: &Registry,
        _frame: &mut crate::interp::Frame,
    ) -> Result<Option<u64>, ExecError> {
        interpret(&self.function, args, rt)
    }

    fn level(&self) -> crate::backend::ExecLevel {
        crate::backend::ExecLevel::Interpreted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqe_ir::{Constant, FunctionBuilder};

    #[test]
    fn add_and_loop() {
        let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let n = b.param(0);
        let head = b.add_block();
        let body = b.add_block();
        let exit = b.add_block();
        let pre = b.current_block();
        b.br(head);
        b.switch_to(head);
        let iv = b.phi(Type::I64, vec![(pre, Constant::i64(0).into())]);
        let acc = b.phi(Type::I64, vec![(pre, Constant::i64(0).into())]);
        let done = b.cmp(CmpPred::SGe, Type::I64, iv.into(), n.into());
        b.cond_br(done.into(), exit, body);
        b.switch_to(body);
        let acc2 = b.bin(BinOp::Add, Type::I64, acc.into(), iv.into());
        let iv2 = b.bin(BinOp::Add, Type::I64, iv.into(), Constant::i64(1).into());
        b.phi_add_incoming(iv, body, iv2.into());
        b.phi_add_incoming(acc, body, acc2.into());
        b.br(head);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        let f = b.finish().unwrap();
        assert_eq!(interpret_pure(&f, &[100]).unwrap(), Some(4950));
    }

    #[test]
    fn traps_match_vm_semantics() {
        let mut b = FunctionBuilder::new("f", &[Type::I32, Type::I32], Some(Type::I32));
        let q = b.bin(BinOp::SDiv, Type::I32, b.param(0).into(), b.param(1).into());
        b.ret(Some(q.into()));
        let f = b.finish().unwrap();
        assert_eq!(interpret_pure(&f, &[7, 2]).unwrap(), Some(3));
        assert_eq!(interpret_pure(&f, &[7, 0]), Err(ExecError::DivByZero));
        assert_eq!(
            interpret_pure(&f, &[i32::MIN as u32 as u64, (-1i32) as u32 as u64]),
            Err(ExecError::Overflow)
        );
    }

    #[test]
    fn narrow_width_semantics() {
        let mut b = FunctionBuilder::new("f", &[Type::I8, Type::I8], Some(Type::I8));
        let s = b.bin(BinOp::Add, Type::I8, b.param(0).into(), b.param(1).into());
        b.ret(Some(s.into()));
        let f = b.finish().unwrap();
        // 127 + 1 wraps to -128 at i8 width.
        let r = interpret_pure(&f, &[127, 1]).unwrap().unwrap();
        assert_eq!(r as u8 as i8, -128);
    }

    #[test]
    fn overflow_pair_extracts() {
        let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64], Some(Type::I1));
        let pair = b.bin_ovf(OvfOp::Mul, Type::I64, b.param(0).into(), b.param(1).into());
        let flag = b.extract(pair, 1);
        b.ret(Some(flag.into()));
        let f = b.finish().unwrap();
        assert_eq!(interpret_pure(&f, &[3, 4]).unwrap(), Some(0));
        assert_eq!(interpret_pure(&f, &[i64::MAX as u64, 2]).unwrap(), Some(1));
    }
}
