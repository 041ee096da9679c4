//! Reference interpreter for step streams.
//!
//! Executes the pre-decoded step sequence produced by [`crate::emit`] —
//! the same stream [`crate::native`] lowers to machine code. The
//! differential suites run it beside the lowered code: a divergence
//! between this interpreter and the bytecode VM is a pass or packing bug,
//! one between it and the machine code is a lowering bug. It is not a
//! [`PipelineBackend`](aqe_vm::backend::PipelineBackend); the engine never
//! executes it.
//! Plain steps delegate to the shared single-instruction dispatch of the VM
//! (`aqe_vm::interp::exec_one`); superinstructions have dedicated arms that
//! replace two or three dispatches with one.
//!
//! # Safety
//! Same boundary as the VM interpreter: steps come from the validated
//! translator/packer output; memory operations dereference engine-provided
//! raw addresses.

use crate::compile::CompiledFunction;
use crate::emit::SOp;
use aqe_vm::bytecode::BcInstr;
use aqe_vm::interp::{exec_one, Ctl, ExecError, Frame, STACK_FRAME_BYTES};
use aqe_vm::rt::Registry;

/// Execute a compiled function (same calling convention as
/// [`aqe_vm::interp::execute`]).
pub fn execute_compiled(
    cf: &CompiledFunction,
    args: &[u64],
    rt: &Registry,
    frame: &mut Frame,
) -> Result<Option<u64>, ExecError> {
    assert_eq!(args.len(), cf.param_slots.len(), "argument count mismatch");
    let size = cf.frame_size as usize;
    if size <= STACK_FRAME_BYTES {
        let mut stack_buf = [0u64; STACK_FRAME_BYTES / 8];
        run(cf, args, rt, stack_buf.as_mut_ptr() as *mut u8)
    } else {
        let ptr = frame.heap_ptr_pub(size);
        run(cf, args, rt, ptr)
    }
}

#[inline(always)]
unsafe fn rd64(regs: *mut u8, off: u16) -> u64 {
    unsafe { std::ptr::read(regs.add(off as usize) as *const u64) }
}

#[inline(always)]
unsafe fn wr64(regs: *mut u8, off: u16, v: u64) {
    unsafe { std::ptr::write(regs.add(off as usize) as *mut u64, v) }
}

fn run(
    cf: &CompiledFunction,
    args: &[u64],
    rt: &Registry,
    regs: *mut u8,
) -> Result<Option<u64>, ExecError> {
    unsafe {
        wr64(regs, 0, 0);
        wr64(regs, 8, 1);
        for (&slot, &v) in cf.param_slots.iter().zip(args) {
            wr64(regs, slot, v);
        }
    }

    let steps = cf.steps.as_ptr();
    let mut pc = 0usize;
    loop {
        debug_assert!(pc < cf.steps.len(), "step pc out of bounds");
        let s = unsafe { &*steps.add(pc) };
        match s.sup {
            SOp::Plain => match exec_one(&s.i, regs, rt)? {
                Ctl::Next => pc += 1,
                Ctl::Jump(t) => pc = t as usize,
                Ctl::RetNone => return Ok(None),
                Ctl::RetVal(v) => return Ok(Some(v)),
            },
            SOp::Jmp => pc = s.i.lit as usize,
            SOp::CmpBr => {
                // One dispatch: compute the flag, then branch on it.
                match exec_one(&s.i, regs, rt)? {
                    Ctl::Next => {}
                    _ => unreachable!("comparisons fall through"),
                }
                let c = unsafe { std::ptr::read(regs.add(s.i.a as usize) as *const u8) };
                pc = if c != 0 {
                    BcInstr::branch_then(s.lit2)
                } else {
                    BcInstr::branch_else(s.lit2)
                };
            }
            SOp::AddImmBr | SOp::MovBr | SOp::ConstBr => {
                match exec_one(&s.i, regs, rt)? {
                    Ctl::Next => {}
                    _ => unreachable!("fused ops fall through"),
                }
                pc = s.lit2 as usize;
            }
            SOp::AccumAddI64 => {
                unsafe {
                    let p = (rd64(regs, s.i.b) as i64 + s.i.lit as i64) as *mut i64;
                    let cur = std::ptr::read_unaligned(p);
                    wr64(regs, s.i.a, cur as u64);
                    let v = rd64(regs, s.i.c) as i64;
                    let sum = cur.wrapping_add(v);
                    wr64(regs, s.lit2 as u16, sum as u64);
                    std::ptr::write_unaligned(p, sum);
                }
                pc += 1;
            }
            SOp::AccumAddF64 => {
                unsafe {
                    let p = (rd64(regs, s.i.b) as i64 + s.i.lit as i64) as *mut f64;
                    let cur = std::ptr::read_unaligned(p);
                    wr64(regs, s.i.a, cur.to_bits());
                    let v = f64::from_bits(rd64(regs, s.i.c));
                    let sum = cur + v;
                    wr64(regs, s.lit2 as u16, sum.to_bits());
                    std::ptr::write_unaligned(p, sum);
                }
                pc += 1;
            }
            SOp::AccumOvfAddI64 => {
                unsafe {
                    let p = (rd64(regs, s.i.b) as i64 + s.i.lit as i64) as *mut i64;
                    let cur = std::ptr::read_unaligned(p);
                    wr64(regs, s.i.a, cur as u64);
                    let v = rd64(regs, s.i.c) as i64;
                    let Some(sum) = cur.checked_add(v) else {
                        return Err(ExecError::Overflow);
                    };
                    wr64(regs, s.lit2 as u16, sum as u64);
                    std::ptr::write_unaligned(p, sum);
                }
                pc += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, OptLevel};
    use aqe_ir::{BinOp, CmpPred, Constant, FunctionBuilder, Type};

    fn sum_fn() -> aqe_ir::Function {
        let mut b = FunctionBuilder::new("sum", &[Type::I64], Some(Type::I64));
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
        b.finish().unwrap()
    }

    #[test]
    fn unoptimized_runs_correctly() {
        let f = sum_fn();
        let cf = compile(&f, &[], OptLevel::Unoptimized).unwrap();
        let mut frame = Frame::new();
        let r = execute_compiled(&cf, &[100], &Registry::new(), &mut frame).unwrap();
        assert_eq!(r, Some(4950));
    }

    #[test]
    fn optimized_runs_correctly() {
        let f = sum_fn();
        let cf = compile(&f, &[], OptLevel::Optimized).unwrap();
        let mut frame = Frame::new();
        for n in [0u64, 1, 10, 777] {
            let r = execute_compiled(&cf, &[n], &Registry::new(), &mut frame).unwrap();
            assert_eq!(r, Some((0..n).sum::<u64>()));
        }
    }

    #[test]
    fn optimized_code_is_smaller() {
        let f = sum_fn();
        let unopt = compile(&f, &[], OptLevel::Unoptimized).unwrap();
        let opt = compile(&f, &[], OptLevel::Optimized).unwrap();
        assert!(
            opt.steps.len() <= unopt.steps.len(),
            "opt {} vs unopt {}",
            opt.steps.len(),
            unopt.steps.len()
        );
    }
}
