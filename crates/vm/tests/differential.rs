//! Differential testing: the bytecode VM must behave *identically* to the
//! direct IR interpreter ("the VM must behave 100% identical to native
//! machine code as we want to seamlessly switch", §IV).
//!
//! Random structured programs (arithmetic, comparisons, selects, diamonds
//! with φ merges, bounded loops with accumulator φs, overflow-checked ops)
//! are generated from a proptest seed and executed under both engines; the
//! results — including traps — must match exactly, for every allocation
//! strategy and with fusion on and off.

use aqe_ir::{BinOp, CmpPred, Constant, Function, FunctionBuilder, Operand, OvfOp, Type, ValueId};
use aqe_vm::backend::{ExecLevel, PipelineBackend};
use aqe_vm::interp::{execute, ExecError, Frame};
use aqe_vm::naive::{self, NaiveBackend};
use aqe_vm::regalloc::AllocStrategy;
use aqe_vm::rt::Registry;
use aqe_vm::translate::{translate, TranslateOptions};
use proptest::prelude::*;
use std::sync::Arc;

/// A little structured-program AST that proptest can generate and that
/// always terminates.
#[derive(Clone, Debug)]
enum Stmt {
    /// new value = binop(pick(a), pick(b))
    Bin(BinOp, u8, u8),
    /// new value = binop(pick(a), literal) — boundary constants included
    BinConst(BinOp, u8, i64),
    /// new value = checked add/sub/mul (may trap with Overflow)
    Checked(OvfOp, u8, u8),
    /// new value = select(cmp(a, b), c, d)
    CmpSelect(CmpPred, u8, u8, u8, u8),
    /// diamond: if cmp(a,0) { x = pick(b) op1 c } else { x = pick(d) }; φ
    Diamond(u8, u8, u8, u8),
    /// bounded loop: acc = Σ f(i, pick(a)) for i in 0..trips
    Loop { trips: u8, a: u8 },
    /// new value = pick(a) / pick(b) — may trap with DivByZero/Overflow
    Div(u8, u8),
    /// new value = select(cmp(pick(a), literal), c, d) — the literal pool
    /// leans on i32/i64 extremes so widening/sign bugs can't hide
    CmpConst(CmpPred, u8, i64, u8, u8),
}

/// Literal pool biased toward representation boundaries: the i32/i64 type
/// extremes, the first values *past* the i32 range, and sign flips.
fn const_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i16>().prop_map(i64::from),
        Just(i64::MIN),
        Just(i64::MAX),
        Just(i32::MIN as i64),
        Just(i32::MAX as i64),
        Just(i32::MIN as i64 - 1),
        Just(i32::MAX as i64 + 1),
        Just(-1i64),
    ]
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let bin_ops = prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
    ];
    let ovf_ops = prop_oneof![Just(OvfOp::Add), Just(OvfOp::Sub), Just(OvfOp::Mul)];
    let preds = prop_oneof![
        Just(CmpPred::Eq),
        Just(CmpPred::Ne),
        Just(CmpPred::SLt),
        Just(CmpPred::SLe),
        Just(CmpPred::SGt),
        Just(CmpPred::UGe),
        Just(CmpPred::ULt),
    ];
    let bin_ops2 = bin_ops.clone();
    let preds2 = preds.clone();
    prop_oneof![
        (bin_ops, any::<u8>(), any::<u8>()).prop_map(|(o, a, b)| Stmt::Bin(o, a, b)),
        (bin_ops2, any::<u8>(), const_strategy()).prop_map(|(o, a, c)| Stmt::BinConst(o, a, c)),
        (ovf_ops, any::<u8>(), any::<u8>()).prop_map(|(o, a, b)| Stmt::Checked(o, a, b)),
        (preds, any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(p, a, b, c, d)| Stmt::CmpSelect(p, a, b, c, d)),
        (preds2, any::<u8>(), const_strategy(), any::<u8>(), any::<u8>())
            .prop_map(|(p, a, k, c, d)| Stmt::CmpConst(p, a, k, c, d)),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(a, b, c, d)| Stmt::Diamond(a, b, c, d)),
        (0u8..6, any::<u8>()).prop_map(|(trips, a)| Stmt::Loop { trips, a }),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Stmt::Div(a, b)),
    ]
}

/// Lower a statement list into a verified IR function of two i64 params.
fn lower(stmts: &[Stmt]) -> Function {
    let mut b = FunctionBuilder::new("prog", &[Type::I64, Type::I64], Some(Type::I64));
    let mut vals: Vec<ValueId> = vec![b.param(0), b.param(1)];
    let pick = |vals: &[ValueId], i: u8| vals[i as usize % vals.len()];
    for s in stmts {
        match *s {
            Stmt::Bin(op, a, bi) => {
                let (x, y) = (pick(&vals, a), pick(&vals, bi));
                let v = b.bin(op, Type::I64, x.into(), y.into());
                vals.push(v);
            }
            Stmt::BinConst(op, a, c) => {
                let v = b.bin(op, Type::I64, pick(&vals, a).into(), Constant::i64(c).into());
                vals.push(v);
            }
            Stmt::CmpConst(p, a, k, c, d) => {
                let cond = b.cmp(p, Type::I64, pick(&vals, a).into(), Constant::i64(k).into());
                let v =
                    b.select(Type::I64, cond.into(), pick(&vals, c).into(), pick(&vals, d).into());
                vals.push(v);
            }
            Stmt::Checked(op, a, bi) => {
                let (x, y) = (pick(&vals, a), pick(&vals, bi));
                let v = b.checked_arith(op, Type::I64, x.into(), y.into());
                vals.push(v);
            }
            Stmt::CmpSelect(p, a, bi, c, d) => {
                let cond = b.cmp(p, Type::I64, pick(&vals, a).into(), pick(&vals, bi).into());
                let v =
                    b.select(Type::I64, cond.into(), pick(&vals, c).into(), pick(&vals, d).into());
                vals.push(v);
            }
            Stmt::Diamond(a, bi, c, d) => {
                let cond =
                    b.cmp(CmpPred::SGt, Type::I64, pick(&vals, a).into(), Constant::i64(0).into());
                let t_bb = b.add_block();
                let e_bb = b.add_block();
                let j_bb = b.add_block();
                b.cond_br(cond.into(), t_bb, e_bb);
                b.switch_to(t_bb);
                let tv =
                    b.bin(BinOp::Add, Type::I64, pick(&vals, bi).into(), pick(&vals, c).into());
                b.br(j_bb);
                b.switch_to(e_bb);
                let ev = b.bin(
                    BinOp::Xor,
                    Type::I64,
                    pick(&vals, d).into(),
                    Constant::i64(0x5a5a).into(),
                );
                b.br(j_bb);
                b.switch_to(j_bb);
                let phi = b.phi(Type::I64, vec![(t_bb, tv.into()), (e_bb, ev.into())]);
                vals.push(phi);
            }
            Stmt::Loop { trips, a } => {
                let seed = pick(&vals, a);
                let head = b.add_block();
                let body = b.add_block();
                let exit = b.add_block();
                let pre = b.current_block();
                b.br(head);
                b.switch_to(head);
                let iv = b.phi(Type::I64, vec![(pre, Constant::i64(0).into())]);
                let acc = b.phi(Type::I64, vec![(pre, seed.into())]);
                let done =
                    b.cmp(CmpPred::SGe, Type::I64, iv.into(), Constant::i64(trips as i64).into());
                b.cond_br(done.into(), exit, body);
                b.switch_to(body);
                // acc' = acc*3 ^ iv (wrapping, never traps)
                let acc3 = b.bin(BinOp::Mul, Type::I64, acc.into(), Constant::i64(3).into());
                let acc2 = b.bin(BinOp::Xor, Type::I64, acc3.into(), iv.into());
                let iv2 = b.bin(BinOp::Add, Type::I64, iv.into(), Constant::i64(1).into());
                b.phi_add_incoming(iv, body, iv2.into());
                b.phi_add_incoming(acc, body, acc2.into());
                b.br(head);
                b.switch_to(exit);
                vals.push(acc);
            }
            Stmt::Div(a, bi) => {
                let v =
                    b.bin(BinOp::SDiv, Type::I64, pick(&vals, a).into(), pick(&vals, bi).into());
                vals.push(v);
            }
        }
    }
    // Fold everything into one result so no value is trivially dead.
    let mut acc: Operand = vals[0].into();
    for &v in &vals[1..] {
        acc = b.bin(BinOp::Xor, Type::I64, acc, v.into()).into();
    }
    b.ret(Some(acc));
    b.finish().expect("generated program must verify")
}

fn run_vm(f: &Function, args: &[u64], opts: TranslateOptions) -> Result<Option<u64>, ExecError> {
    let bc = translate(f, &[], opts).expect("translation");
    let rt = Registry::new();
    let mut frame = Frame::new();
    execute(&bc, args, &rt, &mut frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// VM ≡ naive interpreter, with default options.
    #[test]
    fn vm_matches_naive(
        stmts in prop::collection::vec(stmt_strategy(), 1..24),
        x in any::<i64>(),
        y in any::<i64>(),
    ) {
        let f = lower(&stmts);
        let expect = naive::interpret_pure(&f, &[x as u64, y as u64]);
        let got = run_vm(&f, &[x as u64, y as u64], TranslateOptions::default());
        prop_assert_eq!(expect, got);
    }

    /// Both of this crate's backends, dispatched uniformly through the
    /// engine's `Arc<dyn PipelineBackend>` seam, agree — results *and*
    /// traps (the §III-B hot-swap contract).
    #[test]
    fn backends_agree_through_trait_dispatch(
        stmts in prop::collection::vec(stmt_strategy(), 1..16),
        x in any::<i64>(),
        y in any::<i64>(),
    ) {
        let f = lower(&stmts);
        let bc = translate(&f, &[], TranslateOptions::default()).expect("translation");
        let backends: [Arc<dyn PipelineBackend>; 2] =
            [Arc::new(NaiveBackend::new(Arc::new(f))), Arc::new(bc)];
        prop_assert_eq!(backends[0].level(), ExecLevel::Interpreted);
        prop_assert_eq!(backends[1].level(), ExecLevel::Interpreted);
        let rt = Registry::new();
        let mut frame = Frame::new();
        let args = [x as u64, y as u64];
        let results: Vec<_> =
            backends.iter().map(|b| b.call(&args, &rt, &mut frame)).collect();
        prop_assert_eq!(&results[0], &results[1], "naive vs bytecode via dyn dispatch");
    }

    /// Fusion must not change semantics.
    #[test]
    fn fusion_is_semantics_preserving(
        stmts in prop::collection::vec(stmt_strategy(), 1..16),
        x in any::<i64>(),
    ) {
        let f = lower(&stmts);
        let fused = run_vm(&f, &[x as u64, 1], TranslateOptions::default());
        let unfused = run_vm(
            &f,
            &[x as u64, 1],
            TranslateOptions { fuse_ovf: false, fuse_gep: false, ..Default::default() },
        );
        prop_assert_eq!(fused, unfused);
    }

    /// Register reuse must not change semantics (no-reuse as the oracle).
    #[test]
    fn slot_reuse_is_semantics_preserving(
        stmts in prop::collection::vec(stmt_strategy(), 1..16),
        x in any::<i64>(),
        y in any::<i64>(),
    ) {
        let f = lower(&stmts);
        let reuse = run_vm(&f, &[x as u64, y as u64], TranslateOptions::default());
        let no_reuse = run_vm(
            &f,
            &[x as u64, y as u64],
            TranslateOptions { strategy: AllocStrategy::NoReuse, ..Default::default() },
        );
        prop_assert_eq!(reuse, no_reuse);
        let windowed = run_vm(
            &f,
            &[x as u64, y as u64],
            TranslateOptions { strategy: AllocStrategy::FixedWindow(3), ..Default::default() },
        );
        prop_assert_eq!(reuse, windowed);
    }

    /// The register file with reuse never exceeds the no-reuse file, and the
    /// linear live ranges keep it dramatically smaller on loop-heavy code.
    #[test]
    fn reuse_never_larger(stmts in prop::collection::vec(stmt_strategy(), 1..24)) {
        let f = lower(&stmts);
        let reuse = translate(&f, &[], TranslateOptions::default()).unwrap().frame_size;
        let no_reuse = translate(
            &f,
            &[],
            TranslateOptions { strategy: AllocStrategy::NoReuse, ..Default::default() },
        )
        .unwrap()
        .frame_size;
        prop_assert!(reuse <= no_reuse);
    }
}

/// Deterministic regression corpus: a few shapes that exercised bugs during
/// development, pinned exactly.
#[test]
fn regression_shapes() {
    use Stmt::*;
    let cases: Vec<Vec<Stmt>> = vec![
        vec![Loop { trips: 3, a: 0 }, Div(0, 1), Checked(OvfOp::Mul, 2, 2)],
        vec![Diamond(0, 1, 0, 1), Loop { trips: 0, a: 2 }],
        vec![Checked(OvfOp::Add, 0, 0), Checked(OvfOp::Sub, 1, 2), Bin(BinOp::Mul, 3, 3)],
        vec![Loop { trips: 5, a: 1 }, Loop { trips: 2, a: 2 }, Diamond(3, 2, 1, 0)],
        vec![
            BinConst(BinOp::Add, 0, i64::MIN),
            CmpConst(CmpPred::SLt, 2, i32::MAX as i64 + 1, 0, 1),
            BinConst(BinOp::Xor, 3, i32::MIN as i64 - 1),
            CmpConst(CmpPred::UGe, 1, -1, 3, 2),
        ],
    ];
    for stmts in cases {
        let f = lower(&stmts);
        for &(x, y) in &[(0i64, 0i64), (1, -1), (i64::MAX, 2), (i64::MIN, -1), (12345, -67890)] {
            let expect = naive::interpret_pure(&f, &[x as u64, y as u64]);
            let got = run_vm(&f, &[x as u64, y as u64], TranslateOptions::default());
            assert_eq!(expect, got, "stmts={stmts:?} x={x} y={y}");
        }
    }
}
