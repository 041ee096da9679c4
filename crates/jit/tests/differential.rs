//! Differential tests: every executable form of a function — the bytecode
//! VM, the step stream at both levels (run by the reference step
//! interpreter), and the machine code lowered from each stream — must
//! behave identically to the naive IR walker, traps included. That is the
//! §III-B requirement that lets the adaptive engine hot-swap execution
//! modes mid-pipeline. Comparing the step interpreter and the lowered code
//! separately tells a pass or packing bug from a lowering bug. Machine-code
//! coverage runs only where the emitter exists (x86-64 Linux, `AQE_NATIVE`
//! not `0`); elsewhere only the portable forms are compared.

use aqe_ir::testgen::{gen_module, is_pure_seed};
use aqe_ir::{
    BinOp, CmpPred, Constant, ExternDecl, Function, FunctionBuilder, Operand, OvfOp, Type, ValueId,
};
use aqe_jit::compile::{compile, OptLevel};
use aqe_jit::exec::execute_compiled;
use aqe_jit::native::compile_native_at;
use aqe_jit::passes::optimize;
use aqe_vm::backend::{ExecMode, PipelineBackend};
use aqe_vm::interp::{ExecError, Frame};
use aqe_vm::naive;
use aqe_vm::rt::Registry;
use aqe_vm::translate::{translate, TranslateOptions};
use proptest::prelude::*;
use std::sync::Arc;

const LEVELS: [OptLevel; 2] = [OptLevel::Unoptimized, OptLevel::Optimized];

/// What one execution produced: a return value or a trap.
type Outcome = Result<Option<u64>, ExecError>;

/// Run a pure function in every executable form; the error is the first
/// form that disagrees with the naive walker on `args`, with what it
/// produced and what the walker did.
fn first_divergence(
    f: &Function,
    externs: &[ExternDecl],
    args: &[u64],
) -> Result<(), (String, Outcome, Outcome)> {
    let expect = naive::interpret_pure(f, args);
    let rt = Registry::new();
    let mut frame = Frame::new();
    let check = |form: String, got| {
        if got == expect {
            Ok(())
        } else {
            Err((form, got, expect.clone()))
        }
    };
    let bc = translate(f, externs, TranslateOptions::default()).expect("translate");
    check("bytecode".to_string(), aqe_vm::interp::execute(&bc, args, &rt, &mut frame))?;
    for level in LEVELS {
        let cf = compile(f, externs, level).expect("compile");
        check(format!("steps {level:?}"), execute_compiled(&cf, args, &rt, &mut frame))?;
        if aqe_jit::native::enabled() {
            let nf = compile_native_at(f, externs, level).expect("native compile");
            check(format!("native {level:?}"), nf.call(args, &rt, &mut frame))?;
        }
    }
    Ok(())
}

fn assert_all_forms_agree(f: &Function, externs: &[ExternDecl], args: &[u64]) {
    if let Err((form, got, expect)) = first_divergence(f, externs, args) {
        panic!("{} {form} on {args:?}: got {got:?}, naive walker says {expect:?}", f.name);
    }
}

/// Boundary inputs: zero, sign flips, and the i32/i64 extremes.
const BOUNDARY_INPUTS: [(i64, i64); 6] = [
    (0, 0),
    (1, -1),
    (i64::MAX, 2),
    (i64::MIN, -1),
    (i32::MAX as i64, i32::MIN as i64),
    (-7, i64::MAX),
];

#[derive(Clone, Debug)]
enum Stmt {
    Bin(BinOp, u8, u8),
    BinConst(BinOp, u8, i64),
    Checked(OvfOp, u8, u8),
    CmpSelect(CmpPred, u8, u8, u8, u8),
    /// compare against a literal — exercises the emitter's immediate
    /// widening (i32-range vs 64-bit literals need different encodings).
    CmpConst(CmpPred, u8, i64, u8, u8),
    Diamond(u8, u8, u8),
    Loop {
        trips: u8,
        a: u8,
    },
    Div(u8, i16),
}

/// Literals on encoding boundaries: the i32/i64 type extremes, one past
/// the i32 immediate range on both sides, and the all-ones pattern.
const BOUNDARY_CONSTS: [i64; 7] = [
    i64::MIN,
    i64::MAX,
    i32::MIN as i64,
    i32::MAX as i64,
    i32::MIN as i64 - 1,
    i32::MAX as i64 + 1,
    -1,
];

/// Literal pool biased toward [`BOUNDARY_CONSTS`]: each of them one time
/// in eight, otherwise a value around the i8 immediate limit.
fn const_strategy() -> impl Strategy<Value = i64> {
    (any::<i16>(), 0..=BOUNDARY_CONSTS.len())
        .prop_map(|(small, pick)| pick.checked_sub(1).map_or(small.into(), |i| BOUNDARY_CONSTS[i]))
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
    let bin_ops2 = bin_ops.clone();
    let ovf = prop_oneof![Just(OvfOp::Add), Just(OvfOp::Sub), Just(OvfOp::Mul)];
    let preds =
        prop_oneof![Just(CmpPred::Eq), Just(CmpPred::SLt), Just(CmpPred::SGe), Just(CmpPred::UGt),];
    let preds2 = preds.clone();
    prop_oneof![
        (bin_ops, any::<u8>(), any::<u8>()).prop_map(|(o, a, b)| Stmt::Bin(o, a, b)),
        (bin_ops2, any::<u8>(), const_strategy()).prop_map(|(o, a, c)| Stmt::BinConst(o, a, c)),
        (ovf, any::<u8>(), any::<u8>()).prop_map(|(o, a, b)| Stmt::Checked(o, a, b)),
        (preds, any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(p, a, b, c, d)| Stmt::CmpSelect(p, a, b, c, d)),
        (preds2, any::<u8>(), const_strategy(), any::<u8>(), any::<u8>())
            .prop_map(|(p, a, k, c, d)| Stmt::CmpConst(p, a, k, c, d)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| Stmt::Diamond(a, b, c)),
        (0u8..5, any::<u8>()).prop_map(|(trips, a)| Stmt::Loop { trips, a }),
        (any::<u8>(), any::<i16>()).prop_map(|(a, d)| Stmt::Div(a, d)),
    ]
}

fn lower(stmts: &[Stmt]) -> Function {
    let mut b = FunctionBuilder::new("prog", &[Type::I64, Type::I64], Some(Type::I64));
    let mut vals: Vec<ValueId> = vec![b.param(0), b.param(1)];
    let pick = |vals: &[ValueId], i: u8| vals[i as usize % vals.len()];
    for s in stmts {
        match *s {
            Stmt::Bin(op, a, bi) => {
                let v = b.bin(op, Type::I64, pick(&vals, a).into(), pick(&vals, bi).into());
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
                let v =
                    b.checked_arith(op, Type::I64, pick(&vals, a).into(), pick(&vals, bi).into());
                vals.push(v);
            }
            Stmt::CmpSelect(p, a, bi, c, d) => {
                let cond = b.cmp(p, Type::I64, pick(&vals, a).into(), pick(&vals, bi).into());
                let v =
                    b.select(Type::I64, cond.into(), pick(&vals, c).into(), pick(&vals, d).into());
                vals.push(v);
            }
            Stmt::Diamond(a, bi, c) => {
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
                b.br(j_bb);
                b.switch_to(j_bb);
                let phi = b.phi(Type::I64, vec![(t_bb, tv.into()), (e_bb, pick(&vals, c).into())]);
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
                let acc3 = b.bin(BinOp::Mul, Type::I64, acc.into(), Constant::i64(3).into());
                let acc2 = b.bin(BinOp::Xor, Type::I64, acc3.into(), iv.into());
                let iv2 = b.bin(BinOp::Add, Type::I64, iv.into(), Constant::i64(1).into());
                b.phi_add_incoming(iv, body, iv2.into());
                b.phi_add_incoming(acc, body, acc2.into());
                b.br(head);
                b.switch_to(exit);
                vals.push(acc);
            }
            Stmt::Div(a, d) => {
                let v = b.bin(
                    BinOp::SDiv,
                    Type::I64,
                    pick(&vals, a).into(),
                    Constant::i64(d as i64).into(),
                );
                vals.push(v);
            }
        }
    }
    let mut acc: Operand = vals[0].into();
    for &v in &vals[1..] {
        acc = b.bin(BinOp::Xor, Type::I64, acc, v.into()).into();
    }
    b.ret(Some(acc));
    b.finish().expect("generated program must verify")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_form_matches_naive(
        stmts in prop::collection::vec(stmt_strategy(), 1..20),
        x in any::<i64>(),
        y in any::<i64>(),
    ) {
        let f = lower(&stmts);
        let diverged = first_divergence(&f, &[], &[x as u64, y as u64]);
        prop_assert!(diverged.is_ok(), "{:?}", diverged);
    }

    /// Every rung of the ladder is a pipeline backend: dispatched uniformly
    /// through `Arc<dyn PipelineBackend>` (the handle the engine swaps
    /// mid-query), bytecode and both machine-code levels still agree with
    /// the naive oracle and advertise the right kind.
    #[test]
    fn backends_agree_through_trait_dispatch(
        stmts in prop::collection::vec(stmt_strategy(), 1..16),
        x in any::<i64>(),
        y in any::<i64>(),
    ) {
        let f = lower(&stmts);
        let args = [x as u64, y as u64];
        let expect = naive::interpret_pure(&f, &args);
        let rt = Registry::new();
        let mut frame = Frame::new();
        let mut backends: Vec<(Arc<dyn PipelineBackend>, ExecMode)> = vec![(
            Arc::new(translate(&f, &[], TranslateOptions::default()).expect("translate")),
            ExecMode::Bytecode,
        )];
        if aqe_jit::native::enabled() {
            for (level, kind) in LEVELS.into_iter().zip([ExecMode::NativeUnopt, ExecMode::Native]) {
                let nf = compile_native_at(&f, &[], level).expect("native compilation");
                backends.push((Arc::new(nf), kind));
            }
        }
        for (backend, kind) in backends {
            prop_assert_eq!(backend.kind(), kind);
            let got = backend.call(&args, &rt, &mut frame);
            prop_assert_eq!(&expect, &got, "kind {:?}", kind);
        }
    }

    /// The pass pipeline must leave a verifiable function behind.
    #[test]
    fn passes_preserve_verification(
        stmts in prop::collection::vec(stmt_strategy(), 1..20),
    ) {
        let mut f = lower(&stmts);
        optimize(&mut f);
        aqe_ir::verify_function(&f).unwrap();
    }

    /// Optimized code never executes more IR instructions than unoptimized.
    #[test]
    fn optimizer_never_grows_code(
        stmts in prop::collection::vec(stmt_strategy(), 1..20),
    ) {
        let f = lower(&stmts);
        let u = compile(&f, &[], OptLevel::Unoptimized).unwrap();
        let o = compile(&f, &[], OptLevel::Optimized).unwrap();
        prop_assert!(o.stats.ir_instrs_after <= u.stats.ir_instrs_before);
    }
}

/// A worker-ABI-shaped accumulator: `f(ptr, begin, end)` folds
/// `i*i ^ i` over `begin..end` into `[ptr]` with an overflow-checked add —
/// the same memory-resident state a pipeline's aggregation keeps, so a
/// range can be split across two backends exactly like a pipeline split
/// across morsels.
fn range_accum_fn() -> Function {
    let mut b = FunctionBuilder::new("accum", &[Type::Ptr, Type::I64, Type::I64], None);
    let p = b.param(0);
    let begin = b.param(1);
    let end = b.param(2);
    b.counted_loop(begin.into(), end.into(), |b, iv| {
        let sq = b.bin(BinOp::Mul, Type::I64, iv.into(), iv.into());
        let v = b.bin(BinOp::Xor, Type::I64, sq.into(), iv.into());
        let cur = b.load(Type::I64, p.into());
        let sum = b.checked_arith(OvfOp::Add, Type::I64, cur.into(), v.into());
        b.store(Type::I64, sum.into(), p.into());
    });
    b.ret(None);
    b.finish().unwrap()
}

/// One case of the ladder-switch property: `0..total` cut at two
/// percentages into three parts, run bytecode → unoptimized → optimized
/// machine code, against all three parts on the bytecode VM.
fn switch_up_the_ladder(total: u64, cut_a: u64, cut_b: u64, seed: i64) {
    let f = range_accum_fn();
    let rt = Registry::new();
    let mut frame = Frame::new();
    let (lo, hi) = (cut_a.min(cut_b), cut_a.max(cut_b));
    let cuts = [0, total * lo / 100, total * hi / 100, total];

    let bc = translate(&f, &[], TranslateOptions::default()).expect("translate");
    let unopt = compile_native_at(&f, &[], OptLevel::Unoptimized).expect("compile unopt");
    let opt = compile_native_at(&f, &[], OptLevel::Optimized).expect("compile opt");
    // Statuses of the parts (a part after a trap never runs) and the
    // accumulated state.
    let mut run = |parts: [&dyn PipelineBackend; 3]| {
        let mut acc = [seed as u64];
        let p = acc.as_mut_ptr() as u64;
        let mut statuses = Vec::new();
        for (backend, range) in parts.into_iter().zip(cuts.windows(2)) {
            let r = backend.call(&[p, range[0], range[1]], &rt, &mut frame);
            let trapped = r.is_err();
            statuses.push(r);
            if trapped {
                break;
            }
        }
        (statuses, acc[0])
    };
    let reference = run([&bc, &bc, &bc]);
    let switched = run([&bc, &unopt, &opt]);
    assert_eq!(switched.0, reference.0, "per-part status");
    assert_eq!(switched.1, reference.1, "accumulated state");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The §III-B hot-swap contract along the whole ladder: running the
    /// first part of a range on the bytecode VM, the middle on unoptimized
    /// and the rest on optimized machine code must produce exactly the
    /// state and trap behaviour of a single backend — including seeds
    /// chosen to overflow mid-range, where *which part traps* must also
    /// agree. Without the emitter there is nothing to switch to.
    #[test]
    fn mid_range_switches_up_the_ladder_preserve_results_and_traps(
        total in 0u64..400,
        cut_a in 0u64..=100,
        cut_b in 0u64..=100,
        seed in prop_oneof![
            Just(0i64),
            any::<i64>(),
            (0i64..1 << 20).prop_map(|d| i64::MAX - d), // near-overflow seeds
        ],
    ) {
        if aqe_jit::native::enabled() {
            switch_up_the_ladder(total, cut_a, cut_b, seed);
        }
    }
}

/// Deterministic register-pressure corpus for the linear-scan allocator:
/// more simultaneously loop-crossing values than the emitter has
/// allocatable registers (4 callee-saved + 4 caller-saved), so at the
/// optimized level some hulls are promoted, some evicted, and some stay in
/// memory — and the final XOR fold keeps every value live to the end. Both
/// configurations must agree with the naive interpreter bit-for-bit,
/// boundary inputs included.
#[test]
fn register_pressure_corpus_matches_naive_in_every_form() {
    use Stmt::*;
    // 12 long-lived values defined before three nested-pressure loops.
    let mut stmts: Vec<Stmt> = (0..12i64)
        .map(|i| BinConst(BinOp::Add, (i % 3) as u8, i * 0x0123_4567_89AB + i64::MIN / 7))
        .collect();
    stmts.extend([
        Loop { trips: 4, a: 3 },
        CmpConst(CmpPred::SLt, 5, i32::MAX as i64 + 1, 2, 9),
        Loop { trips: 3, a: 7 },
        Checked(OvfOp::Add, 1, 11),
        CmpConst(CmpPred::UGt, 4, i32::MIN as i64, 8, 1),
        Loop { trips: 2, a: 13 },
        Div(6, 257),
    ]);
    let f = lower(&stmts);
    for (x, y) in BOUNDARY_INPUTS {
        assert_all_forms_agree(&f, &[], &[x as u64, y as u64]);
    }
}

/// The shared testgen corpus, seeds 1..=24: pure seeds run in every form
/// over a grid of small and boundary inputs; full seeds (calls, loads,
/// stores — compile-only by the generator's contract) must lower in both
/// configurations.
#[test]
fn testgen_corpus_matches_naive_in_every_form() {
    for seed in 1..=24u64 {
        let m = gen_module(seed);
        let f = &m.functions[0];
        if is_pure_seed(seed) {
            let grid = (-2i64..=2).flat_map(|x| (-2i64..=2).map(move |y| (x, y)));
            for (x, y) in grid.chain(BOUNDARY_INPUTS) {
                assert_all_forms_agree(f, &m.externs, &[x as u64, y as u64]);
            }
        } else if aqe_jit::native::enabled() {
            for level in LEVELS {
                compile_native_at(f, &m.externs, level)
                    .unwrap_or_else(|e| panic!("seed {seed} at {level:?}: {e}"));
            }
        }
    }
}

/// Every boundary literal through every immediate-taking shape (binary op,
/// compare-and-select, checked add against the other input), in every
/// form: the emitter widens an immediate differently on each side of the
/// i32 range, and the unoptimized configuration sees the literals the
/// optimizer would otherwise fold.
#[test]
fn boundary_constants_match_naive_in_every_form() {
    use Stmt::*;
    let bin_ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor];
    let preds = [CmpPred::Eq, CmpPred::SLt, CmpPred::SGe, CmpPred::UGt];
    for k in BOUNDARY_CONSTS {
        for (i, op) in bin_ops.into_iter().enumerate() {
            let pred = preds[i % preds.len()];
            let f =
                lower(&[BinConst(op, 0, k), CmpConst(pred, 2, k, 0, 1), Checked(OvfOp::Add, 2, 3)]);
            for (x, y) in BOUNDARY_INPUTS {
                assert_all_forms_agree(&f, &[], &[x as u64, y as u64]);
            }
        }
    }
}
