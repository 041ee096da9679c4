//! Criterion micro-benchmarks for the core mechanisms: VM dispatch vs the
//! two machine-code levels, bytecode translation (liveness + regalloc) vs
//! machine-code compilation, and the end-to-end mode comparison on a small
//! Q6. The machine-code rows need the x86-64 emitter.

use aqe_engine::exec::{ExecMode, ExecOptions};
use aqe_jit::compile::OptLevel;
use aqe_jit::native::compile_native_at;
use aqe_vm::backend::PipelineBackend;
use aqe_vm::interp::Frame;
use aqe_vm::rt::Registry;
use aqe_vm::translate::translate;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A compute-heavy loop: Σ f(i) over [0, n) with several ops per iteration.
fn loop_function() -> aqe_ir::Function {
    use aqe_ir::{BinOp, CmpPred, Constant, FunctionBuilder, Type};
    let mut b = FunctionBuilder::new("hot", &[Type::I64], Some(Type::I64));
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
    let x = b.bin(BinOp::Mul, Type::I64, iv.into(), Constant::i64(3).into());
    let y = b.bin(BinOp::Xor, Type::I64, x.into(), iv.into());
    let z = b.bin(BinOp::And, Type::I64, y.into(), Constant::i64(0xffff).into());
    let acc2 = b.bin(BinOp::Add, Type::I64, acc.into(), z.into());
    let iv2 = b.bin(BinOp::Add, Type::I64, iv.into(), Constant::i64(1).into());
    b.phi_add_incoming(iv, body, iv2.into());
    b.phi_add_incoming(acc, body, acc2.into());
    b.br(head);
    b.switch_to(exit);
    b.ret(Some(acc.into()));
    b.finish().unwrap()
}

fn bench_dispatch(c: &mut Criterion) {
    let f = loop_function();
    let bc = translate(&f, &[], Default::default()).unwrap();
    let unopt = compile_native_at(&f, &[], OptLevel::Unoptimized).unwrap();
    let opt = compile_native_at(&f, &[], OptLevel::Optimized).unwrap();
    let rt = Registry::new();
    let mut frame = Frame::new();
    let n = 10_000u64;
    let mut g = c.benchmark_group("dispatch_10k_iters");
    g.bench_function("naive_ir", |b| {
        b.iter(|| aqe_vm::naive::interpret(&f, black_box(&[n]), &rt).unwrap())
    });
    g.bench_function("bytecode_vm", |b| {
        b.iter(|| aqe_vm::interp::execute(&bc, black_box(&[n]), &rt, &mut frame).unwrap())
    });
    g.bench_function("native_unopt", |b| {
        b.iter(|| unopt.call(black_box(&[n]), &rt, &mut frame).unwrap())
    });
    g.bench_function("native_opt", |b| {
        b.iter(|| opt.call(black_box(&[n]), &rt, &mut frame).unwrap())
    });
    g.finish();
}

fn bench_translation(c: &mut Criterion) {
    let cat = aqe_storage::tpch::generate(0.001);
    let q = aqe_queries::synthetic::wide_agg(200);
    let phys = aqe_engine::plan::decompose(&cat, &q.root, vec![]);
    let module = aqe_engine::codegen::generate(&phys, &cat);
    let big = &module.functions[0];
    let mut g = c.benchmark_group("compile_wide_agg_200");
    g.sample_size(10);
    g.bench_function("bytecode_translate", |b| {
        b.iter(|| translate(black_box(big), &module.externs, Default::default()).unwrap())
    });
    g.bench_function("native_unopt_compile", |b| {
        b.iter(|| {
            compile_native_at(black_box(big), &module.externs, OptLevel::Unoptimized).unwrap()
        })
    });
    g.bench_function("native_opt_compile", |b| {
        b.iter(|| compile_native_at(black_box(big), &module.externs, OptLevel::Optimized).unwrap())
    });
    g.finish();
}

fn bench_q6_modes(c: &mut Criterion) {
    let cat = aqe_storage::tpch::generate(0.01);
    let q = aqe_queries::tpch::q6(&cat);
    let phys = aqe_engine::plan::decompose(&cat, &q.root, q.dicts.clone());
    let mut g = c.benchmark_group("q6_sf001");
    g.sample_size(10);
    for (mode, label) in [
        (ExecMode::Bytecode, "bytecode"),
        (ExecMode::NativeUnopt, "native-unopt"),
        (ExecMode::Native, "native-opt"),
        (ExecMode::Adaptive, "adaptive"),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                // Cold path on purpose: a fresh engine per iteration keeps
                // this a codegen+translate+execute measurement.
                let opts =
                    ExecOptions { mode, threads: 1, cache_results: false, ..Default::default() };
                let engine = aqe_engine::session::Engine::new(cat.clone());
                let session = engine.session();
                let q = session.prepare_plan(black_box(&phys).clone());
                session.execute_with(&q, &opts).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dispatch, bench_translation, bench_q6_modes);
criterion_main!(benches);
