//! Table I — planning and compilation times (ms) for TPC-H queries:
//! plan construction ("plan"), IR code generation ("cdg."), bytecode
//! translation ("bc."), unoptimized and optimized machine-code
//! compilation; plus the Volcano/vectorized baselines' planning time (they
//! share the planner).

use aqe_bench::{bytecode_translate_time, ms, native_compile_time};
use aqe_jit::compile::OptLevel;
use std::time::Instant;

fn main() {
    let cat = aqe_storage::tpch::generate(0.01);
    println!("# Table I — planning and compilation times [ms] (TPC-H)");
    println!(
        "{:<6} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "query", "plan", "cdg.", "bc.", "unopt.", "opt."
    );
    let mut maxima = [0f64; 5];
    let build_all = aqe_queries::tpch::all(&cat);
    for (qi, q) in build_all.iter().enumerate() {
        let t = Instant::now();
        let phys = aqe_engine::plan::decompose(&cat, &q.root, q.dicts.clone());
        let plan_t = ms(t.elapsed());
        let t = Instant::now();
        let module = aqe_engine::codegen::generate(&phys, &cat);
        let cdg_t = ms(t.elapsed());
        let bc_t = ms(bytecode_translate_time(&module));
        let un_t = ms(native_compile_time(&module, OptLevel::Unoptimized));
        let op_t = ms(native_compile_time(&module, OptLevel::Optimized));
        for (m, v) in maxima.iter_mut().zip([plan_t, cdg_t, bc_t, un_t, op_t]) {
            *m = m.max(v);
        }
        if qi < 5 {
            println!(
                "{:<6} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                q.name, plan_t, cdg_t, bc_t, un_t, op_t
            );
        }
    }
    println!(
        "{:<6} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
        "max", maxima[0], maxima[1], maxima[2], maxima[3], maxima[4]
    );
    println!(
        "# baselines (Volcano/vectorized) execute the same plans: their 'plan' column equals ours"
    );
}
