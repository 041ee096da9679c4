//! Fig. 15 — compilation times for very large machine-generated queries
//! (10…N aggregates). "Optimized LLVM compilation is no longer a viable
//! approach for larger query sizes … the bytecode interpreter scales
//! perfectly."

use aqe_bench::{bytecode_translate_time, env_list_or, ms, native_compile_time};
use aqe_jit::compile::OptLevel;

fn main() {
    let cat = aqe_storage::tpch::generate(0.001);
    let sizes: Vec<usize> =
        env_list_or("AQE_WIDE_SIZES", &[10, 50, 100, 200, 400, 800, 1200, 1900]);
    println!("# Fig. 15 — very large generated queries");
    println!(
        "{:<8} {:>9} {:>12} {:>12} {:>12}",
        "aggs", "instrs", "bytecode[ms]", "unopt[ms]", "opt[ms]"
    );
    for &n in &sizes {
        let q = aqe_queries::synthetic::wide_agg(n);
        let phys = aqe_engine::plan::decompose(&cat, &q.root, vec![]);
        let module = aqe_engine::codegen::generate(&phys, &cat);
        let bc = bytecode_translate_time(&module);
        let un = native_compile_time(&module, OptLevel::Unoptimized);
        // Optimized compilation explodes super-linearly; skip monster sizes
        // (the paper also cut the curve off).
        let opt_ms = if n <= 1900 {
            ms(native_compile_time(&module, OptLevel::Optimized))
        } else {
            f64::NAN
        };
        println!(
            "{:<8} {:>9} {:>12.2} {:>12.2} {:>12.2}",
            n,
            module.instruction_count(),
            ms(bc),
            ms(un),
            opt_ms
        );
    }
}
