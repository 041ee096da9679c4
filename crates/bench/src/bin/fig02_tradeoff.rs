//! Fig. 2 — compilation vs execution time of TPC-H Q1 per execution mode
//! (handwritten, optimized and unoptimized machine code, bytecode, naive
//! IR interpretation). The naive-IR row is the floor the engine really
//! falls to: `Bytecode` with every bytecode translation failing.

use aqe_bench::{env_or, fmt_ms, ms, physical, run_mode};
use aqe_engine::exec::ExecMode;
use std::time::Instant;

fn main() {
    let sf = env_or("AQE_SF", 0.1);
    // The paper's figure is single-threaded; AQE_THREADS overrides.
    let threads = env_or("AQE_THREADS", 1);
    eprintln!("generating TPC-H SF {sf}…");
    let cat = aqe_storage::tpch::generate(sf);
    let q = aqe_queries::tpch::q1(&cat);
    let phys = physical(&cat, &q);

    println!("# Fig. 2 — TPC-H Q1 @ SF {sf}, {threads} thread(s)");
    println!("{:<14} {:>12} {:>12}", "mode", "compile[ms]", "exec[ms]");

    let t = Instant::now();
    let hw = aqe_queries::handwritten::q1_handwritten(&cat);
    let hw_t = t.elapsed();
    println!("{:<14} {:>12} {:>12}", "handwritten", fmt_ms(0.0), fmt_ms(ms(hw_t)));
    assert!(!hw.is_empty());

    let row = |label: &str, mode| {
        let (_, report, _) = run_mode(&cat, &phys, mode, threads, false);
        let compile = ms(report.bc_translate + report.upfront_compile);
        println!("{:<14} {:>12} {:>12}", label, fmt_ms(compile), fmt_ms(ms(report.exec)));
        report
    };
    row("native-opt", ExecMode::Native);
    row("native-unopt", ExecMode::NativeUnopt);
    row("bytecode", ExecMode::Bytecode);
    let _floor = aqe_fault::arm("bc_translate=err", 0).expect("fault schedule");
    let naive = row("naive-IR", ExecMode::Bytecode);
    assert!(naive.degraded > 0, "the naive-IR row must not time bytecode");
}
