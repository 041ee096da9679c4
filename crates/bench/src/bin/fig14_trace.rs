//! Fig. 14 — morsel-level execution trace of TPC-H Q11 (4 threads) for
//! bytecode, unoptimized, and adaptive execution. Prints a compact textual
//! gantt and a CSV (`fig14_trace.csv`).

use aqe_bench::{env_or, ms, physical, run_mode};
use aqe_engine::exec::ExecMode;
use std::io::Write;

fn main() {
    let sf = env_or("AQE_SF", 0.2);
    let threads = env_or("AQE_THREADS", 4);
    eprintln!("generating TPC-H SF {sf}…");
    let cat = aqe_storage::tpch::generate(sf);
    let q = aqe_queries::tpch::q11(&cat);
    let phys = physical(&cat, &q);

    let mut csv = String::from("mode,thread,pipeline,kind,start_us,end_us,tuples\n");
    for (mode, label) in [
        (ExecMode::Bytecode, "bytecode"),
        (ExecMode::NativeUnopt, "native-unopt"),
        (ExecMode::Adaptive, "adaptive"),
    ] {
        let (total, report, _) = run_mode(&cat, &phys, mode, threads, true);
        println!("\n# {label}: total {:.2} ms (exec {:.2} ms)", ms(total), ms(report.exec));
        let end = report.trace.iter().map(|e| e.end_us).max().unwrap_or(1).max(1);
        for t in 0..threads as u16 {
            let mut line = vec![b'.'; 64];
            for e in report.trace.iter().filter(|e| e.thread == t) {
                let (a, b) = (
                    (e.start_us * 63 / end) as usize,
                    ((e.end_us * 63 / end) as usize).max((e.start_us * 63 / end) as usize),
                );
                let ch = match e.kind {
                    0 => b'b',
                    1 => b'u',
                    4 => b'o',
                    _ => b'C',
                };
                for c in line.iter_mut().take(b + 1).skip(a) {
                    *c = ch;
                }
            }
            println!("thread {t}: {}", String::from_utf8_lossy(&line));
        }
        let compiles = report.trace.iter().filter(|e| e.kind == 255).count();
        println!("background compiles: {compiles}; pipelines: {:?}", report.pipeline_labels);
        for s in &report.sched {
            println!(
                "  p{}: {} morsels, scan pre-filter skipped {} of {} rows",
                s.pipeline, s.morsels, s.rows_skipped, s.total_rows
            );
        }
        for e in &report.trace {
            csv.push_str(&format!(
                "{label},{},{},{},{},{},{}\n",
                e.thread, e.pipeline, e.kind, e.start_us, e.end_us, e.tuples
            ));
        }
    }
    std::fs::File::create("fig14_trace.csv")
        .and_then(|mut f| f.write_all(csv.as_bytes()))
        .expect("write csv");
    println!(
        "\n(legend: b=bytecode morsel, u=unoptimized machine code, o=optimized, C=compile; \
         CSV → fig14_trace.csv)"
    );
}
