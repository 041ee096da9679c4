//! Table II — execution times (ms) of TPC-H queries at 1 and N threads for
//! the Volcano baseline ("PG"), the vectorized baseline ("Monet"), and the
//! three compiled-engine modes (bytecode, unoptimized and optimized machine
//! code); plus the §V-D geometric-mean speedup ratios, beside the
//! `CostModel` speedups fitted from them.

use aqe_bench::{env_or, geomean, ms, physical, run_mode};
use aqe_engine::exec::ExecMode;
use std::time::Instant;

fn main() {
    let sf = env_or("AQE_SF", 0.05);
    let threads = env_or("AQE_THREADS", 4);
    eprintln!("generating TPC-H SF {sf}…");
    let cat = aqe_storage::tpch::generate(sf);
    let queries = aqe_queries::tpch::all(&cat);
    println!("# Table II — execution times [ms], TPC-H @ SF {sf}");
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "query", "volcano", "vector", "bc.", "unopt.", "opt.", "bc/T", "unopt/T", "opt/T"
    );
    let mut cols: [Vec<f64>; 8] = Default::default();
    for (qi, q) in queries.iter().enumerate() {
        let phys = physical(&cat, q);
        let t = Instant::now();
        let v_rows = aqe_baselines::execute_volcano(&cat, &q.root, &phys).unwrap();
        let volcano = ms(t.elapsed());
        let t = Instant::now();
        let m_rows = aqe_baselines::execute_vectorized(&cat, &q.root, &phys).unwrap();
        let vector = ms(t.elapsed());
        assert_eq!(v_rows.len(), m_rows.len(), "{} baselines disagree", q.name);
        let mut row = vec![volcano, vector];
        for mode in [ExecMode::Bytecode, ExecMode::NativeUnopt, ExecMode::Native] {
            let (_, report, _) = run_mode(&cat, &phys, mode, 1, false);
            row.push(ms(report.exec));
        }
        for mode in [ExecMode::Bytecode, ExecMode::NativeUnopt, ExecMode::Native] {
            let (_, report, _) = run_mode(&cat, &phys, mode, threads, false);
            row.push(ms(report.exec));
        }
        for (c, v) in cols.iter_mut().zip(&row) {
            c.push(v.max(1e-3));
        }
        if qi < 5 {
            println!(
                "{:<6} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} | {:>9.2} {:>9.2} {:>9.2}",
                q.name, row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7]
            );
        }
    }
    let g: Vec<f64> = cols.iter().map(|c| geomean(c)).collect();
    println!(
        "{:<6} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} | {:>9.2} {:>9.2} {:>9.2}",
        "geo.m", g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7]
    );
    // The committed speedups the controller decides with, printed beside
    // the fresh ratios they were fitted from.
    let model = aqe_engine::CostModel::default();
    println!("\n# §V-D ratios (geometric means, single-threaded):");
    println!(
        "  bytecode vs unoptimized : {:.2}x slower (CostModel speedup_unopt {:.2}x)",
        g[2] / g[3],
        model.speedup_unopt
    );
    println!(
        "  bytecode vs optimized   : {:.2}x slower (CostModel speedup_opt   {:.2}x)",
        g[2] / g[4],
        model.speedup_opt
    );
    println!("  bytecode vs volcano     : {:.2}x faster", g[0] / g[2]);
    println!("  (paper: 3.6x, 5.0x, 2.1x — see EXPERIMENTS.md for discussion)");
}
