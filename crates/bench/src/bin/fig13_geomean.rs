//! Fig. 13 — geometric mean over all TPC-H queries (planning, compilation
//! and execution) per scale factor and execution mode, and the figure's
//! claim checked: at every scale factor the adaptive column is at most
//! [`MARGIN`] × the fastest static column. Each query's time is the best
//! of [`RUNS`] cold runs, so one noisy run on a shared machine cannot
//! decide the check. A breach prints the offending scale factor and exits
//! with status 1.
//!
//! Paper setup: SF 0.01–30, 8 threads on 8 cores. This host has one core;
//! defaults are SF {0.01, 0.1, 0.5} and AQE_THREADS (default 4, time-sliced).

use aqe_bench::{env_list_or, env_or, geomean, ms, physical, run_mode, MODES};
use aqe_engine::exec::ExecMode;

/// Cold runs per query and mode; the fastest counts.
const RUNS: usize = 3;
/// How far the adaptive column may trail the fastest static one.
const MARGIN: f64 = 1.25;

fn main() {
    let sfs = env_list_or("AQE_SF_LIST", &[0.01, 0.1, 0.5]);
    let threads = env_or("AQE_THREADS", 4);
    println!("# Fig. 13 — geometric mean over TPC-H queries ({threads} threads, best of {RUNS})");
    print!("{:<8}", "SF");
    for (_, label) in MODES {
        print!(" {label:>12}");
    }
    println!(" {:>12}", "adapt/best");
    let mut breaches = Vec::new();
    for &sf in &sfs {
        eprintln!("generating SF {sf}…");
        let cat = aqe_storage::tpch::generate(sf);
        let queries = aqe_queries::tpch::all(&cat);
        let mut per_mode = Vec::new();
        for (mode, _) in MODES {
            let mut samples = Vec::new();
            for q in &queries {
                let phys = physical(&cat, q);
                let best = (0..RUNS)
                    .map(|_| ms(run_mode(&cat, &phys, mode, threads, false).0))
                    .fold(f64::INFINITY, f64::min);
                samples.push(best.max(1e-3));
            }
            per_mode.push((mode, geomean(&samples)));
        }
        let adaptive = per_mode.iter().find(|(m, _)| *m == ExecMode::Adaptive).unwrap().1;
        let best_static = per_mode
            .iter()
            .filter(|(m, _)| *m != ExecMode::Adaptive)
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min);
        let ratio = adaptive / best_static;
        print!("{sf:<8}");
        for (_, v) in per_mode {
            print!(" {v:>12.2}");
        }
        println!(" {ratio:>12.2}");
        if ratio > MARGIN {
            breaches.push(format!("SF {sf}: adaptive {adaptive:.2} ms = {ratio:.2}× best static"));
        }
    }
    println!("# (times in ms; includes codegen + translation + compilation + execution)");
    if !breaches.is_empty() {
        eprintln!("Fig. 13 claim fails (adaptive ≤ {MARGIN}× the fastest static mode):");
        for b in breaches {
            eprintln!("  {b}");
        }
        std::process::exit(1);
    }
}
