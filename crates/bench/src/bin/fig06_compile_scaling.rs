//! Fig. 6 — IR instruction count vs compilation time for the TPC-H and
//! TPC-DS query corpus (bytecode translation and both machine-code
//! levels), plus the per-function linear fit `base + per_instr × instrs`
//! the engine's `CostModel` defaults are taken from (EXPERIMENTS.md),
//! printed beside those defaults.

use aqe_bench::{bytecode_translate_time, ms, native_compile_time};
use aqe_jit::compile::OptLevel;
use aqe_jit::native::compile_native_at;
use std::time::Instant;

/// (IR instructions, best-of-5 compile seconds) of one worker function.
type Point = (f64, f64);

/// Ordinary least squares `y = base + per × x`; returns (base, per, R²).
fn fit(points: &[Point]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    let (sx, sy) = points.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (mx, my) = (sx / n, sy / n);
    let sxy: f64 = points.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = points.iter().map(|(x, _)| (x - mx).powi(2)).sum();
    let syy: f64 = points.iter().map(|(_, y)| (y - my).powi(2)).sum();
    let per = sxy / sxx;
    (my - per * mx, per, sxy * sxy / (sxx * syy))
}

fn main() {
    let tpch = aqe_storage::tpch::generate(0.01);
    let tpcds = aqe_storage::tpcds::generate(0.01);
    println!("# Fig. 6 — instructions vs compile time");
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>12}",
        "query", "instrs", "bc[ms]", "unopt[ms]", "opt[ms]"
    );
    // Per-function points of the benchmark corpora, per level, for the fit.
    let mut points: [Vec<Point>; 2] = Default::default();
    let mut run = |name: &str, cat: &aqe_storage::Catalog, q: &aqe_queries::Query, fitted: bool| {
        let phys = aqe_engine::plan::decompose(cat, &q.root, q.dicts.clone());
        let module = aqe_engine::codegen::generate(&phys, cat);
        println!(
            "{:<14} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            name,
            module.instruction_count(),
            ms(bytecode_translate_time(&module)),
            ms(native_compile_time(&module, OptLevel::Unoptimized)),
            ms(native_compile_time(&module, OptLevel::Optimized))
        );
        if !fitted {
            return;
        }
        for (level, points) in
            [OptLevel::Unoptimized, OptLevel::Optimized].into_iter().zip(&mut points)
        {
            for f in &module.functions {
                let best = (0..5)
                    .map(|_| {
                        let t = Instant::now();
                        compile_native_at(f, &module.externs, level).expect("native compile");
                        t.elapsed().as_secs_f64()
                    })
                    .fold(f64::INFINITY, f64::min);
                points.push((f.instruction_count() as f64, best));
            }
        }
    };
    for q in aqe_queries::tpch::all(&tpch) {
        run(&q.name.clone(), &tpch, &q, true);
    }
    for q in aqe_queries::tpcds::all(&tpcds) {
        run(&q.name.clone(), &tpcds, &q, true);
    }
    // Extend the x-axis with generated wide aggregates (Fig. 6's 19k tail).
    // They stay out of the fit: optimized compilation is super-linear out
    // there (Fig. 15), and the controller decides on corpus-sized pipelines.
    for n in [50, 200, 800] {
        let q = aqe_queries::synthetic::wide_agg(n);
        run(&q.name.clone(), &tpch, &q, false);
    }
    // The committed constants the controller decides with, printed beside
    // the fresh fit so a reader sees how far this machine is from them.
    let model = aqe_engine::CostModel::default();
    let committed =
        [(model.unopt_base_s, model.unopt_per_instr_s), (model.opt_base_s, model.opt_per_instr_s)];
    println!("\n# per-function least-squares fit over the TPC-H + TPC-DS worker functions");
    println!("# (model = the committed CostModel::default() constants)");
    println!(
        "{:<8} {:>10} {:>12} {:>16} {:>8} | {:>16} {:>20}",
        "level",
        "functions",
        "base[us]",
        "per-instr[us]",
        "R^2",
        "model base[us]",
        "model per-instr[us]"
    );
    for ((label, points), (model_base, model_per)) in
        ["unopt", "opt"].into_iter().zip(&points).zip(committed)
    {
        let (base, per, r2) = fit(points);
        println!(
            "{:<8} {:>10} {:>12.2} {:>16.4} {:>8.3} | {:>16.2} {:>20.4}",
            label,
            points.len(),
            base * 1e6,
            per * 1e6,
            r2,
            model_base * 1e6,
            model_per * 1e6
        );
    }
}
