//! The paper's motivating workload (§I): a pgAdmin-style startup batch of
//! complex queries over tiny catalog tables. With up-front optimized
//! compilation, "98% of the time will be wasted on compilation"; adaptive
//! execution compiles only where the cost model says a pipeline's rows pay
//! for it and stays interactive. The run prints what it measured.
//!
//! ```text
//! cargo run --release --example pgadmin_startup
//! ```

use aqe::engine::exec::{ExecMode, ExecOptions};
use aqe::engine::session::Engine;
use aqe::queries::meta;
use aqe::storage::meta as meta_tables;
use std::time::Instant;

fn main() {
    let catalog = meta_tables::generate(400);
    let batch = meta::startup_batch();
    println!("pgAdmin-style startup batch: {} catalog queries\n", batch.len());
    println!("{:<12} {:>12} {:>16}", "mode", "total[ms]", "compiles");

    let mut totals = Vec::new();
    let (mut pipelines, mut adaptive_compiles, mut background) = (0, 0, 0);
    for (mode, label) in [
        (ExecMode::Native, "native-opt"),
        (ExecMode::NativeUnopt, "native-unopt"),
        (ExecMode::Bytecode, "bytecode"),
        (ExecMode::Adaptive, "adaptive"),
    ] {
        // A fresh engine per mode: each row measures a cold startup batch.
        let engine = Engine::new(catalog.clone());
        let session = engine.session();
        let t0 = Instant::now();
        let mut compiles = 0;
        for q in &batch {
            let prepared = session.prepare(&q.root, q.dicts.clone());
            let opts = ExecOptions { mode, threads: 1, ..Default::default() };
            let (_, report) = session.execute_with(&prepared, &opts).expect("query ok");
            // A static compiled mode compiles every pipeline up front; an
            // adaptive pipeline counts its start compile and its
            // mid-query ones.
            compiles += match mode {
                ExecMode::Native | ExecMode::NativeUnopt if aqe::jit::native::enabled() => {
                    report.sched.len() as u64
                }
                _ => report.sched.iter().map(|s| s.compiles_started).sum(),
            };
            if mode == ExecMode::Adaptive {
                pipelines += report.sched.len();
                background += report.background_compiles;
            }
        }
        let total = t0.elapsed().as_secs_f64() * 1e3;
        println!("{label:<12} {total:>12.2} {compiles:>16}");
        totals.push(total);
        adaptive_compiles = compiles;
    }
    println!(
        "\nAdaptive started {adaptive_compiles} compiles over {pipelines} pipelines \
         ({background} installed mid-query) and took {:.2} ms: {:.2}× bytecode, \
         {:.2}× up-front optimized compilation.",
        totals[3],
        totals[3] / totals[2],
        totals[3] / totals[0]
    );
}
