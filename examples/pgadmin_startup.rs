//! The paper's motivating workload (§I): a pgAdmin-style startup batch of
//! complex queries over tiny catalog tables. With up-front optimized
//! compilation, "98% of the time will be wasted on compilation"; adaptive
//! execution never compiles these queries and stays interactive.
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
        let mut compiles = 0usize;
        for q in &batch {
            let prepared = session.prepare(&q.root, q.dicts.clone());
            let opts = ExecOptions { mode, threads: 1, ..Default::default() };
            let (_, report) = session.execute_with(&prepared, &opts).expect("query ok");
            compiles += report.background_compiles
                + if matches!(mode, ExecMode::Native | ExecMode::NativeUnopt) {
                    report.pipeline_labels.len()
                } else {
                    0
                };
        }
        println!("{:<12} {:>12.2} {:>16}", label, t0.elapsed().as_secs_f64() * 1e3, compiles);
    }
    println!(
        "\nAdaptive execution matches pure interpretation here: none of these \
         queries ever justifies compilation (paper §V-A, SF ≤ 0.1)."
    );
}
