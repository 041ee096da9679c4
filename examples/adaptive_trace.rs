//! Watch adaptive execution switch modes mid-pipeline (paper Fig. 14):
//! runs TPC-H Q11 with tracing enabled and prints every compile event (a
//! pipeline's start compile or one on a morsel worker mid-query) and a
//! summary of which execution modes processed morsels.
//!
//! ```text
//! cargo run --release --example adaptive_trace
//! ```

use aqe::engine::exec::{ExecMode, ExecOptions};
use aqe::engine::session::Engine;
use aqe::queries::tpch;
use aqe::storage::tpch as tpch_data;

fn main() {
    let sf: f64 = std::env::var("AQE_SF")
        .map_or(0.2, |s| s.parse().unwrap_or_else(|_| panic!("AQE_SF={s:?} is not a number")));
    println!("generating TPC-H SF {sf}…");
    let engine = Engine::new(tpch_data::generate(sf));
    let session = engine.session();
    let q = engine.with_catalog(tpch::q11);
    let prepared = session.prepare(&q.root, q.dicts.clone());

    let mut opts =
        ExecOptions { mode: ExecMode::Adaptive, threads: 4, trace: true, ..Default::default() };
    // Nudge the model so the demo compiles even at small scale factors.
    opts.model.speedup_opt *= 2.0;
    let (result, report) = session.execute_with(&prepared, &opts).expect("query ok");

    println!("\npipelines:");
    for (i, label) in report.pipeline_labels.iter().enumerate() {
        println!("  p{i}: {label}");
    }
    println!("\ncompile events:");
    for e in report.trace.iter().filter(|e| e.kind == 255) {
        // A start compile ends before its pipeline's first morsel begins.
        let first_morsel = report
            .trace
            .iter()
            .filter(|m| m.pipeline == e.pipeline && m.kind != 255)
            .map(|m| m.start_us)
            .min();
        let how = if first_morsel.is_none_or(|t| e.end_us <= t) {
            "before its first morsel"
        } else {
            "mid-query"
        };
        println!(
            "  pipeline p{} compiled {how} on worker {}: {:.2} ms (at t={:.2} ms)",
            e.pipeline,
            e.thread,
            (e.end_us - e.start_us) as f64 / 1e3,
            e.start_us as f64 / 1e3
        );
    }
    println!("\nmorsels per (pipeline, mode):");
    let mut counts: std::collections::BTreeMap<(u16, u8), (u64, u64)> = Default::default();
    for e in report.trace.iter().filter(|e| e.kind != 255) {
        let c = counts.entry((e.pipeline, e.kind)).or_default();
        c.0 += 1;
        c.1 += e.tuples;
    }
    for ((p, k), (morsels, tuples)) in counts {
        let mode = match k {
            0 => "bytecode",
            1 => "native-unopt",
            2 => "native-opt",
            _ => "?",
        };
        println!("  p{p} {mode:<12} {morsels:>6} morsels {tuples:>12} tuples");
    }
    println!("\nscan pre-filter (rows the vectorized kernel kept from the code above):");
    for s in &report.sched {
        println!(
            "  p{} {:>6} morsels {:>12} of {:>12} rows skipped",
            s.pipeline, s.morsels, s.rows_skipped, s.total_rows
        );
    }
    println!(
        "\nresult rows: {}, total exec {:.2} ms, background compiles: {}",
        result.row_count(),
        report.exec.as_secs_f64() * 1e3,
        report.background_compiles
    );
}
