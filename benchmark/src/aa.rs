//! The A/A stability check: two interleaved sets of runs of this same
//! binary, every run a fresh process, run `i` of either set on seed
//! `first + i`, compared the way the driver compares two builds. A
//! benchmark that cannot tell a build from itself cannot tell it from
//! another. Beside the spread of each reported timing metric it prints the
//! spread the same runs' median-block and whole-region figures have, which
//! is the evidence for reporting the best-decile block.

use crate::json::{self, Value};
use crate::read_benchmark_json;
use crate::stats;
use crate::workloads::Workload;
use std::path::Path;
use std::process::{Command, Stdio};

struct Listed {
    name: String,
    better_lower: bool,
    bound: f64,
}

/// The rows of a run's report that restate the timing metrics another way.
const OTHER_WAYS: [&str; 2] = ["median block", "whole region"];
/// Their columns, in order.
const TIMING: [&str; 4] = ["query_p50_ms", "query_p95_ms", "corpus_geomean_ms", "queries_per_s"];

/// The four figures of the report row that starts with `label`.
fn report_row(stdout: &str, label: &str) -> Option<Vec<f64>> {
    let rest = stdout.lines().find_map(|l| l.trim_start().strip_prefix(label))?;
    let row: Vec<f64> = rest.split_whitespace().filter_map(|v| v.parse().ok()).collect();
    (row.len() == TIMING.len()).then_some(row)
}

pub fn run(
    dir: &Path,
    runs: usize,
    first_seed: u64,
    seconds: Option<f64>,
    only: Option<Workload>,
) -> Result<(), String> {
    if runs < 2 {
        return Err("--aa needs at least 2 runs per set to take quartiles".to_string());
    }
    let doc = read_benchmark_json(dir)?;
    let seconds = seconds
        .or_else(|| doc.get("run_seconds").and_then(Value::as_f64))
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let listed: Vec<Listed> = doc
        .get("end_to_end")
        .map_or(&[][..], Value::as_arr)
        .iter()
        .filter_map(|m| {
            Some(Listed {
                name: m.get("name")?.as_str()?.to_string(),
                better_lower: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let mut over = 0;
    println!(
        "{:<12} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}   {:>13} {:>13}",
        "workload",
        "metric",
        "median A",
        "median B",
        "iqr A",
        "iqr B",
        "B vs A",
        "bound",
        "iqr med.block",
        "iqr region"
    );
    for workload in Workload::ALL.into_iter().filter(|w| only.is_none_or(|o| o == *w)) {
        // sets[set][metric] -> values
        let mut sets = vec![vec![Vec::new(); listed.len()]; 2];
        // others[set][way][timing metric] -> values
        let mut others = vec![vec![vec![Vec::new(); TIMING.len()]; OTHER_WAYS.len()]; 2];
        for i in 0..runs {
            for (set, values) in sets.iter_mut().enumerate() {
                let seed = first_seed + i as u64;
                let out = Command::new(&exe)
                    .args(["--workload", workload.name(), "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                    .env("CARGO_MANIFEST_DIR", dir)
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                if !out.status.success() {
                    return Err(format!("{} seed {seed}: {}", workload.name(), out.status));
                }
                let stdout = String::from_utf8_lossy(&out.stdout);
                for (way, label) in OTHER_WAYS.iter().enumerate() {
                    let row = report_row(&stdout, label).ok_or_else(|| {
                        format!("{} seed {seed}: no {label} row", workload.name())
                    })?;
                    for (slot, v) in others[set][way].iter_mut().zip(row) {
                        slot.push(v);
                    }
                }
                let line = stdout.lines().last().unwrap_or_default();
                let result = json::parse(line).map_err(|e| format!("result line: {e}"))?;
                if result.get("correct") != Some(&Value::Bool(true)) {
                    return Err(format!("{} seed {seed}: not correct: {line}", workload.name()));
                }
                for (m, slot) in listed.iter().zip(values.iter_mut()) {
                    let v = result
                        .get("metrics")
                        .and_then(|ms| ms.get(&m.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{} seed {seed}: no {}", workload.name(), m.name))?;
                    slot.push(v);
                }
                let row: Vec<String> = values.iter().map(|v| format!("{:.4}", v[i])).collect();
                eprintln!(
                    "aa: {} set {} run {} seed {seed}: {}",
                    workload.name(),
                    ["A", "B"][set],
                    i + 1,
                    row.join(" ")
                );
            }
        }
        for (mi, m) in listed.iter().enumerate() {
            let [a, b] = [0, 1].map(|set| stats::quartiles(&sets[set][mi]));
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            // Positive = B worse than A.
            let worse = if m.better_lower { b[1] / a[1] - 1.0 } else { 1.0 - b[1] / a[1] };
            // An A/A difference has no direction: either sign counts. The
            // spread of `setup_s` is reported but, as with the driver,
            // only its medians are held to the bound.
            let spread_over = m.name != "setup_s" && spread(a).max(spread(b)) > m.bound;
            let flagged = worse.abs() > m.bound || spread_over;
            over += usize::from(flagged);
            // The wider of the two sets' spreads, had the metric been taken
            // the other way.
            let other_ways: String = match TIMING.iter().position(|t| *t == m.name) {
                None => String::new(),
                Some(t) => (0..OTHER_WAYS.len())
                    .map(|way| {
                        let [a, b] =
                            [0, 1].map(|set| spread(stats::quartiles(&others[set][way][t])));
                        format!(" {:>12.2}%", a.max(b) * 100.0)
                    })
                    .collect(),
            };
            println!(
                "{:<12} {:<18} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>+7.2}% {:>5.0}%  {other_ways}{}",
                workload.name(),
                m.name,
                a[1],
                b[1],
                spread(a) * 100.0,
                spread(b) * 100.0,
                worse * 100.0,
                m.bound * 100.0,
                if flagged { "  OVER" } else { "" }
            );
        }
    }
    if over > 0 {
        return Err(format!(
            "{over} rows over their bound: lengthen the run, do not widen the bound"
        ));
    }
    println!("aa ok: {runs} runs per set, every row within its bound");
    Ok(())
}
