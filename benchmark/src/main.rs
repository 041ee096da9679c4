//! One end-to-end + per-layer benchmark of the adaptive query engine.
//!
//! ```text
//! aqe-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! aqe-benchmark --smoke | --bless | --aa <runs>
//! ```
//!
//! One process runs one workload. Everything is printed on standard
//! output; the last line is the result object the driver reads. See
//! `README.md` for what the numbers mean and `../BENCHMARK.json` for the
//! contract.

mod aa;
mod corpus;
mod gen;
mod json;
mod layers;
mod measure;
mod metrics;
mod oracle;
mod probe;
mod stats;
mod trace;
mod workloads;

use measure::ExpectedTable;
use metrics::Metric;
use oracle::Expected;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Trace;
use workloads::{Scale, Workload};

/// Seed used when none is given (by hand; the driver always passes one).
const DEFAULT_SEED: u64 = 1;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds of a smoke run's measured region.
const SMOKE_ROUNDS: usize = 2;

/// The benchmark's directory: where `expected/` is read and `out/` is
/// written. `cargo run` exports the manifest directory; a binary started
/// by hand falls back to where it was built.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn expected_path(dir: &Path, workload: Workload, scale: Scale) -> PathBuf {
    let prefix = if scale == Scale::Smoke { "smoke-" } else { "" };
    dir.join("expected").join(format!("{prefix}{}.tsv", workload.name()))
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    mode: RunMode,
}

enum RunMode {
    Workload,
    Smoke,
    Bless,
    Aa(usize),
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        mode: RunMode::Workload,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {names:?}")
                })?);
            }
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s}: out of range"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: 0 or 1")),
                }
            }
            "--smoke" => a.mode = RunMode::Smoke,
            "--bless" => a.mode = RunMode::Bless,
            "--aa" => {
                a.mode =
                    RunMode::Aa(value("a run count")?.parse().map_err(|e| format!("--aa: {e}"))?)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let run = parse_args().and_then(|args| {
        let dir = package_dir();
        match args.mode {
            RunMode::Workload => {
                let workload = args.workload.ok_or("--workload <name> is required")?;
                let seconds = args.seconds.ok_or("--seconds <s> is required")?;
                let cfg = Config {
                    workload,
                    seed: args.seed,
                    scale: Scale::Full,
                    seconds,
                    trace: args.trace,
                };
                let out = run_workload(&dir, &cfg)?;
                print!("{}", out.report);
                println!("{}", out.result_line());
                Ok(())
            }
            RunMode::Smoke => smoke(&dir),
            RunMode::Bless => bless(&dir, args.workload),
            RunMode::Aa(runs) => aa::run(&dir, runs, args.seed, args.seconds, args.workload),
        }
    });
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("aqe-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

struct Config {
    workload: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    trace: bool,
}

struct Output {
    attempted: u64,
    failed: u64,
    /// (name, unit, value) in the order of `metrics`.
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// The human-readable part, ending with the summary line.
    report: String,
}

impl Output {
    /// The driver's contract: exactly these four keys, on the last line.
    fn result_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        line.push_str("}}");
        line
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn run_workload(dir: &Path, cfg: &Config) -> Result<Output, String> {
    let expected = Expected::load(&expected_path(dir, cfg.workload, cfg.scale))?;
    if cfg.trace {
        run_traced(dir, cfg, &expected)
    } else {
        run_untraced(cfg, &expected)
    }
}

fn header(cfg: &Config, samples: usize) -> String {
    format!(
        "workload {}  seed {}  scale factor {}  nproc {}  threads: {}  samples {samples}\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.workload.scale_factor(cfg.scale),
        nproc(),
        cfg.workload.threads(),
    )
}

fn metric_lines(report: &mut String, metrics: &[(&'static str, &'static str, f64)]) {
    for (name, unit, value) in metrics {
        let _ = writeln!(report, "  {name:<34} {value:>16.4} {unit}");
    }
}

fn summary_line(cfg: &Config, samples: usize, attempted: u64, failed: u64, extra: &str) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"threads\": \"{}\", \
         \"samples\": {samples}, \"attempted\": {attempted}, \"failed\": {failed}{extra}, \"claim\": null}}\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.trace,
        nproc(),
        cfg.workload.threads(),
    )
}

/// The end-to-end run: tracing off, set up `SETUPS` times, one measured
/// region.
fn run_untraced(cfg: &Config, expected: &Expected) -> Result<Output, String> {
    let (setups, rounds) = match cfg.scale {
        Scale::Full => (SETUPS, cfg.workload.rounds(cfg.seconds)),
        Scale::Smoke => (1, SMOKE_ROUNDS),
    };
    let mut setup_s = Vec::new();
    let mut instance = None;
    for _ in 0..setups {
        if let Some(previous) = instance.take() {
            workloads::Instance::close(previous)?;
        }
        let (inst, info) = workloads::setup(cfg.workload, cfg.scale, cfg.seed, true)?;
        setup_s.push(info.total_s);
        instance = Some(inst);
    }
    let mut inst = instance.expect("at least one set-up");
    let table = ExpectedTable::new(&*inst, expected)?;
    let samples = measure::run(&mut *inst, rounds, &table, None);
    let groups = inst.groups();
    inst.close()?;
    let e2e = samples.end_to_end(&groups)?;

    let reported = e2e.best_decile;
    let values = [
        stats::median(&setup_s),
        reported.p50_ms,
        reported.p95_ms,
        reported.geomean_ms,
        reported.per_s,
        peak_rss_mb()?,
    ];
    let metrics: Vec<_> =
        metrics::END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect();

    let mut report = header(cfg, samples.ok().count());
    let _ = writeln!(report, "set-ups (s): {setup_s:?}");
    let _ = writeln!(report, "classes (share, in design order of latency): {:?}", e2e.classes);
    let region_s = samples.ops.last().map_or(0.0, |o| o.end_s);
    let _ = writeln!(
        report,
        "{rounds} rounds in {region_s:.2} s, {} blocks; the metrics are the best-decile block's",
        e2e.blocks.len()
    );
    let _ = writeln!(
        report,
        "  {:<14} {:>12} {:>12} {:>12} {:>12}",
        "", "p50 ms", "p95 ms", "geomean ms", "per s"
    );
    for (name, f) in [
        ("best decile", reported),
        ("median block", e2e.median_block),
        ("whole region", e2e.pooled),
    ] {
        let _ = writeln!(
            report,
            "  {name:<14} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            f.p50_ms, f.p95_ms, f.geomean_ms, f.per_s
        );
    }
    let _ = writeln!(report, "  {:<34} {:>8} {:>12}", "statement", "samples", "p50 ms");
    let mut rows = String::new();
    for (i, g) in e2e.groups.iter().enumerate() {
        let _ = writeln!(report, "  {:<34} {:>8} {:>12.4}", g.name, g.samples, g.p50_ms);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            rows,
            "{sep}{{\"name\": \"{}\", \"samples\": {}, \"p50_ms\": {}}}",
            g.name, g.samples, g.p50_ms
        );
    }
    metric_lines(&mut report, &metrics);
    if let Some(e) = &samples.first_failure {
        let _ = writeln!(report, "first failure: {e}");
    }
    let extra = format!(", \"statements\": [{rows}]");
    report.push_str(&summary_line(
        cfg,
        samples.ok().count(),
        samples.attempted(),
        samples.failed,
        &extra,
    ));
    Ok(Output { attempted: samples.attempted(), failed: samples.failed, metrics, report })
}

/// Pairs of untraced and traced regions in a traced run: alternating them
/// keeps machine drift out of the overhead figure.
const TRACE_SEGMENTS: usize = 4;

/// The traced run: one set-up; short regions alternately without and
/// with spans, one fifth of the untraced run's rounds each way; then the
/// layer passes. Writes `out/<workload>.trace.json`.
fn run_traced(dir: &Path, cfg: &Config, expected: &Expected) -> Result<Output, String> {
    let (segments, rounds) = match cfg.scale {
        Scale::Full => {
            (TRACE_SEGMENTS, cfg.workload.rounds(cfg.seconds).div_ceil(5 * TRACE_SEGMENTS))
        }
        Scale::Smoke => (1, 1),
    };
    let (mut inst, info) = workloads::setup(cfg.workload, cfg.scale, cfg.seed, true)?;
    let outcome = (|| {
        let table = ExpectedTable::new(&*inst, expected)?;
        let (mut untraced, mut traced) = (measure::Samples::default(), measure::Samples::default());
        // Pre-sized well past a span per layer call of every operation;
        // growth beyond it is correct, only not free.
        let mut trace = Trace::with_capacity(1 << 20);
        for _ in 0..segments {
            untraced.absorb(measure::run(&mut *inst, rounds, &table, None));
            traced.absorb(measure::run(&mut *inst, rounds, &table, Some(&mut trace)));
        }
        let mut counters = probe::EngineCounters::default();
        for db in inst.dbs() {
            counters += db.counters();
        }
        let names: Vec<String> = inst.statements().into_iter().map(|s| s.name).collect();
        let rows = layers::statement_rows(&trace, &names);
        let ping_us = inst.ping_us(layers::TracedRun::pings(cfg.scale))?;
        let run = layers::TracedRun {
            workload: cfg.workload,
            scale: cfg.scale,
            inst: &*inst,
            setup: &info,
            untraced: &untraced,
            traced: &traced,
            counters,
            ping_us,
        };
        let layer = layers::measure(&run, &mut trace)?;
        Ok::<_, String>((untraced, traced, trace, layer, rows))
    })();
    inst.close()?;
    let (untraced, traced, trace, layer, rows) = outcome?;

    let out_dir = dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{}.trace.json", cfg.workload.name()));
    std::fs::write(&path, trace.to_json(cfg.workload.name(), cfg.seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    // A layer this workload's operations do not go through reads 0.
    let metrics = metrics::PER_LAYER
        .iter()
        .map(|&(name, unit, on)| match layer.get(name) {
            _ if !on.contains(&cfg.workload) => Ok((name, unit, 0.0)),
            Some(&v) => Ok((name, unit, v)),
            None => Err(format!("layer metric {name} was not measured")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let attempted = untraced.attempted() + traced.attempted();
    let failed = untraced.failed + traced.failed;
    let mut report = header(cfg, traced.ok().count());
    let _ = writeln!(report, "trace: {} spans in {}", trace.spans().len(), path.display());
    let _ = writeln!(
        report,
        "  {:<34} {:>8} {:>12} {:>14}",
        "statement", "samples", "p50 ms", "compile path"
    );
    for r in &rows {
        let _ = writeln!(
            report,
            "  {:<34} {:>8} {:>12.4} {:>13.1}%",
            r.name,
            r.samples,
            r.p50_ms,
            r.compile_path_share * 100.0
        );
    }
    let measured =
        |name: &str| metrics::PER_LAYER.iter().any(|m| m.0 == name && m.2.contains(&cfg.workload));
    let (on, off): (Vec<_>, Vec<_>) = metrics.iter().copied().partition(|m| measured(m.0));
    metric_lines(&mut report, &on);
    let off: Vec<&str> = off.iter().map(|m| m.0).collect();
    let _ =
        writeln!(report, "not on this workload's path, 0 in the result line: {}", off.join(" "));
    if let Some(e) = untraced.first_failure.as_ref().or(traced.first_failure.as_ref()) {
        let _ = writeln!(report, "first failure: {e}");
    }
    report.push_str(&summary_line(cfg, traced.ok().count(), attempted, failed, ""));
    Ok(Output { attempted, failed, metrics, report })
}

/// `--bless`: run every statement of every workload (every binding of a
/// bound statement) through the Volcano baseline and write the expected
/// files, at full and at smoke scale.
fn bless(dir: &Path, only: Option<Workload>) -> Result<(), String> {
    for scale in [Scale::Smoke, Scale::Full] {
        for workload in Workload::ALL.into_iter().filter(|w| only.is_none_or(|o| o == *w)) {
            let (inst, _) = workloads::setup(workload, scale, 0, false)?;
            let mut entries = Vec::new();
            for (i, s) in inst.statements().iter().enumerate() {
                let bindings: Vec<Option<u32>> = match s.domain {
                    None => vec![None],
                    Some(n) => (0..n).map(Some).collect(),
                };
                for value in bindings {
                    let rows =
                        inst.oracle(i as u32, value).map_err(|e| format!("{}: {e}", s.name))?;
                    entries.push((oracle::key(&s.name, value), oracle::fingerprint(&rows)));
                }
            }
            inst.close()?;
            let path = expected_path(dir, workload, scale);
            let header = format!(
                "{} at scale factor {}: Volcano-baseline fingerprints, written by --bless",
                workload.name(),
                workload.scale_factor(scale)
            );
            oracle::write(&path, &header, &entries)?;
            println!("{}: {} fingerprints", path.display(), entries.len());
        }
    }
    Ok(())
}

/// Names and units listed under `key` of `BENCHMARK.json`.
fn listed(doc: &json::Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .map_or(&[][..], json::Value::as_arr)
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(json::Value::as_str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

pub fn read_benchmark_json(dir: &Path) -> Result<json::Value, String> {
    let path = dir.parent().unwrap_or(dir).join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--smoke`: all four workloads and their traced runs at a small scale,
/// asserting the shape of the output rather than its values.
fn smoke(dir: &Path) -> Result<(), String> {
    let doc = read_benchmark_json(dir)?;
    let same = |listed: Vec<(String, String)>, ours: Vec<Metric>, what: &str| {
        let ours: Vec<(String, String)> =
            ours.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        if listed == ours {
            Ok(())
        } else {
            Err(format!("BENCHMARK.json {what} differs from metrics.rs:\n{listed:?}\n{ours:?}"))
        }
    };
    let per_layer = |w: Option<Workload>| -> Vec<Metric> {
        let measured = |on: &[Workload]| w.is_none_or(|w| on.contains(&w));
        metrics::PER_LAYER.iter().filter(|m| measured(m.2)).map(|&(n, u, _)| (n, u)).collect()
    };
    same(listed(&doc, "end_to_end"), metrics::END_TO_END.to_vec(), "end_to_end")?;
    same(listed(&doc, "per_layer"), per_layer(None), "per_layer")?;
    let names: Vec<String> = listed(&doc, "workloads").into_iter().map(|(n, _)| n).collect();
    if names != Workload::ALL.map(|w| w.name()) {
        return Err(format!("BENCHMARK.json workloads {names:?} are not the four in workloads.rs"));
    }

    // Sizes of generated artefacts: they must repeat exactly for a seed.
    const EXACT: [&str; 4] =
        ["plan.pipelines", "codegen.ir_instrs", "translate.bc_instrs", "jit.native_code_bytes"];
    for workload in Workload::ALL {
        let cfg = |trace| Config {
            workload,
            seed: DEFAULT_SEED,
            scale: Scale::Smoke,
            seconds: 1.0,
            trace,
        };
        let untraced = run_workload(dir, &cfg(false))?;
        check_shape(workload, &untraced, metrics::END_TO_END, metrics::END_TO_END, true)?;
        let first = run_workload(dir, &cfg(true))?;
        let second = run_workload(dir, &cfg(true))?;
        for out in [&first, &second] {
            check_shape(workload, out, &per_layer(None), &per_layer(Some(workload)), false)?;
        }
        for name in EXACT {
            let of = |o: &Output| o.metrics.iter().find(|m| m.0 == name).map(|m| m.2);
            if of(&first) != of(&second) {
                return Err(format!(
                    "{}: {name} does not repeat: {:?} then {:?}",
                    workload.name(),
                    of(&first),
                    of(&second)
                ));
            }
        }
        println!(
            "smoke {}: {} + {} + {} operations, every metric present, exact counts repeat",
            workload.name(),
            untraced.attempted,
            first.attempted,
            second.attempted
        );
    }
    println!("smoke ok");
    Ok(())
}

/// Every listed metric printed exactly once with its unit and a finite
/// value; a time the workload measures, or any end-to-end metric, is also
/// never zero. No failed operation.
fn check_shape(
    workload: Workload,
    out: &Output,
    listed: &[Metric],
    measured: &[Metric],
    all_non_zero: bool,
) -> Result<(), String> {
    let w = workload.name();
    if out.failed != 0 || out.attempted == 0 {
        return Err(format!(
            "{w}: {} of {} operations failed\n{}",
            out.failed, out.attempted, out.report
        ));
    }
    let line = json::parse(&out.result_line()).map_err(|e| format!("{w}: result line: {e}"))?;
    let printed = line.get("metrics").map_or(&[][..], json::Value::entries);
    if printed.len() != listed.len() {
        return Err(format!("{w}: {} metrics printed, {} listed", printed.len(), listed.len()));
    }
    for &(name, unit) in listed {
        let hits: Vec<&json::Value> =
            printed.iter().filter(|(k, _)| k == name).map(|(_, v)| v).collect();
        let [m] = hits[..] else {
            return Err(format!("{w}: {name} printed {} times", hits.len()));
        };
        let value = m.get("value").and_then(json::Value::as_f64).filter(|v| v.is_finite());
        let is_time = matches!(unit, "s" | "ms" | "us" | "ns") && measured.contains(&(name, unit));
        match value {
            Some(v) if v != 0.0 || !(all_non_zero || is_time) => {}
            _ => return Err(format!("{w}: {name} = {value:?}")),
        }
        if m.get("unit").and_then(json::Value::as_str) != Some(unit) {
            return Err(format!("{w}: {name} has no unit {unit}"));
        }
    }
    Ok(())
}
