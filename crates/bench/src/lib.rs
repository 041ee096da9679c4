//! Shared measurement helpers for the figure/table harness binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md §3 for the index and EXPERIMENTS.md for recorded results):
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `fig01_stages` | Fig. 1 / Fig. 3 (stage times) |
//! | `fig02_tradeoff` | Fig. 2 (compile vs execute per mode) |
//! | `fig06_compile_scaling` | Fig. 6 (instructions vs compile time) |
//! | `fig13_geomean` | Fig. 13 (geo-mean over TPC-H × SF × mode) |
//! | `fig14_trace` | Fig. 14 (morsel-level execution trace) |
//! | `fig15_large_queries` | Fig. 15 (very large generated queries) |
//! | `table1_plan_compile` | Table I (planning and compilation times) |
//! | `table2_exec` | Table II (execution times + §V-D ratios) |
//! | `sec4c_regfile` | §IV-C register-file sizes, fusion on/off |
//!
//! Scale factors default to laptop-friendly values; override with `AQE_SF`
//! / `AQE_SF_LIST` / `AQE_THREADS` / `AQE_WIDE_SIZES` environment
//! variables (read by [`env_or`] / [`env_list_or`]).

use aqe_engine::exec::{ExecMode, ExecOptions, Report, ResultRows};
use aqe_engine::plan::{decompose, PhysicalPlan};
use aqe_engine::session::Engine;
use aqe_ir::Module;
use aqe_jit::compile::OptLevel;
use aqe_queries::Query;
use aqe_storage::Catalog;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// `var` parsed as a `T`, or `default` when it is unset. A set but
/// malformed value ends the process with a message naming both: a figure
/// must never quietly measure its default instead of what was asked for.
pub fn env_or<T: FromStr>(var: &str, default: T) -> T {
    parse_or(var, std::env::var(var).ok().as_deref(), default).unwrap_or_else(fail)
}

/// `var` parsed as a comma-separated list of `T`, or `default` when it is
/// unset; malformed entries are fatal as in [`env_or`].
pub fn env_list_or<T: FromStr + Clone>(var: &str, default: &[T]) -> Vec<T> {
    parse_list_or(var, std::env::var(var).ok().as_deref(), default).unwrap_or_else(fail)
}

fn fail<T>(msg: String) -> T {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn parse_or<T: FromStr>(var: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(s) => s.trim().parse().map_err(|_| format!("{var}={s:?} is not a valid value")),
    }
}

fn parse_list_or<T: FromStr + Clone>(
    var: &str,
    raw: Option<&str>,
    default: &[T],
) -> Result<Vec<T>, String> {
    match raw {
        None => Ok(default.to_vec()),
        Some(s) => s
            .split(',')
            .map(|x| {
                x.trim().parse().map_err(|_| format!("{var}={s:?}: {x:?} is not a valid entry"))
            })
            .collect(),
    }
}

/// Decompose a query against a catalog.
pub fn physical(cat: &Catalog, q: &Query) -> PhysicalPlan {
    decompose(cat, &q.root, q.dicts.clone())
}

/// Run one query end-to-end in a mode; returns (total wall time, report,
/// result).
///
/// Each call builds a throwaway [`Engine`] with result caching disabled:
/// the harness measures *cold* executions, so nothing may be reused or
/// served from cache across calls. Long-lived-engine effects (prepared
/// reuse, warm starts) are measured by the bins that construct their own
/// `Engine`.
pub fn run_mode(
    cat: &Catalog,
    phys: &PhysicalPlan,
    mode: ExecMode,
    threads: usize,
    trace: bool,
) -> (Duration, Report, ResultRows) {
    let opts = ExecOptions { mode, threads, trace, cache_results: false, ..Default::default() };
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let t0 = Instant::now();
    let prepared = session.prepare_plan(phys.clone());
    let (rows, report) = session.execute_with(&prepared, &opts).expect("query failed");
    (t0.elapsed(), report, rows)
}

/// Wall time to translate every worker function of `module` to bytecode.
pub fn bytecode_translate_time(module: &Module) -> Duration {
    let t = Instant::now();
    for f in &module.functions {
        aqe_vm::translate::translate(f, &module.externs, Default::default())
            .expect("bytecode translation");
    }
    t.elapsed()
}

/// Wall time to compile every worker function of `module` to machine code
/// at `level` (step-stream compile, lowering, executable mapping). The
/// compile-time figures have nothing to measure without the emitter, so
/// its absence is fatal here.
pub fn native_compile_time(module: &Module, level: OptLevel) -> Duration {
    let t = Instant::now();
    for f in &module.functions {
        aqe_jit::native::compile_native_at(f, &module.externs, level)
            .expect("this figure needs the x86-64 emitter (unsupported target, or AQE_NATIVE=0)");
    }
    t.elapsed()
}

/// Geometric mean of positive samples.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Milliseconds with two decimals.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn fmt_ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:8.0}")
    } else if v >= 1.0 {
        format!("{v:8.1}")
    } else {
        format!("{v:8.3}")
    }
}

/// Mode labels used in the standard reports: the four modes of Fig. 3
/// (bytecode, the two machine-code levels, adaptive).
pub const MODES: [(ExecMode, &str); 4] = [
    (ExecMode::Bytecode, "bytecode"),
    (ExecMode::NativeUnopt, "native-unopt"),
    (ExecMode::Native, "native-opt"),
    (ExecMode::Adaptive, "adaptive"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[7.0]) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(parse_or("AQE_SF", None, 0.25), Ok(0.25));
        assert_eq!(parse_or("AQE_THREADS", None, 3usize), Ok(3));
        assert_eq!(parse_list_or("AQE_SF_LIST", None, &[0.1, 1.0]), Ok(vec![0.1, 1.0]));
    }

    #[test]
    fn env_parsing_reads_set_values() {
        assert_eq!(parse_or("AQE_SF", Some("0.01"), 0.25), Ok(0.01));
        assert_eq!(parse_or("AQE_THREADS", Some(" 2 "), 4usize), Ok(2));
        assert_eq!(parse_list_or("AQE_WIDE_SIZES", Some("50, 100"), &[10usize]), Ok(vec![50, 100]));
    }

    #[test]
    fn env_parsing_rejects_malformed_values() {
        let e = parse_or("AQE_SF", Some("0.1x"), 0.25).unwrap_err();
        assert!(e.contains("AQE_SF") && e.contains("0.1x"), "{e}");
        assert!(parse_or("AQE_THREADS", Some("-1"), 4usize).is_err());
        assert!(parse_or("AQE_THREADS", Some(""), 4usize).is_err());
        let e = parse_list_or("AQE_SF_LIST", Some("0.01,abc"), &[0.1]).unwrap_err();
        assert!(e.contains("AQE_SF_LIST") && e.contains("abc"), "{e}");
        assert!(parse_list_or("AQE_WIDE_SIZES", Some("50,,100"), &[10usize]).is_err());
    }

    #[test]
    fn run_mode_smoke_all_backends() {
        let cat = aqe_storage::tpch::generate(0.001);
        let q = aqe_queries::tpch::q6(&cat);
        let phys = physical(&cat, &q);
        let want = aqe_baselines::execute_volcano(&cat, &q.root, &phys).unwrap();
        for (mode, label) in MODES {
            let (d, _, rows) = run_mode(&cat, &phys, mode, 1, false);
            assert!(d.as_nanos() > 0);
            assert_eq!(rows.row_count(), 1, "{label}");
            assert_eq!(rows.rows, want, "{label} disagrees with Volcano");
        }
    }
}
