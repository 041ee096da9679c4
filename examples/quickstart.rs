//! Quickstart: the long-lived `Engine` → `Session` → `PreparedQuery` API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Prepares one SQL statement and executes it three times on the same
//! engine: the first run pays codegen + bytecode translation and climbs
//! the adaptive ladder; the second reuses every compiled artifact; the
//! third is answered straight from the versioned result cache. A fourth
//! section binds `?` placeholders: one compiled statement, many values.

use aqe::engine::session::Engine;
use aqe::engine::{ExecOptions, ParamValue};
use aqe::sql::prepare;
use aqe::storage::tpch;

fn main() {
    // 1. Generate (or load) data, and build the long-lived engine over it.
    println!("generating TPC-H scale factor 0.01…");
    let engine = Engine::new(tpch::generate(0.01));

    // 2. Open a session and prepare a SQL statement (parse → bind →
    //    optimize → decompose, once).
    let mut session = engine.session();
    session.set_defaults(ExecOptions { threads: 2, ..Default::default() });
    let sql = "SELECT l_returnflag, count(*) AS n, sum(l_extendedprice) AS revenue \
               FROM lineitem WHERE l_shipdate <= date '1998-09-02' \
               GROUP BY l_returnflag ORDER BY revenue DESC";
    let stmt = prepare(&session, sql).expect("valid SQL");

    // 3. Execute. The first run starts in the bytecode interpreter and
    //    compiles hot pipelines on a morsel worker while the others keep
    //    running (paper §III, Fig. 7).
    let (result, cold) = session.execute(&stmt.query).expect("query ok");

    // 4. Render.
    println!("{:?}", stmt.output_names);
    let width = result.tys.len();
    let rf_dict = engine.with_catalog(|cat| {
        cat.get("lineitem")
            .unwrap()
            .column_by_name("l_returnflag")
            .unwrap()
            .as_str()
            .unwrap()
            .dict
            .clone()
    });
    for row in result.rows.chunks_exact(width) {
        let flag = &rf_dict[row[0] as usize];
        println!(
            "{flag}  n={}  revenue={}.{:02}",
            row[1] as i64,
            row[2] as i64 / 100,
            (row[2] as i64 % 100).abs()
        );
    }

    // 5. Execute again: same prepared query, same engine. Nothing is
    //    regenerated — and a third submission never runs a morsel at all.
    let no_cache = ExecOptions { threads: 2, cache_results: false, ..Default::default() };
    let (_, warm) = session.execute_with(&stmt.query, &no_cache).expect("query ok");
    let (_, cached) = session.execute(&stmt.query).expect("query ok");

    println!(
        "\ncold run:   codegen {:?}, bytecode translation {:?}, execution {:?}, \
         background compiles: {}",
        cold.codegen, cold.bc_translate, cold.exec, cold.background_compiles
    );
    println!(
        "warm run:   codegen {:?}, bytecode translation {:?}, execution {:?} \
         (starts at {:?})",
        warm.codegen,
        warm.bc_translate,
        warm.exec,
        warm.sched.iter().map(|s| s.start_level).max().unwrap()
    );
    println!("cached run: result cache hit = {}", cached.result_cache_hit);

    // 6. Parameterized statements: `?` placeholders (or `$1`, `$2`, …)
    //    compile once; every binding reuses the retained module, bytecode,
    //    and compiled backends with a fresh parameter block. Decimals bind
    //    as cents, dates as day numbers.
    let param_sql = "SELECT count(*) AS n, sum(l_extendedprice) AS revenue \
                     FROM lineitem WHERE l_quantity < ?";
    let stmt = prepare(&session, param_sql).expect("valid SQL");
    let (_, first) =
        session.execute_bound(&stmt.query, &[ParamValue::I64(2400)]).expect("query ok");
    let (_, fresh) =
        session.execute_bound(&stmt.query, &[ParamValue::I64(1000)]).expect("query ok");
    println!(
        "bound runs: first binding codegen {:?}; fresh value codegen {:?} \
         (cache hit = {}) — one compiled statement, any value",
        first.codegen, fresh.codegen, fresh.result_cache_hit
    );
}
