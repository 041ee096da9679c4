//! SQL-level prepared statements: `PREPARE`-style plumbing from SQL text
//! to an engine [`PreparedQuery`].
//!
//! Planning (parse → bind → optimize → decompose) happens once, against
//! the session's catalog; the returned statement can then be executed any
//! number of times, with codegen, bytecode translation and compiled
//! backends amortized across executions by the session layer.

use crate::binder::{plan_sql, plan_sql_generalized, PlanError};
use aqe_engine::exec::ParamValue;
use aqe_engine::session::{PreparedQuery, Session};

/// A prepared SQL statement: the engine-side prepared query plus the
/// frontend's output metadata.
pub struct PreparedStatement {
    /// The engine-side handle; execute via [`Session::execute`].
    pub query: PreparedQuery,
    /// Output column names, in result order.
    pub output_names: Vec<String>,
}

/// Plan `sql` against the session's catalog and prepare it for repeated
/// execution.
pub fn prepare(session: &Session, sql: &str) -> Result<PreparedStatement, PlanError> {
    let bound = session.with_catalog(|cat| plan_sql(cat, sql))?;
    let query = session.prepare(&bound.root, bound.dicts);
    Ok(PreparedStatement { query, output_names: bound.output_names })
}

/// Plan an ad-hoc SQL statement with its comparison literals generalized
/// into bind parameters. Returns the parameterized statement plus the
/// values extracted from this text, ready for
/// [`Session::execute_bound`]: textually different statements that differ
/// only in those literals produce the same fingerprint, so a re-submission
/// with fresh constants reuses the retained compiled state instead of
/// planning, generating, and compiling from scratch.
pub fn prepare_generalized(
    session: &Session,
    sql: &str,
) -> Result<(PreparedStatement, Vec<ParamValue>), PlanError> {
    let (bound, values) = session.with_catalog(|cat| plan_sql_generalized(cat, sql))?;
    let query = session.prepare(&bound.root, bound.dicts);
    let params = values.into_iter().map(ParamValue::I64).collect();
    Ok((PreparedStatement { query, output_names: bound.output_names }, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqe_engine::session::Engine;
    use aqe_storage::tpch;

    #[test]
    fn prepared_statement_executes_repeatedly() {
        let engine = Engine::new(tpch::generate(0.002));
        let session = engine.session();
        let stmt = prepare(
            &session,
            "SELECT count(*) AS n, sum(l_quantity) AS q FROM lineitem WHERE l_quantity < 30",
        )
        .expect("valid SQL");
        assert_eq!(stmt.output_names, vec!["n", "q"]);
        let (a, first) = session.execute(&stmt.query).unwrap();
        let (b, second) = session.execute(&stmt.query).unwrap();
        assert_eq!(a.rows, b.rows);
        assert!(!first.result_cache_hit);
        assert!(second.result_cache_hit, "identical re-submission must hit the result cache");
    }

    #[test]
    fn generalized_statements_share_compiled_state() {
        let engine = Engine::new(tpch::generate(0.002));
        let session = engine.session();
        let (a, pa) =
            prepare_generalized(&session, "SELECT count(*) FROM lineitem WHERE l_quantity < 30")
                .unwrap();
        let (b, pb) =
            prepare_generalized(&session, "SELECT count(*) FROM lineitem WHERE l_quantity < 45")
                .unwrap();
        // Equal fingerprints tell the caller the second statement can run
        // through the first's retained compiled state with its own values.
        assert_eq!(a.query.fingerprint(), b.query.fingerprint());
        let (ra, first) = session.execute_bound(&a.query, &pa).unwrap();
        let (rb, second) = session.execute_bound(&a.query, &pb).unwrap();
        assert!(!first.result_cache_hit);
        assert!(!second.result_cache_hit, "different binding must not alias the result cache");
        assert!(second.codegen.is_zero(), "warm binding reuses the retained module");
        assert!(rb.rows[0] >= ra.rows[0], "wider predicate keeps at least as many rows");
        // Same statement, same binding: now the result cache hits.
        let (_, third) = session.execute_bound(&a.query, &pa).unwrap();
        assert!(third.result_cache_hit);
    }

    #[test]
    fn invalid_sql_fails_at_prepare_time() {
        let engine = Engine::new(tpch::generate(0.001));
        let session = engine.session();
        assert!(prepare(&session, "SELECT nope FROM lineitem").is_err());
    }
}
