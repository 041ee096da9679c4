//! The statements the workloads send, as data: SQL text in the `aqe_sql`
//! dialect and, for bound statements, the finite domain each `?` draws
//! from. The hand-planned TPC-H and catalog queries come from
//! `aqe_queries` through `probe`; nothing here touches the engine.

/// An ad-hoc statement sent as text, so lexer, parser and binder are on
/// the path of the operation.
pub struct SqlText {
    pub name: &'static str,
    pub sql: &'static str,
}

/// Thirteen statements: with the 22 hand-planned queries the TPC-H corpus
/// has 35 statements, and with the 12 catalog queries 47 — odd, so the
/// pooled median lies inside one statement's distribution.
pub const ADHOC_SQL: &[SqlText] = &[
    SqlText {
        name: "sql_pricing_summary",
        sql: "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS q, sum(l_extendedprice) AS v, \
              avg(l_discount) AS d, count(*) AS n FROM lineitem \
              WHERE l_shipdate <= date '1998-09-02' \
              GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
    },
    SqlText {
        name: "sql_forecast_revenue",
        sql: "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem \
              WHERE l_shipdate >= date '1994-01-01' AND l_shipdate <= date '1994-12-31' \
              AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
    },
    SqlText {
        name: "sql_supplier_by_nation",
        sql: "SELECT n_name, count(*) AS cnt, sum(s_acctbal) AS bal FROM supplier \
              JOIN nation ON s_nationkey = n_nationkey \
              WHERE s_acctbal > 0 GROUP BY n_name ORDER BY cnt DESC, n_name LIMIT 5",
    },
    SqlText {
        name: "sql_brass_parts",
        sql: "SELECT count(*) AS n FROM part WHERE p_type LIKE '%BRASS' AND p_size < 20",
    },
    SqlText {
        name: "sql_order_priority",
        sql: "SELECT o_orderpriority, count(*) AS n FROM orders \
              WHERE o_orderdate >= date '1993-07-01' AND o_orderdate < date '1993-10-01' \
              GROUP BY o_orderpriority ORDER BY o_orderpriority",
    },
    SqlText {
        name: "sql_shipmode_volume",
        sql: "SELECT l_shipmode, count(*) AS n, sum(l_extendedprice) AS v FROM lineitem \
              WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_receiptdate >= date '1994-01-01' \
              AND l_receiptdate < date '1995-01-01' GROUP BY l_shipmode ORDER BY l_shipmode",
    },
    SqlText {
        name: "sql_segment_orders",
        sql: "SELECT c_mktsegment, count(*) AS n, sum(o_totalprice) AS total FROM customer \
              JOIN orders ON c_custkey = o_custkey WHERE o_orderdate < date '1995-03-15' \
              GROUP BY c_mktsegment ORDER BY c_mktsegment",
    },
    SqlText {
        name: "sql_big_orders",
        sql: "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders \
              WHERE o_orderdate >= date '1996-01-01' \
              ORDER BY o_totalprice DESC, o_orderkey LIMIT 20",
    },
    SqlText {
        name: "sql_nation_revenue",
        sql: "SELECT n_name, sum(o_totalprice) AS rev FROM orders \
              JOIN customer ON o_custkey = c_custkey JOIN nation ON c_nationkey = n_nationkey \
              WHERE o_orderdate >= date '1994-01-01' AND o_orderdate < date '1995-01-01' \
              GROUP BY n_name ORDER BY n_name",
    },
    SqlText {
        name: "sql_partsupp_stock",
        sql: "SELECT ps_suppkey, sum(ps_availqty) AS stock, min(ps_supplycost) AS cheapest \
              FROM partsupp GROUP BY ps_suppkey ORDER BY ps_suppkey LIMIT 10",
    },
    SqlText {
        name: "sql_promo_share",
        sql: "SELECT sum(case when l_discount > 0.05 then l_extendedprice else 0 end) AS promo, \
              sum(l_extendedprice) AS total FROM lineitem \
              WHERE l_shipdate >= date '1995-09-01' AND l_shipdate < date '1995-10-01'",
    },
    SqlText {
        name: "sql_quantity_band",
        sql: "SELECT l_linestatus, min(l_quantity) AS lo, max(l_quantity) AS hi, \
              avg(l_extendedprice) AS price FROM lineitem WHERE l_quantity BETWEEN 10 AND 20 \
              GROUP BY l_linestatus ORDER BY l_linestatus",
    },
    SqlText {
        name: "sql_supplier_balance",
        sql: "SELECT s_nationkey, count(*) AS n, min(s_acctbal) AS lo, max(s_acctbal) AS hi \
              FROM supplier WHERE NOT s_acctbal < 1000.00 \
              GROUP BY s_nationkey ORDER BY s_nationkey",
    },
];

/// Tables whose primary keys a point lookup draws from.
#[derive(Clone, Copy, Debug)]
pub enum KeyTable {
    Supplier,
    Customer,
}

/// Row counts of the keyed tables at the workload's scale factor.
#[derive(Clone, Copy, Debug)]
pub struct KeySpace {
    pub supplier: u32,
    pub customer: u32,
}

/// How one `?` gets its value from the statement's domain index `d`.
/// Values bind in the engine's representation: decimals as hundredths,
/// dates as day numbers.
#[derive(Clone, Copy, Debug)]
pub enum Param {
    Int {
        base: i64,
        step: i64,
    },
    /// Hundredths.
    Dec {
        base: i64,
        step: i64,
    },
    /// `base` is `YYYY-MM-DD`; the value is `base + step·d + offset` days.
    Date {
        base: &'static str,
        step: i64,
        offset: i64,
    },
    /// A primary key spread over the table: `d · stride mod rows`.
    Key {
        table: KeyTable,
        stride: u32,
    },
    /// The generator's salt, bound to a predicate every row passes.
    Salt,
}

/// Literal used for a salt when a statement is rendered as text for the
/// oracle: above every value of the salted columns, like every salt.
const SALT_LITERAL: i64 = 1000;

impl Param {
    pub fn value(&self, d: u32, salt: u32, keys: KeySpace) -> i64 {
        let d = i64::from(d);
        match *self {
            Param::Int { base, step } | Param::Dec { base, step } => base + step * d,
            Param::Date { base, step, offset } => days_from_date(base) + step * d + offset,
            Param::Key { table, stride } => {
                let rows = match table {
                    KeyTable::Supplier => keys.supplier,
                    KeyTable::Customer => keys.customer,
                };
                (d * i64::from(stride)) % i64::from(rows)
            }
            Param::Salt => i64::from(salt),
        }
    }

    /// The value as the SQL literal that plans to the same constant.
    fn literal(&self, value: i64) -> String {
        match self {
            Param::Int { .. } | Param::Key { .. } => value.to_string(),
            Param::Dec { .. } => format!("{}.{:02}", value / 100, value % 100),
            Param::Date { .. } => format!("date '{}'", date_from_days(value)),
            Param::Salt => SALT_LITERAL.to_string(),
        }
    }
}

/// A statement prepared once and executed with bound values.
pub struct BoundSql {
    pub name: &'static str,
    /// One `?` per entry of `params`, in order.
    pub sql: &'static str,
    pub params: &'static [Param],
    /// Number of distinct bind-value tuples; `d` runs over `0..domain`.
    pub domain: u32,
}

impl BoundSql {
    pub fn values(&self, d: u32, salt: u32, keys: KeySpace) -> Vec<i64> {
        self.params.iter().map(|p| p.value(d, salt, keys)).collect()
    }

    /// The statement with every `?` replaced by its literal for domain
    /// index `d`: what the oracle runs, since the baseline engines take
    /// no parameter block.
    pub fn with_literals(&self, d: u32, keys: KeySpace) -> String {
        let mut parts = self.sql.split('?');
        let mut out = parts.next().unwrap_or_default().to_string();
        for (param, rest) in self.params.iter().zip(parts) {
            out.push_str(&param.literal(param.value(d, 0, keys)));
            out.push_str(rest);
        }
        out
    }
}

const DOMAIN: u32 = 64;

/// `bound-churn`: two scan filters, two group-bys, three joins, one
/// order/limit. Six of the eight run warm in 0.7–1.3 ms at SF 0.1, so the
/// pooled median lies in a dense stretch of the latency distribution and
/// not in a gap between a fast and a slow statement.
pub const CHURN_SQL: &[BoundSql] = &[
    BoundSql {
        name: "churn_scan_price",
        sql: "SELECT count(*) AS n, sum(o_totalprice) AS v FROM orders WHERE o_totalprice < ?",
        params: &[Param::Dec { base: 5_000_000, step: 500_000 }],
        domain: DOMAIN,
    },
    BoundSql {
        name: "churn_scan_shipdate",
        sql: "SELECT count(*) AS n, sum(l_extendedprice * l_discount) AS v FROM lineitem \
              WHERE l_shipdate >= ? AND l_shipdate < ? AND l_discount BETWEEN 0.05 AND 0.07",
        params: &[
            Param::Date { base: "1993-01-01", step: 30, offset: 0 },
            Param::Date { base: "1993-01-01", step: 30, offset: 90 },
        ],
        domain: DOMAIN,
    },
    BoundSql {
        name: "churn_group_flag",
        sql: "SELECT l_returnflag, l_linestatus, count(*) AS n, sum(l_quantity) AS q \
              FROM lineitem WHERE l_shipdate >= ? AND l_shipdate < ? \
              GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
        params: &[
            Param::Date { base: "1993-01-01", step: 30, offset: 0 },
            Param::Date { base: "1993-01-01", step: 30, offset: 60 },
        ],
        domain: DOMAIN,
    },
    BoundSql {
        name: "churn_group_priority",
        sql: "SELECT o_orderpriority, count(*) AS n FROM orders \
              WHERE o_orderdate >= ? AND o_orderdate < ? \
              GROUP BY o_orderpriority ORDER BY o_orderpriority",
        params: &[
            Param::Date { base: "1992-01-01", step: 30, offset: 0 },
            Param::Date { base: "1992-01-01", step: 30, offset: 180 },
        ],
        domain: DOMAIN,
    },
    BoundSql {
        name: "churn_join_nation",
        sql: "SELECT n_name, count(*) AS n, sum(c_acctbal) AS bal FROM customer \
              JOIN nation ON c_nationkey = n_nationkey WHERE c_acctbal > ? \
              GROUP BY n_name ORDER BY n_name",
        params: &[Param::Dec { base: 0, step: 10_000 }],
        domain: DOMAIN,
    },
    BoundSql {
        name: "churn_join_segment",
        sql: "SELECT c_mktsegment, count(*) AS n, sum(o_totalprice) AS total FROM customer \
              JOIN orders ON c_custkey = o_custkey WHERE o_orderdate >= ? AND o_orderdate < ? \
              GROUP BY c_mktsegment ORDER BY c_mktsegment",
        params: &[
            Param::Date { base: "1992-06-01", step: 30, offset: 0 },
            Param::Date { base: "1992-06-01", step: 30, offset: 60 },
        ],
        domain: DOMAIN,
    },
    BoundSql {
        name: "churn_join_partsupp",
        sql: "SELECT p_size, count(*) AS n, sum(ps_availqty) AS q FROM part \
              JOIN partsupp ON p_partkey = ps_partkey WHERE ps_supplycost < ? \
              GROUP BY p_size ORDER BY p_size",
        params: &[Param::Dec { base: 10_000, step: 1_400 }],
        domain: DOMAIN,
    },
    BoundSql {
        name: "churn_top_orders",
        sql: "SELECT o_orderkey, o_totalprice FROM orders \
              WHERE o_orderdate >= ? AND o_orderdate < ? \
              ORDER BY o_totalprice DESC, o_orderkey LIMIT 10",
        params: &[
            Param::Date { base: "1992-01-01", step: 30, offset: 0 },
            Param::Date { base: "1992-01-01", step: 30, offset: 60 },
        ],
        domain: DOMAIN,
    },
];

/// `served-mix`, tiny class: point lookups and small aggregates.
pub const SERVED_TINY_SQL: &[BoundSql] = &[
    BoundSql {
        name: "tiny_supplier",
        sql: "SELECT s_suppkey, s_nationkey, s_acctbal FROM supplier WHERE s_suppkey = ?",
        params: &[Param::Key { table: KeyTable::Supplier, stride: 7 }],
        domain: DOMAIN,
    },
    BoundSql {
        name: "tiny_nation",
        sql: "SELECT n_nationkey, n_regionkey FROM nation WHERE n_nationkey = ?",
        params: &[Param::Int { base: 0, step: 1 }],
        domain: 25,
    },
    BoundSql {
        name: "tiny_customers_of_nation",
        sql: "SELECT count(*) AS n, sum(c_acctbal) AS bal FROM customer WHERE c_nationkey = ?",
        params: &[Param::Int { base: 0, step: 1 }],
        domain: 25,
    },
    BoundSql {
        name: "tiny_customer",
        sql: "SELECT c_custkey, c_nationkey, c_acctbal FROM customer WHERE c_custkey = ?",
        params: &[Param::Key { table: KeyTable::Customer, stride: 113 }],
        domain: DOMAIN,
    },
];

/// `served-mix`, scan class. The last `?` of each takes the salt:
/// `l_linenumber` is at most 7 and `o_shippriority` is 0.
pub const SERVED_SCAN_SQL: &[BoundSql] = &[
    BoundSql {
        name: "scan_line_quantity",
        sql: "SELECT count(*) AS n, sum(l_extendedprice) AS v FROM lineitem \
              WHERE l_quantity < ? AND l_linenumber < ?",
        params: &[Param::Dec { base: 100, step: 75 }, Param::Salt],
        domain: DOMAIN,
    },
    BoundSql {
        name: "scan_orders_year",
        sql: "SELECT count(*) AS n, sum(o_totalprice) AS v FROM orders \
              WHERE o_orderdate >= ? AND o_orderdate < ? AND o_shippriority < ?",
        params: &[
            Param::Date { base: "1992-01-01", step: 30, offset: 0 },
            Param::Date { base: "1992-01-01", step: 30, offset: 365 },
            Param::Salt,
        ],
        domain: DOMAIN,
    },
    BoundSql {
        name: "scan_line_flag",
        sql: "SELECT l_returnflag, count(*) AS n, sum(l_quantity) AS q FROM lineitem \
              WHERE l_shipdate <= ? AND l_linenumber < ? \
              GROUP BY l_returnflag ORDER BY l_returnflag",
        params: &[Param::Date { base: "1996-01-01", step: 14, offset: 0 }, Param::Salt],
        domain: DOMAIN,
    },
];

/// Days since 1970-01-01 of a `YYYY-MM-DD` date (proleptic Gregorian).
pub fn days_from_date(date: &str) -> i64 {
    let mut it = date.split('-').map(|p| p.parse::<i64>().expect("date literal is numeric"));
    let (y, m, d) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y.rem_euclid(400);
    let doy = (153 * ((m + 9) % 12) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_date`].
pub fn date_from_days(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: KeySpace = KeySpace { supplier: 500, customer: 7500 };

    #[test]
    fn dates_round_trip() {
        assert_eq!(days_from_date("1970-01-01"), 0);
        assert_eq!(days_from_date("1994-01-01"), 8766);
        assert_eq!(days_from_date("2000-03-01"), 11_017);
        for days in [-1, 0, 59, 8035, 8766, 10_470, 11_016, 11_017] {
            assert_eq!(days_from_date(&date_from_days(days)), days);
        }
        assert_eq!(date_from_days(10_470), "1998-09-01");
    }

    #[test]
    fn every_statement_has_as_many_marks_as_params() {
        for s in CHURN_SQL.iter().chain(SERVED_TINY_SQL).chain(SERVED_SCAN_SQL) {
            assert_eq!(s.sql.matches('?').count(), s.params.len(), "{}", s.name);
            assert!(!s.with_literals(3, KEYS).contains('?'), "{}", s.name);
        }
        assert_eq!(ADHOC_SQL.len(), 13);
        assert_eq!(CHURN_SQL.len(), 8);
    }

    #[test]
    fn literals_denote_the_bound_values() {
        let s = &CHURN_SQL[0];
        assert_eq!(s.values(4, 0, KEYS), vec![7_000_000]);
        assert!(s.with_literals(4, KEYS).ends_with("o_totalprice < 70000.00"));
        let s = &CHURN_SQL[1];
        assert_eq!(s.values(1, 0, KEYS), vec![8401 + 30, 8401 + 120]);
        assert!(s.with_literals(1, KEYS).contains("l_shipdate >= date '1993-01-31'"));
        assert!(s.with_literals(1, KEYS).contains("l_shipdate < date '1993-05-01'"));
        let s = &SERVED_SCAN_SQL[0];
        assert_eq!(s.values(2, 123_456, KEYS), vec![250, 123_456]);
        assert!(s.with_literals(2, KEYS).ends_with("l_quantity < 2.50 AND l_linenumber < 1000"));
    }

    #[test]
    fn keys_are_distinct_and_in_range() {
        for s in [&SERVED_TINY_SQL[0], &SERVED_TINY_SQL[3]] {
            let mut seen: Vec<i64> = (0..s.domain).map(|d| s.values(d, 0, KEYS)[0]).collect();
            assert!(seen.iter().all(|&k| (0..7500).contains(&k)));
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), s.domain as usize, "{}", s.name);
        }
    }
}
