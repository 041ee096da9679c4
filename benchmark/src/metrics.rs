//! The metric names and units, in the order they are printed. The same
//! lists are in `BENCHMARK.json`; `--smoke` checks that the two agree.

use crate::workloads::Workload::{self, AdhocLarge, AdhocSmall, BoundChurn, ServedMix};

pub type Metric = (&'static str, &'static str);

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("corpus_geomean_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// A layer metric and the workloads whose operations pass through that
/// layer. A traced run measures it there; elsewhere it prints 0, because
/// the result line carries every listed metric on every workload.
pub type LayerMetric = (&'static str, &'static str, &'static [Workload]);

const ALL: &[Workload] = &Workload::ALL;
/// Statements are planned, generated and translated as part of an
/// operation (`served-mix` runs warm prepared statements).
const IN_PROCESS: &[Workload] = &[AdhocSmall, AdhocLarge, BoundChurn];
const CHURN: &[Workload] = &[BoundChurn];
/// The result cache is on.
const CACHED: &[Workload] = &[BoundChurn, ServedMix];
const SERVED: &[Workload] = &[ServedMix];

/// One layer each; measured by the traced run.
pub const PER_LAYER: &[LayerMetric] = &[
    // storage
    ("storage.generate_s", "s", ALL),
    ("storage.table_bytes", "bytes", ALL),
    // sql
    ("sql.tokenize_us", "us", IN_PROCESS),
    ("sql.parse_us", "us", IN_PROCESS),
    ("sql.bind_plan_us", "us", IN_PROCESS),
    // engine::plan
    ("plan.decompose_us", "us", IN_PROCESS),
    ("plan.pipelines", "count", IN_PROCESS),
    // engine::codegen
    ("codegen.generate_us", "us", IN_PROCESS),
    ("codegen.ir_instrs", "count", IN_PROCESS),
    // vm::translate
    ("translate.us", "us", IN_PROCESS),
    ("translate.bc_instrs", "count", IN_PROCESS),
    // jit::native
    ("jit.native_compile_us", "us", IN_PROCESS),
    ("jit.native_code_bytes", "bytes", IN_PROCESS),
    // engine::exec + engine::sched
    ("engine.bytecode_ms", "ms", IN_PROCESS),
    ("engine.native_ms", "ms", IN_PROCESS),
    ("engine.adaptive_ms", "ms", IN_PROCESS),
    ("engine.adaptive_over_best_static", "ratio", IN_PROCESS),
    ("engine.exec_share", "ratio", IN_PROCESS),
    ("engine.morsels", "count", IN_PROCESS),
    ("engine.steals", "count", IN_PROCESS),
    ("engine.decisions", "count", IN_PROCESS),
    ("engine.background_compiles", "count", IN_PROCESS),
    ("engine.compiles_per_pipeline", "ratio", IN_PROCESS),
    ("engine.degraded", "count", IN_PROCESS),
    // engine::session
    ("session.prepare_us", "us", CHURN),
    ("session.warm_execute_ms", "ms", CHURN),
    ("session.cache_hit_us", "us", CACHED),
    ("session.cache_hit_share", "ratio", CACHED),
    ("session.mutate_us", "us", CHURN),
    ("session.rebuild_ms", "ms", CHURN),
    ("session.cold_builds", "count", CHURN),
    ("session.warm_executions", "count", CHURN),
    // server::protocol
    ("protocol.request_roundtrip_us", "us", SERVED),
    ("protocol.rows_roundtrip_us", "us", SERVED),
    // server::admission
    ("admission.submit_next_ns", "ns", SERVED),
    ("server.queue_wait_us", "us", SERVED),
    // server: loop, conn, client
    ("server.ping_rtt_us", "us", SERVED),
    ("server.tiny_p50_us", "us", SERVED),
    ("server.scan_p50_ms", "ms", SERVED),
    ("server.overhead_us", "us", SERVED),
    ("server.shed", "count", SERVED),
    ("server.accepted", "count", SERVED),
    // the harness itself
    ("trace.overhead_share", "ratio", ALL),
    ("trace.covered_share", "ratio", ALL),
    ("trace.compile_path_share", "ratio", IN_PROCESS),
];
