//! # aqe-engine — adaptive execution of compiled queries (the paper's §III)
//!
//! The core crate of this reproduction: a compiling, morsel-driven query
//! engine whose pipelines start in the bytecode interpreter and adaptively
//! switch to compiled code based on observed progress.
//!
//! * [`plan`] — physical plans, their decomposition into pipelines, and
//!   the stable [`plan::PhysicalPlan::fingerprint`] cache identity;
//! * [`codegen`] — pipelines → IR worker functions (Fig. 4);
//! * [`runtime`] — hash tables, buffers, and the runtime-call surface;
//! * [`exec`] — the pipeline-loop core, hot-swappable function handles
//!   (Fig. 5), and pipeline sinks;
//! * [`sched`] — the morsel scheduler subsystem: work-stealing
//!   [`sched::MorselDispenser`], lock-free [`sched::PipelineProgress`],
//!   the Fig. 7 [`sched::AdaptiveController`], and per-query cost-model
//!   calibration ([`sched::CostCalibrator`]);
//! * [`tiers`] — the per-pipeline [`TierTable`]: one compile-once entry
//!   per [`ExecLevel`], the single place a level's backend is built and
//!   read (static modes, background compiles and warm starts alike);
//! * [`session`] — the long-lived API: [`session::Engine`] (catalog
//!   version, cross-query calibration store, versioned result cache),
//!   [`session::Session`], and [`session::PreparedQuery`] (code reuse
//!   across executions).
//!
//! Execution is backend-agnostic: every morsel runs through a single
//! `Arc<dyn PipelineBackend>` per pipeline (the trait lives in
//! [`aqe_vm::backend`]), and the adaptive controller switches backends by
//! atomically publishing a better one into the pipeline's
//! [`exec::FunctionHandle`].
//!
//! Executions are cooperatively cancellable: [`cancel::CancelToken`] is a
//! shared poison flag (plus optional deadline) the morsel loop checks on
//! every range claim and the controller checks at poll cadence, surfacing
//! as `ExecError::Cancelled` without disturbing prepared state.

pub mod cancel;
pub mod codegen;
pub mod exec;
pub mod plan;
pub mod runtime;
pub mod sched;
pub mod session;
pub mod simd;
pub mod tiers;

pub use cancel::{CancelKind, CancelToken};
pub use exec::{
    AdmissionReport, CostModel, ExecMode, ExecOptions, FunctionHandle, ParamValue, PipelineBackend,
    Report, ResultRows, TraceEvent,
};
pub use plan::{PhysicalPlan, PlanNode};
pub use sched::{CalibrationReport, ExecLevel, PipelineSchedReport};
pub use session::{
    CacheStats, CalibrationStore, ConcurrencyStats, Engine, PreparedQuery, ServerCounters,
    ServerStats, Session, WorkloadShape,
};
pub use tiers::TierTable;
