//! # aqe-engine — adaptive execution of compiled queries (the paper's §III)
//!
//! The core crate of this reproduction: a compiling, morsel-driven query
//! engine whose pipelines start at the level a cost model picks for their
//! row count and adaptively switch to compiled code based on observed
//! progress.
//!
//! * [`plan`] — physical plans, their decomposition into pipelines, and
//!   the stable [`plan::PhysicalPlan::fingerprint`] cache identity;
//! * [`codegen`] — pipelines → IR worker functions (Fig. 4);
//! * [`exec`] — execution options, reports, and the pipeline-loop core
//!   with its pipeline sinks;
//! * [`session`] — the long-lived API: [`session::Engine`] (catalog
//!   epoch, tier quarantine, versioned result cache),
//!   [`session::Session`], and [`session::PreparedQuery`] (code reuse
//!   across executions);
//! * [`cancel`] — the per-execution [`CancelToken`].
//!
//! Inside the crate, the morsel scheduler hands out work-stealing row
//! ranges and runs the Fig. 7 controller, which decides with the six
//! fitted constants of [`CostModel`]; each pipeline keeps one
//! compile-once backend per [`ExecLevel`]; and a scan's filter runs as a
//! vectorized pre-filter in front of whichever backend executes it.
//!
//! Execution is backend-agnostic: every morsel runs through a single
//! `Arc<dyn PipelineBackend>` per pipeline (the trait lives in
//! [`aqe_vm::backend`]), and the adaptive controller switches backends by
//! atomically publishing a better one into the pipeline's function
//! handle (Fig. 5).
//!
//! Executions are cooperatively cancellable: [`cancel::CancelToken`] is a
//! shared poison flag (plus optional deadline) the morsel loop checks on
//! every range claim and the controller checks at poll cadence, surfacing
//! as `ExecError::Cancelled` without disturbing prepared state.

pub mod cancel;
pub mod codegen;
pub mod exec;
pub mod plan;
pub(crate) mod runtime;
pub(crate) mod sched;
pub mod session;
pub(crate) mod simd;
pub(crate) mod tiers;

pub use cancel::{CancelKind, CancelToken};
pub use exec::{
    ExecMode, ExecOptions, ParamValue, PipelineBackend, Report, ResultRows, TraceEvent,
};
pub use plan::{PhysicalPlan, PlanNode};
pub use sched::{CostModel, ExecLevel, PipelineSchedReport};
pub use session::{
    CacheStats, ConcurrencyStats, Engine, PreparedQuery, ServerCounters, ServerStats, Session,
};
