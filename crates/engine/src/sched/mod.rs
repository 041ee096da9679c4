//! The morsel scheduler subsystem: who runs which rows, how progress is
//! observed, and when the adaptive controller upgrades a pipeline.
//!
//! * [`morsel`] — a [`MorselDispenser`] with per-worker range partitions,
//!   dynamically growing morsel sizes, and LIFO half-range work stealing;
//! * [`progress`] — lock-free per-worker [`WorkerProgress`] counters
//!   aggregated into the pipeline rate the controller extrapolates from;
//! * [`controller`] — the [`AdaptiveController`] owning the Fig. 7 loop
//!   (poll cadence, [`extrapolate_pipeline_durations`] over the six
//!   fitted [`CostModel`] constants, compile claim, trace emission) with
//!   background compiles tracked via `JoinHandle`s and joined before the
//!   pipeline finalizes;
//! * [`quarantine`] — the per-fingerprint [`QuarantineStore`] that lets a
//!   broken tier degrade the ladder one rung instead of failing a query.
//!
//! [`MorselDispenser`]: morsel::MorselDispenser
//! [`WorkerProgress`]: progress::WorkerProgress
//! [`AdaptiveController`]: controller::AdaptiveController
//! [`extrapolate_pipeline_durations`]: controller::extrapolate_pipeline_durations
//! [`CostModel`]: controller::CostModel
//! [`QuarantineStore`]: quarantine::QuarantineStore

pub mod controller;
pub mod morsel;
pub mod progress;
pub mod quarantine;

pub use controller::{
    extrapolate_pipeline_durations, AdaptiveController, ControllerCtx, CostModel, ExecLevel,
    PipelineSchedReport,
};
pub use morsel::{Morsel, MorselDispenser};
pub use progress::{PipelineProgress, WorkerProgress};
pub use quarantine::{PipelineQuarantine, QuarantineStore, QUARANTINE_SKIPS};
