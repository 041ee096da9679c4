//! The morsel scheduler subsystem: who runs which rows, how progress is
//! observed, and when the adaptive controller upgrades a pipeline.
//!
//! PR 1 left all of this inlined in a 240-line `run_pipeline`: a single
//! shared `AtomicU64` cursor handed out morsels (one stalled worker or one
//! expensive morsel serialized the tail), the processing rate lived behind
//! a `since_reset`/`reset_at` mutex dance, the Fig. 7 decision was an
//! inline block in the worker loop, and background-compile threads were
//! detached and leaked. This module dissolves that monolith into four
//! cooperating pieces:
//!
//! * [`morsel`] — a [`MorselDispenser`] with per-worker range partitions,
//!   dynamically growing morsel sizes, and LIFO half-range work stealing;
//! * [`progress`] — lock-free per-worker [`WorkerProgress`] counters
//!   aggregated into the pipeline rate the controller extrapolates from;
//! * [`controller`] — the [`AdaptiveController`] owning the Fig. 7 loop
//!   (poll cadence, [`extrapolate_pipeline_durations`], compile claim,
//!   trace emission) with background compiles tracked via `JoinHandle`s
//!   and joined before the pipeline finalizes;
//! * [`calibrate`] — a per-query [`CostCalibrator`] feeding measured
//!   compile times and observed post-switch rates back into the
//!   [`CostModel`], so later pipelines of the same query decide with
//!   calibrated rather than default constants.
//!
//! [`MorselDispenser`]: morsel::MorselDispenser
//! [`WorkerProgress`]: progress::WorkerProgress
//! [`AdaptiveController`]: controller::AdaptiveController
//! [`extrapolate_pipeline_durations`]: controller::extrapolate_pipeline_durations
//! [`CostCalibrator`]: calibrate::CostCalibrator
//! [`CostModel`]: calibrate::CostModel

pub mod calibrate;
pub mod controller;
pub mod morsel;
pub mod progress;
pub mod quarantine;

pub use calibrate::{CalibrationReport, CostCalibrator, CostModel};
pub use controller::{
    extrapolate_pipeline_durations, AdaptiveController, ControllerCtx, ExecLevel,
    PipelineSchedReport,
};
pub use morsel::{Morsel, MorselDispenser};
pub use progress::{PipelineProgress, WorkerProgress};
pub use quarantine::{PipelineQuarantine, QuarantineStore, QUARANTINE_SKIPS};
