//! Cost-model feedback calibration (the "measured inputs" half of the
//! Fig. 7 loop).
//!
//! The extrapolation is only as good as its constants: `ctime(f)` assumes
//! a per-instruction compile cost and `speedup(f)` assumes global
//! empirical factors, both measured once on a developer machine
//! (EXPERIMENTS.md). A [`CostCalibrator`] is shared by every pipeline of
//! one query execution; whenever a background compilation finishes it
//! records the *measured* wall time per IR instruction, and whenever a
//! pipeline observes its post-switch processing rate it records the
//! *measured* speedup. Later pipelines of the same query snapshot the
//! blended model, so their Fig. 7 decisions use calibrated rather than
//! default constants — the mid-query feedback loop that distinguishes
//! adaptive engines from static heuristics.

use crate::sched::controller::ExecLevel;
use parking_lot::Mutex;
use std::time::Duration;

/// The empirical model behind Fig. 7's `ctime(f)` and `speedup(f)`: compile
/// time is linear in IR instruction count (Fig. 6: "the number of LLVM
/// instructions of a query correlates very well with its compilation
/// time"); speedups are global empirical factors (§V-D).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    pub unopt_base_s: f64,
    pub unopt_per_instr_s: f64,
    pub opt_base_s: f64,
    pub opt_per_instr_s: f64,
    /// Execution speedup of unoptimized and optimized machine code over
    /// bytecode, per scanned row. A scan's pre-filter runs in front of
    /// every level alike, so it cancels out of these ratios.
    pub speedup_unopt: f64,
    pub speedup_opt: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Fitted once from `fig06_compile_scaling` (per-function least
        // squares) and `table2_exec` (single-threaded geometric means);
        // table and procedure in EXPERIMENTS.md. Recalibrated mid-query by
        // `CostCalibrator`.
        CostModel {
            unopt_base_s: 6.9e-6,
            unopt_per_instr_s: 0.13e-6,
            opt_base_s: 8.8e-6,
            opt_per_instr_s: 0.60e-6,
            speedup_unopt: 3.0,
            speedup_opt: 3.3,
        }
    }
}

impl CostModel {
    /// Modelled compile time for reaching `level` (zero for the level the
    /// engine starts at — interpretation needs no compilation).
    pub fn ctime(&self, level: ExecLevel, instrs: usize) -> f64 {
        let (base, per) = match level {
            ExecLevel::Interpreted => return 0.0,
            ExecLevel::Unoptimized => (self.unopt_base_s, self.unopt_per_instr_s),
            ExecLevel::Optimized => (self.opt_base_s, self.opt_per_instr_s),
        };
        base + per * instrs as f64
    }
    /// Modelled execution speedup of `level` over bytecode.
    pub fn speedup(&self, level: ExecLevel) -> f64 {
        match level {
            ExecLevel::Interpreted => 1.0,
            ExecLevel::Unoptimized => self.speedup_unopt,
            ExecLevel::Optimized => self.speedup_opt,
        }
    }
}

/// What one query execution learned about its cost model (surfaced in
/// `Report::calibration`).
#[derive(Clone, Copy, Debug, Default)]
pub struct CalibrationReport {
    /// Background compilations whose measured wall time was fed back.
    pub compile_observations: u32,
    /// Post-switch rate observations fed back.
    pub speedup_observations: u32,
    /// The model after all feedback (equals the query's starting model
    /// when no observation was made).
    pub model: CostModel,
}

struct Inner {
    model: CostModel,
    compile_obs: u32,
    speedup_obs: u32,
    /// The starting model itself came from earlier feedback (a
    /// cross-query `CalibrationStore` seed), so the query counts as
    /// calibrated before its first own observation.
    seeded: bool,
}

/// Per-query cost-model feedback accumulator, shared (via `Arc`) by every
/// pipeline's [`AdaptiveController`](super::AdaptiveController) and by the
/// background compile threads.
pub struct CostCalibrator {
    inner: Mutex<Inner>,
}

/// Blend weight for new observations. One observation moves the constant
/// halfway to the measurement — fast enough that the second pipeline of a
/// query already decides with calibrated inputs, damped enough that one
/// noisy window cannot wreck the model.
const BLEND: f64 = 0.5;

/// Observed speedups are clamped: an upgrade can never be modelled as a
/// slowdown (floor just above 1.0 keeps rank monotonicity meaningful), and
/// a single lucky window cannot promise absurd gains.
const SPEEDUP_FLOOR: f64 = 1.05;
const SPEEDUP_CEIL: f64 = 64.0;

fn blend(old: f64, observed: f64) -> f64 {
    old * (1.0 - BLEND) + observed * BLEND
}

impl CostCalibrator {
    pub fn new(model: CostModel) -> CostCalibrator {
        CostCalibrator {
            inner: Mutex::new(Inner { model, compile_obs: 0, speedup_obs: 0, seeded: false }),
        }
    }

    /// A calibrator whose starting model was learned by *earlier queries*
    /// (the engine's cross-query `CalibrationStore`): [`is_calibrated`]
    /// holds from the first pipeline on, so `Report::sched[0].calibrated`
    /// distinguishes a store-warmed query from a cold one.
    ///
    /// [`is_calibrated`]: CostCalibrator::is_calibrated
    pub fn seeded(model: CostModel) -> CostCalibrator {
        CostCalibrator {
            inner: Mutex::new(Inner { model, compile_obs: 0, speedup_obs: 0, seeded: true }),
        }
    }

    /// Snapshot of the current (possibly calibrated) model — what a
    /// pipeline's controller decides with.
    pub fn model(&self) -> CostModel {
        self.inner.lock().model
    }

    /// Whether any feedback has been recorded yet — or the starting
    /// model was already seeded from cross-query feedback.
    pub fn is_calibrated(&self) -> bool {
        let g = self.inner.lock();
        g.seeded || g.compile_obs + g.speedup_obs > 0
    }

    /// Feed back a measured background-compile wall time: the cost above
    /// the modelled base is attributed to the per-instruction constant.
    pub fn record_compile(&self, level: ExecLevel, instrs: usize, measured: Duration) {
        if instrs == 0 {
            return;
        }
        let secs = measured.as_secs_f64();
        let mut g = self.inner.lock();
        let (base, per) = match level {
            ExecLevel::Interpreted => return, // nothing was compiled
            ExecLevel::Unoptimized => (g.model.unopt_base_s, &mut g.model.unopt_per_instr_s),
            ExecLevel::Optimized => (g.model.opt_base_s, &mut g.model.opt_per_instr_s),
        };
        let observed_per = (secs - base).max(0.0) / instrs as f64;
        *per = blend(*per, observed_per);
        g.compile_obs += 1;
    }

    /// Feed back an observed post-switch speedup over bytecode at `level`.
    pub fn record_speedup(&self, level: ExecLevel, observed: f64) {
        if !observed.is_finite() || observed <= 0.0 {
            return;
        }
        let observed = observed.clamp(SPEEDUP_FLOOR, SPEEDUP_CEIL);
        let mut g = self.inner.lock();
        match level {
            ExecLevel::Interpreted => return, // not a switch target
            ExecLevel::Unoptimized => {
                g.model.speedup_unopt = blend(g.model.speedup_unopt, observed)
            }
            ExecLevel::Optimized => g.model.speedup_opt = blend(g.model.speedup_opt, observed),
        }
        g.speedup_obs += 1;
    }

    pub fn report(&self) -> CalibrationReport {
        let g = self.inner.lock();
        CalibrationReport {
            compile_observations: g.compile_obs,
            speedup_observations: g.speedup_obs,
            model: g.model,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctime_is_linear_in_instrs() {
        let m = CostModel::default();
        let a = m.ctime(ExecLevel::Optimized, 1000);
        let b = m.ctime(ExecLevel::Optimized, 2000);
        assert!((b - a - m.opt_per_instr_s * 1000.0).abs() < 1e-12);
    }

    #[test]
    fn compile_feedback_moves_per_instr_constant() {
        let c = CostCalibrator::new(CostModel::default());
        assert!(!c.is_calibrated());
        // 10k instrs measured at 100 ms: vastly above the default model.
        c.record_compile(ExecLevel::Optimized, 10_000, Duration::from_millis(100));
        assert!(c.is_calibrated());
        let m = c.model();
        assert!(m.opt_per_instr_s > CostModel::default().opt_per_instr_s);
        assert_eq!(c.report().compile_observations, 1);
        // Unopt constants untouched.
        assert_eq!(m.unopt_per_instr_s, CostModel::default().unopt_per_instr_s);
    }

    #[test]
    fn speedup_feedback_is_clamped_and_blended() {
        let c = CostCalibrator::new(CostModel::default());
        c.record_speedup(ExecLevel::Optimized, 0.2); // an "upgrade" can't model as a slowdown
        let m = c.model();
        assert!(m.speedup_opt >= SPEEDUP_FLOOR * BLEND);
        assert!(m.speedup_opt < CostModel::default().speedup_opt);
        c.record_speedup(ExecLevel::Unoptimized, f64::NAN); // ignored
        assert_eq!(c.report().speedup_observations, 1);
    }

    #[test]
    fn seeded_calibrator_reports_calibrated_before_any_observation() {
        let c = CostCalibrator::seeded(CostModel::default());
        assert!(c.is_calibrated());
        assert_eq!(c.report().compile_observations, 0);
    }

    #[test]
    fn feedback_moves_its_own_level_only_and_ignores_interpreted() {
        let c = CostCalibrator::new(CostModel::default());
        c.record_compile(ExecLevel::Unoptimized, 10_000, Duration::from_millis(200));
        c.record_speedup(ExecLevel::Unoptimized, 20.0);
        let m = c.model();
        assert!(m.unopt_per_instr_s > CostModel::default().unopt_per_instr_s);
        assert!(m.speedup_unopt > CostModel::default().speedup_unopt);
        assert_eq!(m.opt_per_instr_s, CostModel::default().opt_per_instr_s);
        assert_eq!(m.speedup_opt, CostModel::default().speedup_opt);
        // Interpreted is not a compile target: both feedback kinds ignore it.
        c.record_compile(ExecLevel::Interpreted, 1000, Duration::from_secs(1));
        c.record_speedup(ExecLevel::Interpreted, 3.0);
        assert_eq!(c.report().compile_observations, 1);
        assert_eq!(c.report().speedup_observations, 1);
    }

    #[test]
    fn zero_instr_compile_is_ignored() {
        let c = CostCalibrator::new(CostModel::default());
        c.record_compile(ExecLevel::Unoptimized, 0, Duration::from_secs(1));
        assert!(!c.is_calibrated());
    }
}
