//! The morsel scheduler subsystem: who runs which rows, how progress is
//! observed, and when the adaptive controller upgrades a pipeline.
//!
//! * [`morsel`] — a [`MorselDispenser`] with per-worker range partitions,
//!   dynamically growing morsel sizes, and LIFO half-range work stealing;
//! * [`progress`] — lock-free per-worker [`WorkerProgress`] counters
//!   aggregated into the pipeline rate the controller extrapolates from;
//! * [`controller`] — the [`AdaptiveController`] owning the Fig. 7 loop
//!   (poll cadence, [`extrapolate_pipeline_durations`] over the nine
//!   fitted [`CostModel`] constants, the compile itself on the worker that
//!   decided) and the same frontier at pipeline start
//!   ([`plan_pipeline_start`]); no compile outlives its worker's morsel
//!   loop;
//! * [`quarantine`] — the per-fingerprint [`QuarantineStore`] that lets a
//!   broken tier degrade the ladder one rung instead of failing a query.
//!
//! [`WorkerProgress`]: progress::WorkerProgress
//! [`extrapolate_pipeline_durations`]: controller::extrapolate_pipeline_durations
//! [`plan_pipeline_start`]: controller::plan_pipeline_start

pub(crate) mod controller;
pub(crate) mod morsel;
pub(crate) mod progress;
pub(crate) mod quarantine;

pub use aqe_vm::backend::ExecLevel;
pub use controller::{
    plan_pipeline_start, AdaptiveController, ControllerCtx, CostModel, PipelineSchedReport,
};
pub use morsel::MorselDispenser;
pub use progress::PipelineProgress;
pub use quarantine::{PipelineQuarantine, QuarantineStore};

// Scheduler tests (DESIGN.md §5/§10):
//
// 1. a property test that per-worker ranges plus steals cover
//    `0..total_rows` exactly once under random steal interleavings,
// 2. a threaded test that a deliberately slow backend on one worker's
//    partition still finishes via stealing — the hot region is
//    redistributed instead of serializing the tail.
#[cfg(test)]
mod tests {
    use super::morsel::{Morsel, MorselDispenser};
    use super::ExecLevel;
    use crate::exec::{FunctionHandle, PipelineBackend};
    use aqe_vm::interp::{ExecError, Frame};
    use aqe_vm::rt::Registry;
    use parking_lot::Mutex;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Sorted morsels must tile `0..total` exactly: no gap, no overlap, no
    /// duplicate — the dispenser's core invariant.
    fn assert_exact_coverage(mut morsels: Vec<Morsel>, total: u64) {
        morsels.sort_by_key(|m| m.begin);
        let mut at = 0;
        for m in &morsels {
            assert_eq!(m.begin, at, "gap or overlap at row {at}");
            assert!(m.end > m.begin, "empty morsel {m:?}");
            at = m.end;
        }
        assert_eq!(at, total, "rows {at}..{total} never dispensed");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random worker counts, totals, morsel sizes, and claim
        /// interleavings (the seed drives which worker claims next, so
        /// steals interleave with front-claims in arbitrary orders): every
        /// row is dispensed exactly once.
        #[test]
        fn ranges_plus_steals_cover_rows_exactly_once(
            total in 0u64..30_000,
            workers in 1usize..7,
            min_morsel in 1u64..1500,
            seed in any::<u64>(),
        ) {
            let d = MorselDispenser::new(total, workers, min_morsel, min_morsel * 8);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut live: Vec<usize> = (0..workers).collect();
            let mut claimed: Vec<Morsel> = Vec::new();
            while !live.is_empty() {
                let pick = rng.random_range(0..live.len());
                let w = live[pick];
                match d.claim(w) {
                    Some(m) => claimed.push(m),
                    None => {
                        live.swap_remove(pick);
                    }
                }
            }
            let claimed_rows: u64 = claimed.iter().map(|m| m.tuples()).sum();
            prop_assert_eq!(claimed_rows, total);
            assert_exact_coverage(claimed, total);
        }
    }

    /// Morsels claimed so far, by worker, each recorded before it runs.
    type Claims = Arc<Mutex<Vec<(usize, Morsel)>>>;

    /// A backend that simulates skewed per-morsel cost: a morsel worker 0
    /// claimed inside the hot region blocks until every other row of the
    /// region has been claimed — by thieves, worker 0 being blocked —
    /// bounded at 10 s, so a dispenser that never steals fails the test
    /// instead of hanging it; everything else is free. Implements the real
    /// `PipelineBackend` seam so the test goes through
    /// `FunctionHandle::load` exactly like the engine's worker loop.
    struct SkewedBackend {
        hot_end: u64,
        claims: Claims,
    }

    impl PipelineBackend for SkewedBackend {
        fn call(
            &self,
            args: &[u64],
            _rt: &Registry,
            _frame: &mut Frame,
        ) -> Result<Option<u64>, ExecError> {
            let begin = args[2];
            let deadline = Instant::now() + Duration::from_secs(10);
            let blocked = || {
                let claims = self.claims.lock();
                let hot = claims.iter().filter(|(_, m)| m.begin < self.hot_end);
                claims.iter().any(|&(w, m)| w == 0 && m.begin == begin)
                    && hot.map(|(_, m)| m.tuples()).sum::<u64>() < self.hot_end
            };
            while begin < self.hot_end && blocked() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(50));
            }
            Ok(None)
        }
        fn level(&self) -> ExecLevel {
            ExecLevel::Interpreted
        }
    }

    #[test]
    fn slow_backend_on_one_worker_is_rescued_by_stealing() {
        const TOTAL: u64 = 40_000;
        const WORKERS: usize = 4;
        // The hot quarter is exactly worker 0's initial partition: left to
        // its static partition, worker 0 would serialize the tail.
        let hot_end = TOTAL / WORKERS as u64;
        let d = MorselDispenser::new(TOTAL, WORKERS, 256, 1024);
        let first = d.claim(1).unwrap();
        assert_eq!(first.begin, hot_end, "worker 1's partition starts where the hot quarter ends");
        let claimed: Claims = Arc::new(Mutex::new(vec![(1, first)]));
        let handle =
            FunctionHandle::new(Arc::new(SkewedBackend { hot_end, claims: claimed.clone() }));

        std::thread::scope(|scope| {
            for tid in 0..WORKERS {
                let d = &d;
                let handle = &handle;
                let claimed = &claimed;
                scope.spawn(move || {
                    let rt = Registry::new();
                    let mut frame = Frame::new();
                    while let Some(m) = d.claim(tid) {
                        claimed.lock().push((tid, m));
                        let backend = handle.load();
                        backend.call(&[0, 0, m.begin, m.end], &rt, &mut frame).unwrap();
                    }
                });
            }
        });

        // Every row ran exactly once, steals happened, and the slow region
        // was redistributed: worker 0 did *not* have to grind through its
        // whole partition alone (the fast workers finished their cold
        // partitions and stole the hot tail long before worker 0 could).
        let claimed = std::mem::take(&mut *claimed.lock());
        let w0: u64 = claimed.iter().filter(|(w, _)| *w == 0).map(|(_, m)| m.tuples()).sum();
        assert_exact_coverage(claimed.into_iter().map(|(_, m)| m).collect(), TOTAL);
        assert!(d.steals() >= 1, "skewed pipeline must trigger at least one steal");
        assert!(
            w0 < hot_end,
            "worker 0 processed its entire hot partition ({w0} rows) — stealing never rebalanced it"
        );
    }

    #[test]
    fn uniform_threaded_drain_covers_exactly_once() {
        // No artificial skew, just real thread interleavings racing claim
        // against steal on a small-morsel dispenser.
        const TOTAL: u64 = 100_000;
        const WORKERS: usize = 8;
        let d = MorselDispenser::new(TOTAL, WORKERS, 16, 64);
        let claimed: Mutex<Vec<Morsel>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for tid in 0..WORKERS {
                let d = &d;
                let claimed = &claimed;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    while let Some(m) = d.claim(tid) {
                        local.push(m);
                    }
                    claimed.lock().extend(local);
                });
            }
        });
        assert_exact_coverage(claimed.into_inner(), TOTAL);
        assert!((0..WORKERS).all(|w| d.claim(w).is_none()), "no rows left to claim");
    }
}
