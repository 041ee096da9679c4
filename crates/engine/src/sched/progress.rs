//! Lock-free execution-progress accounting.
//!
//! PR 1 tracked the pipeline rate with a shared `since_reset: AtomicU64`
//! plus a `reset_at: Mutex<Instant>` — every rate read took a lock, and
//! only the *aggregate* rate was observable. Here each worker owns a
//! cache-line-padded [`WorkerProgress`] counter (so the hot `record` path
//! never contends), and the rate window is two atomics: the total at the
//! last reset and the reset timestamp in microseconds since pipeline
//! start. Readers race benignly against resets; rates are advisory inputs
//! to the Fig. 7 extrapolation, not accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-worker counters, padded to a cache line so neighbouring workers'
/// `fetch_add`s do not false-share.
#[repr(align(64))]
#[derive(Default)]
pub struct WorkerProgress {
    tuples: AtomicU64,
    morsels: AtomicU64,
    /// Rows of those `tuples` the scan pre-filter kept from the worker
    /// function.
    skipped: AtomicU64,
}

impl WorkerProgress {
    pub fn tuples(&self) -> u64 {
        self.tuples.load(Ordering::Relaxed)
    }

    pub fn morsels(&self) -> u64 {
        self.morsels.load(Ordering::Relaxed)
    }
}

/// Aggregated pipeline progress: per-worker counters plus the rate window
/// the adaptive controller extrapolates from.
pub struct PipelineProgress {
    start: Instant,
    workers: Vec<WorkerProgress>,
    /// Total tuples at the last window reset.
    window_base: AtomicU64,
    /// Window start, µs since `start`.
    window_start_us: AtomicU64,
}

impl PipelineProgress {
    pub fn new(workers: usize) -> PipelineProgress {
        PipelineProgress {
            start: Instant::now(),
            workers: (0..workers).map(|_| WorkerProgress::default()).collect(),
            window_base: AtomicU64::new(0),
            window_start_us: AtomicU64::new(0),
        }
    }

    /// Record one finished morsel for `worker`.
    #[inline]
    pub fn record(&self, worker: usize, tuples: u64) {
        let w = &self.workers[worker];
        w.tuples.fetch_add(tuples, Ordering::Relaxed);
        w.morsels.fetch_add(1, Ordering::Relaxed);
    }

    /// Record that the scan pre-filter proved `rows` of `worker`'s last
    /// morsel failing. The morsel itself is still [`record`](Self::record)ed
    /// whole: totals and rates stay in scanned rows.
    #[inline]
    pub fn record_skipped(&self, worker: usize, rows: u64) {
        self.workers[worker].skipped.fetch_add(rows, Ordering::Relaxed);
    }

    /// Total rows the scan pre-filter skipped, over all workers.
    pub fn skipped(&self) -> u64 {
        self.workers.iter().map(|w| w.skipped.load(Ordering::Relaxed)).sum()
    }

    /// Total tuples processed by all workers.
    pub fn total(&self) -> u64 {
        self.workers.iter().map(|w| w.tuples.load(Ordering::Relaxed)).sum()
    }

    /// Total morsels executed by all workers.
    pub fn morsels(&self) -> u64 {
        self.workers.iter().map(|w| w.morsels.load(Ordering::Relaxed)).sum()
    }

    /// The individually observable per-worker counters (what the global
    /// cursor of PR 1 could not provide).
    pub fn worker(&self, i: usize) -> &WorkerProgress {
        &self.workers[i]
    }

    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Start a new rate window (called when a compilation is claimed and
    /// again when the compiled backend is installed, so post-switch rates
    /// are measured at the new level only).
    pub fn reset_window(&self) {
        self.window_base.store(self.total(), Ordering::Relaxed);
        self.window_start_us.store(self.start.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    /// Tuples and seconds elapsed in the current window.
    pub fn window(&self) -> (u64, f64) {
        let now_us = self.start.elapsed().as_micros() as u64;
        let base = self.window_base.load(Ordering::Relaxed);
        let start_us = self.window_start_us.load(Ordering::Relaxed);
        let tuples = self.total().saturating_sub(base);
        let secs = now_us.saturating_sub(start_us) as f64 / 1e6;
        (tuples, secs)
    }

    /// Time since the pipeline's progress tracking began.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_aggregate_across_workers() {
        let p = PipelineProgress::new(3);
        p.record(0, 100);
        p.record(1, 50);
        p.record(0, 25);
        assert_eq!(p.total(), 175);
        assert_eq!(p.morsels(), 3);
        assert_eq!(p.worker(0).tuples(), 125);
        assert_eq!(p.worker(0).morsels(), 2);
        assert_eq!(p.worker(2).tuples(), 0);
        // Skipped rows are a separate ledger: totals stay in scanned rows.
        p.record_skipped(1, 40);
        p.record_skipped(0, 2);
        assert_eq!(p.skipped(), 42);
        assert_eq!(p.total(), 175);
    }

    #[test]
    fn window_resets_exclude_prior_tuples() {
        let p = PipelineProgress::new(1);
        p.record(0, 1000);
        p.reset_window();
        p.record(0, 10);
        let (tuples, _) = p.window();
        assert_eq!(tuples, 10);
    }

    #[test]
    fn window_seconds_advance() {
        let p = PipelineProgress::new(1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let (_, secs) = p.window();
        assert!(secs > 0.0);
    }
}
