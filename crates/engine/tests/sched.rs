//! Scheduler-subsystem tests (DESIGN.md §5/§10):
//!
//! 1. a property test that per-worker ranges plus steals cover
//!    `0..total_rows` exactly once under random steal interleavings,
//! 2. a threaded test that a deliberately slow backend on one worker's
//!    partition still finishes via stealing — the hot region is
//!    redistributed instead of serializing the tail.

use aqe_engine::exec::{ExecMode, FunctionHandle, PipelineBackend};
use aqe_engine::sched::{Morsel, MorselDispenser, PipelineProgress};
use aqe_vm::interp::{ExecError, Frame};
use aqe_vm::rt::Registry;
use parking_lot::Mutex;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

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

    /// Random worker counts, totals, morsel sizes, and claim interleavings
    /// (the seed drives which worker claims next, so steals interleave
    /// with front-claims in arbitrary orders): every row is dispensed
    /// exactly once.
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

/// A backend that simulates skewed per-morsel cost: morsels whose rows lie
/// in the hot region sleep, everything else is free. Implements the real
/// `PipelineBackend` seam so the test goes through `FunctionHandle::load`
/// exactly like the engine's worker loop.
struct SkewedBackend {
    hot_end: u64,
    delay: Duration,
}

impl PipelineBackend for SkewedBackend {
    fn call(
        &self,
        args: &[u64],
        _rt: &Registry,
        _frame: &mut Frame,
    ) -> Result<Option<u64>, ExecError> {
        let begin = args[2];
        if begin < self.hot_end {
            std::thread::sleep(self.delay);
        }
        Ok(None)
    }
    fn kind(&self) -> ExecMode {
        ExecMode::Bytecode
    }
}

#[test]
fn slow_backend_on_one_worker_is_rescued_by_stealing() {
    const TOTAL: u64 = 40_000;
    const WORKERS: usize = 4;
    // The hot quarter is exactly worker 0's initial partition: left to its
    // static partition, worker 0 would serialize the tail.
    let hot_end = TOTAL / WORKERS as u64;
    let d = MorselDispenser::new(TOTAL, WORKERS, 256, 1024);
    assert_eq!(d.initial_partition(0).end, hot_end);
    let progress = PipelineProgress::new(WORKERS);
    let handle =
        FunctionHandle::new(Arc::new(SkewedBackend { hot_end, delay: Duration::from_micros(300) }));
    let claimed: Mutex<Vec<Morsel>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for tid in 0..WORKERS {
            let d = &d;
            let progress = &progress;
            let handle = &handle;
            let claimed = &claimed;
            scope.spawn(move || {
                let rt = Registry::new();
                let mut frame = Frame::new();
                while let Some(m) = d.claim(tid) {
                    let backend = handle.load();
                    backend.call(&[0, 0, m.begin, m.end], &rt, &mut frame).unwrap();
                    progress.record(tid, m.tuples());
                    claimed.lock().push(m);
                }
            });
        }
    });

    // Every row ran exactly once, steals happened, and the slow region was
    // redistributed: worker 0 did *not* have to grind through its whole
    // partition alone (the fast workers finished their cold partitions and
    // stole the hot tail long before worker 0 could).
    assert_exact_coverage(claimed.into_inner(), TOTAL);
    assert!(d.steals() >= 1, "skewed pipeline must trigger at least one steal");
    let w0 = progress.worker(0).tuples();
    assert!(
        w0 < hot_end,
        "worker 0 processed its entire hot partition ({w0} rows) — stealing never rebalanced it"
    );
    let others: u64 = (1..WORKERS).map(|w| progress.worker(w).tuples()).sum();
    assert_eq!(w0 + others, TOTAL);
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
    assert_eq!(d.remaining(), 0);
}
