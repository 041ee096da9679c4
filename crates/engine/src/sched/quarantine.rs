//! Per-fingerprint tier quarantine: remember which compilation tiers
//! failed for which pipeline, skip them for a while, then probe again.
//!
//! Graceful ladder degradation (DESIGN.md §14) means a failed
//! machine-code compile never surfaces to the caller — the
//! execution continues one rung down. But retrying a broken tier on
//! *every* execution would pay the doomed compile each time, so the
//! engine-wide [`QuarantineStore`] records each failure keyed by
//! `(plan fingerprint, pipeline, ExecLevel)` and blocks that tier for
//! the next [`QUARANTINE_SKIPS`] executions. After the skips are spent
//! the next execution probes the tier again; a successful compile
//! clears the entry, a failure re-arms it.
//!
//! Consultation happens through a per-execution [`PipelineQuarantine`]
//! view, which caches its verdict per level so one execution decrements
//! the skip budget at most once per tier no matter how many times the
//! controller asks.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use super::controller::ExecLevel;

/// Executions a failed tier is skipped for before being probed again.
pub const QUARANTINE_SKIPS: u32 = 8;

#[derive(Default)]
struct Entry {
    /// Executions left before the tier is probed again; `0` = probe now.
    remaining: u32,
    /// Total failures recorded for this key (diagnostic).
    failures: u64,
}

/// Engine-shared quarantine ledger. One per [`crate::session::Engine`],
/// shared by every session and prepared query.
#[derive(Default)]
pub struct QuarantineStore {
    map: Mutex<HashMap<(u64, usize, ExecLevel), Entry>>,
}

impl QuarantineStore {
    pub fn new() -> QuarantineStore {
        QuarantineStore::default()
    }

    /// A per-execution view for one pipeline of one plan.
    pub fn pipeline(self: &Arc<Self>, fingerprint: u64, pipeline: usize) -> PipelineQuarantine {
        PipelineQuarantine {
            inner: Arc::new(PqInner {
                store: Arc::clone(self),
                fingerprint,
                pipeline,
                cached: Default::default(),
            }),
        }
    }

    /// Quarantined keys currently holding a live skip budget.
    pub fn active(&self) -> usize {
        self.map.lock().values().filter(|e| e.remaining > 0).count()
    }

    /// Consult-and-decrement: true if the tier is still quarantined for
    /// this execution (one skip spent), false if it may be probed.
    fn consult(&self, key: (u64, usize, ExecLevel)) -> bool {
        let mut map = self.map.lock();
        match map.get_mut(&key) {
            Some(e) if e.remaining > 0 => {
                e.remaining -= 1;
                true
            }
            _ => false,
        }
    }

    fn record_failure(&self, key: (u64, usize, ExecLevel)) {
        let mut map = self.map.lock();
        let e = map.entry(key).or_default();
        e.remaining = QUARANTINE_SKIPS;
        e.failures += 1;
    }

    fn record_success(&self, key: (u64, usize, ExecLevel)) {
        self.map.lock().remove(&key);
    }
}

struct PqInner {
    store: Arc<QuarantineStore>,
    fingerprint: u64,
    pipeline: usize,
    /// Verdict cache, indexed by compiled level (see `idx`): consulting
    /// the store decrements the skip budget, so each execution must ask
    /// at most once per tier.
    cached: [OnceLock<bool>; ExecLevel::COMPILED.len()],
}

/// One execution's quarantine view of one pipeline. Cheap to clone
/// (the clone shares the verdict cache) so it can ride into background
/// compile jobs.
#[derive(Clone)]
pub struct PipelineQuarantine {
    inner: Arc<PqInner>,
}

impl PipelineQuarantine {
    /// Position among the compiled levels; `Interpreted` has none.
    fn idx(level: ExecLevel) -> Option<usize> {
        (level as usize).checked_sub(1)
    }

    fn key(&self, level: ExecLevel) -> (u64, usize, ExecLevel) {
        (self.inner.fingerprint, self.inner.pipeline, level)
    }

    /// Is compiling `level` off limits for this execution? The first
    /// call per level consults the store (spending one skip if
    /// quarantined); repeats return the cached verdict. `Interpreted` is
    /// never blocked — the ladder always has a floor.
    pub fn blocked(&self, level: ExecLevel) -> bool {
        let Some(i) = Self::idx(level) else {
            return false;
        };
        *self.inner.cached[i].get_or_init(|| self.inner.store.consult(self.key(level)))
    }

    /// Distinct tiers this execution skipped because of quarantine.
    /// Clones share the verdict cache, so one execution's skips are
    /// counted once no matter which clone asked.
    pub fn skips(&self) -> u64 {
        self.inner.cached.iter().filter(|c| c.get().copied().unwrap_or(false)).count() as u64
    }

    /// Record that compiling to `level` failed: quarantine the tier for
    /// the next [`QUARANTINE_SKIPS`] executions.
    pub fn record_failure(&self, level: ExecLevel) {
        if Self::idx(level).is_some() {
            self.inner.store.record_failure(self.key(level));
        }
    }

    /// Record that `level` compiled successfully: clear any quarantine
    /// (a probe recovered the tier).
    pub fn record_success(&self, level: ExecLevel) {
        if Self::idx(level).is_some() {
            self.inner.store.record_success(self.key(level));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Arc<QuarantineStore> {
        Arc::new(QuarantineStore::new())
    }

    #[test]
    fn unknown_key_is_not_blocked() {
        let s = store();
        assert!(!s.pipeline(1, 0).blocked(ExecLevel::Optimized));
        assert!(!s.pipeline(1, 0).blocked(ExecLevel::Interpreted));
    }

    #[test]
    fn failure_blocks_for_n_executions_then_probes() {
        let s = store();
        s.pipeline(7, 2).record_failure(ExecLevel::Optimized);
        for _ in 0..QUARANTINE_SKIPS {
            assert!(s.pipeline(7, 2).blocked(ExecLevel::Optimized));
        }
        // Budget spent: the next execution probes.
        assert!(!s.pipeline(7, 2).blocked(ExecLevel::Optimized));
        // Other keys were never affected.
        assert!(!s.pipeline(7, 1).blocked(ExecLevel::Optimized));
        assert!(!s.pipeline(8, 2).blocked(ExecLevel::Optimized));
        assert!(!s.pipeline(7, 2).blocked(ExecLevel::Unoptimized));
    }

    #[test]
    fn one_execution_spends_at_most_one_skip_per_tier() {
        let s = store();
        s.pipeline(7, 0).record_failure(ExecLevel::Optimized);
        let view = s.pipeline(7, 0);
        for _ in 0..100 {
            assert!(view.blocked(ExecLevel::Optimized));
        }
        assert_eq!(view.skips(), 1);
        // Only one skip was spent despite 100 consults.
        for _ in 0..QUARANTINE_SKIPS - 1 {
            assert!(s.pipeline(7, 0).blocked(ExecLevel::Optimized));
        }
        assert!(!s.pipeline(7, 0).blocked(ExecLevel::Optimized));
    }

    #[test]
    fn success_clears_and_refailure_rearms() {
        let s = store();
        s.pipeline(1, 0).record_failure(ExecLevel::Optimized);
        assert_eq!(s.active(), 1);
        s.pipeline(1, 0).record_success(ExecLevel::Optimized);
        assert_eq!(s.active(), 0);
        assert!(!s.pipeline(1, 0).blocked(ExecLevel::Optimized));
        s.pipeline(1, 0).record_failure(ExecLevel::Optimized);
        assert!(s.pipeline(1, 0).blocked(ExecLevel::Optimized));
    }
}
