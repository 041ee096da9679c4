//! Morsel dispensing: per-worker range partitions with LIFO half-range
//! work stealing.
//!
//! PR 1's scheduler was a single shared `AtomicU64` cursor: correct, but a
//! worker stalled inside `call` (or one expensive morsel) serialized the
//! tail, and per-worker rates were unobservable because every worker drew
//! from the same pool. The dispenser instead gives each worker a contiguous
//! partition of `0..total_rows`. A worker claims morsels from the *front*
//! of its own range; when the range runs dry it steals the *upper half* of
//! the largest remaining range (LIFO with respect to the victim's claim
//! order — the thief takes the rows the victim would have reached last)
//! and installs the loot as its new range, which later thieves may split
//! again.
//!
//! Every range is one `AtomicU64` packing `(start, end)` as two `u32`s, so
//! both the owner's front-claim and a thief's back-steal are single CAS
//! transitions on the same word: rows move between slots without ever
//! being duplicated or dropped (the property test in
//! `crates/engine/tests/sched.rs` exercises exactly this invariant under
//! random interleavings).

use std::sync::atomic::{AtomicU64, Ordering};

/// One contiguous row range handed to a worker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Morsel {
    pub begin: u64,
    pub end: u64,
}

impl Morsel {
    pub fn tuples(&self) -> u64 {
        self.end - self.begin
    }
}

#[inline]
fn pack(start: u64, end: u64) -> u64 {
    (start << 32) | end
}

#[inline]
fn unpack(v: u64) -> (u64, u64) {
    (v >> 32, v & 0xffff_ffff)
}

/// Per-worker dispenser slot. Padded to a cache line so one worker's claim
/// CAS does not false-share with its neighbours' hot loops.
#[repr(align(64))]
struct Slot {
    /// Packed `(start, end)` of the remaining range; empty when
    /// `start >= end`.
    range: AtomicU64,
    /// Current morsel size. Written only by the owning worker (relaxed);
    /// reset to the minimum when a stolen range is installed so fresh loot
    /// stays stealable.
    morsel_size: AtomicU64,
    /// Morsels claimed by the owner from this slot (drives the ×2 growth
    /// schedule).
    morsels: AtomicU64,
}

/// Work-stealing morsel dispenser over `0..total_rows`.
pub struct MorselDispenser {
    slots: Vec<Slot>,
    total: u64,
    min_morsel: u64,
    max_morsel: u64,
    steals: AtomicU64,
    stolen_tuples: AtomicU64,
}

impl MorselDispenser {
    /// Partition `0..total_rows` evenly across `workers` slots.
    ///
    /// Ranges are packed as two `u32`s, so a single pipeline is limited to
    /// `u32::MAX` rows — beyond any scale this repository generates; the
    /// constructor asserts rather than silently corrupting ranges.
    pub fn new(
        total_rows: u64,
        workers: usize,
        min_morsel: u64,
        max_morsel: u64,
    ) -> MorselDispenser {
        assert!(workers > 0, "dispenser needs at least one worker");
        assert!(total_rows <= u32::MAX as u64, "pipeline exceeds the u32 morsel-range limit");
        let w = workers as u64;
        let min_morsel = min_morsel.max(1);
        let max_morsel = max_morsel.max(min_morsel);
        let slots = (0..w)
            .map(|i| Slot {
                range: AtomicU64::new(pack(total_rows * i / w, total_rows * (i + 1) / w)),
                morsel_size: AtomicU64::new(min_morsel),
                morsels: AtomicU64::new(0),
            })
            .collect();
        MorselDispenser {
            slots,
            total: total_rows,
            min_morsel,
            max_morsel,
            steals: AtomicU64::new(0),
            stolen_tuples: AtomicU64::new(0),
        }
    }

    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    pub fn total_rows(&self) -> u64 {
        self.total
    }

    /// Successful steal transitions so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Tuples moved between workers by stealing.
    pub fn stolen_tuples(&self) -> u64 {
        self.stolen_tuples.load(Ordering::Relaxed)
    }

    /// The initial static partition of `worker` (for tests and reports).
    pub fn initial_partition(&self, worker: usize) -> Morsel {
        let w = self.slots.len() as u64;
        let i = worker as u64;
        Morsel { begin: self.total * i / w, end: self.total * (i + 1) / w }
    }

    /// Rows not yet claimed by any worker (racy snapshot).
    pub fn remaining(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| {
                let (b, e) = unpack(s.range.load(Ordering::Acquire));
                e.saturating_sub(b)
            })
            .sum()
    }

    /// Claim the next morsel for `worker`: from the front of its own range,
    /// or — once that runs dry — from the upper half of the fullest other
    /// range. Returns `None` only when no rows remain anywhere.
    pub fn claim(&self, worker: usize) -> Option<Morsel> {
        loop {
            if let Some(m) = self.claim_front(worker) {
                return Some(m);
            }
            if !self.try_steal(worker) {
                return None;
            }
        }
    }

    /// CAS a morsel off the front of `worker`'s own range and advance the
    /// growth schedule (×2 every power-of-two morsel count, capped).
    fn claim_front(&self, worker: usize) -> Option<Morsel> {
        let slot = &self.slots[worker];
        loop {
            let cur = slot.range.load(Ordering::Acquire);
            let (start, end) = unpack(cur);
            if start >= end {
                return None;
            }
            let want = slot.morsel_size.load(Ordering::Relaxed);
            let take = want.min(end - start);
            if slot
                .range
                .compare_exchange(cur, pack(start + take, end), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let n = slot.morsels.fetch_add(1, Ordering::Relaxed) + 1;
                if n.is_power_of_two() && want < self.max_morsel {
                    slot.morsel_size.store((want * 2).min(self.max_morsel), Ordering::Relaxed);
                }
                return Some(Morsel { begin: start, end: start + take });
            }
            // A thief shrank our range between load and CAS; retry.
        }
    }

    /// Steal the upper half of the fullest other range and install it as
    /// `worker`'s new range. Returns whether any rows were acquired.
    ///
    /// Installing into our own (empty) slot with a plain store is safe: a
    /// concurrent thief CASes against the value it *observed*, and an
    /// observed-empty slot is never chosen as a victim, so the store
    /// cannot be clobbered by a stale transition on the empty value. A
    /// range *can* bit-recur in a slot (e.g. a whole single-row range is
    /// stolen away and later stolen back), but that ABA is benign: every
    /// transition here is a pure function of the observed packed value —
    /// claim takes the same front morsel, steal takes the same upper half
    /// — so a CAS that succeeds against a recurred value performs exactly
    /// the transition that is valid for the range now in the slot.
    fn try_steal(&self, worker: usize) -> bool {
        loop {
            // Pick the victim with the most remaining work.
            let mut best: Option<(usize, u64, u64, u64)> = None; // (victim, cur, start, end)
            let mut best_rem = 0u64;
            for (v, slot) in self.slots.iter().enumerate() {
                if v == worker {
                    continue;
                }
                let cur = slot.range.load(Ordering::Acquire);
                let (s, e) = unpack(cur);
                let rem = e.saturating_sub(s);
                if rem > best_rem {
                    best_rem = rem;
                    best = Some((v, cur, s, e));
                }
            }
            let Some((victim, cur, s, e)) = best else {
                return false;
            };
            let rem = e - s;
            let take = rem.div_ceil(2);
            if self.slots[victim]
                .range
                .compare_exchange(cur, pack(s, e - take), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.slots[worker].range.store(pack(e - take, e), Ordering::Release);
                self.slots[worker].morsel_size.store(self.min_morsel, Ordering::Relaxed);
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.stolen_tuples.fetch_add(take, Ordering::Relaxed);
                return true;
            }
            // Victim's range moved under us; rescan.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(d: &MorselDispenser, worker: usize) -> Vec<Morsel> {
        let mut out = Vec::new();
        while let Some(m) = d.claim(worker) {
            out.push(m);
        }
        out
    }

    fn assert_exact_coverage(mut ms: Vec<Morsel>, total: u64) {
        ms.sort_by_key(|m| m.begin);
        let mut at = 0;
        for m in &ms {
            assert_eq!(m.begin, at, "gap or overlap at {at} in {ms:?}");
            assert!(m.end > m.begin);
            at = m.end;
        }
        assert_eq!(at, total);
    }

    #[test]
    fn single_worker_drains_in_order_with_growth() {
        let d = MorselDispenser::new(10_000, 1, 16, 256);
        let ms = drain_all(&d, 0);
        assert_eq!(ms[0].tuples(), 16);
        assert!(ms.iter().any(|m| m.tuples() == 256), "morsel size must grow to the cap");
        assert_exact_coverage(ms, 10_000);
        assert_eq!(d.steals(), 0);
    }

    #[test]
    fn idle_worker_steals_the_tail() {
        let d = MorselDispenser::new(1_000, 2, 8, 8);
        // Worker 1 never touches its own partition; worker 0 drains its own
        // half, then steals from worker 1 until everything is done.
        let ms = drain_all(&d, 0);
        assert_exact_coverage(ms, 1_000);
        assert!(d.steals() >= 1);
        assert!(d.stolen_tuples() > 0);
        assert!(d.claim(1).is_none());
    }

    #[test]
    fn more_workers_than_rows() {
        let d = MorselDispenser::new(3, 8, 1024, 4096);
        let mut all = Vec::new();
        for w in 0..8 {
            all.extend(drain_all(&d, w));
        }
        assert_exact_coverage(all, 3);
    }

    #[test]
    fn empty_pipeline_yields_nothing() {
        let d = MorselDispenser::new(0, 4, 1024, 4096);
        for w in 0..4 {
            assert!(d.claim(w).is_none());
        }
    }

    #[test]
    fn steal_takes_upper_half_lifo() {
        let d = MorselDispenser::new(100, 2, 1, 1);
        // Partition: worker 0 owns 0..50, worker 1 owns 50..100.
        // Drain worker 0's own range only (claim_front), then one steal.
        for _ in 0..50 {
            d.claim_front(0).unwrap();
        }
        assert!(d.try_steal(0));
        // The thief took the *upper* half of 50..100.
        let m = d.claim_front(0).unwrap();
        assert_eq!(m.begin, 75);
        // The victim still owns its lower half.
        let v = d.claim_front(1).unwrap();
        assert_eq!(v.begin, 50);
    }
}
