//! The versioned query-result cache: byte-budgeted, sharded, counted.
//!
//! Keys are `(plan fingerprint, catalog version)`: the fingerprint
//! identifies *what* the query computes (`PhysicalPlan::fingerprint`), the
//! catalog version identifies *which data* it computed it over. A catalog
//! mutation bumps the version, so every cached entry for the old contents
//! becomes unreachable — invalidation is a key mismatch, never a scan. The
//! uniform `ResultRows` output makes hits backend-agnostic: a result
//! produced by the bytecode interpreter serves a later native-mode
//! submission of the same plan bit-identically.
//!
//! **Sharding.** One mutex would serialize every hit, miss, and insert
//! of every session under concurrent traffic. The cache is `N`
//! independently mutexed shards ([`DEFAULT_SHARDS`]), an entry's shard
//! chosen by its fingerprint, so sessions executing *different* queries
//! touch different locks and only identical-fingerprint traffic — which
//! shares a cache entry anyway — shares a shard. The byte budget splits
//! evenly across shards and eviction is per-shard, which keeps the victim
//! scan O(shard), at the cost of the budget being enforced per
//! fingerprint-class rather than globally exactly (a skew of hot
//! fingerprints into one shard evicts within that shard while others sit
//! under-full — bounded by design to `budget/N` per shard).
//!
//! Sizing is a fixed **total-byte budget** ([`BUDGET_BYTES`]). Eviction is
//! **size-weighted LRU**: recency orders the victims, but between entries
//! of similar recency the larger one goes first (small results get a
//! bounded recency grace — see [`Entry::score`]). Admission refuses any
//! single result over a quarter of its shard's budget, so one giant answer
//! cannot wipe a shard for a miss that may never repeat.
//!
//! **Counters.** Hits, misses, insertions, admission rejections, and
//! evictions are engine-lifetime atomics surfaced via
//! [`ResultCache::stats`] (→ `Engine::cache_stats`), so load tests report
//! cache behavior directly instead of inferring it from per-execution
//! `Report::result_cache_hit` flags.

use crate::exec::ResultRows;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cache key: `(generalized plan fingerprint, catalog version, bind
/// values)`. A parameterized statement has one fingerprint across all of
/// its bindings; the bound values (bit patterns, in slot order) are what
/// keep one binding's rows from serving another's. Non-parameterized
/// queries carry an empty value vector.
pub(crate) type ResultKey = (u64, u64, Vec<u64>);

/// Total budget: 64 MiB of cached result rows.
pub(crate) const BUDGET_BYTES: usize = 64 << 20;

/// Shard count: enough to make same-lock collisions of unrelated
/// queries rare at realistic session counts, small enough that the
/// per-shard budget (total/8) still admits multi-megabyte results.
pub(crate) const DEFAULT_SHARDS: usize = 8;

/// Heap bytes a result occupies in the cache (rows dominate; the type
/// vector and map entry are a fixed small overhead).
pub(crate) fn entry_bytes(rows: &ResultRows) -> usize {
    rows.rows.len() * 8 + rows.tys.len() + 64
}

/// Point-in-time result-cache counters (`Engine::cache_stats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Results currently cached.
    pub entries: usize,
    /// Bytes currently pinned by cached results.
    pub bytes_used: usize,
    /// Total byte budget across all shards.
    pub budget_bytes: usize,
    /// Number of mutexed shards.
    pub shards: usize,
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    /// Results refused at admission (over the per-entry ceiling).
    pub admission_rejections: u64,
    /// Entries displaced by the size-weighted LRU to stay under budget.
    pub evictions: u64,
}

struct Entry {
    rows: ResultRows,
    bytes: usize,
    last_used: u64,
}

impl Entry {
    /// Size-weighted eviction score (lower evicts first): recency plus a
    /// small-size grace. The grace is capped at 8 ticks, so a tiny entry
    /// can outlive the plain LRU order only briefly, while entries above
    /// ~1/128 of the shard budget get no grace at all and are evicted in
    /// pure recency order.
    fn score(&self, budget: usize) -> u64 {
        let grace = (budget as u64 / (self.bytes as u64 * 128 + 1)).min(8);
        self.last_used + grace
    }
}

#[derive(Default)]
struct Shard {
    used: usize,
    tick: u64,
    map: HashMap<ResultKey, Entry>,
}

impl Shard {
    /// Evict until under `budget`; returns how many entries were displaced.
    fn evict_to_budget(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.used > budget && !self.map.is_empty() {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.score(budget))
                .map(|(k, _)| k.clone())
                .expect("non-empty over-budget shard");
            if let Some(e) = self.map.remove(&victim) {
                self.used -= e.bytes;
                evicted += 1;
            }
        }
        evicted
    }
}

/// A sharded, byte-budgeted, size-weighted-LRU cache of query results,
/// owned by the `Engine`.
pub(crate) struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total / shard count).
    shard_budget: usize,
    /// The catalog version of the last [`retain_version`] purge. An
    /// execution pinned to an older epoch can try to insert its result
    /// *after* the mutation that obsoleted it already purged — the
    /// insert/purge race the epoch design opens where the old
    /// catalog-wide lock closed it by blocking the mutation. Refusing
    /// keys below this floor keeps eager invalidation airtight: no
    /// stale-version entry can enter the cache once its purge ran.
    ///
    /// [`retain_version`]: ResultCache::retain_version
    min_version: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    admission_rejections: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    pub fn new() -> ResultCache {
        ResultCache::with_shards(BUDGET_BYTES, DEFAULT_SHARDS)
    }

    fn with_shards(budget_bytes: usize, shards: usize) -> ResultCache {
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: budget_bytes / shards,
            min_version: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            admission_rejections: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &ResultKey) -> &Mutex<Shard> {
        // The fingerprint is an FNV-1a hash — already well mixed; fold the
        // high half in so shard choice uses all 64 bits.
        let idx = ((key.0 ^ (key.0 >> 32)) as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// Whether a result of `bytes` would be admitted at all — callers
    /// check *before* cloning the rows; [`put`](ResultCache::put) is the
    /// backstop (which refuses silently, so the two never double-count a
    /// rejection). The per-entry ceiling is a quarter of the shard budget.
    pub fn admits(&self, bytes: usize) -> bool {
        let ok = bytes <= self.shard_budget / 4;
        if !ok {
            self.admission_rejections.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Look up a result, marking the entry most-recently-used on a hit.
    pub fn get(&self, key: &ResultKey) -> Option<ResultRows> {
        let mut g = self.shard_of(key).lock();
        g.tick += 1;
        let tick = g.tick;
        match g.map.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                let rows = e.rows.clone();
                drop(g);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(rows)
            }
            None => {
                drop(g);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a result, evicting by size-weighted LRU until its shard is
    /// back under budget. Over-ceiling results (see
    /// [`admits`](ResultCache::admits)) are refused.
    pub fn put(&self, key: ResultKey, rows: ResultRows) {
        let bytes = entry_bytes(&rows);
        let mut g = self.shard_of(&key).lock();
        // The floor is checked *under* the shard lock: a purge that ran
        // between an early check and this insert would otherwise let a
        // straggler from an already-purged epoch slip in (the purge holds
        // every shard lock after bumping the floor, so acquiring the lock
        // here orders this load after its `fetch_max`).
        if key.1 < self.min_version.load(Ordering::Acquire) {
            return;
        }
        if bytes > self.shard_budget / 4 {
            return;
        }
        g.tick += 1;
        let tick = g.tick;
        if let Some(old) = g.map.insert(key, Entry { rows, bytes, last_used: tick }) {
            g.used -= old.bytes;
        }
        g.used += bytes;
        let evicted = g.evict_to_budget(self.shard_budget);
        drop(g);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Drop every entry that was not produced at `version` — called after
    /// a catalog mutation, when the stale keys can never be requested
    /// again.
    pub fn retain_version(&self, version: u64) {
        self.min_version.fetch_max(version, Ordering::AcqRel);
        for shard in &self.shards {
            let mut g = shard.lock();
            let mut freed = 0usize;
            g.map.retain(|k, e| {
                let keep = k.1 == version;
                if !keep {
                    freed += e.bytes;
                }
                keep
            });
            g.used -= freed;
        }
    }

    /// Aggregate counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes_used) = (0, 0);
        for shard in &self.shards {
            let g = shard.lock();
            entries += g.map.len();
            bytes_used += g.used;
        }
        CacheStats {
            entries,
            bytes_used,
            budget_bytes: self.shard_budget * self.shards.len(),
            shards: self.shards.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            admission_rejections: self.admission_rejections.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FieldTy;

    fn rows_of(v: u64, n: usize) -> ResultRows {
        ResultRows { tys: vec![FieldTy::I64], rows: vec![v; n] }
    }

    /// Unbound key (no bind values), as for a query without parameters.
    fn key(fingerprint: u64, version: u64) -> ResultKey {
        (fingerprint, version, Vec::new())
    }

    /// Policy tests (LRU order, size weighting, budget accounting) pin a
    /// single shard so victim selection is deterministic across keys; the
    /// sharded tests below cover the multi-shard surface.
    fn single_shard(budget: usize) -> ResultCache {
        ResultCache::with_shards(budget, 1)
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // Budget fits four of the five same-sized entries (each under the
        // quarter-budget admission ceiling).
        let one = entry_bytes(&rows_of(0, 1000));
        let c = single_shard(4 * one + one / 2);
        for k in 1..=4 {
            c.put(key(k, 0), rows_of(k, 1000));
        }
        assert!(c.get(&key(1, 0)).is_some()); // touch 1 → 2 is now coldest
        c.put(key(5, 0), rows_of(5, 1000));
        assert_eq!(c.stats().entries, 4);
        assert!(c.get(&key(2, 0)).is_none(), "LRU entry must be evicted");
        for k in [1, 3, 4, 5] {
            assert!(c.get(&key(k, 0)).is_some(), "entry {k} must survive");
        }
    }

    #[test]
    fn size_weight_prefers_evicting_the_large_entry() {
        // A tiny entry older than a large one: when space is needed the
        // large entry goes first (the tiny one is within its recency
        // grace), even though pure LRU would evict the tiny one.
        let c = single_shard(100_000);
        c.put(key(1, 0), rows_of(1, 1)); // tiny, oldest
        c.put(key(2, 0), rows_of(2, 3000)); // large, newer
        for k in 3..=6 {
            c.put(key(k, 0), rows_of(k, 3000)); // fill until over budget
        }
        assert!(c.get(&key(1, 0)).is_some(), "tiny old entry survives (grace)");
        assert!(c.get(&key(2, 0)).is_none(), "large entry is the size-weighted victim");
        for k in 3..=6 {
            assert!(c.get(&key(k, 0)).is_some(), "entry {k} must survive");
        }
    }

    #[test]
    fn bytes_are_accounted_across_replace_and_retain() {
        let c = single_shard(1 << 20);
        c.put(key(1, 0), rows_of(1, 100));
        c.put(key(1, 0), rows_of(1, 200)); // replace: old bytes released
        assert_eq!(c.stats().bytes_used, entry_bytes(&rows_of(1, 200)));
        c.put(key(2, 1), rows_of(2, 50));
        c.retain_version(1);
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().bytes_used, entry_bytes(&rows_of(2, 50)));
    }

    #[test]
    fn version_mismatch_is_a_miss_and_retain_purges() {
        let c = single_shard(1 << 20);
        c.put(key(7, 0), rows_of(7, 1));
        assert!(c.get(&key(7, 1)).is_none(), "newer catalog version must miss");
        c.retain_version(1);
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().bytes_used, 0);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let c = ResultCache::with_shards(0, DEFAULT_SHARDS);
        assert!(!c.admits(8));
        c.put(key(1, 0), rows_of(1, 1));
        assert!(c.get(&key(1, 0)).is_none());
    }

    #[test]
    fn oversized_results_are_refused() {
        let c = single_shard(4096);
        assert!(!c.admits(2048), "over a quarter of the budget");
        c.put(key(1, 0), rows_of(0, 1000)); // ~8 KB > 1 KB ceiling
        assert_eq!(c.stats().entries, 0, "an over-ceiling result must not be admitted");
    }

    #[test]
    fn stale_version_inserts_are_refused_after_a_purge() {
        // The insert/purge race: an execution pinned to an old epoch
        // finishes after the mutation already purged that epoch's
        // entries. Its late insert must bounce off the version floor.
        let c = single_shard(1 << 20);
        c.retain_version(5);
        c.put(key(1, 4), rows_of(1, 10));
        assert_eq!(c.stats().entries, 0, "a straggler from a purged epoch must be refused");
        c.put(key(1, 5), rows_of(1, 10));
        assert_eq!(c.stats().entries, 1, "current-version inserts are unaffected");
    }

    #[test]
    fn bind_values_separate_entries_under_one_fingerprint() {
        let c = single_shard(1 << 20);
        c.put((7, 0, vec![10]), rows_of(1, 4));
        c.put((7, 0, vec![11]), rows_of(2, 4));
        c.put((7, 0, vec![10, 20]), rows_of(3, 4));
        assert_eq!(c.stats().entries, 3, "distinct bindings must not alias");
        assert_eq!(c.get(&(7, 0, vec![10])).unwrap().rows, vec![1; 4]);
        assert_eq!(c.get(&(7, 0, vec![11])).unwrap().rows, vec![2; 4]);
        assert_eq!(c.get(&(7, 0, vec![10, 20])).unwrap().rows, vec![3; 4]);
        assert!(c.get(&key(7, 0)).is_none(), "unbound key is yet another identity");
        // A version purge drops every binding of the fingerprint at once.
        c.retain_version(1);
        assert_eq!(c.stats().entries, 0, "catalog mutation invalidates all bindings");
    }

    #[test]
    fn sharded_cache_spreads_entries_and_sums_occupancy() {
        let c = ResultCache::with_shards(1 << 20, DEFAULT_SHARDS);
        for k in 0..64u64 {
            // Spread fingerprints across the hash space the way FNV would.
            c.put(key(k.wrapping_mul(0x9e3779b97f4a7c15), 0), rows_of(k, 10));
        }
        assert_eq!(c.stats().entries, 64);
        assert_eq!(c.stats().bytes_used, 64 * entry_bytes(&rows_of(0, 10)));
        for k in 0..64u64 {
            assert!(c.get(&key(k.wrapping_mul(0x9e3779b97f4a7c15), 0)).is_some());
        }
        // Retain purges across every shard.
        c.retain_version(1);
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().bytes_used, 0);
    }

    #[test]
    fn stats_count_hits_misses_insertions_and_rejections() {
        let c = single_shard(100_000);
        assert!(c.get(&key(1, 0)).is_none());
        c.put(key(1, 0), rows_of(1, 10));
        assert!(c.get(&key(1, 0)).is_some());
        assert!(!c.admits(usize::MAX), "over-ceiling probe");
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.insertions, 1);
        assert_eq!(s.admission_rejections, 1);
        assert_eq!(s.shards, 1);
        assert_eq!(s.budget_bytes, 100_000);
        assert_eq!(s.bytes_used, entry_bytes(&rows_of(1, 10)));
    }

    #[test]
    fn evictions_are_counted() {
        // Budget fits four entries (each under the quarter-budget
        // admission ceiling); six insertions force two evictions.
        let one = entry_bytes(&rows_of(0, 1000));
        let c = single_shard(4 * one + 1);
        for k in 0..6 {
            c.put(key(k, 0), rows_of(k, 1000));
        }
        let s = c.stats();
        assert_eq!(s.entries, 4);
        assert_eq!(s.evictions, 2);
    }
}
