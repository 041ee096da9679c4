//! The seeded workload generator: which statement runs next, with which
//! bind value. Deterministic in the seed and independent of the engine
//! (it never looks at a result), so the same seed replays the same
//! operation sequence on any commit.

/// SplitMix64: small, fast, and pinned here so a change to the
/// repository's own `rand` stand-in cannot move the workloads.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the bias of the multiply-shift is < 2⁻³² for
    /// the small `n` used here).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u32 + 1) as usize);
        }
    }
}

/// Zipf-distributed ranks `0..n` with exponent `s`, by inversion of the
/// cumulative weights.
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, s: f64) -> Zipf {
        let mut cum = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / f64::from(k).powf(s);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Zipf { cum }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        (self.cum.partition_point(|&c| c <= u) as u32).min(self.cum.len() as u32 - 1)
    }
}

/// Latency class of an operation, as the generator intends it. Shares of
/// a mix are checked on these labels (see [`percentile_clear_of_classes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// Fresh prepare + execute of one statement (the ad-hoc workloads).
    Adhoc,
    /// Re-draw of a (statement, value) pair used since the last mutation.
    Hit,
    /// Unseen value on a statement already executed in this epoch.
    Warm,
    /// First execution of a statement after a catalog mutation.
    Cold,
    /// Served point lookup or small aggregate, Zipf keys, sent while the
    /// other connection's request is tiny too.
    Tiny,
    /// The same request sent right behind the other connection's scan: on
    /// the single worker it waits in the admission queue for that scan.
    Queued,
    /// Served filter-aggregate with a value not sent before.
    Scan,
}

/// One generated operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Replace a table (new catalog epoch) before this operation.
    pub mutate: bool,
    /// Index into the workload's statement list.
    pub stmt: u32,
    /// Index into the statement's bind-value domain (0 if it has none).
    pub value: u32,
    /// Bound to a predicate no row fails, so that each binding is new to
    /// the result cache while the rows depend on `value` alone.
    pub salt: u32,
    pub class: Class,
}

/// `adhoc-*`: every statement once per round, order shuffled per round.
pub struct AdhocGen {
    rng: Rng,
    order: Vec<u32>,
    next: usize,
}

impl AdhocGen {
    pub fn new(seed: u64, statements: u32) -> AdhocGen {
        let order: Vec<u32> = (0..statements).collect();
        AdhocGen { rng: Rng::new(seed), next: order.len(), order }
    }

    pub fn round_len(&self) -> usize {
        self.order.len()
    }
}

impl Iterator for AdhocGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.next == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
        let stmt = self.order[self.next];
        self.next += 1;
        Some(Op { mutate: false, stmt, value: 0, salt: 0, class: Class::Adhoc })
    }
}

/// Operations between two catalog mutations of `bound-churn`.
pub const CHURN_EPOCH: usize = 32;
/// A hit re-draws one of this many most recent pairs.
const CHURN_RECENT: usize = 16;
const CHURN_HIT_SHARE: f64 = 0.20;

/// `bound-churn`: reuse, hit and invalidate on one set of prepared
/// statements.
pub struct ChurnGen {
    rng: Rng,
    /// Bind-value domain size of each statement.
    domains: Vec<u32>,
    /// (statement, value) pairs executed since the last mutation: exactly
    /// what the result cache can hold for the current catalog epoch.
    epoch: Vec<(u32, u32)>,
    count: usize,
}

impl ChurnGen {
    pub fn new(seed: u64, domains: Vec<u32>) -> ChurnGen {
        ChurnGen { rng: Rng::new(seed), domains, epoch: Vec::with_capacity(CHURN_EPOCH), count: 0 }
    }
}

impl Iterator for ChurnGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let mutate = self.count.is_multiple_of(CHURN_EPOCH);
        self.count += 1;
        if mutate {
            self.epoch.clear();
        }
        let want_hit = self.rng.unit() < CHURN_HIT_SHARE;
        if want_hit && !self.epoch.is_empty() {
            let recent = self.epoch.len().min(CHURN_RECENT);
            let (stmt, value) =
                self.epoch[self.epoch.len() - 1 - self.rng.below(recent as u32) as usize];
            return Some(Op { mutate, stmt, value, salt: 0, class: Class::Hit });
        }
        // An unseen pair: redraw on the rare collision within the epoch.
        let (stmt, value) = loop {
            let stmt = self.rng.below(self.domains.len() as u32);
            let pair = (stmt, self.rng.below(self.domains[stmt as usize]));
            if !self.epoch.contains(&pair) {
                break pair;
            }
        };
        let class =
            if self.epoch.iter().any(|&(s, _)| s == stmt) { Class::Warm } else { Class::Cold };
        self.epoch.push((stmt, value));
        Some(Op { mutate, stmt, value, salt: 0, class })
    }
}

/// Requests per round of `served-mix`, half of them on each connection.
pub const SERVED_ROUND: usize = 256;
/// Scans among the 128 requests the mixed connection sends per round.
const SERVED_SCANS_PER_ROUND: usize = 46;
const SERVED_ZIPF_S: f64 = 1.1;

/// `served-mix`: two connections served in turn by one worker. Requests
/// at even positions go to the connection that sends tiny requests only,
/// those at odd positions to the one that mixes tiny requests with scans
/// whose binding was never sent before: 46 of its 128 requests per round,
/// in shuffled places. Two scans are therefore never adjacent, and a
/// request's class is known from its own kind and its predecessor's: in
/// every round 18 % scans, 18 % tiny requests queued behind one, 64 %
/// tiny requests that find the worker free.
pub struct ServedGen {
    rng: Rng,
    /// Bind-value domain size of each tiny statement, then of each scan
    /// statement; statement indices run over the concatenation.
    tiny: Vec<(u32, Zipf)>,
    scan: Vec<(u32, u32)>,
    salt: u32,
    count: usize,
    /// Which of the mixed connection's requests of this round are scans.
    scans: Vec<bool>,
    after_scan: bool,
}

impl ServedGen {
    pub fn new(seed: u64, tiny_domains: &[u32], scan_domains: &[u32]) -> ServedGen {
        let tiny = tiny_domains
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u32, Zipf::new(n, SERVED_ZIPF_S)))
            .collect();
        let scan = scan_domains
            .iter()
            .enumerate()
            .map(|(i, &n)| ((tiny_domains.len() + i) as u32, n))
            .collect();
        // Salts start above every value of the salted columns.
        let scans = (0..SERVED_ROUND / 2).map(|i| i < SERVED_SCANS_PER_ROUND).collect();
        ServedGen {
            rng: Rng::new(seed),
            tiny,
            scan,
            salt: 1000,
            count: 0,
            scans,
            after_scan: false,
        }
    }

    /// The requests in flight were collected: the next one finds the
    /// worker free whatever came before it, and begins a round, so that
    /// every measured round has exactly the shares above.
    pub fn restart_round(&mut self) {
        self.after_scan = false;
        self.count = self.count.next_multiple_of(SERVED_ROUND);
    }
}

impl Iterator for ServedGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let at = self.count % SERVED_ROUND;
        self.count += 1;
        if at == 0 {
            self.rng.shuffle(&mut self.scans);
        }
        let after_scan = std::mem::replace(&mut self.after_scan, false);
        if at % 2 == 1 && self.scans[at / 2] {
            let (stmt, domain) = self.scan[self.rng.below(self.scan.len() as u32) as usize];
            self.salt += 1;
            self.after_scan = true;
            let value = self.rng.below(domain);
            return Some(Op { mutate: false, stmt, value, salt: self.salt, class: Class::Scan });
        }
        let (stmt, zipf) = &self.tiny[self.rng.below(self.tiny.len() as u32) as usize];
        let value = zipf.sample(&mut self.rng);
        let class = if after_scan { Class::Queued } else { Class::Tiny };
        Some(Op { mutate: false, stmt: *stmt, value, salt: 0, class })
    }
}

/// FNV-1a over the first `n` operations: the identity of a sequence.
#[cfg(test)]
pub fn sequence_hash(ops: impl Iterator<Item = Op>, n: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for op in ops.take(n) {
        for word in [
            u64::from(op.mutate),
            u64::from(op.stmt),
            u64::from(op.value),
            u64::from(op.salt),
            op.class as u64,
        ] {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The rule for every mix: a reported percentile must lie at least
/// `margin` points away from every boundary between latency classes, or a
/// small shift in the shares moves it from one class's distribution into
/// another's. `shares` are the realised class shares in ascending latency
/// order; returns the offending boundary.
pub fn percentile_clear_of_classes(
    shares: &[f64],
    percentile: f64,
    margin: f64,
) -> Result<(), f64> {
    let mut boundary = 0.0;
    for share in &shares[..shares.len().saturating_sub(1)] {
        boundary += share * 100.0;
        if (boundary - percentile).abs() < margin {
            return Err(boundary);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn churn(seed: u64) -> ChurnGen {
        ChurnGen::new(seed, vec![64; 8])
    }

    fn served(seed: u64) -> ServedGen {
        ServedGen::new(seed, &[64, 25, 25, 64], &[64, 64, 64])
    }

    #[test]
    fn same_seed_same_sequence_other_seed_another() {
        assert_eq!(
            sequence_hash(AdhocGen::new(1, 47), 500),
            sequence_hash(AdhocGen::new(1, 47), 500)
        );
        assert_ne!(
            sequence_hash(AdhocGen::new(1, 47), 500),
            sequence_hash(AdhocGen::new(2, 47), 500)
        );
        assert_eq!(sequence_hash(churn(5), 4000), sequence_hash(churn(5), 4000));
        assert_ne!(sequence_hash(churn(5), 4000), sequence_hash(churn(6), 4000));
        assert_eq!(sequence_hash(served(9), 4000), sequence_hash(served(9), 4000));
        assert_ne!(sequence_hash(served(9), 4000), sequence_hash(served(10), 4000));
    }

    #[test]
    fn adhoc_rounds_are_permutations() {
        let mut g = AdhocGen::new(3, 35);
        for _ in 0..4 {
            let mut seen: Vec<u32> = g.by_ref().take(35).map(|op| op.stmt).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..35).collect::<Vec<_>>());
        }
    }

    #[test]
    fn churn_labels_agree_with_what_a_cache_would_hold() {
        let mut cache: Vec<(u32, u32)> = Vec::new();
        let mut built: Vec<u32> = Vec::new();
        let mut counts: HashMap<Class, usize> = HashMap::new();
        let n = 6400;
        for (i, op) in churn(11).take(n).enumerate() {
            assert_eq!(op.mutate, i % CHURN_EPOCH == 0);
            if op.mutate {
                cache.clear();
                built.clear();
            }
            let pair = (op.stmt, op.value);
            let expect = if cache.contains(&pair) {
                Class::Hit
            } else if built.contains(&op.stmt) {
                Class::Warm
            } else {
                Class::Cold
            };
            assert_eq!(op.class, expect, "operation {i}");
            cache.push(pair);
            built.push(op.stmt);
            *counts.entry(op.class).or_default() += 1;
        }
        let share = |c| counts[&c] as f64 / n as f64;
        assert!((share(Class::Hit) - 0.19).abs() < 0.02, "hit {}", share(Class::Hit));
        assert!((share(Class::Cold) - 0.24).abs() < 0.02, "cold {}", share(Class::Cold));
        let shares = [share(Class::Hit), share(Class::Warm), share(Class::Cold)];
        assert_eq!(percentile_clear_of_classes(&shares, 50.0, 10.0), Ok(()));
        assert_eq!(percentile_clear_of_classes(&shares, 95.0, 10.0), Ok(()));
    }

    #[test]
    fn served_mix_shares_and_fresh_salts() {
        let n = 30_000;
        let ops: Vec<Op> = served(4).take(n).collect();
        let share = |c| ops.iter().filter(|o| o.class == c).count() as f64 / n as f64;
        assert!((share(Class::Scan) - 0.18).abs() < 0.001, "scan share {}", share(Class::Scan));
        // One queued request per scan (the last scan's may lie beyond `n`).
        assert!((share(Class::Queued) - share(Class::Scan)).abs() <= 1.0 / n as f64);
        let shares = [share(Class::Tiny), share(Class::Queued), share(Class::Scan)];
        assert_eq!(percentile_clear_of_classes(&shares, 50.0, 10.0), Ok(()));
        assert_eq!(percentile_clear_of_classes(&shares, 95.0, 10.0), Ok(()));
        for (i, pair) in ops.windows(2).enumerate() {
            let behind_scan = pair[0].class == Class::Scan;
            assert_eq!(pair[1].class == Class::Queued, behind_scan, "operation {}", i + 1);
            // Scans come from the mixed connection only: odd positions.
            assert!(pair[1].class != Class::Scan || i % 2 == 0);
        }
        let mut salts: Vec<u32> =
            ops.iter().filter(|o| o.class == Class::Scan).map(|o| o.salt).collect();
        let scans = salts.len();
        salts.dedup();
        assert_eq!(salts.len(), scans, "every scan binding is new");
        assert!(salts.iter().all(|&s| s > 1000));
        // Zipf(1.1): rank 0 is drawn far more often than rank 20.
        let rank = |r| ops.iter().filter(|o| o.class != Class::Scan && o.value == r).count();
        assert!(rank(0) > 8 * rank(20));
        assert!(ops.iter().all(|o| o.stmt < 7));
    }

    #[test]
    fn class_boundary_rule() {
        assert_eq!(percentile_clear_of_classes(&[0.7, 0.3], 50.0, 10.0), Ok(()));
        assert_eq!(percentile_clear_of_classes(&[0.7, 0.3], 95.0, 10.0), Ok(()));
        assert_eq!(percentile_clear_of_classes(&[0.64, 0.18, 0.18], 95.0, 10.0), Ok(()));
        assert_eq!(percentile_clear_of_classes(&[0.45, 0.55], 50.0, 10.0), Err(45.0));
        assert_eq!(percentile_clear_of_classes(&[0.2, 0.7, 0.1], 95.0, 10.0), Err(90.0));
        // One class: no boundary at all.
        assert_eq!(percentile_clear_of_classes(&[1.0], 50.0, 10.0), Ok(()));
    }
}
