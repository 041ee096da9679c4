//! The measured region: a closed loop from one generator thread, every
//! operation checked against the oracle, and the end-to-end metrics taken
//! from its samples.

use crate::gen::{percentile_clear_of_classes, Class};
use crate::oracle::{fingerprint, Expected, Fingerprint};
use crate::probe::Rows;
use crate::stats;
use crate::trace::Trace;
use crate::workloads::Instance;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// Blocks the measured region is cut into (at least, where it has the
/// rounds; see [`Samples::end_to_end`]).
pub const BLOCKS: usize = 40;
/// A block holds at least this many operations, so that its 95th
/// percentile has five samples beyond it.
pub const MIN_BLOCK_OPS: usize = 100;
/// The reported figure is this percentile of the blocks' latencies.
pub const BEST_DECILE: f64 = 10.0;
/// Minimum distance, in percentile points, between a reported percentile
/// and a boundary between latency classes.
pub const CLASS_MARGIN: f64 = 10.0;

/// The expected fingerprint of every (statement, binding) of a workload.
pub struct ExpectedTable(Vec<Vec<Fingerprint>>);

impl ExpectedTable {
    pub fn new(inst: &dyn Instance, expected: &Expected) -> Result<ExpectedTable, String> {
        inst.statements()
            .iter()
            .map(|s| match s.domain {
                None => Ok(vec![expected.get(&s.name, None)?]),
                Some(n) => (0..n).map(|d| expected.get(&s.name, Some(d))).collect(),
            })
            .collect::<Result<_, _>>()
            .map(ExpectedTable)
    }

    fn get(&self, stmt: u32, value: Option<u32>) -> Fingerprint {
        self.0[stmt as usize][value.unwrap_or(0) as usize]
    }
}

/// One operation of a measured region.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    /// Statement in → rows out; meaningless when `!ok`.
    pub latency_ms: f64,
    pub group: u32,
    pub class: Class,
    /// Admission queue wait the server reported (served requests).
    pub queue_wait_us: Option<u64>,
    /// Completion time in s since the region began.
    pub end_s: f64,
    /// Rows came back (their content is checked separately).
    pub ok: bool,
}

#[derive(Default)]
pub struct Samples {
    /// Every operation attempted, in completion order.
    pub ops: Vec<OpSample>,
    /// Operations per round of the workload.
    pub round: usize,
    pub failed: u64,
    pub first_failure: Option<String>,
}

/// Rows of one operation held back for the fingerprint check.
struct Kept {
    op: usize,
    stmt: u32,
    value: Option<u32>,
    rows: Rows,
}

/// Run `rounds` rounds of operations: a fixed operation count, so every
/// statement of a round-robin workload has the same number of samples and
/// a slower build runs longer instead of doing less. Row counts are
/// checked on every operation; the rows of the first and the last round
/// are kept and fingerprinted after the loop, outside the timed span.
pub fn run(
    inst: &mut dyn Instance,
    rounds: usize,
    expected: &ExpectedTable,
    mut trace: Option<&mut Trace>,
) -> Samples {
    let round = inst.round();
    let mut s = Samples { round, ..Samples::default() };
    let mut failed: BTreeSet<usize> = BTreeSet::new();
    let mut first: Vec<Kept> = Vec::with_capacity(round);
    let mut last: VecDeque<Kept> = VecDeque::with_capacity(round + 1);
    let start = Instant::now();
    for _ in 0..rounds * round {
        let done = inst.step(trace.as_deref_mut());
        let op = s.ops.len();
        s.ops.push(OpSample {
            latency_ms: done.latency_ns as f64 / 1e6,
            group: done.group,
            class: done.class,
            queue_wait_us: done.queue_wait_us,
            end_s: start.elapsed().as_secs_f64(),
            ok: done.rows.is_ok(),
        });
        match done.rows {
            Ok(rows) => {
                let want = expected.get(done.stmt, done.value);
                if rows.row_count() as u64 != want.rows {
                    failed.insert(op);
                    s.first_failure.get_or_insert_with(|| {
                        format!(
                            "operation {op} (statement {}): {} rows, expected {}",
                            done.stmt,
                            rows.row_count(),
                            want.rows
                        )
                    });
                }
                let kept = Kept { op, stmt: done.stmt, value: done.value, rows };
                if first.len() < round {
                    first.push(kept);
                } else {
                    last.push_back(kept);
                    if last.len() > round {
                        last.pop_front();
                    }
                }
            }
            Err(e) => {
                failed.insert(op);
                s.first_failure.get_or_insert_with(|| format!("operation {op}: {e}"));
            }
        }
    }
    inst.settle();
    for k in first.iter().chain(&last) {
        let got = fingerprint(&k.rows);
        let want = expected.get(k.stmt, k.value);
        if got != want {
            failed.insert(k.op);
            s.first_failure.get_or_insert_with(|| {
                format!(
                    "operation {} (statement {}, value {:?}): fingerprint {:016x}/{} rows, \
                     expected {:016x}/{}",
                    k.op, k.stmt, k.value, got.hash, got.rows, want.hash, want.rows
                )
            });
        }
    }
    s.failed = failed.len() as u64;
    s
}

/// One row of the per-statement table.
pub struct GroupRow {
    pub name: String,
    pub samples: usize,
    /// Median over the whole region.
    pub p50_ms: f64,
}

/// The four timing figures of a stretch of operations: one block, or the
/// whole region.
#[derive(Clone, Copy, Debug)]
pub struct Figures {
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Geometric mean over statements of the statement's median.
    pub geomean_ms: f64,
    pub per_s: f64,
}

impl Figures {
    /// Of `ops`, which took `seconds` of wall time; `None` if none of
    /// them succeeded.
    fn of(ops: &[OpSample], groups: usize, seconds: f64) -> Option<Figures> {
        let mut pooled: Vec<f64> = Vec::with_capacity(ops.len());
        let mut per_group: Vec<Vec<f64>> = vec![Vec::new(); groups];
        for o in ops.iter().filter(|o| o.ok) {
            pooled.push(o.latency_ms);
            per_group[o.group as usize].push(o.latency_ms);
        }
        if pooled.is_empty() {
            return None;
        }
        stats::sort(&mut pooled);
        let medians: Vec<f64> =
            per_group.iter().filter(|v| !v.is_empty()).map(|v| stats::median(v)).collect();
        Some(Figures {
            p50_ms: stats::percentile(&pooled, 50.0),
            p95_ms: stats::percentile(&pooled, 95.0),
            geomean_ms: stats::geomean(&medians),
            per_s: ops.len() as f64 / seconds,
        })
    }
}

pub struct EndToEnd {
    /// The reported figures: the best-decile block's.
    pub best_decile: Figures,
    /// The same four over the blocks' medians and pooled over the whole
    /// region, printed for comparison.
    pub median_block: Figures,
    pub pooled: Figures,
    pub blocks: Vec<Figures>,
    pub groups: Vec<GroupRow>,
    /// Realised class shares, in ascending order of latency by design.
    pub classes: Vec<(Class, f64)>,
}

impl Samples {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Operations that returned rows.
    pub fn ok(&self) -> impl Iterator<Item = &OpSample> {
        self.ops.iter().filter(|o| o.ok)
    }

    /// Append the samples of a later region (completion times are kept
    /// per region and are not comparable across them).
    pub fn absorb(&mut self, other: Samples) {
        self.ops.extend(other.ops);
        self.round = other.round;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }

    /// Median latency per statement (per class on `served-mix`), of those
    /// that succeeded at least once.
    pub fn group_medians(&self) -> BTreeMap<u32, f64> {
        let mut per_group: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for o in self.ok() {
            per_group.entry(o.group).or_default().push(o.latency_ms);
        }
        per_group.into_iter().map(|(g, v)| (g, stats::median(&v))).collect()
    }

    /// The region cut into blocks of whole rounds, every block the same
    /// number of operations: [`BLOCKS`] of them, or more where a round
    /// already holds [`MIN_BLOCK_OPS`], or fewer where the region has too
    /// few rounds for that many blocks of [`MIN_BLOCK_OPS`]. A remainder of
    /// rounds at the end is left out; a region shorter than one block is
    /// one block.
    fn blocks(&self, groups: usize) -> Result<Vec<Figures>, String> {
        let round = self.round.max(1);
        let rounds = self.ops.len() / round;
        let per_block =
            (rounds / BLOCKS).max(MIN_BLOCK_OPS.div_ceil(round)).clamp(1, rounds.max(1));
        let mut blocks = Vec::new();
        let mut began = 0.0;
        for ops in self.ops.chunks_exact(per_block * round) {
            let ended = ops[ops.len() - 1].end_s;
            blocks.push(
                Figures::of(ops, groups, ended - began)
                    .ok_or("a block without a successful operation")?,
            );
            began = ended;
        }
        Ok(blocks)
    }

    /// The end-to-end figures, or why the samples cannot carry them.
    ///
    /// Each is taken per block and the **best-decile block** is reported
    /// (the 10th percentile of the blocks' latencies, the 90th of their
    /// rates). The host slows down in episodes that last from seconds to a
    /// minute and cost 15–40 %; they only ever slow a block down. A
    /// regression in the engine is there in every block and moves the best
    /// decile as it moves the rest; an episode moves the pooled figures by
    /// its share of the region, the median block once it covers half of
    /// it, and the best-decile block only when it covers nine tenths.
    pub fn end_to_end(&self, group_names: &[String]) -> Result<EndToEnd, String> {
        let blocks = self.blocks(group_names.len())?;
        let Some(last) = self.ops.last() else {
            return Err("no operation was measured".to_string());
        };
        let pooled = Figures::of(&self.ops, group_names.len(), last.end_s)
            .ok_or("no operation succeeded")?;
        let mut per_group: Vec<Vec<f64>> = vec![Vec::new(); group_names.len()];
        for o in self.ok() {
            per_group[o.group as usize].push(o.latency_ms);
        }
        let groups: Vec<GroupRow> = group_names
            .iter()
            .zip(&per_group)
            .filter(|(_, v)| !v.is_empty())
            .map(|(name, v)| GroupRow {
                name: name.clone(),
                samples: v.len(),
                p50_ms: stats::median(v),
            })
            .collect();

        let classes = self.class_shares();
        let shares: Vec<f64> = classes.iter().map(|&(_, share)| share).collect();
        for p in [50.0, 95.0] {
            if let Err(boundary) = percentile_clear_of_classes(&shares, p, CLASS_MARGIN) {
                return Err(format!(
                    "p{p} lies within {CLASS_MARGIN} points of the class boundary at \
                     {boundary:.1} % (shares {classes:?})"
                ));
            }
        }
        let across = |f: fn(&Figures) -> f64, p: f64| {
            let mut v: Vec<f64> = blocks.iter().map(f).collect();
            stats::sort(&mut v);
            stats::percentile(&v, p)
        };
        // Latencies at percentile `p` of the blocks, the rate at its mirror.
        let at = |p: f64| Figures {
            p50_ms: across(|b| b.p50_ms, p),
            p95_ms: across(|b| b.p95_ms, p),
            geomean_ms: across(|b| b.geomean_ms, p),
            per_s: across(|b| b.per_s, 100.0 - p),
        };
        Ok(EndToEnd {
            best_decile: at(BEST_DECILE),
            median_block: at(50.0),
            pooled,
            blocks,
            groups,
            classes,
        })
    }

    /// Share of each class, in the order the classes are declared in —
    /// the order of their latencies by design (hit < warm < cold, tiny <
    /// scan), not as measured, so the check does not depend on timing.
    fn class_shares(&self) -> Vec<(Class, f64)> {
        let mut counts: Vec<(Class, usize)> = Vec::new();
        for o in self.ok() {
            match counts.iter_mut().find(|(k, _)| *k == o.class) {
                Some((_, n)) => *n += 1,
                None => counts.push((o.class, 1)),
            }
        }
        let total: usize = counts.iter().map(|&(_, n)| n).sum();
        counts.sort_by_key(|&(c, _)| c as u8);
        counts.into_iter().map(|(c, n)| (c, n as f64 / total as f64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rounds` rounds of ten operations, a millisecond apart: `tiny` of
    /// the ten are tiny, the rest scans; the rounds in `slow` run at a
    /// third of the speed.
    fn samples(rounds: usize, tiny: usize, slow: std::ops::Range<usize>) -> Samples {
        let mut s = Samples { round: 10, ..Samples::default() };
        let mut now = 0.0;
        for r in 0..rounds {
            let factor = if slow.contains(&r) { 3.0 } else { 1.0 };
            for i in 0..10 {
                let class = if i < tiny { Class::Tiny } else { Class::Scan };
                let ms = if class == Class::Tiny { 0.1 } else { 3.0 };
                now += 0.001 * factor;
                s.ops.push(OpSample {
                    latency_ms: ms * factor,
                    group: u32::from(class == Class::Scan),
                    class,
                    queue_wait_us: None,
                    end_s: now,
                    ok: true,
                });
            }
        }
        s
    }

    fn names() -> Vec<String> {
        vec!["tiny".to_string(), "scan".to_string()]
    }

    #[test]
    fn a_70_30_mix_reports_one_percentile_per_class() {
        let e = samples(800, 7, 0..0).end_to_end(&names()).unwrap();
        assert_eq!(e.blocks.len(), 40, "800 rounds make 40 blocks of 20");
        let r = e.best_decile;
        assert!((r.p50_ms - 0.1).abs() < 1e-9 && (r.p95_ms - 3.0).abs() < 1e-9);
        assert_eq!(e.classes[0].0, Class::Tiny);
        assert!((r.geomean_ms - (0.1f64 * 3.0).sqrt()).abs() < 1e-9);
        assert!((r.per_s - 1000.0).abs() < 1e-6);
        assert!((e.pooled.p50_ms - 0.1).abs() < 1e-9 && (e.pooled.per_s - 1000.0).abs() < 1e-6);
        assert_eq!(e.groups.len(), 2);
    }

    #[test]
    fn an_episode_moves_pooled_then_median_block_but_not_the_best_decile() {
        // 24 of 40 blocks run three times slower.
        let e = samples(800, 7, 80..560).end_to_end(&names()).unwrap();
        let r = e.best_decile;
        assert!((r.p50_ms - 0.1).abs() < 1e-9, "{}", r.p50_ms);
        assert!((r.p95_ms - 3.0).abs() < 1e-9);
        assert!((r.per_s - 1000.0).abs() < 1e-6);
        assert!((e.median_block.p50_ms - 0.3).abs() < 1e-9);
        assert!((e.median_block.per_s - 1000.0 / 3.0).abs() < 1e-6);
        assert!(e.pooled.p50_ms > 0.29 && e.pooled.per_s < 500.0);
        // The whole-region statement medians move too: they are the rows
        // printed for information, not the reported metrics.
        assert!((e.groups[0].p50_ms - 0.3).abs() < 1e-9);
    }

    #[test]
    fn a_slowdown_in_every_block_moves_the_best_decile_in_full() {
        // What a regression in the engine looks like: every round slower.
        let e = samples(800, 7, 0..800).end_to_end(&names()).unwrap();
        let r = e.best_decile;
        assert!((r.p50_ms - 0.3).abs() < 1e-9 && (r.p95_ms - 9.0).abs() < 1e-9);
        assert!((r.per_s - 1000.0 / 3.0).abs() < 1e-6);
        // A stall on one operation in 15, spread over the region, is in
        // every block's tail: p95 moves, the median does not.
        let mut s = samples(800, 7, 0..0);
        for o in s.ops.iter_mut().step_by(15) {
            o.latency_ms += 50.0;
        }
        let r = s.end_to_end(&names()).unwrap().best_decile;
        assert!(r.p95_ms > 50.0 && (r.p50_ms - 0.1).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn blocks_are_whole_rounds_and_a_remainder_is_left_out() {
        let blocks = |rounds| samples(rounds, 7, 0..0).end_to_end(&names()).unwrap().blocks.len();
        // 890 rounds: blocks of 22 rounds, 40 of them, ten rounds left out.
        assert_eq!(blocks(890), 40);
        // 70 rounds of 10: a block needs 10 rounds to hold 100 operations.
        assert_eq!(blocks(70), 7);
        // Shorter than one block: the region is the block.
        assert_eq!(blocks(3), 1);
    }

    #[test]
    fn a_mix_with_the_median_on_a_class_edge_is_refused() {
        let err = samples(800, 5, 0..0).end_to_end(&names()).err().unwrap();
        assert!(err.contains("p50"), "{err}");
    }

    #[test]
    fn failed_operations_are_counted_not_sampled() {
        let mut s = samples(800, 7, 0..0);
        s.ops[5].ok = false;
        s.ops[5].latency_ms = 0.0;
        let e = s.end_to_end(&names()).unwrap();
        assert_eq!(s.attempted(), 8000);
        assert_eq!(e.groups.iter().map(|g| g.samples).sum::<usize>(), 7999);
        assert!(e.best_decile.p50_ms > 0.09);
    }
}
