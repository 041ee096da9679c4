//! Query runtime: join hash tables, aggregation hash tables, output and
//! materialisation buffers, and the runtime functions generated code calls
//! (§IV-E: "we can call existing C++ code from both generated machine code
//! and from our VM" — here the "C++ runtime" is this module).
//!
//! Threading model (morsel-driven, §III-A):
//! * join builds append rows to *thread-local* buffers; the pipeline-end
//!   finalize step builds an immutable chained hash table that probes read
//!   lock-free;
//! * aggregations run in *thread-local* tables (no atomics on the hot
//!   accumulate path); the finalize step merges them;
//! * output/materialisation buffers are thread-local and concatenated.
//!
//! Generated code stages a row in the worker context's row buffer, then
//! makes one runtime call — except probes and accumulator updates, which are
//! fully inlined by the code generator.

use crate::plan::{AggFunc, SortKey};
use aqe_vm::interp::ExecError;

/// FNV-1a over 64-bit lanes with a final avalanche; the code generator emits
/// exactly this sequence, so host-built tables and generated probes agree.
#[inline]
pub fn hash_keys(keys: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &k in keys {
        h = (h ^ k).wrapping_mul(0x100_0000_01b3);
    }
    h ^ (h >> 32)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

// ---------------------------------------------------------------------------
// Join hash table
// ---------------------------------------------------------------------------

/// An immutable chained hash table built once per join (two-phase build).
/// Entry layout in the arena: `[next_addr, key0.., payload0..]`. Generated
/// code probes it through `buckets` and `mask`.
pub struct JoinHt {
    pub buckets: Vec<u64>,
    /// The arena the bucket chains point into; never read by name, but it
    /// must live as long as the table.
    _entries: Vec<u64>,
    pub mask: u64,
}

impl JoinHt {
    /// Build from concatenated thread-local row buffers (each row is
    /// `nkeys + payload` u64s).
    pub fn build(nkeys: usize, payload: usize, thread_rows: &[Vec<u64>]) -> JoinHt {
        let width = nkeys + payload;
        let stride = width + 1; // + next pointer
        let rows: usize =
            if width == 0 { 0 } else { thread_rows.iter().map(|b| b.len() / width).sum() };
        let nbuckets = (rows * 2).next_power_of_two().max(8);
        let mut buckets = vec![0u64; nbuckets];
        let mask = (nbuckets - 1) as u64;
        let mut entries = vec![0u64; rows * stride];
        let base = entries.as_ptr() as u64;
        let mut e = 0usize;
        for buf in thread_rows {
            for row in buf.chunks_exact(width) {
                let addr = base + (e * stride * 8) as u64;
                let h = hash_keys(&row[..nkeys]);
                let b = (h & mask) as usize;
                entries[e * stride] = buckets[b];
                entries[e * stride + 1..e * stride + 1 + width].copy_from_slice(row);
                buckets[b] = addr;
                e += 1;
            }
        }
        JoinHt { buckets, _entries: entries, mask }
    }
}

// ---------------------------------------------------------------------------
// Aggregation hash table (thread-local)
// ---------------------------------------------------------------------------

/// The raw header generated code reads on every tuple; `rt_agg_insert`
/// updates it on rehash. Field order is load-bearing (codegen offsets).
#[repr(C)]
pub struct AggHeader {
    pub buckets_ptr: u64,
    pub mask: u64,
    /// Pre-created single group for key-less aggregations.
    pub group0: u64,
}

const AGG_CHUNK_ROWS: usize = 1024;

/// A thread-local aggregation table. Entries live in chunked arenas so their
/// addresses stay stable across growth; layout `[next, keys.., accs..]`.
pub struct AggTable {
    pub header: Box<AggHeader>,
    buckets: Vec<u64>,
    chunks: Vec<Vec<u64>>,
    pub nkeys: usize,
    pub stride: usize,
    pub count: usize,
    init: Vec<u64>,
}

impl AggTable {
    pub fn new(nkeys: usize, aggs: &[AggFunc]) -> AggTable {
        let stride = 1 + nkeys + aggs.len();
        let nbuckets = 64usize;
        let buckets = vec![0u64; nbuckets];
        let mut t = AggTable {
            header: Box::new(AggHeader { buckets_ptr: 0, mask: (nbuckets - 1) as u64, group0: 0 }),
            buckets,
            chunks: vec![Vec::with_capacity(AGG_CHUNK_ROWS * stride)],
            nkeys,
            stride,
            count: 0,
            init: aggs.iter().map(|a| a.init_bits()).collect(),
        };
        t.header.buckets_ptr = t.buckets.as_ptr() as u64;
        if nkeys == 0 {
            let g = t.alloc_entry(&[]);
            t.header.group0 = g;
        }
        t
    }

    fn alloc_entry(&mut self, keys: &[u64]) -> u64 {
        let stride = self.stride;
        if self.chunks.last().unwrap().len() + stride > AGG_CHUNK_ROWS * stride {
            self.chunks.push(Vec::with_capacity(AGG_CHUNK_ROWS * stride));
        }
        let chunk = self.chunks.last_mut().unwrap();
        let at = chunk.len();
        chunk.push(0); // next
        chunk.extend_from_slice(keys);
        chunk.extend_from_slice(&self.init);
        debug_assert_eq!(chunk.len(), at + stride);
        self.count += 1;
        unsafe { chunk.as_ptr().add(at) as u64 }
    }

    /// Insert a new group for `keys` with `hash` and return its entry
    /// address. Called from generated code only after an inline probe
    /// missed.
    pub fn insert(&mut self, keys: &[u64], hash: u64) -> u64 {
        if (self.count + 1) * 10 > self.buckets.len() * 7 {
            self.grow();
        }
        let addr = self.alloc_entry(keys);
        let b = (hash & self.header.mask) as usize;
        unsafe { *(addr as *mut u64) = self.buckets[b] };
        self.buckets[b] = addr;
        addr
    }

    fn grow(&mut self) {
        let nbuckets = self.buckets.len() * 2;
        let mut buckets = vec![0u64; nbuckets];
        let mask = (nbuckets - 1) as u64;
        for chunk in &self.chunks {
            for e in (0..chunk.len()).step_by(self.stride) {
                let addr = unsafe { chunk.as_ptr().add(e) as u64 };
                let keys = &chunk[e + 1..e + 1 + self.nkeys];
                let b = (hash_keys(keys) & mask) as usize;
                unsafe { *(addr as *mut u64) = buckets[b] };
                buckets[b] = addr;
            }
        }
        self.buckets = buckets;
        self.header.buckets_ptr = self.buckets.as_ptr() as u64;
        self.header.mask = mask;
    }

    /// Iterate group rows as `[keys.., accs..]` slices.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.chunks.iter().flat_map(move |c| c.chunks_exact(self.stride).map(move |e| &e[1..]))
    }
}

/// Merge thread-local aggregation tables into dense result rows
/// `[keys.., accs..]` (the source of the post-aggregation scan pipeline).
pub fn merge_agg_tables(
    tables: &[AggTable],
    nkeys: usize,
    aggs: &[AggFunc],
) -> Result<Vec<u64>, ExecError> {
    use std::collections::HashMap;
    let width = nkeys + aggs.len();
    let mut merged: HashMap<Vec<u64>, Vec<u64>> = HashMap::new();
    for t in tables {
        debug_assert_eq!(t.nkeys, nkeys);
        for row in t.rows() {
            let (keys, accs) = row.split_at(nkeys);
            match merged.get_mut(keys) {
                None => {
                    merged.insert(keys.to_vec(), accs.to_vec());
                }
                Some(m) => {
                    for (i, a) in aggs.iter().enumerate() {
                        m[i] = merge_acc(a, m[i], accs[i])?;
                    }
                }
            }
        }
    }
    // For key-less aggregations an empty input still yields one row (the
    // initial accumulators) — tables pre-create group0, so merged is
    // non-empty already.
    let mut rows = Vec::with_capacity(merged.len() * width);
    for (k, accs) in merged {
        rows.extend_from_slice(&k);
        rows.extend_from_slice(&accs);
    }
    Ok(rows)
}

fn merge_acc(f: &AggFunc, a: u64, b: u64) -> Result<u64, ExecError> {
    Ok(match f {
        AggFunc::SumI | AggFunc::CountStar => {
            (a as i64).checked_add(b as i64).ok_or(ExecError::Overflow)? as u64
        }
        AggFunc::SumF => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
        AggFunc::MinI => (a as i64).min(b as i64) as u64,
        AggFunc::MaxI => (a as i64).max(b as i64) as u64,
        AggFunc::MinF => {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            (if y < x { y } else { x }).to_bits()
        }
        AggFunc::MaxF => {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            (if y > x { y } else { x }).to_bits()
        }
    })
}

// ---------------------------------------------------------------------------
// Sorting & output
// ---------------------------------------------------------------------------

/// Sort dense rows (width u64s each) by the given keys; truncate to `limit`.
pub fn sort_rows(rows: &mut Vec<u64>, width: usize, keys: &[SortKey], limit: Option<usize>) {
    if width == 0 {
        return;
    }
    let mut idx: Vec<usize> = (0..rows.len() / width).collect();
    idx.sort_by(|&x, &y| {
        for k in keys {
            let (a, b) = (rows[x * width + k.field], rows[y * width + k.field]);
            let ord = if k.float {
                f64::from_bits(a).total_cmp(&f64::from_bits(b))
            } else {
                (a as i64).cmp(&(b as i64))
            };
            let ord = if k.asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    if let Some(l) = limit {
        idx.truncate(l);
    }
    let mut out = Vec::with_capacity(idx.len() * width);
    for i in idx {
        out.extend_from_slice(&rows[i * width..(i + 1) * width]);
    }
    *rows = out;
}

// ---------------------------------------------------------------------------
// Worker context & runtime functions
// ---------------------------------------------------------------------------

/// Minimum number of u64 slots in the staging row buffer (the engine sizes
/// it to the widest row of the plan, with this floor).
pub const ROW_BUF_SLOTS: usize = 48;

/// Raw worker-context slot indices (codegen contract):
/// `[0]` = pointer to the Rust [`WorkerRt`], `[1]` = pointer to the row
/// buffer, `[2 + i]` = pointer to the [`AggHeader`] of aggregation `i`.
pub const WCTX_RT: usize = 0;
pub const WCTX_ROWBUF: usize = 1;
pub const WCTX_AGG_BASE: usize = 2;

/// Per-thread runtime state addressed from generated code.
pub struct WorkerRt {
    pub join_bufs: Vec<Vec<u64>>,
    pub agg_tables: Vec<AggTable>,
    pub mat_bufs: Vec<Vec<u64>>,
    pub out_buf: Vec<u64>,
    pub row_buf: Vec<u64>,
    /// Raw slot array handed to generated code as the `wctx` parameter.
    pub raw: Vec<u64>,
}

impl WorkerRt {
    /// A worker's runtime state; the row buffer holds `row_buf_slots`
    /// values, at least [`ROW_BUF_SLOTS`].
    pub fn new(
        njoins: usize,
        agg_shapes: &[(usize, Vec<AggFunc>)],
        nmats: usize,
        row_buf_slots: usize,
    ) -> Box<WorkerRt> {
        let mut w = Box::new(WorkerRt {
            join_bufs: vec![Vec::new(); njoins],
            agg_tables: agg_shapes.iter().map(|(nk, a)| AggTable::new(*nk, a)).collect(),
            mat_bufs: vec![Vec::new(); nmats],
            out_buf: Vec::new(),
            row_buf: vec![0; row_buf_slots.max(ROW_BUF_SLOTS)],
            raw: Vec::new(),
        });
        let mut raw = vec![0u64; WCTX_AGG_BASE + agg_shapes.len()];
        raw[WCTX_RT] = &*w as *const WorkerRt as u64;
        raw[WCTX_ROWBUF] = w.row_buf.as_ptr() as u64;
        for (i, t) in w.agg_tables.iter().enumerate() {
            raw[WCTX_AGG_BASE + i] = &*t.header as *const AggHeader as u64;
        }
        w.raw = raw;
        w
    }

    pub fn wctx_ptr(&mut self) -> u64 {
        self.raw.as_ptr() as u64
    }
}

#[inline]
unsafe fn worker_of(args: *const u64) -> &'static mut WorkerRt {
    unsafe {
        let wctx = *args as *const u64;
        &mut *(*wctx.add(WCTX_RT) as *mut WorkerRt)
    }
}

/// `rt_join_append(wctx, ht_idx, nfields)`: append the staged row to the
/// thread-local build buffer of join `ht_idx`.
///
/// # Safety
/// Part of the generated-code runtime ABI (`codegen::runtime_fns`):
/// `args` must point at the argument slots the translator staged for this
/// call (first slot a valid worker-context pointer) and `ret` at a writable
/// return slot — guarantees the validated bytecode upholds.
pub unsafe fn rt_join_append(args: *const u64, _ret: *mut u64) {
    unsafe {
        let w = worker_of(args);
        let ht = *args.add(1) as usize;
        let n = *args.add(2) as usize;
        let row = &w.row_buf[..n];
        w.join_bufs[ht].extend_from_slice(row);
    }
}

/// `rt_agg_insert(wctx, agg_idx, hash) -> entry_ptr`: insert a new group
/// with the staged keys.
///
/// # Safety
/// Part of the generated-code runtime ABI (`codegen::runtime_fns`):
/// `args` must point at the argument slots the translator staged for this
/// call (first slot a valid worker-context pointer) and `ret` at a writable
/// return slot — guarantees the validated bytecode upholds.
pub unsafe fn rt_agg_insert(args: *const u64, ret: *mut u64) {
    unsafe {
        let w = worker_of(args);
        let agg = *args.add(1) as usize;
        let hash = *args.add(2);
        let nkeys = w.agg_tables[agg].nkeys;
        let keys: Vec<u64> = w.row_buf[..nkeys].to_vec();
        let addr = w.agg_tables[agg].insert(&keys, hash);
        *ret = addr;
    }
}

/// `rt_mat_append(wctx, mat_idx, nfields)`.
///
/// # Safety
/// Part of the generated-code runtime ABI (`codegen::runtime_fns`):
/// `args` must point at the argument slots the translator staged for this
/// call (first slot a valid worker-context pointer) and `ret` at a writable
/// return slot — guarantees the validated bytecode upholds.
pub unsafe fn rt_mat_append(args: *const u64, _ret: *mut u64) {
    unsafe {
        let w = worker_of(args);
        let mat = *args.add(1) as usize;
        let n = *args.add(2) as usize;
        let row = &w.row_buf[..n];
        w.mat_bufs[mat].extend_from_slice(row);
    }
}

/// `rt_emit(wctx, nfields)`.
///
/// # Safety
/// Part of the generated-code runtime ABI (`codegen::runtime_fns`):
/// `args` must point at the argument slots the translator staged for this
/// call (first slot a valid worker-context pointer) and `ret` at a writable
/// return slot — guarantees the validated bytecode upholds.
pub unsafe fn rt_emit(args: *const u64, _ret: *mut u64) {
    unsafe {
        let w = worker_of(args);
        let n = *args.add(1) as usize;
        let row = &w.row_buf[..n];
        w.out_buf.extend_from_slice(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walk one bucket chain the way generated probe code does: the rows
    /// (`[keys.., payload..]`, `width` values each) whose keys equal `keys`.
    fn probe<'a>(ht: &'a JoinHt, width: usize, keys: &[u64]) -> Vec<&'a [u64]> {
        let mut out = Vec::new();
        let mut addr = ht.buckets[(hash_keys(keys) & ht.mask) as usize];
        while addr != 0 {
            // SAFETY: every chain address points at a `1 + width` entry of
            // the arena `ht` owns.
            let entry = unsafe { std::slice::from_raw_parts(addr as *const u64, 1 + width) };
            if &entry[1..1 + keys.len()] == keys {
                out.push(&entry[1..]);
            }
            addr = entry[0];
        }
        out
    }

    #[test]
    fn join_ht_build_and_probe() {
        // rows: key, payload
        let t0 = vec![1u64, 100, 2, 200, 1, 101];
        let t1 = vec![3u64, 300];
        let ht = JoinHt::build(1, 1, &[t0, t1]);
        let all: usize = [1, 2, 3].iter().map(|&k| probe(&ht, 2, &[k]).len()).sum();
        assert_eq!(all, 4, "every built row is reachable from its bucket");
        let m1 = probe(&ht, 2, &[1]);
        assert_eq!(m1.len(), 2);
        let payloads: Vec<u64> = m1.iter().map(|e| e[1]).collect();
        assert!(payloads.contains(&100) && payloads.contains(&101));
        assert_eq!(probe(&ht, 2, &[3]).len(), 1);
        assert!(probe(&ht, 2, &[99]).is_empty());
    }

    #[test]
    fn join_ht_multi_key() {
        let rows = vec![1u64, 2, 77, 1, 3, 88];
        let ht = JoinHt::build(2, 1, &[rows]);
        assert_eq!(probe(&ht, 3, &[1, 2])[0][2], 77);
        assert!(probe(&ht, 3, &[2, 1]).is_empty(), "key order matters");
    }

    #[test]
    fn agg_table_groups_and_grows() {
        let aggs = [AggFunc::SumI, AggFunc::CountStar];
        let mut t = AggTable::new(1, &aggs);
        // Insert 1000 distinct groups to force several rehashes.
        for k in 0..1000u64 {
            let h = hash_keys(&[k]);
            let addr = t.insert(&[k], h);
            unsafe {
                *(addr as *mut u64).add(2) = k * 2; // sum
                *(addr as *mut u64).add(3) = 1; // count
            }
        }
        assert_eq!(t.count, 1000);
        let rows = merge_agg_tables(&[t], 1, &aggs).unwrap();
        assert_eq!(rows.len(), 1000 * 3);
        // find group 7
        let g7 = rows.chunks_exact(3).find(|r| r[0] == 7).unwrap();
        assert_eq!(g7[1], 14);
        assert_eq!(g7[2], 1);
    }

    #[test]
    fn keyless_agg_has_group0() {
        let aggs = [AggFunc::SumI];
        let t = AggTable::new(0, &aggs);
        assert_ne!(t.header.group0, 0);
        let rows = merge_agg_tables(&[t], 0, &aggs).unwrap();
        assert_eq!(rows, vec![0]);
    }

    #[test]
    fn merge_combines_thread_tables() {
        let aggs = [AggFunc::SumI, AggFunc::MinI, AggFunc::MaxF];
        let mk = |k: u64, s: i64, mn: i64, mx: f64| {
            let mut t = AggTable::new(1, &aggs);
            let addr = t.insert(&[k], hash_keys(&[k]));
            unsafe {
                *(addr as *mut u64).add(2) = s as u64;
                *(addr as *mut u64).add(3) = mn as u64;
                *(addr as *mut u64).add(4) = mx.to_bits();
            }
            t
        };
        let rows = merge_agg_tables(&[mk(5, 10, -3, 1.5), mk(5, 32, 7, 9.5)], 1, &aggs).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], 5);
        assert_eq!(rows[1] as i64, 42);
        assert_eq!(rows[2] as i64, -3);
        assert_eq!(f64::from_bits(rows[3]), 9.5);
    }

    #[test]
    fn merge_detects_sum_overflow() {
        let aggs = [AggFunc::SumI];
        let mk = |s: i64| {
            let mut t = AggTable::new(1, &aggs);
            let addr = t.insert(&[1], hash_keys(&[1]));
            unsafe { *(addr as *mut u64).add(2) = s as u64 };
            t
        };
        let r = merge_agg_tables(&[mk(i64::MAX), mk(1)], 1, &aggs);
        assert_eq!(r.unwrap_err(), ExecError::Overflow);
    }

    #[test]
    fn sort_rows_multi_key() {
        // (a, b): sort a asc, b desc
        let mut rows = vec![2u64, 10, 1, 20, 2, 30, 1, 5];
        sort_rows(
            &mut rows,
            2,
            &[
                SortKey { field: 0, asc: true, float: false },
                SortKey { field: 1, asc: false, float: false },
            ],
            None,
        );
        assert_eq!(rows, vec![1, 20, 1, 5, 2, 30, 2, 10]);
    }

    #[test]
    fn sort_rows_float_desc_with_limit() {
        let mut rows: Vec<u64> = [3.5f64, 1.5, 9.0, -2.0].iter().map(|f| f.to_bits()).collect();
        sort_rows(&mut rows, 1, &[SortKey { field: 0, asc: false, float: true }], Some(2));
        let vals: Vec<f64> = rows.iter().map(|&b| f64::from_bits(b)).collect();
        assert_eq!(vals, vec![9.0, 3.5]);
    }

    #[test]
    fn worker_rt_layout() {
        let mut w = WorkerRt::new(2, &[(1, vec![AggFunc::SumI])], 1, 0);
        let ptr = w.wctx_ptr() as *const u64;
        unsafe {
            assert_eq!(*ptr.add(WCTX_RT), &*w as *const WorkerRt as u64);
            assert_eq!(*ptr.add(WCTX_ROWBUF), w.row_buf.as_ptr() as u64);
            assert_ne!(*ptr.add(WCTX_AGG_BASE), 0);
        }
    }

    #[test]
    fn rt_calls_append_rows() {
        let mut w = WorkerRt::new(1, &[], 0, 0);
        w.row_buf[0] = 11;
        w.row_buf[1] = 22;
        let args = [w.wctx_ptr(), 0, 2];
        unsafe { rt_join_append(args.as_ptr(), std::ptr::null_mut()) };
        assert_eq!(w.join_bufs[0], vec![11, 22]);

        w.row_buf[0] = 77;
        let args = [w.wctx_ptr(), 1];
        unsafe { rt_emit(args.as_ptr(), std::ptr::null_mut()) };
        assert_eq!(w.out_buf, vec![77]);
    }

    #[test]
    fn hash_is_stable_and_spreads() {
        assert_eq!(hash_keys(&[1, 2]), hash_keys(&[1, 2]));
        assert_ne!(hash_keys(&[1, 2]), hash_keys(&[2, 1]));
        // a crude spread check over sequential keys
        let mut buckets = [0u32; 16];
        for k in 0..16000u64 {
            buckets[(hash_keys(&[k]) & 15) as usize] += 1;
        }
        for b in buckets {
            assert!((500..=1500).contains(&b), "skewed bucket: {b}");
        }
    }
}
