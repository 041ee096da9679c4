//! Vectorized scan pre-filter: a property of a pipeline's scan, not a rung
//! of the backend ladder.
//!
//! A scan pipeline whose first operator is a filter of simple comparisons
//! (`col < const AND …`) spends most of its scalar time computing a
//! predicate that packed compares evaluate 4–8 rows at a time. This module
//! extracts such *conjuncts* from the physical plan ([`ScanKernel::extract`]);
//! the morsel loop (`exec::PipelineRun::run`) resolves the kernel against
//! the execution's parameter block once per pipeline run and hands every
//! claimed morsel to `ScanKernel::for_each_run`: the morsel is cut into
//! 64-row blocks, the kernel evaluates the conjuncts into a selection
//! bitmask (`u64`, bit *i* = row passes), and only the surviving row *runs*
//! reach the worker function — on whatever backend the pipeline's handle
//! holds at that moment (bytecode, unoptimized or optimized machine code).
//! `ExecMode::NaiveIr` is exempt: it is the oracle the differential suites
//! compare against and shares no code with what it checks.
//!
//! ## Correctness: the superset-mask contract
//!
//! The kernel's mask is a **superset filter**: every extracted conjunct is
//! a necessary condition of the full predicate, so a cleared bit proves
//! the row fails and can be skipped, while a set bit proves nothing — the
//! worker function re-evaluates the *complete* predicate on every row
//! it is given. This has two liberating consequences:
//!
//! * Extraction may skip any conjunct it cannot vectorize (`InList`,
//!   arithmetic, out-of-lane-range constants, `Or` trees) — the mask just
//!   gets denser, never wrong.
//! * Adjacent runs may be merged across small gaps (fewer, longer worker
//!   calls): including a failing row is harmless by the same argument.
//!
//! Consequently the only semantic requirement on the mask is *no false
//! negatives*, which each lane guarantees by replicating exactly the
//! scalar comparison the generated code performs after column widening
//! (`i32`/`Date` sign-extend, `Str` code zero-extend, `i64`/`Decimal`
//! direct, `f64` with Rust/IEEE NaN semantics — NaN fails every predicate
//! except `!=`).
//!
//! ## Tiers
//!
//! [`KernelTier`] picks the implementation at kernel construction:
//! AVX2 (8×i32 / 4×i64 / 4×f64 lanes) when the CPU reports it, SSE2
//! (4×i32 / 2×f64; SSE2 has no packed 64-bit signed compare, so `i64`
//! conjuncts evaluate scalar) as the x86-64 baseline, and a pure-Rust
//! scalar fallback everywhere else. All three produce bit-identical
//! masks — the unit tests construct each tier and compare.

use crate::plan::{CmpOp, FieldTy, PExpr, PipeOp, Pipeline, Source};
use aqe_storage::{CatalogSnapshot, DataType};

/// Which packed-compare implementation a kernel uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelTier {
    /// 256-bit: 8×i32, 4×i64, 4×f64 per compare.
    Avx2,
    /// 128-bit x86-64 baseline: 4×i32, 2×f64; i64 conjuncts run scalar.
    Sse2,
    /// Pure Rust, any target. Also the per-row tail path of the others.
    Scalar,
}

impl KernelTier {
    /// CPUID-detected best tier.
    /// The fallback ladder is AVX2 → SSE2 → scalar: SSE2 is architectural
    /// baseline on x86-64, so only non-x86 targets land on `Scalar`.
    pub fn detect() -> KernelTier {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                KernelTier::Avx2
            } else {
                KernelTier::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            KernelTier::Scalar
        }
    }
}

/// Physical element type of a column as the kernel compares it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Elem {
    /// 4-byte sign-extended (`Int32`, `Date`).
    I32,
    /// 4-byte zero-extended (`Str` dictionary codes).
    U32,
    /// 8-byte (`Int64`, `Decimal`).
    I64,
    /// 8-byte IEEE double.
    F64,
}

/// One vectorizable necessary condition: `column <op> constant`, with the
/// constant resolved to its lane-domain value. This is the *runtime* form
/// the packed compares consume; the retained skeleton keeps
/// [`ConjunctSpec`]s instead, so one kernel serves every parameter binding.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Conjunct {
    /// State slot holding the column's base pointer.
    slot: usize,
    elem: Elem,
    op: CmpOp,
    /// Comparison constant, in the lane domain (`rhs_f` for `F64`).
    rhs_i: i64,
    rhs_f: f64,
}

/// Comparison right-hand side as extracted from the plan: a baked constant
/// or a bind-parameter slot whose value arrives per execution through the
/// plan's param block.
#[derive(Clone, Copy, Debug)]
enum Rhs {
    ConstI(i64),
    ConstF(f64),
    /// `params[idx]` read as `i64`.
    ParamI(usize),
    /// `params[idx]` read as an `f64` bit pattern.
    ParamF(usize),
}

/// A retained conjunct skeleton. Baked constants are lane-domain checked at
/// extraction; parameter slots are checked at [`ScanKernel::resolve`] time,
/// per binding — a value outside the lane domain just drops the conjunct
/// for that binding (sound under the superset-mask contract).
#[derive(Clone, Copy, Debug)]
struct ConjunctSpec {
    slot: usize,
    elem: Elem,
    op: CmpOp,
    rhs: Rhs,
}

/// Mask-block width: one `u64` of selection bits per evaluation.
const BLOCK: u64 = 64;

/// Runs separated by at most this many failing rows are merged into one
/// worker call — sound under the superset contract, and it trades a few
/// scalar re-evaluations for far fewer per-call frame setups.
const MERGE_GAP: u64 = 16;

/// A compiled filter pre-pass for one scan pipeline: which columns to
/// compare against which constants (or parameter slots), and at which
/// [`KernelTier`]. The kernel itself is binding-independent — it is
/// retained with the prepared query's compiled state and resolved against
/// the execution's parameter block once per pipeline run.
pub struct ScanKernel {
    specs: Vec<ConjunctSpec>,
    /// State slot holding the parameter-block pointer (`plan.param_slot`);
    /// `None` when every conjunct is a baked constant.
    param_slot: Option<usize>,
    tier: KernelTier,
}

impl std::fmt::Debug for ScanKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanKernel")
            .field("conjuncts", &self.specs.len())
            .field("tier", &self.tier)
            .finish()
    }
}

/// Flip an operator for `const <op> col` → `col <op'> const`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

impl ScanKernel {
    /// Extract a kernel from a pipeline: a table scan whose first operator
    /// is a filter with at least one vectorizable top-level conjunct.
    /// Returns `None` when a pre-filter cannot help (non-scan source, no
    /// filter, or no comparison the lanes can express). `param_slot` is the
    /// plan's parameter-block slot; comparisons against `PExpr::Param` are
    /// extracted as parameter conjuncts resolved per binding.
    pub fn extract(
        p: &Pipeline,
        cat: &CatalogSnapshot,
        param_slot: Option<usize>,
    ) -> Option<ScanKernel> {
        let Source::Table { table, cols, slot_base, .. } = &p.source else { return None };
        let Some(PipeOp::Filter(pred)) = p.ops.first() else { return None };
        let t = cat.get(table)?;

        // Top-level And tree → necessary conditions. Anything below an Or
        // or Not is not individually necessary and is left to the scalar
        // re-evaluation.
        let mut leaves = Vec::new();
        let mut stack = vec![pred];
        while let Some(e) = stack.pop() {
            match e {
                PExpr::And(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                other => leaves.push(other),
            }
        }

        let mut specs = Vec::new();
        for leaf in leaves {
            let PExpr::Cmp { op, float, a, b } = leaf else { continue };
            let (k, op, rhs) = match (&**a, &**b) {
                (PExpr::Col(k), PExpr::ConstI(v)) if !float => (*k, *op, Rhs::ConstI(*v)),
                (PExpr::ConstI(v), PExpr::Col(k)) if !float => (*k, flip(*op), Rhs::ConstI(*v)),
                (PExpr::Col(k), PExpr::ConstF(v)) if *float => (*k, *op, Rhs::ConstF(*v)),
                (PExpr::ConstF(v), PExpr::Col(k)) if *float => (*k, flip(*op), Rhs::ConstF(*v)),
                (PExpr::Col(k), PExpr::Param { idx, ty: FieldTy::I64 }) if !float => {
                    (*k, *op, Rhs::ParamI(*idx))
                }
                (PExpr::Param { idx, ty: FieldTy::I64 }, PExpr::Col(k)) if !float => {
                    (*k, flip(*op), Rhs::ParamI(*idx))
                }
                (PExpr::Col(k), PExpr::Param { idx, ty: FieldTy::F64 }) if *float => {
                    (*k, *op, Rhs::ParamF(*idx))
                }
                (PExpr::Param { idx, ty: FieldTy::F64 }, PExpr::Col(k)) if *float => {
                    (*k, flip(*op), Rhs::ParamF(*idx))
                }
                _ => continue,
            };
            if k >= cols.len() {
                continue;
            }
            // A parameter's value is unknown until binding: its lane-domain
            // check happens at resolve time.
            let (ci, is_param) = match rhs {
                Rhs::ConstI(v) => (v, false),
                Rhs::ConstF(_) => (0, false),
                Rhs::ParamI(_) | Rhs::ParamF(_) => (0, true),
            };
            // The lane domain must hold the constant exactly, or the
            // packed compare would see a different value than the widened
            // scalar compare. Out-of-range constants are simply skipped —
            // such a conjunct is constant-true or constant-false anyway.
            let elem = match t.column_type(cols[k]) {
                DataType::Int32 | DataType::Date => {
                    if *float || (!is_param && i32::try_from(ci).is_err()) {
                        continue;
                    }
                    Elem::I32
                }
                DataType::Str => {
                    if *float || (!is_param && !(0..=u32::MAX as i64).contains(&ci)) {
                        continue;
                    }
                    Elem::U32
                }
                DataType::Int64 | DataType::Decimal => {
                    if *float {
                        continue;
                    }
                    Elem::I64
                }
                DataType::Float64 => {
                    if !*float {
                        continue;
                    }
                    Elem::F64
                }
                DataType::Bool => continue,
            };
            specs.push(ConjunctSpec { slot: slot_base + k, elem, op, rhs });
        }
        if specs.is_empty() {
            return None;
        }
        let uses_params = specs.iter().any(|s| matches!(s.rhs, Rhs::ParamI(_) | Rhs::ParamF(_)));
        if uses_params && param_slot.is_none() {
            return None;
        }
        Some(ScanKernel {
            specs,
            param_slot: if uses_params { param_slot } else { None },
            tier: KernelTier::detect(),
        })
    }

    /// The tier this kernel evaluates with.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// Number of vectorized conjuncts (before per-binding resolution).
    pub fn conjunct_count(&self) -> usize {
        self.specs.len()
    }

    /// Resolve the retained skeleton against the current execution's
    /// parameter block (read from the worker state), producing the runtime
    /// conjuncts for this binding. A parameter value outside its lane
    /// domain drops that conjunct — the mask gets denser, never wrong.
    ///
    /// # Safety
    /// When the kernel has parameter conjuncts, `state[param_slot]` must
    /// hold a valid pointer to the execution's parameter block, with every
    /// referenced index in bounds (guaranteed by `run_pipelines`' arity
    /// check against `plan.params`).
    pub(crate) unsafe fn resolve(&self, state: *const u64) -> Vec<Conjunct> {
        let block = self.param_slot.map(|s| unsafe { *state.add(s) } as *const u64);
        let mut out = Vec::with_capacity(self.specs.len());
        for s in &self.specs {
            let (rhs_i, rhs_f) = match s.rhs {
                Rhs::ConstI(v) => (v, 0.0),
                Rhs::ConstF(v) => (0, v),
                Rhs::ParamI(idx) => {
                    let Some(b) = block else { continue };
                    (unsafe { *b.add(idx) } as i64, 0.0)
                }
                Rhs::ParamF(idx) => {
                    let Some(b) = block else { continue };
                    (0, f64::from_bits(unsafe { *b.add(idx) }))
                }
            };
            // Per-binding lane-domain check (mirrors the extraction-time
            // check for baked constants).
            let in_domain = match s.elem {
                Elem::I32 => i32::try_from(rhs_i).is_ok(),
                Elem::U32 => (0..=u32::MAX as i64).contains(&rhs_i),
                Elem::I64 | Elem::F64 => true,
            };
            if in_domain {
                out.push(Conjunct { slot: s.slot, elem: s.elem, op: s.op, rhs_i, rhs_f });
            }
        }
        out
    }

    /// Evaluate the selection mask for rows `[row, row + n)` (`n ≤ 64`);
    /// bit `i` set ⇔ row `row + i` passes every conjunct. `state` is the
    /// worker-ABI state array holding the column base pointers.
    ///
    /// # Safety
    /// The slots named by the conjuncts must hold valid base pointers of
    /// columns with at least `row + n` elements of the declared type.
    unsafe fn mask(
        conjuncts: &[Conjunct],
        tier: KernelTier,
        state: *const u64,
        row: u64,
        n: u64,
    ) -> u64 {
        debug_assert!((1..=BLOCK).contains(&n));
        let mut m = if n == BLOCK { !0u64 } else { (1u64 << n) - 1 };
        for c in conjuncts {
            if m == 0 {
                break;
            }
            let base = unsafe { *state.add(c.slot) } as *const u8;
            let cm = if n == BLOCK {
                match tier {
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx2 => unsafe { avx2::conjunct_mask(c, base, row) },
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Sse2 => unsafe { sse2::conjunct_mask(c, base, row) },
                    #[cfg(not(target_arch = "x86_64"))]
                    KernelTier::Avx2 | KernelTier::Sse2 => unsafe { scalar_mask(c, base, row, n) },
                    KernelTier::Scalar => unsafe { scalar_mask(c, base, row, n) },
                }
            } else {
                unsafe { scalar_mask(c, base, row, n) }
            };
            m &= cm;
        }
        m
    }

    /// The pre-filter over one morsel: evaluate `conjuncts` (this kernel,
    /// [`resolve`](Self::resolve)d for the current execution) over
    /// `[begin, end)` block by block and call `run(b, e)` once per
    /// surviving row run, in order. Returns the rows proved failing.
    ///
    /// # Safety
    /// The slots named by the conjuncts must hold valid base pointers of
    /// columns with at least `end` elements of the declared type — the
    /// contract the worker function itself loads under.
    pub(crate) unsafe fn for_each_run<E>(
        &self,
        conjuncts: &[Conjunct],
        state: *const u64,
        begin: u64,
        end: u64,
        run: impl FnMut(u64, u64) -> Result<(), E>,
    ) -> Result<u64, E> {
        cut_runs(
            begin,
            end,
            |row, n| unsafe { ScanKernel::mask(conjuncts, self.tier, state, row, n) },
            run,
        )
    }
}

/// Scalar evaluation of one conjunct over up to 64 rows — the `Scalar`
/// tier and every tier's partial-block tail. Replicates the generated
/// code's widen-then-compare exactly.
///
/// # Safety
/// `base` must point at `row + n` valid elements of `c.elem`'s type.
unsafe fn scalar_mask(c: &Conjunct, base: *const u8, row: u64, n: u64) -> u64 {
    let mut m = 0u64;
    for i in 0..n {
        let r = (row + i) as usize;
        let pass = match c.elem {
            Elem::I32 => {
                let v = unsafe { (base as *const i32).add(r).read_unaligned() } as i64;
                cmp_i(c.op, v, c.rhs_i)
            }
            Elem::U32 => {
                let v = unsafe { (base as *const u32).add(r).read_unaligned() } as i64;
                cmp_i(c.op, v, c.rhs_i)
            }
            Elem::I64 => {
                let v = unsafe { (base as *const i64).add(r).read_unaligned() };
                cmp_i(c.op, v, c.rhs_i)
            }
            Elem::F64 => {
                let v = unsafe { (base as *const f64).add(r).read_unaligned() };
                cmp_f(c.op, v, c.rhs_f)
            }
        };
        m |= (pass as u64) << i;
    }
    m
}

fn cmp_i(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// Rust float comparison semantics: NaN fails everything but `!=`.
fn cmp_f(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    //! 128-bit tier. SSE2 is x86-64 baseline, so no runtime feature gate
    //! is needed — only the pointer-validity contract is unsafe here.
    use super::{scalar_mask, CmpOp, Conjunct, Elem};
    use std::arch::x86_64::*;

    /// Full 64-row block of one conjunct.
    ///
    /// # Safety
    /// `base` must point at `row + 64` valid elements of `c.elem`'s type.
    pub(super) unsafe fn conjunct_mask(c: &Conjunct, base: *const u8, row: u64) -> u64 {
        unsafe {
            match c.elem {
                // No `pcmpgtq` in SSE2: evaluate i64 conjuncts scalar so
                // the mask stays bit-identical with the AVX2 tier.
                Elem::I64 => scalar_mask(c, base, row, 64),
                Elem::I32 => mask32(c, base, row, i32_bias(0)),
                // Unsigned order via sign-bit bias: `a <u b` ⇔
                // `(a ^ MIN) <s (b ^ MIN)`.
                Elem::U32 => mask32(c, base, row, i32_bias(i32::MIN)),
                Elem::F64 => mask_f64(c, base, row),
            }
        }
    }

    fn i32_bias(b: i32) -> i32 {
        b
    }

    unsafe fn mask32(c: &Conjunct, base: *const u8, row: u64, bias: i32) -> u64 {
        unsafe {
            let bias_v = _mm_set1_epi32(bias);
            let rhs = _mm_xor_si128(_mm_set1_epi32(c.rhs_i as i32), bias_v);
            let mut m = 0u64;
            let p = (base as *const i32).add(row as usize);
            for chunk in 0..16 {
                let v = _mm_loadu_si128(p.add(chunk * 4) as *const __m128i);
                let v = _mm_xor_si128(v, bias_v);
                let hit = match c.op {
                    CmpOp::Eq => _mm_cmpeq_epi32(v, rhs),
                    CmpOp::Ne => not128(_mm_cmpeq_epi32(v, rhs)),
                    CmpOp::Lt => _mm_cmplt_epi32(v, rhs),
                    CmpOp::Le => not128(_mm_cmpgt_epi32(v, rhs)),
                    CmpOp::Gt => _mm_cmpgt_epi32(v, rhs),
                    CmpOp::Ge => not128(_mm_cmplt_epi32(v, rhs)),
                };
                let bits = _mm_movemask_ps(_mm_castsi128_ps(hit)) as u64;
                m |= bits << (chunk * 4);
            }
            m
        }
    }

    unsafe fn not128(v: __m128i) -> __m128i {
        unsafe { _mm_xor_si128(v, _mm_set1_epi32(-1)) }
    }

    unsafe fn mask_f64(c: &Conjunct, base: *const u8, row: u64) -> u64 {
        unsafe {
            let rhs = _mm_set1_pd(c.rhs_f);
            let mut m = 0u64;
            let p = (base as *const f64).add(row as usize);
            for chunk in 0..32 {
                let v = _mm_loadu_pd(p.add(chunk * 2));
                // Ordered compares (NaN → false) except `cmpneq`, which is
                // unordered-true — exactly Rust's `!=`.
                let hit = match c.op {
                    CmpOp::Eq => _mm_cmpeq_pd(v, rhs),
                    CmpOp::Ne => _mm_cmpneq_pd(v, rhs),
                    CmpOp::Lt => _mm_cmplt_pd(v, rhs),
                    CmpOp::Le => _mm_cmple_pd(v, rhs),
                    CmpOp::Gt => _mm_cmpgt_pd(v, rhs),
                    CmpOp::Ge => _mm_cmpge_pd(v, rhs),
                };
                let bits = _mm_movemask_pd(hit) as u64;
                m |= bits << (chunk * 2);
            }
            m
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! 256-bit tier, called only when CPUID reported AVX2.
    use super::{CmpOp, Conjunct, Elem};
    use std::arch::x86_64::*;

    /// Full 64-row block of one conjunct.
    ///
    /// # Safety
    /// `base` must point at `row + 64` valid elements of `c.elem`'s type,
    /// and the CPU must support AVX2.
    pub(super) unsafe fn conjunct_mask(c: &Conjunct, base: *const u8, row: u64) -> u64 {
        unsafe {
            match c.elem {
                Elem::I32 => mask32(c, base, row, 0),
                Elem::U32 => mask32(c, base, row, i32::MIN),
                Elem::I64 => mask64(c, base, row),
                Elem::F64 => mask_f64(c, base, row),
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn mask32(c: &Conjunct, base: *const u8, row: u64, bias: i32) -> u64 {
        unsafe {
            let bias_v = _mm256_set1_epi32(bias);
            let rhs = _mm256_xor_si256(_mm256_set1_epi32(c.rhs_i as i32), bias_v);
            let mut m = 0u64;
            let p = (base as *const i32).add(row as usize);
            for chunk in 0..8 {
                let v = _mm256_loadu_si256(p.add(chunk * 8) as *const __m256i);
                let v = _mm256_xor_si256(v, bias_v);
                let hit = match c.op {
                    CmpOp::Eq => _mm256_cmpeq_epi32(v, rhs),
                    CmpOp::Ne => not256(_mm256_cmpeq_epi32(v, rhs)),
                    CmpOp::Lt => _mm256_cmpgt_epi32(rhs, v),
                    CmpOp::Le => not256(_mm256_cmpgt_epi32(v, rhs)),
                    CmpOp::Gt => _mm256_cmpgt_epi32(v, rhs),
                    CmpOp::Ge => not256(_mm256_cmpgt_epi32(rhs, v)),
                };
                let bits = _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32 as u64;
                m |= bits << (chunk * 8);
            }
            m
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn mask64(c: &Conjunct, base: *const u8, row: u64) -> u64 {
        unsafe {
            let rhs = _mm256_set1_epi64x(c.rhs_i);
            let mut m = 0u64;
            let p = (base as *const i64).add(row as usize);
            for chunk in 0..16 {
                let v = _mm256_loadu_si256(p.add(chunk * 4) as *const __m256i);
                let hit = match c.op {
                    CmpOp::Eq => _mm256_cmpeq_epi64(v, rhs),
                    CmpOp::Ne => not256(_mm256_cmpeq_epi64(v, rhs)),
                    CmpOp::Lt => _mm256_cmpgt_epi64(rhs, v),
                    CmpOp::Le => not256(_mm256_cmpgt_epi64(v, rhs)),
                    CmpOp::Gt => _mm256_cmpgt_epi64(v, rhs),
                    CmpOp::Ge => not256(_mm256_cmpgt_epi64(rhs, v)),
                };
                let bits = _mm256_movemask_pd(_mm256_castsi256_pd(hit)) as u32 as u64;
                m |= bits << (chunk * 4);
            }
            m
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn mask_f64(c: &Conjunct, base: *const u8, row: u64) -> u64 {
        unsafe {
            let rhs = _mm256_set1_pd(c.rhs_f);
            let mut m = 0u64;
            let p = (base as *const f64).add(row as usize);
            for chunk in 0..16 {
                let v = _mm256_loadu_pd(p.add(chunk * 4));
                // Ordered (NaN-false) predicates; `Ne` is unordered-true.
                let hit = match c.op {
                    CmpOp::Eq => _mm256_cmp_pd::<_CMP_EQ_OQ>(v, rhs),
                    CmpOp::Ne => _mm256_cmp_pd::<_CMP_NEQ_UQ>(v, rhs),
                    CmpOp::Lt => _mm256_cmp_pd::<_CMP_LT_OS>(v, rhs),
                    CmpOp::Le => _mm256_cmp_pd::<_CMP_LE_OS>(v, rhs),
                    CmpOp::Gt => _mm256_cmp_pd::<_CMP_GT_OS>(v, rhs),
                    CmpOp::Ge => _mm256_cmp_pd::<_CMP_GE_OS>(v, rhs),
                };
                let bits = _mm256_movemask_pd(hit) as u32 as u64;
                m |= bits << (chunk * 4);
            }
            m
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn not256(v: __m256i) -> __m256i {
        _mm256_xor_si256(v, _mm256_set1_epi32(-1))
    }
}

/// Cut `[begin, end)` into the row runs whose selection bits are set and
/// hand each to `run`, in row order. `mask_of(row, n)` is the selection
/// mask of rows `[row, row + n)` (`n ≤ 64`, no bit at or above `n`).
/// Returns the number of cleared bits: the rows the masks proved failing.
fn cut_runs<E>(
    begin: u64,
    end: u64,
    mut mask_of: impl FnMut(u64, u64) -> u64,
    mut run: impl FnMut(u64, u64) -> Result<(), E>,
) -> Result<u64, E> {
    let mut skipped = 0;
    // Pending merged run of (maybe-)passing rows, [start, end).
    let mut pend: Option<(u64, u64)> = None;
    let mut row = begin;
    while row < end {
        let n = (end - row).min(BLOCK);
        let mut m = mask_of(row, n);
        skipped += n - u64::from(m.count_ones());
        while m != 0 {
            let t = m.trailing_zeros() as u64;
            let ones = (!(m >> t)).trailing_zeros() as u64;
            let (s, e) = (row + t, row + t + ones);
            match pend {
                Some((ps, pe)) if s - pe <= MERGE_GAP => pend = Some((ps, e)),
                Some((ps, pe)) => {
                    run(ps, pe)?;
                    pend = Some((s, e));
                }
                None => pend = Some((s, e)),
            }
            if t + ones >= 64 {
                break;
            }
            m &= !0u64 << (t + ones);
        }
        row += n;
    }
    if let Some((ps, pe)) = pend {
        run(ps, pe)?;
    }
    Ok(skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conj(elem: Elem, op: CmpOp, rhs_i: i64, rhs_f: f64) -> Conjunct {
        Conjunct { slot: 0, elem, op, rhs_i, rhs_f }
    }

    /// Evaluate one conjunct over `len` rows with every tier and assert
    /// the masks are bit-identical, returning the scalar one.
    fn masks_agree(c: Conjunct, base: *const u8, len: u64) -> Vec<u64> {
        let state = [base as u64];
        let tiers = if cfg!(target_arch = "x86_64") {
            vec![KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2]
        } else {
            vec![KernelTier::Scalar]
        };
        let mut out = Vec::new();
        let mut row = 0;
        while row < len {
            let n = (len - row).min(64);
            let per: Vec<u64> = tiers
                .iter()
                .filter(|&&t| t != KernelTier::Avx2 || KernelTier::detect() == KernelTier::Avx2)
                .map(|&t| unsafe { ScanKernel::mask(&[c], t, state.as_ptr(), row, n) })
                .collect();
            for w in per.windows(2) {
                assert_eq!(w[0], w[1], "tiers disagree at row {row}");
            }
            out.push(per[0]);
            row += n;
        }
        out
    }

    #[test]
    fn i32_masks_identical_across_tiers_with_boundary_constants() {
        let data: Vec<i32> =
            (0..200).map(|i| if i % 7 == 0 { i32::MIN } else { i - 100 }).collect();
        for rhs in [i64::from(i32::MIN), -50, 0, 63, i64::from(i32::MAX)] {
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                let ms =
                    masks_agree(conj(Elem::I32, op, rhs, 0.0), data.as_ptr() as *const u8, 200);
                // Cross-check against the plain scalar definition.
                for (b, m) in ms.iter().enumerate() {
                    for i in 0..64u64 {
                        let r = b as u64 * 64 + i;
                        if r >= 200 {
                            break;
                        }
                        let expect = cmp_i(op, data[r as usize] as i64, rhs);
                        assert_eq!((m >> i) & 1 == 1, expect, "op {op:?} rhs {rhs} row {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn u32_zero_extension_matches_widened_compare() {
        // Codes near the unsigned boundary: as zero-extended i64 they are
        // all positive, so `u32::MAX` must compare *greater* than 1.
        let data: Vec<u32> = [0, 1, u32::MAX, 0x8000_0000, 7, 42, 3, 9].repeat(16);
        for rhs in [0i64, 1, 7, i64::from(u32::MAX)] {
            for op in [CmpOp::Lt, CmpOp::Ge, CmpOp::Eq] {
                let ms = masks_agree(
                    conj(Elem::U32, op, rhs, 0.0),
                    data.as_ptr() as *const u8,
                    data.len() as u64,
                );
                for i in 0..64u64 {
                    let expect = cmp_i(op, data[i as usize] as i64, rhs);
                    assert_eq!((ms[0] >> i) & 1 == 1, expect, "op {op:?} rhs {rhs} lane {i}");
                }
            }
        }
    }

    #[test]
    fn i64_and_f64_masks_identical_across_tiers() {
        let di: Vec<i64> = (0..128).map(|i| (i - 64) * ((i % 5) + 1)).collect();
        for rhs in [i64::MIN, -3, 0, 100, i64::MAX] {
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
                masks_agree(conj(Elem::I64, op, rhs, 0.0), di.as_ptr() as *const u8, 128);
            }
        }
        // Floats with NaN lanes: NaN must fail everything except `!=`.
        let df: Vec<f64> =
            (0..128).map(|i| if i % 9 == 0 { f64::NAN } else { (i - 64) as f64 * 0.5 }).collect();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let ms = masks_agree(conj(Elem::F64, op, 0, 1.0), df.as_ptr() as *const u8, 128);
            for i in 0..64u64 {
                let v = df[i as usize];
                let expect = cmp_f(op, v, 1.0);
                assert_eq!((ms[0] >> i) & 1 == 1, expect, "op {op:?} lane {i} (v = {v})");
                if v.is_nan() {
                    assert_eq!(expect, op == CmpOp::Ne);
                }
            }
        }
    }

    #[test]
    fn partial_blocks_and_odd_lengths_mask_correctly() {
        // Non-multiple-of-lane-width lengths: 1, 63, 65, 130.
        let data: Vec<i32> = (0..130).collect();
        for len in [1u64, 63, 65, 130] {
            let ms =
                masks_agree(conj(Elem::I32, CmpOp::Lt, 100, 0.0), data.as_ptr() as *const u8, len);
            let total: u32 = ms.iter().map(|m| m.count_ones()).sum();
            assert_eq!(u64::from(total), len.min(100), "len {len}");
            // No bits beyond the block length.
            let last_n = (len - (ms.len() as u64 - 1) * 64) as u32;
            if last_n < 64 {
                assert_eq!(ms.last().unwrap() >> last_n, 0, "ghost bits past row {len}");
            }
        }
    }

    #[test]
    fn skeleton_resolves_per_binding_and_drops_out_of_domain_params() {
        // Kernel: col0 (i32) < $0  AND  col0 (i32) >= 5 (baked).
        let k = ScanKernel {
            specs: vec![
                ConjunctSpec { slot: 0, elem: Elem::I32, op: CmpOp::Lt, rhs: Rhs::ParamI(0) },
                ConjunctSpec { slot: 0, elem: Elem::I32, op: CmpOp::Ge, rhs: Rhs::ConstI(5) },
            ],
            param_slot: Some(1),
            tier: KernelTier::Scalar,
        };
        let data: Vec<i32> = (0..64).collect();
        let bind = |v: i64| {
            let params = [v as u64];
            let state = [data.as_ptr() as u64, params.as_ptr() as u64];
            let cs = unsafe { k.resolve(state.as_ptr()) };
            let m = unsafe { ScanKernel::mask(&cs, KernelTier::Scalar, state.as_ptr(), 0, 64) };
            (cs.len(), m.count_ones())
        };
        // In-domain binding: both conjuncts resolve; rows 5..10 pass.
        assert_eq!(bind(10), (2, 5));
        // Re-binding the same kernel flips the range without re-extraction.
        assert_eq!(bind(20), (2, 15));
        // Out-of-i32-domain binding: the param conjunct drops, the baked
        // one stays — superset mask, rows 5..64 pass.
        assert_eq!(bind(i64::from(i32::MAX) + 1), (1, 59));
    }

    /// Seeded property test of the block/merge loop alone: random masks at
    /// three densities over ranges with odd lengths, unaligned begins and a
    /// partial last block.
    #[test]
    fn run_cutter_emits_ordered_disjoint_covering_runs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(20);
        for case in 0..600 {
            let begin: u64 = rng.random_range(0..200);
            let len: u64 = match case % 4 {
                0 => 0,
                1 => rng.random_range(1..64),
                _ => rng.random_range(1..=700),
            };
            let end = begin + len;
            // Sparse, dense and even masks in turn.
            let density = [1.0 / 16.0, 15.0 / 16.0, 0.5][case % 3];
            let pass: Vec<bool> = (0..len).map(|_| rng.random_bool(density)).collect();
            let mask_of = |row: u64, n: u64| {
                assert!((1..=BLOCK).contains(&n) && row >= begin && row + n <= end);
                (0..n).fold(0u64, |m, i| m | (pass[(row - begin + i) as usize] as u64) << i)
            };
            let mut runs: Vec<(u64, u64)> = Vec::new();
            let skipped = cut_runs(begin, end, mask_of, |b, e| {
                runs.push((b, e));
                Ok::<(), ()>(())
            })
            .unwrap();
            assert_eq!(skipped, pass.iter().filter(|&&p| !p).count() as u64, "case {case}");
            let mut covered = vec![false; len as usize];
            let mut prev_end = None;
            for &(b, e) in &runs {
                assert!(begin <= b && b < e && e <= end, "case {case}: run [{b},{e}) out of range");
                if let Some(pe) = prev_end {
                    // In order, disjoint — and not mergeable, or the cutter
                    // would have merged them.
                    assert!(b > pe + MERGE_GAP, "case {case}: runs [..{pe}) [{b}..) not merged");
                }
                prev_end = Some(e);
                // A run starts and ends on a passing row and bridges no gap
                // wider than MERGE_GAP.
                let rows = &pass[(b - begin) as usize..(e - begin) as usize];
                assert!(rows[0] && rows[rows.len() - 1], "case {case}: run edge is a failing row");
                let widest_gap = rows.split(|&p| p).map(|gap| gap.len() as u64).max().unwrap_or(0);
                assert!(widest_gap <= MERGE_GAP, "case {case}: bridged a {widest_gap}-row gap");
                covered[(b - begin) as usize..(e - begin) as usize].fill(true);
            }
            for (i, (&p, &c)) in pass.iter().zip(&covered).enumerate() {
                assert!(!p || c, "case {case}: passing row {} not covered", begin + i as u64);
            }
        }
    }

    /// A failing run stops the cutter: the error surfaces and no later run
    /// is attempted.
    #[test]
    fn run_cutter_stops_at_the_first_error() {
        let mut calls = 0;
        let r = cut_runs(
            0,
            256,
            |_, _| 1, // one passing row per block, 63 failing rows apart
            |_, _| {
                calls += 1;
                Err::<(), &str>("boom")
            },
        );
        assert_eq!(r, Err("boom"));
        assert_eq!(calls, 1);
    }

    #[test]
    fn detect_falls_back_cleanly() {
        // Whatever the CPU, detection must return a working tier and the
        // constructed tiers must produce identical masks (asserted above);
        // here assert the ladder order is respected.
        let t = KernelTier::detect();
        #[cfg(target_arch = "x86_64")]
        assert!(t == KernelTier::Avx2 || t == KernelTier::Sse2);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(t, KernelTier::Scalar);
    }
}
