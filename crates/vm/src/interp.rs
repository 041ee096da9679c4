//! The VM interpreter loop (§IV-A, Fig. 8).
//!
//! "The VM code itself then consists of a large switch statement that
//! evaluates all supported instructions … each consisting of a single and
//! fairly simple line of C++."
//!
//! The register file is a byte array whose slots are 8-byte aligned; typed
//! opcodes read and write exactly their operand width via raw pointers, just
//! like the paper's `*((int32_t*)(regs + ip->a1))` accesses. Register file
//! allocation "happens on the stack if possible, falling back to heap
//! allocation if the register file is too large": frames up to
//! [`STACK_FRAME_BYTES`] live in a stack buffer.
//!
//! # Safety
//! Bytecode produced by [`crate::translate`](mod@crate::translate) is the
//! safety boundary: the
//! translator guarantees that every register offset is within the frame,
//! every branch target is a valid instruction index, and every runtime call
//! index was validated against the extern table. Load/store opcodes
//! dereference raw addresses computed by the query engine's code generator —
//! the same trust model as any compiling query engine.

use crate::bytecode::{BcFunction, BcInstr, Op, TRAP_DIV_ZERO, TRAP_OVERFLOW, TRAP_USER_BASE};
use crate::rt::Registry;
use std::fmt;

/// Frames at most this large use the stack buffer.
pub const STACK_FRAME_BYTES: usize = 4096;

/// Execution aborted with a trap (SQL runtime error), or query setup
/// failed before any morsel ran.
///
/// The first three variants are the VM traps proper. The remaining ones
/// surface *preparation* failures — a module that does not translate, a
/// compilation that fails, a missing runtime helper or table — as values
/// through the engine's session API instead of aborting the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    Overflow,
    DivByZero,
    User(u32),
    /// IR → bytecode translation rejected the module.
    Translate(String),
    /// Compilation to a higher execution level failed.
    Compile(String),
    /// Query/session setup failed (missing runtime helper, unknown table,
    /// prepared statement used with the wrong engine).
    Setup(String),
    /// Bind-variable mismatch: wrong parameter arity, a value of the
    /// wrong type, or values supplied for a non-parameterized query.
    Bind(String),
    /// The execution was cooperatively cancelled: a client cancel
    /// request, an expired deadline, or a dropped connection poisoned
    /// the query's cancel token and the morsel loop observed it on a
    /// range claim. The query's prepared state stays warm-reusable.
    Cancelled {
        reason: String,
    },
    /// A worker or executor thread panicked mid-query and the panic was
    /// contained at the thread boundary (`catch_unwind`): the query
    /// fails with this typed error instead of aborting the process.
    /// `site` names the boundary that caught it. Prepared state and
    /// caches are left exactly as a clean run would leave them.
    Internal {
        site: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Overflow => write!(f, "numeric overflow"),
            ExecError::DivByZero => write!(f, "division by zero"),
            ExecError::User(c) => write!(f, "query error #{c}"),
            ExecError::Translate(m) => write!(f, "bytecode translation failed: {m}"),
            ExecError::Compile(m) => write!(f, "compilation failed: {m}"),
            ExecError::Setup(m) => write!(f, "query setup failed: {m}"),
            ExecError::Bind(m) => write!(f, "parameter binding failed: {m}"),
            ExecError::Cancelled { reason } => write!(f, "query cancelled: {reason}"),
            ExecError::Internal { site } => write!(f, "internal execution error at {site}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A reusable register-file buffer. Each worker thread keeps one so that
/// morsel-sized invocations never allocate.
#[derive(Default)]
pub struct Frame {
    heap: Vec<u64>,
}

impl Frame {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pointer to a heap register file of at least `bytes` bytes (public
    /// for the executors in `aqe-jit`).
    pub fn heap_ptr_pub(&mut self, bytes: usize) -> *mut u8 {
        self.heap_ptr(bytes)
    }

    fn heap_ptr(&mut self, bytes: usize) -> *mut u8 {
        let words = bytes.div_ceil(8);
        if self.heap.len() < words {
            self.heap.resize(words, 0);
        }
        self.heap.as_mut_ptr() as *mut u8
    }
}

macro_rules! rd {
    ($regs:expr, $T:ty, $off:expr) => {
        unsafe { std::ptr::read($regs.add($off as usize) as *const $T) }
    };
}

macro_rules! wr {
    ($regs:expr, $T:ty, $off:expr, $v:expr) => {
        unsafe { std::ptr::write($regs.add($off as usize) as *mut $T, $v) }
    };
}

/// Execute a translated function.
///
/// `args` are the parameter values (narrow integers in the low bits of
/// their slot); returns the 8-byte return slot for value-returning
/// functions. The provided [`Frame`] is reused across calls; small frames
/// run out of a stack buffer (paper §IV-A).
pub fn execute(
    bc: &BcFunction,
    args: &[u64],
    rt: &Registry,
    frame: &mut Frame,
) -> Result<Option<u64>, ExecError> {
    assert_eq!(args.len(), bc.param_slots.len(), "argument count mismatch");
    let size = bc.frame_size as usize;
    if size <= STACK_FRAME_BYTES {
        let mut stack_buf = [0u64; STACK_FRAME_BYTES / 8];
        run(bc, args, rt, stack_buf.as_mut_ptr() as *mut u8)
    } else {
        let ptr = frame.heap_ptr(size);
        run(bc, args, rt, ptr)
    }
}

/// Control-flow outcome of a single instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ctl {
    /// Fall through to the next instruction.
    Next,
    /// Jump to an instruction index.
    Jump(u32),
    /// Return (void).
    RetNone,
    /// Return a value (raw 8-byte slot contents).
    RetVal(u64),
}

fn run(
    bc: &BcFunction,
    args: &[u64],
    rt: &Registry,
    regs: *mut u8,
) -> Result<Option<u64>, ExecError> {
    // Preloaded constants 0 and 1 (§IV-A) and the parameters.
    wr!(regs, u64, 0u16, 0u64);
    wr!(regs, u64, 8u16, 1u64);
    for (&slot, &v) in bc.param_slots.iter().zip(args) {
        wr!(regs, u64, slot, v);
    }

    let code = bc.code.as_ptr();
    let mut pc = 0usize;
    loop {
        debug_assert!(pc < bc.code.len(), "pc out of bounds");
        let i: &BcInstr = unsafe { &*code.add(pc) };
        match exec_one(i, regs, rt)? {
            Ctl::Next => pc += 1,
            Ctl::Jump(t) => pc = t as usize,
            Ctl::RetNone => return Ok(None),
            Ctl::RetVal(v) => return Ok(Some(v)),
        }
    }
}

/// Execute one instruction against the register file. This is the body of
/// the paper's Fig. 8 switch; it is shared between the VM loop above and the
/// reference step interpreter in `aqe-jit` (plain, non-fused steps).
///
/// # Safety
/// See the module docs: `i` must come from validated translator output and
/// `regs` must point at a frame of at least the translated frame size.
#[allow(clippy::too_many_lines)]
#[inline(always)]
pub fn exec_one(i: &BcInstr, regs: *mut u8, rt: &Registry) -> Result<Ctl, ExecError> {
    macro_rules! bin {
        ($i:expr, $T:ty, $f:expr) => {{
            let a: $T = rd!(regs, $T, $i.b);
            let b: $T = rd!(regs, $T, $i.c);
            wr!(regs, $T, $i.a, $f(a, b));
        }};
    }
    macro_rules! bin_imm {
        ($i:expr, $T:ty, $f:expr) => {{
            let a: $T = rd!(regs, $T, $i.b);
            wr!(regs, $T, $i.a, $f(a, $i.lit as $T));
        }};
    }
    macro_rules! sdiv {
        ($i:expr, $T:ty) => {{
            let a: $T = rd!(regs, $T, $i.b);
            let b: $T = rd!(regs, $T, $i.c);
            if b == 0 {
                return Err(ExecError::DivByZero);
            }
            if a == <$T>::MIN && b == -1 {
                return Err(ExecError::Overflow);
            }
            wr!(regs, $T, $i.a, a / b);
        }};
    }
    macro_rules! udiv {
        ($i:expr, $T:ty, $U:ty) => {{
            let a = rd!(regs, $T, $i.b) as $U;
            let b = rd!(regs, $T, $i.c) as $U;
            if b == 0 {
                return Err(ExecError::DivByZero);
            }
            wr!(regs, $T, $i.a, (a / b) as $T);
        }};
    }
    macro_rules! srem {
        ($i:expr, $T:ty) => {{
            let a: $T = rd!(regs, $T, $i.b);
            let b: $T = rd!(regs, $T, $i.c);
            if b == 0 {
                return Err(ExecError::DivByZero);
            }
            wr!(regs, $T, $i.a, a.wrapping_rem(b));
        }};
    }
    macro_rules! urem {
        ($i:expr, $T:ty, $U:ty) => {{
            let a = rd!(regs, $T, $i.b) as $U;
            let b = rd!(regs, $T, $i.c) as $U;
            if b == 0 {
                return Err(ExecError::DivByZero);
            }
            wr!(regs, $T, $i.a, (a % b) as $T);
        }};
    }
    macro_rules! shift {
        ($i:expr, $T:ty, $f:ident) => {{
            let a: $T = rd!(regs, $T, $i.b);
            let b: $T = rd!(regs, $T, $i.c);
            wr!(regs, $T, $i.a, a.$f(b as u32));
        }};
    }
    macro_rules! shift_imm {
        ($i:expr, $T:ty, $f:ident) => {{
            let a: $T = rd!(regs, $T, $i.b);
            wr!(regs, $T, $i.a, a.$f($i.lit as u32));
        }};
    }
    macro_rules! cmp {
        ($i:expr, $T:ty, $op:tt) => {{
            let a: $T = rd!(regs, $T, $i.b);
            let b: $T = rd!(regs, $T, $i.c);
            wr!(regs, u8, $i.a, (a $op b) as u8);
        }};
    }
    macro_rules! cmpu {
        ($i:expr, $T:ty, $U:ty, $op:tt) => {{
            let a = rd!(regs, $T, $i.b) as $U;
            let b = rd!(regs, $T, $i.c) as $U;
            wr!(regs, u8, $i.a, (a $op b) as u8);
        }};
    }
    macro_rules! cmp_imm {
        ($i:expr, $T:ty, $op:tt) => {{
            let a: $T = rd!(regs, $T, $i.b);
            wr!(regs, u8, $i.a, (a $op ($i.lit as $T)) as u8);
        }};
    }
    macro_rules! cmpu_imm {
        ($i:expr, $T:ty, $U:ty, $op:tt) => {{
            let a = rd!(regs, $T, $i.b) as $U;
            wr!(regs, u8, $i.a, (a $op ($i.lit as $T as $U)) as u8);
        }};
    }
    macro_rules! ovf_trap {
        ($i:expr, $T:ty, $f:ident) => {{
            let a: $T = rd!(regs, $T, $i.b);
            let b: $T = rd!(regs, $T, $i.c);
            match a.$f(b) {
                Some(v) => wr!(regs, $T, $i.a, v),
                None => return Err(ExecError::Overflow),
            }
        }};
    }
    macro_rules! ovf_val {
        ($i:expr, $T:ty, $f:ident) => {{
            let a: $T = rd!(regs, $T, $i.b);
            let b: $T = rd!(regs, $T, $i.c);
            let (v, _) = a.$f(b);
            wr!(regs, $T, $i.a, v);
        }};
    }
    macro_rules! ovf_flag {
        ($i:expr, $T:ty, $f:ident) => {{
            let a: $T = rd!(regs, $T, $i.b);
            let b: $T = rd!(regs, $T, $i.c);
            let (_, o) = a.$f(b);
            wr!(regs, u8, $i.a, o as u8);
        }};
    }
    macro_rules! ext {
        ($i:expr, $From:ty, $To:ty) => {{
            let v: $From = rd!(regs, $From, $i.b);
            wr!(regs, $To, $i.a, v as $To);
        }};
    }
    macro_rules! load {
        ($i:expr, $T:ty) => {{
            let p = rd!(regs, u64, $i.b) as *const $T;
            wr!(regs, $T, $i.a, std::ptr::read_unaligned(p));
        }};
    }
    macro_rules! load_disp {
        ($i:expr, $T:ty) => {{
            let p = (rd!(regs, u64, $i.b) as i64 + $i.lit as i64) as *const $T;
            wr!(regs, $T, $i.a, std::ptr::read_unaligned(p));
        }};
    }
    macro_rules! load_idx {
        ($i:expr, $T:ty) => {{
            let base = rd!(regs, u64, $i.b) as i64;
            let idx = rd!(regs, i64, $i.c);
            let p =
                (base + idx * BcInstr::idx_scale($i.lit) + BcInstr::idx_disp($i.lit)) as *const $T;
            wr!(regs, $T, $i.a, std::ptr::read_unaligned(p));
        }};
    }
    macro_rules! store {
        ($i:expr, $T:ty) => {{
            let p = rd!(regs, u64, $i.a) as *mut $T;
            let v: $T = rd!(regs, $T, $i.b);
            unsafe { std::ptr::write_unaligned(p, v) };
        }};
    }
    macro_rules! store_disp {
        ($i:expr, $T:ty) => {{
            let p = (rd!(regs, u64, $i.a) as i64 + $i.lit as i64) as *mut $T;
            let v: $T = rd!(regs, $T, $i.b);
            unsafe { std::ptr::write_unaligned(p, v) };
        }};
    }
    macro_rules! store_idx {
        ($i:expr, $T:ty) => {{
            let base = rd!(regs, u64, $i.a) as i64;
            let idx = rd!(regs, i64, $i.c);
            let p =
                (base + idx * BcInstr::idx_scale($i.lit) + BcInstr::idx_disp($i.lit)) as *mut $T;
            let v: $T = rd!(regs, $T, $i.b);
            unsafe { std::ptr::write_unaligned(p, v) };
        }};
    }

    match i.op {
        Op::AddI8 => bin!(i, i8, i8::wrapping_add),
        Op::AddI16 => bin!(i, i16, i16::wrapping_add),
        Op::AddI32 => bin!(i, i32, i32::wrapping_add),
        Op::AddI64 => bin!(i, i64, i64::wrapping_add),
        Op::AddF64 => bin!(i, f64, |a, b| a + b),
        Op::SubI8 => bin!(i, i8, i8::wrapping_sub),
        Op::SubI16 => bin!(i, i16, i16::wrapping_sub),
        Op::SubI32 => bin!(i, i32, i32::wrapping_sub),
        Op::SubI64 => bin!(i, i64, i64::wrapping_sub),
        Op::SubF64 => bin!(i, f64, |a, b| a - b),
        Op::MulI8 => bin!(i, i8, i8::wrapping_mul),
        Op::MulI16 => bin!(i, i16, i16::wrapping_mul),
        Op::MulI32 => bin!(i, i32, i32::wrapping_mul),
        Op::MulI64 => bin!(i, i64, i64::wrapping_mul),
        Op::MulF64 => bin!(i, f64, |a, b| a * b),
        Op::SDivI8 => sdiv!(i, i8),
        Op::SDivI16 => sdiv!(i, i16),
        Op::SDivI32 => sdiv!(i, i32),
        Op::SDivI64 => sdiv!(i, i64),
        Op::UDivI8 => udiv!(i, i8, u8),
        Op::UDivI16 => udiv!(i, i16, u16),
        Op::UDivI32 => udiv!(i, i32, u32),
        Op::UDivI64 => udiv!(i, i64, u64),
        Op::SRemI8 => srem!(i, i8),
        Op::SRemI16 => srem!(i, i16),
        Op::SRemI32 => srem!(i, i32),
        Op::SRemI64 => srem!(i, i64),
        Op::URemI8 => urem!(i, i8, u8),
        Op::URemI16 => urem!(i, i16, u16),
        Op::URemI32 => urem!(i, i32, u32),
        Op::URemI64 => urem!(i, i64, u64),
        Op::FDivF64 => bin!(i, f64, |a, b| a / b),
        Op::AndI8 => bin!(i, i8, |a, b| a & b),
        Op::AndI16 => bin!(i, i16, |a, b| a & b),
        Op::AndI32 => bin!(i, i32, |a, b| a & b),
        Op::AndI64 => bin!(i, i64, |a, b| a & b),
        Op::OrI8 => bin!(i, i8, |a, b| a | b),
        Op::OrI16 => bin!(i, i16, |a, b| a | b),
        Op::OrI32 => bin!(i, i32, |a, b| a | b),
        Op::OrI64 => bin!(i, i64, |a, b| a | b),
        Op::XorI8 => bin!(i, i8, |a, b| a ^ b),
        Op::XorI16 => bin!(i, i16, |a, b| a ^ b),
        Op::XorI32 => bin!(i, i32, |a, b| a ^ b),
        Op::XorI64 => bin!(i, i64, |a, b| a ^ b),
        Op::ShlI8 => shift!(i, i8, wrapping_shl),
        Op::ShlI16 => shift!(i, i16, wrapping_shl),
        Op::ShlI32 => shift!(i, i32, wrapping_shl),
        Op::ShlI64 => shift!(i, i64, wrapping_shl),
        Op::AShrI8 => shift!(i, i8, wrapping_shr),
        Op::AShrI16 => shift!(i, i16, wrapping_shr),
        Op::AShrI32 => shift!(i, i32, wrapping_shr),
        Op::AShrI64 => shift!(i, i64, wrapping_shr),
        Op::LShrI8 => {
            let a = rd!(regs, i8, i.b) as u8;
            let b = rd!(regs, i8, i.c) as u8;
            wr!(regs, u8, i.a, a.wrapping_shr(b as u32));
        }
        Op::LShrI16 => {
            let a = rd!(regs, i16, i.b) as u16;
            let b = rd!(regs, i16, i.c) as u16;
            wr!(regs, u16, i.a, a.wrapping_shr(b as u32));
        }
        Op::LShrI32 => {
            let a = rd!(regs, i32, i.b) as u32;
            let b = rd!(regs, i32, i.c) as u32;
            wr!(regs, u32, i.a, a.wrapping_shr(b as u32));
        }
        Op::LShrI64 => {
            let a = rd!(regs, i64, i.b) as u64;
            let b = rd!(regs, i64, i.c) as u64;
            wr!(regs, u64, i.a, a.wrapping_shr(b as u32));
        }

        Op::AddImmI32 => bin_imm!(i, i32, i32::wrapping_add),
        Op::AddImmI64 => bin_imm!(i, i64, i64::wrapping_add),
        Op::AddImmF64 => {
            let a: f64 = rd!(regs, f64, i.b);
            wr!(regs, f64, i.a, a + f64::from_bits(i.lit));
        }
        Op::SubImmI32 => bin_imm!(i, i32, i32::wrapping_sub),
        Op::SubImmI64 => bin_imm!(i, i64, i64::wrapping_sub),
        Op::MulImmI32 => bin_imm!(i, i32, i32::wrapping_mul),
        Op::MulImmI64 => bin_imm!(i, i64, i64::wrapping_mul),
        Op::MulImmF64 => {
            let a: f64 = rd!(regs, f64, i.b);
            wr!(regs, f64, i.a, a * f64::from_bits(i.lit));
        }
        Op::AndImmI32 => bin_imm!(i, i32, |a, b| a & b),
        Op::AndImmI64 => bin_imm!(i, i64, |a, b| a & b),
        Op::OrImmI32 => bin_imm!(i, i32, |a, b| a | b),
        Op::OrImmI64 => bin_imm!(i, i64, |a, b| a | b),
        Op::XorImmI32 => bin_imm!(i, i32, |a, b| a ^ b),
        Op::XorImmI64 => bin_imm!(i, i64, |a, b| a ^ b),
        Op::ShlImmI32 => shift_imm!(i, i32, wrapping_shl),
        Op::ShlImmI64 => shift_imm!(i, i64, wrapping_shl),
        Op::AShrImmI32 => shift_imm!(i, i32, wrapping_shr),
        Op::AShrImmI64 => shift_imm!(i, i64, wrapping_shr),
        Op::LShrImmI32 => {
            let a = rd!(regs, i32, i.b) as u32;
            wr!(regs, u32, i.a, a.wrapping_shr(i.lit as u32));
        }
        Op::LShrImmI64 => {
            let a = rd!(regs, i64, i.b) as u64;
            wr!(regs, u64, i.a, a.wrapping_shr(i.lit as u32));
        }

        Op::CmpEqI8 => cmp!(i, i8, ==),
        Op::CmpEqI16 => cmp!(i, i16, ==),
        Op::CmpEqI32 => cmp!(i, i32, ==),
        Op::CmpEqI64 => cmp!(i, i64, ==),
        Op::CmpNeI8 => cmp!(i, i8, !=),
        Op::CmpNeI16 => cmp!(i, i16, !=),
        Op::CmpNeI32 => cmp!(i, i32, !=),
        Op::CmpNeI64 => cmp!(i, i64, !=),
        Op::CmpSltI8 => cmp!(i, i8, <),
        Op::CmpSltI16 => cmp!(i, i16, <),
        Op::CmpSltI32 => cmp!(i, i32, <),
        Op::CmpSltI64 => cmp!(i, i64, <),
        Op::CmpSleI8 => cmp!(i, i8, <=),
        Op::CmpSleI16 => cmp!(i, i16, <=),
        Op::CmpSleI32 => cmp!(i, i32, <=),
        Op::CmpSleI64 => cmp!(i, i64, <=),
        Op::CmpSgtI8 => cmp!(i, i8, >),
        Op::CmpSgtI16 => cmp!(i, i16, >),
        Op::CmpSgtI32 => cmp!(i, i32, >),
        Op::CmpSgtI64 => cmp!(i, i64, >),
        Op::CmpSgeI8 => cmp!(i, i8, >=),
        Op::CmpSgeI16 => cmp!(i, i16, >=),
        Op::CmpSgeI32 => cmp!(i, i32, >=),
        Op::CmpSgeI64 => cmp!(i, i64, >=),
        Op::CmpUltI8 => cmpu!(i, i8, u8, <),
        Op::CmpUltI16 => cmpu!(i, i16, u16, <),
        Op::CmpUltI32 => cmpu!(i, i32, u32, <),
        Op::CmpUltI64 => cmpu!(i, i64, u64, <),
        Op::CmpUleI8 => cmpu!(i, i8, u8, <=),
        Op::CmpUleI16 => cmpu!(i, i16, u16, <=),
        Op::CmpUleI32 => cmpu!(i, i32, u32, <=),
        Op::CmpUleI64 => cmpu!(i, i64, u64, <=),
        Op::CmpUgtI8 => cmpu!(i, i8, u8, >),
        Op::CmpUgtI16 => cmpu!(i, i16, u16, >),
        Op::CmpUgtI32 => cmpu!(i, i32, u32, >),
        Op::CmpUgtI64 => cmpu!(i, i64, u64, >),
        Op::CmpUgeI8 => cmpu!(i, i8, u8, >=),
        Op::CmpUgeI16 => cmpu!(i, i16, u16, >=),
        Op::CmpUgeI32 => cmpu!(i, i32, u32, >=),
        Op::CmpUgeI64 => cmpu!(i, i64, u64, >=),
        Op::CmpEqF64 => cmp!(i, f64, ==),
        Op::CmpNeF64 => cmp!(i, f64, !=),
        Op::CmpLtF64 => cmp!(i, f64, <),
        Op::CmpLeF64 => cmp!(i, f64, <=),
        Op::CmpGtF64 => cmp!(i, f64, >),
        Op::CmpGeF64 => cmp!(i, f64, >=),

        Op::CmpImmEqI32 => cmp_imm!(i, i32, ==),
        Op::CmpImmEqI64 => cmp_imm!(i, i64, ==),
        Op::CmpImmNeI32 => cmp_imm!(i, i32, !=),
        Op::CmpImmNeI64 => cmp_imm!(i, i64, !=),
        Op::CmpImmSltI32 => cmp_imm!(i, i32, <),
        Op::CmpImmSltI64 => cmp_imm!(i, i64, <),
        Op::CmpImmSleI32 => cmp_imm!(i, i32, <=),
        Op::CmpImmSleI64 => cmp_imm!(i, i64, <=),
        Op::CmpImmSgtI32 => cmp_imm!(i, i32, >),
        Op::CmpImmSgtI64 => cmp_imm!(i, i64, >),
        Op::CmpImmSgeI32 => cmp_imm!(i, i32, >=),
        Op::CmpImmSgeI64 => cmp_imm!(i, i64, >=),
        Op::CmpImmUltI32 => cmpu_imm!(i, i32, u32, <),
        Op::CmpImmUltI64 => cmpu_imm!(i, i64, u64, <),
        Op::CmpImmUleI32 => cmpu_imm!(i, i32, u32, <=),
        Op::CmpImmUleI64 => cmpu_imm!(i, i64, u64, <=),
        Op::CmpImmUgtI32 => cmpu_imm!(i, i32, u32, >),
        Op::CmpImmUgtI64 => cmpu_imm!(i, i64, u64, >),
        Op::CmpImmUgeI32 => cmpu_imm!(i, i32, u32, >=),
        Op::CmpImmUgeI64 => cmpu_imm!(i, i64, u64, >=),

        Op::AddOvfTrapI32 => ovf_trap!(i, i32, checked_add),
        Op::AddOvfTrapI64 => ovf_trap!(i, i64, checked_add),
        Op::SubOvfTrapI32 => ovf_trap!(i, i32, checked_sub),
        Op::SubOvfTrapI64 => ovf_trap!(i, i64, checked_sub),
        Op::MulOvfTrapI32 => ovf_trap!(i, i32, checked_mul),
        Op::MulOvfTrapI64 => ovf_trap!(i, i64, checked_mul),
        Op::AddOvfValI32 => ovf_val!(i, i32, overflowing_add),
        Op::AddOvfValI64 => ovf_val!(i, i64, overflowing_add),
        Op::SubOvfValI32 => ovf_val!(i, i32, overflowing_sub),
        Op::SubOvfValI64 => ovf_val!(i, i64, overflowing_sub),
        Op::MulOvfValI32 => ovf_val!(i, i32, overflowing_mul),
        Op::MulOvfValI64 => ovf_val!(i, i64, overflowing_mul),
        Op::AddOvfFlagI32 => ovf_flag!(i, i32, overflowing_add),
        Op::AddOvfFlagI64 => ovf_flag!(i, i64, overflowing_add),
        Op::SubOvfFlagI32 => ovf_flag!(i, i32, overflowing_sub),
        Op::SubOvfFlagI64 => ovf_flag!(i, i64, overflowing_sub),
        Op::MulOvfFlagI32 => ovf_flag!(i, i32, overflowing_mul),
        Op::MulOvfFlagI64 => ovf_flag!(i, i64, overflowing_mul),

        Op::SExtI8I16 => ext!(i, i8, i16),
        Op::SExtI8I32 => ext!(i, i8, i32),
        Op::SExtI8I64 => ext!(i, i8, i64),
        Op::SExtI16I32 => ext!(i, i16, i32),
        Op::SExtI16I64 => ext!(i, i16, i64),
        Op::SExtI32I64 => ext!(i, i32, i64),
        Op::ZExtI8I16 => ext!(i, u8, u16),
        Op::ZExtI8I32 => ext!(i, u8, u32),
        Op::ZExtI8I64 => ext!(i, u8, u64),
        Op::ZExtI16I32 => ext!(i, u16, u32),
        Op::ZExtI16I64 => ext!(i, u16, u64),
        Op::ZExtI32I64 => ext!(i, u32, u64),
        Op::SiToFpI32 => ext!(i, i32, f64),
        Op::SiToFpI64 => ext!(i, i64, f64),
        Op::FpToSiI32 => ext!(i, f64, i32),
        Op::FpToSiI64 => ext!(i, f64, i64),

        Op::Mov64 => {
            let v: u64 = rd!(regs, u64, i.b);
            wr!(regs, u64, i.a, v);
        }
        Op::Const64 => wr!(regs, u64, i.a, i.lit),
        Op::Select64 => {
            let c: u8 = rd!(regs, u8, i.b);
            let src = if c != 0 { i.c } else { i.lit as u16 };
            let v: u64 = rd!(regs, u64, src);
            wr!(regs, u64, i.a, v);
        }

        Op::Load8 => load!(i, u8),
        Op::Load16 => load!(i, u16),
        Op::Load32 => load!(i, u32),
        Op::Load64 => load!(i, u64),
        Op::Load8Disp => load_disp!(i, u8),
        Op::Load16Disp => load_disp!(i, u16),
        Op::Load32Disp => load_disp!(i, u32),
        Op::Load64Disp => load_disp!(i, u64),
        Op::Load8Idx => load_idx!(i, u8),
        Op::Load16Idx => load_idx!(i, u16),
        Op::Load32Idx => load_idx!(i, u32),
        Op::Load64Idx => load_idx!(i, u64),
        Op::Store8 => store!(i, u8),
        Op::Store16 => store!(i, u16),
        Op::Store32 => store!(i, u32),
        Op::Store64 => store!(i, u64),
        Op::Store8Disp => store_disp!(i, u8),
        Op::Store16Disp => store_disp!(i, u16),
        Op::Store32Disp => store_disp!(i, u32),
        Op::Store64Disp => store_disp!(i, u64),
        Op::Store8Idx => store_idx!(i, u8),
        Op::Store16Idx => store_idx!(i, u16),
        Op::Store32Idx => store_idx!(i, u32),
        Op::Store64Idx => store_idx!(i, u64),
        Op::GepIdx => {
            let base = rd!(regs, u64, i.b) as i64;
            let idx = rd!(regs, i64, i.c);
            wr!(regs, i64, i.a, base + idx * BcInstr::idx_scale(i.lit) + BcInstr::idx_disp(i.lit));
        }

        Op::Br => return Ok(Ctl::Jump(i.lit as u32)),
        Op::CondBr => {
            let c: u8 = rd!(regs, u8, i.b);
            let t = if c != 0 { BcInstr::branch_then(i.lit) } else { BcInstr::branch_else(i.lit) };
            return Ok(Ctl::Jump(t as u32));
        }
        Op::Ret => return Ok(Ctl::RetNone),
        Op::RetVal => return Ok(Ctl::RetVal(rd!(regs, u64, i.a))),
        Op::TrapOp => {
            return Err(match i.lit {
                TRAP_OVERFLOW => ExecError::Overflow,
                TRAP_DIV_ZERO => ExecError::DivByZero,
                other => ExecError::User((other & !TRAP_USER_BASE) as u32),
            });
        }
        Op::CallRt => {
            let f = rt.fn_ptr(i.lit as usize);
            unsafe { f(regs.add(i.b as usize) as *const u64, regs.add(i.a as usize) as *mut u64) };
        }
    }
    Ok(Ctl::Next)
}

/// The bytecode VM as a uniform execution backend: translated functions
/// are directly installable into the engine's hot-swap handles.
impl crate::backend::PipelineBackend for BcFunction {
    fn call(
        &self,
        args: &[u64],
        rt: &Registry,
        frame: &mut Frame,
    ) -> Result<Option<u64>, ExecError> {
        execute(self, args, rt, frame)
    }

    fn level(&self) -> crate::backend::ExecLevel {
        crate::backend::ExecLevel::Interpreted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::{translate, TranslateOptions};
    use aqe_ir::{BinOp, CmpPred, Constant, FunctionBuilder, OvfOp, Type};

    fn run1(f: &aqe_ir::Function, args: &[u64]) -> Result<Option<u64>, ExecError> {
        let bc = translate(f, &[], TranslateOptions::default()).unwrap();
        let rt = Registry::new();
        let mut frame = Frame::new();
        execute(&bc, args, &rt, &mut frame)
    }

    #[test]
    fn add_function_runs() {
        let mut b = FunctionBuilder::new("add", &[Type::I64, Type::I64], Some(Type::I64));
        let s = b.bin(BinOp::Add, Type::I64, b.param(0).into(), b.param(1).into());
        b.ret(Some(s.into()));
        let f = b.finish().unwrap();
        assert_eq!(run1(&f, &[20, 22]).unwrap(), Some(42));
    }

    #[test]
    fn narrow_arithmetic_wraps_at_width() {
        let mut b = FunctionBuilder::new("f", &[Type::I32, Type::I32], Some(Type::I32));
        let s = b.bin(BinOp::Add, Type::I32, b.param(0).into(), b.param(1).into());
        b.ret(Some(s.into()));
        let f = b.finish().unwrap();
        let r = run1(&f, &[i32::MAX as u64, 1]).unwrap().unwrap();
        assert_eq!(r as u32 as i32, i32::MIN);
    }

    #[test]
    fn loop_sums_range() {
        // sum of 0..n via accumulator φ
        let mut b = FunctionBuilder::new("sum", &[Type::I64], Some(Type::I64));
        let n = b.param(0);
        let head = b.add_block();
        let body = b.add_block();
        let exit = b.add_block();
        let pre = b.current_block();
        b.br(head);
        b.switch_to(head);
        let iv = b.phi(Type::I64, vec![(pre, Constant::i64(0).into())]);
        let acc = b.phi(Type::I64, vec![(pre, Constant::i64(0).into())]);
        let done = b.cmp(CmpPred::SGe, Type::I64, iv.into(), n.into());
        b.cond_br(done.into(), exit, body);
        b.switch_to(body);
        let acc2 = b.bin(BinOp::Add, Type::I64, acc.into(), iv.into());
        let iv2 = b.bin(BinOp::Add, Type::I64, iv.into(), Constant::i64(1).into());
        b.phi_add_incoming(iv, body, iv2.into());
        b.phi_add_incoming(acc, body, acc2.into());
        b.br(head);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        let f = b.finish().unwrap();
        assert_eq!(run1(&f, &[10]).unwrap(), Some(45));
        assert_eq!(run1(&f, &[0]).unwrap(), Some(0));
        assert_eq!(run1(&f, &[1000]).unwrap(), Some(499500));
    }

    #[test]
    fn overflow_traps() {
        let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64], Some(Type::I64));
        let s = b.checked_arith(OvfOp::Add, Type::I64, b.param(0).into(), b.param(1).into());
        b.ret(Some(s.into()));
        let f = b.finish().unwrap();
        assert_eq!(run1(&f, &[1, 2]).unwrap(), Some(3));
        assert_eq!(run1(&f, &[i64::MAX as u64, 1]), Err(ExecError::Overflow));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64], Some(Type::I64));
        let s = b.bin(BinOp::SDiv, Type::I64, b.param(0).into(), b.param(1).into());
        b.ret(Some(s.into()));
        let f = b.finish().unwrap();
        assert_eq!(run1(&f, &[10, 3]).unwrap(), Some(3));
        assert_eq!(run1(&f, &[10, 0]), Err(ExecError::DivByZero));
        assert_eq!(run1(&f, &[i64::MIN as u64, (-1i64) as u64]), Err(ExecError::Overflow));
    }

    #[test]
    fn memory_roundtrip() {
        let mut b = FunctionBuilder::new("f", &[Type::Ptr, Type::I64], Some(Type::I64));
        // data[1] = v; return data[1] * 2
        let slot = b.gep_indexed(b.param(0).into(), 0, Constant::i64(1).into(), 8);
        b.store(Type::I64, b.param(1).into(), slot.into());
        let slot2 = b.gep(b.param(0).into(), 8);
        let v = b.load(Type::I64, slot2.into());
        let r = b.bin(BinOp::Mul, Type::I64, v.into(), Constant::i64(2).into());
        b.ret(Some(r.into()));
        let f = b.finish().unwrap();
        let mut data = [0u64; 2];
        let r = run1(&f, &[data.as_mut_ptr() as u64, 21]).unwrap();
        assert_eq!(r, Some(42));
        assert_eq!(data[1], 21);
    }

    #[test]
    fn select_works() {
        let mut b = FunctionBuilder::new("max", &[Type::I64, Type::I64], Some(Type::I64));
        let c = b.cmp(CmpPred::SGt, Type::I64, b.param(0).into(), b.param(1).into());
        let m = b.select(Type::I64, c.into(), b.param(0).into(), b.param(1).into());
        b.ret(Some(m.into()));
        let f = b.finish().unwrap();
        assert_eq!(run1(&f, &[3, 9]).unwrap(), Some(9));
        assert_eq!(run1(&f, &[9, 3]).unwrap(), Some(9));
    }

    #[test]
    fn runtime_call_from_bytecode() {
        unsafe fn rt_add3(args: *const u64, ret: *mut u64) {
            unsafe { *ret = *args + *args.add(1) + *args.add(2) }
        }
        let mut m = aqe_ir::Module::new();
        let ext =
            m.declare_extern("rt_add3", vec![Type::I64, Type::I64, Type::I64], Some(Type::I64));
        let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let r = b.call(
            ext,
            vec![b.param(0).into(), Constant::i64(10).into(), Constant::i64(100).into()],
            Some(Type::I64),
        );
        b.ret(Some(r.into()));
        let f = b.finish().unwrap();
        let bc = translate(&f, &m.externs, TranslateOptions::default()).unwrap();
        let mut rt = Registry::new();
        rt.register(m.externs[0].clone(), rt_add3);
        let mut frame = Frame::new();
        assert_eq!(execute(&bc, &[1], &rt, &mut frame).unwrap(), Some(111));
    }

    #[test]
    fn float_pipeline() {
        let mut b = FunctionBuilder::new("f", &[Type::F64, Type::F64], Some(Type::F64));
        let s = b.bin(BinOp::Add, Type::F64, b.param(0).into(), b.param(1).into());
        let q = b.bin(BinOp::FDiv, Type::F64, s.into(), Constant::f64(2.0).into());
        b.ret(Some(q.into()));
        let f = b.finish().unwrap();
        let r = run1(&f, &[3.0f64.to_bits(), 5.0f64.to_bits()]).unwrap().unwrap();
        assert_eq!(f64::from_bits(r), 4.0);
    }

    #[test]
    fn casts_round_trip() {
        let mut b = FunctionBuilder::new("f", &[Type::I32], Some(Type::I64));
        let w = b.cast(aqe_ir::CastKind::SExt, Type::I32, Type::I64, b.param(0).into());
        let fl = b.cast(aqe_ir::CastKind::SiToFp, Type::I64, Type::F64, w.into());
        let half = b.bin(BinOp::FDiv, Type::F64, fl.into(), Constant::f64(2.0).into());
        let back = b.cast(aqe_ir::CastKind::FpToSi, Type::F64, Type::I64, half.into());
        b.ret(Some(back.into()));
        let f = b.finish().unwrap();
        let r = run1(&f, &[(-10i32) as u32 as u64]).unwrap().unwrap();
        assert_eq!(r as i64, -5);
    }

    #[test]
    fn diamond_with_phi() {
        let mut b = FunctionBuilder::new("abs", &[Type::I64], Some(Type::I64));
        let neg = b.add_block();
        let join = b.add_block();
        let p = b.param(0);
        let c = b.cmp(CmpPred::SLt, Type::I64, p.into(), Constant::i64(0).into());
        let entry = b.current_block();
        b.cond_br(c.into(), neg, join);
        b.switch_to(neg);
        let negated = b.bin(BinOp::Sub, Type::I64, Constant::i64(0).into(), p.into());
        b.br(join);
        b.switch_to(join);
        let phi = b.phi(Type::I64, vec![(entry, p.into()), (neg, negated.into())]);
        b.ret(Some(phi.into()));
        let f = b.finish().unwrap();
        assert_eq!(run1(&f, &[(-7i64) as u64]).unwrap(), Some(7));
        assert_eq!(run1(&f, &[7]).unwrap(), Some(7));
    }

    #[test]
    fn phi_swap_cycle_is_resolved() {
        // Classic swap loop: (a, b) = (b, a) every iteration.
        let mut b = FunctionBuilder::new("swap", &[Type::I64], Some(Type::I64));
        let n = b.param(0);
        let head = b.add_block();
        let body = b.add_block();
        let exit = b.add_block();
        let pre = b.current_block();
        b.br(head);
        b.switch_to(head);
        let iv = b.phi(Type::I64, vec![(pre, Constant::i64(0).into())]);
        let x = b.phi(Type::I64, vec![(pre, Constant::i64(1).into())]);
        let y = b.phi(Type::I64, vec![(pre, Constant::i64(2).into())]);
        let done = b.cmp(CmpPred::SGe, Type::I64, iv.into(), n.into());
        b.cond_br(done.into(), exit, body);
        b.switch_to(body);
        let iv2 = b.bin(BinOp::Add, Type::I64, iv.into(), Constant::i64(1).into());
        b.phi_add_incoming(iv, body, iv2.into());
        b.phi_add_incoming(x, body, y.into()); // swap!
        b.phi_add_incoming(y, body, x.into());
        b.br(head);
        b.switch_to(exit);
        // return x * 10 + y
        let x10 = b.bin(BinOp::Mul, Type::I64, x.into(), Constant::i64(10).into());
        let r = b.bin(BinOp::Add, Type::I64, x10.into(), y.into());
        b.ret(Some(r.into()));
        let f = b.finish().unwrap();
        assert_eq!(run1(&f, &[0]).unwrap(), Some(12));
        assert_eq!(run1(&f, &[1]).unwrap(), Some(21));
        assert_eq!(run1(&f, &[2]).unwrap(), Some(12));
        assert_eq!(run1(&f, &[3]).unwrap(), Some(21));
    }
}
