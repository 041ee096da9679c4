//! # aqe-vm — fast bytecode interpretation (paper §IV)
//!
//! "To make interpretation a viable strategy, we translate the native
//! \[IR\] into an optimized bytecode format for a virtual machine that can be
//! interpreted much more efficiently."
//!
//! This crate contains:
//!
//! * [`backend`] — the [`backend::PipelineBackend`] trait: the uniform,
//!   hot-swappable seam through which the engine invokes *any* executable
//!   representation of a worker function (VM bytecode, direct IR walking,
//!   or `aqe-jit`'s machine code), plus the [`backend::ExecMode`]
//!   vocabulary shared by all of them;
//! * [`bytecode`] — the fixed-length, statically-typed instruction format
//!   (16 bytes per instruction: opcode + three register byte-offsets + a
//!   64-bit literal) and the compiled [`bytecode::BcFunction`] container;
//! * [`regalloc`] — register-slot allocation driven by the linear-time
//!   loop-aware live ranges of `aqe-ir`, including the two alternative
//!   strategies of §IV-C (no-reuse and fixed-window greedy) used for the
//!   register-file-size ablation;
//! * [`translate`](mod@translate) — the single-pass IR→bytecode
//!   translator (Fig. 9) with
//!   the paper's macro-op fusion: the 4-instruction overflow-check sequence
//!   becomes one trapping opcode and `gep`+`load`/`store` pairs fuse into
//!   indexed memory ops (§IV-F);
//! * [`interp`] — the switch-dispatch interpreter loop (Fig. 8), reading and
//!   writing a byte-addressed register file whose first two slots always
//!   hold the constants 0 and 1 (§IV-A);
//! * [`naive`] — a direct IR-walking interpreter standing in for the
//!   LLVM interpreter of Fig. 2 (no translation step, much slower);
//! * [`rt`] — the runtime-call ABI shared with the engine and the
//!   machine-code backends: every callable helper is registered with its
//!   signature up front, so unsupported signatures are a translation-time
//!   error, not a runtime surprise (§IV-E).

// The interpreter's public single-instruction dispatch (`interp::exec_one`)
// intentionally takes a raw register-file pointer: validated translator
// output is the safety boundary (see the module docs of `interp`), exactly
// like generated machine code in the paper's engine. Marking these `unsafe`
// would force `unsafe` onto every safe internal caller without adding a
// checkable contract, so the clippy lint is disabled crate-wide.
#![allow(clippy::not_unsafe_ptr_arg_deref)]

pub mod backend;
pub mod bytecode;
pub mod interp;
pub mod naive;
pub mod regalloc;
pub mod rt;
pub mod translate;

pub use backend::{ExecMode, PipelineBackend};
pub use bytecode::{BcFunction, BcInstr, Op};
pub use interp::{execute, ExecError, Frame};
pub use regalloc::AllocStrategy;
pub use rt::{Registry, RtFn};
pub use translate::{translate, TranslateError, TranslateOptions};
