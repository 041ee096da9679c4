//! # aqe-jit — machine-code backends (paper §II–III)
//!
//! The paper compiles worker functions to machine code with LLVM at two
//! levels: **unoptimized** ("fast instruction selection, no IR optimization
//! passes, low backend optimization level") and **optimized** (hand-picked
//! IR passes + full backend optimization). Here both levels are two
//! configurations of one x86-64 emitter ([`mod@native`], DESIGN.md §2/§7):
//!
//! * [`compile()`] turns a worker function into a packed [`emit::Step`]
//!   stream at an [`OptLevel`] — `Unoptimized` is linear translation plus
//!   superinstruction packing, `Optimized` adds the IR pass pipeline and
//!   interference-graph slot coalescing;
//! * [`native::compile_native_at`] lowers that stream to real instructions
//!   in executable pages — with every slot in the frame at `Unoptimized`,
//!   with linear-scan register allocation at `Optimized`
//!   ([`compile_native`] is the optimized configuration).
//!
//! [`exec`] interprets a step stream directly. It is the reference the
//! differential suites compare lowered code against (it tells a pass bug
//! from a lowering bug); the engine never runs it.
//!
//! The two levels preserve the three properties the paper's evaluation
//! depends on:
//!
//! 1. **Cost ordering & scaling** — unoptimized compilation is a strictly
//!    linear pipeline (translate, pack, emit), while optimized compilation
//!    runs a real optimization pass pipeline plus an interference-graph
//!    register coalescer whose super-linear cost reproduces why LLVM `-O2`
//!    explodes on huge machine-generated queries (§V-E, Fig. 15).
//! 2. **Speed ordering** — both levels eliminate dispatch and outrun the
//!    bytecode VM; optimized code executes fewer instructions and keeps
//!    hot slots in registers (measured ratios in EXPERIMENTS.md).
//! 3. **Identical semantics** — all backends execute the same IR with the
//!    same traps, so the adaptive engine can switch a pipeline mid-flight
//!    without losing work (§III-B).

pub mod coalesce;
pub mod compile;
pub mod emit;
pub mod exec;
pub mod native;
pub mod passes;

pub use compile::{compile, CompileStats, CompiledFunction, OptLevel};
pub use exec::execute_compiled;
pub use native::{compile_native, compile_native_at, NativeError, NativeFunction, NativeStats};
pub use passes::{optimize, PassStats};
