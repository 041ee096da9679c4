//! # aqe — Adaptive Execution of Compiled Queries
//!
//! Facade crate re-exporting the full reproduction of Kohn, Leis & Neumann,
//! *Adaptive Execution of Compiled Queries* (ICDE 2018). See the individual
//! crates for the subsystems:
//!
//! * [`ir`] — SSA intermediate representation ("LLVM IR" substrate)
//! * [`vm`] — bytecode virtual machine with linear-time translation (§IV)
//! * [`jit`] — the compiled backend: real x86-64 machine code at the
//!   paper's two levels, unoptimized (`ExecMode::NativeUnopt`) and
//!   optimized (`ExecMode::Native`) (§II–III)
//! * [`storage`] — columnar storage, TPC-H / TPC-DS-lite data generators
//! * [`engine`] — the adaptive execution framework itself (§III)
//! * [`sql`] — SQL frontend (parser, binder, optimizer)
//! * [`baselines`] — Volcano-style and vectorized comparison engines
//! * [`queries`] — the evaluation query corpus
//! * [`server`] — the network front door: epoll connection multiplexing,
//!   admission control, deadlines, cooperative cancellation (§13 in
//!   DESIGN.md)
//!
//! All execution backends plug into one seam: the object-safe
//! [`vm::backend::PipelineBackend`] trait (re-exported here as
//! [`PipelineBackend`]), implemented by the bytecode VM, the naive IR
//! interpreter and both machine-code levels. The engine's morsel loop
//! calls through a hot-swappable `Arc<dyn PipelineBackend>` handle per
//! pipeline, which is what lets a query switch representation mid-flight
//! — from bytecode to optimized machine code.
//!
//! The public execution API is the long-lived session layer
//! ([`Engine`] → [`Session`] → [`PreparedQuery`], re-exported here):
//! prepared statements retain generated code across executions, the
//! engine persists cost-model calibration across queries, and a
//! versioned result cache answers repeated identical plans without
//! running a morsel.
//!
//! See `README.md` for a quickstart and `DESIGN.md`/`EXPERIMENTS.md` for the
//! system inventory and the per-figure reproduction index.

pub use aqe_engine::exec::{ExecMode, ExecOptions, FunctionHandle};
pub use aqe_engine::session::{Engine, PreparedQuery, Session};
pub use aqe_vm::backend::PipelineBackend;

pub use aqe_baselines as baselines;
pub use aqe_engine as engine;
pub use aqe_fault as fault;
pub use aqe_ir as ir;
pub use aqe_jit as jit;
pub use aqe_queries as queries;
pub use aqe_server as server;
pub use aqe_sql as sql;
pub use aqe_storage as storage;
pub use aqe_vm as vm;
