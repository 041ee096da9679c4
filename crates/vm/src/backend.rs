//! The unified execution-backend seam (paper Fig. 5).
//!
//! Every way of running a worker function — direct IR walking, the
//! bytecode VM, and the two configurations of `aqe-jit`'s native emitter —
//! implements [`PipelineBackend`]. The engine's morsel loop calls through a single
//! `Arc<dyn PipelineBackend>` handle and never branches on the mode; the
//! adaptive controller switches a pipeline mid-flight by atomically
//! publishing a different backend into that handle.
//!
//! The trait lives here, at the bottom of the crate stack, because its
//! vocabulary types ([`Frame`], [`Registry`], [`ExecError`]) do and because
//! both `aqe-vm` and `aqe-jit` provide implementations.

use crate::interp::{ExecError, Frame};
use crate::rt::Registry;

/// How to execute a query (Fig. 3's modes plus the naive interpreter
/// baseline of Fig. 2). The first four name concrete backends; `Adaptive`
/// is the engine policy that starts at `Bytecode` and upgrades at runtime.
/// Where `aqe-jit` has no emitter (off x86-64 Linux, or `AQE_NATIVE=0`)
/// the two compiled modes run the bytecode backend.
///
/// A filtered scan's vectorized pre-filter is not a mode: the engine's
/// morsel loop runs it in front of whichever backend the mode installs —
/// except under `NaiveIr`, the oracle, which sees every row.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExecMode {
    /// Direct IR interpretation (the "LLVM interpreter" stand-in).
    NaiveIr,
    /// Bytecode VM for every morsel.
    Bytecode,
    /// Compile every pipeline to machine code without optimization up
    /// front (the paper's *unoptimized* level): linear translation and
    /// packing, no IR passes, no slot coalescing, no register allocation.
    NativeUnopt,
    /// Compile every pipeline to optimized machine code up front (the
    /// paper's *optimized* level): pass pipeline, slot coalescing,
    /// linear-scan register allocation.
    Native,
    /// The paper's contribution: start in bytecode, switch adaptively.
    Adaptive,
}

impl ExecMode {
    /// Total order of backend quality used by the hot-swap handle: a
    /// backend may only ever be replaced by a higher-ranked one.
    /// `Adaptive` ranks as its starting backend (bytecode).
    pub fn rank(self) -> u8 {
        match self {
            ExecMode::NaiveIr => 0,
            ExecMode::Bytecode | ExecMode::Adaptive => 1,
            ExecMode::NativeUnopt => 2,
            ExecMode::Native => 3,
        }
    }

    /// Compact code used in execution traces (Fig. 14): 0 = bytecode,
    /// 1 = unoptimized machine code, 3 = naive IR, 4 = optimized machine
    /// code. (2 and 5 are unassigned; 255 marks a compilation event and
    /// never names a backend.)
    pub fn trace_kind(self) -> u8 {
        match self {
            ExecMode::Bytecode | ExecMode::Adaptive => 0,
            ExecMode::NativeUnopt => 1,
            ExecMode::NaiveIr => 3,
            ExecMode::Native => 4,
        }
    }
}

/// One executable representation of a worker function.
///
/// Object-safe on purpose: the engine stores `Arc<dyn PipelineBackend>` in
/// its hot-swappable function handles and treats every representation
/// identically. Implementations must be freely callable from many worker
/// threads at once (`Send + Sync`) and — the §III-B contract — behave
/// *identically* for identical inputs, traps included, so a pipeline can
/// switch representation between two morsels without changing results.
pub trait PipelineBackend: Send + Sync {
    /// Run the function over one morsel. `args` follow the worker ABI
    /// (context pointer, state pointer, morsel begin, morsel end); `frame`
    /// is the caller's reusable register-file buffer (backends that do not
    /// use a register file simply ignore it).
    fn call(
        &self,
        args: &[u64],
        rt: &Registry,
        frame: &mut Frame,
    ) -> Result<Option<u64>, ExecError>;

    /// Which backend this is (never `Adaptive` — that is a policy, not a
    /// backend).
    fn kind(&self) -> ExecMode;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_ordered_and_adaptive_starts_at_bytecode() {
        assert!(ExecMode::NaiveIr.rank() < ExecMode::Bytecode.rank());
        assert!(ExecMode::Bytecode.rank() < ExecMode::NativeUnopt.rank());
        assert!(ExecMode::NativeUnopt.rank() < ExecMode::Native.rank());
        assert_eq!(ExecMode::Adaptive.rank(), ExecMode::Bytecode.rank());
    }

    #[test]
    fn trace_kinds_match_fig14_legend() {
        assert_eq!(ExecMode::Bytecode.trace_kind(), 0);
        assert_eq!(ExecMode::NativeUnopt.trace_kind(), 1);
        assert_eq!(ExecMode::NaiveIr.trace_kind(), 3);
        assert_eq!(ExecMode::Native.trace_kind(), 4);
    }

    #[test]
    fn trait_is_object_safe() {
        struct Null;
        impl PipelineBackend for Null {
            fn call(
                &self,
                _args: &[u64],
                _rt: &Registry,
                _frame: &mut Frame,
            ) -> Result<Option<u64>, ExecError> {
                Ok(None)
            }
            fn kind(&self) -> ExecMode {
                ExecMode::Bytecode
            }
        }
        let b: std::sync::Arc<dyn PipelineBackend> = std::sync::Arc::new(Null);
        let mut frame = Frame::new();
        assert_eq!(b.call(&[], &Registry::new(), &mut frame), Ok(None));
    }
}
