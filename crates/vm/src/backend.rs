//! The unified execution-backend seam (paper Fig. 5).
//!
//! Every way of running a worker function — direct IR walking, the
//! bytecode VM, and the two configurations of `aqe-jit`'s native emitter —
//! implements [`PipelineBackend`]. The engine's morsel loop calls through a single
//! `Arc<dyn PipelineBackend>` handle and never branches on the mode; the
//! adaptive controller switches a pipeline mid-flight by atomically
//! publishing a different backend into that handle.
//!
//! Two vocabularies meet here: [`ExecMode`] is what a caller asks for,
//! [`ExecLevel`] is what a backend is. The trait lives at the bottom of
//! the crate stack because its vocabulary types ([`Frame`], [`Registry`],
//! [`ExecError`]) do and because both `aqe-vm` and `aqe-jit` provide
//! implementations.

use crate::interp::{ExecError, Frame};
use crate::rt::Registry;

/// How to execute a query (Fig. 3's four modes). The first three pin a
/// level of the ladder; `Adaptive` is the engine policy that starts
/// interpreted and upgrades at runtime. Where `aqe-jit` has no emitter
/// (off x86-64 Linux, or `AQE_NATIVE=0`) the two compiled modes run the
/// bytecode backend.
///
/// A filtered scan's vectorized pre-filter is not a mode: the engine's
/// morsel loop runs it in front of whichever backend the mode installs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExecMode {
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

/// The rungs of the ladder (paper Fig. 3): what a backend is, what a
/// pipeline is running at, what a compilation targets, and the index of a
/// pipeline's tier table. `Interpreted` is the bytecode VM (or the naive
/// IR walker it degrades to); `Unoptimized` and `Optimized` are the two
/// configurations of the native emitter. The discriminant is also the
/// backend code of an execution trace (Fig. 14).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ExecLevel {
    Interpreted,
    Unoptimized,
    Optimized,
}

impl ExecLevel {
    /// The levels a compilation can target, in rank order.
    pub const COMPILED: [ExecLevel; 2] = [ExecLevel::Unoptimized, ExecLevel::Optimized];

    /// Number of levels (the size of a tier table).
    pub const COUNT: usize = Self::COMPILED.len() + 1;

    /// The level with discriminant `i` (`Optimized` for anything larger).
    pub fn from_index(i: u8) -> ExecLevel {
        match i {
            0 => ExecLevel::Interpreted,
            1 => ExecLevel::Unoptimized,
            _ => ExecLevel::Optimized,
        }
    }

    /// The next rung down (`None` below `Interpreted`): where a pipeline
    /// degrades to when this level cannot be compiled.
    pub fn below(self) -> Option<ExecLevel> {
        (self as u8).checked_sub(1).map(ExecLevel::from_index)
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

    /// The rung of the ladder this backend is.
    fn level(&self) -> ExecLevel;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_ordered_and_adaptive_starts_at_bytecode() {
        // A backend's rank is its level. `Adaptive` has no rank of its own:
        // it starts on the bottom rung, which the bytecode VM shares with
        // the IR walker it degrades to.
        use crate::naive::NaiveBackend;
        use crate::translate::{translate, TranslateOptions};
        use aqe_ir::{FunctionBuilder, Type};

        assert!(ExecLevel::Interpreted < ExecLevel::Unoptimized);
        assert!(ExecLevel::Unoptimized < ExecLevel::Optimized);
        let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let p = b.param(0);
        b.ret(Some(p.into()));
        let f = std::sync::Arc::new(b.finish().unwrap());
        let bc = translate(&f, &[], TranslateOptions::default()).unwrap();
        assert_eq!(bc.level(), ExecLevel::Interpreted);
        assert_eq!(NaiveBackend::new(f).level(), ExecLevel::Interpreted);
    }

    #[test]
    fn trace_kinds_match_fig14_legend() {
        // A morsel's trace kind is its backend's level; 255 marks a
        // compile and never names a level.
        assert_eq!(ExecLevel::Interpreted as u8, 0);
        assert_eq!(ExecLevel::Unoptimized as u8, 1);
        assert_eq!(ExecLevel::Optimized as u8, 2);
        assert_eq!(ExecLevel::COUNT, 3);
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
            fn level(&self) -> ExecLevel {
                ExecLevel::Interpreted
            }
        }
        let b: std::sync::Arc<dyn PipelineBackend> = std::sync::Arc::new(Null);
        let mut frame = Frame::new();
        assert_eq!(b.call(&[], &Registry::new(), &mut frame), Ok(None));
    }
}
