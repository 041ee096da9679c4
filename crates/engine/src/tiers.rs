//! The per-pipeline tier table: one compile-once entry per [`ExecLevel`].
//!
//! A prepared query's compiled state holds one [`TierTable`] per pipeline.
//! An entry is the single place a level's backend is claimed, compiled and
//! read: [`get_or_compile`](TierTable::get_or_compile) holds the entry's
//! latch across the compile, so however many executions ask for a level —
//! a static mode pinning it, the adaptive controller compiling on a
//! morsel worker, a warm start reading [`best`](TierTable::best) —
//! it compiles at most once per prepared state and every caller receives
//! the same `Arc`. A filled entry is never replaced or cleared; the whole
//! table dies with its prepared state when the catalog version changes.
//!
//! What each level is (DESIGN.md §7):
//!
//! | level | backend |
//! |---|---|
//! | `Interpreted` | bytecode (`aqe_vm::translate`) |
//! | `Unoptimized` | `compile_native_at(.., OptLevel::Unoptimized)` |
//! | `Optimized` | `compile_native_at(.., OptLevel::Optimized)` |
//!
//! No entry's compile reads or latches another entry.

use crate::sched::ExecLevel;
use aqe_ir::{ExternDecl, Function};
use aqe_jit::compile::OptLevel;
use aqe_jit::native::{self, compile_native_at};
use aqe_vm::backend::PipelineBackend;
use aqe_vm::translate::{translate, TranslateOptions};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A level's backend as handed out by [`TierTable::get_or_compile`].
pub struct Claimed {
    pub backend: Arc<dyn PipelineBackend>,
    /// Wall time of the compile, when this call paid for it (the report's
    /// `bc_translate` / `upfront_compile`). `None` when the entry was
    /// already filled and this call compiled nothing.
    pub compiled_in: Option<Duration>,
}

type Entry = Mutex<Option<Arc<dyn PipelineBackend>>>;

/// One pipeline's backends, indexed by [`ExecLevel`] (see module docs).
pub struct TierTable {
    function: Arc<Function>,
    externs: Arc<Vec<ExternDecl>>,
    entries: [Entry; ExecLevel::COUNT],
    /// Highest filled level (`Interpreted` while nothing is compiled), for
    /// lock-free polling. Published with `Release` after the entry is
    /// written, read with `Acquire` before the entry is.
    best: AtomicU8,
    /// Backends built so far — equals the number of filled entries, which
    /// is what "each level compiles at most once" means.
    builds: AtomicU64,
}

impl TierTable {
    pub fn new(function: Arc<Function>, externs: Arc<Vec<ExternDecl>>) -> TierTable {
        TierTable {
            function,
            externs,
            entries: Default::default(),
            best: AtomicU8::new(ExecLevel::Interpreted as u8),
            builds: AtomicU64::new(0),
        }
    }

    /// The worker function every entry is compiled from.
    pub fn function(&self) -> &Arc<Function> {
        &self.function
    }

    /// Highest level this table can reach in this process: `Optimized`,
    /// or `Interpreted` without an emitter (bytecode only).
    pub fn ceiling(&self) -> ExecLevel {
        if native::enabled() {
            ExecLevel::Optimized
        } else {
            ExecLevel::Interpreted
        }
    }

    /// Highest filled compiled level — lock-free; `Interpreted` while no
    /// compiled entry is filled.
    pub fn best_level(&self) -> ExecLevel {
        ExecLevel::from_index(self.best.load(Ordering::Acquire))
    }

    /// The backend at the highest filled level, if any entry is filled:
    /// what a warm start begins on.
    pub fn best(&self) -> Option<Arc<dyn PipelineBackend>> {
        self.get(self.best_level())
    }

    /// `level`'s backend if some caller already compiled it.
    pub fn get(&self, level: ExecLevel) -> Option<Arc<dyn PipelineBackend>> {
        self.entries[level as usize].lock().clone()
    }

    /// Backends built so far (see the field).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// `level`'s backend: read if filled, else compiled and filled under
    /// the entry's latch (racing callers wait and then read). The error is
    /// the compiler's message.
    pub fn get_or_compile(&self, level: ExecLevel) -> Result<Claimed, String> {
        let mut entry = self.entries[level as usize].lock();
        if let Some(b) = &*entry {
            return Ok(Claimed { backend: b.clone(), compiled_in: None });
        }
        let t0 = Instant::now();
        let backend = self.compile(level)?;
        *entry = Some(backend.clone());
        self.best.fetch_max(level as u8, Ordering::Release);
        self.builds.fetch_add(1, Ordering::Relaxed);
        Ok(Claimed { backend, compiled_in: Some(t0.elapsed()) })
    }

    fn compile(&self, level: ExecLevel) -> Result<Arc<dyn PipelineBackend>, String> {
        let native_at = |opt: OptLevel| {
            compile_native_at(&self.function, &self.externs, opt)
                .map(|nf| Arc::new(nf) as Arc<dyn PipelineBackend>)
                .map_err(|e| e.to_string())
        };
        match level {
            ExecLevel::Interpreted => {
                aqe_fault::failpoint("bc_translate")?;
                translate(&self.function, &self.externs, TranslateOptions::default())
                    .map(|bc| Arc::new(bc) as Arc<dyn PipelineBackend>)
                    .map_err(|e| e.to_string())
            }
            ExecLevel::Unoptimized => native_at(OptLevel::Unoptimized),
            ExecLevel::Optimized => native_at(OptLevel::Optimized),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TierTable {
        use aqe_ir::{FunctionBuilder, Type};
        let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let p = b.param(0);
        b.ret(Some(p.into()));
        TierTable::new(Arc::new(b.finish().unwrap()), Arc::new(Vec::new()))
    }

    #[test]
    fn a_level_compiles_once_and_every_reader_gets_the_same_backend() {
        let t = table();
        assert!(t.best().is_none(), "a fresh table is empty");
        let first = t.get_or_compile(ExecLevel::Interpreted).unwrap();
        assert!(first.compiled_in.is_some());
        let again = t.get_or_compile(ExecLevel::Interpreted).unwrap();
        assert!(again.compiled_in.is_none(), "the second claim reads");
        assert!(Arc::ptr_eq(&first.backend, &again.backend));
        assert!(Arc::ptr_eq(&first.backend, &t.best().unwrap()));
        assert_eq!(t.builds(), 1);
    }

    #[test]
    fn best_is_the_highest_filled_level_regardless_of_arrival_order() {
        if !native::enabled() {
            assert_eq!(table().ceiling(), ExecLevel::Interpreted);
            return;
        }
        let t = table();
        assert_eq!(t.ceiling(), ExecLevel::Optimized);
        t.get_or_compile(ExecLevel::Optimized).unwrap();
        assert_eq!(t.best_level(), ExecLevel::Optimized);
        // A lower level arriving late fills its own entry and leaves best.
        t.get_or_compile(ExecLevel::Unoptimized).unwrap();
        assert_eq!(t.best_level(), ExecLevel::Optimized);
        assert_eq!(t.best().unwrap().level(), ExecLevel::Optimized);
        assert_eq!(t.get(ExecLevel::Unoptimized).unwrap().level(), ExecLevel::Unoptimized);
        assert!(t.get(ExecLevel::Interpreted).is_none());
        assert_eq!(t.builds(), 2);
    }
}
