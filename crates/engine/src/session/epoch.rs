//! The epoch cell: the one shared-state discipline of the session layer.
//!
//! Everything the engine shares between concurrent executions — the
//! catalog and a prepared query's compiled state — follows the same
//! pattern: an immutable value behind an
//! `Arc`, published into a cell whose critical sections are a single
//! pointer copy. Readers [`get`](EpochCell::get) a clone and then work
//! lock-free on their private epoch for as long as they like; writers
//! build a complete replacement off to the side and [`set`](EpochCell::set)
//! it in one store. Nothing ever holds the cell across a morsel loop, a
//! compile, or a catalog rebuild.
//!
//! (The cell itself is an `RwLock` around a `Clone` value rather than a
//! bespoke atomic-pointer swap: with both guards held only for the
//! duration of an `Arc` clone or store, the lock is uncontendable in
//! practice, and it sidesteps the ABA/reclamation subtleties a hand-rolled
//! lock-free cell would need — the vendored `parking_lot` stand-in wraps
//! `std::sync`, whose uncontended fast path is a single atomic op.)

use parking_lot::RwLock;

/// A cell holding the current epoch of a shared value (typically an
/// `Arc<T>` or `Option<Arc<T>>`): O(1) critical sections, clone-out reads,
/// whole-value writes.
pub(crate) struct EpochCell<T: Clone> {
    cell: RwLock<T>,
}

impl<T: Clone> EpochCell<T> {
    pub fn new(value: T) -> EpochCell<T> {
        EpochCell { cell: RwLock::new(value) }
    }

    /// Clone the current epoch out of the cell. The guard is released
    /// before this returns; the caller's copy is immune to later `set`s.
    pub fn get(&self) -> T {
        self.cell.read().clone()
    }

    /// Publish a new epoch. Readers that already `get` their copy are
    /// unaffected; the next `get` sees the new value.
    pub fn set(&self, value: T) {
        *self.cell.write() = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn readers_keep_their_epoch_across_a_set() {
        let cell = EpochCell::new(Arc::new(1));
        let pinned = cell.get();
        cell.set(Arc::new(2));
        assert_eq!(*pinned, 1, "a reader's clone is immune to later publishes");
        assert_eq!(*cell.get(), 2);
    }
}
