//! Typed `u32` keys, dense keyed vectors, and word-packed bitsets.
//!
//! The compile pipeline is allocation-bound, not compute-bound: every id in
//! the IR (`ValueId`, `BlockId`, …) is a dense index into a per-compile
//! arena, so side tables never need hashing — a `KVec<K, V>` (a `Vec`
//! indexed by a typed key) replaces `HashMap<K, V>`, and a [`BitSet`]
//! replaces `HashSet<K>`. Both are O(1) with no hashing, no probing, and —
//! crucially for compile latency — one allocation for the whole table
//! instead of incremental rehash growth. All of it is safe code; the typed
//! keys exist precisely so a `BlockId` can't index a value table.

use std::marker::PhantomData;

/// A typed dense index. Implemented via [`define_key!`](crate::define_key).
pub trait Key: Copy {
    fn index(self) -> usize;
    fn from_index(i: usize) -> Self;
}

/// Defines a `u32` newtype key: `define_key!(pub struct Foo = "f");` makes a
/// `Copy + Ord + Hash` id displayed as `f{n}` that implements [`Key`] and
/// indexes [`KVec`]s.
#[macro_export]
macro_rules! define_key {
    ($(#[$meta:meta])* $vis:vis struct $Name:ident = $prefix:literal;) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
        $vis struct $Name(pub u32);

        impl $Name {
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl $crate::key::Key for $Name {
            fn index(self) -> usize {
                self.0 as usize
            }
            fn from_index(i: usize) -> Self {
                $Name(i as u32)
            }
        }

        impl std::fmt::Display for $Name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

/// A dense map from a typed key to `V`: a `Vec` that can only be indexed by
/// `K`. The replacement for `HashMap<ValueId, V>` everywhere the key space
/// is the contiguous id range of one function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KVec<K: Key, V> {
    raw: Vec<V>,
    _key: PhantomData<fn(K)>,
}

impl<K: Key, V> Default for KVec<K, V> {
    fn default() -> Self {
        KVec { raw: Vec::new(), _key: PhantomData }
    }
}

impl<K: Key, V> KVec<K, V> {
    pub fn new() -> Self {
        Self::default()
    }

    /// A table with `n` slots, all `fill`.
    pub fn filled(fill: V, n: usize) -> Self
    where
        V: Clone,
    {
        KVec { raw: vec![fill; n], _key: PhantomData }
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }

    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    pub fn push(&mut self, v: V) -> K {
        let k = K::from_index(self.raw.len());
        self.raw.push(v);
        k
    }

    pub fn get(&self, k: K) -> Option<&V> {
        self.raw.get(k.index())
    }

    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        (0..self.raw.len()).map(K::from_index)
    }

    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.raw.iter().enumerate().map(|(i, v)| (K::from_index(i), v))
    }

    /// Reset every slot to `fill`, growing to `n` slots — reuses the
    /// allocation (the fixpoint-loop idiom: one table, many passes).
    pub fn reset(&mut self, fill: V, n: usize)
    where
        V: Clone,
    {
        self.raw.clear();
        self.raw.resize(n, fill);
    }
}

impl<K: Key, V> std::ops::Index<K> for KVec<K, V> {
    type Output = V;
    fn index(&self, k: K) -> &V {
        &self.raw[k.index()]
    }
}

impl<K: Key, V> std::ops::IndexMut<K> for KVec<K, V> {
    fn index_mut(&mut self, k: K) -> &mut V {
        &mut self.raw[k.index()]
    }
}

/// A fixed-capacity bitset over dense indices, packed 64 per word. The
/// replacement for `HashSet<ValueId>` / `Vec<bool>` in liveness and
/// dataflow, where sets are unioned wholesale word-by-word.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set with capacity for indices `0..n`.
    pub fn with_capacity(n: usize) -> BitSet {
        BitSet { words: vec![0; n.div_ceil(64)] }
    }

    /// Clear all bits, growing capacity to `n` — reuses the allocation.
    pub fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    pub fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    /// Sets the bit; returns whether it was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & m == 0;
        self.words[w] |= m;
        was
    }

    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    pub fn contains(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// `self |= other`; returns whether any bit changed (the dataflow
    /// fixpoint test, one branch per 64 ids).
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = 0u64;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next ^ *a;
            *a = next;
        }
        changed != 0
    }

    pub fn clear_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate set indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    pub fn as_words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    define_key! {
        struct TestKey = "t";
    }

    #[test]
    fn key_roundtrip_and_display() {
        let k = TestKey::from_index(7);
        assert_eq!(k.index(), 7);
        assert_eq!(k.to_string(), "t7");
        assert_eq!(k, TestKey(7));
    }

    #[test]
    fn kvec_push_and_index() {
        let mut v: KVec<TestKey, u32> = KVec::new();
        let a = v.push(10);
        let b = v.push(20);
        assert_eq!(v[a], 10);
        assert_eq!(v[b], 20);
        v[a] = 11;
        assert_eq!(v[a], 11);
        assert_eq!(v.len(), 2);
        assert_eq!(v.iter().map(|(_, &x)| x).sum::<u32>(), 31);
        assert_eq!(v.keys().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn kvec_reset_reuses_allocation() {
        let mut v: KVec<TestKey, u8> = KVec::filled(3, 100);
        assert_eq!(v.len(), 100);
        v.reset(0, 50);
        assert_eq!(v.len(), 50);
        assert_eq!(v[TestKey(49)], 0);
        assert_eq!(v.get(TestKey(50)), None);
    }

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::with_capacity(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64)); // already present
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(4096)); // out of capacity = absent
        assert_eq!(s.count(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn bitset_union_detects_change() {
        let mut a = BitSet::with_capacity(128);
        let mut b = BitSet::with_capacity(128);
        b.insert(3);
        b.insert(100);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b)); // fixpoint
        assert!(a.contains(3) && a.contains(100));
        a.clear_all();
        assert_eq!(a.count(), 0);
        a.reset(64);
        assert_eq!(a.capacity(), 64);
    }
}
