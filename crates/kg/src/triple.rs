//! Triples and triple collections.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{Error, Result};

/// One knowledge-graph fact: `(head, relation, tail)` as dense indices.
///
/// # Examples
///
/// ```
/// let t = kg::Triple::new(0, 2, 5);
/// assert_eq!(t.head, 0);
/// assert_eq!(t.rel, 2);
/// assert_eq!(t.tail, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Head (subject) entity index.
    pub head: u32,
    /// Relation (predicate) index.
    pub rel: u32,
    /// Tail (object) entity index.
    pub tail: u32,
}

impl Triple {
    /// Creates a triple.
    pub const fn new(head: u32, rel: u32, tail: u32) -> Self {
        Self { head, rel, tail }
    }
}

/// A columnar collection of triples (structure-of-arrays).
///
/// Columnar storage is what the incidence builders and batch iterators
/// consume directly, avoiding a transpose per mini-batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TripleStore {
    heads: Vec<u32>,
    rels: Vec<u32>,
    tails: Vec<u32>,
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            heads: Vec::with_capacity(n),
            rels: Vec::with_capacity(n),
            tails: Vec::with_capacity(n),
        }
    }

    /// Appends one triple.
    pub fn push(&mut self, t: Triple) {
        self.heads.push(t.head);
        self.rels.push(t.rel);
        self.tails.push(t.tail);
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Head column.
    pub fn heads(&self) -> &[u32] {
        &self.heads
    }

    /// Relation column.
    pub fn rels(&self) -> &[u32] {
        &self.rels
    }

    /// Tail column.
    pub fn tails(&self) -> &[u32] {
        &self.tails
    }

    /// The `i`-th triple.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Triple {
        Triple::new(self.heads[i], self.rels[i], self.tails[i])
    }

    /// Iterates all triples.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Validates all indices against entity/relation counts.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] naming the first offending triple.
    pub fn validate(&self, num_entities: usize, num_relations: usize) -> Result<()> {
        for (i, t) in self.iter().enumerate() {
            if t.head as usize >= num_entities || t.tail as usize >= num_entities {
                return Err(Error::IndexOutOfBounds {
                    context: format!(
                        "triple {i} = ({}, {}, {}) exceeds entity count {num_entities}",
                        t.head, t.rel, t.tail
                    ),
                });
            }
            if t.rel as usize >= num_relations {
                return Err(Error::IndexOutOfBounds {
                    context: format!(
                        "triple {i} = ({}, {}, {}) exceeds relation count {num_relations}",
                        t.head, t.rel, t.tail
                    ),
                });
            }
        }
        Ok(())
    }

    /// Returns a sub-store for `range` (used by batch sharding).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> TripleStore {
        TripleStore {
            heads: self.heads[range.clone()].to_vec(),
            rels: self.rels[range.clone()].to_vec(),
            tails: self.tails[range].to_vec(),
        }
    }

    /// Splits into `(first, second)` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at > len()`.
    pub fn split_at(&self, at: usize) -> (TripleStore, TripleStore) {
        (self.slice(0..at), self.slice(at..self.len()))
    }

    /// Deterministically shuffles the store with the given seed.
    pub fn shuffled(&self, seed: u64) -> TripleStore {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut perm: Vec<usize> = (0..self.len()).collect();
        perm.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let mut out = TripleStore::with_capacity(self.len());
        for &i in &perm {
            out.push(self.get(i));
        }
        out
    }
}

impl FromIterator<Triple> for TripleStore {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut s = TripleStore::new();
        for t in iter {
            s.push(t);
        }
        s
    }
}

impl Extend<Triple> for TripleStore {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }
}

/// The Fx hash (rustc's): each word is folded in with a rotate, an xor and
/// one multiply, so a [`Triple`] costs three multiplies where SipHash-1-3
/// costs a few dozen rounds. It is fixed and not DoS-resistant, which is
/// fine for its one use: sets keyed by the bounds-checked ids of the user's
/// own dataset.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TripleHasher(u64);

impl TripleHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for TripleHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of triples under [`TripleHasher`].
pub(crate) type TripleHashSet = HashSet<Triple, BuildHasherDefault<TripleHasher>>;

/// A hash set of known triples, used for filtered evaluation and for
/// rejecting false-negative samples.
#[derive(Debug, Clone, Default)]
pub struct TripleSet {
    set: TripleHashSet,
}

impl TripleSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from any number of stores (train + valid + test for the
    /// "filtered" protocol).
    pub fn from_stores<'a>(stores: impl IntoIterator<Item = &'a TripleStore>) -> Self {
        let mut set = TripleHashSet::default();
        for s in stores {
            set.extend(s.iter());
        }
        Self { set }
    }

    /// Inserts a triple; returns whether it was new.
    pub fn insert(&mut self, t: Triple) -> bool {
        self.set.insert(t)
    }

    /// Membership test.
    pub fn contains(&self, t: &Triple) -> bool {
        self.set.contains(t)
    }

    /// Iterates the distinct triples (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.set.iter().copied()
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> TripleStore {
        [
            Triple::new(0, 0, 1),
            Triple::new(1, 1, 2),
            Triple::new(2, 0, 0),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn columnar_round_trip() {
        let s = sample_store();
        assert_eq!(s.len(), 3);
        assert_eq!(s.heads(), &[0, 1, 2]);
        assert_eq!(s.rels(), &[0, 1, 0]);
        assert_eq!(s.tails(), &[1, 2, 0]);
        assert_eq!(s.get(1), Triple::new(1, 1, 2));
        let collected: Vec<Triple> = s.iter().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn validation_catches_bad_indices() {
        let s = sample_store();
        assert!(s.validate(3, 2).is_ok());
        assert!(matches!(
            s.validate(2, 2),
            Err(Error::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            s.validate(3, 1),
            Err(Error::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn slicing_and_splitting() {
        let s = sample_store();
        let (a, b) = s.split_at(1);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0), Triple::new(1, 1, 2));
        let mid = s.slice(1..2);
        assert_eq!(mid.get(0), Triple::new(1, 1, 2));
    }

    #[test]
    fn shuffle_is_deterministic_permutation() {
        let s = sample_store();
        let a = s.shuffled(42);
        let b = s.shuffled(42);
        assert_eq!(a, b);
        let mut orig: Vec<Triple> = s.iter().collect();
        let mut shuf: Vec<Triple> = a.iter().collect();
        orig.sort();
        shuf.sort();
        assert_eq!(orig, shuf);
    }

    #[test]
    fn triple_set_membership() {
        let s = sample_store();
        let set = TripleSet::from_stores([&s]);
        assert_eq!(set.len(), 3);
        assert!(set.contains(&Triple::new(0, 0, 1)));
        assert!(!set.contains(&Triple::new(0, 0, 2)));
        let mut set = set;
        assert!(set.insert(Triple::new(9, 9, 9)));
        assert!(!set.insert(Triple::new(9, 9, 9)));
    }
}
