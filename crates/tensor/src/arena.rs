//! A recycling buffer arena for steady-state allocation-free training.
//!
//! The training step records the *same* tape shape batch after batch: every
//! node value, node gradient, kernel output, and backward temporary has a
//! size that recurs identically on the next batch. Allocating (and zeroing)
//! each of those buffers fresh makes the step allocator-bound at the margins
//! — thousands of page-faulting `malloc`/`memset` cycles per epoch that do
//! no arithmetic. The [`Arena`] breaks that cycle: buffers are *reclaimed*
//! on tape reset instead of dropped, and the next request for the same
//! length pops the recycled buffer off a free list.
//!
//! # Design
//!
//! * **Length-keyed free lists.** A [`crate::Tensor`] is a flat row-major
//!   `Vec<f32>`, so the only shape component that matters for reuse is the
//!   element count — an `(m, 1)` column and a `(1, m)` row share a bucket.
//! * **Reclaimed buffers stay registered.** [`crate::memory`] accounting
//!   treats a pooled buffer as live: [`Arena::reclaim`] does *not*
//!   deregister, and [`crate::Tensor::zeros_in`] /
//!   [`crate::Tensor::uninit_in`] do not re-register on a pool hit. Only a
//!   pool **miss** performs (and counts) a real heap allocation, so
//!   [`crate::memory::alloc_count`] is flat once the working set is warm,
//!   and [`crate::memory::peak_bytes`] keeps its meaning as the
//!   high-water mark of the live working set.
//! * **Determinism is untouched.** Recycling changes buffer *identity*,
//!   never arithmetic order. `zeros_in` zero-fills a recycled buffer exactly
//!   as a fresh allocation would be zeroed; `uninit_in` hands back stale
//!   contents and is only used by kernels that fully overwrite their output.
//!
//! # Examples
//!
//! ```
//! use tensor::{memory, Arena, Tensor};
//!
//! let mut arena = Arena::new();
//! let t = Tensor::zeros_in(&mut arena, 8, 4); // pool miss: heap-allocates
//! let allocs = memory::alloc_count();
//! arena.reclaim(t);
//! let t = Tensor::zeros_in(&mut arena, 8, 4); // pool hit: no allocation
//! assert_eq!(memory::alloc_count(), allocs);
//! assert!(t.as_slice().iter().all(|&x| x == 0.0));
//! ```

use std::collections::HashMap;

use crate::{memory, Tensor};

/// A length-keyed free-list pool of `f32` buffers (see the module docs).
///
/// The autograd tape ([`crate::Graph`]) owns one arena and draws every node
/// value, node gradient, and backward temporary from it; [`crate::Graph::reset`]
/// returns them all. Long-lived training drivers therefore perform zero
/// tensor-buffer heap allocations once the first batch has populated the
/// pool.
#[derive(Debug, Default)]
pub struct Arena {
    buckets: HashMap<usize, Vec<Vec<f32>>>,
    held_bytes: u64,
    hits: u64,
    misses: u64,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pops a recycled buffer of exactly `len` elements, if one is pooled.
    ///
    /// Registration ownership transfers to the caller: the buffer's bytes
    /// are already counted in [`memory::current_bytes`], and the `Tensor`
    /// built around it will deregister them on its final drop.
    pub(crate) fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        match self.buckets.get_mut(&len).and_then(Vec::pop) {
            Some(buf) => {
                debug_assert_eq!(buf.len(), len);
                self.hits += 1;
                self.held_bytes -= (len * 4) as u64;
                Some(buf)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Returns a tensor's buffer to the pool for reuse.
    ///
    /// The buffer's bytes **stay registered** with [`crate::memory`] — a
    /// pooled buffer is part of the live working set, so `current_bytes`
    /// and `peak_bytes` are unaffected by recycling round-trips. A shared
    /// tensor is dropped instead; its bytes stay with the other handles.
    pub fn reclaim(&mut self, t: Tensor) {
        if let Some(data) = t.into_raw_registered() {
            self.held_bytes += (data.len() * 4) as u64;
            self.buckets.entry(data.len()).or_default().push(data);
        }
    }

    /// Frees every pooled buffer (deregistering their bytes).
    pub fn clear(&mut self) {
        memory::deregister(self.held_bytes);
        self.held_bytes = 0;
        self.buckets.clear();
    }

    /// Bytes currently held by pooled (recycled, not in use) buffers.
    pub fn held_bytes(&self) -> u64 {
        self.held_bytes
    }

    /// Number of pooled buffers across all buckets.
    pub fn pooled_buffers(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// Requests served from the pool since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that fell through to a fresh heap allocation.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        // Pooled buffers are registered; release their accounting with them.
        memory::deregister(self.held_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::tests::alone_in_process;

    // NOTE: tests in this binary run concurrently, so only the arena-local
    // hit/miss counters are race-free; the tests that assert on the
    // *global* byte counters run `alone_in_process`. The process-wide
    // `memory::alloc_count()` flatness guarantee is asserted by the
    // single-test integration binary `sptransx/tests/alloc_regression.rs`.
    #[test]
    fn hit_reuses_buffer_instead_of_allocating() {
        let mut arena = Arena::new();
        let t = Tensor::zeros_in(&mut arena, 4, 4);
        assert_eq!(arena.misses(), 1);
        arena.reclaim(t);
        assert_eq!(arena.pooled_buffers(), 1);
        let t = Tensor::zeros_in(&mut arena, 4, 4);
        assert_eq!(arena.hits(), 1, "second request must be served by the pool");
        assert_eq!(arena.misses(), 1);
        assert_eq!(arena.pooled_buffers(), 0);
        assert_eq!(t.shape(), (4, 4));
    }

    #[test]
    fn zeros_in_scrubs_recycled_contents() {
        let mut arena = Arena::new();
        let mut t = Tensor::zeros_in(&mut arena, 2, 3);
        t.as_mut_slice().fill(7.5);
        arena.reclaim(t);
        let t = Tensor::zeros_in(&mut arena, 2, 3);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
        // uninit_in hands the stale buffer back as-is (callers overwrite).
        arena.reclaim(t);
        let mut u = Tensor::uninit_in(&mut arena, 3, 2);
        u.as_mut_slice().fill(1.0);
        assert_eq!(u.shape(), (3, 2)); // (2,3) and (3,2) share a bucket
    }

    #[test]
    fn length_mismatch_is_a_miss() {
        let mut arena = Arena::new();
        let t = Tensor::zeros_in(&mut arena, 2, 2);
        arena.reclaim(t);
        let _bigger = Tensor::zeros_in(&mut arena, 4, 4);
        assert_eq!(arena.misses(), 2);
        assert_eq!(arena.pooled_buffers(), 1); // the 2x2 buffer is still pooled
    }

    #[test]
    fn reclaimed_bytes_stay_registered_until_clear() {
        if !alone_in_process("arena::tests::reclaimed_bytes_stay_registered_until_clear") {
            return;
        }
        let mut arena = Arena::new();
        let before = memory::current_bytes();
        let t = Tensor::zeros_in(&mut arena, 10, 10);
        assert_eq!(memory::current_bytes(), before + 400);
        arena.reclaim(t);
        assert_eq!(
            memory::current_bytes(),
            before + 400,
            "pooled buffers are live working set"
        );
        assert_eq!(arena.held_bytes(), 400);
        arena.clear();
        assert_eq!(memory::current_bytes(), before);
        assert_eq!(arena.pooled_buffers(), 0);
    }

    #[test]
    fn drop_releases_held_accounting() {
        if !alone_in_process("arena::tests::drop_releases_held_accounting") {
            return;
        }
        let before = memory::current_bytes();
        {
            let mut arena = Arena::new();
            let t = Tensor::zeros_in(&mut arena, 8, 8);
            arena.reclaim(t);
            assert!(memory::current_bytes() >= before + 256);
        }
        assert_eq!(memory::current_bytes(), before);
    }
}
