//! Shared parameter storage: the interior-mutable value buffer that several
//! model replicas alias across threads ([`crate::ParamStore::alias_values`]).
//!
//! Every data-parallel replica's value tensors alias rank 0's, so W replicas
//! hold one table. Two schedules use it:
//!
//! * **All-reduce** is race-free and deterministic. Its only concurrent
//!   phase (every replica's forward and backward) *reads* the values; the
//!   one writer, rank 0's optimizer step, runs after the join on the caller
//!   thread, and so does the epoch-end renormalization.
//! * **Hogwild** races on purpose. The paper's sparsity premise — a batch
//!   touches only `O(batch)` embedding rows out of `N` — is exactly the
//!   precondition for Hogwild-style asynchronous SGD (Niu et al., 2011):
//!   concurrent workers draw disjoint batch streams, so the rows two workers
//!   step in the same instant are rarely the same, and the occasional
//!   collision merely loses one worker's tiny `-lr · g` increment. The
//!   workers are tasks on one thread pool, so at most as many race as the
//!   pool has threads; on a one-thread pool they take turns and nothing
//!   races.
//!
//! # Safety argument (why racy `f32` writes are acceptable here)
//!
//! Rust's memory model makes concurrent unsynchronized writes to the same
//! location *undefined behavior*, so this module confines them behind two
//! crate-private `unsafe` accessors with a deliberately narrow contract:
//!
//! * **Word-sized, aligned stores.** Every write is a 4-byte aligned `f32`
//!   store. On every platform this crate targets, such stores compile to
//!   single machine instructions that never tear across cache lines; a
//!   racing read observes either the old or the new value, never a
//!   shredded hybrid.
//! * **Mostly-disjoint rows.** Writers step only the rows their own batch
//!   touched. Batches are sparse samples of a large vocabulary, so
//!   cross-worker row collisions are rare; when one happens the result is
//!   a lost or reordered SGD increment — a *statistical* perturbation the
//!   Hogwild convergence analysis tolerates, not a memory-safety hazard.
//! * **No invariants ride on the bytes.** The buffer holds plain `f32`
//!   data. Any bit pattern is a valid `f32` (NaNs included), so no torn
//!   or stale read can forge an invalid value or dangling reference.
//! * **Quiescence at epoch edges.** Both drivers join all workers before
//!   renormalization, evaluation, or embedding dumps, so every
//!   single-threaded consumer observes a fully settled table.
//!
//! The cost is determinism, for the Hogwild arm only: two async runs whose
//! workers overlap interleave updates differently and produce different
//! bits. It exists as
//! an explicitly nondeterministic throughput ablation, validated
//! statistically (loss decreases; final quality within tolerance of the
//! sync arm).

use std::cell::UnsafeCell;

use crate::memory;

/// The interior-mutable buffer behind every shared [`crate::Tensor`].
///
/// Memory-accounting registration travels *into* this wrapper when a tensor
/// is first aliased and is released exactly once, when the last handle
/// drops — aliasing replicas add no accounted bytes.
pub(crate) struct SharedBuf {
    cell: UnsafeCell<Vec<f32>>,
    len: usize,
}

// SAFETY: `SharedBuf` hands out overlapping `&[f32]` / `&mut [f32]` views
// across threads through `unsafe` accessors only. The module-level safety
// argument (aligned word-sized f32 stores, mostly-disjoint rows, no
// invariants on the bytes, quiescence before single-threaded reads) is the
// contract those accessors impose on their callers.
unsafe impl Send for SharedBuf {}
unsafe impl Sync for SharedBuf {}

impl SharedBuf {
    /// Wraps `data`, inheriting its memory-accounting registration (the
    /// caller must already have registered these bytes; this type's `Drop`
    /// deregisters them).
    pub(crate) fn new(data: Vec<f32>) -> Self {
        Self {
            len: data.len(),
            cell: UnsafeCell::new(data),
        }
    }

    /// The full buffer as a shared slice.
    ///
    /// # Safety
    ///
    /// Concurrent writers may be racing this read (see the module-level
    /// safety argument); the caller must tolerate torn *logical* state
    /// (each `f32` individually is old-or-new, but different elements may
    /// be from different instants).
    #[inline]
    pub(crate) unsafe fn slice(&self) -> &[f32] {
        &*self.cell.get()
    }

    /// The full buffer as a mutable slice, from a shared reference.
    ///
    /// # Safety
    ///
    /// This intentionally allows aliasing `&mut [f32]` views across
    /// threads — the Hogwild contract. The caller must restrict writes to
    /// aligned `f32` stores into rows it owns per the module-level
    /// argument, and must not hold the slice across an operation that
    /// frees or resizes the buffer (the buffer is never resized after
    /// construction).
    #[inline]
    #[allow(clippy::mut_from_ref)] // interior mutability is this type's entire purpose
    pub(crate) unsafe fn slice_mut(&self) -> &mut [f32] {
        &mut *self.cell.get()
    }
}

impl Drop for SharedBuf {
    fn drop(&mut self) {
        memory::deregister((self.len * 4) as u64);
    }
}

impl std::fmt::Debug for SharedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Opaque: reading the contents here could race live writers.
        f.debug_struct("SharedBuf").field("len", &self.len).finish()
    }
}
