//! Global tensor-memory accounting.
//!
//! The paper reports peak CUDA memory per framework (Table 5, Figure 6).
//! Our analog: every [`crate::Tensor`] buffer registers its byte size on
//! allocation and deregisters on drop, and we track the running and peak
//! totals. Peak can be reset per phase (e.g. per training run) just like
//! `torch.cuda.reset_peak_memory_stats`.
//!
//! Two counters with distinct meanings:
//!
//! * **Bytes** ([`current_bytes`] / [`peak_bytes`]) measure the live working
//!   set. Buffers recycled through an [`crate::Arena`] **stay registered**
//!   while pooled — recycling changes who holds a buffer, not whether it is
//!   part of the working set — so `peak_bytes` keeps its Table-5 meaning
//!   under the allocation-free training step.
//! * **Allocations** ([`alloc_count`]) count real heap allocations of
//!   tensor buffers. An arena pool *hit* does not bump it; only fresh
//!   allocations (pool misses included) do. The steady-state training step
//!   is required to keep this counter flat once every batch shape has been
//!   seen once — from batch 2 onward with uniform batches; a smaller
//!   ragged final batch warms the pool for its shapes on its first
//!   occurrence only. The regression tests assert exactly that.
//!
//! # Examples
//!
//! ```
//! use tensor::{memory, Tensor};
//!
//! memory::reset_peak();
//! let before = memory::current_bytes();
//! let t = Tensor::zeros(64, 64);
//! assert!(memory::current_bytes() >= before + 64 * 64 * 4);
//! drop(t);
//! assert!(memory::peak_bytes() >= before + 64 * 64 * 4);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Registers an allocation of `bytes`.
pub(crate) fn register(bytes: u64) {
    if bytes > 0 {
        // Zero-length tensors never touch the heap; don't count them.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    let cur = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(cur, Ordering::Relaxed);
}

/// Deregisters an allocation of `bytes`.
pub(crate) fn deregister(bytes: u64) {
    CURRENT.fetch_sub(bytes, Ordering::Relaxed);
}

/// Currently live tensor bytes.
pub fn current_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// High-water mark of live tensor bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak to the current live total.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Monotone count of tensor-buffer heap allocations since process start.
///
/// Snapshot before and after a region and subtract to measure its
/// allocation traffic; an arena-served (recycled) buffer does not count.
/// This is process-global and monotone, so concurrent tests only ever
/// *overcount* a region's delta — an assertion that a delta is zero is
/// therefore conservative.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// RAII scope that reports the peak-over-scope delta.
///
/// # Examples
///
/// ```
/// let scope = tensor::memory::MemoryScope::start();
/// let t = tensor::Tensor::zeros(128, 128);
/// drop(t);
/// assert!(scope.peak_delta_bytes() >= 128 * 128 * 4);
/// ```
#[derive(Debug)]
pub struct MemoryScope {
    baseline: u64,
}

impl MemoryScope {
    /// Starts a scope: resets the peak to the current live total.
    pub fn start() -> Self {
        reset_peak();
        Self {
            baseline: current_bytes(),
        }
    }

    /// Peak bytes allocated above the scope's baseline so far.
    pub fn peak_delta_bytes(&self) -> u64 {
        peak_bytes().saturating_sub(self.baseline)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Tensor;

    /// Gate for tests that assert exact values of process-global counters
    /// (the ones above, `sparse::metrics`): sibling tests allocate and run
    /// kernels concurrently, so inside the shared test process such an
    /// assertion races. Called first thing with the test's full path, it
    /// re-runs the test binary with that path as an `--exact` filter, asserts
    /// the child passed and returns `false` (the caller returns); in the
    /// child, which sees the marker variable, it returns `true` and the
    /// test body runs with the process to itself.
    pub(crate) fn alone_in_process(test: &str) -> bool {
        const MARKER: &str = "SPTX_TEST_ALONE_IN_PROCESS";
        if std::env::var_os(MARKER).is_some() {
            return true;
        }
        let exe = std::env::current_exe().expect("path of the running test binary");
        let out = std::process::Command::new(exe)
            .args([test, "--exact", "--test-threads=1"])
            .env(MARKER, "1")
            .output()
            .expect("re-running the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // "1 passed" guards against a stale `test` path filtering to nothing.
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{test} failed alone in its process:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        false
    }

    #[test]
    fn tracks_alloc_and_free() {
        if !alone_in_process("memory::tests::tracks_alloc_and_free") {
            return;
        }
        let before = current_bytes();
        let t = Tensor::zeros(100, 10);
        assert_eq!(current_bytes(), before + 100 * 10 * 4);
        drop(t);
        assert_eq!(current_bytes(), before);
    }

    #[test]
    fn peak_survives_drop() {
        if !alone_in_process("memory::tests::peak_survives_drop") {
            return;
        }
        reset_peak();
        let base = current_bytes();
        {
            let _a = Tensor::zeros(50, 50);
            let _b = Tensor::zeros(50, 50);
        }
        assert!(peak_bytes() >= base + 2 * 50 * 50 * 4);
    }

    #[test]
    fn clone_registers_its_own_buffer() {
        if !alone_in_process("memory::tests::clone_registers_its_own_buffer") {
            return;
        }
        let before = current_bytes();
        let a = Tensor::zeros(10, 10);
        let b = a.clone();
        assert_eq!(current_bytes(), before + 2 * 10 * 10 * 4);
        drop(a);
        drop(b);
        assert_eq!(current_bytes(), before);
    }
}
