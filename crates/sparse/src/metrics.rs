//! Global kernel instrumentation counters.
//!
//! The paper reports FLOP counts measured with Linux `perf` (Table 6). We
//! instead instrument the kernels themselves: every kernel computes its
//! analytic [`Cost`] (floating-point operations, estimated bytes moved, SpMM
//! invocations), and recording it adds it to process-wide counters. The
//! training tape records each op's cost once, into these totals and into its
//! own per-op table; the standalone kernel wrappers record into the totals
//! only. Counters use relaxed atomics and are bumped once per kernel call,
//! so the overhead is negligible.
//!
//! # Examples
//!
//! ```
//! sparse::metrics::reset();
//! sparse::metrics::Cost { flops: 128, ..Default::default() }.record();
//! assert_eq!(sparse::metrics::flops(), 128);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

static FLOPS: AtomicU64 = AtomicU64::new(0);
static SPMM_CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES_TOUCHED: AtomicU64 = AtomicU64::new(0);

/// The analytic cost of one kernel call.
#[must_use = "a cost counts nowhere until it is recorded"]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Floating-point operations.
    pub flops: u64,
    /// Estimated bytes moved.
    pub bytes: u64,
    /// SpMM kernel invocations.
    pub spmm_calls: u64,
}

impl Cost {
    /// Adds this cost to the global counters.
    #[inline]
    pub fn record(self) {
        FLOPS.fetch_add(self.flops, Ordering::Relaxed);
        BYTES_TOUCHED.fetch_add(self.bytes, Ordering::Relaxed);
        SPMM_CALLS.fetch_add(self.spmm_calls, Ordering::Relaxed);
    }
}

/// Total floating-point operations recorded since the last [`reset`].
pub fn flops() -> u64 {
    FLOPS.load(Ordering::Relaxed)
}

/// Total SpMM invocations recorded since the last [`reset`].
pub fn spmm_calls() -> u64 {
    SPMM_CALLS.load(Ordering::Relaxed)
}

/// Total estimated bytes moved since the last [`reset`].
pub fn bytes_touched() -> u64 {
    BYTES_TOUCHED.load(Ordering::Relaxed)
}

/// Resets all counters to zero.
pub fn reset() {
    FLOPS.store(0, Ordering::Relaxed);
    SPMM_CALLS.store(0, Ordering::Relaxed);
    BYTES_TOUCHED.store(0, Ordering::Relaxed);
}

/// A point-in-time snapshot of all counters; subtract two to get a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Floating-point operations.
    pub flops: u64,
    /// SpMM kernel invocations.
    pub spmm_calls: u64,
    /// Estimated bytes moved.
    pub bytes_touched: u64,
}

/// Takes a snapshot of the current counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        flops: flops(),
        spmm_calls: spmm_calls(),
        bytes_touched: bytes_touched(),
    }
}

impl std::ops::Sub for Snapshot {
    type Output = Snapshot;
    fn sub(self, rhs: Self) -> Snapshot {
        Snapshot {
            flops: self.flops.saturating_sub(rhs.flops),
            spmm_calls: self.spmm_calls.saturating_sub(rhs.spmm_calls),
            bytes_touched: self.bytes_touched.saturating_sub(rhs.bytes_touched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        let cost = |flops, bytes, spmm_calls| Cost {
            flops,
            bytes,
            spmm_calls,
        };
        cost(10, 0, 0).record();
        cost(5, 100, 1).record();
        let snap = snapshot();
        assert!(snap.flops >= 15);
        assert!(snap.spmm_calls >= 1);
        assert!(snap.bytes_touched >= 100);
        reset();
        // Other tests may run concurrently and bump counters; we only check
        // the reset is observable through a fresh delta.
        let before = snapshot();
        cost(1, 0, 0).record();
        let delta = snapshot() - before;
        assert!(delta.flops >= 1);
    }
}
