//! Minimal persistent thread pool and data-parallel loop primitives.
//!
//! The SparseTransX paper relies on OpenMP-style parallel loops (via MKL and
//! iSpLib) for its CPU SpMM kernels. This crate provides the Rust-native
//! equivalent used throughout the reproduction: a small persistent
//! [`ThreadPool`] plus the loop primitives on [`PoolHandle`] that split an
//! index range into contiguous chunks, one per worker.
//!
//! Design goals:
//!
//! * **No per-call thread spawn.** Kernels are invoked thousands of times per
//!   epoch; workers are started once and parked on a channel.
//! * **Borrowed data.** Loop bodies may capture `&`/`&mut`-derived state; the
//!   pool blocks until every task finishes before returning, which makes the
//!   internal lifetime erasure sound.
//! * **Determinism.** Chunk boundaries depend only on `(len, num_threads)`,
//!   and reductions combine partial results in chunk order, so results are
//!   reproducible run-to-run for a fixed thread count.
//! * **One width.** The global pool's size (`SPTX_NUM_THREADS`,
//!   [`set_num_threads`]) is the only process-wide knob; anything narrower
//!   is an explicit [`PoolHandle`] passed to the code it drives.
//!
//! **Place in the workspace:** the bottom of the dependency graph — this
//! crate depends on no other workspace crate. Every kernel in `sparse`,
//! `tensor`, and `kg` runs on its global pool, and so does every training
//! replica: the all-reduce rounds and the Hogwild sweeps both fan out with
//! [`PoolHandle::for_each_mut`].
//!
//! # Examples
//!
//! ```
//! let mut out = vec![0u64; 1024];
//! xparallel::PoolHandle::global().for_mut(&mut out, 64, |offset, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (offset + i) as u64 * 2;
//!     }
//! });
//! assert_eq!(out[10], 20);
//! ```

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};

mod handle;
mod pool;
pub use handle::{PoolHandle, Rows};
pub use pool::ThreadPool;

/// Environment variable consulted for the default worker count.
pub const NUM_THREADS_ENV: &str = "SPTX_NUM_THREADS";

static GLOBAL_POOL: OnceLock<ThreadPool> = OnceLock::new();
static OVERRIDE_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Returns the process-wide shared pool, creating it on first use.
///
/// The pool size is, in order of precedence: the value passed to
/// [`set_num_threads`] before first use, the `SPTX_NUM_THREADS` environment
/// variable, or the number of available CPUs. It is the one process-wide
/// width: [`PoolHandle::global`] fans out that wide, and a narrower run
/// passes a [`PoolHandle::with_width`] or [`PoolHandle::sequential`] handle
/// to what it drives.
pub fn global_pool() -> &'static ThreadPool {
    GLOBAL_POOL.get_or_init(|| {
        let n = OVERRIDE_THREADS.load(Ordering::SeqCst);
        let n = if n > 0 { n } else { default_num_threads() };
        ThreadPool::new(n)
    })
}

/// Sets the worker count used when the global pool is first created.
///
/// Has no effect if the global pool has already been instantiated; returns
/// `false` in that case.
pub fn set_num_threads(n: usize) -> bool {
    OVERRIDE_THREADS.store(n.max(1), Ordering::SeqCst);
    GLOBAL_POOL.get().is_none()
}

/// Number of workers in the global pool (forces pool creation).
pub fn current_num_threads() -> usize {
    global_pool().num_threads()
}

fn default_num_threads() -> usize {
    if let Ok(v) = std::env::var(NUM_THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `len` items into at most `max_chunks` contiguous ranges of at least
/// `min_chunk` items each (except possibly the last).
///
/// Returns an empty vector when `len == 0`.
pub fn chunk_ranges(len: usize, min_chunk: usize, max_chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    let max_chunks = max_chunks.max(1);
    let chunks = (len / min_chunk).clamp(1, max_chunks);
    let base = len / chunks;
    let rem = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let extra = usize::from(i < rem);
        let end = start + base + extra;
        out.push(start..end);
        start = end;
    }
    out
}

/// Index ranges `i..i+1` for dispatching one pre-built work item per task.
pub(crate) fn singleton_ranges(n: usize) -> Vec<Range<usize>> {
    (0..n).map(|i| i..i + 1).collect()
}

/// A latch that lets one thread wait for `n` completions.
pub(crate) struct WaitGroup {
    remaining: Mutex<usize>,
    cond: Condvar,
    panicked: Mutex<Option<String>>,
}

impl WaitGroup {
    pub(crate) fn new(n: usize) -> Arc<Self> {
        Arc::new(Self {
            remaining: Mutex::new(n),
            cond: Condvar::new(),
            panicked: Mutex::new(None),
        })
    }

    pub(crate) fn done(&self) {
        let mut rem = self.remaining.lock();
        *rem -= 1;
        if *rem == 0 {
            self.cond.notify_all();
        }
    }

    pub(crate) fn record_panic(&self, msg: String) {
        let mut p = self.panicked.lock();
        if p.is_none() {
            *p = Some(msg);
        }
    }

    pub(crate) fn wait(&self) {
        let mut rem = self.remaining.lock();
        while *rem > 0 {
            self.cond.wait(&mut rem);
        }
        drop(rem);
        if let Some(msg) = self.panicked.lock().take() {
            panic!("worker task panicked: {msg}");
        }
    }
}

pub(crate) type Job = Box<dyn FnOnce() + Send>;

pub(crate) fn run_catching(wg: &WaitGroup, f: impl FnOnce()) {
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    if let Err(e) = result {
        let msg = e
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        wg.record_panic(msg);
    }
    wg.done();
}

pub(crate) fn spawn_worker(rx: crossbeam::channel::Receiver<Job>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("xparallel-worker".into())
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                job();
            }
        })
        .expect("failed to spawn worker thread")
}

pub(crate) fn make_channel() -> (Sender<Job>, crossbeam::channel::Receiver<Job>) {
    unbounded()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_everything() {
        for len in [0usize, 1, 7, 64, 1000, 1001] {
            for min_chunk in [1usize, 8, 100] {
                for max_chunks in [1usize, 3, 16] {
                    let ranges = chunk_ranges(len, min_chunk, max_chunks);
                    let total: usize = ranges.iter().map(|r| r.len()).sum();
                    assert_eq!(total, len, "len={len} mc={min_chunk} xc={max_chunks}");
                    let mut cursor = 0;
                    for r in &ranges {
                        assert_eq!(r.start, cursor);
                        assert!(!r.is_empty());
                        cursor = r.end;
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_respect_max_chunks() {
        let ranges = chunk_ranges(100, 1, 4);
        assert_eq!(ranges.len(), 4);
        let ranges = chunk_ranges(3, 10, 4);
        assert_eq!(ranges.len(), 1);
    }

    // The global handle at its default width (`handle::tests` pin theirs).
    #[test]
    fn parallel_for_mut_writes_all() {
        let mut data = vec![0usize; 4096];
        PoolHandle::global().for_mut(&mut data, 32, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = offset + i;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn parallel_for_rows_is_row_aligned() {
        let stride = 7;
        let nrows = 1000;
        let mut data = vec![usize::MAX; stride * nrows];
        PoolHandle::global().for_rows(&mut data, stride, 4, |first_row, chunk| {
            assert_eq!(chunk.len() % stride, 0);
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = first_row + k / stride;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / stride);
        }
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn parallel_for_rows_validates_stride() {
        let mut data = vec![0u8; 10];
        PoolHandle::global().for_rows(&mut data, 3, 1, |_, _| {});
    }

    #[test]
    fn empty_inputs_are_noops() {
        let mut empty: Vec<u8> = Vec::new();
        PoolHandle::global().for_mut(&mut empty, 1, |_, _| panic!("should not run"));
        let pool = PoolHandle::global();
        let v = pool.map_reduce_fixed(0, 1, 42u32, |_| panic!("should not run"), |a, _b| a);
        assert_eq!(v, 42);
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 1000];
            PoolHandle::global().for_mut(&mut data, 1, |offset, chunk| {
                if (offset..offset + chunk.len()).contains(&500) {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
    }
}
