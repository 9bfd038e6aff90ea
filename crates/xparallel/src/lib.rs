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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// How many rows ahead of the row it is computing a loop over a known list
/// of table rows calls [`prefetch`]: the fused score and its backward's
/// re-derive, the SpMM row driver and [`Rows::walk`]'s listed sweep. Picked
/// from a sweep of 4, 8 and 16 rows on the training benchmark (see
/// `CHANGES.md`); it is a constant, not a knob.
pub const PREFETCH_DISTANCE: usize = 8;

/// Asks the CPU to start pulling every cache line of `data` toward L1, so a
/// read of it a few rows from now does not wait on memory.
///
/// A hint only: it reads and writes nothing, cannot fault, and changes no
/// result, counter or panic — the bits of every loop that calls it are those
/// of the same loop without it. A Hogwild replica's shared table is only
/// ever prefetched through here, never read, so the hint adds no access to
/// the race its workers already tolerate. A no-op on targets other than
/// x86-64 and for an empty slice.
#[inline]
pub fn prefetch<T>(data: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let (base, bytes) = (data.as_ptr().cast::<i8>(), std::mem::size_of_val(data));
        // One hint per line the slice touches: its first byte's, then each
        // line boundary inside it (an unaligned 256-B row touches five).
        let (mut off, mut next) = (0, LINE - base.addr() % LINE);
        while off < bytes {
            // SAFETY: `_mm_prefetch` needs SSE, which every x86-64 CPU has,
            // and its pointer is never dereferenced: a prefetch is a hint
            // that cannot fault or change memory. `off < bytes`, so the
            // pointer stays inside `data`'s allocation.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(off)) };
            (off, next) = (next, next + LINE);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

/// The instruction set a lane-parallel kernel loop runs with: one dispatch,
/// same bits.
///
/// The kernels whose independent outputs advance together (the IVF
/// k-means assignment and probe, TransR's projections) are written once,
/// as plain loops. [`Isa::run`] runs such a
/// loop as compiled for the baseline target (x86-64's SSE2, 4 lanes) or, on
/// a CPU that has AVX2, through a trampoline compiled with AVX2 enabled
/// (8 lanes). The source is the same, so each output element performs the
/// same IEEE operations in the same order at either width: wider registers
/// hold more independent outputs, never a different fold. FMA is never
/// enabled (Rust does not contract `a * b + c` into one either), so no
/// multiply-add changes its rounding.
///
/// Dispatch once per loop — a pool chunk, a relation group, a query's block
/// scan — never per element: the closure handed to [`Isa::run`] and the
/// kernels it calls are `#[inline(always)]`, so they are compiled into
/// whichever trampoline runs them (a call the compiler leaves out of line
/// runs at the baseline width, with the same bits). An `Isa` naming AVX2 exists
/// only on a CPU that has it ([`Isa::avx2`]), so shipped code passes
/// [`Isa::detected`] and tests run both twins in one process. A CPU without
/// AVX2, and any target other than x86-64, runs the baseline loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

impl Isa {
    /// The loop as compiled for the target, on every CPU.
    pub const BASELINE: Isa = Isa { avx2: false };

    /// The AVX2 twin, when this CPU has AVX2 (std detects it once per
    /// process and caches the answer).
    pub fn avx2() -> Option<Isa> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Some(Isa { avx2: true });
        }
        None
    }

    /// The widest twin this CPU runs: what every shipped kernel loop uses.
    pub fn detected() -> Isa {
        Isa::avx2().unwrap_or(Isa::BASELINE)
    }

    /// `"avx2"` or `"baseline"`, as `sptx help` prints it.
    pub fn name(self) -> &'static str {
        if self.avx2 {
            "avx2"
        } else {
            "baseline"
        }
    }

    /// Runs `body` as compiled for this instruction set and returns its
    /// value. For AVX2, `body` is inlined into a function compiled with
    /// AVX2 enabled, and the `#[inline(always)]` kernels it calls with it.
    #[inline(always)]
    pub fn run<R>(self, body: impl FnOnce() -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is only `true` in an `Isa` built by
            // `Isa::avx2`, which checked at run time that this CPU (and its
            // OS) supports AVX2 — the one precondition of calling a
            // `#[target_feature(enable = "avx2")]` function.
            return unsafe { run_avx2(body) };
        }
        body()
    }
}

/// `body()`, compiled with AVX2 enabled: LLVM inlines the closure (and the
/// `#[inline(always)]` kernels inside it) here, so its loops get 8-lane
/// vectors. AVX2 only — not FMA — so every multiply and add rounds as in
/// the baseline loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// Index ranges `i..i+1` for dispatching one pre-built work item per task.
pub(crate) fn singleton_ranges(n: usize) -> Vec<Range<usize>> {
    (0..n).map(|i| i..i + 1).collect()
}

/// Locks `m`, taking the guard even if a panic poisoned it: each update under
/// this crate's locks is one store, and none is held across user code.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
        let mut rem = lock(&self.remaining);
        *rem -= 1;
        if *rem == 0 {
            self.cond.notify_all();
        }
    }

    pub(crate) fn record_panic(&self, msg: String) {
        let mut p = lock(&self.panicked);
        if p.is_none() {
            *p = Some(msg);
        }
    }

    /// Blocks until all `n` completions, then returns the first task panic.
    /// Not `Condvar::wait_while`: on a poisoned lock it returns early, and
    /// `scope_run`'s erased borrow needs every task finished.
    pub(crate) fn wait(&self) -> Option<String> {
        let mut rem = lock(&self.remaining);
        while *rem > 0 {
            rem = self.cond.wait(rem).unwrap_or_else(PoisonError::into_inner);
        }
        drop(rem);
        lock(&self.panicked).take()
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

pub(crate) fn spawn_worker(rx: std::sync::mpsc::Receiver<Job>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("xparallel-worker".into())
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                job();
            }
        })
        .expect("failed to spawn worker thread")
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

    /// Both branches of `Isa::run`: the same loop, with the same bits, at
    /// the baseline width and through the AVX2 trampoline.
    #[test]
    fn isa_run_takes_both_branches_with_the_same_bits() {
        let x: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin()).collect();
        let sums = |isa: Isa| {
            isa.run(
                #[inline(always)]
                || {
                    let mut acc = [0.0f32; 16];
                    for row in x.chunks_exact(16) {
                        for (a, &v) in acc.iter_mut().zip(row) {
                            *a += v * v;
                        }
                    }
                    acc.map(f32::to_bits)
                },
            )
        };
        assert_eq!(Isa::BASELINE.name(), "baseline");
        let baseline = sums(Isa::BASELINE);
        match Isa::avx2() {
            Some(isa) => {
                assert_eq!(isa.name(), "avx2");
                assert_eq!(Isa::detected(), isa);
                assert_eq!(sums(isa), baseline);
            }
            None => {
                assert_eq!(Isa::detected(), Isa::BASELINE);
                println!("skipped: this CPU has no AVX2, so only the baseline branch ran");
            }
        }
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
        // The same pool still runs `for_mut` and `scope_run` to completion.
        let visits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let visit = |r: Range<usize>| {
            for v in &visits[r] {
                v.fetch_add(1, Ordering::Relaxed);
            }
        };
        PoolHandle::global().for_mut(&mut [0u8; 1000], 1, |at, chunk| visit(at..at + chunk.len()));
        global_pool().scope_run(&chunk_ranges(1000, 1, 8), &visit);
        assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 2));
    }
}
