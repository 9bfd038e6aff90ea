//! The persistent worker pool.

use std::mem;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};

use crate::{run_catching, spawn_worker, Job, WaitGroup};

/// A fixed-size pool of parked worker threads.
///
/// Tasks are distributed round-robin over per-worker channels. The pool is
/// usually accessed through [`crate::global_pool`], but independent pools can
/// be created for tests or isolation.
///
/// # Examples
///
/// ```
/// use xparallel::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let ranges = vec![0..50usize, 50..100];
/// let acc = std::sync::atomic::AtomicUsize::new(0);
/// pool.scope_run(&ranges, &|r| {
///     acc.fetch_add(r.len(), std::sync::atomic::Ordering::Relaxed);
/// });
/// assert_eq!(acc.into_inner(), 100);
/// ```
pub struct ThreadPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    cursor: std::sync::atomic::AtomicUsize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.senders.len())
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `n` workers (clamped to at least 1).
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        let mut senders = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            handles.push(spawn_worker(rx));
        }
        Self {
            senders,
            handles,
            cursor: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.senders.len()
    }

    /// Executes `body` once per range, in parallel, blocking until all
    /// invocations complete.
    ///
    /// The first range runs on the calling thread, which both saves one task
    /// dispatch and keeps single-chunk calls allocation-free.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by any invocation (the calling
    /// thread's own first), once every invocation has finished.
    pub fn scope_run(&self, ranges: &[Range<usize>], body: &(dyn Fn(Range<usize>) + Sync)) {
        self.scope_run_indexed(ranges, &|_, r| body(r));
    }

    /// Like [`scope_run`](Self::scope_run) but also passes the chunk index.
    pub fn scope_run_indexed(
        &self,
        ranges: &[Range<usize>],
        body: &(dyn Fn(usize, Range<usize>) + Sync),
    ) {
        if ranges.is_empty() {
            return;
        }
        if ranges.len() == 1 {
            body(0, ranges[0].clone());
            return;
        }
        let wg = WaitGroup::new(ranges.len() - 1);
        // SAFETY: every task sent below is joined via `wg.wait()` before this
        // function returns or unwinds (the caller's chunk is caught), so the
        // erased borrow of `body` never outlives the caller's frame. Workers
        // never store jobs beyond a single `recv`.
        let body_static: &'static (dyn Fn(usize, Range<usize>) + Sync) =
            unsafe { mem::transmute(body) };
        let start = self
            .cursor
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        for (i, range) in ranges.iter().enumerate().skip(1) {
            let wg = wg.clone();
            let range = range.clone();
            let job: Job = Box::new(move || {
                run_catching(&wg, || body_static(i, range));
            });
            let sender = &self.senders[(start + i) % self.senders.len()];
            sender.send(job).expect("worker channel closed");
        }
        let first = panic::catch_unwind(AssertUnwindSafe(|| body(0, ranges[0].clone())));
        let task_panic = wg.wait();
        if let Err(payload) = first {
            panic::resume_unwind(payload);
        }
        if let Some(msg) = task_panic {
            panic!("worker task panicked: {msg}");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close channels so workers exit, then join to avoid leaking threads.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_all_chunks() {
        let pool = ThreadPool::new(4);
        let count = AtomicUsize::new(0);
        let ranges: Vec<Range<usize>> = (0..32).map(|i| i * 10..(i + 1) * 10).collect();
        pool.scope_run(&ranges, &|r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 320);
    }

    #[test]
    fn pool_reusable_across_calls() {
        let pool = ThreadPool::new(2);
        for _ in 0..100 {
            let count = AtomicUsize::new(0);
            let ranges = vec![0..1usize, 1..2, 2..3];
            pool.scope_run(&ranges, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.into_inner(), 3);
        }
    }

    #[test]
    fn indexed_variant_passes_indices() {
        let pool = ThreadPool::new(3);
        let seen = std::sync::Mutex::new(vec![false; 8]);
        let ranges: Vec<Range<usize>> = (0..8).map(|i| i..i + 1).collect();
        pool.scope_run_indexed(&ranges, &|i, r| {
            assert_eq!(r.start, i);
            crate::lock(&seen)[i] = true;
        });
        assert!(seen.into_inner().unwrap().into_iter().all(|b| b));
    }

    /// A panic in the caller's own chunk unwinds out of `scope_run` only
    /// after the worker's task, which borrows the caller's frame, finished.
    #[test]
    fn caller_panic_waits_for_worker_tasks() {
        let finished = AtomicUsize::new(0);
        let pool = ThreadPool::new(1);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_run(&[0..1, 1..2], &|r| {
                if r.start == 0 {
                    panic!("caller chunk");
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.num_threads(), 1);
        pool.scope_run(std::slice::from_ref(&(0..4)), &|r| assert_eq!(r, 0..4));
    }

    #[test]
    fn borrowed_data_is_visible_after_run() {
        let pool = ThreadPool::new(4);
        let data: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let ranges: Vec<Range<usize>> = (0..8).map(|i| i * 8..(i + 1) * 8).collect();
        pool.scope_run(&ranges, &|r| {
            for i in r {
                data[i].store(i + 1, Ordering::Relaxed);
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(v.load(Ordering::Relaxed), i + 1);
        }
    }
}
