//! A resident cache miss allocates only its answer.
//!
//! The serving engine keeps the resident walk's scratch — the query vector,
//! the probe's cluster order and the running top-k — so once those buffers
//! have grown, a miss of `ServeEngine::answer_ann` (no query cache) and a
//! call of `answer_exact` each make exactly one heap allocation: the
//! returned `hits`. A counting global allocator checks it. It counts only on
//! the thread that asks, and this binary holds one test, so nothing else
//! allocates into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sptransx::serve::{IvfConfig, IvfIndex, ServeEngine, ServeModel, ZipfWorkload};
use sptransx::Norm;
use xparallel::PoolHandle;

/// [`System`], counting the allocations (and reallocations) the current
/// thread makes while its count is on.
struct Counting;

thread_local! {
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: a thread being torn down has no count to bump.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes on this thread, and its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNT.with(|c| c.set(Some(0)));
    let result = f();
    let n = COUNT.with(|c| c.replace(None)).expect("count was on");
    (n, result)
}

#[test]
fn a_steady_state_resident_miss_allocates_only_its_answer() {
    let (n, r, dim) = (3000usize, 8usize, 32usize);
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut uniform = |scale: f32| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        ((rng >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * scale
    };
    let centres: Vec<f32> = (0..24 * dim).map(|_| uniform(3.0)).collect();
    let mut stack = vec![0f32; (n + r) * dim];
    for (e, row) in stack.chunks_exact_mut(dim).enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = if e < n {
                centres[e % 24 * dim + j] + uniform(0.3)
            } else {
                uniform(0.05)
            };
        }
    }
    let cfg = IvfConfig {
        clusters: 48,
        iters: 3,
        seed: 1,
    };
    let index = IvfIndex::build(&stack, n, dim, &cfg, &PoolHandle::global()).unwrap();
    for norm in [Norm::L1, Norm::L2, Norm::TorusL1, Norm::TorusL2] {
        let model = ServeModel::from_stacked(stack.clone(), n, r, dim, norm).unwrap();
        let mut engine = ServeEngine::new(model, index.clone()).unwrap();
        let queries = ZipfWorkload::new(n, r, 1.1, 3).take(60);
        // Grow the scratch: a full probe fills the cluster order.
        engine.answer_exact(&queries[0], 10);
        for (i, q) in queries.iter().enumerate() {
            let nprobe = 1 + i % 8;
            let (count, answer) = allocations(|| engine.answer_ann(q, 10, nprobe));
            assert_eq!(answer.hits.len(), 10, "{norm:?}");
            assert_eq!(count, 1, "{norm:?}: query {i}, nprobe {nprobe}");
            let (count, hits) = allocations(|| engine.answer_exact(q, 10));
            assert_eq!(hits.len(), 10, "{norm:?}");
            assert_eq!(count, 1, "{norm:?}: exact, query {i}");
        }
        assert!(engine.scan_stats().stopped_panels > 0, "{norm:?}");
    }
}
