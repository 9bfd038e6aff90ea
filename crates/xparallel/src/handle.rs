//! An explicit, clonable handle onto a thread pool with a pinned fan-out.
//!
//! [`PoolHandle::global`] targets the global pool and splits work into as
//! many chunks as the pool has workers — a good default for standalone
//! kernels, but wrong for two situations the training loop hits:
//!
//! * **Nested parallelism.** A task already running *on* a pool worker must
//!   not fan out onto the same pool (the inner scope would wait on jobs
//!   queued behind blocked outer tasks). Such code runs its kernels through
//!   a [`PoolHandle::sequential`] handle, which executes every loop inline.
//! * **Determinism audits.** The determinism contract ("bit-identical
//!   results at any `SPTX_NUM_THREADS`") is only testable if a *1-core* CI
//!   machine can execute the exact chunk schedule a 8-thread run would use.
//!   [`PoolHandle::with_width`] pins the number of chunks independently of
//!   how many workers exist; surplus chunks simply queue.
//!
//! Every loop primitive on the handle partitions work by **destination**
//! (each output element is written by exactly one chunk, computed with a
//! serial inner loop), so results are bit-identical for any width. The one
//! reduction primitive, [`PoolHandle::map_reduce_fixed`], takes an explicit
//! chunk size and folds partials in chunk order, making even floating-point
//! reductions independent of both width and worker count.
//!
//! # Examples
//!
//! ```
//! use xparallel::PoolHandle;
//!
//! let handle = PoolHandle::global().with_width(4);
//! let mut out = vec![0usize; 100];
//! handle.for_mut(&mut out, 1, |offset, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = offset + i;
//!     }
//! });
//! assert!(out.iter().enumerate().all(|(i, &v)| v == i));
//! ```

use std::ops::Range;

use parking_lot::Mutex;

use crate::{chunk_ranges, global_pool, singleton_ranges};

/// One-shot handoff slot carrying a worker's `(chunk_rows, window_first_row,
/// window, scratch)` share of a row loop.
type RowWindowSlot<'a, T> = Mutex<Option<(Rows<'a>, usize, &'a mut [T], &'a mut [T])>>;

/// Which rows of a row-major buffer a sweep visits: every row, or a strictly
/// ascending list of them. This is the currency a row-set owner (the
/// parameter store's touched-row sets) hands to kernels, which pass it on to
/// [`PoolHandle::for_row_set`] / [`PoolHandle::for_row_windows`] or walk it
/// serially with [`Rows::walk`] instead of forking on its shape themselves.
#[derive(Clone, Copy, Debug)]
pub enum Rows<'a> {
    /// Every row of the buffer.
    All,
    /// Exactly these rows, strictly ascending.
    Listed(&'a [u32]),
}

impl Rows<'_> {
    /// Calls `f(row)` for every row of the set, in order; `nrows` is the
    /// buffer height [`Rows::All`] stands for.
    pub fn for_each(self, nrows: usize, mut f: impl FnMut(usize)) {
        match self {
            Rows::All => (0..nrows).for_each(f),
            Rows::Listed(rows) => rows.iter().for_each(|&r| f(r as usize)),
        }
    }

    /// Serial sweep: calls `body(row, row_slice)` for every row of the set
    /// inside `window`, a row-major buffer of row width `stride` whose first
    /// row is row `first` (pass `0` and the whole buffer for a full sweep).
    /// Unlike the pool dispatch, a listed set only has to lie inside the
    /// window, not be sorted.
    pub fn walk<T>(
        self,
        first: usize,
        window: &mut [T],
        stride: usize,
        mut body: impl FnMut(usize, &mut [T]),
    ) {
        match self {
            Rows::All => {
                for (k, row) in window.chunks_exact_mut(stride).enumerate() {
                    body(first + k, row);
                }
            }
            Rows::Listed(rows) => {
                for &r in rows {
                    let off = (r as usize - first) * stride;
                    body(r as usize, &mut window[off..off + stride]);
                }
            }
        }
    }
}

/// A clonable handle onto the global pool plus an optional pinned fan-out
/// (see the crate docs for when to pin).
///
/// `width` is the number of chunks loops split into — the handle's degree of
/// parallelism. It may exceed the pool's worker count (chunks queue), which
/// is what makes wide schedules reproducible on narrow machines.
#[derive(Clone, Debug, Default)]
pub struct PoolHandle {
    width: Option<usize>,
}

impl PoolHandle {
    /// A handle onto the global pool, as wide as the pool: loops split into
    /// one chunk per worker. A run that wants fewer passes
    /// [`PoolHandle::with_width`] or [`PoolHandle::sequential`] instead.
    pub fn global() -> Self {
        Self { width: None }
    }

    /// A handle that runs every loop inline on the caller thread.
    ///
    /// This is the handle to use for work that itself executes *on* a pool
    /// worker (e.g. one replica of a data-parallel step): it never touches
    /// the pool, so nested scheduling cannot deadlock.
    pub fn sequential() -> Self {
        Self::global().with_width(1)
    }

    /// Pins the fan-out to exactly `width` chunks (clamped to at least 1),
    /// regardless of worker count.
    #[must_use]
    pub fn with_width(mut self, width: usize) -> Self {
        self.width = Some(width.max(1));
        self
    }

    /// The number of chunks loops on this handle split into.
    pub fn width(&self) -> usize {
        self.width.unwrap_or_else(|| global_pool().num_threads())
    }

    /// Whether loops on this handle run inline on the caller thread.
    pub fn is_sequential(&self) -> bool {
        self.width() == 1
    }

    /// Runs `body(offset, chunk)` over disjoint mutable sub-slices of `data`.
    pub fn for_mut<T, F>(&self, data: &mut [T], min_chunk: usize, body: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.for_rows(data, 1, min_chunk, body);
    }

    /// Runs `body(first_row, rows_chunk)` over row-aligned mutable windows of
    /// a row-major buffer — the destination-sharded workhorse of the SpMM and
    /// gradient kernels. Each row is written by exactly one chunk, so results
    /// are bit-identical for any width.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` or `data.len() % stride != 0`.
    pub fn for_rows<T, F>(&self, data: &mut [T], stride: usize, min_rows: usize, body: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.for_row_windows(data, stride, Rows::All, min_rows, body);
    }

    /// [`PoolHandle::for_rows`] with a private scratch slice per chunk:
    /// `body(first_row, rows_chunk, scratch_chunk)`. `scratch` is cut into
    /// [`width()`](Self::width) equal parts (size it as a multiple of the
    /// width) and no two chunks share one, so a kernel can stage
    /// per-chunk state (a transposed operand, say) without allocating.
    /// Scratch contents are unspecified on entry.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PoolHandle::for_rows`].
    pub fn for_rows_with_scratch<T, F>(
        &self,
        data: &mut [T],
        stride: usize,
        min_rows: usize,
        scratch: &mut [T],
        body: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T], &mut [T]) + Sync,
    {
        self.split_rows(
            data,
            stride,
            Rows::All,
            min_rows,
            scratch,
            |_, first, window, scratch| body(first, window, scratch),
        );
    }

    /// [`PoolHandle::for_rows`] over a row set: runs `body(first_row,
    /// window)` over disjoint row-aligned windows that together cover every
    /// row of `rows`. A [`Rows::Listed`] set is split into at most `width()`
    /// chunks of at least `min_rows` listed rows, each handed the smallest
    /// contiguous window covering its rows (`first_row ..=` its last listed
    /// row, gaps included).
    ///
    /// A body may read the unlisted rows inside its window but should write
    /// only rows it knows to be in the set — the index-scan scatters do so by
    /// construction (every index they scatter to is a member), and "does
    /// this index fall in my window" is all the membership test they need,
    /// because windows never overlap.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`, `data.len() % stride != 0`, or (debug only)
    /// a listed set is not strictly ascending / indexes past the last row.
    pub fn for_row_windows<T, F>(
        &self,
        data: &mut [T],
        stride: usize,
        rows: Rows<'_>,
        min_rows: usize,
        body: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.split_rows(
            data,
            stride,
            rows,
            min_rows,
            &mut [],
            |_, first, window, _| body(first, window),
        );
    }

    /// Runs `body(row, row_slice)` once for every row of `rows` — the
    /// destination-sharded sweep over a row set. Each row is owned by exactly
    /// one chunk and visited by a serial inner loop in ascending order, so
    /// results are bit-identical at any width and for either shape of the
    /// set (a listed `0..n` and [`Rows::All`] visit the same rows with the
    /// same slices).
    ///
    /// # Panics
    ///
    /// Same conditions as [`PoolHandle::for_row_windows`].
    pub fn for_row_set<T, F>(
        &self,
        data: &mut [T],
        stride: usize,
        rows: Rows<'_>,
        min_rows: usize,
        body: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.split_rows(
            data,
            stride,
            rows,
            min_rows,
            &mut [],
            |chunk, first, window, _| chunk.walk(first, window, stride, &body),
        );
    }

    /// The one splitter behind every row loop: cuts `rows` into chunks and
    /// runs `body(chunk_rows, first_row, window, scratch)` on each, `window`
    /// starting at `first_row` and ending with the chunk's last row,
    /// `scratch` the chunk's `1 / width()` share of the scratch buffer
    /// (empty for the loops that pass none).
    fn split_rows<T, F>(
        &self,
        data: &mut [T],
        stride: usize,
        rows: Rows<'_>,
        min_rows: usize,
        scratch: &mut [T],
        body: F,
    ) where
        T: Send,
        F: Fn(Rows<'_>, usize, &mut [T], &mut [T]) + Sync,
    {
        assert!(stride > 0, "stride must be positive");
        assert_eq!(data.len() % stride, 0, "buffer not a whole number of rows");
        let nrows = data.len() / stride;
        let len = match rows {
            Rows::All => nrows,
            Rows::Listed(listed) => {
                debug_assert!(
                    listed.windows(2).all(|w| w[0] < w[1]),
                    "row list must be strictly ascending"
                );
                debug_assert!(
                    listed.last().is_none_or(|&r| (r as usize) < nrows),
                    "row list indexes past the buffer"
                );
                listed.len()
            }
        };
        if len == 0 {
            return;
        }
        // A chunk of the set, and the rows `first..end` its window spans.
        let chunk = |r: &Range<usize>| match rows {
            Rows::All => (Rows::All, r.start, r.end),
            Rows::Listed(listed) => {
                let listed = &listed[r.clone()];
                let last = *listed.last().expect("chunks are non-empty");
                (Rows::Listed(listed), listed[0] as usize, last as usize + 1)
            }
        };
        let width = self.width();
        let ranges = chunk_ranges(len, min_rows.max(1), width);
        let scratch_len = scratch.len() / width;
        if let [only] = &ranges[..] {
            let (rows, first, end) = chunk(only);
            let window = &mut data[first * stride..end * stride];
            return body(rows, first, window, &mut scratch[..scratch_len]);
        }
        let mut windows: Vec<RowWindowSlot<'_, T>> = Vec::with_capacity(ranges.len());
        let mut rest = data;
        let mut scratch_rest = scratch;
        let mut consumed_rows = 0usize;
        for r in &ranges {
            let (rows, first, end) = chunk(r);
            let (_, tail) = rest.split_at_mut((first - consumed_rows) * stride);
            let (window, tail) = tail.split_at_mut((end - first) * stride);
            let (part, scratch_tail) = scratch_rest.split_at_mut(scratch_len);
            windows.push(Mutex::new(Some((rows, first, window, part))));
            consumed_rows = end;
            rest = tail;
            scratch_rest = scratch_tail;
        }
        global_pool().scope_run(&singleton_ranges(windows.len()), &|r: Range<usize>| {
            for i in r {
                let (rows, first, window, scratch) =
                    windows[i].lock().take().expect("window taken twice");
                body(rows, first, window, scratch);
            }
        });
    }

    /// Runs `body(index, item)` once per slice element, one task per item.
    ///
    /// This is the data-parallel driver primitive: each item (e.g. a model
    /// replica) is handed to exactly one task with exclusive `&mut` access.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], body: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        if items.is_empty() {
            return;
        }
        if self.is_sequential() || items.len() == 1 {
            for (i, item) in items.iter_mut().enumerate() {
                body(i, item);
            }
            return;
        }
        let slots: Vec<Mutex<Option<&mut T>>> =
            items.iter_mut().map(|t| Mutex::new(Some(t))).collect();
        global_pool().scope_run(&singleton_ranges(slots.len()), &|r: Range<usize>| {
            for i in r {
                let item = slots[i].lock().take().expect("item taken twice");
                body(i, item);
            }
        });
    }

    /// Maps **fixed-size** chunks of `0..len` to partials and folds them
    /// left-to-right in chunk order.
    ///
    /// The chunk boundaries depend only on `(len, chunk_size)`, never on the
    /// width or worker count — so floating-point reductions are bit-identical
    /// at **any** width and worker count. This is the reduction primitive
    /// behind the training determinism contract.
    pub fn map_reduce_fixed<T, M, R>(
        &self,
        len: usize,
        chunk_size: usize,
        identity: T,
        map: M,
        reduce: R,
    ) -> T
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        R: Fn(T, T) -> T,
    {
        if len == 0 {
            return identity;
        }
        let chunk_size = chunk_size.max(1);
        let ranges: Vec<Range<usize>> = (0..len.div_ceil(chunk_size))
            .map(|i| i * chunk_size..((i + 1) * chunk_size).min(len))
            .collect();
        if ranges.len() == 1 || self.is_sequential() {
            let mut acc = identity;
            for r in ranges {
                acc = reduce(acc, map(r));
            }
            return acc;
        }
        let slots: Vec<Mutex<Option<T>>> = (0..ranges.len()).map(|_| Mutex::new(None)).collect();
        global_pool().scope_run_indexed(&ranges, &|i, r| {
            *slots[i].lock() = Some(map(r));
        });
        let mut acc = identity;
        for slot in slots {
            let part = slot.into_inner().expect("missing reduction partial");
            acc = reduce(acc, part);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn width_override_beats_pool_size() {
        let h = PoolHandle::global().with_width(8);
        assert_eq!(h.width(), 8);
        assert!(PoolHandle::sequential().is_sequential());
    }

    #[test]
    fn for_rows_is_identical_across_widths() {
        // The same row-sharded kernel must produce bit-identical output no
        // matter how many chunks it is split into.
        let stride = 5;
        let run = |width: usize| {
            let mut data = vec![0f32; stride * 333];
            PoolHandle::global().with_width(width).for_rows(
                &mut data,
                stride,
                1,
                |first, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        let row = first + k / stride;
                        *v = (row as f32).sqrt() * 0.1 + (k % stride) as f32;
                    }
                },
            );
            data
        };
        let base = run(1);
        for width in [2, 3, 4, 8, 16] {
            assert_eq!(run(width), base, "width {width}");
        }
    }

    #[test]
    fn for_rows_with_scratch_gives_each_chunk_its_own_part() {
        // Each chunk stages its first row number in its scratch part, yields
        // so that chunks interleave, then reads it back: a shared part would
        // be overwritten by a neighbour.
        let (stride, part) = (3, 7);
        for width in [1, 2, 4, 8] {
            let pool = PoolHandle::global().with_width(width);
            let mut data = vec![0usize; stride * 100];
            let mut scratch = vec![usize::MAX; part * width];
            pool.for_rows_with_scratch(&mut data, stride, 1, &mut scratch, |first, chunk, s| {
                assert_eq!(s.len(), part, "width {width}");
                s.fill(first);
                std::thread::yield_now();
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = s[k % part] + k / stride;
                }
            });
            let want: Vec<usize> = (0..stride * 100).map(|k| k / stride).collect();
            assert_eq!(data, want, "width {width}");
        }
    }

    #[test]
    fn map_reduce_fixed_is_width_invariant() {
        let run = |width: usize| {
            PoolHandle::global().with_width(width).map_reduce_fixed(
                10_000,
                64,
                0f64,
                |r| r.map(|i| 1.0 / (i as f64 + 1.0)).sum::<f64>(),
                |a, b| a + b,
            )
        };
        let base = run(1);
        for width in [2, 4, 8] {
            // Bitwise equality: partials have fixed boundaries and fold in
            // fixed order.
            assert_eq!(run(width).to_bits(), base.to_bits(), "width {width}");
        }
    }

    #[test]
    fn for_listed_rows_touches_only_listed_rows_at_any_width() {
        let stride = 3;
        let nrows = 200;
        let rows: Vec<u32> = (0..nrows as u32).filter(|r| r % 7 == 2).collect();
        let run = |width: usize| {
            let mut data = vec![-1.0f32; stride * nrows];
            PoolHandle::global().with_width(width).for_row_set(
                &mut data,
                stride,
                Rows::Listed(&rows),
                1,
                |r, row| {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = r as f32 + j as f32 * 0.25;
                    }
                },
            );
            data
        };
        let base = run(1);
        for (i, &v) in base.iter().enumerate() {
            let r = (i / stride) as u32;
            if rows.contains(&r) {
                assert_eq!(v, r as f32 + (i % stride) as f32 * 0.25);
            } else {
                assert_eq!(v, -1.0, "unlisted row {r} was written");
            }
        }
        for width in [2usize, 3, 4, 8, 16] {
            assert_eq!(run(width), base, "width {width}");
        }
    }

    #[test]
    fn for_listed_rows_empty_list_is_a_noop() {
        let mut data = vec![1.0f32; 12];
        let h = PoolHandle::global().with_width(4);
        h.for_row_set(&mut data, 3, Rows::Listed(&[]), 1, |_, _| {
            panic!("should not run")
        });
        h.for_row_windows(&mut data, 3, Rows::Listed(&[]), 1, |_, _| {
            panic!("should not run")
        });
        assert!(data.iter().all(|&x| x == 1.0));
    }

    /// Both shapes of a row set, both faces of the dispatch: a listed `0..n`
    /// and `All` visit the same rows with the same slices; windows are
    /// disjoint, start at their first listed row and end with their last.
    #[test]
    fn row_set_shapes_agree_and_windows_cover_their_rows() {
        let (stride, nrows) = (2, 57);
        let every: Vec<u32> = (0..nrows as u32).collect();
        let gappy: Vec<u32> = vec![0, 3, 4, 20, 21, 22, 40, 56];
        for width in [1usize, 4, 8] {
            let h = PoolHandle::global().with_width(width);
            let sweep = |rows: Rows<'_>| {
                let mut data: Vec<u32> = (0..(stride * nrows) as u32).collect();
                h.for_row_set(&mut data, stride, rows, 1, |r, row| {
                    assert_eq!(row[0] as usize, r * stride, "slice is row {r}'s");
                    row[1] = u32::MAX - r as u32;
                });
                data
            };
            assert_eq!(sweep(Rows::All), sweep(Rows::Listed(&every)));
            let mut seen = vec![0u8; nrows];
            let cell = Mutex::new(&mut seen);
            let mut data = vec![0u8; stride * nrows];
            h.for_row_windows(&mut data, stride, Rows::Listed(&gappy), 1, |first, w| {
                let last = first + w.len() / stride - 1;
                assert!(gappy.contains(&(first as u32)) && gappy.contains(&(last as u32)));
                let mut seen = cell.lock();
                for r in first..=last {
                    seen[r] += 1;
                }
            });
            assert!(seen.iter().all(|&n| n <= 1), "windows overlap");
            assert!(gappy.iter().all(|&r| seen[r as usize] == 1));
        }
        let mut order = Vec::new();
        Rows::Listed(&gappy).for_each(nrows, |r| order.push(r as u32));
        assert_eq!(order, gappy);
        let mut count = 0;
        Rows::All.for_each(nrows, |r| count += (r == count) as usize);
        assert_eq!(count, nrows);
    }

    #[test]
    fn for_each_mut_visits_every_item_exactly_once() {
        let mut items = vec![0usize; 17];
        let calls = AtomicUsize::new(0);
        PoolHandle::global()
            .with_width(4)
            .for_each_mut(&mut items, |i, item| {
                *item = i + 1;
                calls.fetch_add(1, Ordering::Relaxed);
            });
        assert_eq!(calls.into_inner(), 17);
        assert!(items.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn sequential_handle_runs_inline() {
        // A sequential handle must work even for "large" inputs without
        // touching the pool (observable: it works with zero pool threads
        // spare, and ordering is plain left-to-right).
        let h = PoolHandle::sequential();
        let mut order = Vec::new();
        let cell = Mutex::new(&mut order);
        h.for_mut(&mut [0u8; 10], 1, |offset, chunk| {
            cell.lock().extend(offset..offset + chunk.len());
        });
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_inputs_are_noops() {
        let h = PoolHandle::global().with_width(4);
        let mut empty: Vec<u8> = Vec::new();
        h.for_mut(&mut empty, 1, |_, _| panic!("should not run"));
        h.for_each_mut(&mut empty, |_, _| panic!("should not run"));
        let v = h.map_reduce_fixed(0, 1, 7u32, |_| panic!("should not run"), |a, _b| a);
        assert_eq!(v, 7);
    }
}
