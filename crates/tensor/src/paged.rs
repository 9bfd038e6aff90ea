//! Out-of-core row storage: the [`RowStorage`] trait and the LRU [`Pager`].
//!
//! The paper's sparsity premise says a batch only ever needs `O(batch)`
//! embedding rows, and the touched-row contract (see [`crate::ParamStore`])
//! names that working set *in advance* from the batch's incidence index
//! lists. That is exactly the precondition for demand paging: the full
//! `(N + R) × d` table lives behind a [`RowStorage`] backend (a file, or an
//! in-RAM vector for tests and the determinism baseline), and only a
//! fixed-budget cache of rows is pinned in RAM. The pager translates
//! absolute row indices to cache slots; kernels read and write the same
//! bytes they would in the resident layout, so **paging moves bytes, never
//! arithmetic** — the paged and in-RAM arms are bit-identical.
//!
//! # Replacement policy and the simcache cross-check
//!
//! Eviction is exact LRU over whole rows. Each [`Pager::ensure`] call
//! renews a *pin epoch* on every row it loads or hits, and refuses to evict
//! a slot pinned in the current epoch — a batch's working set must be
//! co-resident while kernels run. Because every pinned slot was by
//! definition accessed in the current epoch, pinned slots are always more
//! recent than every unpinned slot, so the LRU victim is never pinned
//! unless *all* slots are (the budget is smaller than the working set,
//! a hard error). Whenever `ensure` succeeds, its hit/miss/eviction
//! decisions are therefore those of a plain fully-associative LRU cache —
//! which is what lets the counters be cross-validated *exactly* against a
//! `simcache` model replaying the recorded row trace (the same
//! first-principles validation idiom the serving layer uses for its query
//! cache).

use crate::Tensor;

/// Sentinel for "row not resident" in [`Pager`] slot maps and for list
/// ends in the intrusive LRU links.
pub(crate) const NOT_RESIDENT: u32 = u32::MAX;

/// Random-access backing storage for a parameter's rows.
///
/// Implementations move raw `f32` rows between the backing medium and
/// caller-provided buffers; they never interpret the values. The in-crate
/// [`VecStorage`] keeps rows in RAM (tests, benches, the determinism
/// baseline); the file-backed implementation lives downstream (it wraps the
/// `kg` crate's on-disk embedding format) so this crate stays free of
/// format knowledge.
pub trait RowStorage: Send + std::fmt::Debug {
    /// Total number of rows in the backing store.
    fn rows(&self) -> usize;
    /// Row width in `f32` elements.
    fn cols(&self) -> usize;
    /// Reads rows `first .. first + count` into `out` (exactly
    /// `count * cols` elements), without allocating.
    ///
    /// # Errors
    ///
    /// I/O errors from the backing medium, or an out-of-range request.
    fn read_rows_into(
        &mut self,
        first: usize,
        count: usize,
        out: &mut [f32],
    ) -> std::io::Result<()>;
    /// Writes rows `first .. first + count` from `data` (exactly
    /// `count * cols` elements).
    ///
    /// # Errors
    ///
    /// I/O errors from the backing medium, or an out-of-range request.
    fn write_rows(&mut self, first: usize, count: usize, data: &[f32]) -> std::io::Result<()>;
    /// Flushes buffered writes to the backing medium. Default: no-op.
    ///
    /// # Errors
    ///
    /// I/O errors from the backing medium.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    /// Backend I/O calls issued so far, as `(read_calls, write_calls)` —
    /// one coalesced multi-row transfer counts once, which is what makes
    /// the pager's run-coalescing observable. Backends without call
    /// tracking report `(0, 0)` (the default).
    fn io_ops(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// In-RAM [`RowStorage`]: a plain row-major vector.
///
/// This is the trait's identity backend — paging through it exercises every
/// slot-translation and eviction path with no I/O, which is how the
/// bit-identity tests isolate the pager from the filesystem.
///
/// # Examples
///
/// ```
/// use tensor::paged::{RowStorage, VecStorage};
///
/// let mut s = VecStorage::new(4, 2);
/// s.write_rows(1, 1, &[5.0, 6.0]).unwrap();
/// let mut out = [0.0f32; 2];
/// s.read_rows_into(1, 1, &mut out).unwrap();
/// assert_eq!(out, [5.0, 6.0]);
/// ```
#[derive(Debug, Clone)]
pub struct VecStorage {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl VecStorage {
    /// Creates a zero-filled store of `rows × cols`.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a store holding a copy of `t`'s rows.
    pub fn from_tensor(t: &Tensor) -> Self {
        Self {
            rows: t.rows(),
            cols: t.cols(),
            data: t.as_slice().to_vec(),
        }
    }

    /// The backing data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

fn check_range(
    rows: usize,
    first: usize,
    count: usize,
    len: usize,
    cols: usize,
) -> std::io::Result<()> {
    if first + count > rows || len != count * cols {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("row range {first}..{} out of bounds for {rows} rows (buffer {len} for {count}x{cols})", first + count),
        ));
    }
    Ok(())
}

impl RowStorage for VecStorage {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn read_rows_into(
        &mut self,
        first: usize,
        count: usize,
        out: &mut [f32],
    ) -> std::io::Result<()> {
        check_range(self.rows, first, count, out.len(), self.cols)?;
        out.copy_from_slice(&self.data[first * self.cols..(first + count) * self.cols]);
        Ok(())
    }

    fn write_rows(&mut self, first: usize, count: usize, data: &[f32]) -> std::io::Result<()> {
        check_range(self.rows, first, count, data.len(), self.cols)?;
        self.data[first * self.cols..(first + count) * self.cols].copy_from_slice(data);
        Ok(())
    }
}

/// Hit/miss/eviction counters for one [`Pager`].
///
/// These are **replay-exact**: with tracing enabled, feeding the recorded
/// row trace through a fully-associative LRU `simcache` model with one line
/// per row and capacity equal to the budget must reproduce `hits` and
/// `misses` bit-for-bit (see the module docs for why pinning never
/// perturbs the LRU decision on a successful run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageStats {
    /// Accesses that found the row resident.
    pub hits: u64,
    /// Accesses that had to load the row from backing storage.
    pub misses: u64,
    /// Rows displaced to make room (whether or not they were dirty).
    pub evictions: u64,
    /// Evicted or flushed rows whose bytes had changed and were written
    /// back to backing storage.
    pub write_backs: u64,
}

/// Demand pager for one parameter: a fixed budget of row slots over a
/// [`RowStorage`] backend, with exact-LRU eviction, per-batch pinning, and
/// dirty-row write-back.
///
/// The pager owns the *bookkeeping* (slot maps, LRU links, dirty bits,
/// counters) but not the cache bytes themselves — those stay in the
/// caller's `budget × cols` buffer (for `ParamStore`, the parameter's value
/// tensor, so peak-memory accounting sees exactly the pinned cache). All
/// methods take the cache buffer explicitly.
#[derive(Debug)]
pub struct Pager {
    storage: Box<dyn RowStorage>,
    /// Logical row count (cached from the storage).
    rows: usize,
    /// Row width (cached from the storage).
    cols: usize,
    /// Number of cache slots.
    budget: usize,
    /// Absolute row → slot, or [`NOT_RESIDENT`].
    slot_of: Vec<u32>,
    /// Slot → absolute row, or [`NOT_RESIDENT`] for never-used slots.
    row_of: Vec<u32>,
    /// Intrusive doubly-linked LRU list over slots (head = most recent).
    lru_prev: Vec<u32>,
    lru_next: Vec<u32>,
    head: u32,
    tail: u32,
    /// Next never-used slot (slots are handed out in order before any
    /// eviction happens).
    next_free: usize,
    /// Last [`Pager::ensure`] epoch that touched each slot; slots pinned in
    /// the current epoch are never evicted.
    pin_epoch: Vec<u64>,
    epoch: u64,
    /// Whether each slot's bytes differ (conservatively) from backing
    /// storage and must be written back on eviction or flush.
    dirty_slot: Vec<bool>,
    stats: PageStats,
    /// Recorded row-access trace for simcache replay (off by default; the
    /// CLI and the validation tests turn it on).
    trace: Option<Vec<u32>>,
    /// Scratch for merged working-set unions; reused so steady-state paging
    /// is allocation-free.
    union_scratch: Vec<u32>,
    /// The cache slots of the row list last handed to [`Pager::translate`]
    /// — what a sweep over those rows walks. Reused the same way.
    pub(crate) translation: Vec<u32>,
    /// Slots assigned to the current coalesced miss run ([`Pager::ensure`]).
    run_scratch: Vec<u32>,
    /// Staging buffer for coalesced multi-row reads and write-backs (rows
    /// are contiguous in the backing store but scattered across cache
    /// slots). Reused so steady-state paging stays allocation-free.
    io_scratch: Vec<f32>,
}

impl Pager {
    /// Creates a pager over `storage` with `budget` row slots.
    ///
    /// `budget` is clamped to the storage's row count (a budget of 100% of
    /// the table degenerates to "load once, never evict").
    pub fn new(storage: Box<dyn RowStorage>, budget: usize) -> Self {
        let rows = storage.rows();
        let cols = storage.cols();
        let budget = budget.max(1).min(rows.max(1));
        Self {
            storage,
            rows,
            cols,
            budget,
            slot_of: vec![NOT_RESIDENT; rows],
            row_of: vec![NOT_RESIDENT; budget],
            lru_prev: vec![NOT_RESIDENT; budget],
            lru_next: vec![NOT_RESIDENT; budget],
            head: NOT_RESIDENT,
            tail: NOT_RESIDENT,
            next_free: 0,
            pin_epoch: vec![0; budget],
            epoch: 0,
            dirty_slot: vec![false; budget],
            stats: PageStats::default(),
            trace: None,
            union_scratch: Vec::new(),
            translation: Vec::new(),
            run_scratch: Vec::new(),
            io_scratch: Vec::new(),
        }
    }

    /// Number of cache slots.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Logical (backing-store) row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width in `f32` elements.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PageStats {
        self.stats
    }

    /// Backing-store I/O call counters `(read_calls, write_calls)`, for
    /// backends that track them (file-backed storage does; [`VecStorage`]
    /// reports zeros). One coalesced multi-row transfer counts once, so
    /// `read_calls ≤ misses` and `write_calls ≤ write_backs` measure how
    /// much run-coalescing saved.
    pub fn storage_io_ops(&self) -> (u64, u64) {
        self.storage.io_ops()
    }

    /// Enables or disables row-trace recording (for simcache replay).
    /// Enabling clears any previous trace.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// The recorded row-access trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&[u32]> {
        self.trace.as_deref()
    }

    /// Absolute row → slot map (one entry per logical row,
    /// `u32::MAX` = not resident).
    pub fn slot_of(&self) -> &[u32] {
        &self.slot_of
    }

    /// Slot → absolute row map (`u32::MAX` = never used).
    pub fn row_of(&self) -> &[u32] {
        &self.row_of
    }

    /// The cache slot of `row`, which must be resident.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not resident — that is a working-set bug (a
    /// kernel touched a row outside the lists handed to
    /// [`Pager::ensure`]).
    #[inline]
    pub fn slot(&self, row: usize) -> usize {
        let s = self.slot_of[row];
        assert_ne!(
            s, NOT_RESIDENT,
            "row {row} not resident; it was outside the working set paged in for this batch"
        );
        s as usize
    }

    /// Marks `slot`'s bytes as diverged from backing storage.
    pub fn mark_slot_dirty(&mut self, slot: usize) {
        self.dirty_slot[slot] = true;
    }

    fn detach(&mut self, s: u32) {
        let (p, n) = (self.lru_prev[s as usize], self.lru_next[s as usize]);
        if p == NOT_RESIDENT {
            self.head = n;
        } else {
            self.lru_next[p as usize] = n;
        }
        if n == NOT_RESIDENT {
            self.tail = p;
        } else {
            self.lru_prev[n as usize] = p;
        }
    }

    fn push_front(&mut self, s: u32) {
        self.lru_prev[s as usize] = NOT_RESIDENT;
        self.lru_next[s as usize] = self.head;
        if self.head != NOT_RESIDENT {
            self.lru_prev[self.head as usize] = s;
        }
        self.head = s;
        if self.tail == NOT_RESIDENT {
            self.tail = s;
        }
    }

    /// Pages in `rows` (strictly ascending, deduplicated), pinning them for
    /// this epoch. `cache` is the `budget × cols` slot buffer. Hits renew
    /// LRU recency; misses load from storage into a free or LRU-evicted
    /// slot, writing dirty victims back first.
    ///
    /// Misses on **adjacent** rows coalesce: a maximal run of consecutive
    /// non-resident rows becomes one backing-store read (into a staging
    /// buffer, scattered to the run's slots) instead of one call per row.
    /// Slot assignment, LRU order, and the hit/miss/eviction counters are
    /// identical to the row-at-a-time walk — coalescing batches I/O calls,
    /// never decisions — so the simcache replay cross-check still holds.
    ///
    /// # Errors
    ///
    /// Fails if `rows` exceeds the slot budget (the batch working set does
    /// not fit — raise `--cache-rows`) or on backing-store I/O errors.
    /// Both are fatal to the training run; after an error, rows of the
    /// failing run may be mapped with unspecified cache bytes.
    pub fn ensure(&mut self, rows: &[u32], cache: &mut [f32]) -> crate::Result<()> {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must be sorted");
        let cols = self.cols;
        self.epoch += 1;
        if let Some(t) = &mut self.trace {
            t.extend_from_slice(rows);
        }
        let mut i = 0;
        while i < rows.len() {
            let r = rows[i];
            let ri = r as usize;
            let s = self.slot_of[ri];
            if s != NOT_RESIDENT {
                self.stats.hits += 1;
                self.pin_epoch[s as usize] = self.epoch;
                self.detach(s);
                self.push_front(s);
                i += 1;
                continue;
            }
            // Maximal run of consecutive non-resident rows starting at `i`.
            let mut j = i + 1;
            while j < rows.len()
                && rows[j] == r + (j - i) as u32
                && self.slot_of[rows[j] as usize] == NOT_RESIDENT
            {
                j += 1;
            }
            let run = j - i;
            // Assign a slot per run row first (evicting victims as needed;
            // rows pinned earlier in this epoch — including earlier run
            // rows — are never victims), then issue one coalesced read.
            let mut run_slots = std::mem::take(&mut self.run_scratch);
            run_slots.clear();
            let mut failed = None;
            for k in 0..run {
                let rk = r + k as u32;
                self.stats.misses += 1;
                let s = if self.next_free < self.budget {
                    let s = self.next_free as u32;
                    self.next_free += 1;
                    s
                } else {
                    let victim = self.tail;
                    if victim == NOT_RESIDENT || self.pin_epoch[victim as usize] == self.epoch {
                        failed = Some(storage_error(format!(
                            "cache budget of {} rows is smaller than the working set ({} rows requested); raise --cache-rows",
                            self.budget,
                            rows.len()
                        )));
                        break;
                    }
                    match self.evict_slot(victim, cache, cols) {
                        Ok(()) => victim,
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                };
                let si = s as usize;
                self.slot_of[rk as usize] = s;
                self.row_of[si] = rk;
                self.pin_epoch[si] = self.epoch;
                // A recycled slot was detached by `evict_slot`; a brand-new
                // one was never linked. Either way it joins at the head.
                self.push_front(s);
                self.dirty_slot[si] = false;
                run_slots.push(s);
            }
            let read_result = if failed.is_some() || run_slots.is_empty() {
                Ok(())
            } else {
                self.fill_run(r, &run_slots, cache, cols)
            };
            self.run_scratch = run_slots;
            if let Some(e) = failed {
                return Err(e);
            }
            read_result?;
            i = j;
        }
        Ok(())
    }

    /// Fills the freshly assigned `slots` for the miss run starting at
    /// `first_row` with one coalesced backing-store read, scattered to the
    /// run's slots.
    fn fill_run(
        &mut self,
        first_row: u32,
        slots: &[u32],
        cache: &mut [f32],
        cols: usize,
    ) -> crate::Result<()> {
        let first = first_row as usize;
        if let [s] = *slots {
            let si = s as usize;
            return self
                .storage
                .read_rows_into(first, 1, &mut cache[si * cols..(si + 1) * cols])
                .map_err(io_error);
        }
        let mut staging = std::mem::take(&mut self.io_scratch);
        staging.resize(slots.len() * cols, 0.0);
        let res = self
            .storage
            .read_rows_into(first, slots.len(), &mut staging)
            .map_err(io_error);
        if res.is_ok() {
            for (q, &s) in slots.iter().enumerate() {
                let si = s as usize;
                cache[si * cols..(si + 1) * cols]
                    .copy_from_slice(&staging[q * cols..(q + 1) * cols]);
            }
        }
        self.io_scratch = staging;
        res
    }

    fn evict_slot(&mut self, s: u32, cache: &mut [f32], cols: usize) -> crate::Result<()> {
        let si = s as usize;
        let old = self.row_of[si];
        debug_assert_ne!(old, NOT_RESIDENT);
        if self.dirty_slot[si] {
            self.storage
                .write_rows(old as usize, 1, &cache[si * cols..(si + 1) * cols])
                .map_err(io_error)?;
            self.stats.write_backs += 1;
            self.dirty_slot[si] = false;
        }
        self.slot_of[old as usize] = NOT_RESIDENT;
        self.row_of[si] = NOT_RESIDENT;
        self.stats.evictions += 1;
        self.detach(s);
        Ok(())
    }

    /// Writes every dirty resident row back to storage and flushes it. The
    /// cache stays resident (this is the checkpoint hook, not an unload).
    ///
    /// Dirty rows are written in **absolute row order** so runs of adjacent
    /// dirty rows coalesce into single backing-store writes (gathered
    /// through a staging buffer — adjacent rows are usually scattered
    /// across cache slots). The bytes that land in storage, and the
    /// `write_backs` counter (one per row), are identical to the
    /// slot-at-a-time walk.
    ///
    /// # Errors
    ///
    /// I/O errors from the backing store.
    pub fn flush(&mut self, cache: &[f32]) -> crate::Result<()> {
        let cols = self.cols;
        let mut rows = std::mem::take(&mut self.union_scratch);
        rows.clear();
        for si in 0..self.budget {
            if self.dirty_slot[si] && self.row_of[si] != NOT_RESIDENT {
                rows.push(self.row_of[si]);
            }
        }
        rows.sort_unstable();
        let mut staging = std::mem::take(&mut self.io_scratch);
        let mut result = Ok(());
        let mut i = 0;
        while i < rows.len() {
            let r0 = rows[i];
            let mut j = i + 1;
            while j < rows.len() && rows[j] == r0 + (j - i) as u32 {
                j += 1;
            }
            let run = j - i;
            let res = if run == 1 {
                let si = self.slot_of[r0 as usize] as usize;
                self.dirty_slot[si] = false;
                self.stats.write_backs += 1;
                self.storage
                    .write_rows(r0 as usize, 1, &cache[si * cols..(si + 1) * cols])
                    .map_err(io_error)
            } else {
                staging.resize(run * cols, 0.0);
                for k in 0..run {
                    let si = self.slot_of[(r0 as usize) + k] as usize;
                    staging[k * cols..(k + 1) * cols]
                        .copy_from_slice(&cache[si * cols..(si + 1) * cols]);
                    self.dirty_slot[si] = false;
                    self.stats.write_backs += 1;
                }
                self.storage
                    .write_rows(r0 as usize, run, &staging[..run * cols])
                    .map_err(io_error)
            };
            if let Err(e) = res {
                result = Err(e);
                break;
            }
            i = j;
        }
        self.io_scratch = staging;
        self.union_scratch = rows;
        result?;
        self.storage.flush().map_err(io_error)
    }

    /// Reads the full logical table from backing storage into `out`
    /// (callers flush first so the bytes are current).
    ///
    /// # Errors
    ///
    /// I/O errors from the backing store.
    pub fn read_all(&mut self, out: &mut [f32]) -> crate::Result<()> {
        let rows = self.rows;
        self.storage.read_rows_into(0, rows, out).map_err(io_error)
    }

    /// Translates the absolute `rows` into their cache slots, in list order.
    /// Every row must be resident, and the translation holds while they stay
    /// pinned. Sorted ascending it is the order the destination-sharded
    /// dispatch splits a slot-addressed buffer in — a bijection off a
    /// duplicate-free row list, so per-row work, and therefore every bit,
    /// matches the resident walk.
    pub(crate) fn translate(&mut self, rows: &[u32]) {
        self.translation.clear();
        for &r in rows {
            let s = self.slot_of[r as usize];
            assert_ne!(
                s, NOT_RESIDENT,
                "row {r} not resident during slot translation (touched outside the paged-in working set)"
            );
            self.translation.push(s);
        }
    }

    /// Marks the translated slots as diverged from backing storage and
    /// forgets the translation.
    pub(crate) fn mark_translation_dirty(&mut self) {
        for s in self.translation.drain(..) {
            self.dirty_slot[s as usize] = true;
        }
    }

    /// Merges index lists into one sorted, deduplicated union and pages it
    /// in via [`Pager::ensure`]. The union buffer is reused across calls,
    /// so the steady-state merge is allocation-free.
    ///
    /// # Errors
    ///
    /// See [`Pager::ensure`].
    pub(crate) fn ensure_union(
        &mut self,
        lists: &[&[u32]],
        cache: &mut [f32],
    ) -> crate::Result<()> {
        let mut rows = std::mem::take(&mut self.union_scratch);
        rows.clear();
        for l in lists {
            rows.extend_from_slice(l);
        }
        rows.sort_unstable();
        rows.dedup();
        let result = self.ensure(&rows, cache);
        self.union_scratch = rows;
        result
    }
}

pub(crate) fn storage_error(context: String) -> crate::Error {
    crate::Error::Storage { context }
}

pub(crate) fn io_error(e: std::io::Error) -> crate::Error {
    crate::Error::Storage {
        context: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_storage(rows: usize, cols: usize) -> Box<VecStorage> {
        let mut s = VecStorage::new(rows, cols);
        for r in 0..rows {
            let row: Vec<f32> = (0..cols).map(|c| (r * cols + c) as f32).collect();
            s.write_rows(r, 1, &row).unwrap();
        }
        Box::new(s)
    }

    #[test]
    fn vec_storage_roundtrip_and_bounds() {
        let mut s = VecStorage::new(3, 2);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 2);
        s.write_rows(2, 1, &[1.0, 2.0]).unwrap();
        let mut out = [0.0; 2];
        s.read_rows_into(2, 1, &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0]);
        assert!(s.read_rows_into(3, 1, &mut out).is_err());
        assert!(s.write_rows(0, 2, &[0.0; 3]).is_err());
    }

    #[test]
    fn pager_loads_hits_and_evicts_lru() {
        let mut p = Pager::new(counting_storage(10, 2), 2);
        let mut cache = vec![0.0f32; 2 * 2];
        p.ensure(&[3], &mut cache).unwrap();
        assert_eq!(cache[0..2], [6.0, 7.0]);
        p.ensure(&[5], &mut cache).unwrap();
        assert_eq!(cache[2..4], [10.0, 11.0]);
        // Hit renews recency: 3 becomes MRU, so loading 7 evicts 5.
        p.ensure(&[3], &mut cache).unwrap();
        p.ensure(&[7], &mut cache).unwrap();
        assert_eq!(p.slot_of()[5], NOT_RESIDENT);
        assert_eq!(p.slot(3), 0);
        assert_eq!(p.slot(7), 1);
        assert_eq!(
            p.stats(),
            PageStats {
                hits: 1,
                misses: 3,
                evictions: 1,
                write_backs: 0
            }
        );
    }

    #[test]
    fn dirty_rows_write_back_on_evict_and_flush() {
        let mut p = Pager::new(counting_storage(10, 2), 2);
        let mut cache = vec![0.0f32; 2 * 2];
        p.ensure(&[1, 2], &mut cache).unwrap();
        let s1 = p.slot(1);
        cache[s1 * 2..s1 * 2 + 2].copy_from_slice(&[-1.0, -2.0]);
        p.mark_slot_dirty(s1);
        // Evicting row 1 (LRU order: 1 older than 2) must persist the edit.
        p.ensure(&[9], &mut cache).unwrap();
        assert_eq!(p.stats().write_backs, 1);
        let mut out = [0.0; 2];
        p.storage.read_rows_into(1, 1, &mut out).unwrap();
        assert_eq!(out, [-1.0, -2.0]);
        // Reloading sees the written-back bytes.
        p.ensure(&[1], &mut cache).unwrap();
        let s1 = p.slot(1);
        assert_eq!(cache[s1 * 2..s1 * 2 + 2], [-1.0, -2.0]);
        // Flush persists without unloading.
        let s1 = p.slot(1);
        cache[s1 * 2] = 42.0;
        p.mark_slot_dirty(s1);
        p.flush(&cache).unwrap();
        p.storage.read_rows_into(1, 1, &mut out).unwrap();
        assert_eq!(out[0], 42.0);
        assert_eq!(p.slot(1), s1, "flush keeps rows resident");
    }

    #[test]
    fn working_set_larger_than_budget_errors() {
        let mut p = Pager::new(counting_storage(10, 1), 2);
        let mut cache = vec![0.0f32; 2];
        let err = p.ensure(&[1, 4, 8], &mut cache).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cache budget"), "unexpected error: {msg}");
    }

    #[test]
    fn budget_at_table_size_never_evicts() {
        let mut p = Pager::new(counting_storage(4, 1), 100);
        assert_eq!(p.budget(), 4, "budget clamps to the table");
        let mut cache = vec![0.0f32; 4];
        for _ in 0..3 {
            p.ensure(&[0, 1, 2, 3], &mut cache).unwrap();
        }
        assert_eq!(p.stats().evictions, 0);
        assert_eq!(p.stats().misses, 4);
        assert_eq!(p.stats().hits, 8);
    }

    /// Wraps [`VecStorage`] counting backend calls, to observe coalescing.
    #[derive(Debug)]
    struct CallCountingStorage {
        inner: VecStorage,
        reads: u64,
        writes: u64,
    }

    impl CallCountingStorage {
        fn new(rows: usize, cols: usize) -> Box<Self> {
            let mut inner = VecStorage::new(rows, cols);
            for r in 0..rows {
                let row: Vec<f32> = (0..cols).map(|c| (r * cols + c) as f32).collect();
                inner.write_rows(r, 1, &row).unwrap();
            }
            Box::new(Self {
                inner,
                reads: 0,
                writes: 0,
            })
        }
    }

    impl RowStorage for CallCountingStorage {
        fn rows(&self) -> usize {
            self.inner.rows()
        }
        fn cols(&self) -> usize {
            self.inner.cols()
        }
        fn read_rows_into(
            &mut self,
            first: usize,
            count: usize,
            out: &mut [f32],
        ) -> std::io::Result<()> {
            self.reads += 1;
            self.inner.read_rows_into(first, count, out)
        }
        fn write_rows(&mut self, first: usize, count: usize, data: &[f32]) -> std::io::Result<()> {
            self.writes += 1;
            self.inner.write_rows(first, count, data)
        }
        fn io_ops(&self) -> (u64, u64) {
            (self.reads, self.writes)
        }
    }

    #[test]
    fn contiguous_miss_run_coalesces_to_one_read_with_same_bytes() {
        let mut p = Pager::new(CallCountingStorage::new(32, 3), 16);
        let mut cache = vec![0.0f32; 16 * 3];
        let rows: Vec<u32> = (4..20).collect();
        p.ensure(&rows, &mut cache).unwrap();
        assert_eq!(
            p.storage_io_ops(),
            (1, 0),
            "a 16-row contiguous miss run must be one backend read"
        );
        assert_eq!(p.stats().misses, 16, "counters stay per-row");
        for &r in &rows {
            let s = p.slot(r as usize);
            let want: Vec<f32> = (0..3).map(|c| (r as usize * 3 + c) as f32).collect();
            assert_eq!(&cache[s * 3..(s + 1) * 3], &want[..], "row {r} bytes");
        }
    }

    #[test]
    fn gaps_and_resident_rows_break_runs() {
        let mut p = Pager::new(CallCountingStorage::new(32, 2), 16);
        let mut cache = vec![0.0f32; 16 * 2];
        // Two runs separated by a gap: two reads.
        p.ensure(&[0, 1, 2, 5, 6], &mut cache).unwrap();
        assert_eq!(p.storage_io_ops(), (2, 0));
        // Rows 0..3 and 5..7 are now resident: only 3..5 and 7..8 miss,
        // and residency breaks what would otherwise be one 0..8 run.
        p.ensure(&[0, 1, 2, 3, 4, 5, 6, 7], &mut cache).unwrap();
        assert_eq!(p.storage_io_ops(), (4, 0));
        assert_eq!(p.stats().hits, 5);
        assert_eq!(p.stats().misses, 8);
    }

    #[test]
    fn flush_coalesces_adjacent_dirty_rows_and_preserves_bytes() {
        let mut p = Pager::new(CallCountingStorage::new(32, 2), 8);
        let mut cache = vec![0.0f32; 8 * 2];
        // Load rows in an order that scatters adjacent rows across slots.
        p.ensure(&[10], &mut cache).unwrap();
        p.ensure(&[12], &mut cache).unwrap();
        p.ensure(&[11], &mut cache).unwrap();
        p.ensure(&[20], &mut cache).unwrap();
        for r in [10u32, 11, 12, 20] {
            let s = p.slot(r as usize);
            cache[s * 2..(s + 1) * 2].copy_from_slice(&[-(r as f32), r as f32]);
            p.mark_slot_dirty(s);
        }
        let writes_before = p.storage_io_ops().1;
        p.flush(&cache).unwrap();
        assert_eq!(
            p.storage_io_ops().1 - writes_before,
            2,
            "rows 10..13 must coalesce into one write; row 20 is its own"
        );
        assert_eq!(p.stats().write_backs, 4, "counters stay per-row");
        let mut out = [0.0f32; 2];
        for r in [10usize, 11, 12, 20] {
            p.storage.read_rows_into(r, 1, &mut out).unwrap();
            assert_eq!(out, [-(r as f32), r as f32], "row {r} written back");
        }
        // A second flush has nothing dirty: no further writes.
        let writes_before = p.storage_io_ops().1;
        p.flush(&cache).unwrap();
        assert_eq!(p.storage_io_ops().1, writes_before);
    }

    #[test]
    fn trace_records_accesses_in_order() {
        let mut p = Pager::new(counting_storage(10, 1), 4);
        let mut cache = vec![0.0f32; 4];
        p.set_tracing(true);
        p.ensure(&[2, 7], &mut cache).unwrap();
        p.ensure(&[1, 7], &mut cache).unwrap();
        assert_eq!(p.trace(), Some(&[2, 7, 1, 7][..]));
    }

    /// Wraps [`VecStorage`], failing the n-th (0-based) read or write call
    /// with `EIO` — the fault the demand path must turn into an `Error`.
    #[derive(Debug)]
    struct FaultyStorage {
        inner: VecStorage,
        calls: (u64, u64),
        fail_read: Option<u64>,
        fail_write: Option<u64>,
    }

    impl FaultyStorage {
        fn new(fail_read: Option<u64>, fail_write: Option<u64>) -> Box<Self> {
            Box::new(Self {
                inner: *counting_storage(16, 2),
                calls: (0, 0),
                fail_read,
                fail_write,
            })
        }

        fn eio(what: &str) -> std::io::Error {
            std::io::Error::other(format!("injected EIO on {what}"))
        }
    }

    impl RowStorage for FaultyStorage {
        fn rows(&self) -> usize {
            self.inner.rows()
        }
        fn cols(&self) -> usize {
            self.inner.cols()
        }
        fn read_rows_into(
            &mut self,
            first: usize,
            count: usize,
            out: &mut [f32],
        ) -> std::io::Result<()> {
            self.calls.0 += 1;
            if self.fail_read == Some(self.calls.0 - 1) {
                return Err(Self::eio("read"));
            }
            self.inner.read_rows_into(first, count, out)
        }
        fn write_rows(&mut self, first: usize, count: usize, data: &[f32]) -> std::io::Result<()> {
            self.calls.1 += 1;
            if self.fail_write == Some(self.calls.1 - 1) {
                return Err(Self::eio("write"));
            }
            self.inner.write_rows(first, count, data)
        }
    }

    fn assert_storage_error(err: crate::Error, what: &str) {
        match err {
            crate::Error::Storage { context } => assert!(
                context.contains(&format!("injected EIO on {what}")),
                "I/O message lost: {context}"
            ),
            other => panic!("expected Error::Storage, got {other:?}"),
        }
    }

    #[test]
    fn failed_demand_read_surfaces_as_storage_error() {
        // Single-row and coalesced-run reads take different code paths.
        for rows in [&[3u32][..], &[3, 4, 5]] {
            let mut p = Pager::new(FaultyStorage::new(Some(1), None), 4);
            let mut cache = vec![0.0f32; 4 * 2];
            p.ensure(&[0], &mut cache).unwrap();
            let err = p.ensure(rows, &mut cache).unwrap_err();
            assert_storage_error(err, "read");
            // The pager still owns its storage: flush returns, and the row
            // that loaded before the fault is intact.
            p.flush(&cache).unwrap();
            let s = p.slot(0);
            assert_eq!(cache[s * 2..s * 2 + 2], [0.0, 1.0]);
        }
    }

    #[test]
    fn failed_eviction_write_back_surfaces_as_storage_error() {
        let mut p = Pager::new(FaultyStorage::new(None, Some(0)), 2);
        let mut cache = vec![0.0f32; 2 * 2];
        p.ensure(&[1, 2], &mut cache).unwrap();
        for r in [1usize, 2] {
            let s = p.slot(r);
            cache[s * 2] = -1.0;
            p.mark_slot_dirty(s);
        }
        // Loading row 9 must evict dirty row 1, whose write-back fails.
        let err = p.ensure(&[9], &mut cache).unwrap_err();
        assert_storage_error(err, "write");
        assert_eq!(p.stats().write_backs, 0, "a failed write is not counted");
        // Only the first write was poisoned: the victim is still resident
        // and dirty, so a later flush persists both rows and returns.
        p.flush(&cache).unwrap();
        assert_eq!(p.stats().write_backs, 2);
        let mut out = [0.0f32; 2];
        p.storage.read_rows_into(1, 1, &mut out).unwrap();
        assert_eq!(out[0], -1.0);
    }

    #[test]
    fn failed_flush_write_returns_an_error_not_a_hang() {
        let mut p = Pager::new(FaultyStorage::new(None, Some(0)), 4);
        let mut cache = vec![0.0f32; 4 * 2];
        p.ensure(&[5], &mut cache).unwrap();
        p.mark_slot_dirty(p.slot(5));
        assert_storage_error(p.flush(&cache).unwrap_err(), "write");
    }
}
