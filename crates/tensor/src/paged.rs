//! Out-of-core row storage: the [`RowStorage`] trait and the LRU [`Pager`].
//!
//! The paper's sparsity premise says a batch only ever needs `O(batch)`
//! embedding rows, and the touched-row contract (see [`crate::ParamStore`])
//! names that working set *in advance* from the batch's incidence index
//! lists. That is exactly the precondition for demand paging: the full
//! `(N + R) × d` table lives behind a [`RowStorage`] backend (a
//! `kg::stream::RowFile` through `sptransx::FileRowStorage`, or an in-RAM
//! vector for tests and the determinism baseline), and only a
//! fixed-budget cache of rows is pinned in RAM. The pager translates
//! absolute row indices to cache slots; kernels read and write the same
//! bytes they would in the resident layout, so **paging moves bytes, never
//! arithmetic** — the paged and in-RAM arms are bit-identical.
//!
//! # Placement: the backing store follows the schedule
//!
//! A backing-store call costs the same for one row as for sixty-four
//! (measured on a page-cached file: a read ≈ 1.2 µs, a write ≈ 6.3 µs, both
//! flat to 64 rows), so what out-of-core training pays for is *calls*, and
//! what makes calls few is rows that are needed together lying together.
//! The pager therefore keeps a **row placement**: file row `k` holds logical
//! row `row_at[k]`. It is the identity when nothing is known, and
//! [`crate::ParamStore::page_out`] derives it from the schedule declared for
//! the parameter (the batch plan is fixed for the whole run, paper §5.3) as
//! the lexicographic order of each row's *batch signature* — the ascending
//! list of steps that touch it.
//! Rows with equal signatures are loaded together, dirtied together and
//! evicted together, so they move as one run. Everything above the pager
//! speaks logical rows; the backing store is scratch in schedule order, not
//! an id-ordered dump (read it back with [`Pager::read_all`]).
//!
//! # `ensure` in three passes
//!
//! 1. **Hits.** Every resident row of the list renews its recency and is
//!    pinned; the others are set aside as file positions and sorted.
//! 2. **Room.** The misses need slots: unused ones first, then the least
//!    recent slots from the LRU tail. If one of those is pinned the budget
//!    is smaller than the working set — reported before a row is unmapped or
//!    a byte moved. The victims' dirty rows go back sorted by file position,
//!    adjacent positions gathered into **one** write; only when every write
//!    has returned are the victims unmapped.
//! 3. **Loads.** The misses come in by file position, adjacent positions
//!    in **one** read, scattered to their slots.
//!
//! [`Pager::flush`] is pass 2's writer over every dirty slot.
//!
//! # Replacement policy and the simcache cross-check
//!
//! Eviction is exact LRU over whole rows, in the order accesses are *made*:
//! the hits of a list in list order, then its misses in file order — which
//! is the order the trace records. Renewing every hit before the first
//! eviction means a miss can never displace a row the same list still
//! needs (which it would then re-read). Each [`Pager::ensure`] call renews a
//! *pin epoch* on every row it loads or hits, and refuses to evict a slot
//! pinned in the current epoch — a batch's working set must be co-resident
//! while kernels run. Because every pinned slot was by definition accessed
//! in the current epoch, pinned slots are always more recent than every
//! unpinned slot, so the LRU victim is never pinned unless the budget is
//! smaller than the working set (a hard error). Whenever `ensure` succeeds,
//! its hit/miss/eviction decisions are therefore those of a plain
//! fully-associative LRU cache fed the recorded trace: a sequential LRU
//! meets the hits first (no evictions), then evicts one tail row per miss
//! once the cache is full — the same rows pass 2 takes from the tail in one
//! go, since the misses join at the head. That is what lets the counters be
//! cross-validated *exactly* against a `simcache` model replaying the trace
//! (the same first-principles validation idiom the serving layer uses for
//! its query cache).

use std::sync::Arc;

use crate::Tensor;

/// Sentinel for "row not resident" in [`Pager`] slot maps (the one
/// [`sparse::DenseView::row`] checks) and for list ends in the intrusive LRU
/// links.
pub(crate) const NOT_RESIDENT: u32 = sparse::DenseView::NOT_RESIDENT;

/// Random-access backing storage for a parameter's rows.
///
/// Implementations move raw `f32` rows between the backing medium and
/// caller-provided buffers; they never interpret the values. The in-crate
/// [`VecStorage`] keeps rows in RAM (tests, benches, the determinism
/// baseline). The one file-backed implementation is `sptransx`'s
/// `FileRowStorage` over `kg::stream::RowFile` — read-write for a pagefile,
/// read-only for a serving store — so this crate stays free of format
/// knowledge.
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

/// A declared access schedule: for each step (batch), the index lists whose
/// union that step pages in. The lists are shared with whoever built them,
/// so declaring a schedule copies pointers, not rows.
pub type Schedule = Vec<Vec<Arc<[u32]>>>;

/// Most rows one backing-store call moves: the size of the pager's staging
/// buffer, and so of every transfer of [`Pager::write_all`] and
/// [`Pager::read_all`].
const CHUNK_ROWS: usize = 4096;

/// The row placement a schedule asks for: `result[k]` is the logical row
/// that file row `k` should hold (see the module docs).
///
/// Touched rows are ordered by `(signature, id)`, where a row's signature is
/// the ascending list of steps with a list that contains it (both lists of
/// one step count once); untouched rows follow in id order. An empty
/// schedule gives the identity. A pure function of its arguments: the same
/// schedule always places rows the same way.
///
/// The signatures are built in CSR form by two counting passes, rows are
/// bucketed by first step (and by whether a second one follows) with a
/// counting sort, and only the rows of two or more steps are compared.
///
/// # Panics
///
/// Panics if a list names a row `≥ rows`.
pub(crate) fn placement(schedule: &[Vec<Arc<[u32]>>], rows: usize) -> Vec<u32> {
    /// Calls `f(step, row)` once per (step, row) incidence, steps ascending.
    fn incidences(schedule: &[Vec<Arc<[u32]>>], seen: &mut [u32], mut f: impl FnMut(u32, usize)) {
        seen.fill(u32::MAX);
        for (step, lists) in schedule.iter().enumerate() {
            for &row in lists.iter().flat_map(|list| list.iter()) {
                if std::mem::replace(&mut seen[row as usize], step as u32) != step as u32 {
                    f(step as u32, row as usize);
                }
            }
        }
    }
    let mut seen = vec![0u32; rows];
    // `end[r]` counts row r's steps, then is where its signature starts, and
    // after the fill where it ends (row r - 1's end is where it starts).
    let mut end = vec![0u32; rows];
    incidences(schedule, &mut seen, |_, row| end[row] += 1);
    let mut total = 0;
    for e in &mut end {
        total += std::mem::replace(e, total);
    }
    let mut steps = vec![0u32; total as usize];
    incidences(schedule, &mut seen, |step, row| {
        steps[end[row] as usize] = step;
        end[row] += 1;
    });
    let signature = |row: u32| {
        let begin = row.checked_sub(1).map_or(0, |prev| end[prev as usize]);
        &steps[begin as usize..end[row as usize] as usize]
    };

    // Bucket `2 · first step + (more steps follow)`; untouched rows last.
    // One stable counting sort, the marker's storage holding the buckets.
    let untouched = 2 * schedule.len();
    let mut bucket_of = seen;
    let mut starts = vec![0usize; untouched + 2];
    for (row, bucket) in bucket_of.iter_mut().enumerate() {
        *bucket = match signature(row as u32) {
            [] => untouched as u32,
            [first] => 2 * first,
            [first, ..] => 2 * first + 1,
        };
        starts[*bucket as usize + 1] += 1;
    }
    for b in 0..=untouched {
        starts[b + 1] += starts[b];
    }
    let mut order = vec![0u32; rows];
    let mut next = starts.clone();
    for (row, &bucket) in bucket_of.iter().enumerate() {
        order[next[bucket as usize]] = row as u32;
        next[bucket as usize] += 1;
    }
    // One-step buckets are final (equal signatures, ids ascending); the
    // others share a first step and are ordered by the rest. Most
    // signatures are short, so the comparisons run on each row's next four
    // steps packed into one integer that orders as they do (an absent step
    // is 0, below every `step + 1`) and reach for the lists only on a tie.
    let mut keyed: Vec<(u128, u32)> = Vec::new();
    for b in (1..untouched).step_by(2) {
        let bucket = &mut order[starts[b]..starts[b + 1]];
        keyed.clear();
        keyed.extend(bucket.iter().map(|&row| {
            let next_steps = (1..5).map(|k| signature(row).get(k).map_or(0, |&s| s as u128 + 1));
            (next_steps.fold(0, |key, step| key << 32 | step), row)
        }));
        keyed.sort_unstable_by(|x, y| {
            let by_lists = || signature(x.1).cmp(signature(y.1));
            x.0.cmp(&y.0).then_with(by_lists).then(x.1.cmp(&y.1))
        });
        for (slot, &(_, row)) in bucket.iter_mut().zip(&keyed) {
            *slot = row;
        }
    }
    order
}

/// The leading run of `positions` (ascending): how many are adjacent, at
/// most [`CHUNK_ROWS`].
fn run_len(positions: &[u32]) -> usize {
    let limit = positions.len().min(CHUNK_ROWS);
    (1..limit)
        .find(|&k| positions[k] != positions[0] + k as u32)
        .unwrap_or(limit)
}

/// Demand pager for one parameter: a fixed budget of row slots over a
/// [`RowStorage`] backend, with a row placement, exact-LRU eviction,
/// per-batch pinning, and run-coalesced dirty-row write-back.
///
/// The pager owns the *bookkeeping* (placement, slot maps, LRU links, dirty
/// bits, counters) but not the cache bytes themselves — those stay in the
/// caller's `budget × cols` buffer (for `ParamStore`, the parameter's value
/// tensor, so peak-memory accounting sees exactly the pinned cache). All
/// methods take the cache buffer explicitly. Steady-state paging is
/// allocation-free: every list below is a scratch reused across calls.
#[derive(Debug)]
pub struct Pager {
    storage: Box<dyn RowStorage>,
    /// Logical row count (cached from the storage).
    rows: usize,
    /// Row width (cached from the storage).
    cols: usize,
    /// Number of cache slots.
    budget: usize,
    /// File position → logical row (the placement), and its inverse.
    row_at: Vec<u32>,
    pos_of: Vec<u32>,
    /// Absolute row → slot, or [`NOT_RESIDENT`].
    slot_of: Vec<u32>,
    /// Slot → absolute row, or [`NOT_RESIDENT`] for slots holding no row.
    row_of: Vec<u32>,
    /// Intrusive doubly-linked LRU list over slots (head = most recent).
    lru_prev: Vec<u32>,
    lru_next: Vec<u32>,
    head: u32,
    tail: u32,
    /// Next never-used slot (slots are handed out in order before any
    /// eviction happens).
    next_free: usize,
    /// Slots whose row was evicted and that hold none yet: filled by pass 2
    /// of [`Pager::ensure`], drained by pass 3 (a failed load leaves its
    /// share here for the next call).
    free: Vec<u32>,
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
    /// Scratch for merged working-set unions.
    union_scratch: Vec<u32>,
    /// The cache slots of the row list last handed to [`Pager::translate`]
    /// — what a sweep over those rows walks.
    pub(crate) translation: Vec<u32>,
    /// File positions of the rows the current [`Pager::ensure`] must load.
    missing: Vec<u32>,
    /// File positions of the resident rows [`Pager::write_back`] is to save.
    to_write: Vec<u32>,
    /// Staging buffer every transfer goes through (rows adjacent in the
    /// backing store are scattered across cache slots): at most
    /// [`CHUNK_ROWS`] rows.
    staging: Vec<f32>,
}

impl Pager {
    /// Creates a pager over `storage` with `budget` row slots and the
    /// identity placement (file row `k` holds logical row `k`).
    ///
    /// `budget` is clamped to the storage's row count (a budget of 100% of
    /// the table degenerates to "load once, never evict").
    pub fn new(storage: Box<dyn RowStorage>, budget: usize) -> Self {
        let rows = storage.rows() as u32;
        Self::with_placement(storage, budget, (0..rows).collect())
    }

    /// [`Pager::new`] over a backing store whose file row `k` holds logical
    /// row `row_at[k]` (see [`placement`]). The store's current contents are
    /// read under that placement; [`Pager::write_all`] lays a table out in
    /// it.
    ///
    /// # Panics
    ///
    /// Panics unless `row_at` is a permutation of the storage's rows.
    pub(crate) fn with_placement(
        storage: Box<dyn RowStorage>,
        budget: usize,
        row_at: Vec<u32>,
    ) -> Self {
        let rows = storage.rows();
        let cols = storage.cols();
        let budget = budget.max(1).min(rows.max(1));
        assert_eq!(row_at.len(), rows, "placement must cover every row");
        let mut pos_of = vec![NOT_RESIDENT; rows];
        for (pos, &row) in row_at.iter().enumerate() {
            let seen = std::mem::replace(&mut pos_of[row as usize], pos as u32);
            assert_eq!(seen, NOT_RESIDENT, "placement holds row {row} twice");
        }
        Self {
            storage,
            rows,
            cols,
            budget,
            row_at,
            pos_of,
            slot_of: vec![NOT_RESIDENT; rows],
            row_of: vec![NOT_RESIDENT; budget],
            lru_prev: vec![NOT_RESIDENT; budget],
            lru_next: vec![NOT_RESIDENT; budget],
            head: NOT_RESIDENT,
            tail: NOT_RESIDENT,
            next_free: 0,
            free: Vec::new(),
            pin_epoch: vec![0; budget],
            epoch: 0,
            dirty_slot: vec![false; budget],
            stats: PageStats::default(),
            trace: None,
            union_scratch: Vec::new(),
            translation: Vec::new(),
            missing: Vec::new(),
            to_write: Vec::new(),
            staging: Vec::new(),
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

    /// The recorded row-access trace, if tracing is enabled: per
    /// [`Pager::ensure`] call, its hits in list order, then its misses in
    /// file order.
    pub fn trace(&self) -> Option<&[u32]> {
        self.trace.as_deref()
    }

    /// The placement: file position → logical row.
    pub fn row_at(&self) -> &[u32] {
        &self.row_at
    }

    /// Absolute row → slot map (one entry per logical row,
    /// `u32::MAX` = not resident).
    pub fn slot_of(&self) -> &[u32] {
        &self.slot_of
    }

    /// Slot → absolute row map (`u32::MAX` = holds no row).
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

    /// Pages in `rows` (deduplicated, any order), pinning them for this
    /// epoch. `cache` is the `budget × cols` slot buffer. The three passes
    /// are the module docs': hits renew LRU recency; the least recent
    /// unpinned rows make room, their dirty ones written back first; the
    /// misses load. Reads and writes are issued in file order, a run of
    /// adjacent positions per backing-store call; the counters stay per
    /// row.
    ///
    /// # Errors
    ///
    /// Fails if `rows` exceeds the slot budget (the batch working set does
    /// not fit — raise `--cache-rows`) or on backing-store I/O errors. Both
    /// are fatal to the training run, and neither loses a byte:
    ///
    /// * a budget too small is found before anything is unmapped or moved —
    ///   only hit counts and recency have advanced;
    /// * a failed write-back leaves every victim resident, those whose write
    ///   returned clean and counted, the rest still dirty for a later
    ///   [`Pager::flush`];
    /// * a failed read leaves the runs before it loaded and the failing run
    ///   and those after it unmapped (their slots stay free).
    pub fn ensure(&mut self, rows: &[u32], cache: &mut [f32]) -> crate::Result<()> {
        self.epoch += 1;
        let mut missing = std::mem::take(&mut self.missing);
        missing.clear();
        for &r in rows {
            let s = self.slot_of[r as usize];
            if s == NOT_RESIDENT {
                missing.push(self.pos_of[r as usize]);
                continue;
            }
            self.stats.hits += 1;
            self.pin_epoch[s as usize] = self.epoch;
            self.detach(s);
            self.push_front(s);
            if let Some(t) = &mut self.trace {
                t.push(r);
            }
        }
        missing.sort_unstable();
        debug_assert!(missing.windows(2).all(|w| w[0] < w[1]), "rows repeat");
        let result = self
            .make_room(missing.len(), rows.len(), cache)
            .and_then(|()| self.load(&missing, cache));
        self.missing = missing;
        result
    }

    /// Pass 2 of [`Pager::ensure`]: frees slots until `needed` rows can be
    /// mapped, evicting from the LRU tail.
    fn make_room(&mut self, needed: usize, requested: usize, cache: &[f32]) -> crate::Result<()> {
        let unused = self.free.len() + (self.budget - self.next_free);
        let victims = needed.saturating_sub(unused);
        self.to_write.clear();
        let mut s = self.tail;
        for _ in 0..victims {
            if s == NOT_RESIDENT || self.pin_epoch[s as usize] == self.epoch {
                return Err(storage_error(format!(
                    "cache budget of {} rows is smaller than the working set ({requested} rows requested); raise --cache-rows",
                    self.budget,
                )));
            }
            if self.dirty_slot[s as usize] {
                let row = self.row_of[s as usize];
                self.to_write.push(self.pos_of[row as usize]);
            }
            s = self.lru_prev[s as usize];
        }
        self.write_back(cache)?;
        for _ in 0..victims {
            let s = self.tail;
            self.detach(s);
            let row = std::mem::replace(&mut self.row_of[s as usize], NOT_RESIDENT);
            self.slot_of[row as usize] = NOT_RESIDENT;
            self.stats.evictions += 1;
            self.free.push(s);
        }
        Ok(())
    }

    /// Pass 3 of [`Pager::ensure`]: loads the rows at `missing` (ascending
    /// file positions) into free slots, one read per run of adjacent
    /// positions. A run is mapped only once its read has returned.
    fn load(&mut self, missing: &[u32], cache: &mut [f32]) -> crate::Result<()> {
        let cols = self.cols;
        let mut staging = std::mem::take(&mut self.staging);
        let mut result = Ok(());
        let mut at = 0;
        while at < missing.len() {
            let run = &missing[at..at + run_len(&missing[at..])];
            staging.resize(run.len() * cols, 0.0);
            let read = self
                .storage
                .read_rows_into(run[0] as usize, run.len(), &mut staging);
            if let Err(e) = read {
                result = Err(io_error(e));
                break;
            }
            for (&pos, bytes) in run.iter().zip(staging.chunks_exact(cols)) {
                let row = self.row_at[pos as usize];
                let s = self.free.pop().unwrap_or_else(|| {
                    self.next_free += 1;
                    self.next_free as u32 - 1
                });
                let si = s as usize;
                cache[si * cols..(si + 1) * cols].copy_from_slice(bytes);
                self.slot_of[row as usize] = s;
                self.row_of[si] = row;
                self.pin_epoch[si] = self.epoch;
                self.dirty_slot[si] = false;
                self.push_front(s);
                self.stats.misses += 1;
                if let Some(t) = &mut self.trace {
                    t.push(row);
                }
            }
            at += run.len();
        }
        self.staging = staging;
        result
    }

    /// **The** write-back routine, shared by eviction and [`Pager::flush`]:
    /// saves the resident rows at the file positions in `to_write`, in file
    /// order, a run of adjacent positions per backing-store write (gathered
    /// through the staging buffer). A row turns clean, and counts as
    /// written back, only once its write has returned.
    fn write_back(&mut self, cache: &[f32]) -> crate::Result<()> {
        let cols = self.cols;
        self.to_write.sort_unstable();
        let mut at = 0;
        while at < self.to_write.len() {
            let run = &self.to_write[at..at + run_len(&self.to_write[at..])];
            let slot = |pos: u32| self.slot_of[self.row_at[pos as usize] as usize] as usize;
            self.staging.resize(run.len() * cols, 0.0);
            for (&pos, bytes) in run.iter().zip(self.staging.chunks_exact_mut(cols)) {
                let si = slot(pos);
                bytes.copy_from_slice(&cache[si * cols..(si + 1) * cols]);
            }
            self.storage
                .write_rows(run[0] as usize, run.len(), &self.staging)
                .map_err(io_error)?;
            for &pos in run {
                self.dirty_slot[slot(pos)] = false;
            }
            self.stats.write_backs += run.len() as u64;
            at += run.len();
        }
        Ok(())
    }

    /// Writes every dirty resident row back to storage and flushes it. The
    /// cache stays resident (this is the checkpoint hook, not an unload).
    /// The bytes that land in storage, and the `write_backs` counter (one
    /// per row), are those of a slot-at-a-time walk.
    ///
    /// # Errors
    ///
    /// I/O errors from the backing store; rows whose write had not returned
    /// stay dirty.
    pub fn flush(&mut self, cache: &[f32]) -> crate::Result<()> {
        self.to_write.clear();
        for (&row, &dirty) in self.row_of.iter().zip(&self.dirty_slot) {
            if dirty && row != NOT_RESIDENT {
                self.to_write.push(self.pos_of[row as usize]);
            }
        }
        self.write_back(cache)?;
        self.storage.flush().map_err(io_error)
    }

    /// Lays the full logical `table` out in backing storage under the
    /// placement and flushes it, a bounded chunk of rows per write — never a
    /// second copy of the table.
    ///
    /// # Errors
    ///
    /// I/O errors from the backing store.
    pub(crate) fn write_all(&mut self, table: &[f32]) -> crate::Result<()> {
        let cols = self.cols;
        for (k, chunk) in self.row_at.chunks(CHUNK_ROWS).enumerate() {
            self.staging.resize(chunk.len() * cols, 0.0);
            for (&row, bytes) in chunk.iter().zip(self.staging.chunks_exact_mut(cols)) {
                let row = row as usize;
                bytes.copy_from_slice(&table[row * cols..(row + 1) * cols]);
            }
            self.storage
                .write_rows(k * CHUNK_ROWS, chunk.len(), &self.staging)
                .map_err(io_error)?;
        }
        self.storage.flush().map_err(io_error)
    }

    /// Reads the full logical table from backing storage into `out`,
    /// undoing the placement, a bounded chunk of rows per read (callers flush
    /// first so the bytes are current).
    ///
    /// # Errors
    ///
    /// I/O errors from the backing store.
    pub fn read_all(&mut self, out: &mut [f32]) -> crate::Result<()> {
        let cols = self.cols;
        for (k, chunk) in self.row_at.chunks(CHUNK_ROWS).enumerate() {
            self.staging.resize(chunk.len() * cols, 0.0);
            self.storage
                .read_rows_into(k * CHUNK_ROWS, chunk.len(), &mut self.staging)
                .map_err(io_error)?;
            for (&row, bytes) in chunk.iter().zip(self.staging.chunks_exact(cols)) {
                let row = row as usize;
                out[row * cols..(row + 1) * cols].copy_from_slice(bytes);
            }
        }
        Ok(())
    }

    /// Reorders `rows` by file position — the order in which a walk over
    /// them in budget-sized chunks pages whole runs.
    pub(crate) fn sort_by_position(&self, rows: &mut [u32]) {
        for r in rows.iter_mut() {
            *r = self.pos_of[*r as usize];
        }
        rows.sort_unstable();
        for p in rows.iter_mut() {
            *p = self.row_at[*p as usize];
        }
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
    /// in via [`Pager::ensure`] — the one merge behind a training batch's
    /// working set and a served query's. The union buffer is reused across
    /// calls, so the steady-state merge is allocation-free.
    ///
    /// # Errors
    ///
    /// See [`Pager::ensure`].
    pub fn ensure_union(&mut self, lists: &[&[u32]], cache: &mut [f32]) -> crate::Result<()> {
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
pub(crate) mod tests {
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

    /// The budget is checked before a row is unmapped or a byte moved: after
    /// the error only the hit count and recency have advanced.
    #[test]
    fn working_set_larger_than_budget_leaves_the_cache_as_it_was() {
        let mut p = Pager::new(CallCountingStorage::new(10, 1), 3);
        let mut cache = vec![0.0f32; 3];
        p.ensure(&[1, 2], &mut cache).unwrap();
        for r in [1, 2] {
            cache[p.slot(r)] = -(r as f32);
            p.mark_slot_dirty(p.slot(r));
        }
        let before = (
            p.slot_of.clone(),
            p.row_of.clone(),
            p.dirty_slot.clone(),
            p.storage_io_ops(),
            cache.clone(),
        );
        let stats = p.stats();
        // Row 1 hits; 4, 8 and 9 need the free slot, row 2's — and row 1's,
        // which this very call has pinned.
        let err = p.ensure(&[1, 4, 8, 9], &mut cache).unwrap_err();
        assert!(err.to_string().contains("cache budget"), "{err}");
        let after = (
            p.slot_of.clone(),
            p.row_of.clone(),
            p.dirty_slot.clone(),
            p.storage_io_ops(),
            cache.clone(),
        );
        assert_eq!(after, before, "maps, dirty bits, I/O calls or bytes moved");
        let hits = stats.hits + 1;
        assert_eq!(p.stats(), PageStats { hits, ..stats });
        assert!(p.free.is_empty());
        // The pager is still whole: a working set that fits loads, evicting
        // (and saving) dirty row 2, the least recent.
        p.ensure(&[1, 4, 8], &mut cache).unwrap();
        assert_eq!(p.slot_of()[2], NOT_RESIDENT);
        assert_eq!(p.stats().write_backs, 1);
        let mut out = [0.0f32];
        p.storage.read_rows_into(2, 1, &mut out).unwrap();
        assert_eq!(out, [-2.0]);
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

    fn schedule_of(steps: &[&[&[u32]]]) -> Schedule {
        let shared = |lists: &&[&[u32]]| lists.iter().map(|&l| Arc::from(l)).collect();
        steps.iter().map(shared).collect()
    }

    #[test]
    fn placement_orders_rows_by_batch_signature() {
        // Signatures: 0 → [0, 1, 2], 1 → [0], 2 → [1, 2], 3 → [0, 2],
        // 4 → untouched, 5 → [0], 6 → [1], 7 → [0, 2], 8 → untouched,
        // 9 → [1, 2]. Row 5 is in both lists of step 0: one incidence.
        let schedule = schedule_of(&[
            &[&[0, 1, 5, 7], &[3, 5]],
            &[&[9, 0], &[2, 6]],
            &[&[2, 3, 9], &[0, 7]],
        ]);
        let order = placement(&schedule, 10);
        // [0] < [0, 1, 2] < [0, 2] < [1] < [1, 2] < untouched; ids ascend
        // within a signature.
        assert_eq!(order, [1, 5, 0, 3, 7, 6, 2, 9, 4, 8]);
        assert_eq!(placement(&schedule, 10), order, "a pure function");
        // Nothing known: the identity, whatever the reason.
        assert_eq!(placement(&[], 4), [0, 1, 2, 3]);
        assert_eq!(placement(&schedule_of(&[&[], &[&[]]]), 3), [0, 1, 2]);
        assert_eq!(placement(&[], 0), [0u32; 0], "an empty table");
    }

    /// On a pseudo-random schedule, the counting passes and bucketed sort
    /// agree with the definition spelled out naively — which makes the
    /// result a permutation with equal signatures contiguous and
    /// id-ascending and the untouched rows last.
    #[test]
    fn placement_matches_the_naive_definition() {
        let (rows, steps) = (300u32, 16usize);
        let mut state = 0x9E37_79B9u32;
        let mut next = |n: u32| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) % n
        };
        // Popular low ids, so signatures of every length occur and repeat.
        let mut pick = || {
            let bound = next(rows - 60) + 1;
            next(bound)
        };
        let mut list = |len| (0..len).map(|_| pick()).collect::<Vec<_>>();
        let schedule: Schedule = (0..steps)
            .map(|_| vec![Arc::from(list(50)), Arc::from(list(25))])
            .collect();
        let signature = |row: u32| -> Vec<usize> {
            let touches = |lists: &Vec<Arc<[u32]>>| lists.iter().any(|l| l.contains(&row));
            (0..steps).filter(|&s| touches(&schedule[s])).collect()
        };
        let mut naive: Vec<u32> = (0..rows).collect();
        naive.sort_by_key(|&row| (signature(row).is_empty(), signature(row), row));
        let order = placement(&schedule, rows as usize);
        assert_eq!(order, naive);
        let touched = naive.iter().filter(|&&r| !signature(r).is_empty()).count();
        assert!(
            touched > 100 && touched < rows as usize - 60,
            "{touched} touched"
        );
        // Every branch of the order is exercised: one-step rows, and pairs
        // that differ only beyond the five steps the packed keys hold.
        let signatures: Vec<_> = (0..rows).map(signature).collect();
        assert!(signatures.iter().any(|s| s.len() == 1));
        let long: Vec<_> = signatures.iter().filter(|s| s.len() > 5).collect();
        let tie = |a: &&Vec<usize>, b: &&Vec<usize>| a != b && a[..5] == b[..5];
        assert!(long.iter().any(|a| long.iter().any(|b| tie(a, b))));
    }

    /// A placed pager serves the same logical rows as an identity one, and
    /// coalesces by *file* adjacency: whole-table write and read are inverse
    /// permutations, a demand read of rows adjacent in the file is one call,
    /// a write-back likewise.
    #[test]
    fn placed_pager_moves_logical_rows_and_coalesces_by_file_position() {
        let (rows, cols) = (12usize, 2usize);
        let row_at: Vec<u32> = vec![7, 3, 11, 0, 5, 9, 1, 2, 10, 4, 8, 6];
        let table: Vec<f32> = (0..rows * cols).map(|k| k as f32).collect();
        let mut p = Pager::with_placement(CallCountingStorage::new(rows, cols), 6, row_at.clone());
        assert_eq!(p.row_at(), &row_at[..]);
        p.write_all(&table).unwrap();
        let mut back = vec![0.0f32; rows * cols];
        p.read_all(&mut back).unwrap();
        assert_eq!(back, table);
        let mut stored = [0.0f32; 2];
        p.storage.read_rows_into(2, 1, &mut stored).unwrap();
        assert_eq!(stored, [22.0, 23.0], "file row 2 holds logical row 11");

        let (reads, writes) = p.storage_io_ops();
        let mut cache = vec![0.0f32; 6 * cols];
        // File positions 1, 2, 3 and 8, 9: two runs, in any list order.
        p.ensure(&[0, 4, 11, 10, 3], &mut cache).unwrap();
        assert_eq!(p.storage_io_ops(), (reads + 2, writes));
        for r in [0usize, 3, 4, 10, 11] {
            let s = p.slot(r);
            assert_eq!(
                cache[s * cols..(s + 1) * cols],
                table[r * cols..(r + 1) * cols]
            );
            cache[s * cols] = -(r as f32);
            p.mark_slot_dirty(s);
        }
        p.flush(&cache).unwrap();
        assert_eq!(p.storage_io_ops(), (reads + 2, writes + 2));
        p.read_all(&mut back).unwrap();
        for r in 0..rows {
            let edited = [0, 3, 4, 10, 11].contains(&r);
            let want = if edited { -(r as f32) } else { table[r * cols] };
            assert_eq!(back[r * cols], want, "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "placement holds row 1 twice")]
    fn placement_must_be_a_permutation() {
        Pager::with_placement(counting_storage(3, 1), 2, vec![1, 1, 0]);
    }

    /// The trace is the order in which accesses are *made*, which is what a
    /// sequential LRU model has to be fed to reproduce the counters: per
    /// call, the hits in list order (all renewed before anything is
    /// evicted), then the misses in file order.
    #[test]
    fn trace_records_accesses_in_order() {
        let mut p = Pager::new(counting_storage(10, 1), 4);
        let mut cache = vec![0.0f32; 4];
        p.set_tracing(true);
        p.ensure(&[7, 2], &mut cache).unwrap();
        p.ensure(&[1, 7], &mut cache).unwrap();
        assert_eq!(p.trace(), Some(&[2, 7, 7, 1][..]));
        // Under a placement, "file order" is not id order.
        let mut p = Pager::with_placement(counting_storage(4, 1), 4, vec![3, 1, 0, 2]);
        p.set_tracing(true);
        p.ensure(&[0, 1, 2, 3], &mut cache).unwrap();
        assert_eq!(p.trace(), Some(&[3, 1, 0, 2][..]));
    }

    /// Wraps [`VecStorage`], failing the n-th (0-based) read or write call
    /// with `EIO` — the fault the demand path must turn into an `Error`.
    #[derive(Debug)]
    pub(crate) struct FaultyStorage {
        inner: VecStorage,
        calls: (u64, u64),
        fail_read: Option<u64>,
        fail_write: Option<u64>,
    }

    impl FaultyStorage {
        pub(crate) fn new(fail_read: Option<u64>, fail_write: Option<u64>) -> Box<Self> {
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

    pub(crate) fn assert_storage_error(err: crate::Error, what: &str) {
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

    /// A run is mapped only once its read has returned: after a failed
    /// coalesced read the runs before it are loaded, the failing run and the
    /// ones after it are not (and not counted), and their slots — the
    /// victims were already evicted — stay free for the retry.
    #[test]
    fn failed_coalesced_read_maps_no_row_of_the_failing_run() {
        let mut p = Pager::new(FaultyStorage::new(Some(2), None), 6);
        let mut cache = vec![0.0f32; 6 * 2];
        p.ensure(&[0, 1, 2, 3, 4, 5], &mut cache).unwrap(); // read 0
                                                            // Runs 7..10 (read 1), 11..13 (read 2: fails) and 14 (never tried)
                                                            // need all six slots.
        let err = p.ensure(&[7, 8, 9, 11, 12, 14], &mut cache).unwrap_err();
        assert_storage_error(err, "read");
        for r in [7usize, 8, 9] {
            let s = p.slot(r);
            assert_eq!(
                cache[s * 2..s * 2 + 2],
                [(2 * r) as f32, (2 * r + 1) as f32]
            );
        }
        for r in [11, 12, 14] {
            assert_eq!(
                p.slot_of()[r],
                NOT_RESIDENT,
                "row {r} of or after the failing run"
            );
        }
        let stats = p.stats();
        assert_eq!((stats.misses, stats.evictions), (6 + 3, 6));
        assert_eq!(p.free.len(), 3, "the unfilled slots are not lost");
        p.ensure(&[11, 12, 14], &mut cache).unwrap();
        assert!(p.free.is_empty());
        assert_eq!(p.stats().evictions, 6, "the retry needed no new victim");
        for r in [7usize, 8, 9, 11, 12, 14] {
            let s = p.slot(r);
            assert_eq!(
                cache[s * 2..s * 2 + 2],
                [(2 * r) as f32, (2 * r + 1) as f32]
            );
        }
    }

    #[test]
    fn failed_eviction_write_back_surfaces_as_storage_error() {
        // Four dirty victims in two coalesced runs; the second run's write
        // (call 1) is the one that fails.
        let mut p = Pager::new(FaultyStorage::new(None, Some(1)), 4);
        let mut cache = vec![0.0f32; 4 * 2];
        let victims = [1usize, 2, 5, 6];
        p.ensure(&[1, 2, 5, 6], &mut cache).unwrap();
        for r in victims {
            let s = p.slot(r);
            cache[s * 2] = -(r as f32);
            p.mark_slot_dirty(s);
        }
        let err = p.ensure(&[9, 10, 11, 12], &mut cache).unwrap_err();
        assert_storage_error(err, "write");
        // Every victim is still resident; rows 1 and 2, whose write
        // returned, are clean and counted, rows 5 and 6 still dirty.
        let dirty = victims.map(|r| p.dirty_slot[p.slot(r)]);
        assert_eq!(dirty, [false, false, true, true]);
        let stats = p.stats();
        assert_eq!(
            (stats.write_backs, stats.evictions, stats.misses),
            (2, 0, 4)
        );
        assert_eq!(p.slot_of()[9], NOT_RESIDENT);
        // Only that one write was poisoned: a later flush persists the rest.
        p.flush(&cache).unwrap();
        assert_eq!(p.stats().write_backs, 4);
        let mut out = [0.0f32; 2];
        for r in victims {
            p.storage.read_rows_into(r, 1, &mut out).unwrap();
            assert_eq!(out[0], -(r as f32), "row {r}");
        }
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
