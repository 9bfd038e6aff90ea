//! Parameter storage: the model's learnable tensors, their gradients, the
//! touched-row sets that make every downstream gradient sweep sparse, and
//! the dirty-row sets that make per-epoch renormalization sparse too.
//!
//! A gradient is **the size of the working set**, not of the table: each
//! parameter packs the rows a step touched into one compact slot buffer, in
//! first-touch order, behind a permanent `+0.0` row (slot 0) that every
//! untouched row maps to. The buffer is sized before the first step from the
//! largest step of the parameter's declared access schedule
//! ([`ParamStore::declare_schedule`]), or from its row count when none is
//! declared; [`ParamStore::grad_bytes`] reports what it holds. Only the
//! all-rows state (the `--dense-grads` ablation, an untracked
//! [`ParamStore::grad_mut`] writer) gives every row a slot of its own.
//!
//! Parameters can additionally be **paged out** to a [`RowStorage`] backend
//! ([`ParamStore::page_out`]): the full value table then lives behind the
//! backend and only a fixed budget of rows — each batch's touched working
//! set, known in advance from the incidence index lists — is resident in a
//! pinned cache with LRU eviction and dirty-row write-back (see
//! [`crate::paged`]). The gradient keeps the same slot buffer either way.

use std::sync::OnceLock;

use sparse::DenseView;
use xparallel::{PoolHandle, Rows};

use crate::paged::{placement, storage_error, Pager, RowStorage, Schedule};
use crate::{Error, Result, Tensor};

/// Opaque handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The dense index of this parameter within its store (stable for the
    /// store's lifetime; optimizers key their state on it).
    pub fn index(self) -> usize {
        self.0
    }
}

/// The set of parameter rows whose gradient may be nonzero — the
/// **touched-row contract** threaded from the autograd tape to the
/// optimizers and the data-parallel all-reduce.
///
/// Two states:
///
/// * **Sparse** — a sorted, deduplicated list of row indices. Maintained by
///   [`ParamStore::touch`]; every downstream sweep (`zero_grads`, the
///   backward kernels, `Sgd`, `Adagrad`, the all-reduce) is a
///   [`ParamStore::sweep`] over these rows, so per-batch cost is
///   `O(batch · d)` instead of `O(N · d)`.
/// * **Dense** — [`RowSet::mark_all`]: every row may hold gradient. This is
///   the fallback for writers without row structure (anything going through
///   [`ParamStore::grad_mut`]) and the explicit
///   [`ParamStore::set_dense_grads`] ablation mode; the *same* sweeps then
///   visit every row, which is bit-identical to the sparse walk. It is also
///   the one state in which a gradient is table-sized: every row gets a
///   slot of its own (row `r` in slot `r + 1`), where a sparse set's rows
///   share a buffer sized for the largest step.
///
/// Nothing outside the store branches on the state: consumers hand
/// [`ParamStore::sweep`] a per-row body and the store decides which rows
/// that means and where they live. [`RowSet::as_slice`] and
/// [`RowSet::is_dense`] stay readable for assertions and reports.
///
/// The backing vector keeps its capacity across [`RowSet::clear`], so the
/// steady-state training step reuses it batch after batch (arena-style —
/// no per-batch allocation once the largest batch has been seen).
///
/// # Examples
///
/// ```
/// use tensor::RowSet;
///
/// let mut rows = RowSet::new();
/// rows.insert_slice(&[5, 1, 5, 3]);
/// rows.insert_slice(&[2, 3]);
/// assert_eq!(rows.as_slice(), Some(&[1, 2, 3, 5][..]));
/// rows.mark_all();
/// assert!(rows.is_dense());
/// assert_eq!(rows.as_slice(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RowSet {
    rows: Vec<u32>,
    /// Merge scratch for [`RowSet::insert_slice`]; kept on the set so the
    /// steady-state union is allocation-free once at high-water capacity.
    scratch: Vec<u32>,
    dense: bool,
}

impl RowSet {
    /// Creates an empty (sparse) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the set is in the dense (all-rows) state.
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// Whether no row is marked (and the set is not dense).
    pub fn is_empty(&self) -> bool {
        !self.dense && self.rows.is_empty()
    }

    /// Number of listed rows (meaningless when dense).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Switches to the dense state: every row may hold gradient.
    pub fn mark_all(&mut self) {
        self.dense = true;
        self.rows.clear();
    }

    /// Resets to the empty sparse state, **retaining capacity** so the next
    /// batch's inserts are allocation-free once the high-water mark is
    /// reached.
    pub fn clear(&mut self) {
        self.dense = false;
        self.rows.clear();
    }

    /// Unions `rows` (any order, duplicates allowed) into the set, keeping
    /// it sorted and deduplicated. A no-op in the dense state.
    ///
    /// Strictly-sorted input (the common case: another set's
    /// [`RowSet::as_slice`], a kernel's packed index list) takes a linear
    /// two-pointer merge — `O(self.len() + rows.len())` — so repeatedly
    /// unioning small batches into a large set never re-sorts the whole
    /// set. Unsorted input falls back to extend + sort + dedup.
    pub fn insert_slice(&mut self, rows: &[u32]) {
        if self.dense || rows.is_empty() {
            return;
        }
        if self
            .rows
            .last()
            .is_none_or(|&last| rows.first().is_some_and(|&f| last < f))
            && rows.windows(2).all(|w| w[0] < w[1])
        {
            self.rows.extend_from_slice(rows);
            return;
        }
        if rows.windows(2).all(|w| w[0] < w[1]) {
            self.scratch.clear();
            self.scratch.reserve(self.rows.len() + rows.len());
            let (mut i, mut j) = (0, 0);
            while i < self.rows.len() && j < rows.len() {
                let (a, b) = (self.rows[i], rows[j]);
                self.scratch.push(a.min(b));
                i += (a <= b) as usize;
                j += (b <= a) as usize;
            }
            self.scratch.extend_from_slice(&self.rows[i..]);
            self.scratch.extend_from_slice(&rows[j..]);
            std::mem::swap(&mut self.rows, &mut self.scratch);
            return;
        }
        self.rows.extend_from_slice(rows);
        self.rows.sort_unstable();
        self.rows.dedup();
    }

    /// Unions `other` into the set: all rows as soon as either side is in
    /// the dense state, the merged list otherwise.
    pub fn insert_set(&mut self, other: &RowSet) {
        if other.dense {
            self.mark_all();
        } else {
            self.insert_slice(&other.rows);
        }
    }

    /// The sorted row list, or `None` in the dense state — for assertions
    /// and reports; sweeps go through [`ParamStore::sweep`].
    pub fn as_slice(&self) -> Option<&[u32]> {
        if self.dense {
            None
        } else {
            Some(&self.rows)
        }
    }

    /// The set in the currency the row-set dispatch takes.
    fn rows(&self) -> Rows<'_> {
        if self.dense {
            Rows::All
        } else {
            Rows::Listed(&self.rows)
        }
    }
}

/// What a [`ParamStore::sweep`] visits: which of the parameter's two tables
/// it rewrites, over which rows. The other table is handed to the body as a
/// read-only [`DenseView`].
#[derive(Debug, Clone, Copy)]
pub enum Sweep {
    /// The touched rows of the **gradient**, in slot (first-touch) order,
    /// with the value as the table — what a writer with a body per row (the
    /// all-reduce's averaging) runs after [`ParamStore::touch`]. The tape's
    /// backwards push into [`ParamStore::touched_grads`] instead.
    Grads,
    /// The touched rows of the **value**, with the gradient as the table —
    /// the optimizer walk. The rows are recorded dirty for the next
    /// [`ParamStore::for_dirty_rows`].
    Values,
    /// Every row of the **value**, whatever the touched set says, with the
    /// gradient as the table (an untouched row reads the shared zero row) —
    /// for updates that are not a fixed point on a zero gradient (`Adam`).
    /// Every row is recorded dirty.
    AllValues,
}

/// One parameter table resolved for a sweep: where its rows live.
struct Resolved<'a> {
    buf: &'a mut [f32],
    /// Rows of `buf` to visit: absolute rows of a resident value table,
    /// cache slots of a paged one, gradient slots.
    rows: Rows<'a>,
    /// Buffer row → absolute row, unless they coincide.
    names: Option<&'a [u32]>,
    other: DenseView<'a>,
}

/// Decides, once, which rows of a parameter's value buffer a sweep over the
/// absolute rows `set` visits: a resident table is swept as named, a paged
/// one through the cache slots its pager last translated (the caller's
/// `set`, by contract — the touched set after [`ParamStore::touch`], a dirty
/// chunk in [`ParamStore::for_dirty_rows`]), each slot reported under the
/// absolute row it holds.
///
/// # Panics
///
/// Panics for an all-rows sweep of a paged parameter — the one assertion
/// behind every door that could ask for it (a dense touched set,
/// dense-gradient mode, `Adam`).
fn value_rows<'a>(
    name: &str,
    pager: Option<&'a Pager>,
    set: Rows<'a>,
) -> (Rows<'a>, Option<&'a [u32]>) {
    match (pager, set) {
        (None, set) => (set, None),
        (Some(p), Rows::Listed(listed)) => {
            debug_assert_eq!(listed.len(), p.translation.len());
            (Rows::Listed(&p.translation), Some(p.row_of()))
        }
        (Some(_), Rows::All) => panic!(
            "paged parameter '{name}' cannot be swept over all rows: its value holds only \
             the cache's slots (a dense touched set, dense-gradient mode and Adam all need \
             the resident table)"
        ),
    }
}

/// `table` (a parameter's value tensor) as the view kernels read rows
/// through: the whole table when resident, its slot cache behind the pager's
/// row → slot map when paged.
fn view<'a>(table: &'a Tensor, pager: Option<&'a Pager>) -> DenseView<'a> {
    match pager {
        None => table.view(),
        Some(p) => DenseView::mapped(p.cols(), table.as_slice(), p.slot_of()),
    }
}

/// One parameter's gradient: the rows its step touched, packed into one
/// slot buffer in first-touch order behind a shared zero row.
///
/// Slot 0 is a permanent `+0.0` row and every row without gradient maps to
/// it, so reading any row through [`Grad::view`] is reading the gradient —
/// the touched-row invariant holds by construction. Slot `s ≥ 1` holds row
/// `row_of[s - 1]`; slots past `row_of.len()` are `+0.0` too, so a newly
/// admitted row starts from zero. The slot of a row never moves while it
/// holds gradient (a later touch of rows lying between accumulated ones
/// appends, it does not insert), which is what lets every kernel accumulate
/// into it across ops.
#[derive(Debug)]
struct Grad {
    /// `1 + capacity` slots, `1 + row_of.len()` of them in use; a single
    /// zero row until the first touch.
    slots: Tensor,
    /// Row → slot, `0` for a row without gradient: one entry per table row,
    /// allocated on first use — a table built and paged out before it trains
    /// never holds one, so it adds nothing to the set-up's peak.
    slot_of: OnceLock<Vec<u32>>,
    /// Slot `s` → row `row_of[s - 1]`, in first-touch order.
    row_of: Vec<u32>,
    /// The table's row count.
    table_rows: usize,
    /// Rows the buffer is sized for outside the all-rows state: the largest
    /// step of the declared schedule, else the row count (a paged table's
    /// budget, at most); raised if a step ever touches more.
    capacity: usize,
    /// Every row has a slot, row `r` in slot `r + 1`.
    all_rows: bool,
}

impl Grad {
    fn new(rows: usize, cols: usize) -> Self {
        Self {
            slots: Tensor::zeros(1, cols),
            slot_of: OnceLock::new(),
            row_of: Vec::new(),
            table_rows: rows,
            capacity: rows,
            all_rows: false,
        }
    }

    fn cols(&self) -> usize {
        self.slots.cols()
    }

    fn slot_of(&self) -> &[u32] {
        self.slot_of.get_or_init(|| vec![0; self.table_rows])
    }

    fn slot_of_mut(&mut self) -> &mut [u32] {
        self.slot_of();
        self.slot_of.get_mut().expect("initialized above")
    }

    /// Gives every row of `rows` not yet holding gradient the next slot;
    /// `total` is how many rows hold one afterwards.
    fn admit(&mut self, rows: &[u32], total: usize) {
        self.reserve(total);
        for &r in rows {
            if self.slot_of()[r as usize] == 0 {
                self.row_of.push(r);
                let slot = self.row_of.len() as u32;
                self.slot_of_mut()[r as usize] = slot;
            }
        }
    }

    /// Makes room for `total` slots past the zero row: the planned capacity
    /// on the first touch, exactly `total` if a step is wider than planned.
    fn reserve(&mut self, total: usize) {
        if total < self.slots.rows() {
            return;
        }
        self.capacity = total.max(self.capacity);
        let cols = self.cols();
        let used = (1 + self.row_of.len()) * cols;
        let mut fresh = Tensor::zeros(1 + self.capacity, cols);
        fresh.as_mut_slice()[..used].copy_from_slice(&self.slots.as_slice()[..used]);
        self.slots = fresh;
        self.row_of.reserve(self.capacity - self.row_of.len());
    }

    /// Sets the planned capacity; an idle buffer drops what it held, so the
    /// next touch sizes it to the new plan.
    fn plan(&mut self, capacity: usize) {
        self.capacity = capacity;
        if self.row_of.is_empty() && self.slots.rows() > 1 {
            self.slots = Tensor::zeros(1, self.cols());
        }
    }

    /// Switches to the all-rows state: row `r` in slot `r + 1`, carrying the
    /// gradient rows already accumulated to their new slots — the one place
    /// the buffer is table-sized.
    fn mark_all(&mut self) {
        if self.all_rows {
            return;
        }
        let (n, cols) = (self.table_rows, self.cols());
        let mut table = Tensor::zeros(1 + n, cols);
        for (k, &r) in self.row_of.iter().enumerate() {
            let r = r as usize;
            table.row_mut(1 + r).copy_from_slice(self.slots.row(1 + k));
        }
        self.slots = table;
        self.row_of.clear();
        self.row_of.extend(0..n as u32);
        for (r, s) in self.slot_of_mut().iter_mut().enumerate() {
            *s = r as u32 + 1;
        }
        self.all_rows = true;
    }

    /// Zeroes every slot in use, one contiguous clear. Unless `stay_all_rows`,
    /// the slots are then released: the map entries go back to the zero row,
    /// and an all-rows buffer shrinks back to the planned capacity.
    fn clear(&mut self, stay_all_rows: bool) {
        let cols = self.cols();
        let used = self.row_of.len();
        if self.all_rows && stay_all_rows {
            self.slots.as_mut_slice()[cols..].fill(0.0);
            return;
        }
        let map = self.slot_of.get_mut().map_or(&mut [][..], |m| &mut m[..]);
        if self.all_rows {
            map.fill(0);
            self.slots = Tensor::zeros(1, cols);
            self.all_rows = false;
        } else {
            self.slots.as_mut_slice()[cols..(1 + used) * cols].fill(0.0);
            for &r in &self.row_of {
                map[r as usize] = 0;
            }
        }
        self.row_of.clear();
    }

    /// Every row, through its slot: `+0.0` for a row without gradient.
    fn view(&self) -> DenseView<'_> {
        DenseView::mapped(self.cols(), self.slots.as_slice(), self.slot_of())
    }

    /// The slots in use, row-major, and the absolute row each one holds.
    fn in_use(&mut self) -> (&[u32], &mut [f32]) {
        let cols = self.cols();
        let end = (1 + self.row_of.len()) * cols;
        (&self.row_of, &mut self.slots.as_mut_slice()[cols..end])
    }

    /// The slots in use, row-major, and the row → slot map.
    fn by_row(&mut self) -> (&[u32], &mut [f32]) {
        self.slot_of();
        let cols = self.cols();
        let end = (1 + self.row_of.len()) * cols;
        let map = self.slot_of.get().expect("initialized above");
        (map, &mut self.slots.as_mut_slice()[cols..end])
    }
}

/// Owns a model's learnable tensors and their gradient accumulators.
///
/// Parameters live *outside* the autograd tape: per-batch [`crate::Graph`]s
/// reference them by [`ParamId`] so the (potentially huge) embedding matrices
/// are never copied into the graph. Gradients accumulate across
/// [`crate::Graph::backward`] calls until [`ParamStore::zero_grads`].
///
/// # Touched-row invariant
///
/// Each parameter carries a [`RowSet`] of rows whose gradient may be
/// nonzero. **Outside the set, gradient rows are exactly `+0.0`** — by
/// construction: only the set's rows have slots in the gradient buffer, and
/// every other row reads the shared zero row (see the module docs).
/// [`crate::Graph::backward`] records rows from the ops that know the
/// sparsity (gather index lists, incidence nonzero columns, projection
/// relation lists); [`ParamStore::grad_mut`] — the only untracked mutable
/// entry point — conservatively marks the whole parameter dense.
/// [`ParamStore::zero_grads`] clears only the slots in use and then resets
/// the set.
///
/// # Examples
///
/// ```
/// use tensor::{ParamStore, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.add_param("weights", Tensor::zeros(4, 2));
/// assert_eq!(store.value(w).shape(), (4, 2));
/// assert_eq!(store.lookup("weights"), Some(w));
/// assert!(store.touched(w).is_empty());
/// ```
#[derive(Debug, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    grads: Vec<Grad>,
    touched: Vec<RowSet>,
    /// Rows whose **value** may have changed since the last
    /// [`ParamStore::for_dirty_rows`] sweep — the epoch-renormalization
    /// analog of the touched-row contract. Populated by the optimizers
    /// (union of stepped rows) and the untracked value accessors; consumed
    /// with retention by `for_dirty_rows`.
    dirty: Vec<RowSet>,
    /// `Some` for parameters paged out to backing storage
    /// ([`ParamStore::page_out`]): the value tensor then holds the
    /// `budget × d` slot cache while the touched/dirty row sets keep
    /// **absolute** indices.
    pagers: Vec<Option<Pager>>,
    /// The access schedule declared for each parameter
    /// ([`ParamStore::declare_schedule`]; empty = none), kept until
    /// [`ParamStore::page_out`] turns it into the pagefile's row order.
    schedules: Vec<Schedule>,
    /// The first backing-store error of a sweep that has no error channel
    /// ([`ParamStore::for_dirty_rows`]), held for the next fallible call.
    latched: Option<Error>,
    dense_grads: bool,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered (parameter names are unique).
    pub fn add_param(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.names.contains(&name),
            "duplicate parameter name: {name}"
        );
        let mut grad = Grad::new(value.rows(), value.cols());
        let mut rows = RowSet::new();
        if self.dense_grads {
            rows.mark_all();
            grad.mark_all();
        }
        // A fresh parameter starts all-dirty: its initializer wrote every
        // row, so the first renormalization sweep must visit them all (the
        // init arithmetic makes no fixed-point promise).
        let mut dirty = RowSet::new();
        dirty.mark_all();
        self.names.push(name);
        self.values.push(value);
        self.grads.push(grad);
        self.touched.push(rows);
        self.dirty.push(dirty);
        self.pagers.push(None);
        self.schedules.push(Schedule::new());
        ParamId(self.values.len() - 1)
    }

    /// Finds a parameter by name.
    pub fn lookup(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Like [`lookup`](Self::lookup) but returns an error for missing names.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownParam`] if no parameter has this name.
    pub fn require(&self, name: &str) -> Result<ParamId> {
        self.lookup(name).ok_or_else(|| Error::UnknownParam {
            name: name.to_string(),
        })
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Borrows a parameter's value.
    ///
    /// # Panics
    ///
    /// Panics for paged parameters: their value tensor holds the slot
    /// cache, not the full table, so any caller reaching for the whole
    /// matrix must [`ParamStore::unpage`] first (or use
    /// [`ParamStore::table`] if it reads row by row). This is also the
    /// guard that stops ops without paged support (gathers, projections)
    /// from silently reading slot bytes as absolute rows.
    pub fn value(&self, id: ParamId) -> &Tensor {
        self.assert_resident(id);
        &self.values[id.0]
    }

    /// Mutably borrows a parameter's value (e.g. for re-initialization or
    /// ad-hoc edits).
    ///
    /// This entry point carries no row information, so it conservatively
    /// marks the whole parameter **dirty** — the next
    /// [`ParamStore::for_dirty_rows`] sweep revisits every row. Epoch
    /// renormalization goes through `for_dirty_rows` instead.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.assert_resident(id);
        self.dirty[id.0].mark_all();
        &mut self.values[id.0]
    }

    /// Reads a parameter's gradient: every row of the table by absolute
    /// index, `+0.0` for a row without gradient (it reads the shared zero
    /// row). Resident and paged parameters alike.
    pub fn grad(&self, id: ParamId) -> DenseView<'_> {
        self.grads[id.0].view()
    }

    /// Bytes of gradient rows the store holds, over every parameter: each
    /// parameter's slot buffer, sized for its largest step (the whole table
    /// only in the all-rows state). The row → slot maps, four bytes per
    /// table row, are not gradient rows and are not counted.
    pub fn grad_bytes(&self) -> u64 {
        let floats: usize = self.grads.iter().map(|g| g.slots.len()).sum();
        (floats * std::mem::size_of::<f32>()) as u64
    }

    /// Mutably borrows a parameter's whole gradient table, row-major
    /// `rows × cols` (row `r` at `r * cols`).
    ///
    /// This entry point carries no row information, so it conservatively
    /// [`RowSet::mark_all`]s the parameter — the dense fallback of the
    /// touched-row contract, and the one state in which the gradient holds
    /// a slot for every row. Writers with row structure
    /// [`touch`](Self::touch) their rows and [`sweep`](Self::sweep)
    /// [`Sweep::Grads`] instead.
    ///
    /// # Panics
    ///
    /// Panics for paged parameters: an all-rows touched set would have the
    /// optimizer step rows the cache does not hold.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut [f32] {
        self.assert_resident(id);
        self.mark_all_touched(id.0);
        self.grads[id.0].in_use().1
    }

    /// Borrows a parameter's touched-row set.
    pub fn touched(&self, id: ParamId) -> &RowSet {
        &self.touched[id.0]
    }

    /// Records that `rows` of `id`'s gradient may now be nonzero (any
    /// order, duplicates fine), giving each row new to the set the next
    /// gradient slot. In dense-gradient mode this marks the whole parameter
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics (paged parameters only) if a touched row is not resident — a
    /// kernel wrote outside the working set paged in for this batch.
    pub fn touch(&mut self, id: ParamId, rows: &[u32]) {
        self.widen_touched(id.0, Some(rows));
    }

    /// [`touch`](Self::touch) for a whole set, whichever state it is in —
    /// how the all-reduce widens rank 0 to the union of every replica's.
    pub fn touch_set(&mut self, id: ParamId, rows: &RowSet) {
        self.widen_touched(id.0, rows.as_slice());
    }

    /// Unions `rows` (`None`: every row) into parameter `i`'s touched set
    /// and gradient slots.
    fn widen_touched(&mut self, i: usize, rows: Option<&[u32]>) {
        let before = self.touched[i].len();
        match rows.filter(|_| !self.dense_grads) {
            Some(rows) => {
                let set = &mut self.touched[i];
                set.insert_slice(rows);
                let total = if set.is_dense() { 0 } else { set.len() };
                self.grads[i].admit(rows, total);
            }
            None => self.mark_all_touched(i),
        }
        // A paged parameter keeps the sorted cache slots of its touched rows
        // next to the set (rows stay pinned until the set is cleared), so
        // every value sweep of the step reads one translation instead of
        // redoing it; an all-rows set is left for `value_rows` to refuse.
        if let (Some(pager), Some(listed)) = (&mut self.pagers[i], self.touched[i].as_slice()) {
            if listed.len() != before {
                pager.translate(listed);
                pager.translation.sort_unstable();
            }
        }
    }

    /// Puts parameter `i` in the all-rows state: every row touched, every row
    /// its own gradient slot.
    fn mark_all_touched(&mut self, i: usize) {
        self.touched[i].mark_all();
        self.grads[i].mark_all();
    }

    /// Forces every parameter's row set dense, now and for all future
    /// [`ParamStore::touch`] calls — the `--dense-grads` ablation mode.
    ///
    /// Every sweep (zeroing, backward, optimizer steps, all-reduce) then
    /// visits every row, which is **bit-identical** to the sparse walks (the
    /// per-row arithmetic is the same and untouched rows carry exact
    /// `+0.0` gradients); only the per-batch cost changes from
    /// `O(batch · d)` to `O(N · d)`.
    pub fn set_dense_grads(&mut self, dense: bool) {
        assert!(
            !dense || !self.has_paged(),
            "dense-gradient mode is incompatible with paged parameters (the \
             value only holds the cache's slots, not the full table)"
        );
        self.dense_grads = dense;
        if dense {
            for i in 0..self.values.len() {
                self.mark_all_touched(i);
            }
            // The ablation arm must measure the full O(N · d) baseline:
            // renormalization sweeps go dense too (and stay dense — see
            // `for_dirty_rows`).
            for rows in &mut self.dirty {
                rows.mark_all();
            }
        }
    }

    /// Whether the store is in forced dense-gradient mode.
    pub fn dense_grads(&self) -> bool {
        self.dense_grads
    }

    /// [`Touches`](Self::touch) `rows` and returns the gradient slots in
    /// use whole, for a kernel that writes them itself — the tape's backward
    /// pushes, which walk their batch rows and add into the slots of the
    /// columns each row names (on [`PoolHandle::for_row_windows`]) instead
    /// of running a per-row body: the row → slot map (row `r`'s gradient is
    /// buffer row `slot(r)`; `r` must be touched), the slots, row-major, and
    /// the value table as kernels read it ([`ParamStore::table`]).
    ///
    /// # Panics
    ///
    /// Panics as [`touch`](Self::touch) does.
    pub fn touched_grads(
        &mut self,
        id: ParamId,
        rows: &[u32],
    ) -> (
        impl Fn(usize) -> usize + Sync + '_,
        &mut [f32],
        DenseView<'_>,
    ) {
        self.touch(id, rows);
        let i = id.0;
        let (map, slots) = self.grads[i].by_row();
        let slot = move |r: usize| map[r] as usize - 1;
        (slot, slots, view(&self.values[i], self.pagers[i].as_ref()))
    }

    /// Borrows a parameter's dirty-row set (rows whose value may have
    /// changed since the last [`ParamStore::for_dirty_rows`] sweep).
    pub fn dirty(&self, id: ParamId) -> &RowSet {
        &self.dirty[id.0]
    }

    /// Records that `rows` of `id`'s **value** were rewritten, whichever
    /// state the set is in, so epoch renormalization knows what to revisit
    /// — for writers outside [`ParamStore::sweep`] (which records the rows
    /// of a value sweep itself), e.g. folding one store's dirty rows into
    /// another's.
    pub fn mark_dirty(&mut self, id: ParamId, rows: &RowSet) {
        self.dirty[id.0].insert_set(rows);
    }

    /// Walks the dirty rows of `id`'s value, handing each `(row_index,
    /// row_slice)` to `f`, and **retains** exactly the rows for which `f`
    /// returns `true` in the dirty set — the epoch-renormalization sweep.
    ///
    /// The retention contract makes lazy renormalization bit-identical to a
    /// dense sweep: a normalizer returns `true` when it *changed the row's
    /// bits* (the row is not yet a fixed point of the normalization, so the
    /// next sweep must revisit it even if no batch touches it again) and
    /// `false` when the row came out bit-identical (re-normalizing it later
    /// would be a no-op) or lies outside the range the caller normalizes at
    /// all (a future write re-marks it via the optimizer). In the dense
    /// state the walk covers every row and the set collapses to the
    /// retained list.
    ///
    /// In forced dense-gradient mode ([`ParamStore::set_dense_grads`]) the
    /// set is re-marked dense afterwards, so the ablation arm keeps paying
    /// the full `O(N · d)` sweep every epoch.
    ///
    /// A paged parameter streams the same rows through its slot cache in
    /// budget-sized chunks, in **file order** — each chunk is then a few
    /// runs of the pagefile, not a scatter over it — and each row's
    /// normalization is independent, so no bit depends on the order. Each
    /// chunk's accesses hit the pager, so they land in the trace and the
    /// hit/miss counters like any batch access; a fresh parameter's all-rows
    /// state makes that one `O(N · d)` page-through, paid on the first epoch
    /// only.
    ///
    /// This sweep has no error channel. A backing-store error (paged
    /// parameters only) stops it with every unswept row still in the dirty
    /// set, and is held for the next fallible call:
    /// [`ParamStore::take_storage_error`] (what a training loop checks after
    /// its end-of-epoch hook), [`ParamStore::page_in`],
    /// [`ParamStore::flush_paged`] and [`ParamStore::unpage`] return it.
    pub fn for_dirty_rows(&mut self, id: ParamId, mut f: impl FnMut(usize, &mut [f32]) -> bool) {
        let i = id.0;
        let (num_rows, cols) = self.param_shape(id);
        let budget = self.pagers[i].as_ref().map(Pager::budget);
        if budget.is_some() {
            // Eviction must never recycle a slot with an unsaved value.
            self.settle(i);
        }
        let mut dirty = std::mem::take(&mut self.dirty[i]);
        let mut kept = std::mem::take(&mut dirty.scratch);
        kept.clear();
        let total = match (cols, dirty.dense) {
            (0, _) => 0,
            (_, true) => num_rows,
            (_, false) => dirty.rows.len(),
        };
        if let Some(pager) = &self.pagers[i] {
            pager.sort_by_position(&mut dirty.rows);
        }
        // Resident: one chunk, the whole set. Paged: what fits the cache.
        let step = budget.unwrap_or(total).max(1);
        let mut range = Vec::new();
        let mut unswept = None;
        for start in (0..total).step_by(step) {
            let end = (start + step).min(total);
            let chunk = match (&self.pagers[i], dirty.dense) {
                (None, _) => dirty.rows(),
                (Some(pager), true) => {
                    range.clear();
                    range.extend_from_slice(&pager.row_at()[start..end]);
                    Rows::Listed(&range)
                }
                (Some(_), false) => Rows::Listed(&dirty.rows[start..end]),
            };
            if let (Some(pager), Rows::Listed(chunk)) = (&mut self.pagers[i], chunk) {
                if let Err(e) = pager.ensure(chunk, self.values[i].as_mut_slice()) {
                    self.latched.get_or_insert(storage_error(format!(
                        "renormalization sweep of '{}' stopped at row {start} of {total}: {e}",
                        self.names[i]
                    )));
                    unswept = Some(start);
                    break;
                }
                pager.translate(chunk);
            }
            let first_kept = kept.len();
            let pager = self.pagers[i].as_ref();
            let (rows, names) = value_rows(&self.names[i], pager, chunk);
            rows.walk(0, self.values[i].as_mut_slice(), cols, |s, row| {
                let r = names.map_or(s, |n| n[s] as usize);
                if f(r, row) {
                    kept.push(r as u32);
                }
            });
            if let Some(pager) = &mut self.pagers[i] {
                pager.translate(&kept[first_kept..]);
                pager.mark_translation_dirty();
            }
        }
        // A sweep cut short keeps what it did not reach: the rest of the
        // list, or (having no list) every row — re-sweeping a settled row is
        // a no-op by the retention contract.
        let stays_dense = self.dense_grads || (dirty.dense && unswept.is_some());
        if let (Some(start), false) = (unswept, dirty.dense) {
            kept.extend_from_slice(&dirty.rows[start..]);
        }
        if budget.is_some() {
            kept.sort_unstable();
        }
        dirty.clear();
        if stays_dense {
            dirty.mark_all();
        } else {
            std::mem::swap(&mut dirty.rows, &mut kept);
        }
        dirty.scratch = kept;
        self.dirty[i] = dirty;
    }

    /// Returns (and forgets) the backing-store error a
    /// [`ParamStore::for_dirty_rows`] sweep stopped on, if any.
    ///
    /// # Errors
    ///
    /// [`Error::Storage`] naming the parameter and the failed operation.
    pub fn take_storage_error(&mut self) -> Result<()> {
        self.latched.take().map_or(Ok(()), Err)
    }

    /// Applies a sweep's bookkeeping and resolves its rows.
    fn begin_sweep(&mut self, id: ParamId, sweep: Sweep) -> Resolved<'_> {
        let i = id.0;
        let (touched, dirty) = (&self.touched[i], &mut self.dirty[i]);
        let (grad, pager) = (&mut self.grads[i], self.pagers[i].as_ref());
        let set = match sweep {
            Sweep::Grads => {
                let (names, buf) = grad.in_use();
                return Resolved {
                    buf,
                    rows: Rows::All,
                    names: Some(names),
                    other: view(&self.values[i], pager),
                };
            }
            Sweep::Values => {
                dirty.insert_set(touched);
                touched.rows()
            }
            Sweep::AllValues => {
                dirty.mark_all();
                Rows::All
            }
        };
        let (rows, names) = value_rows(&self.names[i], pager, set);
        Resolved {
            buf: self.values[i].as_mut_slice(),
            rows,
            names,
            other: grad.view(),
        }
    }

    /// **The touched-row sweep**: runs `body(row, row_slice, table)` once for
    /// every row `sweep` names, destination-sharded on `pool` in chunks of
    /// at least `min_rows` rows.
    ///
    /// `row` is always the **absolute** row index, `row_slice` that row of
    /// the table being rewritten, and `table` a read view of the
    /// parameter's other table ([`DenseView::row`] by absolute row) — the
    /// gradient row an optimizer steps with, the operand rows a backward
    /// kernel multiplies. The store alone decides what the set is (a sorted
    /// list, every row, a list translated to the pinned cache slots of a
    /// paged parameter, or the gradient's slots in use) and how it splits
    /// across workers; the body is the same code in every case, each row is
    /// owned by exactly one worker and visited once, and rows are visited in
    /// ascending buffer order, so results are bit-identical for any state of
    /// the set and any pool width. See [`Sweep`] for the three row sets and
    /// the bookkeeping each implies.
    ///
    /// # Panics
    ///
    /// Panics for an all-rows sweep of a paged parameter.
    ///
    /// # Examples
    ///
    /// A custom optimizer is one sweep per parameter:
    ///
    /// ```
    /// use tensor::{ParamStore, Sweep, Tensor};
    /// use xparallel::PoolHandle;
    ///
    /// let mut store = ParamStore::new();
    /// let w = store.add_param("w", Tensor::full(4, 2, 1.0));
    /// store.touch(w, &[1, 3]);
    /// store.sweep_serial(w, Sweep::Grads, |row, grad, _| grad.fill(row as f32 - 2.5));
    /// for id in store.param_ids() {
    ///     store.sweep(id, Sweep::Values, &PoolHandle::global(), 64, |row, value, grads| {
    ///         for (x, g) in value.iter_mut().zip(grads.row(row)) {
    ///             *x -= 0.1 * g;
    ///         }
    ///     });
    /// }
    /// assert_eq!(store.value(w).row(3), &[0.95, 0.95]);
    /// assert_eq!(store.value(w).row(0), &[1.0, 1.0]); // never visited
    /// ```
    pub fn sweep<F>(
        &mut self,
        id: ParamId,
        sweep: Sweep,
        pool: &PoolHandle,
        min_rows: usize,
        body: F,
    ) where
        F: Fn(usize, &mut [f32], &DenseView<'_>) + Sync,
    {
        let at = self.begin_sweep(id, sweep);
        let (names, other) = (at.names, at.other);
        if other.cols() > 0 {
            pool.for_row_set(at.buf, other.cols(), at.rows, min_rows, |s, row| {
                body(names.map_or(s, |n| n[s] as usize), row, &other)
            });
        }
    }

    /// [`ParamStore::sweep`] on the caller thread, for bodies that carry
    /// state of their own (an optimizer's accumulators, a reduction buffer):
    /// same rows, same slices, same order, `FnMut`.
    ///
    /// # Panics
    ///
    /// Panics for an all-rows sweep of a paged parameter.
    pub fn sweep_serial<F>(&mut self, id: ParamId, sweep: Sweep, mut body: F)
    where
        F: FnMut(usize, &mut [f32], &DenseView<'_>),
    {
        let at = self.begin_sweep(id, sweep);
        let (names, other) = (at.names, at.other);
        if other.cols() > 0 {
            at.rows.walk(0, at.buf, other.cols(), |s, row| {
                body(names.map_or(s, |n| n[s] as usize), row, &other)
            });
        }
    }

    /// Handles of all registered parameters, in registration order.
    pub fn param_ids(&self) -> Vec<ParamId> {
        (0..self.values.len()).map(ParamId).collect()
    }

    /// Zeroes gradient accumulators and resets the touched-row sets.
    ///
    /// Per parameter, one contiguous clear of the gradient slots in use and
    /// a reset of their map entries: `O(touched · d)` for a sparse set, the
    /// full table for a dense one. Every other row already reads the shared
    /// zero row, so both leave identical bits.
    pub fn zero_grads(&mut self) {
        for i in 0..self.grads.len() {
            self.settle(i);
        }
    }

    /// Settles parameter `i`'s last step: zeroes its gradient slots and
    /// resets the touched set (a dense-gradient store keeps every row's
    /// slot). For a paged parameter (whose touched rows are still resident
    /// — rows stay pinned until this runs) it also marks their value slots
    /// for write-back, the optimizer having rewritten them. Idempotent;
    /// every paged operation that can evict calls it first, so no slot is
    /// ever recycled with an unsaved value.
    fn settle(&mut self, i: usize) {
        self.grads[i].clear(self.dense_grads);
        if let Some(pager) = &mut self.pagers[i] {
            pager.mark_translation_dirty();
        }
        let touched = &mut self.touched[i];
        touched.clear();
        if self.dense_grads {
            touched.mark_all();
        }
    }

    /// Total number of learnable scalars.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Replaces this store's value tensors with aliases of `canonical`'s
    /// (converting those to shared storage on first use), making this store
    /// a replica of it: its forwards read — and its optimizer steps, if it
    /// takes any, write — the canonical store's bytes, while its gradients
    /// and row sets remain private (see [`crate::hogwild`] for when that is
    /// race-free and when the races are benign).
    ///
    /// Every parameter is conservatively marked all-dirty (its value now
    /// changes under other stores' feet); the driver folds dirty sets into
    /// the canonical store at epoch edges.
    ///
    /// # Examples
    ///
    /// ```
    /// use tensor::{ParamStore, Tensor};
    ///
    /// let mut canonical = ParamStore::new();
    /// let w = canonical.add_param("w", Tensor::from_rows(&[[1.0, 2.0], [3.0, 4.0]]));
    /// let mut replica = ParamStore::new();
    /// let r = replica.add_param("w", Tensor::zeros(2, 2));
    /// replica.alias_values(&mut canonical).unwrap();
    ///
    /// // The replica reads the canonical bytes...
    /// assert_eq!(replica.value(r).row(1), &[3.0, 4.0]);
    /// // ...and its writes are visible through the canonical store.
    /// replica.value_mut(r).set(0, 0, 9.0);
    /// assert_eq!(canonical.value(w).get(0, 0), 9.0);
    /// ```
    ///
    /// # Errors
    ///
    /// Fails if either store has a paged parameter (its value tensor is a
    /// slot cache, not the table), or if the stores do not match
    /// parameter-for-parameter in count and shape.
    pub fn alias_values(&mut self, canonical: &mut ParamStore) -> Result<()> {
        if self.has_paged() || canonical.has_paged() {
            return Err(storage_error(
                "value sharing is incompatible with paged parameters \
                 (the value tensor holds a slot cache, not the table)"
                    .into(),
            ));
        }
        if canonical.values.len() != self.values.len() {
            return Err(Error::ShapeMismatch {
                context: format!(
                    "alias_values: {} canonical parameters for {}",
                    canonical.values.len(),
                    self.values.len()
                ),
            });
        }
        for (i, (have, want)) in self.values.iter().zip(&canonical.values).enumerate() {
            let (have, want) = (have.shape(), want.shape());
            if have != want {
                return Err(Error::ShapeMismatch {
                    context: format!(
                        "alias_values: parameter '{}' is {}x{} but the canonical one is {}x{}",
                        self.names[i], have.0, have.1, want.0, want.1
                    ),
                });
            }
        }
        for (value, shared) in self.values.iter_mut().zip(&mut canonical.values) {
            *value = shared.alias();
        }
        for dirty in &mut self.dirty {
            dirty.mark_all();
        }
        Ok(())
    }

    fn assert_resident(&self, id: ParamId) {
        assert!(
            self.pagers[id.0].is_none(),
            "parameter '{}' is paged out to backing storage; this access \
             path needs the full table (unpage it, go through \
             ParamStore::table, or run with --store ram)",
            self.names[id.0]
        );
    }

    /// Whether `id` is paged out to backing storage.
    pub fn is_paged(&self, id: ParamId) -> bool {
        self.pagers[id.0].is_some()
    }

    /// Whether any parameter is paged.
    pub fn has_paged(&self) -> bool {
        self.pagers.iter().any(Option::is_some)
    }

    /// Borrows `id`'s pager (counters, trace), if paged.
    pub fn pager(&self, id: ParamId) -> Option<&Pager> {
        self.pagers[id.0].as_ref()
    }

    /// Mutably borrows `id`'s pager (e.g. to enable trace recording).
    pub fn pager_mut(&mut self, id: ParamId) -> Option<&mut Pager> {
        self.pagers[id.0].as_mut()
    }

    /// Logical shape `(rows, cols)` of a parameter — the full-table shape
    /// even when paged (use this instead of [`ParamStore::value`] for
    /// shape-only queries).
    pub fn param_shape(&self, id: ParamId) -> (usize, usize) {
        match &self.pagers[id.0] {
            None => self.values[id.0].shape(),
            Some(p) => (p.rows(), p.cols()),
        }
    }

    /// Read view of a parameter's table for row-reading kernels, resident
    /// or paged: [`DenseView::row`] by absolute row either way.
    pub fn table(&self, id: ParamId) -> DenseView<'_> {
        view(&self.values[id.0], self.pagers[id.0].as_ref())
    }

    /// Declares the access schedule of `id`: for each step of the run, the
    /// index lists that step will hand to [`ParamStore::page_in`] — a
    /// superset of the rows it touches. The widest step's union sizes the
    /// gradient's slot buffer (allocated on the first touch, so a plan
    /// declared before training never holds a table-sized gradient), and
    /// the next [`ParamStore::page_out`] of `id` consumes the schedule to
    /// lay the pagefile out in schedule order (see [`crate::paged`]). The
    /// lists themselves are shared, not copied. A later declaration
    /// replaces an earlier one.
    pub fn declare_schedule(&mut self, id: ParamId, steps: Schedule) {
        let mut union = RowSet::new();
        let mut widest = 0;
        for step in &steps {
            union.clear();
            for list in step {
                union.insert_slice(list);
            }
            widest = widest.max(union.len());
        }
        let budget = self.pagers[id.0].as_ref().map_or(usize::MAX, Pager::budget);
        self.grads[id.0].plan(widest.min(budget));
        self.schedules[id.0] = steps;
    }

    /// Moves `id`'s full table into `storage` (writing the current values
    /// to it, in the row order its declared schedule asks for — the
    /// identity if none was declared) and replaces the in-RAM value with a
    /// `budget × d` slot cache. The gradient keeps its slot buffer, planned
    /// for at most `budget` rows (a step touches only pinned rows). From
    /// here on, each batch must page its working set in via
    /// [`ParamStore::page_in`] before kernels touch the parameter, and
    /// reads/writes go through slot translation ([`ParamStore::table`],
    /// the pager-aware optimizer path). `budget` is clamped to the table's
    /// row count.
    ///
    /// Paging moves bytes, never arithmetic: training a paged parameter is
    /// bit-identical to the resident run.
    ///
    /// # Errors
    ///
    /// Fails if the store is in dense-gradient mode, the parameter is
    /// already paged, `storage`'s shape mismatches, gradients are pending
    /// (call [`ParamStore::zero_grads`] first), the budget is zero, or on
    /// backing-store I/O errors.
    pub fn page_out(
        &mut self,
        id: ParamId,
        storage: Box<dyn RowStorage>,
        budget: usize,
    ) -> Result<()> {
        let i = id.0;
        if self.dense_grads {
            return Err(storage_error(
                "paged storage is incompatible with dense-gradient mode".into(),
            ));
        }
        if self.pagers[i].is_some() {
            return Err(storage_error(format!(
                "parameter '{}' is already paged",
                self.names[i]
            )));
        }
        if budget == 0 {
            return Err(storage_error("cache budget must be at least 1 row".into()));
        }
        if !self.touched[i].is_empty() {
            return Err(storage_error(format!(
                "parameter '{}' has pending gradients; zero_grads before paging out",
                self.names[i]
            )));
        }
        let value = &self.values[i];
        if storage.rows() != value.rows() || storage.cols() != value.cols() {
            return Err(storage_error(format!(
                "backing store shape {}x{} does not match parameter '{}' ({}x{})",
                storage.rows(),
                storage.cols(),
                self.names[i],
                value.rows(),
                value.cols()
            )));
        }
        let row_at = placement(&std::mem::take(&mut self.schedules[i]), value.rows());
        let mut pager = Pager::with_placement(storage, budget, row_at);
        pager.write_all(value.as_slice())?;
        let (budget, cols) = (pager.budget(), value.cols());
        self.values[i] = Tensor::zeros(budget, cols);
        let grad = &mut self.grads[i];
        grad.plan(grad.capacity.min(budget));
        self.pagers[i] = Some(pager);
        Ok(())
    }

    /// Pages in the union of the given sorted index `lists` — a batch's
    /// working set, e.g. its positive and negative incidence column lists —
    /// pinning those rows for the coming forward/backward/step. A no-op
    /// for resident parameters, so models can call it unconditionally.
    ///
    /// Before loading, the *previous* batch's bookkeeping is settled: its
    /// gradient slots are zeroed and its touched rows (still resident by the
    /// pinning invariant) get their value slots marked for write-back — what
    /// [`ParamStore::zero_grads`] does too.
    ///
    /// # Errors
    ///
    /// Fails if the union exceeds the cache budget or on backing-store I/O
    /// errors, this call's or one a [`ParamStore::for_dirty_rows`] sweep
    /// left behind.
    pub fn page_in(&mut self, id: ParamId, lists: &[&[u32]]) -> Result<()> {
        let i = id.0;
        if self.pagers[i].is_none() {
            return Ok(());
        }
        self.take_storage_error()?;
        self.settle(i);
        let pager = self.pagers[i].as_mut().expect("checked above");
        pager.ensure_union(lists, self.values[i].as_mut_slice())
    }

    /// Writes every dirty resident row of a paged parameter back to its
    /// backing store and flushes it — the checkpoint hook. A no-op for
    /// resident parameters.
    ///
    /// # Errors
    ///
    /// Backing-store I/O errors, this call's or one a
    /// [`ParamStore::for_dirty_rows`] sweep left behind.
    pub fn flush_paged(&mut self, id: ParamId) -> Result<()> {
        let i = id.0;
        if self.pagers[i].is_none() {
            return Ok(());
        }
        self.take_storage_error()?;
        self.settle(i);
        let pager = self.pagers[i].as_mut().expect("checked above");
        pager.flush(self.values[i].as_slice())
    }

    /// Reverses [`ParamStore::page_out`]: flushes dirty rows, reads the
    /// full table back into a resident tensor, and drops the pager (and its
    /// backing store). The gradient, settled to zero, keeps its slot buffer:
    /// only the value becomes table-sized again — this is for
    /// end-of-training evaluation and dumps, not for mid-training use.
    ///
    /// # Errors
    ///
    /// Backing-store I/O errors, this call's or one a
    /// [`ParamStore::for_dirty_rows`] sweep left behind.
    pub fn unpage(&mut self, id: ParamId) -> Result<()> {
        let i = id.0;
        if self.pagers[i].is_none() {
            return Ok(());
        }
        self.take_storage_error()?;
        self.settle(i);
        let pager = self.pagers[i].as_mut().expect("checked above");
        pager.flush(self.values[i].as_slice())?;
        let (rows, cols) = (pager.rows(), pager.cols());
        let mut full = Tensor::zeros(rows, cols);
        pager.read_all(full.as_mut_slice())?;
        self.values[i] = full;
        self.pagers[i] = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_lookup_and_access() {
        let mut s = ParamStore::new();
        let a = s.add_param("a", Tensor::zeros(2, 3));
        let b = s.add_param("b", Tensor::zeros(1, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup("a"), Some(a));
        assert_eq!(s.lookup("missing"), None);
        assert!(s.require("missing").is_err());
        assert_eq!(s.name(b), "b");
        assert_eq!(s.num_scalars(), 7);
        s.value_mut(a).set(0, 0, 1.0);
        assert_eq!(s.value(a).get(0, 0), 1.0);
    }

    #[test]
    fn grads_zeroable() {
        let mut s = ParamStore::new();
        let a = s.add_param("a", Tensor::zeros(2, 2));
        s.grad_mut(a)[3] = 5.0;
        s.zero_grads();
        assert_eq!(s.grad(a).row(1)[1], 0.0);
    }

    /// One batch, one backward and one SGD step hold the same gradient bytes
    /// over a thousand-row and a million-row table: the gradient follows the
    /// batch's working set (plus the shared zero row), not the table.
    #[test]
    fn gradient_bytes_follow_the_batch_not_the_table() {
        use crate::optim::{Optimizer, Sgd};
        use crate::{Graph, RowScore};
        use sparse::incidence::{hrt, IncidencePair, TailSign};
        use std::sync::Arc;

        let (relations, cols) = (3, 4);
        let bytes = |entities: usize| {
            let mut s = ParamStore::new();
            let p = s.add_param("emb", Tensor::full(entities + relations, cols, 0.5));
            let (heads, rels, tails) = ([0, 7, 7, 900], [0, 2, 1, 0], [5, 3, 900, 11]);
            let a = hrt(
                entities,
                relations,
                &heads,
                &rels,
                &tails,
                TailSign::Negative,
            );
            let pair = Arc::new(IncidencePair::new(a.unwrap()));
            s.declare_schedule(p, vec![vec![Arc::clone(pair.touched_columns())]]);
            let mut g = Graph::new();
            let x = g.spmm(&s, p, pair);
            let n = g.score_rows(x, RowScore::L2 { eps: 1e-9 });
            let loss = g.mean(n);
            g.backward(loss, &mut s);
            Sgd::new(0.1).step(&mut s);
            assert_eq!(s.touched(p).len(), 9, "six entities, three relations");
            s.grad_bytes()
        };
        let small = bytes(1_000);
        assert_eq!(small, bytes(1_000_000));
        assert_eq!(small, (1 + 9) * cols as u64 * 4);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let mut s = ParamStore::new();
        s.add_param("x", Tensor::zeros(1, 1));
        s.add_param("x", Tensor::zeros(1, 1));
    }

    #[test]
    fn row_set_sorts_dedups_and_retains_capacity() {
        let mut rs = RowSet::new();
        assert!(rs.is_empty());
        rs.insert_slice(&[7, 2, 2, 9]);
        rs.insert_slice(&[3, 7]);
        assert_eq!(rs.as_slice(), Some(&[2, 3, 7, 9][..]));
        assert_eq!(rs.len(), 4);
        // Appending a strictly-greater sorted run skips the re-sort but
        // stays correct.
        rs.insert_slice(&[11, 12]);
        assert_eq!(rs.as_slice(), Some(&[2, 3, 7, 9, 11, 12][..]));
        let cap = rs.rows.capacity();
        rs.clear();
        assert!(rs.is_empty());
        assert_eq!(rs.rows.capacity(), cap, "clear must retain capacity");
        rs.mark_all();
        assert!(rs.is_dense());
        rs.insert_slice(&[1]); // no-op when dense
        assert_eq!(rs.as_slice(), None);
        rs.clear();
        assert!(!rs.is_dense());
    }

    #[test]
    fn touch_tracks_and_grad_mut_marks_dense() {
        let mut s = ParamStore::new();
        let a = s.add_param("a", Tensor::zeros(6, 2));
        s.touch(a, &[4, 1, 4]);
        assert_eq!(s.touched(a).as_slice(), Some(&[1, 4][..]));
        // The untracked accessor falls back to dense.
        let _ = s.grad_mut(a);
        assert!(s.touched(a).is_dense());
        // zero_grads resets the set to empty sparse.
        s.zero_grads();
        assert!(s.touched(a).is_empty());
    }

    #[test]
    fn sparse_zero_grads_clears_only_touched_rows_and_matches_invariant() {
        let mut s = ParamStore::new();
        let a = s.add_param("a", Tensor::zeros(4, 2));
        // Simulate a tracked writer: rows 1 and 3 carry gradient.
        s.touch(a, &[1, 3]);
        assert_eq!(s.touched(a).as_slice(), Some(&[1, 3][..]));
        s.sweep_serial(a, Sweep::Grads, |r, g, _| g.fill(r as f32 - 2.0));
        s.zero_grads();
        let grad = Tensor::from_view(s.grad(a));
        assert!(grad.as_slice().iter().all(|&x| x.to_bits() == 0));
        assert!(s.touched(a).is_empty());
    }

    #[test]
    fn new_params_start_all_dirty_and_sweeps_retain_changed_rows() {
        let mut s = ParamStore::new();
        let a = s.add_param("a", Tensor::from_rows(&[[1.0], [2.0], [3.0], [4.0]]));
        assert!(s.dirty(a).is_dense(), "fresh params start all-dirty");
        // First sweep (dense): "normalize" rows > 2.0 down, report changed.
        s.for_dirty_rows(a, |_, row| {
            if row[0] > 2.0 {
                row[0] = 2.0;
                true
            } else {
                false
            }
        });
        assert_eq!(s.dirty(a).as_slice(), Some(&[2, 3][..]));
        // Second sweep only sees the retained rows; nothing changes now.
        let mut seen = Vec::new();
        s.for_dirty_rows(a, |r, _| {
            seen.push(r);
            false
        });
        assert_eq!(seen, vec![2, 3]);
        assert!(s.dirty(a).is_empty());
        // An optimizer marking rows re-arms the sweep for exactly those.
        let mut stepped = RowSet::new();
        stepped.insert_slice(&[1, 3, 1]);
        s.mark_dirty(a, &stepped);
        let mut seen = Vec::new();
        s.for_dirty_rows(a, |r, _| {
            seen.push(r);
            false
        });
        assert_eq!(seen, vec![1, 3]);
    }

    #[test]
    fn value_mut_and_mark_all_dirty_force_dense_dirty() {
        let mut s = ParamStore::new();
        let a = s.add_param("a", Tensor::zeros(3, 2));
        s.for_dirty_rows(a, |_, _| false);
        assert!(s.dirty(a).is_empty());
        let _ = s.value_mut(a);
        assert!(s.dirty(a).is_dense(), "untracked value access goes dense");
        s.for_dirty_rows(a, |_, _| false);
        let mut all = RowSet::new();
        all.mark_all();
        s.mark_dirty(a, &all);
        assert!(s.dirty(a).is_dense());
    }

    #[test]
    fn dense_grads_mode_keeps_dirty_dense_across_sweeps() {
        let mut s = ParamStore::new();
        let a = s.add_param("a", Tensor::zeros(3, 2));
        s.set_dense_grads(true);
        assert!(s.dirty(a).is_dense());
        let mut visits = 0;
        s.for_dirty_rows(a, |_, _| {
            visits += 1;
            false
        });
        assert_eq!(visits, 3, "ablation arm sweeps the full table");
        assert!(
            s.dirty(a).is_dense(),
            "ablation arm stays dense after the sweep"
        );
    }

    /// Row `r` of the test table is `[10r, 10r + 1, 10r + 2]`.
    const SWEEP_ROWS: usize = 16;
    const SWEEP_COLS: usize = 3;

    fn sweep_fixture(paged: bool) -> (ParamStore, ParamId) {
        let data = (0..SWEEP_ROWS * SWEEP_COLS)
            .map(|k| (k / SWEEP_COLS * 10 + k % SWEEP_COLS) as f32)
            .collect();
        let mut s = ParamStore::new();
        let p = s.add_param("p", Tensor::from_vec(SWEEP_ROWS, SWEEP_COLS, data));
        s.for_dirty_rows(p, |_, _| false);
        if paged {
            // A half-size cache, churned so the slot map is a non-identity
            // permutation by the time the set under test is paged in.
            let storage = crate::VecStorage::new(SWEEP_ROWS, SWEEP_COLS);
            s.page_out(p, Box::new(storage), SWEEP_ROWS / 2).unwrap();
            s.page_in(p, &[&[8, 9, 10, 11, 12, 13, 14, 15]]).unwrap();
            s.page_in(p, &[&[2, 13, 5]]).unwrap();
        }
        (s, p)
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The primitive itself: every row of the set is visited exactly once,
    /// under its absolute index, with the bytes the table shows for it;
    /// writes land in that row and nowhere else — for every shape of set,
    /// pool width (0 = `sweep_serial`) and residency.
    #[test]
    fn sweep_visits_each_row_of_the_set_once_with_its_own_bytes() {
        let every: Vec<u32> = (0..SWEEP_ROWS as u32).collect();
        let sets: [(&str, Option<&[u32]>); 6] = [
            ("empty", Some(&[])),
            ("one row", Some(&[6])),
            ("first and last", Some(&[0, 15])),
            ("gappy", Some(&[1, 2, 7, 9, 14])),
            ("every row listed", Some(&every)),
            ("all-rows state", None),
        ];
        for (label, set) in sets {
            for paged in [false, true] {
                if paged && set.is_none_or(|rows| rows.len() > SWEEP_ROWS / 2) {
                    continue; // refused, or larger than the cache: see below
                }
                for width in [0usize, 1, 4, 8] {
                    let (mut s, p) = sweep_fixture(paged);
                    match set {
                        Some(rows) => {
                            s.page_in(p, &[rows]).unwrap();
                            s.touch(p, rows);
                        }
                        None => {
                            s.grad_mut(p);
                        }
                    }
                    let in_set = |r: usize| set.is_none_or(|rows| rows.contains(&(r as u32)));
                    if let (Some(pager), Some(rows)) = (s.pager(p), set) {
                        assert!(
                            rows.is_empty()
                                || rows.iter().any(|&r| pager.slot(r as usize) != r as usize),
                            "{label}: the fixture must scramble slots"
                        );
                    }
                    let shown: Vec<Vec<f32>> = (0..SWEEP_ROWS)
                        .map(|r| match in_set(r) {
                            true => s.table(p).row(r).to_vec(),
                            false => Vec::new(),
                        })
                        .collect();
                    let visits = std::sync::Mutex::new(Vec::new());
                    let body = |r: usize, row: &mut [f32], grads: &DenseView<'_>| {
                        assert_eq!(bits(row), bits(&shown[r]), "{label}: row {r}'s bytes");
                        assert_eq!(bits(grads.row(r)), [0; SWEEP_COLS], "{label}: sibling row");
                        visits.lock().unwrap().push(r);
                        row.fill(r as f32);
                    };
                    if width == 0 {
                        s.sweep_serial(p, Sweep::Values, body);
                    } else {
                        let pool = PoolHandle::global().with_width(width);
                        s.sweep(p, Sweep::Values, &pool, 1, body);
                    }
                    let mut visits = visits.into_inner().unwrap();
                    visits.sort_unstable();
                    let want: Vec<usize> = (0..SWEEP_ROWS).filter(|&r| in_set(r)).collect();
                    assert_eq!(visits, want, "{label}, paged {paged}, width {width}");
                    // Canary: rows outside the set keep their bits.
                    s.unpage(p).unwrap();
                    for r in 0..SWEEP_ROWS {
                        let want = match in_set(r) {
                            true => [r as f32; SWEEP_COLS],
                            false => [0.0, 1.0, 2.0].map(|j| r as f32 * 10.0 + j),
                        };
                        assert_eq!(bits(s.value(p).row(r)), bits(&want), "{label}: row {r}");
                    }
                    // The optimizer walk recorded exactly its rows dirty.
                    assert_eq!(s.dirty(p).as_slice(), set, "{label}: dirty rows");
                }
            }
        }
    }

    /// A listed `0..N` and the all-rows state are the same sweep: identical
    /// bits from the same body, at any width.
    #[test]
    fn listed_and_all_rows_sweeps_leave_identical_bits() {
        let every: Vec<u32> = (0..SWEEP_ROWS as u32).collect();
        let run = |dense: bool, width: usize| {
            let (mut s, p) = sweep_fixture(false);
            if dense {
                s.grad_mut(p).fill(0.5);
            } else {
                s.touch(p, &every);
                s.sweep_serial(p, Sweep::Grads, |_, g, _| g.fill(0.5));
            }
            assert_eq!(s.touched(p).is_dense(), dense);
            let pool = PoolHandle::global().with_width(width);
            s.sweep(p, Sweep::Values, &pool, 1, |r, value, grads| {
                for (x, g) in value.iter_mut().zip(grads.row(r)) {
                    *x = (*x + r as f32).sqrt() * g;
                }
            });
            bits(s.value(p).as_slice())
        };
        let base = run(true, 1);
        for width in [1, 4, 8] {
            assert_eq!(run(true, width), base);
            assert_eq!(run(false, width), base);
        }
    }

    /// Every public door that could leave a paged parameter with an all-rows
    /// touched set refuses at the door, so the sweep's own assertion is the
    /// single last resort behind them.
    #[test]
    fn paged_parameters_refuse_every_door_to_an_all_rows_sweep() {
        let panics = |f: &mut dyn FnMut()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            match err.downcast::<String>() {
                Ok(formatted) => *formatted,
                Err(err) => err.downcast::<&str>().unwrap().to_string(),
            }
        };
        let (mut s, p) = sweep_fixture(true);
        assert!(panics(&mut || {
            s.grad_mut(p);
        })
        .contains("is paged out to backing storage"));
        assert!(panics(&mut || s.set_dense_grads(true))
            .contains("dense-gradient mode is incompatible with paged parameters"));
        assert!(
            panics(&mut || s.sweep_serial(p, Sweep::AllValues, |_, _, _| ()))
                .contains("cannot be swept over all rows")
        );
        assert!(!s.touched(p).is_dense() && !s.dense_grads());

        let (mut dense, q) = sweep_fixture(false);
        dense.set_dense_grads(true);
        let storage = crate::VecStorage::new(SWEEP_ROWS, SWEEP_COLS);
        let err = dense.page_out(q, Box::new(storage), 4).unwrap_err();
        assert!(err
            .to_string()
            .contains("paged storage is incompatible with dense-gradient mode"));
    }

    /// A 16 × 2 parameter (row `r` = `[r, r]`) paged out to a store that
    /// fails its n-th read or write with `EIO`, behind a 4-row cache.
    /// `page_out` itself is write 0.
    fn faulty_fixture(fail_read: Option<u64>, fail_write: Option<u64>) -> (ParamStore, ParamId) {
        let data = (0..32).map(|k| (k / 2) as f32).collect();
        let mut s = ParamStore::new();
        let p = s.add_param("p", Tensor::from_vec(16, 2, data));
        let storage = crate::paged::tests::FaultyStorage::new(fail_read, fail_write);
        s.page_out(p, storage, 4).unwrap();
        (s, p)
    }

    /// Doubles rows, and reports each changed: the "normalizer" under test.
    fn double(visited: &mut Vec<usize>) -> impl FnMut(usize, &mut [f32]) -> bool + '_ {
        |r, row| {
            visited.push(r);
            row.iter_mut().for_each(|x| *x *= 2.0);
            true
        }
    }

    #[test]
    fn a_storage_fault_in_the_dirty_sweep_is_an_error_at_the_next_fallible_call() {
        use crate::paged::tests::assert_storage_error;
        let named = |err: Error, op: &str| {
            assert!(
                err.to_string().contains("renormalization sweep of 'p'"),
                "{err}"
            );
            assert_storage_error(err, op);
        };

        // Read fault, all-rows state: the third chunk's read (read 2) fails.
        let (mut s, p) = faulty_fixture(Some(2), None);
        let mut visited = Vec::new();
        s.for_dirty_rows(p, double(&mut visited));
        assert_eq!(visited, (0..8).collect::<Vec<_>>(), "two chunks were swept");
        assert!(
            s.dirty(p).is_dense(),
            "without a list, every row stays dirty"
        );
        named(s.take_storage_error().unwrap_err(), "read");
        s.take_storage_error().unwrap();
        // The fault was one read: the sweep can be run again, and finishes.
        visited.clear();
        s.for_dirty_rows(p, double(&mut visited));
        assert_eq!(visited.len(), 16);
        assert_eq!(s.dirty(p).len(), 16);
        s.unpage(p).unwrap();
        for r in 0..16 {
            let times = if r < 8 { 4.0 } else { 2.0 };
            assert_eq!(s.value(p).row(r), [r as f32 * times; 2], "row {r}");
        }

        // Write fault, listed state: the second chunk's eviction has to save
        // the rows the first chunk doubled (write 1), and cannot.
        let (mut s, p) = faulty_fixture(None, Some(1));
        s.for_dirty_rows(p, |_, _| false);
        let mut listed = RowSet::new();
        listed.insert_slice(&[0, 1, 2, 3, 6, 7, 8, 9, 12, 13]);
        s.mark_dirty(p, &listed);
        visited.clear();
        s.for_dirty_rows(p, double(&mut visited));
        assert_eq!(visited, [0, 1, 2, 3]);
        // Kept: the four changed rows and the six never reached.
        assert_eq!(s.dirty(p).as_slice(), listed.as_slice());
        // `page_in`, `flush_paged` and `unpage` all surface it; once.
        named(s.page_in(p, &[&[5]]).unwrap_err(), "write");
        s.page_in(p, &[&[5]]).unwrap();
        // Nothing was lost: the doubled rows were still resident and dirty.
        s.unpage(p).unwrap();
        for r in 0..16 {
            let times = if r < 4 { 2.0 } else { 1.0 };
            assert_eq!(s.value(p).row(r), [r as f32 * times; 2], "row {r}");
        }
        for surface in [ParamStore::flush_paged, ParamStore::unpage] {
            let (mut s, p) = faulty_fixture(Some(0), None);
            s.for_dirty_rows(p, |_, _| false);
            named(surface(&mut s, p).unwrap_err(), "read");
            surface(&mut s, p).unwrap();
        }
    }

    #[test]
    fn dense_grads_mode_forces_mark_all() {
        let mut s = ParamStore::new();
        let a = s.add_param("a", Tensor::zeros(3, 1));
        s.set_dense_grads(true);
        assert!(s.dense_grads());
        assert!(s.touched(a).is_dense());
        s.zero_grads();
        assert!(s.touched(a).is_dense(), "dense mode survives zero_grads");
        s.touch(a, &[0]);
        assert!(s.touched(a).is_dense());
        let b = s.add_param("b", Tensor::zeros(2, 1));
        assert!(s.touched(b).is_dense(), "late params start dense too");
    }
}
