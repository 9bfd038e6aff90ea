//! Parameter storage: the model's learnable tensors, their gradients, the
//! touched-row sets that make every downstream gradient sweep sparse, and
//! the dirty-row sets that make per-epoch renormalization sparse too.
//!
//! Parameters can additionally be **paged out** to a [`RowStorage`] backend
//! ([`ParamStore::page_out`]): the full table then lives behind the
//! backend and only a fixed budget of rows — each batch's touched working
//! set, known in advance from the incidence index lists — is resident in a
//! pinned cache with LRU eviction and dirty-row write-back (see
//! [`crate::paged`]).

use crate::hogwild::SharedTable;
use crate::paged::{io_error, storage_error, Pager, RowStorage};
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
///   [`ParamStore::touch`]; downstream sweeps (`zero_grads`, `Sgd`,
///   `Adagrad`, `all_reduce_grads`) walk only these rows, so per-batch cost
///   is `O(batch · d)` instead of `O(N · d)`.
/// * **Dense** — [`RowSet::mark_all`]: every row may hold gradient. This is
///   the fallback for writers without row structure (anything going through
///   [`ParamStore::grad_mut`]) and the explicit
///   [`ParamStore::set_dense_grads`] ablation mode; all sweeps take their
///   full-table path, which is bit-identical to the sparse walk.
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

    /// The sorted row list, or `None` in the dense state (callers take
    /// their full-table path).
    pub fn as_slice(&self) -> Option<&[u32]> {
        if self.dense {
            None
        } else {
            Some(&self.rows)
        }
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
/// nonzero. The invariant every writer upholds: **outside the set, gradient
/// rows are exactly `+0.0`**. [`crate::Graph::backward`] records rows from
/// the ops that know the sparsity (gather index lists, incidence nonzero
/// columns, projection relation lists); [`ParamStore::grad_mut`] — the only
/// untracked mutable entry point — conservatively marks the whole parameter
/// dense. [`ParamStore::zero_grads`] clears only the set's rows and then
/// resets the set.
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
    grads: Vec<Tensor>,
    touched: Vec<RowSet>,
    /// Rows whose **value** may have changed since the last
    /// [`ParamStore::for_dirty_rows`] sweep — the epoch-renormalization
    /// analog of the touched-row contract. Populated by the optimizers
    /// (union of stepped rows) and the untracked value accessors; consumed
    /// with retention by `for_dirty_rows`.
    dirty: Vec<RowSet>,
    /// `Some` for parameters paged out to backing storage
    /// ([`ParamStore::page_out`]): the value/grad tensors then hold the
    /// `budget × d` slot cache (slot-aligned, so one translation map serves
    /// both) while the touched/dirty row sets keep **absolute** indices.
    pagers: Vec<Option<Pager>>,
    dense_grads: bool,
}

/// Read view of a parameter's table for kernels that read whole rows.
///
/// For resident parameters the view covers the full `rows × cols` table;
/// for paged parameters it covers the `budget × cols` cache plus the row →
/// slot translation map. [`TableView::row`] hands out the same bytes either
/// way, so kernels built on it are bit-identical across the two arms.
#[derive(Debug, Clone, Copy)]
pub struct TableView<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    map: Option<&'a [u32]>,
}

impl<'a> TableView<'a> {
    /// Logical row count of the parameter (not the cache size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `row` of the table as a slice, through the slot map when paged.
    ///
    /// # Panics
    ///
    /// Panics (paged parameters only) if the row is not resident — a
    /// kernel touched a row outside the paged-in working set.
    #[inline]
    pub fn row(&self, row: usize) -> &'a [f32] {
        let slot = match self.map {
            None => row,
            Some(m) => {
                let s = m[row];
                assert_ne!(
                    s,
                    crate::paged::NOT_RESIDENT,
                    "row {row} not resident; it was outside the working set paged in for this batch"
                );
                s as usize
            }
        };
        &self.data[slot * self.cols..(slot + 1) * self.cols]
    }
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
        let grad = Tensor::zeros(value.rows(), value.cols());
        let mut rows = RowSet::new();
        if self.dense_grads {
            rows.mark_all();
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
    /// [`ParamStore::table`] if it can translate rows). This is also the
    /// guard that stops ops without paged support (gather/SpMM backends,
    /// projections) from silently reading slot bytes as absolute rows.
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

    /// Borrows a parameter's gradient accumulator.
    ///
    /// # Panics
    ///
    /// Panics for paged parameters (the accumulator is slot-addressed; see
    /// [`ParamStore::value`]).
    pub fn grad(&self, id: ParamId) -> &Tensor {
        self.assert_resident(id);
        &self.grads[id.0]
    }

    /// Mutably borrows a parameter's gradient accumulator.
    ///
    /// This entry point carries no row information, so it conservatively
    /// [`RowSet::mark_all`]s the parameter — the dense fallback of the
    /// touched-row contract. Structured writers inside the crate use the
    /// tracked accessors instead; external writers with row knowledge can
    /// re-tighten via [`ParamStore::touch`] after a `zero_grads`.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.assert_resident(id);
        self.touched[id.0].mark_all();
        &mut self.grads[id.0]
    }

    /// Mutably borrows a parameter's gradient for writes **restricted to
    /// `rows`**, which are recorded in the touched set first — the tracked
    /// counterpart of [`ParamStore::grad_mut`] for external writers with
    /// row structure (e.g. the data-parallel all-reduce). Writing outside
    /// `rows` breaks the touched-row invariant; use
    /// [`ParamStore::grad_mut`] when the write pattern is unknown.
    pub fn grad_rows_mut(&mut self, id: ParamId, rows: &[u32]) -> &mut Tensor {
        self.assert_resident(id);
        self.touch(id, rows);
        &mut self.grads[id.0]
    }

    /// Borrows a parameter's touched-row set.
    pub fn touched(&self, id: ParamId) -> &RowSet {
        &self.touched[id.0]
    }

    /// Records that `rows` of `id`'s gradient may now be nonzero (any
    /// order, duplicates fine). In dense-gradient mode this marks the whole
    /// parameter instead.
    pub fn touch(&mut self, id: ParamId, rows: &[u32]) {
        if self.dense_grads {
            self.touched[id.0].mark_all();
        } else {
            self.touched[id.0].insert_slice(rows);
        }
    }

    /// Forces every parameter's row set dense, now and for all future
    /// [`ParamStore::touch`] calls — the `--dense-grads` ablation mode.
    ///
    /// Every sweep (zeroing, optimizer steps, all-reduce) then takes its
    /// full-table path, which is **bit-identical** to the sparse walks (the
    /// per-row arithmetic is the same and untouched rows carry exact
    /// `+0.0` gradients); only the per-batch cost changes from
    /// `O(batch · d)` to `O(N · d)`.
    pub fn set_dense_grads(&mut self, dense: bool) {
        assert!(
            !dense || !self.has_paged(),
            "dense-gradient mode is incompatible with paged parameters (the \
             accumulator only holds the cache's slots, not the full table)"
        );
        self.dense_grads = dense;
        if dense {
            for rows in &mut self.touched {
                rows.mark_all();
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

    /// Tracked gradient access: the mutable gradient plus the row set a
    /// structured writer should restrict itself to (callers [`touch`]
    /// (Self::touch) first, then walk the returned set or a subset of it).
    pub(crate) fn grad_and_rows_mut(&mut self, id: ParamId) -> (&mut Tensor, &RowSet) {
        self.assert_resident(id);
        (&mut self.grads[id.0], &self.touched[id.0])
    }

    /// Like [`grad_and_rows_mut`](Self::grad_and_rows_mut) with the value
    /// borrowed alongside (the fused backward kernels read it).
    pub(crate) fn value_grad_rows_mut(&mut self, id: ParamId) -> (&Tensor, &mut Tensor, &RowSet) {
        self.assert_resident(id);
        (
            &self.values[id.0],
            &mut self.grads[id.0],
            &self.touched[id.0],
        )
    }

    /// Borrows a parameter's dirty-row set (rows whose value may have
    /// changed since the last [`ParamStore::for_dirty_rows`] sweep).
    pub fn dirty(&self, id: ParamId) -> &RowSet {
        &self.dirty[id.0]
    }

    /// Records that `rows` of `id`'s **value** were rewritten (any order,
    /// duplicates fine) — the hook optimizers use after stepping a sparse
    /// row list, so epoch renormalization knows what to revisit.
    pub fn mark_dirty(&mut self, id: ParamId, rows: &[u32]) {
        self.dirty[id.0].insert_slice(rows);
    }

    /// Like [`mark_dirty`](Self::mark_dirty) but marks every row — for
    /// writers without row structure (dense optimizer sweeps, `Adam`).
    pub fn mark_all_dirty(&mut self, id: ParamId) {
        self.dirty[id.0].mark_all();
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
    pub fn for_dirty_rows(&mut self, id: ParamId, mut f: impl FnMut(usize, &mut [f32]) -> bool) {
        if self.pagers[id.0].is_some() {
            return self.for_dirty_rows_paged(id, f);
        }
        let value = &mut self.values[id.0];
        let cols = value.cols();
        let num_rows = value.rows();
        let dirty = &mut self.dirty[id.0];
        if cols == 0 || num_rows == 0 {
            dirty.clear();
        } else {
            let data = value.as_mut_slice();
            if dirty.dense {
                dirty.dense = false;
                dirty.rows.clear();
                for r in 0..num_rows {
                    if f(r, &mut data[r * cols..(r + 1) * cols]) {
                        dirty.rows.push(r as u32);
                    }
                }
            } else {
                let mut keep = 0usize;
                for i in 0..dirty.rows.len() {
                    let r = dirty.rows[i] as usize;
                    debug_assert!(r < num_rows, "dirty row {r} out of bounds");
                    if f(r, &mut data[r * cols..(r + 1) * cols]) {
                        dirty.rows[keep] = r as u32;
                        keep += 1;
                    }
                }
                dirty.rows.truncate(keep);
            }
        }
        if self.dense_grads {
            dirty.mark_all();
        }
    }

    /// Iterates over `(id, value, grad, touched, dirty, pager)` tuples
    /// mutably — the optimizer hook. The touched set tells the optimizer
    /// which rows can carry gradient (dense means "sweep everything"); the
    /// optimizer unions the rows it actually rewrites into the dirty set so
    /// epoch renormalization can stay sparse. A `Some` pager means value
    /// and grad are the **slot cache**: the optimizer must address rows
    /// through [`Pager::slot`] (only `Sgd` supports this; stateful
    /// optimizers keyed on absolute rows refuse).
    pub fn iter_mut(
        &mut self,
    ) -> impl Iterator<
        Item = (
            ParamId,
            &mut Tensor,
            &mut Tensor,
            &RowSet,
            &mut RowSet,
            Option<&Pager>,
        ),
    > {
        self.values
            .iter_mut()
            .zip(self.grads.iter_mut())
            .zip(self.touched.iter())
            .zip(self.dirty.iter_mut())
            .zip(self.pagers.iter())
            .enumerate()
            .map(|(i, ((((v, g), r), d), p))| (ParamId(i), v, g, r, d, p.as_ref()))
    }

    /// Handles of all registered parameters, in registration order.
    pub fn param_ids(&self) -> Vec<ParamId> {
        (0..self.values.len()).map(ParamId).collect()
    }

    /// Zeroes gradient accumulators and resets the touched-row sets.
    ///
    /// Sparse sets are walked row by row (`O(touched · d)`); dense sets
    /// memset the full table. Because untouched rows are already exact
    /// `+0.0` (the touched-row invariant), both paths leave identical bits.
    pub fn zero_grads(&mut self) {
        for i in 0..self.grads.len() {
            if self.pagers[i].is_some() {
                // The paged equivalent also marks the stepped rows' slots
                // for write-back — the optimizer rewrote their values.
                self.prepare_paged(i);
                continue;
            }
            let (g, rows) = (&mut self.grads[i], &mut self.touched[i]);
            match rows.as_slice() {
                None => g.zero_(),
                Some(listed) => {
                    let n = g.cols();
                    let data = g.as_mut_slice();
                    for &r in listed {
                        let r = r as usize;
                        data[r * n..(r + 1) * n].fill(0.0);
                    }
                }
            }
            rows.clear();
            if self.dense_grads {
                rows.mark_all();
            }
        }
    }

    /// Total number of learnable scalars.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Converts every parameter's **value** tensor to Hogwild-shared
    /// storage, returning one [`SharedTable`] handle per parameter (in
    /// registration order) for replica stores to alias via
    /// [`ParamStore::alias_values`].
    ///
    /// Only values are shared: gradients, touched sets, and dirty sets stay
    /// private to each store, so concurrent workers accumulate gradients
    /// independently and only their optimizer *steps* race on the shared
    /// bytes (see [`crate::hogwild`] for the safety argument).
    ///
    /// # Errors
    ///
    /// Fails if any parameter is paged out — the paged value tensor is a
    /// slot cache, not the table, and Hogwild sharing of a demand-paged
    /// cache is not supported.
    pub fn share_values(&mut self) -> Result<Vec<SharedTable>> {
        if self.has_paged() {
            return Err(storage_error(
                "Hogwild value sharing is incompatible with paged parameters \
                 (the value tensor holds a slot cache, not the table)"
                    .into(),
            ));
        }
        Ok(self.values.iter_mut().map(Tensor::share).collect())
    }

    /// Replaces this store's value tensors with aliases of `tables` (as
    /// produced by another store's [`ParamStore::share_values`]), making
    /// this store a Hogwild replica: its forwards read — and its optimizer
    /// steps write — the canonical store's bytes, while its gradients and
    /// row sets remain private.
    ///
    /// Every parameter is conservatively marked all-dirty (its value now
    /// changes under other workers' feet); the async driver merges and
    /// settles dirty sets at epoch edges.
    ///
    /// # Errors
    ///
    /// Fails if any parameter is paged, or if `tables` does not match this
    /// store parameter-for-parameter in count and shape.
    pub fn alias_values(&mut self, tables: &[SharedTable]) -> Result<()> {
        if self.has_paged() {
            return Err(storage_error(
                "Hogwild value sharing is incompatible with paged parameters".into(),
            ));
        }
        if tables.len() != self.values.len() {
            return Err(Error::ShapeMismatch {
                context: format!(
                    "alias_values: {} shared tables for {} parameters",
                    tables.len(),
                    self.values.len()
                ),
            });
        }
        for (i, table) in tables.iter().enumerate() {
            let have = self.values[i].shape();
            let want = (table.rows(), table.cols());
            if have != want {
                return Err(Error::ShapeMismatch {
                    context: format!(
                        "alias_values: parameter '{}' is {}x{} but the shared table is {}x{}",
                        self.names[i], have.0, have.1, want.0, want.1
                    ),
                });
            }
        }
        for (value, table) in self.values.iter_mut().zip(tables) {
            *value = Tensor::from_shared(table);
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
    /// or paged (see [`TableView`]).
    pub fn table(&self, id: ParamId) -> TableView<'_> {
        let i = id.0;
        match &self.pagers[i] {
            None => TableView {
                data: self.values[i].as_slice(),
                rows: self.values[i].rows(),
                cols: self.values[i].cols(),
                map: None,
            },
            Some(p) => TableView {
                data: self.values[i].as_slice(),
                rows: p.rows(),
                cols: p.cols(),
                map: Some(p.slot_of()),
            },
        }
    }

    /// Moves `id`'s full table into `storage` (writing the current values
    /// to it) and replaces the in-RAM tensors with a `budget × d` slot
    /// cache. From here on, each batch must page its working set in via
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
        mut storage: Box<dyn RowStorage>,
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
        storage
            .write_rows(0, value.rows(), value.as_slice())
            .map_err(io_error)?;
        storage.flush().map_err(io_error)?;
        let budget = budget.min(value.rows().max(1));
        let cols = value.cols();
        self.values[i] = Tensor::zeros(budget, cols);
        self.grads[i] = Tensor::zeros(budget, cols);
        self.pagers[i] = Some(Pager::new(storage, budget));
        Ok(())
    }

    /// Pages in the union of the given sorted index `lists` — a batch's
    /// working set, e.g. its positive and negative incidence column lists —
    /// pinning those rows for the coming forward/backward/step. A no-op
    /// for resident parameters, so models can call it unconditionally.
    ///
    /// Before loading, the *previous* batch's bookkeeping is settled: its
    /// touched rows (still resident by the pinning invariant) get their
    /// gradient slots zeroed and their value slots marked for write-back —
    /// the paged equivalent of [`ParamStore::zero_grads`], which delegates
    /// here for paged parameters.
    ///
    /// # Errors
    ///
    /// Fails if the union exceeds the cache budget or on backing-store I/O
    /// errors.
    pub fn page_in(&mut self, id: ParamId, lists: &[&[u32]]) -> Result<()> {
        let i = id.0;
        if self.pagers[i].is_none() {
            return Ok(());
        }
        self.prepare_paged(i);
        let pager = self.pagers[i].as_mut().expect("checked above");
        pager.ensure_union(lists, self.values[i].as_mut_slice())
    }

    /// Writes every dirty resident row of a paged parameter back to its
    /// backing store and flushes it — the checkpoint hook. A no-op for
    /// resident parameters.
    ///
    /// # Errors
    ///
    /// Backing-store I/O errors.
    pub fn flush_paged(&mut self, id: ParamId) -> Result<()> {
        let i = id.0;
        if self.pagers[i].is_none() {
            return Ok(());
        }
        self.prepare_paged(i);
        let pager = self.pagers[i].as_mut().expect("checked above");
        pager.flush(self.values[i].as_slice())
    }

    /// Reverses [`ParamStore::page_out`]: flushes dirty rows, reads the
    /// full table back into a resident tensor, and drops the pager (and its
    /// backing store). The gradient accumulator is reset to full-table
    /// zeros. Residency is transiently `O(N · d)` again — this is for
    /// end-of-training evaluation and dumps, not for mid-training use.
    ///
    /// # Errors
    ///
    /// Backing-store I/O errors.
    pub fn unpage(&mut self, id: ParamId) -> Result<()> {
        let i = id.0;
        if self.pagers[i].is_none() {
            return Ok(());
        }
        self.prepare_paged(i);
        let pager = self.pagers[i].as_mut().expect("checked above");
        pager.flush(self.values[i].as_slice())?;
        let (rows, cols) = (pager.rows(), pager.cols());
        let mut full = Tensor::zeros(rows, cols);
        pager.read_all(full.as_mut_slice())?;
        self.values[i] = full;
        self.grads[i] = Tensor::zeros(rows, cols);
        self.pagers[i] = None;
        Ok(())
    }

    /// Settles a paged parameter's previous-batch bookkeeping: zeroes the
    /// gradient slots of the touched rows (which are still resident — rows
    /// stay pinned until this runs), marks their value slots dirty (the
    /// optimizer rewrote them), and clears the touched set. Idempotent;
    /// every paged operation that can evict calls it first so no slot is
    /// ever recycled with stale gradient bytes or an unsaved value.
    fn prepare_paged(&mut self, i: usize) {
        let Some(pager) = self.pagers[i].as_mut() else {
            return;
        };
        let touched = &mut self.touched[i];
        let rows = touched.as_slice().unwrap_or_else(|| {
            panic!(
                "paged parameter '{}' cannot use a dense touched set",
                self.names[i]
            )
        });
        let grad = &mut self.grads[i];
        let cols = grad.cols();
        let gd = grad.as_mut_slice();
        for &r in rows {
            let s = pager.slot(r as usize);
            if cols > 0 {
                gd[s * cols..(s + 1) * cols].fill(0.0);
            }
            pager.mark_slot_dirty(s);
        }
        touched.clear();
    }

    /// The paged arm of [`ParamStore::for_dirty_rows`]: walks the same
    /// dirty rows in the same order with the same retention contract, but
    /// streams them through the slot cache in budget-sized chunks (each
    /// chunk's accesses hit the pager, so they land in the trace and the
    /// hit/miss counters like any batch access).
    ///
    /// # Panics
    ///
    /// Panics on backing-store I/O errors (this sweep has no error channel;
    /// a failing pagefile mid-epoch is not recoverable).
    fn for_dirty_rows_paged(&mut self, id: ParamId, mut f: impl FnMut(usize, &mut [f32]) -> bool) {
        let i = id.0;
        self.prepare_paged(i);
        let pager = self.pagers[i].as_mut().expect("paged dispatch");
        let cols = pager.cols();
        let num_rows = pager.rows();
        let budget = pager.budget();
        let dirty = &mut self.dirty[i];
        if cols == 0 || num_rows == 0 {
            dirty.clear();
            return;
        }
        let cache = self.values[i].as_mut_slice();
        if dirty.dense {
            // Fresh-parameter state: every row is dirty. Stream the whole
            // table through the cache once (this is the one O(N · d) sweep,
            // paid on the first epoch only — retention thins it after).
            dirty.dense = false;
            dirty.rows.clear();
            let mut chunk: Vec<u32> = Vec::with_capacity(budget);
            let mut start = 0usize;
            while start < num_rows {
                let end = (start + budget).min(num_rows);
                chunk.clear();
                chunk.extend(start as u32..end as u32);
                pager
                    .ensure(&chunk, cache)
                    .expect("paged renormalization sweep failed to page rows in");
                for r in start..end {
                    let s = pager.slot(r);
                    if f(r, &mut cache[s * cols..(s + 1) * cols]) {
                        pager.mark_slot_dirty(s);
                        dirty.rows.push(r as u32);
                    }
                }
                start = end;
            }
        } else {
            let total = dirty.rows.len();
            let mut keep = 0usize;
            let mut start = 0usize;
            while start < total {
                let end = (start + budget).min(total);
                pager
                    .ensure(&dirty.rows[start..end], cache)
                    .expect("paged renormalization sweep failed to page rows in");
                for idx in start..end {
                    let r = dirty.rows[idx] as usize;
                    let s = pager.slot(r);
                    if f(r, &mut cache[s * cols..(s + 1) * cols]) {
                        pager.mark_slot_dirty(s);
                        dirty.rows[keep] = r as u32;
                        keep += 1;
                    }
                }
                start = end;
            }
            dirty.rows.truncate(keep);
        }
    }

    /// Backward-pass view of a paged parameter for the slot-translating
    /// fused kernels: `(cache grads, sorted slots of the touched rows,
    /// slot → row map)`. The slot list is strictly ascending (for
    /// destination-row-sharded dispatch); its translation is a bijection
    /// off the sorted touched set, so per-row work — and therefore every
    /// bit — matches the resident arm.
    pub(crate) fn paged_backward_parts(&mut self, id: ParamId) -> (&mut Tensor, &[u32], &[u32]) {
        let i = id.0;
        let pager = self.pagers[i].as_mut().expect("parameter is paged");
        let touched = self.touched[i]
            .as_slice()
            .expect("paged parameters require sparse touched sets");
        pager.translate_sorted(touched);
        (&mut self.grads[i], &pager.slot_scratch, pager.row_of())
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
        s.grad_mut(a).set(1, 1, 5.0);
        s.zero_grads();
        assert_eq!(s.grad(a).get(1, 1), 0.0);
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
        {
            let (g, rows) = s.grad_and_rows_mut(a);
            assert_eq!(rows.as_slice(), Some(&[1, 3][..]));
            g.row_mut(1).fill(2.5);
            g.row_mut(3).fill(-1.0);
        }
        s.zero_grads();
        assert!(s.grad(a).as_slice().iter().all(|&x| x.to_bits() == 0));
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
        s.mark_dirty(a, &[1, 3, 1]);
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
        s.mark_all_dirty(a);
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
