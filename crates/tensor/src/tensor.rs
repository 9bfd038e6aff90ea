//! The dense tensor type.

use std::sync::Arc;

use crate::hogwild::SharedBuf;
use crate::memory;
use crate::Arena;

/// Fixed chunk length of every scalar reduction in the crate (the tape's
/// losses and means, [`Tensor::sum`], [`Tensor::frobenius_norm`]).
///
/// Boundaries depend only on the input length — never on the pool width —
/// so the f64 fold order, and therefore the result bits, are identical at
/// any `SPTX_NUM_THREADS`.
pub(crate) const REDUCE_CHUNK: usize = 8192;

/// The backing storage of a [`Tensor`]: exclusively owned bytes (the
/// default), or a shared buffer aliased by replica tensors across threads
/// (see [`crate::hogwild`]).
#[derive(Debug)]
enum Data {
    Owned(Vec<f32>),
    Shared(Arc<SharedBuf>),
}

/// An owned, row-major `rows × cols` matrix of `f32` with tracked allocation.
///
/// `Tensor` is deliberately 2-D: every object in translation-based KGE
/// training is a matrix (embedding tables, batches of expression rows,
/// per-triple score columns). Column vectors are `m × 1` tensors.
///
/// Most tensors exclusively own their buffer. A data-parallel replica's
/// value tensor instead aliases rank 0's ([`crate::ParamStore::alias_values`]):
/// its accessors then read and write the shared bytes in place,
/// [`Tensor::clone`] snapshots to a private owned copy, and the
/// arena-reclamation path drops it instead of pooling its buffer.
///
/// # Examples
///
/// ```
/// use tensor::Tensor;
///
/// let a = Tensor::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
/// assert_eq!(a.shape(), (2, 2));
/// assert_eq!(a.row(1), &[3.0, 4.0]);
/// ```
#[derive(Debug)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Data,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        memory::register((rows * cols * 4) as u64);
        Self {
            rows,
            cols,
            data: Data::Owned(vec![0.0; rows * cols]),
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        memory::register((rows * cols * 4) as u64);
        Self {
            rows,
            cols,
            data: Data::Owned(vec![value; rows * cols]),
        }
    }

    /// Creates a zero-filled tensor, recycling a buffer from `arena` when
    /// one of the right length is pooled (falling back to a fresh, counted
    /// heap allocation otherwise).
    ///
    /// Recycled buffers are zero-filled, so the result is indistinguishable
    /// from [`Tensor::zeros`] — only the allocation traffic differs.
    pub fn zeros_in(arena: &mut Arena, rows: usize, cols: usize) -> Self {
        match arena.take(rows * cols) {
            Some(mut data) => {
                data.fill(0.0);
                Self {
                    rows,
                    cols,
                    data: Data::Owned(data),
                }
            }
            None => Self::zeros(rows, cols),
        }
    }

    /// Creates a tensor with **unspecified contents**, recycling a buffer
    /// from `arena` when possible (a pool miss zero-fills, a hit returns the
    /// previous occupant's stale values).
    ///
    /// This is safe — the buffer is always initialized `f32` data, never
    /// uninitialized memory — but callers **must fully overwrite** the
    /// tensor before reading it, or results become dependent on recycling
    /// history. Reserved for kernels that write every output element (SpMM,
    /// gathers, elementwise maps, row reductions).
    pub fn uninit_in(arena: &mut Arena, rows: usize, cols: usize) -> Self {
        match arena.take(rows * cols) {
            Some(data) => Self {
                rows,
                cols,
                data: Data::Owned(data),
            },
            None => Self::zeros(rows, cols),
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        memory::register((data.len() * 4) as u64);
        Self {
            rows,
            cols,
            data: Data::Owned(data),
        }
    }

    /// Creates a tensor from fixed-size row arrays.
    pub fn from_rows<const N: usize>(rows: &[[f32; N]]) -> Self {
        let mut data = Vec::with_capacity(rows.len() * N);
        for r in rows {
            data.extend_from_slice(r);
        }
        Self::from_vec(rows.len(), N, data)
    }

    /// Copies every row of `view` (a mapped view's logical rows, in order)
    /// into an owned table — e.g. a gradient read whole through
    /// [`crate::ParamStore::grad`].
    pub fn from_view(view: sparse::DenseView<'_>) -> Self {
        let data = (0..view.rows())
            .flat_map(|r| view.row(r))
            .copied()
            .collect();
        Self::from_vec(view.rows(), view.cols(), data)
    }

    /// The backing buffer, whichever storage holds it.
    #[inline]
    fn buf(&self) -> &[f32] {
        match &self.data {
            Data::Owned(v) => v,
            // SAFETY: the Hogwild contract (crate::hogwild): racing writers
            // may exist, but each element reads as a valid old-or-new f32.
            Data::Shared(b) => unsafe { b.slice() },
        }
    }

    /// The backing buffer, mutably.
    #[inline]
    fn buf_mut(&mut self) -> &mut [f32] {
        match &mut self.data {
            Data::Owned(v) => v,
            // SAFETY: the Hogwild contract (crate::hogwild): this view may
            // alias other replicas' views; writes are plain aligned f32
            // stores to rows this replica's batch touched.
            Data::Shared(b) => unsafe { b.slice_mut() },
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether this tensor aliases a shared buffer rather than exclusively
    /// owning its buffer.
    #[inline]
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Data::Shared(_))
    }

    /// Underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        self.buf()
    }

    /// Mutable underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.buf_mut()
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let cols = self.cols;
        &self.buf()[i * cols..(i + 1) * cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let cols = self.cols;
        &mut self.buf_mut()[i * cols..(i + 1) * cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        assert!(i < self.rows && j < self.cols, "({i},{j}) out of bounds");
        self.buf()[i * self.cols + j]
    }

    /// Sets one element.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        assert!(i < self.rows && j < self.cols, "({i},{j}) out of bounds");
        let idx = i * self.cols + j;
        self.buf_mut()[idx] = v;
    }

    /// A borrowed [`sparse::DenseView`] of this tensor.
    pub fn view(&self) -> sparse::DenseView<'_> {
        sparse::DenseView::new(self.rows, self.cols, self.buf())
    }

    /// In-place `self += alpha * other`, dispatched on `pool`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled_with(&mut self, pool: &xparallel::PoolHandle, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        let b = other.buf();
        pool.for_mut(self.buf_mut(), 4096, |offset, chunk| {
            for (k, d) in chunk.iter_mut().enumerate() {
                *d += alpha * b[offset + k];
            }
        });
    }

    /// In-place fill with zeros.
    pub fn zero_(&mut self) {
        self.buf_mut().fill(0.0);
    }

    /// `Σ f(x)` over all elements in `f64`, as partial sums over fixed
    /// [`REDUCE_CHUNK`]-element chunks folded in chunk order: the boundaries
    /// depend on the length alone, so the result's bits are the same at any
    /// pool width.
    fn reduce(&self, f: impl Fn(f32) -> f64 + Sync) -> f64 {
        let data = self.buf();
        xparallel::PoolHandle::global().map_reduce_fixed(
            data.len(),
            REDUCE_CHUNK,
            0f64,
            |r| data[r].iter().map(|&x| f(x)).sum::<f64>(),
            |a, b| a + b,
        )
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.reduce(f64::from) as f32
    }

    /// Mean of all elements (`0.0` for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// The Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.reduce(|x| f64::from(x) * f64::from(x)).sqrt() as f32
    }

    /// Normalizes each row to unit L2 norm in place (rows with norm below
    /// `eps` are left untouched).
    pub fn normalize_rows_(&mut self, eps: f32) {
        let cols = self.cols;
        let pool = xparallel::PoolHandle::global();
        pool.for_rows(self.buf_mut(), cols.max(1), 64, |_, chunk| {
            for row in chunk.chunks_exact_mut(cols.max(1)) {
                let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
                if norm > eps {
                    let inv = 1.0 / norm;
                    for x in row {
                        *x *= inv;
                    }
                }
            }
        });
    }

    /// Consumes the tensor, returning the buffer.
    ///
    /// An owned buffer is moved out (deregistering its bytes); a
    /// Hogwild-shared tensor returns a **snapshot copy** (its callers, dumps
    /// and evaluation, run after the async workers have quiesced), leaving
    /// the shared buffer (and its registration) with the surviving handles.
    pub fn into_vec(mut self) -> Vec<f32> {
        if let Data::Owned(data) = &mut self.data {
            // The Drop impl will see an empty buffer, so deregister here.
            memory::deregister((data.len() * 4) as u64);
            return std::mem::take(data);
        }
        self.buf().to_vec()
    }

    /// Consumes the tensor, returning the buffer **without** deregistering:
    /// the bytes stay counted as live. This is the [`Arena`] reclamation
    /// path — registration ownership moves to the pool (and back out again
    /// on the next [`Tensor::zeros_in`] / [`Tensor::uninit_in`] hit).
    ///
    /// A Hogwild-shared tensor returns `None` and is dropped: its buffer
    /// belongs to every aliasing replica, so it is never recycled, and its
    /// bytes stay registered until the last handle drops.
    pub(crate) fn into_raw_registered(mut self) -> Option<Vec<f32>> {
        match &mut self.data {
            // The Drop impl sees an empty buffer and deregisters nothing.
            Data::Owned(data) => Some(std::mem::take(data)),
            Data::Shared(_) => None,
        }
    }

    /// A new tensor aliasing this one's bytes. An owned tensor first
    /// converts to shared storage in place, moving memory-accounting
    /// ownership of the bytes into the shared buffer; nothing is copied and
    /// nothing new is registered.
    pub(crate) fn alias(&mut self) -> Tensor {
        let buf = match std::mem::replace(&mut self.data, Data::Owned(Vec::new())) {
            Data::Owned(data) => Arc::new(SharedBuf::new(data)),
            Data::Shared(buf) => buf,
        };
        self.data = Data::Shared(Arc::clone(&buf));
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: Data::Shared(buf),
        }
    }
}

impl Clone for Tensor {
    /// Deep copy. Cloning a Hogwild-shared tensor snapshots the shared
    /// bytes into a private owned buffer (a clone is a new tensor, never a
    /// new alias — aliasing is explicit via [`crate::ParamStore::alias_values`]).
    fn clone(&self) -> Self {
        let data = self.buf().to_vec();
        memory::register((data.len() * 4) as u64);
        Self {
            rows: self.rows,
            cols: self.cols,
            data: Data::Owned(data),
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.buf() == other.buf()
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        if let Data::Owned(v) = &self.data {
            memory::deregister((v.len() * 4) as u64);
        }
        // Shared buffers deregister once, when the last handle drops.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(!t.is_empty());
        let t = Tensor::full(2, 2, 7.0);
        assert_eq!(t.as_slice(), &[7.0; 4]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::zeros(1, 3);
        let b = Tensor::from_rows(&[[1.0, 2.0, 3.0]]);
        a.add_scaled_with(&xparallel::PoolHandle::global(), &b, 0.5);
        assert_eq!(a.as_slice(), &[0.5, 1.0, 1.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert!((t.frobenius_norm() - 30f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn reductions_fold_fixed_chunks_in_order() {
        // Several chunks and a tail, magnitudes spread over twelve decades so
        // that the f64 sums round: any other chunking (one per worker, say)
        // associates differently and moves the low bits.
        let n = 3 * REDUCE_CHUNK + 1234;
        let value = |i: usize| {
            let mantissa = ((i * 2_654_435_761) % 1_000_003) as f32 / 1_000_003.0 - 0.5;
            mantissa * 10f32.powi((i % 13) as i32 - 6)
        };
        let t = Tensor::from_vec(1, n, (0..n).map(value).collect());
        let serial = |f: fn(f32) -> f64| {
            let partial = |chunk: &[f32]| chunk.iter().map(|&x| f(x)).sum::<f64>();
            let partials = t.as_slice().chunks(REDUCE_CHUNK).map(partial);
            partials.fold(0f64, |a, b| a + b)
        };
        let one_fold: f64 = t.as_slice().iter().map(|&x| f64::from(x)).sum();
        assert_ne!(serial(f64::from).to_bits(), one_fold.to_bits());
        assert_eq!(t.sum().to_bits(), (serial(f64::from) as f32).to_bits());
        let squares = serial(|x| f64::from(x) * f64::from(x));
        assert_eq!(
            t.frobenius_norm().to_bits(),
            (squares.sqrt() as f32).to_bits()
        );
    }

    #[test]
    fn row_normalization() {
        let mut t = Tensor::from_rows(&[[3.0, 4.0], [0.0, 0.0]]);
        t.normalize_rows_(1e-12);
        assert!((t.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((t.get(0, 1) - 0.8).abs() < 1e-6);
        assert_eq!(t.row(1), &[0.0, 0.0]); // zero row untouched
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let t = Tensor::zeros(0, 5);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn shared_tensors_alias_and_clone_snapshots() {
        let mut a = Tensor::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
        assert!(!a.is_shared());
        let mut b = a.alias();
        assert!(a.is_shared() && b.is_shared());
        b.set(0, 0, 9.0);
        assert_eq!(a.get(0, 0), 9.0, "aliases see each other's writes");
        assert_eq!(a, b);
        let mut snap = a.clone();
        assert!(!snap.is_shared());
        snap.set(0, 0, -1.0);
        assert_eq!(a.get(0, 0), 9.0, "clones are private copies");
        assert_eq!(a.into_vec(), vec![9.0, 2.0, 3.0, 4.0]);
        // `b` still holds the shared buffer; dropping it releases the
        // registration (checked globally by the memory accounting tests).
    }

    #[test]
    fn sharing_twice_returns_same_buffer() {
        let mut a = Tensor::zeros(2, 2);
        let mut t1 = a.alias();
        let t2 = a.alias();
        t1.row_mut(0)[0] = 5.0;
        assert_eq!(t2.row(0)[0], 5.0);
        assert_eq!(t1.as_slice().as_ptr(), t2.as_slice().as_ptr());
    }
}
