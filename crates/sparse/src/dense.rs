//! Row-major dense matrices used as SpMM operands.
//!
//! The autograd crate (`tensor`) has its own tensor type; these are the
//! minimal owned/borrowed dense-matrix views the sparse kernels operate on so
//! that `sparse` stays dependency-free in that direction.

use serde::{Deserialize, Serialize};

/// An owned row-major `rows × cols` matrix of `f32`.
///
/// # Examples
///
/// ```
/// use sparse::DenseMatrix;
///
/// let m = DenseMatrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from fixed-size row arrays.
    pub fn from_rows<const N: usize>(rows: &[[f32; N]]) -> Self {
        let mut data = Vec::with_capacity(rows.len() * N);
        for row in rows {
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols: N,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        assert!(i < self.rows && j < self.cols, "({i},{j}) out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets one element.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        assert!(i < self.rows && j < self.cols, "({i},{j}) out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Borrowed view of the whole matrix.
    pub fn view(&self) -> DenseView<'_> {
        DenseView::new(self.rows, self.cols, &self.data)
    }
}

/// A borrowed read view of a `rows × cols` table — what every row kernel
/// reads its operand through.
///
/// Two layouts, one [`DenseView::row`]:
///
/// * **resident** ([`DenseView::new`]) — `data` is the whole table,
///   row-major; row `i` is `data[i * cols ..]`.
/// * **mapped** ([`DenseView::mapped`]) — `data` is a cache of `cols`-wide
///   slots holding only some rows (a paged parameter's working set), and a
///   row → slot map says where each one is. `rows` stays the table's
///   logical row count.
///
/// `row` hands out the same bytes either way, so a kernel built on it is
/// bit-identical over both.
#[derive(Debug, Clone, Copy)]
pub struct DenseView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
    map: Option<&'a [u32]>,
}

impl<'a> DenseView<'a> {
    /// The map entry of a row no slot holds.
    pub const NOT_RESIDENT: u32 = u32::MAX;

    /// Wraps a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            data,
            map: None,
        }
    }

    /// Wraps a slot cache: the table has one row per entry of `map`, and row
    /// `i` is slot `map[i]` of `slots`, or nowhere if `map[i]` is
    /// [`DenseView::NOT_RESIDENT`].
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a whole number of `cols`-wide slots.
    pub fn mapped(cols: usize, slots: &'a [f32], map: &'a [u32]) -> Self {
        assert_eq!(
            slots.len() % cols.max(1),
            0,
            "slot cache of {} floats is not a whole number of {cols}-wide slots",
            slots.len()
        );
        Self {
            rows: map.len(),
            cols,
            data: slots,
            map: Some(map),
        }
    }

    /// Number of (logical) rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The whole table as one row-major buffer, for kernels that index it
    /// themselves.
    ///
    /// # Panics
    ///
    /// Panics for a mapped view: its buffer is addressed by slot, so there is
    /// no row-major table to hand out — such a kernel needs the table
    /// resident.
    pub fn as_slice(&self) -> &'a [f32] {
        assert!(
            self.map.is_none(),
            "a mapped view has no row-major buffer; read it through row()"
        );
        self.data
    }

    /// Borrows row `i`, through the slot map if there is one.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`, or (mapped views) if row `i` is not resident —
    /// a kernel reached outside the working set paged in for this batch.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f32] {
        let slot = match self.map {
            None => i,
            Some(map) => {
                let slot = map[i];
                assert_ne!(
                    slot,
                    Self::NOT_RESIDENT,
                    "row {i} not resident; it was outside the working set paged in for this batch"
                );
                slot as usize
            }
        };
        &self.data[slot * self.cols..(slot + 1) * self.cols]
    }

    /// [`xparallel::prefetch`]es row `i` for a [`DenseView::row`] a few rows
    /// from now, resolving a mapped row through its slot as `row` does.
    ///
    /// Never panics: a row past the table, a row no slot holds and a
    /// zero-width row are no-ops, so a loop can hint a row it may never
    /// read.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        let slot = match self.map {
            None => Some(i),
            Some(map) => map
                .get(i)
                .filter(|&&s| s != Self::NOT_RESIDENT)
                .map(|&s| s as usize),
        };
        let row = slot.and_then(|s| self.data.get(s.checked_mul(self.cols)?..)?.get(..self.cols));
        if let Some(row) = row {
            xparallel::prefetch(row);
        }
    }
}

impl<'a> From<&'a DenseMatrix> for DenseView<'a> {
    fn from(m: &'a DenseMatrix) -> Self {
        m.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_accessors() {
        let mut m = DenseMatrix::zeros(3, 2);
        m.set(2, 1, 5.5);
        assert_eq!(m.get(2, 1), 5.5);
        assert_eq!(m.row(2), &[0.0, 5.5]);
        m.row_mut(0)[0] = 1.0;
        assert_eq!(m.as_slice()[0], 1.0);
        let v: DenseView = (&m).into();
        assert_eq!(v.row(2), &[0.0, 5.5]);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 2);
    }

    #[test]
    fn mapped_view_reads_rows_through_their_slots() {
        // Three logical rows over a two-slot cache: row 2 in slot 0, row 0
        // in slot 1, row 1 nowhere.
        let slots = [1.0, 2.0, 3.0, 4.0];
        let map = [1, DenseView::NOT_RESIDENT, 0];
        let v = DenseView::mapped(2, &slots, &map);
        assert_eq!((v.rows(), v.cols()), (3, 2));
        assert_eq!(v.row(0), &[3.0, 4.0]);
        assert_eq!(v.row(2), &[1.0, 2.0]);
        let absent = std::panic::catch_unwind(|| v.row(1).len());
        let msg = *absent.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("row 1 not resident"), "{msg}");
        assert!(std::panic::catch_unwind(|| v.as_slice().len()).is_err());
    }

    #[test]
    fn prefetch_never_panics_where_row_would() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let resident = DenseView::new(3, 2, &data);
        // A map entry that is absent, and one naming a slot past the cache.
        let map = [2, DenseView::NOT_RESIDENT, 7];
        let mapped = DenseView::mapped(2, &data, &map);
        let zero_width = DenseView::new(4, 0, &[]);
        let empty = DenseView::new(0, 5, &[]);
        let empty_mapped = DenseView::mapped(5, &[], &[]);
        for v in [resident, mapped, zero_width, empty, empty_mapped] {
            for i in [0, 1, 2, 3, 4, usize::MAX / 2, usize::MAX] {
                v.prefetch(i);
            }
        }
        assert_eq!((resident.row(2), mapped.row(0)), (&data[4..], &data[4..]));
        assert!(std::panic::catch_unwind(|| mapped.row(1).len()).is_err());
        assert!(std::panic::catch_unwind(|| mapped.row(2).len()).is_err());
        assert!(std::panic::catch_unwind(|| resident.row(3).len()).is_err());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_validates_length() {
        let _ = DenseMatrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_bounds_checked() {
        let m = DenseMatrix::zeros(1, 1);
        let _ = m.get(1, 0);
    }
}
