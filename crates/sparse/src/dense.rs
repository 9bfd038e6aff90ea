//! The borrowed dense operand every sparse kernel reads.
//!
//! The autograd crate (`tensor`) owns the tables; the kernels here read them
//! through [`DenseView`] and write caller-owned `&mut [f32]` buffers, so
//! `sparse` stays dependency-free in that direction.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_accessors() {
        let data = [1.0, 0.0, 0.0, 0.0, 0.0, 5.5];
        let v = DenseView::new(3, 2, &data);
        assert_eq!((v.rows(), v.cols()), (3, 2));
        assert_eq!(v.row(0), &[1.0, 0.0]);
        assert_eq!(v.row(2), &[0.0, 5.5]);
        assert_eq!(v.as_slice(), &data);
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
    fn new_validates_length() {
        let _ = DenseView::new(2, 2, &[0.0; 3]);
    }
}
