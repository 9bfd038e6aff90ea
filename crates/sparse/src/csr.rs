//! Compressed sparse row matrices.

use serde::{Deserialize, Serialize};

use crate::{CooMatrix, Error, Result};

/// A sparse matrix in compressed-sparse-row format.
///
/// CSR is the kernel format: row `i`'s nonzeros occupy
/// `indices[indptr[i]..indptr[i+1]]` / `values[...]`, with column indices
/// sorted ascending within each row. This is the layout the paper's CPU SpMM
/// (iSpLib) consumes; the incidence matrices built per mini-batch are
/// converted to CSR once and reused across epochs.
///
/// # Examples
///
/// ```
/// use sparse::{CooMatrix, CsrMatrix};
///
/// let coo = CooMatrix::from_triplets(2, 3, vec![(0, 0, 1.0), (1, 2, -1.0)])?;
/// let csr: CsrMatrix = coo.to_csr();
/// assert_eq!(csr.nnz(), 2);
/// assert_eq!(csr.row(1).next(), Some((2, -1.0)));
/// # Ok::<(), sparse::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f32>,
    /// Whether every stored value is exactly `+1.0` or `-1.0` — true for all
    /// incidence matrices. Cached at construction so the hot SpMM kernels
    /// (which branch on it for FLOP accounting) never rescan the nnz values
    /// per call; [`CsrMatrix::transpose`] carries it over without a scan.
    unit_coeffs: bool,
}

/// True when every coefficient is exactly `±1.0` (vacuously for no values).
fn all_unit_coeffs(values: &[f32]) -> bool {
    values.iter().all(|&v| v == 1.0 || v == -1.0)
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating all invariants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStructure`] if `indptr` has the wrong length,
    /// is non-monotone, or disagrees with `indices.len()`; if `indices` and
    /// `values` differ in length; or if any column index is out of bounds or
    /// rows are not sorted strictly ascending.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<u32>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        if indptr.len() != rows + 1 {
            return Err(Error::structure(format!(
                "indptr length {} != rows + 1 = {}",
                indptr.len(),
                rows + 1
            )));
        }
        if indices.len() != values.len() {
            return Err(Error::structure(format!(
                "indices length {} != values length {}",
                indices.len(),
                values.len()
            )));
        }
        if indptr[0] != 0 || *indptr.last().expect("len >= 1") as usize != indices.len() {
            return Err(Error::structure(
                "indptr must start at 0 and end at nnz".to_string(),
            ));
        }
        for w in indptr.windows(2) {
            if w[1] < w[0] {
                return Err(Error::structure(
                    "indptr must be non-decreasing".to_string(),
                ));
            }
        }
        for r in 0..rows {
            let (s, e) = (indptr[r] as usize, indptr[r + 1] as usize);
            let row = &indices[s..e];
            for w in row.windows(2) {
                if w[1] <= w[0] {
                    return Err(Error::structure(format!(
                        "row {r} column indices must be strictly ascending"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= cols {
                    return Err(Error::structure(format!(
                        "row {r} has column index {last} >= cols {cols}"
                    )));
                }
            }
        }
        let unit_coeffs = all_unit_coeffs(&values);
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
            unit_coeffs,
        })
    }

    /// Builds a CSR matrix from arrays assumed valid (debug-asserted).
    pub(crate) fn from_raw_parts_unchecked(
        rows: usize,
        cols: usize,
        indptr: Vec<u32>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows + 1);
        debug_assert_eq!(indices.len(), values.len());
        let unit_coeffs = all_unit_coeffs(&values);
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
            unit_coeffs,
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

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array (`rows + 1` entries).
    pub fn indptr(&self) -> &[u32] {
        &self.indptr
    }

    /// Column index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Value array.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Whether every stored coefficient is exactly `±1.0` (cached at
    /// construction — O(1)). Incidence matrices always are; the SpMM
    /// kernels use this for their FLOP accounting without rescanning the
    /// value array on every call.
    pub fn has_unit_coefficients(&self) -> bool {
        self.unit_coeffs
    }

    /// Iterates `(col, value)` pairs of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (s, e) = self.row_bounds(i);
        self.indices[s..e]
            .iter()
            .zip(&self.values[s..e])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Returns `(start, end)` offsets of row `i` into `indices` / `values`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_bounds(&self, i: usize) -> (usize, usize) {
        (self.indptr[i] as usize, self.indptr[i + 1] as usize)
    }

    /// Row `i`'s stored entries: its column indices and their coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_entries(&self, i: usize) -> (&[u32], &[f32]) {
        let (s, e) = self.row_bounds(i);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// The maximum number of nonzeros in any row.
    pub fn max_row_nnz(&self) -> usize {
        (0..self.rows)
            .map(|i| {
                let (s, e) = self.row_bounds(i);
                e - s
            })
            .max()
            .unwrap_or(0)
    }

    /// Returns the transpose in CSR form.
    ///
    /// Runs a counting-sort transpose in `O(nnz + rows + cols)`. This is the
    /// backward-pass matrix of Appendix G, `∂L/∂X = Aᵀ · ∂L/∂C`, which the
    /// training tape never builds: it pushes `∂L/∂C` through the rows of `A`
    /// instead. Tests use it as the reference.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0u32; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let nnz = self.nnz();
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0f32; nnz];
        for r in 0..self.rows {
            let (s, e) = self.row_bounds(r);
            for k in s..e {
                let c = self.indices[k] as usize;
                let dst = cursor[c] as usize;
                indices[dst] = r as u32;
                values[dst] = self.values[k];
                cursor[c] += 1;
            }
        }
        // Rows of the transpose are visited in ascending original-row order,
        // so indices within each transposed row are already sorted. The
        // transpose permutes values, so the ±1 flag carries over unscanned
        // (which is why this bypasses from_raw_parts_unchecked — keep its
        // structural debug assertions in sync here).
        debug_assert_eq!(indptr.len(), self.cols + 1);
        debug_assert_eq!(indices.len(), values.len());
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
            unit_coeffs: self.unit_coeffs,
        }
    }

    /// Converts back to COO (entries in row-major order).
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.rows, self.cols, self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                coo.push_unchecked(r, c, v);
            }
        }
        coo
    }

    /// Materializes the matrix densely (row-major); for tests and references.
    pub fn to_dense(&self) -> crate::DenseMatrix {
        let mut m = crate::DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                m.set(r, c, v);
            }
        }
        m
    }

    /// Approximate heap usage in bytes (index + value arrays).
    pub fn heap_bytes(&self) -> usize {
        self.indptr.len() * 4 + self.indices.len() * 4 + self.values.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CooMatrix::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (0, 3, -1.0),
                (1, 1, 2.0),
                (2, 0, 3.0),
                (2, 2, 4.0),
            ],
        )
        .unwrap()
        .to_csr()
    }

    #[test]
    fn raw_parts_round_trip() {
        let m = sample();
        let m2 = CsrMatrix::from_raw_parts(
            m.rows(),
            m.cols(),
            m.indptr().to_vec(),
            m.indices().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn validation_rejects_bad_indptr() {
        let err = CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, Error::InvalidStructure { .. }));
        let err =
            CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).unwrap_err();
        assert!(matches!(err, Error::InvalidStructure { .. }));
    }

    #[test]
    fn validation_rejects_unsorted_columns() {
        let err =
            CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).unwrap_err();
        assert!(matches!(err, Error::InvalidStructure { .. }));
    }

    #[test]
    fn validation_rejects_out_of_bounds_column() {
        let err = CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert!(matches!(err, Error::InvalidStructure { .. }));
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (4, 3));
        assert_eq!(t.transpose(), m);
        // Spot-check an entry: A[2][0] = 3.0 => Aᵀ[0][2] = 3.0.
        assert_eq!(t.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 3.0)]);
    }

    #[test]
    fn to_coo_round_trips() {
        let m = sample();
        assert_eq!(m.to_coo().to_csr(), m);
    }

    #[test]
    fn max_row_nnz_and_bytes() {
        let m = sample();
        assert_eq!(m.max_row_nnz(), 2);
        assert!(m.heap_bytes() > 0);
    }

    #[test]
    fn unit_coefficient_flag_is_cached_and_transposed() {
        // sample() has values 2.0/3.0/4.0 — not an incidence matrix.
        let m = sample();
        assert!(!m.has_unit_coefficients());
        assert!(!m.transpose().has_unit_coefficients());

        let inc = CooMatrix::from_triplets(2, 3, vec![(0, 0, 1.0), (0, 2, -1.0), (1, 1, 1.0)])
            .unwrap()
            .to_csr();
        assert!(inc.has_unit_coefficients());
        assert!(inc.transpose().has_unit_coefficients());

        // Empty matrices are vacuously ±1, matching the per-call scan the
        // kernels used to do.
        assert!(CooMatrix::new(3, 3).to_csr().has_unit_coefficients());

        let raw = CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![0], vec![0.5]).unwrap();
        assert!(!raw.has_unit_coefficients());
    }
}
