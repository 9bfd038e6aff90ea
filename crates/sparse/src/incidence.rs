//! Triplet incidence matrices (paper §4.2).
//!
//! For a batch of `M` training triplets over `N` entities and `R` relations,
//! SparseTransX represents the batch as a sparse incidence matrix `A` whose
//! rows are triplets and whose columns are entities (and, for the `hrt` form,
//! relations). Multiplying `A` by the embedding matrix computes, in one SpMM:
//!
//! * **`ht` form** (`A ∈ {−1,0,1}^{M×N}`, §4.2.1): row `i` holds `+1` at the
//!   head column and `−1` at the tail column, so `A·E = head − tail`.
//!   Used by TransR and TransH after algebraic rearrangement.
//! * **`hrt` form** (`A ∈ {−1,0,1}^{M×(N+R)}`, §4.2.2): additionally `+1` at
//!   column `N + r`, with entity and relation embeddings stacked vertically,
//!   so `A·[E;Rel] = head + relation − tail`. Used by TransE and TorusE.
//! * **`hrt_unsigned` form** (Appendix D): all three coefficients `+1`; the
//!   sign carries no meaning under product semirings (DistMult), or flags
//!   conjugation/subtraction (ComplEx, RotatE) where the tail keeps `−1`.
//! * **`selection` form** (`S ∈ {0,1}^{M×R}`): one `+1` per row at the
//!   triplet's relation column. Its [`IncidencePair`] is the batch grouped by
//!   relation, which is what TransR's per-relation projection walks.
//!
//! An [`IncidencePair`] keeps `A` and, for the backward pass, `Aᵀ` over the
//! columns the batch touches: its size follows the batch, not the table.

use std::sync::Arc;

use crate::{CooMatrix, CsrMatrix, Error, Result};

/// Coefficient convention for the tail (and, per semiring, its meaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailSign {
    /// Tail column stores `−1` (translational `h − t` / `h + r − t`; also the
    /// conjugate/subtract marker for ComplEx/RotatE).
    Negative,
    /// Tail column stores `+1` (pure product semirings such as DistMult).
    Positive,
}

/// Builds the `M × N` `ht` incidence matrix for `head − tail` (§4.2.1).
///
/// Each row has exactly two stored entries: `+1` at `heads[i]` and `−1` at
/// `tails[i]`. Self-loops (`head == tail`) collapse to a single explicit zero
/// entry after duplicate summing, which is mathematically exact.
///
/// # Errors
///
/// Returns [`Error::IndexOutOfBounds`] if any index `≥ num_entities`, or
/// [`Error::ShapeMismatch`] if `heads.len() != tails.len()`.
///
/// # Examples
///
/// ```
/// let a = sparse::incidence::ht(22, &[5], &[15])?;
/// assert_eq!(a.rows(), 1);
/// assert_eq!(a.row(0).collect::<Vec<_>>(), vec![(5, 1.0), (15, -1.0)]);
/// # Ok::<(), sparse::Error>(())
/// ```
pub fn ht(num_entities: usize, heads: &[u32], tails: &[u32]) -> Result<CsrMatrix> {
    if heads.len() != tails.len() {
        return Err(Error::shape(format!(
            "heads length {} != tails length {}",
            heads.len(),
            tails.len()
        )));
    }
    let m = heads.len();
    let mut coo = CooMatrix::with_capacity(m, num_entities, 2 * m);
    for i in 0..m {
        // Checked: the entity columns are all of the matrix's columns.
        coo.push(i, heads[i] as usize, 1.0)?;
        coo.push(i, tails[i] as usize, -1.0)?;
    }
    Ok(coo.to_csr())
}

/// Builds the `M × (N + R)` `hrt` incidence matrix for `head + relation −
/// tail` (§4.2.2).
///
/// Relation column indices are offset by `num_entities` so that the matrix
/// multiplies a vertically stacked `[entities; relations]` embedding matrix.
///
/// # Errors
///
/// Returns [`Error::EntityOutOfBounds`] on an entity `≥ num_entities`,
/// [`Error::IndexOutOfBounds`] on a relation `≥ num_relations`, or
/// [`Error::ShapeMismatch`] on unequal slice lengths.
///
/// # Examples
///
/// ```
/// // 20 entities, 8 relations: triple (h=5, r=2, t=15) as in Figure 3(b).
/// let a = sparse::incidence::hrt(20, 8, &[5], &[2], &[15], sparse::incidence::TailSign::Negative)?;
/// assert_eq!(a.cols(), 28);
/// assert_eq!(a.row(0).collect::<Vec<_>>(), vec![(5, 1.0), (15, -1.0), (22, 1.0)]);
/// # Ok::<(), sparse::Error>(())
/// ```
pub fn hrt(
    num_entities: usize,
    num_relations: usize,
    heads: &[u32],
    rels: &[u32],
    tails: &[u32],
    tail_sign: TailSign,
) -> Result<CsrMatrix> {
    if heads.len() != tails.len() || heads.len() != rels.len() {
        return Err(Error::shape(format!(
            "triple component lengths differ: heads {}, rels {}, tails {}",
            heads.len(),
            rels.len(),
            tails.len()
        )));
    }
    let m = heads.len();
    let cols = num_entities + num_relations;
    let tail_coeff = match tail_sign {
        TailSign::Negative => -1.0,
        TailSign::Positive => 1.0,
    };
    let mut coo = CooMatrix::with_capacity(m, cols, 3 * m);
    for i in 0..m {
        let (h, r, t) = (heads[i] as usize, rels[i] as usize, tails[i] as usize);
        // An entity index below `cols` may still be past the entity columns.
        if let Some(entity) = [h, t].into_iter().find(|&e| e >= num_entities) {
            return Err(Error::EntityOutOfBounds {
                row: i,
                entity,
                entities: num_entities,
                rows: m,
            });
        }
        coo.push_unchecked(i, h, 1.0);
        // Checked: a relation past `num_relations` is a column past `cols`.
        coo.push(i, num_entities + r, 1.0)?;
        coo.push_unchecked(i, t, tail_coeff);
    }
    Ok(coo.to_csr())
}

/// Builds the `M × num_cols` selection matrix of an index list: row `i` holds
/// one `+1` at column `picks[i]`, so `S · P` gathers rows of `P`.
///
/// The [`IncidencePair`] of a batch's relation list is that batch grouped by
/// relation, with no further type: `forward.indices()` is the list itself,
/// `touched_columns()` the sorted distinct relations, and `column(k)` the
/// batch rows of relation `touched_columns()[k]` in ascending order.
///
/// # Errors
///
/// Returns [`Error::IndexOutOfBounds`] if any pick is `≥ num_cols`.
///
/// # Examples
///
/// ```
/// use sparse::incidence::{selection, IncidencePair};
///
/// let by_rel = IncidencePair::new(selection(4, &[2, 0, 2])?);
/// assert_eq!(by_rel.forward.indices(), &[2, 0, 2]);
/// assert_eq!(by_rel.touched_columns()[..], [0, 2]);
/// assert_eq!(by_rel.column(1), (&[0, 2][..], &[1.0, 1.0][..]));
/// # Ok::<(), sparse::Error>(())
/// ```
pub fn selection(num_cols: usize, picks: &[u32]) -> Result<CsrMatrix> {
    let m = picks.len();
    if let Some(row) = picks.iter().position(|&c| c as usize >= num_cols) {
        return Err(Error::IndexOutOfBounds {
            row,
            col: picks[row] as usize,
            rows: m,
            cols: num_cols,
        });
    }
    Ok(CsrMatrix::from_raw_parts_unchecked(
        m,
        num_cols,
        (0..=m as u32).collect(),
        picks.to_vec(),
        vec![1.0; m],
    ))
}

/// A forward incidence matrix and its columns, for the backward pass.
///
/// SparseTransX training reuses each mini-batch's incidence matrix every
/// epoch; the backward pass needs `Aᵀ` (Appendix G), so both are built once
/// and kept together — `Aᵀ` over the touched columns only, read through
/// [`column`](Self::column), so the pair's size follows the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidencePair {
    /// Forward matrix `A` (`M × cols`).
    pub forward: CsrMatrix,
    /// `Aᵀ` over the touched columns only (`touched × M`).
    columns: CsrMatrix,
    /// Sorted, deduplicated nonzero columns of `A`.
    touched: Arc<[u32]>,
}

impl IncidencePair {
    /// Builds the pair from a forward matrix: one `O(nnz log nnz)` sort of
    /// its entries by column, then by batch row.
    pub fn new(forward: CsrMatrix) -> Self {
        // Keys `column << 32 | entry`: entries are stored row by row, so
        // within a column the entry order is the batch-row order.
        let (mut keys, mut row_of) = (Vec::with_capacity(forward.nnz()), Vec::new());
        for i in 0..forward.rows() {
            let (s, e) = forward.row_bounds(i);
            keys.extend((s..e).map(|p| u64::from(forward.indices()[p]) << 32 | p as u64));
            row_of.resize(e, i as u32);
        }
        keys.sort_unstable();
        let column = |k: usize| (keys[k] >> 32) as u32;
        let starts: Vec<usize> = (0..keys.len())
            .filter(|&k| k == 0 || column(k) != column(k - 1))
            .collect();
        let indptr = starts.iter().map(|&k| k as u32).chain([keys.len() as u32]);
        let entries = keys.iter().map(|&key| key as u32 as usize);
        let indices = entries.clone().map(|p| row_of[p]).collect();
        let values = entries.map(|p| forward.values()[p]).collect();
        let (t, m) = (starts.len(), forward.rows());
        let columns = CsrMatrix::from_raw_parts_unchecked(t, m, indptr.collect(), indices, values);
        Self {
            touched: starts.into_iter().map(column).collect(),
            forward,
            columns,
        }
    }

    /// Sorted, deduplicated column indices of `forward` with at least one
    /// nonzero — exactly the parameter rows whose gradients a batch using
    /// this incidence matrix can touch. Consumers union it into their
    /// `RowSet`s per batch; one that keeps it (a paging schedule) clones a
    /// pointer.
    pub fn touched_columns(&self) -> &Arc<[u32]> {
        &self.touched
    }

    /// Column `touched_columns()[k]` of `forward` (row `k` of the kept `Aᵀ`;
    /// panics past the list): the batch rows that hold it, ascending, and
    /// their coefficients, explicit self-loop zeros included.
    pub fn column(&self, k: usize) -> (&[u32], &[f32]) {
        let (s, e) = self.columns.row_bounds(k);
        (&self.columns.indices()[s..e], &self.columns.values()[s..e])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::csr_spmm;
    use crate::DenseMatrix;

    #[test]
    fn ht_computes_head_minus_tail() {
        // 4 entities, embeddings are rows of E.
        let e = DenseMatrix::from_rows(&[[1.0, 0.0], [2.0, 1.0], [4.0, 4.0], [8.0, -1.0]]);
        let a = ht(4, &[0, 2], &[1, 3]).unwrap();
        let c = csr_spmm(&a, &e);
        assert_eq!(c.row(0), &[-1.0, -1.0]); // e0 - e1
        assert_eq!(c.row(1), &[-4.0, 5.0]); // e2 - e3
    }

    #[test]
    fn hrt_computes_head_plus_rel_minus_tail() {
        // 3 entities, 2 relations; stacked embedding matrix is 5 x 2.
        let stacked = DenseMatrix::from_rows(&[
            [1.0, 0.0],  // e0
            [0.0, 1.0],  // e1
            [2.0, 2.0],  // e2
            [10.0, 0.0], // r0
            [0.0, 10.0], // r1
        ]);
        let a = hrt(3, 2, &[0, 2], &[1, 0], &[1, 0], TailSign::Negative).unwrap();
        let c = csr_spmm(&a, &stacked);
        assert_eq!(c.row(0), &[1.0, 9.0]); // e0 + r1 - e1
        assert_eq!(c.row(1), &[11.0, 2.0]); // e2 + r0 - e0
    }

    #[test]
    fn each_row_has_expected_nnz() {
        let a = ht(10, &[1, 2, 3], &[4, 5, 6]).unwrap();
        for i in 0..3 {
            assert_eq!(a.row(i).count(), 2);
        }
        let a = hrt(10, 4, &[1], &[0], &[2], TailSign::Negative).unwrap();
        assert_eq!(a.row(0).count(), 3);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn self_loop_collapses_exactly() {
        // head == tail: +1 and -1 on the same column sum to zero.
        let a = ht(5, &[2], &[2]).unwrap();
        let e = DenseMatrix::from_rows(&[[1.0], [2.0], [3.0], [4.0], [5.0]]);
        let c = csr_spmm(&a, &e);
        assert_eq!(c.row(0), &[0.0]);
    }

    #[test]
    fn positive_tail_sign_for_product_semirings() {
        let a = hrt(3, 1, &[0], &[0], &[1], TailSign::Positive).unwrap();
        let vals: Vec<f32> = a.row(0).map(|(_, v)| v).collect();
        assert_eq!(vals, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn bounds_are_validated() {
        assert!(matches!(
            ht(3, &[3], &[0]),
            Err(Error::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            ht(3, &[0], &[9]),
            Err(Error::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            hrt(3, 2, &[0], &[2], &[1], TailSign::Negative),
            Err(Error::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            ht(3, &[0, 1], &[0]),
            Err(Error::ShapeMismatch { .. })
        ));
        assert!(matches!(
            hrt(3, 2, &[0], &[0, 1], &[1], TailSign::Negative),
            Err(Error::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn bound_errors_name_the_batch_shape_and_the_bound_crossed() {
        let msg = |e: Error| e.to_string();
        assert_eq!(
            msg(ht(3, &[0, 1], &[1, 9]).unwrap_err()),
            "index (1, 9) out of bounds for 2x3 matrix"
        );
        // An entity below the relation columns is still not an entity.
        assert_eq!(
            msg(hrt(3, 2, &[4], &[0], &[1], TailSign::Negative).unwrap_err()),
            "entity 4 in row 0 of 1 out of bounds for 3 entities"
        );
        assert_eq!(
            msg(hrt(3, 2, &[0, 1], &[0, 2], &[1, 2], TailSign::Negative).unwrap_err()),
            "index (1, 5) out of bounds for 2x5 matrix"
        );
        assert_eq!(
            msg(selection(3, &[0, 3, 1]).unwrap_err()),
            "index (1, 3) out of bounds for 3x3 matrix"
        );
    }

    #[test]
    fn selection_gathers_rows_and_validates_bounds() {
        let p = DenseMatrix::from_rows(&[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]);
        let s = selection(3, &[2, 0, 2]).unwrap();
        let c = csr_spmm(&s, &p);
        assert_eq!(
            (c.row(0), c.row(1), c.row(2)),
            (p.row(2), p.row(0), p.row(2))
        );
        assert_eq!(
            s,
            CsrMatrix::from_raw_parts(3, 3, vec![0, 1, 2, 3], vec![2, 0, 2], vec![1.0; 3]).unwrap()
        );
        assert_eq!(selection(3, &[]).unwrap().rows(), 0);
        assert!(matches!(
            selection(3, &[0, 3]),
            Err(Error::IndexOutOfBounds { row: 1, col: 3, .. })
        ));
    }

    /// Row `k` of `a.transpose()`'s occupied rows, as `(batch rows, coefficients)`.
    fn transposed_columns(a: &CsrMatrix) -> Vec<(u32, Vec<u32>, Vec<f32>)> {
        let t = a.transpose();
        (0..t.rows())
            .filter(|&c| t.row(c).count() > 0)
            .map(|c| {
                let (rows, coeffs) = t.row(c).map(|(i, v)| (i as u32, v)).unzip();
                (c as u32, rows, coeffs)
            })
            .collect()
    }

    #[test]
    fn incidence_pair_caches_transpose() {
        // A self-loop (explicit zero), a repeated relation and an untouched
        // entity: every kept column is that row of the full transpose.
        let a = hrt(6, 2, &[0, 1, 3], &[1, 1, 0], &[2, 1, 0], TailSign::Negative).unwrap();
        let pair = IncidencePair::new(a.clone());
        assert_eq!(pair.forward.rows(), 3);
        let kept: Vec<_> = (0..pair.touched_columns().len())
            .map(|k| {
                let (rows, coeffs) = pair.column(k);
                (pair.touched_columns()[k], rows.to_vec(), coeffs.to_vec())
            })
            .collect();
        assert_eq!(kept, transposed_columns(&a));
        assert_eq!(pair.column(1), (&[1u32][..], &[0.0f32][..]));
        let empty = IncidencePair::new(ht(4, &[], &[]).unwrap());
        assert!(empty.touched_columns().is_empty());
    }

    #[test]
    fn incidence_pair_caches_touched_columns() {
        // Triples (0, r0, 2) and (1, r1, 3) over 5 entities + 2 relations:
        // columns 0..=3 plus relation columns 5 and 6; entity 4 untouched.
        let a = hrt(5, 2, &[0, 1], &[0, 1], &[2, 3], TailSign::Negative).unwrap();
        let pair = IncidencePair::new(a);
        assert_eq!(pair.touched_columns()[..], [0, 1, 2, 3, 5, 6]);
    }

    #[test]
    fn pair_bytes_do_not_depend_on_the_table() {
        // One batch over a thousand and over a million entities.
        let (heads, rels, tails) = ([0, 7, 7, 500], [0, 1, 1, 0], [3, 3, 999, 500]);
        let bytes = |n: usize| {
            let a = hrt(n, 2, &heads, &rels, &tails, TailSign::Negative).unwrap();
            let pair = IncidencePair::new(a);
            // Both matrices and the touched list.
            pair.forward.heap_bytes() + pair.columns.heap_bytes() + 4 * pair.touched.len()
        };
        assert_eq!(bytes(1_000), bytes(1_000_000));
    }
}
