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
//!
//! An [`IncidencePair`] keeps `A` and the sorted columns it touches. The
//! backward pass `Aᵀ · G` (Appendix G) needs no second copy: it walks the
//! forward rows in batch order and pushes each row's contribution into the
//! gradient rows of its columns, so a pair's size follows the batch, not the
//! table. [`RelationGroups`] is the one other batch index: the batch grouped
//! by relation, which TransR's per-relation projection walks.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::{CsrMatrix, Error, Result};

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
    write_rows(num_entities, None, heads, tails, -1.0)
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
    let tail = match tail_sign {
        TailSign::Negative => -1.0,
        TailSign::Positive => 1.0,
    };
    write_rows(
        num_entities,
        Some((num_relations, rels)),
        heads,
        tails,
        tail,
    )
}

/// Writes the `ht` (`rels` is `None`) or `hrt` matrix straight into CSR.
/// Row `i` holds the head's `+1` and the tail's `tail` in column order — a
/// self-loop one entry, `1 + tail`: the explicit `0` or `2` that
/// [`CsrMatrix::from_triplets`] sums the repeated coordinate to — then the
/// relation's `+1`, whose column follows every entity column. Rows are
/// checked in order, the head, then the tail, then the relation.
fn write_rows(
    num_entities: usize,
    rels: Option<(usize, &[u32])>,
    heads: &[u32],
    tails: &[u32],
    tail: f32,
) -> Result<CsrMatrix> {
    let (m, n) = (heads.len(), num_entities);
    let (cols, per_row) = rels.map_or((n, 2), |(r, _)| (n + r, 3));
    let mut indptr = Vec::with_capacity(m + 1);
    indptr.push(0);
    let mut indices = Vec::with_capacity(per_row * m);
    let mut values = Vec::with_capacity(per_row * m);
    for i in 0..m {
        let (h, t) = (heads[i] as usize, tails[i] as usize);
        if let Some(e) = [h, t].into_iter().find(|&e| e >= n) {
            return Err(match rels {
                // The entity columns are all of `ht`'s columns.
                None => Error::IndexOutOfBounds {
                    row: i,
                    col: e,
                    rows: m,
                    cols,
                },
                // An entity below `cols` may still be past the entity columns.
                Some(_) => Error::EntityOutOfBounds {
                    row: i,
                    entity: e,
                    entities: n,
                    rows: m,
                },
            });
        }
        let (h32, t32) = (h as u32, t as u32);
        match h.cmp(&t) {
            Ordering::Less => {
                indices.extend([h32, t32]);
                values.extend([1.0, tail]);
            }
            Ordering::Greater => {
                indices.extend([t32, h32]);
                values.extend([tail, 1.0]);
            }
            Ordering::Equal => {
                indices.push(h32);
                values.push(1.0 + tail);
            }
        }
        if let Some((_, rels)) = rels {
            // A relation past `num_relations` is a column past `cols`.
            let col = n + rels[i] as usize;
            if col >= cols {
                return Err(Error::IndexOutOfBounds {
                    row: i,
                    col,
                    rows: m,
                    cols,
                });
            }
            indices.push(col as u32);
            values.push(1.0);
        }
        indptr.push(indices.len() as u32);
    }
    Ok(CsrMatrix::from_raw_parts_unchecked(
        m, cols, indptr, indices, values,
    ))
}

/// A batch grouped by relation: the sorted distinct relations of a
/// per-row relation list and, for each, the batch rows that hold it in
/// ascending order — what TransR's per-relation projection walks, so that
/// each relation's matrix stays in L1 for its whole group.
///
/// Built with one sort of `m` keys; its size follows the batch.
///
/// # Examples
///
/// ```
/// use sparse::incidence::RelationGroups;
///
/// let by_rel = RelationGroups::new(4, &[2, 0, 2])?;
/// assert_eq!(by_rel.rows(), &[1, 0, 2]);
/// assert_eq!(by_rel.relations(), &[0, 2]);
/// let groups: Vec<_> = by_rel.iter().collect();
/// assert_eq!(groups, [(0, &[1][..]), (2, &[0, 2][..])]);
/// # Ok::<(), sparse::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationGroups {
    /// Sorted, deduplicated relations of the batch.
    relations: Vec<u32>,
    /// Group `k`'s batch rows are `rows[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    /// Batch rows, grouped by relation, ascending within a group.
    rows: Vec<u32>,
}

impl RelationGroups {
    /// Groups the batch rows of `rels` (row `i` holds relation `rels[i]`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] naming the first row whose
    /// relation is `≥ num_relations`, in the shape of the `M × R` matrix
    /// with one `+1` per row at its relation's column.
    pub fn new(num_relations: usize, rels: &[u32]) -> Result<Self> {
        let (rows, cols) = (rels.len(), num_relations);
        if let Some(row) = rels.iter().position(|&r| r as usize >= cols) {
            let col = rels[row] as usize;
            return Err(Error::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            });
        }
        let mut keys: Vec<u64> = (0..rows)
            .map(|i| u64::from(rels[i]) << 32 | i as u64)
            .collect();
        keys.sort_unstable();
        let (mut relations, mut starts) = (Vec::new(), Vec::new());
        for (k, r) in keys.iter().map(|&key| (key >> 32) as u32).enumerate() {
            if relations.last() != Some(&r) {
                relations.push(r);
                starts.push(k as u32);
            }
        }
        starts.push(rows as u32);
        let rows = keys.iter().map(|&key| key as u32).collect();
        Ok(Self {
            relations,
            starts,
            rows,
        })
    }

    /// The batch rows, grouped by relation (ascending within a group).
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Sorted, deduplicated relations of the batch — the rows of a
    /// per-relation parameter whose gradients the batch can touch.
    pub fn relations(&self) -> &[u32] {
        &self.relations
    }

    /// Every group as `(relation, its batch rows ascending)`, relations
    /// ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        let bounds = self.starts.windows(2);
        let groups = bounds.map(|w| &self.rows[w[0] as usize..w[1] as usize]);
        self.relations.iter().copied().zip(groups)
    }
}

/// A forward incidence matrix and the columns it touches.
///
/// SparseTransX training reuses each mini-batch's incidence matrix every
/// epoch, so it is built once and kept with the sorted list of its nonzero
/// columns. That is all the backward pass needs: `Aᵀ · G` (Appendix G) is
/// pushed through the forward rows, each batch row adding into the gradient
/// rows of its columns, so no transpose is kept and the pair's size follows
/// the batch, not the table.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidencePair {
    /// Forward matrix `A` (`M × cols`).
    pub forward: CsrMatrix,
    /// Sorted, deduplicated nonzero columns of `A`.
    touched: Arc<[u32]>,
}

impl IncidencePair {
    /// Builds the pair from a forward matrix: one sort and deduplication of
    /// its column indices.
    pub fn new(forward: CsrMatrix) -> Self {
        let mut touched = forward.indices().to_vec();
        touched.sort_unstable();
        touched.dedup();
        Self {
            touched: touched.into(),
            forward,
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

    /// Heap bytes the pair owns: the forward matrix and the touched list.
    pub fn heap_bytes(&self) -> usize {
        self.forward.heap_bytes() + std::mem::size_of_val(&self.touched[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::csr_spmm;
    use crate::DenseView;

    #[test]
    fn ht_computes_head_minus_tail() {
        // 4 entities, embeddings are rows of E.
        let e = [1.0, 0.0, 2.0, 1.0, 4.0, 4.0, 8.0, -1.0];
        let a = ht(4, &[0, 2], &[1, 3]).unwrap();
        let c = csr_spmm(&a, DenseView::new(4, 2, &e));
        assert_eq!(c[..2], [-1.0, -1.0]); // e0 - e1
        assert_eq!(c[2..], [-4.0, 5.0]); // e2 - e3
    }

    #[test]
    fn hrt_computes_head_plus_rel_minus_tail() {
        // 3 entities, 2 relations; stacked embedding matrix is 5 x 2.
        let stacked = [
            1.0, 0.0, // e0
            0.0, 1.0, // e1
            2.0, 2.0, // e2
            10.0, 0.0, // r0
            0.0, 10.0, // r1
        ];
        let a = hrt(3, 2, &[0, 2], &[1, 0], &[1, 0], TailSign::Negative).unwrap();
        let c = csr_spmm(&a, DenseView::new(5, 2, &stacked));
        assert_eq!(c[..2], [1.0, 9.0]); // e0 + r1 - e1
        assert_eq!(c[2..], [11.0, 2.0]); // e2 + r0 - e0
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
        let c = csr_spmm(&a, DenseView::new(5, 1, &[1.0, 2.0, 3.0, 4.0, 5.0]));
        assert_eq!(c, [0.0]);
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
            msg(RelationGroups::new(3, &[0, 3, 1]).unwrap_err()),
            "index (1, 3) out of bounds for 3x3 matrix"
        );
    }

    #[test]
    fn relation_groups_list_each_relations_rows_and_validate_bounds() {
        // Relation 1 first and last, relation 0 between, relation 2 unused.
        let by_rel = RelationGroups::new(4, &[1, 0, 3, 1, 0, 1]).unwrap();
        assert_eq!(by_rel.rows(), &[1, 4, 0, 3, 5, 2]);
        assert_eq!(by_rel.relations(), &[0, 1, 3]);
        let groups: Vec<(u32, Vec<u32>)> = by_rel.iter().map(|(r, i)| (r, i.to_vec())).collect();
        assert_eq!(groups, [(0, vec![1, 4]), (1, vec![0, 3, 5]), (3, vec![2])]);
        let empty = RelationGroups::new(3, &[]).unwrap();
        assert!(empty.rows().is_empty() && empty.relations().is_empty());
        assert_eq!(empty.iter().count(), 0);
        assert!(matches!(
            RelationGroups::new(3, &[0, 3]),
            Err(Error::IndexOutOfBounds { row: 1, col: 3, .. })
        ));
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
    fn incidence_pair_caches_transpose() {
        // The pair keeps no `Aᵀ`, only its occupied rows. A self-loop
        // (explicit zero), a repeated relation and an untouched entity: the
        // touched columns are exactly the occupied rows of the full `Aᵀ`.
        let a = hrt(6, 2, &[0, 1, 3], &[1, 1, 0], &[2, 1, 0], TailSign::Negative).unwrap();
        let t = a.transpose();
        let occupied: Vec<u32> = (0..t.rows() as u32)
            .filter(|&c| t.row(c as usize).count() > 0)
            .collect();
        let pair = IncidencePair::new(a.clone());
        assert_eq!(pair.touched_columns()[..], occupied[..]);
        assert_eq!(pair.forward, a);
        let empty = IncidencePair::new(ht(4, &[], &[]).unwrap());
        assert!(empty.touched_columns().is_empty());
    }

    #[test]
    fn pair_bytes_do_not_depend_on_the_table() {
        // One batch over a thousand and over a million entities.
        let (heads, rels, tails) = ([0, 7, 7, 500], [0, 1, 1, 0], [3, 3, 999, 500]);
        let bytes = |n: usize| {
            let a = hrt(n, 2, &heads, &rels, &tails, TailSign::Negative).unwrap();
            IncidencePair::new(a).heap_bytes()
        };
        assert_eq!(bytes(1_000), bytes(1_000_000));
    }

    #[test]
    fn pair_heap_is_the_forward_matrix_and_the_touched_list() {
        let (heads, rels, tails) = ([0, 7, 7, 500], [0, 1, 1, 0], [3, 3, 999, 500]);
        let a = hrt(1_000, 2, &heads, &rels, &tails, TailSign::Negative).unwrap();
        let pair = IncidencePair::new(a);
        // Every field, named: a new one fails to compile here.
        let IncidencePair { forward, touched } = &pair;
        assert_eq!(pair.heap_bytes(), forward.heap_bytes() + 4 * touched.len());
        // Four triples, one self-loop: 11 stored entries over 7 columns.
        assert_eq!((forward.nnz(), touched.len()), (11, 7));
        assert_eq!(pair.heap_bytes(), 4 * (5 + 11 + 11) + 4 * 7);
    }
}
