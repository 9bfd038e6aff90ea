//! Semiring scores over the `hrt` incidence matrix (paper Appendix D).
//!
//! TransE's `h + r − t` is the `(+, ×)` SpMM over the `hrt` incidence
//! matrix, and that case lives in [`crate::spmm`]. Appendix D observes that
//! swapping the operators turns the *same traversal* — walk the rows of the
//! matrix, read the three operand rows each one names — into the scores of
//! the non-translational models. This module is that one traversal
//! ([`semiring_spmm_into_with`]) and the three descriptions it runs with
//! ([`Semiring`]):
//!
//! * **DistMult** — `Σⱼ hⱼ rⱼ tⱼ`: both operators become multiplication.
//! * **ComplEx** — `Σⱼ Re(hⱼ rⱼ t̄ⱼ)` over complex embeddings: complex
//!   multiplication, with the tail's `−1` coefficient flagging conjugation.
//! * **RotatE** — `Σⱼ |hⱼ rⱼ − tⱼ|` over complex embeddings: multiply on `+1`
//!   entries, subtract on the `−1` entry.
//!
//! A description is what one *lane* of a row costs and computes
//! ([`Semiring::lane_width`], the term and its three partials); which stored
//! entry plays which role is decided once for all three, in
//! [`Semiring::decode`]. The training tape runs the forward walk as is and,
//! for the backward, walks the same rows again applying the lane function's
//! partials to each triple's three operands, so the kernel that is
//! benchmarked is the kernel that trains.

use crate::{metrics, Complex32, CsrMatrix, DenseView};

/// How one `hrt` incidence row combines its head, relation and tail rows
/// into a score: the semiring of Appendix D, as a description of one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semiring {
    /// `(×, ×)` over real lanes: `Σⱼ hⱼ rⱼ tⱼ`, a similarity. Coefficient
    /// signs carry no meaning; the unsigned (`TailSign::Positive`) matrix
    /// keeps Appendix D literal.
    DistMult,
    /// Conjugate product over interleaved `(re, im)` lanes:
    /// `Σⱼ Re(hⱼ rⱼ t̄ⱼ)`, a similarity. Needs the signed matrix.
    ComplEx,
    /// Rotate over interleaved `(re, im)` lanes: `Σⱼ |hⱼ rⱼ − tⱼ|`, a
    /// distance. Needs the signed matrix.
    RotatE,
}

impl Semiring {
    /// The three descriptions, for tests and benches that run them all.
    pub const ALL: [Semiring; 3] = [Semiring::DistMult, Semiring::ComplEx, Semiring::RotatE];

    /// Floats per lane: one real, or an interleaved `(re, im)` pair. The
    /// operand table's width must be a multiple of it.
    pub fn lane_width(self) -> usize {
        match self {
            Semiring::DistMult => 1,
            Semiring::ComplEx | Semiring::RotatE => 2,
        }
    }

    /// Flops [`Semiring::lane`] is counted as: `(forward, backward)`, the
    /// backward per stored entry. Complex products are 6, `√` and `÷` one
    /// each, and both passes end in an accumulate.
    fn lane_flops(self) -> (u64, u64) {
        match self {
            Semiring::DistMult => (3, 3),
            Semiring::ComplEx => (10, 10),
            Semiring::RotatE => (13, 24),
        }
    }

    /// **The lane arithmetic**, once per model: one lane's score term, and
    /// `g · ∂term/∂operand` for the operand in `slot` (0 head, 1 relation,
    /// 2 tail), treating `re`/`im` as independent reals.
    ///
    /// * DistMult: `(h·r)·t`; each partial is `(g · a) · b` over the other
    ///   two operands in slot order.
    /// * ComplEx, `Re(h·r·t̄)`: `∇h = r̄·t`, `∇r = h̄·t`, `∇t = h·r`.
    /// * RotatE, `|z|` with `z = h·r − t` and `u = z/|z|`: `∇h = r̄·u`,
    ///   `∇r = h̄·u`, `∇t = −u`.
    ///
    /// The operand order and association here are what `kernel_golden` pins.
    /// Nothing is skipped for `g == 0`: `0 · inf` must stay `NaN`.
    #[inline(always)]
    fn lane(self, slot: usize, g: f32, [h, r, t]: [Complex32; 3]) -> (f32, Complex32) {
        let scaled = |p: Complex32| Complex32::new(g * p.re, g * p.im);
        let toward = |dir| {
            scaled(if slot == 0 {
                r.conj() * dir
            } else {
                h.conj() * dir
            })
        };
        match self {
            Semiring::DistMult => {
                let (a, b, c) = (h.re, r.re, t.re);
                let partial = match slot {
                    0 => (g * b) * c,
                    1 => (g * a) * c,
                    _ => (g * a) * b,
                };
                ((a * b) * c, Complex32::new(partial, 0.0))
            }
            Semiring::ComplEx => {
                let hr = h * r;
                let partial = if slot == 2 { scaled(hr) } else { toward(t) };
                (hr.re * t.re + hr.im * t.im, partial)
            }
            Semiring::RotatE => {
                let z = h * r - t;
                let norm = z.abs();
                let guard = norm.max(1e-12);
                let u = Complex32::new(z.re / guard, z.im / guard);
                (norm, if slot == 2 { scaled(-u) } else { toward(u) })
            }
        }
    }

    /// **The row decoder**: the `[head, relation, tail]` columns of one
    /// stored `hrt` row.
    ///
    /// * Three entries: the negative coefficient is the tail and the other
    ///   two keep their (ascending) order, the entity before the relation.
    ///   The unsigned form has no negative entry and reads in ascending
    ///   column order — only DistMult, whose product commutes, may use it.
    /// * Two entries: a self-loop. `hrt` merged `h == t` into one entity
    ///   column, which is head *and* tail.
    ///
    /// # Panics
    ///
    /// Panics on any other row, and on an unsigned three-entry row under a
    /// semiring that needs the tail marked.
    #[inline]
    pub fn decode(self, cols: &[u32], vals: &[f32]) -> [usize; 3] {
        let [a, b, c] = match *cols {
            [e, r] => [e, r, e],
            [a, b, c] => match vals.iter().position(|v| *v < 0.0) {
                Some(0) => [b, c, a],
                Some(1) => [a, c, b],
                Some(_) => [a, b, c],
                None => {
                    assert!(
                        self == Semiring::DistMult,
                        "{self:?} needs the signed hrt form: no entry marks the tail"
                    );
                    [a, b, c]
                }
            },
            _ => panic!("not an hrt row: {} stored entries", cols.len()),
        };
        [a as usize, b as usize, c as usize]
    }

    /// Lane `j` of the three operand rows.
    #[inline(always)]
    fn lanes(self, rows: [&[f32]; 3], j: usize) -> [Complex32; 3] {
        rows.map(|x| match self {
            Semiring::DistMult => Complex32::new(x[j], 0.0),
            _ => Complex32::new(x[2 * j], x[2 * j + 1]),
        })
    }

    /// **The row kernel of the forward walk**: the score of one triple from
    /// its `[head, relation, tail]` rows, one lane at a time folded from
    /// `0.0` in column order.
    #[inline]
    pub fn score_row(self, rows: [&[f32]; 3]) -> f32 {
        let mut acc = 0.0f32;
        for j in 0..rows[0].len() / self.lane_width() {
            acc += self.lane(2, 0.0, self.lanes(rows, j)).0;
        }
        acc
    }

    /// **The row kernel of the backward walk**: `dst += g · ∂score/∂operand`
    /// for the operand in `slot` of one triple, `dst` being that operand's
    /// gradient row. A self-loop's entity row is the operand of slots 0 and
    /// 2 and takes both calls.
    #[inline]
    pub fn grad_row_acc(self, slot: usize, g: f32, rows: [&[f32]; 3], dst: &mut [f32]) {
        let w = self.lane_width();
        for (j, d) in dst.chunks_exact_mut(w).enumerate() {
            let partial = self.lane(slot, g, self.lanes(rows, j)).1;
            for (x, p) in d.iter_mut().zip([partial.re, partial.im]) {
                *x += p;
            }
        }
    }

    /// Adds one pass over incidence matrix `a` and a `d`-float-wide table to
    /// the global counters — **the** analytic cost of the score kernel, in
    /// the shape of the translational `spmm_score`'s. Forward: index + value
    /// and one operand row per stored entry in, one float per row out.
    /// Backward: per stored entry its index + value, `g_i` and the two
    /// sibling rows in, and one gradient row read and written (RotatE's
    /// partials also re-read the operand's own row, which is left out so
    /// that the kinds differ in lane width and flops per lane only).
    ///
    /// The backward formula models a pull, which visited each stored entry
    /// from its gradient row and read the triple's rows there. The tape's
    /// push decodes each triple once and reads its three rows and `g_i` once
    /// per triple, so these bytes over-count what it moves; the formula is
    /// kept unchanged until the counters' next versioned redefinition.
    pub fn record_pass(self, a: &CsrMatrix, d: usize, backward: bool) {
        let (m, nnz, row) = (a.rows() as u64, a.nnz() as u64, 4 * d as u64);
        let lanes = (d / self.lane_width()) as u64;
        let (forward_flops, backward_flops) = self.lane_flops();
        metrics::record_spmm_call();
        if backward {
            metrics::add_flops(backward_flops * nnz * lanes);
            metrics::add_bytes(nnz * (8 + 4 + 4 * row));
        } else {
            metrics::add_flops(forward_flops * m * lanes);
            metrics::add_bytes(nnz * (8 + row) + 4 * m);
        }
    }
}

/// Scores every row of `hrt` incidence matrix `a` against table `b` under
/// `kind`: `out[i] = Σⱼ term(hⱼ, rⱼ, tⱼ)` over the lanes of the three rows of
/// `b` that row `i` names.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`, `b.cols()` is not a whole number of
/// lanes, or a row of `a` is not an `hrt` row ([`Semiring::decode`]).
///
/// # Examples
///
/// ```
/// use sparse::semiring::{semiring_spmm, Semiring};
/// use sparse::incidence::{hrt, TailSign};
/// use sparse::DenseView;
///
/// // DistMult: one triple (h=0, r=0, t=1), 2 entities + 1 relation.
/// let a = hrt(2, 1, &[0], &[0], &[1], TailSign::Positive)?;
/// let b = [2.0f32, 3.0, /* t */ 5.0, 7.0, /* r */ 11.0, 13.0];
/// let c = semiring_spmm(Semiring::DistMult, &a, DenseView::new(3, 2, &b));
/// assert_eq!(c, vec![2.0 * 5.0 * 11.0 + 3.0 * 7.0 * 13.0]);
/// # Ok::<(), sparse::Error>(())
/// ```
pub fn semiring_spmm(kind: Semiring, a: &CsrMatrix, b: DenseView<'_>) -> Vec<f32> {
    let mut out = vec![0.0f32; a.rows()];
    semiring_spmm_into_with(&xparallel::PoolHandle::global(), kind, a, b, &mut out);
    out
}

/// [`semiring_spmm`] into a caller-provided buffer (overwritten), dispatched
/// on an explicit [`xparallel::PoolHandle`] — the forward of the training
/// tape's score op, which passes the store's table view so that a resident
/// and a paged table read the same bytes.
///
/// # Panics
///
/// As [`semiring_spmm`], and if `out.len() != a.rows()`.
pub fn semiring_spmm_into_with(
    pool: &xparallel::PoolHandle,
    kind: Semiring,
    a: &CsrMatrix,
    b: DenseView<'_>,
    out: &mut [f32],
) {
    assert_eq!(a.cols(), b.rows(), "semiring spmm shape mismatch");
    assert!(
        b.cols().is_multiple_of(kind.lane_width()),
        "{kind:?} needs a table of whole lanes, got {} columns",
        b.cols()
    );
    assert_eq!(out.len(), a.rows(), "output buffer has wrong length");
    kind.record_pass(a, b.cols(), false);
    let (indices, values) = (a.indices(), a.values());
    pool.for_rows(out, 1, 128, |first, chunk| {
        for (k, dst) in chunk.iter_mut().enumerate() {
            let (s, e) = a.row_bounds(first + k);
            let cols = kind.decode(&indices[s..e], &values[s..e]);
            *dst = kind.score_row(cols.map(|c| b.row(c)));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incidence::{hrt, TailSign};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Row `row` of a `d`-complex-wide interleaved table.
    fn complex_row(b: &[f32], row: usize, d: usize) -> Vec<Complex32> {
        Complex32::slice_from_interleaved(&b[row * 2 * d..(row + 1) * 2 * d])
    }

    fn random_table(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn into_variant_overwrites_and_matches_allocating() {
        let a = hrt(6, 2, &[0, 3, 5], &[0, 1, 0], &[1, 2, 4], TailSign::Positive).unwrap();
        let b = random_table(8, 5, 17);
        let view = DenseView::new(8, 5, &b);
        let want = semiring_spmm(Semiring::DistMult, &a, view);
        // Dirty buffer: the into-variant must fully overwrite it.
        let mut out = vec![123.0f32; 3];
        let pool = xparallel::PoolHandle::sequential();
        semiring_spmm_into_with(&pool, Semiring::DistMult, &a, view, &mut out);
        assert_eq!(out, want);
    }

    #[test]
    #[should_panic(expected = "output buffer has wrong length")]
    fn into_variant_validates_output_length() {
        let a = hrt(3, 1, &[0], &[0], &[1], TailSign::Positive).unwrap();
        let b = vec![0.0f32; 4 * 2];
        let mut out = vec![0.0f32; 3];
        semiring_spmm_into_with(
            &xparallel::PoolHandle::sequential(),
            Semiring::DistMult,
            &a,
            DenseView::new(4, 2, &b),
            &mut out,
        );
    }

    #[test]
    fn distmult_triple_product() {
        // 3 entities, 2 relations, embedding dim 4.
        let (n, r, d) = (3, 2, 4);
        let b = random_table(n + r, d, 1);
        let a = hrt(n, r, &[0, 2], &[1, 0], &[1, 1], TailSign::Positive).unwrap();
        let c = semiring_spmm(Semiring::DistMult, &a, DenseView::new(n + r, d, &b));
        for (row, (h, rel, t)) in [(0usize, 1usize, 1usize), (2, 0, 1)].iter().enumerate() {
            let want: f32 = (0..d)
                .map(|j| b[h * d + j] * b[(n + rel) * d + j] * b[t * d + j])
                .sum();
            assert!((c[row] - want).abs() < 1e-5);
        }
    }

    #[test]
    fn complex_conjugates_tail() {
        // 2 entities + 1 relation, complex dim 2.
        let d = 2;
        let b = [
            1.0, 1.0, 2.0, 0.0, // h = e0
            0.5, -0.5, 1.0, 3.0, // t = e1
            0.0, 1.0, 1.0, 0.0, // r = r0
        ];
        let a = hrt(2, 1, &[0], &[0], &[1], TailSign::Negative).unwrap();
        let c = semiring_spmm(Semiring::ComplEx, &a, DenseView::new(3, 2 * d, &b));
        let (h, t, r) = (
            complex_row(&b, 0, d),
            complex_row(&b, 1, d),
            complex_row(&b, 2, d),
        );
        let want: f32 = (0..d).map(|j| (h[j] * r[j] * t[j].conj()).re).sum();
        assert!((c[0] - want).abs() < 1e-6, "{} vs {want}", c[0]);
        // Unconjugated, the imaginary parts would enter with the other sign.
        let plain: f32 = (0..d).map(|j| (h[j] * r[j] * t[j]).re).sum();
        assert!((want - plain).abs() > 0.5);
    }

    #[test]
    fn rotate_is_product_minus_tail() {
        let (n, d) = (2, 3);
        let b = random_table(n + 1, 2 * d, 4);
        let a = hrt(n, 1, &[1], &[0], &[0], TailSign::Negative).unwrap();
        let c = semiring_spmm(Semiring::RotatE, &a, DenseView::new(n + 1, 2 * d, &b));
        // h = e1, r = r0, t = e0.
        let (t, h, r) = (
            complex_row(&b, 0, d),
            complex_row(&b, 1, d),
            complex_row(&b, 2, d),
        );
        let want: f32 = (0..d).map(|j| (h[j] * r[j] - t[j]).abs()).sum();
        assert!((c[0] - want).abs() < 1e-6);
    }

    #[test]
    fn rotate_order_independence_with_low_tail_column() {
        // Tail column 0 sorts before head column 1 in CSR; the decoder must
        // still produce h*r - t, not t*r - h.
        let b = [
            5.0, 0.0, // e0 (tail)
            2.0, 0.0, // e1 (head)
            3.0, 0.0, // r0
        ];
        let a = hrt(2, 1, &[1], &[0], &[0], TailSign::Negative).unwrap();
        assert_eq!(Semiring::RotatE.decode(a.indices(), a.values()), [1, 2, 0]);
        let c = semiring_spmm(Semiring::RotatE, &a, DenseView::new(3, 2, &b));
        assert_eq!(c, [1.0]); // |2*3 - 5|
    }

    #[test]
    fn self_loop_rows_decode_the_entity_as_head_and_tail() {
        let b = [2.0, 3.0, 5.0, 7.0, /* r0 */ 11.0, 13.0];
        for sign in [TailSign::Positive, TailSign::Negative] {
            let a = hrt(2, 1, &[1], &[0], &[1], sign).unwrap();
            assert_eq!(a.nnz(), 2, "h == t merges into one stored entry");
            assert_eq!(
                Semiring::DistMult.decode(a.indices(), a.values()),
                [1, 2, 1]
            );
            let c = semiring_spmm(Semiring::DistMult, &a, DenseView::new(3, 2, &b));
            assert_eq!(c, [5.0 * 11.0 * 5.0 + 7.0 * 13.0 * 7.0]);
        }
    }

    #[test]
    #[should_panic(expected = "needs the signed hrt form")]
    fn complex_kinds_reject_the_unsigned_form() {
        let a = hrt(2, 1, &[0], &[0], &[1], TailSign::Positive).unwrap();
        let b = [0.0f32; 6];
        let _ = semiring_spmm(Semiring::ComplEx, &a, DenseView::new(3, 2, &b));
    }

    #[test]
    #[should_panic(expected = "not an hrt row")]
    fn rows_that_are_not_triples_are_rejected() {
        let a = crate::CooMatrix::from_triplets(1, 3, vec![(0, 0, 1.0)])
            .unwrap()
            .to_csr();
        let b = [0.0f32; 3];
        let _ = semiring_spmm(Semiring::DistMult, &a, DenseView::new(3, 1, &b));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_validation() {
        let a = hrt(2, 1, &[0], &[0], &[1], TailSign::Positive).unwrap();
        let b = vec![0.0f32; 4];
        let _ = semiring_spmm(Semiring::DistMult, &a, DenseView::new(2, 2, &b));
    }
}
