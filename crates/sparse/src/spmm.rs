//! Sparse × dense matrix multiplication kernels.
//!
//! These are the workhorses of the whole reproduction: SparseTransX replaces
//! every embedding gather (forward) and gradient scatter (backward) with one
//! SpMM each, and this module owns the one row kernel of each:
//!
//! * [`spmm_row`] is **the** row kernel of `A · B`: one output row (or a
//!   column tile of it) from one CSR row, the operand read through
//!   [`DenseView::row`] so a resident table and a paged one are the same
//!   code. Rows with ≤ 3 nonzeros — every `ht`/`hrt` incidence row — take a
//!   branch-free fused arm; longer rows fold from `0.0` in nonzero order.
//!   [`csr_spmm`] and its `_into`/`_with` forms, and the tape's `spmm` and
//!   fused `spmm_score` ops in `tensor`, all call it and nothing else.
//! * [`spmm_row_acc`] is **the** row kernel of `Aᵀ · G` (Appendix G): one
//!   destination row accumulating `val · G[col, :]` over a list of entries,
//!   one [`axpy`] per entry. The tape's backward pushes `G` through the rows
//!   of `A` and runs that same [`axpy`] once per nonzero (`dst` the gradient
//!   row of the nonzero's column, `G`'s row its batch row, resolved once per
//!   batch row); [`spmm_row_acc`] is also [`spmm_row`]'s general arm and all
//!   of [`csr_spmm_into_general`].
//!
//! The entry points around them are **row-parallel**: output rows are sharded
//! over the [`xparallel`] pool, each computed by exactly one worker, so no
//! synchronization is needed on the output and the bits do not depend on the
//! pool width. Every element is an independent expression of its column, so
//! the inner loops vectorize. Before computing row `i`, a driver
//! [`prefetch_operands`] the operand rows of row `i + PREFETCH_DISTANCE`,
//! so a random row of a table larger than the cache is on its way by the
//! time it is read; the hint changes no bits and no counters.
//!
//! Each entry point records its analytic cost in [`crate::metrics`]: for
//! `A · B` with `n` output columns, `(nnz − rows) · n` additions when `A`
//! holds only ±1 (an incidence matrix), `2 · nnz · n` multiply-adds
//! otherwise.

use xparallel::PREFETCH_DISTANCE;

use crate::{metrics, CooMatrix, CsrMatrix, DenseMatrix, DenseView};

/// Minimum rows per parallel chunk; below this the kernel runs sequentially.
pub const MIN_ROWS_PER_CHUNK: usize = 16;

/// Computes `C = A · B` where `A` is sparse CSR and `B` is dense row-major.
///
/// # Panics
///
/// Panics if `A.cols() != B.rows()`.
///
/// # Examples
///
/// ```
/// use sparse::{CooMatrix, DenseMatrix};
///
/// let a = CooMatrix::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, -1.0)])?.to_csr();
/// let b = DenseMatrix::from_rows(&[[5.0, 6.0], [1.0, 2.0]]);
/// let c = sparse::spmm::csr_spmm(&a, &b);
/// assert_eq!(c.row(0), &[4.0, 4.0]); // head - tail
/// # Ok::<(), sparse::Error>(())
/// ```
pub fn csr_spmm<'a>(a: &CsrMatrix, b: impl Into<DenseView<'a>>) -> DenseMatrix {
    csr_spmm_with(&xparallel::PoolHandle::global(), a, b)
}

/// Like [`csr_spmm`] but dispatched on an explicit [`xparallel::PoolHandle`]
/// — the training tape threads its handle through here so the whole step
/// shares one schedule (and can run inline inside data-parallel workers).
pub fn csr_spmm_with<'a>(
    pool: &xparallel::PoolHandle,
    a: &CsrMatrix,
    b: impl Into<DenseView<'a>>,
) -> DenseMatrix {
    let b = b.into();
    let mut out = DenseMatrix::zeros(a.rows(), b.cols());
    csr_spmm_into_with(pool, a, b, out.as_mut_slice());
    out
}

/// Computes `C = A · B` into a caller-provided buffer (overwritten).
///
/// # Panics
///
/// Panics if `A.cols() != B.rows()` or `out.len() != A.rows() * B.cols()`.
pub fn csr_spmm_into(a: &CsrMatrix, b: DenseView<'_>, out: &mut [f32]) {
    csr_spmm_into_with(&xparallel::PoolHandle::global(), a, b, out);
}

/// Like [`csr_spmm_into`] but dispatched on an explicit
/// [`xparallel::PoolHandle`].
///
/// # Panics
///
/// Same conditions as [`csr_spmm_into`].
pub fn csr_spmm_into_with(
    pool: &xparallel::PoolHandle,
    a: &CsrMatrix,
    b: DenseView<'_>,
    out: &mut [f32],
) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "spmm shape mismatch: A is {}x{}, B is {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let n = b.cols();
    assert_eq!(out.len(), a.rows() * n, "output buffer has wrong length");
    metrics::record_spmm_call();
    // Incidence matrices carry only ±1 coefficients, so each output element
    // costs (row_nnz - 1) additions, not 2·nnz multiply-adds. Count what the
    // kernel actually has to execute (the paper measures FLOPs with perf).
    // The ±1 property is cached on the matrix — no per-call O(nnz) scan.
    let flops = if a.has_unit_coefficients() {
        a.nnz().saturating_sub(a.rows()) as u64 * n as u64
    } else {
        2 * a.nnz() as u64 * n as u64
    };
    metrics::add_flops(flops);
    metrics::add_bytes(
        (a.nnz() as u64 * (4 + 4)) + (a.nnz() as u64 * n as u64 * 4) + (out.len() as u64 * 4),
    );
    if n == 0 || a.rows() == 0 {
        return;
    }
    for_each_output_row(pool, a, &b, out, |cols, vals, dst| {
        spmm_row(cols, vals, &b, 0, dst)
    });
}

/// Runs `row(cols, vals, dst)` for every CSR row of `a` and its
/// `b.cols()`-wide row of `out`, the output rows sharded on `pool`, with
/// the operand rows of row `i + PREFETCH_DISTANCE` prefetched from `b`
/// before row `i` is computed.
fn for_each_output_row(
    pool: &xparallel::PoolHandle,
    a: &CsrMatrix,
    b: &DenseView<'_>,
    out: &mut [f32],
    row: impl Fn(&[u32], &[f32], &mut [f32]) + Sync,
) {
    let (n, indptr, indices, values) = (b.cols(), a.indptr(), a.indices(), a.values());
    pool.for_rows(out, n, MIN_ROWS_PER_CHUNK, |first_row, chunk| {
        for (local, dst) in chunk.chunks_exact_mut(n).enumerate() {
            let i = first_row + local;
            prefetch_operands(a, b, i + PREFETCH_DISTANCE);
            let (s, e) = (indptr[i] as usize, indptr[i + 1] as usize);
            row(&indices[s..e], &values[s..e], dst);
        }
    });
}

/// [`DenseView::prefetch`]es every operand row CSR row `i` of `a` reads
/// from `b` — what a row driver calls [`PREFETCH_DISTANCE`] rows ahead of
/// the row it computes. A hint only: a row past the last one, or a column
/// `b` does not hold, is a no-op.
#[inline]
pub fn prefetch_operands(a: &CsrMatrix, b: &DenseView<'_>, i: usize) {
    if i < a.rows() {
        let (s, e) = a.row_bounds(i);
        for &c in &a.indices()[s..e] {
            b.prefetch(c as usize);
        }
    }
}

/// **The row kernel of `A · B`**: elements `t0 .. t0 + x.len()` of
/// `Σ_k vals[k] · B[cols[k], :]`, overwriting `x`. A caller that wants the
/// whole row passes `t0 = 0` and an `x` of `B.cols()` elements; one that
/// reduces the row as it goes (the fused score op) passes a stack tile.
///
/// Each operand row is resolved to a slice once. The 1-, 2- and 3-nonzero
/// arms evaluate `v0·a + v1·b + v2·c` left to right in one pass; longer rows
/// fold from `0.0` in nonzero order ([`spmm_row_acc`]). That association is
/// the contract every bit-identity test in the workspace rests on.
///
/// # Panics
///
/// Panics if a column is out of range or not resident in `b`, or the tile
/// reaches past `b.cols()`.
#[inline]
pub fn spmm_row(cols: &[u32], vals: &[f32], b: &DenseView<'_>, t0: usize, x: &mut [f32]) {
    let t1 = t0 + x.len();
    let lane = |c: u32| &b.row(c as usize)[t0..t1];
    match *cols {
        [] => x.fill(0.0),
        [c0] => {
            let v0 = vals[0];
            for (xj, a) in x.iter_mut().zip(lane(c0)) {
                *xj = v0 * a;
            }
        }
        [c0, c1] => {
            let (v0, v1) = (vals[0], vals[1]);
            for ((xj, a), b) in x.iter_mut().zip(lane(c0)).zip(lane(c1)) {
                *xj = v0 * a + v1 * b;
            }
        }
        [c0, c1, c2] => {
            let (v0, v1, v2) = (vals[0], vals[1], vals[2]);
            let (a, b, c) = (lane(c0), lane(c1), lane(c2));
            for (((xj, a), b), c) in x.iter_mut().zip(a).zip(b).zip(c) {
                *xj = v0 * a + v1 * b + v2 * c;
            }
        }
        _ => {
            x.fill(0.0);
            spmm_row_acc(cols, vals, b, t0, x);
        }
    }
}

/// **The row kernel of `Aᵀ · G`**: `dst[j] += vals[k] · G[cols[k], t0 + j]`
/// for every entry `k`, in order, one [`axpy`] per entry.
///
/// # Panics
///
/// Same conditions as [`spmm_row`].
#[inline]
pub fn spmm_row_acc(cols: &[u32], vals: &[f32], g: &DenseView<'_>, t0: usize, dst: &mut [f32]) {
    let t1 = t0 + dst.len();
    for (&v, &c) in vals.iter().zip(cols) {
        axpy(v, &g.row(c as usize)[t0..t1], dst);
    }
}

/// `dst[j] += v · x[j]` over `dst` — the one accumulate of `Aᵀ · G`. The
/// tape's backward pushes `G` through the forward matrix and runs it once
/// per nonzero `(i, c, v)` of `A`, with `x` row `i` of `G` and `dst`
/// parameter row `c`'s gradient: every destination row's contributions
/// then land in ascending batch row, exactly as [`spmm_row_acc`] over
/// column `c` of `A` would add them.
#[inline]
pub fn axpy(v: f32, x: &[f32], dst: &mut [f32]) {
    for (dj, x) in dst.iter_mut().zip(x) {
        *dj += v * x;
    }
}

/// Like [`csr_spmm_into`] but every row takes [`spmm_row`]'s general arm —
/// zero, then [`spmm_row_acc`] — whatever its length: the ablation benchmarks
/// use it to quantify what the 1/2/3-nonzero incidence arms contribute.
///
/// # Panics
///
/// Same conditions as [`csr_spmm_into`].
pub fn csr_spmm_into_general(a: &CsrMatrix, b: DenseView<'_>, out: &mut [f32]) {
    assert_eq!(a.cols(), b.rows(), "spmm shape mismatch");
    let n = b.cols();
    assert_eq!(out.len(), a.rows() * n, "output buffer has wrong length");
    metrics::record_spmm_call();
    metrics::add_flops(2 * a.nnz() as u64 * n as u64);
    if n == 0 || a.rows() == 0 {
        return;
    }
    let pool = xparallel::PoolHandle::global();
    for_each_output_row(&pool, a, &b, out, |cols, vals, dst| {
        dst.fill(0.0);
        spmm_row_acc(cols, vals, &b, 0, dst);
    });
}

/// Computes `C = A · B` directly from COO with per-thread scatter buffers,
/// dispatched on `pool`.
///
/// Kept for comparison benchmarks (the paper selects COO for DGL's GPU
/// kernel); CSR is faster on CPU for incidence workloads.
///
/// # Panics
///
/// Panics if `A.cols() != B.rows()`.
pub fn coo_spmm<'a>(
    pool: &xparallel::PoolHandle,
    a: &CooMatrix,
    b: impl Into<DenseView<'a>>,
) -> DenseMatrix {
    let b = b.into();
    assert_eq!(a.cols(), b.rows(), "spmm shape mismatch");
    let n = b.cols();
    metrics::record_spmm_call();
    metrics::add_flops(2 * a.nnz() as u64 * n as u64);
    let mut out = DenseMatrix::zeros(a.rows(), n);
    // COO entries may hit any output row, so we shard the *entries* and give
    // each shard a private output buffer, folded in shard order at the end.
    // This mirrors the scatter-side cost the paper attributes to
    // gather/scatter training. The shard size depends on `nnz` alone — at
    // least 4096 entries, at most 8 shards, so at most 8 whole-output
    // partials are alive — which keeps the bits independent of the width.
    let rows = a.row_indices();
    let cols = a.col_indices();
    let vals = a.values();
    let total = out.as_slice().len();
    let shard = a.nnz().div_ceil(8).max(4096);
    let partial = pool.map_reduce_fixed(
        a.nnz(),
        shard,
        vec![0f32; 0],
        |range| {
            let mut buf = vec![0f32; total];
            for k in range {
                let r = rows[k] as usize;
                spmm_row_acc(
                    &cols[k..=k],
                    &vals[k..=k],
                    &b,
                    0,
                    &mut buf[r * n..(r + 1) * n],
                );
            }
            buf
        },
        |mut acc, part| {
            if acc.is_empty() {
                return part;
            }
            for (d, s) in acc.iter_mut().zip(&part) {
                *d += *s;
            }
            acc
        },
    );
    if !partial.is_empty() {
        out.as_mut_slice().copy_from_slice(&partial);
    }
    out
}

/// Naive, single-threaded reference SpMM for testing.
pub fn spmm_reference(a: &CsrMatrix, b: DenseView<'_>) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "spmm shape mismatch");
    let n = b.cols();
    let mut out = DenseMatrix::zeros(a.rows(), n);
    for i in 0..a.rows() {
        for (c, v) in a.row(i) {
            for j in 0..n {
                let cur = out.get(i, j);
                out.set(i, j, cur + v * b.row(c)[j]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xparallel::{PoolHandle, Rows};

    fn random_csr(rng: &mut StdRng, rows: usize, cols: usize, nnz_per_row: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows, cols);
        for r in 0..rows {
            for _ in 0..rng.gen_range(0..=nnz_per_row) {
                let c = rng.gen_range(0..cols);
                coo.push(r, c, rng.gen_range(-2.0..2.0)).unwrap();
            }
        }
        coo.to_csr()
    }

    fn random_dense(rng: &mut StdRng, rows: usize, cols: usize) -> DenseMatrix {
        let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        DenseMatrix::from_vec(rows, cols, data)
    }

    /// `out[r, :] += A[r, :] · B` for the rows of `rows`: one [`spmm_row_acc`]
    /// per destination row, sharded on `pool` — the shape of the tape's SpMM
    /// backward, where the parameter store's sweep plays `for_row_set`.
    fn acc(pool: &PoolHandle, a: &CsrMatrix, rows: Rows<'_>, b: DenseView<'_>, out: &mut [f32]) {
        let (indptr, indices, values) = (a.indptr(), a.indices(), a.values());
        pool.for_row_set(out, b.cols(), rows, MIN_ROWS_PER_CHUNK, |i, dst| {
            let (s, e) = (indptr[i] as usize, indptr[i + 1] as usize);
            spmm_row_acc(&indices[s..e], &values[s..e], &b, 0, dst);
        });
    }

    fn assert_close(a: &DenseMatrix, b: &DenseMatrix, tol: f32) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn csr_matches_reference_random() {
        let mut rng = StdRng::seed_from_u64(42);
        for (rows, cols, n, per_row) in [
            (1, 1, 1, 1),
            (10, 8, 4, 3),
            (100, 50, 17, 6),
            (64, 64, 64, 2),
            (200, 30, 5, 10),
        ] {
            let a = random_csr(&mut rng, rows, cols, per_row);
            let b = random_dense(&mut rng, cols, n);
            let got = csr_spmm(&a, &b);
            let want = spmm_reference(&a, b.view());
            assert_close(&got, &want, 1e-4);
        }
    }

    /// Past the last batch row, and for a column the table does not hold,
    /// the lookahead hint does nothing; a product shorter than the lookahead
    /// is still the reference product.
    #[test]
    fn prefetch_operands_is_a_no_op_past_the_last_row() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_csr(&mut rng, 3, 6, 3);
        let b = random_dense(&mut rng, 6, 4);
        let (short, map) = (random_dense(&mut rng, 2, 4), [DenseView::NOT_RESIDENT; 6]);
        for v in [
            b.view(),
            short.view(),
            DenseView::mapped(4, b.as_slice(), &map),
        ] {
            for i in [0, 2, 3, PREFETCH_DISTANCE, usize::MAX] {
                prefetch_operands(&a, &v, i);
            }
        }
        assert!(a.rows() < PREFETCH_DISTANCE);
        assert_eq!(csr_spmm(&a, &b), spmm_reference(&a, b.view()));
    }

    #[test]
    fn incidence_fast_paths_match_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        // Exactly 2 or 3 nonzeros per row with ±1 values: incidence shape.
        for nnz in [2usize, 3] {
            let rows = 128;
            let cols = 64;
            let mut coo = CooMatrix::new(rows, cols);
            for r in 0..rows {
                let mut seen = std::collections::HashSet::new();
                while seen.len() < nnz {
                    seen.insert(rng.gen_range(0..cols));
                }
                for (k, c) in seen.into_iter().enumerate() {
                    let v = if k == nnz - 1 { -1.0 } else { 1.0 };
                    coo.push(r, c, v).unwrap();
                }
            }
            let a = coo.to_csr();
            let b = random_dense(&mut rng, cols, 33);
            assert_close(&csr_spmm(&a, &b), &spmm_reference(&a, b.view()), 1e-4);
        }
    }

    #[test]
    fn wide_dense_exercises_tiling() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_csr(&mut rng, 20, 40, 8);
        let b = random_dense(&mut rng, 40, 1124);
        assert_close(&csr_spmm(&a, &b), &spmm_reference(&a, b.view()), 1e-3);
    }

    #[test]
    fn acc_kernel_accumulates_and_matches() {
        let mut rng = StdRng::seed_from_u64(33);
        let a = random_csr(&mut rng, 40, 25, 4);
        let b = random_dense(&mut rng, 25, 9);
        // Start from a nonzero buffer; acc must add on top.
        let mut out = vec![0.5f32; 40 * 9];
        acc(&PoolHandle::global(), &a, Rows::All, b.view(), &mut out);
        let want = csr_spmm(&a, &b);
        for (x, w) in out.iter().zip(want.as_slice()) {
            assert!((x - (w + 0.5)).abs() < 1e-4, "{x} vs {}", w + 0.5);
        }
    }

    #[test]
    fn acc_rows_kernel_matches_dense_sweep_bitwise() {
        let mut rng = StdRng::seed_from_u64(19);
        let a = random_csr(&mut rng, 120, 25, 4);
        let b = random_dense(&mut rng, 25, 9);
        let run = |width: usize, rows: Rows<'_>| {
            let mut out = vec![0.25f32; 120 * 9];
            let pool = PoolHandle::global().with_width(width);
            acc(&pool, &a, rows, b.view(), &mut out);
            out
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let dense = run(1, Rows::All);
        // Bit-identical: a listed sweep performs the exact per-row
        // accumulation of the all-rows sweep, skipping only empty rows; a
        // superset list (extra empty rows) changes nothing.
        let occupied: Vec<u32> = (0..120)
            .filter(|&r| a.row(r as usize).count() > 0)
            .collect();
        let all: Vec<u32> = (0..120).collect();
        for width in [1, 4, 5, 8] {
            assert_eq!(bits(&run(width, Rows::All)), bits(&dense));
            assert_eq!(bits(&run(width, Rows::Listed(&occupied))), bits(&dense));
            assert_eq!(bits(&run(width, Rows::Listed(&all))), bits(&dense));
        }
        // Unlisted rows are left alone entirely: an empty list is a no-op,
        // and dropping one occupied row leaves exactly that row unwritten.
        assert!(run(4, Rows::Listed(&[])).iter().all(|&x| x == 0.25));
        let (skipped, rest) = occupied.split_first().unwrap();
        let partial = run(4, Rows::Listed(rest));
        for r in 0..120 {
            let want = if r == *skipped as usize {
                &[0.25f32; 9][..]
            } else {
                &dense[r * 9..(r + 1) * 9]
            };
            assert_eq!(bits(&partial[r * 9..(r + 1) * 9]), bits(want), "row {r}");
        }
    }

    #[test]
    fn general_path_matches_fast_path() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = random_csr(&mut rng, 60, 40, 3);
        let b = random_dense(&mut rng, 40, 19);
        let mut fast = vec![0f32; 60 * 19];
        let mut general = vec![0f32; 60 * 19];
        csr_spmm_into(&a, b.view(), &mut fast);
        csr_spmm_into_general(&a, b.view(), &mut general);
        for (x, y) in fast.iter().zip(&general) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn coo_matches_csr() {
        let mut rng = StdRng::seed_from_u64(11);
        let coo = {
            let mut m = CooMatrix::new(50, 30);
            for _ in 0..200 {
                m.push(
                    rng.gen_range(0..50),
                    rng.gen_range(0..30),
                    rng.gen_range(-1.0..1.0),
                )
                .unwrap();
            }
            m
        };
        let b = random_dense(&mut rng, 30, 12);
        let via_csr = csr_spmm(&coo.to_csr(), &b);
        let via_coo = coo_spmm(&xparallel::PoolHandle::global(), &coo, &b);
        assert_close(&via_coo, &via_csr, 1e-4);
    }

    #[test]
    fn coo_bits_do_not_depend_on_the_width() {
        // 40 000 entries over 16 rows: every row's sum spans several shards.
        let mut rng = StdRng::seed_from_u64(13);
        let mut coo = CooMatrix::new(16, 30);
        for _ in 0..40_000 {
            let (r, c) = (rng.gen_range(0..16), rng.gen_range(0..30));
            coo.push(r, c, rng.gen_range(-1.0..1.0)).unwrap();
        }
        let b = random_dense(&mut rng, 30, 7);
        let bits = |width: usize| {
            let c = coo_spmm(&xparallel::PoolHandle::global().with_width(width), &coo, &b);
            c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(1), bits(4));
    }

    #[test]
    fn transpose_spmm_is_backward_of_forward() {
        // Appendix G: dL/dX = Aᵀ · dL/dC. Check via dense algebra.
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_csr(&mut rng, 12, 9, 4);
        let g = random_dense(&mut rng, 12, 7); // upstream gradient, shape of C
        let grad = csr_spmm(&a.transpose(), &g);
        // Dense check: Aᵀ(9x12) · G(12x7) = 9x7.
        let ad = a.to_dense();
        let mut want = DenseMatrix::zeros(9, 7);
        for i in 0..9 {
            for j in 0..7 {
                let mut acc = 0.0;
                for k in 0..12 {
                    acc += ad.get(k, i) * g.get(k, j);
                }
                want.set(i, j, acc);
            }
        }
        assert_close(&grad, &want, 1e-4);
    }

    #[test]
    fn zero_sized_operands() {
        let a = CooMatrix::new(0, 5).to_csr();
        let b = DenseMatrix::zeros(5, 3);
        let c = csr_spmm(&a, &b);
        assert_eq!((c.rows(), c.cols()), (0, 3));

        let a = CooMatrix::new(4, 5).to_csr();
        let b = DenseMatrix::zeros(5, 0);
        let c = csr_spmm(&a, &b);
        assert_eq!((c.rows(), c.cols()), (4, 0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = CooMatrix::new(2, 3).to_csr();
        let b = DenseMatrix::zeros(4, 2);
        let _ = csr_spmm(&a, &b);
    }

    #[test]
    fn flop_counter_increments() {
        let before = metrics::snapshot();
        let a = CooMatrix::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, -1.0)])
            .unwrap()
            .to_csr();
        let b = DenseMatrix::zeros(2, 8);
        let _ = csr_spmm(&a, &b);
        let delta = metrics::snapshot() - before;
        // ±1 incidence row: (nnz - rows) * n = (2 - 1) * 8 additions.
        assert!(delta.flops >= 8);
        assert!(delta.spmm_calls >= 1);
    }
}
