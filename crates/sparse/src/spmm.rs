//! Sparse × dense matrix multiplication kernels.
//!
//! These are the workhorses of the whole reproduction: SparseTransX replaces
//! every embedding gather (forward) and gradient scatter (backward) with one
//! call into [`csr_spmm`] / [`csr_spmm_into`]. The kernel is:
//!
//! * **row-parallel** — output rows are sharded over the [`xparallel`] pool,
//!   so no synchronization is needed on the output;
//! * **cache-blocked** — wide dense operands are processed in column tiles of
//!   [`COL_TILE`] floats so the accumulator row stays resident in L1;
//! * **unrolled** — the inner axpy runs 4 accumulators wide, which is enough
//!   for LLVM to emit packed SIMD;
//! * **specialized for incidence rows** — rows with ≤ 3 nonzeros (every
//!   `ht`/`hrt` incidence row) take a branch-free fused path.
//!
//! FLOP counts (`2 · nnz · n`) are recorded in [`crate::metrics`].

use crate::{metrics, CooMatrix, CsrMatrix, DenseMatrix, DenseView};

/// Column-tile width (in `f32` lanes) for the cache-blocked kernel.
///
/// 1024 floats = 4 KiB per operand row slice: an accumulator tile plus the
/// 2–3 gathered rows fit comfortably in a 32 KiB L1.
pub const COL_TILE: usize = 1024;

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
    let bdata = b.as_slice();
    let indptr = a.indptr();
    let indices = a.indices();
    let values = a.values();
    pool.for_rows(out, n, MIN_ROWS_PER_CHUNK, |first_row, chunk| {
        let nrows = chunk.len() / n;
        for local in 0..nrows {
            let i = first_row + local;
            let (s, e) = (indptr[i] as usize, indptr[i + 1] as usize);
            let dst = &mut chunk[local * n..(local + 1) * n];
            spmm_row(&indices[s..e], &values[s..e], bdata, n, dst);
        }
    });
}

/// One output row: `dst = Σ val_k · B[col_k, :]`, overwriting `dst`.
#[inline]
fn spmm_row(cols: &[u32], vals: &[f32], b: &[f32], n: usize, dst: &mut [f32]) {
    match cols.len() {
        0 => dst.fill(0.0),
        // Fast paths for incidence-matrix rows: `ht` rows have 2 nonzeros,
        // `hrt` rows have 3. Fusing the gathers avoids re-reading `dst`.
        2 => {
            let r0 = &b[cols[0] as usize * n..cols[0] as usize * n + n];
            let r1 = &b[cols[1] as usize * n..cols[1] as usize * n + n];
            let (v0, v1) = (vals[0], vals[1]);
            for j in 0..n {
                dst[j] = v0 * r0[j] + v1 * r1[j];
            }
        }
        3 => {
            let r0 = &b[cols[0] as usize * n..cols[0] as usize * n + n];
            let r1 = &b[cols[1] as usize * n..cols[1] as usize * n + n];
            let r2 = &b[cols[2] as usize * n..cols[2] as usize * n + n];
            let (v0, v1, v2) = (vals[0], vals[1], vals[2]);
            for j in 0..n {
                dst[j] = v0 * r0[j] + v1 * r1[j] + v2 * r2[j];
            }
        }
        1 => {
            let r0 = &b[cols[0] as usize * n..cols[0] as usize * n + n];
            let v0 = vals[0];
            for j in 0..n {
                dst[j] = v0 * r0[j];
            }
        }
        _ => {
            // General path: zero the accumulator, then tile columns so the
            // destination slice stays hot while we stream source rows.
            dst.fill(0.0);
            let mut t0 = 0;
            while t0 < n {
                let t1 = (t0 + COL_TILE).min(n);
                for (k, &c) in cols.iter().enumerate() {
                    let v = vals[k];
                    let src = &b[c as usize * n + t0..c as usize * n + t1];
                    axpy(v, src, &mut dst[t0..t1]);
                }
                t0 = t1;
            }
        }
    }
}

/// `dst += a * src`, 4-way unrolled.
#[inline]
fn axpy(a: f32, src: &[f32], dst: &mut [f32]) {
    // Every caller slices equal-length operands; the `min` below only
    // exists to keep the unrolled loop panic-free and must never actually
    // truncate (a silent truncation would mask an indexing bug upstream).
    debug_assert_eq!(src.len(), dst.len(), "axpy operand length mismatch");
    let n = dst.len().min(src.len());
    let chunks = n / 4;
    for k in 0..chunks {
        let j = k * 4;
        dst[j] += a * src[j];
        dst[j + 1] += a * src[j + 1];
        dst[j + 2] += a * src[j + 2];
        dst[j + 3] += a * src[j + 3];
    }
    for j in chunks * 4..n {
        dst[j] += a * src[j];
    }
}

/// Computes `out[r, :] += A[r, :] · B` for every row `r` of `rows`,
/// **accumulating** into the caller's buffer on an explicit
/// [`xparallel::PoolHandle`] — the backward-pass kernel of the pool-parallel
/// training step.
///
/// The transpose incidence matrix `Aᵀ ∈ (N+R) × M` has one row per
/// entity/relation, most of which no given batch touches: accumulation
/// avoids materializing (and re-adding) a dense delta the size of the whole
/// embedding table, and a listed row set
/// ([`crate::incidence::IncidencePair::touched_columns`] or any superset)
/// makes the pass `O(batch)` instead of one `indptr` probe per table row.
/// Each visited row is owned by one worker and accumulates its nonzeros in
/// CSR order; empty rows cost nothing; **rows outside the set are not
/// touched at all**, so the caller must include every nonempty row of `A`
/// or those contributions are silently dropped. A listed sweep and
/// [`xparallel::Rows::All`] therefore leave identical bits at any width.
///
/// Flops and bytes are recorded for the nonzeros of the rows actually
/// walked (all of `A`'s whenever the set covers its nonempty rows).
///
/// # Panics
///
/// Same conditions as [`csr_spmm_into`], plus (debug only) an unsorted row
/// list.
pub fn csr_spmm_acc_into_with(
    pool: &xparallel::PoolHandle,
    a: &CsrMatrix,
    rows: xparallel::Rows<'_>,
    b: DenseView<'_>,
    out: &mut [f32],
) {
    assert_eq!(a.cols(), b.rows(), "spmm shape mismatch");
    let n = b.cols();
    assert_eq!(out.len(), a.rows() * n, "output buffer has wrong length");
    metrics::record_spmm_call();
    let indptr = a.indptr();
    let mut nnz = 0u64;
    rows.for_each(a.rows(), |r| nnz += u64::from(indptr[r + 1] - indptr[r]));
    // Accumulation makes every ±1 nonzero one add.
    let per_nnz = if a.has_unit_coefficients() { 1 } else { 2 };
    metrics::add_flops(per_nnz * nnz * n as u64);
    // Traffic accounting mirrors csr_spmm_into_with: index+value reads per
    // nonzero plus one gathered B row per nonzero. The accumulating output
    // is read *and* written once per incident nonzero (2×), instead of the
    // forward kernel's single streaming write of the whole buffer.
    metrics::add_bytes((nnz * (4 + 4)) + (nnz * n as u64 * 4) + 2 * (nnz * n as u64 * 4));
    if n == 0 {
        return;
    }
    let bdata = b.as_slice();
    let indices = a.indices();
    let values = a.values();
    pool.for_row_set(out, n, rows, MIN_ROWS_PER_CHUNK, |i, dst| {
        for k in indptr[i] as usize..indptr[i + 1] as usize {
            let c = indices[k] as usize;
            axpy(values[k], &bdata[c * n..(c + 1) * n], dst);
        }
    });
}

/// Like [`csr_spmm_into`] but always takes the general (tiled axpy) path,
/// skipping the 1/2/3-nonzero incidence fast paths — used by the ablation
/// benchmarks to quantify the fast path's contribution.
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
    let bdata = b.as_slice();
    let indptr = a.indptr();
    let indices = a.indices();
    let values = a.values();
    xparallel::parallel_for_rows(out, n, MIN_ROWS_PER_CHUNK, |first_row, chunk| {
        let nrows = chunk.len() / n;
        for local in 0..nrows {
            let i = first_row + local;
            let (s, e) = (indptr[i] as usize, indptr[i + 1] as usize);
            let dst = &mut chunk[local * n..(local + 1) * n];
            dst.fill(0.0);
            let mut t0 = 0;
            while t0 < n {
                let t1 = (t0 + COL_TILE).min(n);
                for k in s..e {
                    let c = indices[k] as usize;
                    let src = &bdata[c * n + t0..c * n + t1];
                    axpy(values[k], src, &mut dst[t0..t1]);
                }
                t0 = t1;
            }
        }
    });
}

/// Computes `C = A · B` directly from COO with per-thread scatter buffers.
///
/// Kept for comparison benchmarks (the paper selects COO for DGL's GPU
/// kernel); CSR is faster on CPU for incidence workloads.
///
/// # Panics
///
/// Panics if `A.cols() != B.rows()`.
pub fn coo_spmm<'a>(a: &CooMatrix, b: impl Into<DenseView<'a>>) -> DenseMatrix {
    let b = b.into();
    assert_eq!(a.cols(), b.rows(), "spmm shape mismatch");
    let n = b.cols();
    metrics::record_spmm_call();
    metrics::add_flops(2 * a.nnz() as u64 * n as u64);
    let mut out = DenseMatrix::zeros(a.rows(), n);
    let bdata = b.as_slice();
    // COO entries may hit any output row, so we shard the *entries* and give
    // each worker a private output buffer, reduced deterministically at the
    // end. This mirrors the scatter-side cost the paper attributes to
    // gather/scatter training.
    let rows = a.row_indices();
    let cols = a.col_indices();
    let vals = a.values();
    let total = out.as_slice().len();
    let partial = xparallel::parallel_map_reduce(
        a.nnz(),
        4096,
        vec![0f32; 0],
        |range| {
            let mut buf = vec![0f32; total];
            for k in range {
                let r = rows[k] as usize;
                let c = cols[k] as usize;
                let v = vals[k];
                let src = &bdata[c * n..(c + 1) * n];
                axpy(v, src, &mut buf[r * n..(r + 1) * n]);
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
        let b = random_dense(&mut rng, 40, COL_TILE + 100);
        assert_close(&csr_spmm(&a, &b), &spmm_reference(&a, b.view()), 1e-3);
    }

    #[test]
    fn acc_kernel_accumulates_and_matches() {
        let mut rng = StdRng::seed_from_u64(33);
        let a = random_csr(&mut rng, 40, 25, 4);
        let b = random_dense(&mut rng, 25, 9);
        // Start from a nonzero buffer; acc must add on top.
        let mut acc = vec![0.5f32; 40 * 9];
        csr_spmm_acc_into_with(&PoolHandle::global(), &a, Rows::All, b.view(), &mut acc);
        let want = csr_spmm(&a, &b);
        for (x, w) in acc.iter().zip(want.as_slice()) {
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
            csr_spmm_acc_into_with(&pool, &a, rows, b.view(), &mut out);
            out
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let dense = run(1, Rows::All);
        // Bit-identical: a listed sweep performs the exact per-row
        // accumulation of the all-rows sweep, skipping only empty rows; a
        // superset list (extra empty rows) changes nothing.
        let occupied = a.occupied_rows();
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
        let via_coo = coo_spmm(&coo, &b);
        assert_close(&via_coo, &via_csr, 1e-4);
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
