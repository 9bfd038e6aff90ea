//! Property-based tests of the sparse-matrix substrate: construction and
//! round-trips, kernel equivalences, semiring laws, and incidence invariants.

use proptest::prelude::*;
use sparse::incidence::{hrt, ht, TailSign};
use sparse::semiring::{semiring_spmm, Semiring};
use sparse::spmm::{csr_spmm, csr_spmm_into_general, csr_spmm_into_with, spmm_reference};
use sparse::{CsrMatrix, DenseView, Error};

/// Arbitrary triplets within a bounded shape, repeats included.
fn triplet_strategy() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f32)>)> {
    (1usize..25, 1usize..20).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, -4.0f32..4.0);
        (Just(rows), Just(cols), prop::collection::vec(entry, 0..80))
    })
}

/// A batch over `n` entities and `r` relations, self-loops included, each
/// component drawn past its bound with some probability: `(n, r, heads,
/// rels, tails)`.
type Batch = (usize, usize, Vec<u32>, Vec<u32>, Vec<u32>);

fn batch_strategy() -> impl Strategy<Value = Batch> {
    (1usize..12, 1usize..5, 0usize..30, 0u32..4).prop_flat_map(|(n, r, m, bad)| {
        // One draw in `bad` of every 16 is past the bound, by up to 8 rows.
        let pick = move |bound: usize| {
            (0u32..16, 0..bound as u32, 0u32..8).prop_map(move |(die, ok, past)| {
                if die < bad {
                    bound as u32 + past
                } else {
                    ok
                }
            })
        };
        let rows = prop::collection::vec((pick(n), pick(r), pick(n)), m);
        (Just(n), Just(r), rows).prop_map(|(n, r, rows)| {
            let heads = rows.iter().map(|t| t.0).collect();
            let rels = rows.iter().map(|t| t.1).collect();
            let tails = rows.iter().map(|t| t.2).collect();
            (n, r, heads, rels, tails)
        })
    })
}

/// Row `i`'s `(column, value bits)` entries, ascending column.
fn rows_of(a: &CsrMatrix) -> Vec<Vec<(usize, u32)>> {
    let row = |i| a.row(i).map(|(c, v)| (c, v.to_bits())).collect();
    (0..a.rows()).map(row).collect()
}

/// The incidence rule as plain loops: each row's `(column, coefficient)`
/// entries in input order, a repeated column summed into its first entry,
/// then sorted by column; or the first bad index, row by row, entities
/// before the relation, head before tail.
fn plain_incidence(
    n: usize,
    r: Option<(usize, &[u32])>,
    heads: &[u32],
    tails: &[u32],
    tail: f32,
) -> Result<Vec<Vec<(usize, u32)>>, Error> {
    let m = heads.len();
    let cols = n + r.map_or(0, |(r, _)| r);
    let mut out = Vec::new();
    for i in 0..m {
        let (h, t) = (heads[i] as usize, tails[i] as usize);
        for e in [h, t] {
            if e >= n {
                return Err(match r {
                    None => Error::IndexOutOfBounds {
                        row: i,
                        col: e,
                        rows: m,
                        cols,
                    },
                    Some(_) => Error::EntityOutOfBounds {
                        row: i,
                        entity: e,
                        entities: n,
                        rows: m,
                    },
                });
            }
        }
        let mut row: Vec<(usize, f32)> = vec![(h, 1.0)];
        if let Some((_, rels)) = r {
            let col = n + rels[i] as usize;
            if col >= cols {
                return Err(Error::IndexOutOfBounds {
                    row: i,
                    col,
                    rows: m,
                    cols,
                });
            }
            row.push((col, 1.0));
        }
        match row.iter_mut().find(|e| e.0 == t) {
            Some(e) => e.1 += tail,
            None => row.push((t, tail)),
        }
        row.sort_by_key(|e| e.0);
        out.push(row.into_iter().map(|(c, v)| (c, v.to_bits())).collect());
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// CSR -> triplets -> CSR is a fixed point: a matrix's own entries, in
    /// row-major order, build that matrix again.
    #[test]
    fn format_round_trip_fixed_point((rows, cols, entries) in triplet_strategy()) {
        let csr = CsrMatrix::from_triplets(rows, cols, entries).unwrap();
        let own = (0..rows).flat_map(|r| csr.row(r).map(move |(c, v)| (r, c, v)));
        let again = CsrMatrix::from_triplets(rows, cols, own.collect::<Vec<_>>()).unwrap();
        prop_assert_eq!(again, csr);
    }

    /// Dense materialization commutes with construction: the dense form of
    /// `from_triplets` is the naive accumulation of the triplets in input
    /// order, repeated coordinates summed.
    #[test]
    fn dense_materialization_commutes((rows, cols, entries) in triplet_strategy()) {
        let mut want = vec![0.0f32; rows * cols];
        for &(r, c, v) in &entries {
            want[r * cols + c] += v;
        }
        let csr = CsrMatrix::from_triplets(rows, cols, entries).unwrap();
        prop_assert_eq!(csr.to_dense(), want);
    }

    /// The incidence builders write exactly the plain-loop rule: the same
    /// entries and coefficient bits (a self-loop's `0` or `2` included) for
    /// both tail signs, and, for a bad head, tail or relation anywhere in the
    /// batch, the same error.
    #[test]
    fn incidence_builders_match_the_plain_loop_rule(
        (n, r, heads, rels, tails) in batch_strategy()
    ) {
        let got = ht(n, &heads, &tails).map(|a| rows_of(&a));
        prop_assert_eq!(got, plain_incidence(n, None, &heads, &tails, -1.0));
        for (sign, tail) in [(TailSign::Negative, -1.0), (TailSign::Positive, 1.0)] {
            let got = hrt(n, r, &heads, &rels, &tails, sign);
            let want = plain_incidence(n, Some((r, &rels)), &heads, &tails, tail);
            if let Ok(a) = &got {
                prop_assert_eq!((a.rows(), a.cols()), (heads.len(), n + r));
            }
            prop_assert_eq!(got.map(|a| rows_of(&a)), want);
        }
    }

    /// Every SpMM entry point agrees with the naive reference.
    #[test]
    fn all_spmm_kernels_agree(
        (rows, cols, entries) in triplet_strategy(),
        d in 1usize..10,
        bseed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(bseed);
        let csr = CsrMatrix::from_triplets(rows, cols, entries).unwrap();
        let b: Vec<f32> = (0..cols * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b = DenseView::new(cols, d, &b);

        let want = spmm_reference(&csr, b);
        let got_csr = csr_spmm(&csr, b);
        let mut got_general = vec![0f32; rows * d];
        csr_spmm_into_general(&csr, b, &mut got_general);
        let mut got_into = vec![0f32; rows * d];
        let pool = xparallel::PoolHandle::global().with_width(3);
        let _ = csr_spmm_into_with(&pool, &csr, b, &mut got_into);

        for i in 0..rows * d {
            let w = want[i];
            prop_assert!((got_csr[i] - w).abs() < 1e-3);
            prop_assert!((got_general[i] - w).abs() < 1e-3);
            prop_assert!((got_into[i] - w).abs() < 1e-3);
        }
    }

    /// Incidence structure: every ht row has exactly 2 nonzeros summing to 0,
    /// every hrt row 3 nonzeros summing to ±1 (h != t).
    #[test]
    fn incidence_row_invariants(
        n in 2usize..50,
        r in 1usize..8,
        picks in prop::collection::vec((0u32..1000, 0u32..1000, 0u32..1000), 1..40),
    ) {
        let heads: Vec<u32> = picks.iter().map(|p| p.0 % n as u32).collect();
        let rels: Vec<u32> = picks.iter().map(|p| p.1 % r as u32).collect();
        let tails: Vec<u32> = picks
            .iter()
            .zip(&heads)
            .map(|(p, &h)| {
                let t = p.2 % n as u32;
                if t == h { (t + 1) % n as u32 } else { t }
            })
            .collect();

        let a = ht(n, &heads, &tails).unwrap();
        for i in 0..a.rows() {
            let row: Vec<(usize, f32)> = a.row(i).collect();
            prop_assert_eq!(row.len(), 2);
            prop_assert!((row.iter().map(|e| e.1).sum::<f32>()).abs() < 1e-6);
        }

        let a = hrt(n, r, &heads, &rels, &tails, TailSign::Negative).unwrap();
        for i in 0..a.rows() {
            let row: Vec<(usize, f32)> = a.row(i).collect();
            prop_assert_eq!(row.len(), 3);
            prop_assert!((row.iter().map(|e| e.1).sum::<f32>() - 1.0).abs() < 1e-6);
        }
    }

    /// DistMult semiring on an all-ones operand: every lane's product is 1,
    /// so each row scores its lane count.
    #[test]
    fn times_times_identity_operand(
        n in 2usize..30,
        r in 1usize..5,
        picks in prop::collection::vec((0u32..1000, 0u32..1000, 0u32..1000), 1..20),
    ) {
        let heads: Vec<u32> = picks.iter().map(|p| p.0 % n as u32).collect();
        let rels: Vec<u32> = picks.iter().map(|p| p.1 % r as u32).collect();
        let tails: Vec<u32> = picks
            .iter()
            .zip(&heads)
            .map(|(p, &h)| {
                let t = p.2 % n as u32;
                if t == h { (t + 1) % n as u32 } else { t }
            })
            .collect();
        let a = hrt(n, r, &heads, &rels, &tails, TailSign::Positive).unwrap();
        let ones = vec![1.0f32; (n + r) * 3];
        let out = semiring_spmm(Semiring::DistMult, &a, DenseView::new(n + r, 3, &ones));
        for v in out {
            prop_assert_eq!(v, 3.0);
        }
    }

    /// Rotate semiring with the identity rotation and t = h scores zero.
    #[test]
    fn rotate_identity_rotation_scores_zero(h_re in -2.0f32..2.0, h_im in -2.0f32..2.0) {
        // 2 entities + 1 relation, complex dim 1: h = e0, t = e1 = h, r = 1.
        let a = hrt(2, 1, &[0], &[0], &[1], TailSign::Negative).unwrap();
        let emb = [h_re, h_im, h_re, h_im, 1.0, 0.0];
        let out = semiring_spmm(Semiring::RotatE, &a, DenseView::new(3, 2, &emb));
        prop_assert!(out[0] < 1e-4);
    }

    /// Transpose preserves nnz and flips shape for arbitrary matrices.
    #[test]
    fn transpose_preserves_nnz((rows, cols, entries) in triplet_strategy()) {
        let csr = CsrMatrix::from_triplets(rows, cols, entries).unwrap();
        let t = csr.transpose();
        prop_assert_eq!(t.nnz(), csr.nnz());
        prop_assert_eq!((t.rows(), t.cols()), (csr.cols(), csr.rows()));
    }
}
