//! Property-based tests of the sparse-matrix substrate: format round-trips,
//! kernel equivalences, semiring laws, and incidence invariants.

use proptest::prelude::*;
use sparse::incidence::{hrt, ht, TailSign};
use sparse::semiring::{semiring_spmm, Semiring};
use sparse::spmm::{coo_spmm, csr_spmm, csr_spmm_into, csr_spmm_into_general, spmm_reference};
use sparse::{CooMatrix, DenseMatrix, DenseView};

/// Arbitrary COO entries within a bounded shape.
fn coo_strategy() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f32)>)> {
    (1usize..25, 1usize..20).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, -4.0f32..4.0);
        (Just(rows), Just(cols), prop::collection::vec(entry, 0..80))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// COO -> CSR -> COO -> CSR reaches a fixed point with duplicates summed.
    #[test]
    fn format_round_trip_fixed_point((rows, cols, entries) in coo_strategy()) {
        let coo = CooMatrix::from_triplets(rows, cols, entries).unwrap();
        let csr1 = coo.to_csr();
        let csr2 = csr1.to_coo().to_csr();
        prop_assert_eq!(csr1, csr2);
    }

    /// Dense materialization commutes with the format conversions.
    #[test]
    fn dense_materialization_commutes((rows, cols, entries) in coo_strategy()) {
        let coo = CooMatrix::from_triplets(rows, cols, entries).unwrap();
        let via_coo = coo.to_dense();
        let via_csr = coo.to_csr().to_dense();
        for (a, b) in via_coo.as_slice().iter().zip(via_csr.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// All four SpMM implementations agree with the naive reference.
    #[test]
    fn all_spmm_kernels_agree(
        (rows, cols, entries) in coo_strategy(),
        d in 1usize..10,
        bseed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(bseed);
        let coo = CooMatrix::from_triplets(rows, cols, entries).unwrap();
        let csr = coo.to_csr();
        let b = DenseMatrix::from_vec(
            cols, d, (0..cols * d).map(|_| rng.gen_range(-1.0..1.0)).collect());

        let want = spmm_reference(&csr, b.view());
        let got_csr = csr_spmm(&csr, &b);
        let got_coo = coo_spmm(&xparallel::PoolHandle::global(), &coo, &b);
        let mut got_general = vec![0f32; rows * d];
        csr_spmm_into_general(&csr, b.view(), &mut got_general);
        let mut got_into = vec![0f32; rows * d];
        csr_spmm_into(&csr, b.view(), &mut got_into);

        for i in 0..rows * d {
            let w = want.as_slice()[i];
            prop_assert!((got_csr.as_slice()[i] - w).abs() < 1e-3);
            prop_assert!((got_coo.as_slice()[i] - w).abs() < 1e-3);
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
    fn transpose_preserves_nnz((rows, cols, entries) in coo_strategy()) {
        let csr = CooMatrix::from_triplets(rows, cols, entries).unwrap().to_csr();
        let t = csr.transpose();
        prop_assert_eq!(t.nnz(), csr.nnz());
        prop_assert_eq!((t.rows(), t.cols()), (csr.cols(), csr.rows()));
    }
}
