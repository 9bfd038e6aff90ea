//! Cross-crate property-based tests (proptest) of the core invariants:
//! incidence-SpMM correctness against direct arithmetic, Appendix G's
//! backward identity, torus-metric geometry, and ranking-protocol bounds.

use proptest::prelude::*;
use sparse::incidence::{hrt, ht, IncidencePair, TailSign};
use sparse::spmm::{csr_spmm, spmm_reference};
use sparse::{CsrMatrix, DenseView};
use tensor::{ParamStore, Tensor};

/// Generated batch: `(n_entities, n_relations, triples, embeddings, dim)`.
type TripleBatch = (usize, usize, Vec<(u32, u32, u32)>, Vec<f32>, usize);

/// Strategy: a batch of valid (h, r, t) triples with h != t over small
/// entity/relation universes, plus an embedding matrix.
fn triples_and_embeddings() -> impl Strategy<Value = TripleBatch> {
    (2usize..30, 1usize..6, 1usize..40, 1usize..12).prop_flat_map(|(n, r, m, d)| {
        let triple = (0..n as u32, 0..r as u32, 0..n as u32).prop_map(move |(h, rel, t)| {
            let t = if t == h { (t + 1) % n as u32 } else { t };
            (h, rel, t)
        });
        (
            Just(n),
            Just(r),
            prop::collection::vec(triple, m),
            prop::collection::vec(-2.0f32..2.0, (n + r) * d),
            Just(d),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// hrt-SpMM equals elementwise h + r − t for arbitrary batches.
    #[test]
    fn hrt_spmm_matches_direct_arithmetic(
        (n, r, triples, emb, d) in triples_and_embeddings()
    ) {
        let heads: Vec<u32> = triples.iter().map(|t| t.0).collect();
        let rels: Vec<u32> = triples.iter().map(|t| t.1).collect();
        let tails: Vec<u32> = triples.iter().map(|t| t.2).collect();
        let a = hrt(n, r, &heads, &rels, &tails, TailSign::Negative).unwrap();
        let c = csr_spmm(&a, DenseView::new(n + r, d, &emb));
        for (i, &(h, rel, t)) in triples.iter().enumerate() {
            for j in 0..d {
                let want = emb[h as usize * d + j]
                    + emb[(n + rel as usize) * d + j]
                    - emb[t as usize * d + j];
                prop_assert!((c[i * d + j] - want).abs() < 1e-4);
            }
        }
    }

    /// ht-SpMM equals h − t.
    #[test]
    fn ht_spmm_matches_direct_arithmetic(
        (n, _r, triples, emb, d) in triples_and_embeddings()
    ) {
        let heads: Vec<u32> = triples.iter().map(|t| t.0).collect();
        let tails: Vec<u32> = triples.iter().map(|t| t.2).collect();
        let a = ht(n, &heads, &tails).unwrap();
        let c = csr_spmm(&a, DenseView::new(n, d, &emb[..n * d]));
        for (i, &(h, _, t)) in triples.iter().enumerate() {
            for j in 0..d {
                let want = emb[h as usize * d + j] - emb[t as usize * d + j];
                prop_assert!((c[i * d + j] - want).abs() < 1e-4);
            }
        }
    }

    /// Appendix G: for any incidence matrix and upstream gradient, the
    /// autograd SpMM backward equals the dense matrix product AᵀG.
    #[test]
    fn spmm_backward_is_transpose_product(
        (n, r, triples, emb, d) in triples_and_embeddings()
    ) {
        let heads: Vec<u32> = triples.iter().map(|t| t.0).collect();
        let rels: Vec<u32> = triples.iter().map(|t| t.1).collect();
        let tails: Vec<u32> = triples.iter().map(|t| t.2).collect();
        let a = hrt(n, r, &heads, &rels, &tails, TailSign::Negative).unwrap();
        let m = a.rows();

        let mut store = ParamStore::new();
        let p = store.add_param("emb", Tensor::from_vec(n + r, d, emb));
        let pair = std::sync::Arc::new(IncidencePair::new(a.clone()));
        let mut g = tensor::Graph::new();
        let out = g.spmm(&store, p, pair);
        // Loss = mean of all outputs -> upstream gradient 1/(m·d) everywhere.
        let loss = g.mean(out);
        g.backward(loss, &mut store);

        let ad = a.to_dense();
        let gv = 1.0 / (m * d) as f32;
        let grad = store.grad(p);
        for col in 0..n + r {
            // (Aᵀ · G)[col][j] = Σ_i A[i][col] · gv — same for every j.
            let mut want = 0.0f32;
            for i in 0..m {
                want += ad[i * (n + r) + col] * gv;
            }
            for j in 0..d {
                prop_assert!((grad.row(col)[j] - want).abs() < 1e-4,
                    "col {} j {}: {} vs {}", col, j, grad.row(col)[j], want);
            }
        }
    }

    /// CSR transpose is an involution and preserves the dense matrix.
    #[test]
    fn transpose_involution(
        entries in prop::collection::vec((0usize..20, 0usize..15, -3.0f32..3.0), 0..60)
    ) {
        let csr = CsrMatrix::from_triplets(20, 15, entries).unwrap();
        prop_assert_eq!(csr.transpose().transpose(), csr.clone());
        // And SpMM with the transpose matches the reference on the transpose.
        let b: Vec<f32> = (0..60).map(|i| i as f32 * 0.1).collect();
        let b = DenseView::new(20, 3, &b);
        let t = csr.transpose();
        let got = csr_spmm(&t, b);
        let want = spmm_reference(&t, b);
        for (x, y) in got.iter().zip(&want) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Torus distances are invariant under integer shifts and bounded by the
    /// torus diameter.
    #[test]
    fn torus_metric_geometry(
        a in prop::collection::vec(-10.0f32..10.0, 1..16),
        shift in -5i32..5,
    ) {
        use sptransx::Norm;
        let b = vec![0.0f32; a.len()];
        let d1 = Norm::TorusL1.distance(&a, &b);
        let shifted: Vec<f32> = a.iter().map(|x| x + shift as f32).collect();
        let d2 = Norm::TorusL1.distance(&shifted, &b);
        prop_assert!((d1 - d2).abs() < 1e-3 * a.len() as f32);
        // Per-component torus L1 distance is at most 0.5.
        prop_assert!(d1 <= 0.5 * a.len() as f32 + 1e-5);
        let dsq = Norm::TorusL2.distance(&a, &b);
        prop_assert!(dsq <= 0.25 * a.len() as f32 + 1e-5);
    }

    /// Ranking protocol: ranks are in [1, N] and MRR in (0, 1].
    #[test]
    fn evaluation_bounds(scores in prop::collection::vec(0.0f32..10.0, 2..50)) {
        use kg::eval::{evaluate, EvalConfig, TripleScorer};
        use kg::{Triple, TripleSet, TripleStore};
        struct S(Vec<f32>);
        impl TripleScorer for S {
            fn score_tails(&self, _: u32, _: u32) -> Vec<f32> { self.0.clone() }
            fn score_heads(&self, _: u32, _: u32) -> Vec<f32> { self.0.clone() }
            fn num_entities(&self) -> usize { self.0.len() }
        }
        let n = scores.len() as u32;
        let test: TripleStore = [Triple::new(0, 0, n - 1)].into_iter().collect();
        let known = TripleSet::from_stores([&test]);
        let report = evaluate(&S(scores), &test, &known, &EvalConfig::default());
        prop_assert!(report.mean_rank >= 1.0);
        prop_assert!(report.mean_rank <= n as f32);
        prop_assert!(report.mrr > 0.0 && report.mrr <= 1.0);
    }
}
