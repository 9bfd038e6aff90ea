//! Finite-difference gradient checking.
//!
//! Every backward rule on the tape (and, transitively, the Appendix G claim
//! that SpMM backward is `Aᵀ`-SpMM) is validated by comparing analytic
//! parameter gradients with central finite differences of the loss. The
//! Appendix D scores are one rule, [`crate::Graph::semiring_score`], checked
//! under each of its three lane descriptions, self-loop rows included.

use crate::{ParamId, ParamStore, Tensor, Var};

/// Result of one gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_diff: f32,
    /// Largest relative difference (guarded by `1e-3` denominators).
    pub max_rel_diff: f32,
    /// Number of coordinates checked.
    pub coords: usize,
}

impl GradCheckReport {
    /// Whether the check passed at the given absolute/relative tolerances.
    pub fn passes(&self, atol: f32, rtol: f32) -> bool {
        self.max_abs_diff <= atol || self.max_rel_diff <= rtol
    }
}

/// Checks the analytic gradient of `param` against central differences.
///
/// `build` must construct the loss graph from the store and return the
/// scalar loss node; it is invoked `2 · |param| + 1` times, so keep the
/// parameter small in tests. `h` is the perturbation step (`1e-3` is a good
/// default for `f32`).
///
/// # Panics
///
/// Panics if `build` returns a non-scalar node.
pub fn check_param<F>(store: &mut ParamStore, param: ParamId, h: f32, build: F) -> GradCheckReport
where
    F: Fn(&mut crate::Graph, &ParamStore) -> Var,
{
    // Analytic gradient.
    store.zero_grads();
    let mut g = crate::Graph::new();
    let loss = build(&mut g, store);
    g.backward(loss, store);
    let analytic = Tensor::from_view(store.grad(param));

    // Numeric gradient by central differences.
    let (rows, cols) = store.value(param).shape();
    let mut numeric = Tensor::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let orig = store.value(param).get(i, j);

            store.value_mut(param).set(i, j, orig + h);
            let mut gp = crate::Graph::new();
            let lp = build(&mut gp, store);
            let fp = gp.value(lp).get(0, 0);

            store.value_mut(param).set(i, j, orig - h);
            let mut gm = crate::Graph::new();
            let lm = build(&mut gm, store);
            let fm = gm.value(lm).get(0, 0);

            store.value_mut(param).set(i, j, orig);
            numeric.set(i, j, (fp - fm) / (2.0 * h));
        }
    }

    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    for (a, n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
        let abs = (a - n).abs();
        let rel = abs / a.abs().max(n.abs()).max(1e-3);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    GradCheckReport {
        max_abs_diff: max_abs,
        max_rel_diff: max_rel,
        coords: rows * cols,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, RowScore};
    use sparse::incidence::IncidencePair;
    use sparse::incidence::{hrt, ht, selection, TailSign};
    use sparse::semiring::Semiring;
    use std::sync::Arc;

    fn small_store(rows: usize, cols: usize, seed: u64) -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let p = s.add_param("p", init::uniform(rows, cols, 1.0, seed));
        (s, p)
    }

    #[test]
    fn gather_l2_gradcheck() {
        let (mut s, p) = small_store(5, 3, 1);
        let report = check_param(&mut s, p, 1e-3, |g, store| {
            let x = g.gather(store, store.lookup("p").unwrap(), vec![0, 2, 4, 2]);
            let n = g.score_rows(x, RowScore::L2 { eps: 1e-9 });
            g.mean(n)
        });
        assert!(report.passes(1e-2, 1e-2), "{report:?}");
    }

    #[test]
    fn spmm_hrt_gradcheck() {
        let (mut s, p) = small_store(6, 3, 2); // 4 entities + 2 relations
        let pair = Arc::new(IncidencePair::new(
            hrt(4, 2, &[0, 3], &[1, 0], &[2, 1], TailSign::Negative).unwrap(),
        ));
        let report = check_param(&mut s, p, 1e-3, move |g, store| {
            let x = g.spmm(store, store.lookup("p").unwrap(), Arc::clone(&pair));
            let n = g.score_rows(x, RowScore::SquaredL2);
            g.mean(n)
        });
        assert!(report.passes(1e-2, 1e-2), "{report:?}");
    }

    #[test]
    fn transh_composition_gradcheck() {
        // Gradient through row_dot + scale_rows + sub + add.
        let mut s = ParamStore::new();
        let ent = s.add_param("ent", init::uniform(4, 3, 0.8, 3));
        let _w = s.add_param("w", init::uniform(2, 3, 0.8, 4));
        let _d = s.add_param("d", init::uniform(2, 3, 0.3, 5));
        let pair = Arc::new(IncidencePair::new(ht(4, &[0, 1], &[2, 3]).unwrap()));
        let build = move |g: &mut crate::Graph, store: &ParamStore| {
            let ent = store.lookup("ent").unwrap();
            let w = store.lookup("w").unwrap();
            let d = store.lookup("d").unwrap();
            let htv = g.spmm(store, ent, Arc::clone(&pair));
            let wv = g.gather(store, w, vec![0, 1]);
            let dv = g.gather(store, d, vec![0, 1]);
            let dot = g.row_dot(wv, htv);
            let proj = g.scale_rows(wv, dot);
            let tmp = g.sub(htv, proj);
            let expr = g.add(tmp, dv);
            let n = g.score_rows(expr, RowScore::SquaredL2);
            g.mean(n)
        };
        for name in ["ent", "w", "d"] {
            let pid = s.lookup(name).unwrap();
            let report = check_param(&mut s, pid, 1e-3, &build);
            assert!(report.passes(2e-2, 2e-2), "{name}: {report:?}");
        }
        let _ = ent;
    }

    #[test]
    fn project_rows_gradcheck_both_params() {
        let mut s = ParamStore::new();
        let _ent = s.add_param("ent", init::uniform(4, 2, 0.9, 6));
        let _mats = s.add_param("mats", init::uniform(2, 3 * 2, 0.7, 7)); // 2 rels, 3x2 mats
        let pair = Arc::new(IncidencePair::new(ht(4, &[0, 1], &[2, 3]).unwrap()));
        let by_rel = Arc::new(IncidencePair::new(selection(2, &[1, 0]).unwrap()));
        let build = move |g: &mut crate::Graph, store: &ParamStore| {
            let ent = store.lookup("ent").unwrap();
            let mats = store.lookup("mats").unwrap();
            let htv = g.spmm(store, ent, Arc::clone(&pair));
            let proj = g.project_rows(store, mats, htv, Arc::clone(&by_rel), 3);
            let n = g.score_rows(proj, RowScore::SquaredL2);
            g.mean(n)
        };
        for name in ["ent", "mats"] {
            let pid = s.lookup(name).unwrap();
            let report = check_param(&mut s, pid, 1e-3, &build);
            assert!(report.passes(2e-2, 2e-2), "{name}: {report:?}");
        }
    }

    /// Gradient of `mean(semiring_score)` under `kind` over a 3-entity,
    /// 2-relation table `cols` floats wide.
    fn semiring_gradcheck(
        kind: Semiring,
        cols: usize,
        seed: u64,
        (heads, rels, tails): (&[u32], &[u32], &[u32]),
        sign: TailSign,
    ) {
        let (mut s, p) = small_store(5, cols, seed);
        let pair = Arc::new(IncidencePair::new(
            hrt(3, 2, heads, rels, tails, sign).unwrap(),
        ));
        let report = check_param(&mut s, p, 1e-3, move |g, store| {
            let score = g.semiring_score(store, store.lookup("p").unwrap(), pair.clone(), kind);
            g.mean(score)
        });
        assert!(report.passes(2e-2, 2e-2), "{kind:?} {sign:?}: {report:?}");
    }

    #[test]
    fn triple_product_row_sum_gradcheck() {
        // DistMult scoring path: Σ_j h_j r_j t_j differentiated through the
        // semiring forward walk and the transpose-traversal backward.
        let triples: (&[u32], &[u32], &[u32]) = (&[0, 2], &[0, 1], &[1, 0]);
        semiring_gradcheck(Semiring::DistMult, 3, 21, triples, TailSign::Positive);
    }

    #[test]
    fn rotate_score_gradcheck() {
        // Complex parameter: complex dim 2 (4 interleaved floats per row).
        let triples: (&[u32], &[u32], &[u32]) = (&[0, 2], &[0, 1], &[1, 0]);
        semiring_gradcheck(Semiring::RotatE, 4, 31, triples, TailSign::Negative);
    }

    #[test]
    fn complex_score_gradcheck() {
        let triples: (&[u32], &[u32], &[u32]) = (&[0, 1], &[1, 0], &[2, 0]);
        semiring_gradcheck(Semiring::ComplEx, 4, 32, triples, TailSign::Negative);
    }

    #[test]
    fn semiring_score_gradcheck_with_a_self_loop_row() {
        // Row 1 is `(e2, r1, e2)`: `hrt` merges it into two stored entries,
        // and `e2`'s gradient row takes the head and the tail partial. `e2`
        // is also an ordinary head (row 0) and tail (row 2).
        let triples: (&[u32], &[u32], &[u32]) = (&[2, 2, 0], &[0, 1, 1], &[1, 2, 2]);
        for kind in Semiring::ALL {
            let cols = 2 * kind.lane_width();
            semiring_gradcheck(kind, cols, 41, triples, TailSign::Negative);
        }
        semiring_gradcheck(Semiring::DistMult, 3, 42, triples, TailSign::Positive);
    }

    #[test]
    fn margin_loss_gradcheck() {
        let (mut s, p) = small_store(6, 2, 8);
        let report = check_param(&mut s, p, 1e-3, |g, store| {
            let pid = store.lookup("p").unwrap();
            let pos = g.gather(store, pid, vec![0, 1, 2]);
            let neg = g.gather(store, pid, vec![3, 4, 5]);
            let ps = g.score_rows(pos, RowScore::L2 { eps: 1e-9 });
            let ns = g.score_rows(neg, RowScore::L2 { eps: 1e-9 });
            g.margin_ranking_loss(ps, ns, 0.5)
        });
        // Hinge is piecewise-linear; tolerate kinks.
        assert!(report.passes(5e-2, 5e-2), "{report:?}");
    }

    #[test]
    fn l1_and_torus_gradchecks() {
        let (mut s, p) = small_store(3, 4, 9);
        let report = check_param(&mut s, p, 1e-4, |g, store| {
            let pid = store.lookup("p").unwrap();
            let x = g.gather(store, pid, vec![0, 1, 2]);
            let n = g.score_rows(x, RowScore::L1);
            g.mean(n)
        });
        assert!(report.passes(5e-2, 5e-2), "L1: {report:?}");

        let report = check_param(&mut s, p, 1e-4, |g, store| {
            let pid = store.lookup("p").unwrap();
            let x = g.gather(store, pid, vec![0, 1, 2]);
            let n = g.score_rows(x, RowScore::TorusL2Sq);
            g.mean(n)
        });
        assert!(report.passes(5e-2, 5e-2), "torus L2²: {report:?}");
    }
}
