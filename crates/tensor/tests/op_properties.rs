//! Property-based tests of the autograd ops: linearity of the tape and
//! gradient-accumulation semantics. (The memory-accounting invariant reads a
//! process-global counter and lives alone in `memory_accounting.rs`.)

use std::sync::Arc;

use proptest::prelude::*;
use sparse::incidence::{selection, IncidencePair};
use tensor::{Graph, ParamStore, RowScore, Tensor};
use xparallel::PoolHandle;

fn small_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..8, 1usize..8)
        .prop_flat_map(|(m, n)| (Just(m), Just(n), prop::collection::vec(-3.0f32..3.0, m * n)))
}

/// A TransR-shaped projection problem: `((R, d_out, d_in), rels, mats, vecs,
/// weights)` with dimensions on both sides of the kernels' 16-wide tile and
/// up to four 32-row chunks for a wide pool to split.
#[allow(clippy::type_complexity)]
fn projection_problem() -> impl Strategy<
    Value = (
        (usize, usize, usize),
        Vec<u32>,
        Vec<f32>,
        Vec<f32>,
        Vec<f32>,
    ),
> {
    (1usize..7, 1usize..140, 1usize..36, 1usize..36).prop_flat_map(|(r, m, d_out, d_in)| {
        (
            Just((r, d_out, d_in)),
            prop::collection::vec(0u32..r as u32, m),
            prop::collection::vec(-2.0f32..2.0, r * d_out * d_in),
            prop::collection::vec(-2.0f32..2.0, m * d_in),
            prop::collection::vec(-1.0f32..1.0, m * d_out),
        )
    })
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `project_rows` and both halves of its backward equal the plain
    /// per-element loops bit for bit, at any pool width: blocking by
    /// relation and vectorizing across outputs reorders which element is
    /// computed when, never the sum inside an element.
    #[test]
    fn projection_matches_plain_loops_at_any_width(
        ((r, d_out, d_in), rels, mats, vecs, weights) in projection_problem()
    ) {
        let m = rels.len();
        let mat = |i: usize| &mats[rels[i] as usize * d_out * d_in..][..d_out * d_in];
        let by_rel = Arc::new(IncidencePair::new(selection(r, &rels).unwrap()));
        for width in [1, 4, 8] {
            let mut store = ParamStore::new();
            let p = store.add_param("mats", Tensor::from_vec(r, d_out * d_in, mats.clone()));
            let mut g = Graph::with_pool(PoolHandle::global().with_width(width));
            let x = g.input_from_slice(m, d_in, &vecs);
            let out = g.project_rows(&store, p, x, by_rel.clone(), d_out);
            let w = g.input_from_slice(m, d_out, &weights);
            let weighted = g.mul(out, w);
            let loss = g.mean(weighted);
            g.backward(loss, &mut store);

            let mut want = vec![0.0f32; m * d_out];
            for i in 0..m {
                for o in 0..d_out {
                    let mut acc = 0.0;
                    for j in 0..d_in {
                        acc += mat(i)[o * d_in + j] * vecs[i * d_in + j];
                    }
                    want[i * d_out + o] = acc;
                }
            }
            prop_assert_eq!(bits(g.value(out).as_slice()), bits(&want), "forward, width {}", width);

            let up = g.grad(out).unwrap().as_slice();
            let mut dv = vec![0.0f32; m * d_in];
            let mut dm = vec![0.0f32; r * d_out * d_in];
            for i in 0..m {
                for j in 0..d_in {
                    let mut acc = 0.0;
                    for o in 0..d_out {
                        acc += mat(i)[o * d_in + j] * up[i * d_out + o];
                    }
                    // The node-gradient accumulate on a fresh buffer.
                    dv[i * d_in + j] = 0.0 + 1.0 * acc;
                }
                let dmat = &mut dm[rels[i] as usize * d_out * d_in..][..d_out * d_in];
                for o in 0..d_out {
                    for j in 0..d_in {
                        dmat[o * d_in + j] += up[i * d_out + o] * vecs[i * d_in + j];
                    }
                }
            }
            prop_assert_eq!(bits(g.grad(x).unwrap().as_slice()), bits(&dv), "dv, width {}", width);
            prop_assert_eq!(bits(store.grad(p).as_slice()), bits(&dm), "dM, width {}", width);
        }
    }

    /// add/sub/mul forward values match elementwise arithmetic.
    #[test]
    fn elementwise_forward_laws((m, n, data) in small_matrix()) {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(m, n, data.clone()));
        let b = g.input(Tensor::from_vec(m, n, data.iter().map(|x| x * 0.5 + 1.0).collect()));
        let sum = g.add(a, b);
        let diff = g.sub(sum, b);
        // (a + b) - b == a.
        for (x, y) in g.value(diff).as_slice().iter().zip(&data) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        let prod = g.mul(a, b);
        for (got, x) in g.value(prod).as_slice().iter().zip(&data) {
            let want = x * (x * 0.5 + 1.0);
            prop_assert!((got - want).abs() < 1e-3);
        }
    }

    /// Gradient of mean(gather) counts row multiplicity.
    #[test]
    fn gather_gradient_counts_multiplicity(
        rows in 2usize..6,
        cols in 1usize..5,
        picks in prop::collection::vec(0u32..6, 1..12),
    ) {
        let picks: Vec<u32> = picks.into_iter().map(|p| p % rows as u32).collect();
        let mut store = ParamStore::new();
        let p = store.add_param("p", Tensor::full(rows, cols, 1.0));
        let mut g = Graph::new();
        let x = g.gather(&store, p, picks.clone());
        let loss = g.mean(x);
        g.backward(loss, &mut store);
        let scale = 1.0 / (picks.len() * cols) as f32;
        for r in 0..rows {
            let mult = picks.iter().filter(|&&i| i as usize == r).count() as f32;
            for j in 0..cols {
                let got = store.grad(p).get(r, j);
                prop_assert!((got - mult * scale).abs() < 1e-5,
                    "row {} mult {}: got {}", r, mult, got);
            }
        }
    }

    /// Backward of `scale` is linear: grad(c·x) = c · grad(x).
    #[test]
    fn scale_backward_linearity((m, n, data) in small_matrix(), c in -3.0f32..3.0) {
        let run = |scale: f32| {
            let mut store = ParamStore::new();
            let p = store.add_param("p", Tensor::from_vec(m, n, data.clone()));
            let mut g = Graph::new();
            let x = g.gather(&store, p, (0..m as u32).collect::<Vec<u32>>());
            let y = g.scale(x, scale);
            let loss = g.mean(y);
            g.backward(loss, &mut store);
            store.grad(p).as_slice().to_vec()
        };
        let base = run(1.0);
        let scaled = run(c);
        for (b, s) in base.iter().zip(&scaled) {
            prop_assert!((c * b - s).abs() < 1e-4);
        }
    }

    /// Gradients accumulate across backward calls until zero_grads.
    #[test]
    fn gradients_accumulate_until_cleared((m, n, data) in small_matrix()) {
        let mut store = ParamStore::new();
        let p = store.add_param("p", Tensor::from_vec(m, n, data));
        let backward_once = |store: &mut ParamStore| {
            let mut g = Graph::new();
            let x = g.gather(store, p, (0..m as u32).collect::<Vec<u32>>());
            let loss = g.mean(x);
            g.backward(loss, store);
        };
        backward_once(&mut store);
        let once = store.grad(p).as_slice().to_vec();
        backward_once(&mut store);
        for (g2, g1) in store.grad(p).as_slice().iter().zip(&once) {
            prop_assert!((g2 - 2.0 * g1).abs() < 1e-5);
        }
        store.zero_grads();
        prop_assert!(store.grad(p).as_slice().iter().all(|&x| x == 0.0));
    }

    /// Row norms: L1 ≥ L2 ≥ 0 and both are absolutely homogeneous.
    #[test]
    fn norm_inequalities((m, n, data) in small_matrix()) {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(m, n, data));
        let l1 = g.score_rows(x, RowScore::L1);
        let l2 = g.score_rows(x, RowScore::L2 { eps: 1e-9 });
        for i in 0..m {
            let a = g.value(l1).get(i, 0);
            let b = g.value(l2).get(i, 0);
            prop_assert!(a + 1e-5 >= b, "L1 {} < L2 {}", a, b);
            prop_assert!(b >= 0.0);
        }
    }
}
