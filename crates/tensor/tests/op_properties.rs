//! Property-based tests of the autograd ops: linearity of the tape and
//! gradient-accumulation semantics. (The memory-accounting invariant reads a
//! process-global counter and lives alone in `memory_accounting.rs`.)

use proptest::prelude::*;
use tensor::{Graph, ParamStore, Tensor};

fn small_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..8, 1usize..8)
        .prop_flat_map(|(m, n)| (Just(m), Just(n), prop::collection::vec(-3.0f32..3.0, m * n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
        let l1 = g.l1_norm_rows(x);
        let l2 = g.l2_norm_rows(x, 1e-9);
        for i in 0..m {
            let a = g.value(l1).get(i, 0);
            let b = g.value(l2).get(i, 0);
            prop_assert!(a + 1e-5 >= b, "L1 {} < L2 {}", a, b);
            prop_assert!(b >= 0.0);
        }
    }
}
