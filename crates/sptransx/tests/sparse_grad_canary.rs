//! Untouched rows are **never written** by the sparse gradient pipeline.
//!
//! Strategy: fill every parameter row the batch cannot reach with a canary
//! bit pattern (values *and* gradients), run forward/backward/optimizer
//! steps through the touched-row path, and assert the canary bits survive
//! untouched — while `tensor::memory::alloc_count` stays flat, proving the
//! sparse sweeps neither materialize dense temporaries nor fall back to a
//! full-table pass.
//!
//! ONE test fn on purpose: `alloc_count()` is process-global and sibling
//! tests in the same binary run concurrently (see
//! `tests/alloc_regression.rs` for the same convention).

use std::sync::Arc;

use sparse::incidence::{hrt, IncidencePair, TailSign};
use tensor::optim::{Adagrad, Optimizer, Sgd};
use tensor::{memory, Graph, ParamStore, RowScore, Tensor};

/// A value no training arithmetic produces: exact bits we can assert on.
const CANARY: f32 = -1234.5678;

#[test]
fn untouched_rows_keep_canary_bits_and_sparse_steps_do_not_allocate() {
    // 64 entities + 4 relations stacked, dim 6. The batch only references
    // entities 0..8 and relation 0 (column 64): rows 8..64 and 65..68 are
    // unreachable.
    let (n, r, d) = (64usize, 4usize, 6usize);
    let mut store = ParamStore::new();
    // Varied init: a uniform fill would make the pos/neg gradient
    // contributions cancel exactly and leave nothing to train.
    let mut init = Tensor::zeros(n + r, d);
    for i in 0..n + r {
        for j in 0..d {
            init.set(i, j, 0.02 * (i as f32 + 1.0) + 0.003 * j as f32);
        }
    }
    let row0_before: Vec<u32> = init.row(0).iter().map(|x| x.to_bits()).collect();
    let emb = store.add_param("embeddings", init);
    let touched_max = 8u32;

    // Canary every unreachable row's value; gradients start zero (the
    // touched-row invariant) but we canary a *copy* to diff against.
    for row in touched_max as usize..n {
        store.value_mut(emb).row_mut(row).fill(CANARY);
    }
    for row in n + 1..n + r {
        store.value_mut(emb).row_mut(row).fill(CANARY);
    }

    let heads: Vec<u32> = vec![0, 1, 2, 3];
    let rels: Vec<u32> = vec![0, 0, 0, 0];
    let tails: Vec<u32> = vec![4, 5, 6, 7];
    let neg_tails: Vec<u32> = vec![5, 6, 7, 4];
    let pos = Arc::new(IncidencePair::new(
        hrt(n, r, &heads, &rels, &tails, TailSign::Negative).unwrap(),
    ));
    let neg = Arc::new(IncidencePair::new(
        hrt(n, r, &heads, &rels, &neg_tails, TailSign::Negative).unwrap(),
    ));

    let mut graph = Graph::new();
    let mut sgd = Sgd::new(0.05);
    let mut adagrad = Adagrad::new(0.05);

    let step = |graph: &mut Graph, store: &mut ParamStore, opt: &mut dyn Optimizer| {
        store.zero_grads();
        graph.reset();
        let pe = graph.spmm(store, emb, pos.clone());
        let ps = graph.score_rows(pe, RowScore::L2 { eps: 1e-9 });
        // A gather rides along so the scatter-add path is exercised too.
        let ge = graph.gather(store, emb, heads.clone());
        let gs = graph.score_rows(ge, RowScore::L2 { eps: 1e-9 });
        let extra = graph.scale(gs, 0.0);
        let ne = graph.spmm(store, emb, neg.clone());
        let ns0 = graph.score_rows(ne, RowScore::L2 { eps: 1e-9 });
        let ns = graph.add(ns0, extra);
        let loss = graph.margin_ranking_loss(ps, ns, 5.0);
        graph.backward(loss, store);
        opt.step(store);
    };

    // Warm-up batch populates the graph arena, the row-set capacity, and
    // the Adagrad state; everything after it must be allocation-free.
    step(&mut graph, &mut store, &mut sgd);
    step(&mut graph, &mut store, &mut adagrad);

    let allocs_before = memory::alloc_count();
    for _ in 0..5 {
        step(&mut graph, &mut store, &mut sgd);
        step(&mut graph, &mut store, &mut adagrad);
    }
    assert_eq!(
        memory::alloc_count(),
        allocs_before,
        "steady-state sparse steps must not allocate tensor buffers \
         (a dense temporary or full-table fallback would)"
    );

    // The row set is sparse and bounded by the batch's reach.
    let rows = store
        .touched(emb)
        .as_slice()
        .expect("tracked training must keep the row set sparse");
    assert!(!rows.is_empty());
    assert!(
        rows.iter().all(|&row| row < touched_max || row == n as u32),
        "row set {rows:?} exceeds the batch's reach"
    );

    // Canary check: every unreachable value row still holds the exact
    // canary bits, and every unreachable gradient row is exact +0.0.
    let canary_bits = CANARY.to_bits();
    let value = store.value(emb);
    let grad = store.grad(emb);
    for row in (touched_max as usize..n).chain(n + 1..n + r) {
        for (j, x) in value.row(row).iter().enumerate() {
            assert_eq!(
                x.to_bits(),
                canary_bits,
                "value row {row} col {j} was written by the sparse pipeline"
            );
        }
        for (j, g) in grad.row(row).iter().enumerate() {
            assert_eq!(
                g.to_bits(),
                0f32.to_bits(),
                "grad row {row} col {j} is not exact +0.0"
            );
        }
    }
    // Touched rows did train (the canary test is not vacuous).
    assert!(value
        .row(0)
        .iter()
        .zip(&row0_before)
        .any(|(x, before)| x.to_bits() != *before));
}
