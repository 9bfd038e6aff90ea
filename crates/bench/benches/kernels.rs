//! The paper's central contrast at kernel grain: **gather + scatter-add**
//! (the baseline's embedding access pattern) versus **SpMM +
//! transpose-SpMM** (SpTransX's). Same embedding rows touched, same math —
//! only the schedule differs. Both backward arms run the tape's one
//! scatter: the sparse arm fed from the forward CSR, the baseline from its
//! three index lists.
//!
//! The `row_read/*` arms time the fused score forward over a table far
//! larger than the last-level cache and over one that fits in L2, and print
//! what one random 256-B operand row costs in each: the row-read
//! calibration a cost model needs, and the latency the forward's operand
//! prefetch hides.
//!
//! The `calibration: projection` arms time TransR's two projection ops at
//! `train_models`' shape (1 024 batch rows over 100 relations, `k` 32,
//! `d` 64) at each ISA in one process, read from the tape's own
//! `OpRow::time`, and print ns per multiply-add of each op and ns per
//! element of the `Mᵣᵀ` transpose the forward makes once per relation group:
//! the constants of the projection's cost model.
//!
//! The `calibration: hyperplane_score` arm times TransH's fused score and
//! its backward at `train_models`' shape, in ns per batch row: the
//! constants of TransH's per-epoch prediction.
//!
//! Run with `cargo bench -p sptx-bench --bench kernels`.

use std::sync::Arc;

use std::time::Duration;

use sparse::incidence::{hrt, ht, IncidencePair, RelationGroups, TailSign};
use sptx_bench::harness::{random_triples, time_arm, TIMED_RUNS};
use tensor::kernels::{scatter_add_csr, scatter_add_rows, transpose};
use tensor::{Graph, ParamId, ParamStore, RowScore, Tensor};
use xparallel::{Isa, PoolHandle};

struct Setup {
    store: ParamStore,
    emb: ParamId,
    pair: Arc<IncidencePair>,
    /// Heads, then `n_ent +` relations, then tails: the three gathers.
    gather_idx: Vec<u32>,
    upstream: Tensor,
    m: usize,
    d: usize,
}

fn setup(n_ent: usize, n_rel: usize, m: usize, d: usize, seed: u64) -> Setup {
    let (heads, rels, tails) = random_triples(n_ent, n_rel, m, seed);
    let a = hrt(n_ent, n_rel, &heads, &rels, &tails, TailSign::Negative).unwrap();
    let mut store = ParamStore::new();
    let emb = store.add_param("emb", tensor::init::uniform(n_ent + n_rel, d, 1.0, seed));
    let mut gather_idx = heads;
    gather_idx.extend(rels.iter().map(|&r| r + n_ent as u32));
    gather_idx.extend(&tails);
    Setup {
        store,
        emb,
        pair: Arc::new(IncidencePair::new(a)),
        gather_idx,
        upstream: tensor::init::uniform(m, d, 1.0, seed + 1),
        m,
        d,
    }
}

fn bench_forward() {
    for (m, d) in [(4096usize, 128usize), (16384, 64)] {
        let s = setup(20_000, 200, m, d, 7);
        time_arm(&format!("forward/spmm/m{m}_d{d}"), None, || {
            Graph::new().spmm(&s.store, s.emb, s.pair.clone())
        });
        time_arm(&format!("forward/gather_add_sub/m{m}_d{d}"), None, || {
            let mut g = Graph::new();
            let h = g.gather(&s.store, s.emb, s.gather_idx[..s.m].to_vec());
            let r = g.gather(&s.store, s.emb, s.gather_idx[s.m..2 * s.m].to_vec());
            let t = g.gather(&s.store, s.emb, s.gather_idx[2 * s.m..].to_vec());
            let hr = g.add(h, r);
            g.sub(hr, t)
        });
    }
}

fn bench_backward() {
    let (m, d) = (4096usize, 128usize);
    let s = setup(20_000, 200, m, d, 9);
    // Both arms are the tape's one scatter into a table-sized gradient,
    // accumulated run after run; they differ only in the rows they
    // scatter. SpTransX: grad += Aᵀ · G, pushed through the forward CSR.
    let mut grad = Tensor::zeros(s.store.value(s.emb).rows(), s.d);
    time_arm(&format!("backward/transpose_spmm/m{m}_d{d}"), None, || {
        scatter_add_csr(&mut grad, &s.pair.forward, &s.upstream)
    });
    // Baseline: scatter-add one row per (h, r, t) occurrence, as three
    // gathers in forward.
    time_arm(&format!("backward/scatter_add/m{m}_d{d}"), None, || {
        scatter_add_rows(&mut grad, &s.gather_idx[..s.m], &s.upstream);
        scatter_add_rows(&mut grad, &s.gather_idx[s.m..2 * s.m], &s.upstream);
        scatter_add_rows(&mut grad, &s.gather_idx[2 * s.m..], &s.upstream);
    });
}

/// Nanoseconds per operand row of one single-thread fused L1 score forward
/// over `8 192` random `h − t` rows of a `rows × 64` table. Each of the
/// seven runs `time_arm` makes reads a batch no earlier run read, so a row
/// of the large table comes from memory, not from a cache a warm-up filled.
fn bench_row_read() {
    const D: usize = 64;
    const M: usize = 8192;
    // 1 MiB fits in L2; 512 MiB is above the largest last-level cache this
    // was measured on (300 MiB, shared with the other tenants of the host).
    for (label, rows) in [("l2_1mib", 1usize << 12), ("dram_512mib", 1 << 21)] {
        let mut store = ParamStore::new();
        let emb = store.add_param("emb", tensor::init::uniform(rows, D, 1.0, 5));
        let pairs: Vec<_> = (0..7)
            .map(|seed| {
                let (heads, _, tails) = random_triples(rows, 1, M, 100 + seed);
                Arc::new(IncidencePair::new(ht(rows, &heads, &tails).unwrap()))
            })
            .collect();
        let mut next = pairs.iter().cycle();
        let ms = time_arm(&format!("row_read/fused_score/{label}_d{D}"), None, || {
            let pair = next.next().unwrap().clone();
            Graph::with_pool(PoolHandle::sequential()).spmm_score(&store, emb, pair, RowScore::L1)
        });
        println!(
            "row_read/{label}: {:.1} ns per operand row",
            ms * 1e6 / (2 * M) as f64
        );
    }
}

/// TransR's projection at `train_models`' shape, one thread, at each ISA:
/// the cost model's constants. `ns_T` is ns per transposed element of one
/// relation's `k × d` matrix. Each op's ns per multiply-add is its op row's
/// time (the minimum over [`TIMED_RUNS`] tapes after two warm-ups) over its
/// own `flops / 2`; the forward's is also printed net of its transposes
/// (`groups · k·d · ns_T`), the term a per-epoch prediction
/// `flops/2 × ns + transposes × k·d × ns_T` adds back.
fn bench_projection_calibration() {
    const M: usize = 1024;
    const RELS: usize = 100;
    const K: usize = 32;
    const D: usize = 64;
    let (_, rels, _) = random_triples(2, RELS, M, 13);
    let by_rel = Arc::new(RelationGroups::new(RELS, &rels).unwrap());
    let groups = by_rel.relations().len();
    let mut store = ParamStore::new();
    let mats = store.add_param("mats", tensor::init::uniform(RELS, K * D, 0.2, 3));
    let v = tensor::init::uniform(M, D, 1.0, 4);
    for isa in [Some(Isa::BASELINE), Isa::avx2()].into_iter().flatten() {
        let table = store.value(mats).as_slice().to_vec();
        let mut mt = vec![0.0f32; K * D];
        let label = format!(
            "calibration: projection, transpose {RELS} x {K}x{D}, {}",
            isa.name()
        );
        // One dispatch around all of them: the forward runs each group's
        // transpose inside its group's dispatch.
        let ms = time_arm(&label, Some((RELS * K * D) as u64), || {
            isa.run(
                #[inline(always)]
                || {
                    for mat in table.chunks_exact(K * D) {
                        transpose(mat, K, D, &mut mt);
                    }
                    mt[0]
                },
            )
        });
        let ns_t = ms * 1e6 / (RELS * K * D) as f64;
        let ops = ["op::project_rows", "op::project_backward"];
        let best = best_op_rows(isa, &mut store, ops, |g, store| {
            let x = g.input(v.clone());
            let out = g.project_rows(store, mats, x, by_rel.clone(), K);
            let loss = g.mean(out);
            g.backward(loss, store);
        });
        let [(fwd, fwd_flops), (bwd, bwd_flops)] =
            best.map(|(t, flops)| (t.as_secs_f64() * 1e9, flops as f64 / 2.0));
        let transposes_ns = (groups * K * D) as f64 * ns_t;
        println!(
            "calibration: projection at m {M}, {groups} groups, k {K}, d {D}, {}: \
             project_rows {:.3} ms = {:.4} ns/madd ({:.4} net of transposes), \
             project_backward {:.3} ms = {:.4} ns/madd, transpose {:.3} ns/element",
            isa.name(),
            fwd * 1e-6,
            fwd / fwd_flops,
            (fwd - transposes_ns) / fwd_flops,
            bwd * 1e-6,
            bwd / bwd_flops,
            ns_t,
        );
    }
}

/// The fastest time of each op in `ops`, with its flops, over
/// [`TIMED_RUNS`] tapes after two warm-ups, one thread at `isa`: `tape`
/// records one forward and backward on a reset tape and zeroed gradients.
fn best_op_rows<const N: usize>(
    isa: Isa,
    store: &mut ParamStore,
    ops: [&str; N],
    mut tape: impl FnMut(&mut Graph, &mut ParamStore),
) -> [(Duration, u64); N] {
    let mut g = Graph::with_pool(PoolHandle::sequential());
    g.set_isa(isa);
    let mut best = [(Duration::MAX, 0); N];
    for run in 0..2 + TIMED_RUNS {
        g.reset();
        g.clear_ops();
        store.zero_grads();
        tape(&mut g, store);
        for (best, op) in best.iter_mut().zip(ops) {
            let row = g.ops().iter().find(|r| r.name == op).expect("op ran");
            if run >= 2 && row.time < best.0 {
                *best = (row.time, row.flops);
            }
        }
    }
    best
}

/// TransH's fused score at `train_models`' shape (1 024 `ht` rows over
/// 20 000 entities and 100 relations, `d` 64, L2), one thread: ns per batch
/// row of `op::hyperplane_score` and of its backward, read from the tape's
/// own `OpRow::time`. An epoch there scores 2 × 54 000 rows, so
/// `108 000 × (forward + backward)` ns is the cost model's prediction of
/// TransH's op time per epoch. The op is not dispatched through
/// [`Isa::run`], so one ISA is all there is to time.
fn bench_hyperplane_calibration() {
    const M: usize = 1024;
    const ENT: usize = 20_000;
    const RELS: usize = 100;
    const D: usize = 64;
    let (heads, rels, tails) = random_triples(ENT, RELS, M, 17);
    let pair = Arc::new(IncidencePair::new(ht(ENT, &heads, &tails).unwrap()));
    let rels = Arc::new(rels);
    let mut store = ParamStore::new();
    let ent = store.add_param("entities", tensor::init::uniform(ENT, D, 1.0, 5));
    let planes = [("normals", 6), ("translations", 7)]
        .map(|(name, seed)| store.add_param(name, tensor::init::uniform(RELS, D, 0.2, seed)));
    let ops = ["op::hyperplane_score", "op::hyperplane_score_backward"];
    let best = best_op_rows(Isa::BASELINE, &mut store, ops, |g, store| {
        let score = RowScore::L2 { eps: 1e-9 };
        let s = g.hyperplane_score(store, ent, pair.clone(), planes, rels.clone(), score);
        let loss = g.mean(s);
        g.backward(loss, store);
    });
    let [fwd, bwd] = best.map(|(t, _)| t.as_secs_f64() * 1e9 / M as f64);
    println!(
        "calibration: hyperplane_score at m {M}, d {D}: forward {fwd:.1} ns/row, \
         backward {bwd:.1} ns/row, predicted {:.2} ms per train_models epoch",
        108_000.0 * (fwd + bwd) * 1e-6,
    );
}

fn main() {
    bench_forward();
    bench_backward();
    bench_row_read();
    bench_projection_calibration();
    bench_hyperplane_calibration();
}
