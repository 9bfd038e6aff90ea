//! The paper's central contrast at kernel grain: **gather + scatter-add**
//! (the baseline's embedding access pattern) versus **SpMM +
//! transpose-SpMM** (SpTransX's). Same embedding rows touched, same math —
//! only the schedule differs.
//!
//! The `row_read/*` arms time the fused score forward over a table far
//! larger than the last-level cache and over one that fits in L2, and print
//! what one random 256-B operand row costs in each: the row-read
//! calibration a cost model needs, and the latency the forward's operand
//! prefetch hides.
//!
//! Run with `cargo bench -p sptx-bench --bench kernels`.

use std::sync::Arc;

use sparse::incidence::{hrt, ht, IncidencePair, TailSign};
use sparse::spmm::spmm_row_acc;
use sptx_bench::harness::{random_triples, time_arm};
use tensor::kernels::scatter_add_rows;
use tensor::{Graph, ParamId, ParamStore, RowScore, Tensor};
use xparallel::PoolHandle;

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
    // SpTransX: grad = Aᵀ · G, one gradient row per column the pair keeps,
    // as the tape's backward sweeps them.
    time_arm(&format!("backward/transpose_spmm/m{m}_d{d}"), None, || {
        let (pair, g) = (&s.pair, s.upstream.view());
        let mut grad = Tensor::zeros(pair.touched_columns().len(), s.d);
        PoolHandle::global().for_rows(grad.as_mut_slice(), s.d, 64, |first, chunk| {
            for (k, dst) in chunk.chunks_exact_mut(s.d).enumerate() {
                let (rows, coeffs) = pair.column(first + k);
                spmm_row_acc(rows, coeffs, &g, 0, dst);
            }
        });
        grad
    });
    // Baseline: scatter-add one row per (h, r, t) occurrence, as three
    // gathers in forward.
    time_arm(&format!("backward/scatter_add/m{m}_d{d}"), None, || {
        let mut grad = Tensor::zeros(s.store.value(s.emb).rows(), s.d);
        scatter_add_rows(&mut grad, &s.gather_idx[..s.m], &s.upstream);
        scatter_add_rows(&mut grad, &s.gather_idx[s.m..2 * s.m], &s.upstream);
        scatter_add_rows(&mut grad, &s.gather_idx[2 * s.m..], &s.upstream);
        grad
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

fn main() {
    bench_forward();
    bench_backward();
    bench_row_read();
}
