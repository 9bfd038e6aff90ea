//! Serving-path benchmark: full-scan vs ANN top-K completion latency.
//!
//! A latency report over a Zipf-skewed request stream of 2 000 queries:
//! `p50/p95/p99`, mean and QPS for the exact full scan, the IVF arm at
//! `nprobe` 1–32 (the cost axis of the recall/cost knob) with its recall@10
//! and scan fraction, and the IVF arm behind the query cache with its hit
//! rate. Serving SLOs are percentile-shaped, so every query is timed on its
//! own and summarized by [`LatencySummary`] — the one place in the benches
//! that reads the clock itself.
//!
//! Run with `cargo bench -p sptx-bench --bench serve`.

use std::time::Instant;

use kg::synthetic::SyntheticKgBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sptransx::serve::{
    recall_at_k, IvfConfig, IvfIndex, LatencySummary, ServeEngine, ServeModel, ZipfWorkload,
};
use sptransx::Norm;
use xparallel::PoolHandle;

const K: usize = 10;

/// A serving-scale stacked matrix: clustered entity embeddings (the regime
/// IVF exploits) over a synthetic vocabulary, plus small relation vectors.
fn build_model(entities: usize, relations: usize, dim: usize) -> ServeModel {
    let ds = SyntheticKgBuilder::new(entities, relations)
        .triples(entities)
        .seed(5)
        .build();
    let mut rng = StdRng::seed_from_u64(11);
    let clusters = 64usize;
    let centers: Vec<f32> = (0..clusters * dim)
        .map(|_| rng.gen_range(-3.0f32..3.0))
        .collect();
    let mut stack = vec![0f32; (ds.num_entities + ds.num_relations) * dim];
    for e in 0..ds.num_entities {
        let c = e % clusters;
        for j in 0..dim {
            stack[e * dim + j] = centers[c * dim + j] + rng.gen_range(-0.3f32..0.3);
        }
    }
    for v in &mut stack[ds.num_entities * dim..] {
        *v = rng.gen_range(-0.05f32..0.05);
    }
    ServeModel::from_stacked(stack, ds.num_entities, ds.num_relations, dim, Norm::L2).unwrap()
}

fn build_engine(model: &ServeModel, clusters: usize) -> ServeEngine {
    let index = IvfIndex::build(
        model.embeddings(),
        model.num_entities(),
        model.dim(),
        &IvfConfig {
            clusters,
            iters: 8,
            seed: 3,
        },
        &PoolHandle::global(),
    )
    .unwrap();
    ServeEngine::new(model.clone(), index).unwrap()
}

/// One measured serving run: replay `queries` through an arm, collecting
/// per-query latency samples.
fn run_arm(
    engine: &mut ServeEngine,
    queries: &[sptransx::serve::Query],
    mut answer: impl FnMut(&mut ServeEngine, &sptransx::serve::Query) -> usize,
) -> (LatencySummary, usize) {
    let mut samples = Vec::with_capacity(queries.len());
    let mut scored = 0usize;
    for q in queries {
        let t0 = Instant::now();
        scored += answer(engine, q);
        samples.push(t0.elapsed());
    }
    (LatencySummary::from_samples(&samples).unwrap(), scored)
}

fn fmt(s: &LatencySummary) -> String {
    format!(
        "p50 {:>8.1?}  p95 {:>8.1?}  p99 {:>8.1?}  mean {:>8.1?}  {:>9.0} qps",
        s.p50, s.p95, s.p99, s.mean, s.qps
    )
}

fn main() {
    let model = build_model(20_000, 32, 64);
    let n = model.num_entities();
    let clusters = 128usize;
    let mut wl = ZipfWorkload::new(n, model.num_relations(), 1.1, 33);
    let queries = wl.take(2_000);

    println!(
        "\nserving latency report — {} entities, dim {}, {} clusters, {} Zipf(1.1) queries, k={}",
        n,
        model.dim(),
        clusters,
        queries.len(),
        K
    );

    let mut exact_engine = build_engine(&model, clusters);
    let (exact_lat, _) = run_arm(&mut exact_engine, &queries, |e, q| {
        e.answer_exact(q, K);
        n
    });
    println!("  exact full scan       {}", fmt(&exact_lat));

    // Ground truth for recall: the exact answers.
    let truth: Vec<_> = queries
        .iter()
        .map(|q| exact_engine.answer_exact(q, K))
        .collect();

    for nprobe in [1usize, 2, 4, 8, 16, 32] {
        let mut engine = build_engine(&model, clusters);
        let mut recall_sum = 0.0;
        let mut qi = 0usize;
        let (lat, scored) = run_arm(&mut engine, &queries, |e, q| {
            let ans = e.answer_ann(q, K, nprobe);
            recall_sum += recall_at_k(&truth[qi], &ans.hits);
            qi += 1;
            ans.scored
        });
        println!(
            "  ivf nprobe={:<3}        {}  recall@{} {:.3}  scan {:>5.1}%",
            nprobe,
            fmt(&lat),
            K,
            recall_sum / queries.len() as f64,
            100.0 * scored as f64 / (queries.len() * n) as f64
        );
    }

    // Cached arm: same stream, hot head absorbed by the LRU.
    let mut engine = build_engine(&model, clusters).with_cache(1024);
    let (lat, _) = run_arm(&mut engine, &queries, |e, q| e.answer_ann(q, K, 8).scored);
    let stats = engine.cache_stats().unwrap();
    println!(
        "  ivf nprobe=8 + cache  {}  cache hit rate {:.1}%\n",
        fmt(&lat),
        100.0 * stats.hit_rate()
    );
}
