//! Ranking-throughput micro-benchmark: link-prediction evaluation through
//! the batched, pool-parallel engine.
//!
//! Two arms, measured at the pool's width on a ≥10k-entity synthetic KG:
//!
//! * `scalar-adapter` — scalar `TripleScorer` scoring through the engine via
//!   `ScalarBatch` (one heap-allocated `Vec` per query; ranking is chunked,
//!   filter-list-based and pool-parallel).
//! * `batched` — native `BatchScorer` scoring: every query vector of a chunk
//!   up front, one pool-parallel pass over a reused score buffer, then the
//!   pool-parallel ranking pass.
//!
//! Throughput is reported in ranking queries per second (2 queries — tail +
//! head — per test triple); each label ends in the pool width (`/t2`). The
//! evaluation engine runs on the global pool and takes no handle, so the
//! width is swept one process per width:
//!
//! ```sh
//! for t in 1 2 4; do SPTX_NUM_THREADS=$t cargo bench -p sptx-bench --bench eval; done
//! ```
//!
//! A width only differentiates on a machine with that many physical cores;
//! on a single-core container both arms collapse to one schedule and only
//! the per-query allocation the batched arm saves remains visible.

use kg::eval::{evaluate, evaluate_batched, EvalConfig};
use kg::synthetic::SyntheticKgBuilder;
use sptransx::{SpTransE, TrainConfig};
use sptx_bench::harness::time_arm;

const NUM_ENTITIES: usize = 10_000;
const EVAL_TRIPLES: usize = 64;

fn main() {
    let ds = SyntheticKgBuilder::new(NUM_ENTITIES, 20)
        .triples(NUM_ENTITIES * 4)
        .test_frac(0.01)
        .seed(0x5EED)
        .build();
    let known = ds.all_known();
    let cfg = TrainConfig {
        dim: 32,
        ..Default::default()
    };
    // Untrained weights: evaluation cost does not depend on embedding values.
    let model = SpTransE::from_config(&ds, &cfg).expect("model");
    let eval = EvalConfig {
        max_triples: Some(EVAL_TRIPLES),
        ..Default::default()
    };
    let queries = Some(2 * EVAL_TRIPLES as u64);

    let threads = xparallel::current_num_threads();
    time_arm(&format!("scalar-adapter/t{threads}"), queries, || {
        evaluate(&model, &ds.test, &known, &eval)
    });
    time_arm(&format!("batched/t{threads}"), queries, || {
        evaluate_batched(&model, &ds.test, &known, &eval)
    });
}
