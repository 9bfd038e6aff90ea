//! Sync-vs-async (Hogwild) training: epoch throughput across a worker
//! sweep, and an epochs-to-quality convergence comparison.
//!
//! `Combine::Shared` removes the per-round all-reduce barrier of
//! `Combine::AllReduce`; this bench quantifies both sides of that trade:
//!
//! * `hogwild/{sync,async}/{1,2,4,8}` — wall time of one epoch under each
//!   combine at each worker count. On a multicore machine the async arm's
//!   epoch throughput meets or beats the sync arm at equal worker count (no
//!   barrier, no gradient reduction); with fewer cores than workers both
//!   arms serialize and the sweep measures pure schedule overhead.
//! * the **convergence sweep** (JSON only) — filtered MRR after 2/4/8
//!   epochs for the sync arm and the 4-worker async arm: staleness and
//!   lost increments perturb the trajectory, so the async arm may need
//!   more epochs to a given MRR; the records show how many.
//!
//! Besides the Criterion report, running this bench writes
//! `BENCH_hogwild.json` (see `sptx_bench::json`): one record per
//! measurement with `arm`, `workers`, `epochs`, `ms_per_epoch`, and `mrr`,
//! to the directory named by `SPTX_BENCH_JSON_DIR` (default `.`). The
//! JSON pass takes `ms_per_epoch` from the trainer's own wall clock —
//! numbers, not Criterion's distribution estimates, so scripts can diff
//! them.
//!
//! Run with `cargo bench -p sptx-bench --bench hogwild`. The async arm is
//! nondeterministic at 2+ workers; MRR records are statistical.

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};
use kg::eval::{EvalConfig, SampleStrategy};
use kg::synthetic::SyntheticKgBuilder;
use kg::Dataset;
use sptransx::{Combine, SpTransE, TrainConfig, Trainer};
use sptx_bench::json::{write_bench_json, JsonObject};
use xparallel::PoolHandle;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
const ARMS: [(&str, Combine); 2] = [("sync", Combine::AllReduce), ("async", Combine::Shared)];

fn dataset() -> Dataset {
    SyntheticKgBuilder::new(2_000, 8)
        .triples(6_000)
        .seed(0xA58C)
        .build()
}

/// One arm's trainer; every measurement below drives it with `run_epochs`,
/// so replica construction is never inside a timed region. Worker count is
/// the variable swept, so a lone replica gets the sequential tape that two
/// or more run on anyway.
fn trainer(ds: &Dataset, workers: usize, combine: Combine) -> Trainer<SpTransE> {
    let config = TrainConfig {
        batch_size: 128,
        dim: 16,
        rel_dim: 8,
        lr: 0.05,
        ..Default::default()
    };
    let trainer = Trainer::replicated(ds, &config, workers, combine, SpTransE::from_config)
        .expect("replicas");
    if workers == 1 {
        trainer.with_pool(PoolHandle::sequential())
    } else {
        trainer
    }
}

fn bench_epoch_throughput(c: &mut Criterion) {
    let ds = dataset();
    let mut group = c.benchmark_group("hogwild");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    for &w in &WORKER_SWEEP {
        for (arm, combine) in ARMS {
            let mut trainer = trainer(&ds, w, combine);
            group.bench_with_input(BenchmarkId::new(arm, w), &w, |b, _| {
                b.iter(|| trainer.run_epochs(1).expect("epoch"));
            });
        }
    }
    group.finish();
}

/// One record per measurement: the worker sweep at fixed epochs (throughput
/// view) plus the epochs sweep at fixed arms (convergence view).
fn emit_json() {
    let ds = dataset();
    let eval = EvalConfig {
        max_triples: Some(500),
        sample: SampleStrategy::Strided,
        ..EvalConfig::default()
    };
    let mut records = Vec::new();
    // Trains `epochs` more epochs (of `total` so far) and records their cost
    // and the quality reached.
    let mut measure = |bench, arm, workers, trainer: &mut Trainer<SpTransE>, epochs, total| {
        let wall = trainer.run_epochs(epochs).expect(arm).wall;
        records.push(
            JsonObject::new()
                .str("bench", bench)
                .str("arm", arm)
                .int("workers", workers as u64)
                .int("epochs", total as u64)
                .num("ms_per_epoch", wall.as_secs_f64() * 1e3 / epochs as f64)
                .num("mrr", f64::from(trainer.evaluate_batched(&ds, &eval).mrr)),
        );
    };

    for &w in &WORKER_SWEEP {
        for (arm, combine) in ARMS {
            measure("throughput", arm, w, &mut trainer(&ds, w, combine), 3, 3);
        }
    }

    // Convergence: quality as a function of epochs, sync vs 4-worker async,
    // read off one trainer per arm as it trains on.
    let mut sync = trainer(&ds, 1, Combine::AllReduce);
    let mut hog = trainer(&ds, 4, Combine::Shared);
    let mut trained = 0;
    for epochs in [2usize, 4, 8] {
        let more = epochs - trained;
        measure("convergence", "sync", 1, &mut sync, more, epochs);
        measure("convergence", "async", 4, &mut hog, more, epochs);
        trained = epochs;
    }

    match write_bench_json("hogwild", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_hogwild.json: {e}"),
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_epoch_throughput(&mut c);
    emit_json();
}
