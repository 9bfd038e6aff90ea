//! Sync-vs-async (Hogwild) training → `BENCH_hogwild.json` (see
//! `sptx_bench::json`): one record per measurement with `arm`, `workers`,
//! `epochs`, `ms_per_epoch` and `mrr`.
//!
//! `Combine::Shared` removes the per-round all-reduce barrier of
//! `Combine::AllReduce`; two sweeps measure both sides of that trade:
//!
//! * **throughput** — three epochs under each combine at 1, 2, 4 and 8
//!   workers. Both arms fan their replicas out on the one pool, so at most
//!   `SPTX_NUM_THREADS` replicas run at once; beyond that they queue, and
//!   the sweep measures schedule overhead.
//! * **convergence** — filtered MRR after 2/4/8 epochs for the sync arm and
//!   the 4-worker async arm: staleness and lost increments perturb the
//!   trajectory, so the async arm may need more epochs to a given MRR; the
//!   records show how many.
//!
//! `ms_per_epoch` is the trainer's own wall clock over exactly the epochs
//! the record's `mrr` was read after, not `sptx_bench::harness::time_arm`'s
//! minimum: its seven runs would train the model on, and every `sync`
//! record's MRR is deterministic.
//!
//! Run with `SPTX_NUM_THREADS=2 cargo bench -p sptx-bench --bench hogwild`
//! — the one bench run at two threads: at one, both arms run their
//! replicas one after another and there is no parallelism to measure. The
//! async arm is nondeterministic at 2+ workers on 2+ threads; its MRR
//! records are statistical.

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

/// One record per measurement: the worker sweep at fixed epochs (throughput
/// view) plus the epochs sweep at fixed arms (convergence view).
fn main() {
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
