//! The paper's twelve artifacts — Figures 2 and 5–9, Tables 1 and 5–9 — as
//! one table, [`ARTIFACTS`], that the `paper` binary runs by name:
//!
//! ```console
//! $ cargo run --release -p sptx-bench --bin paper -- table6   # one artifact
//! $ cargo run --release -p sptx-bench --bin paper -- all      # all twelve
//! $ cargo run --release -p sptx-bench --bin paper -- list     # names and captions
//! ```
//!
//! Every artifact runs on synthetic stand-ins shaped like the paper's
//! datasets, at the scale and epochs of `SPTX_SCALE` and `SPTX_EPOCHS` (see
//! [`crate::harness`]), and prints its tables and the shape the paper's
//! claim predicts. Figures 7 and 8 and Tables 5 and 6 all read the Table-4
//! grid — four models × sparse/dense × seven datasets — so a [`Sweep`] trains
//! each cell of it at most once per invocation and keeps the reports.

use std::cell::OnceCell;
use std::collections::HashMap;

use kg::eval::{evaluate_batched, EvalConfig, Popularity};
use kg::synthetic::{PaperDatasetSpec, COVID19_SPEC, PAPER_DATASETS};
use kg::{BatchPlan, Dataset, UniformSampler};
use simcache::trace::compare_kernels;
use sparse::incidence::{hrt, TailSign};
use sptransx::{Breakdown, Combine::AllReduce, SpTransE, TrainConfig, TrainReport, Trainer};
use xparallel::PoolHandle;

use crate::harness::{
    bench_config, epochs_from_env, factor, mib, print_table, run_model, scale_from_env, secs,
    ModelKind, Variant,
};

/// One of the paper's figures or tables.
pub struct Artifact {
    /// The name `paper` runs it by.
    pub name: &'static str,
    /// What the paper's artifact shows.
    pub caption: &'static str,
    /// Prints the artifact's tables to stdout, progress to stderr.
    pub run: fn(&mut Sweep),
}

/// Rows of [`ARTIFACTS`], `name: caption`: each artifact is named after the
/// function that prints it.
macro_rules! artifacts {
    ($($run:ident: $caption:literal,)*) => {
        [$(Artifact { name: stringify!($run), caption: $caption, run: $run },)*]
    };
}

/// The twelve artifacts, in the order `paper all` runs them.
pub const ARTIFACTS: [Artifact; 12] = artifacts! {
    figure2: "Most CPU-intensive functions per model/dataset",
    figure5: "Filtered Hits@10 vs embedding size",
    figure6: "Training time & peak memory vs batch size",
    figure7: "Total training time, all datasets × models, both thread configs",
    figure8: "Forward/backward/step breakdown per model",
    figure9: "Loss curves, sparse vs dense (Appendix E)",
    table1: "TransE time breakdown",
    table5: "Peak training memory",
    table6: "FLOP counts",
    table7: "Cache-miss rates (via `simcache`)",
    table8: "Hits@10 mean ± std over 9 seeds (Appendix E)",
    table9: "Data-parallel scaling (Appendix F)",
};

/// The artifacts `arg` names: one by its name, or all twelve for `all`.
///
/// # Errors
///
/// A message listing the valid names when `arg` is neither.
pub fn select(arg: &str) -> Result<&'static [Artifact], String> {
    let names = ARTIFACTS.map(|a| a.name).join(", ");
    match ARTIFACTS.iter().position(|a| a.name == arg) {
        _ if arg == "all" => Ok(&ARTIFACTS),
        Some(i) => Ok(std::slice::from_ref(&ARTIFACTS[i])),
        None => Err(format!(
            "unknown artifact {arg:?}; expected all, list or one of: {names}"
        )),
    }
}

/// The pool a Table-4 cell trains on: the paper's one-thread "CPU" arm or
/// its all-core "GPU" analog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pool {
    OneThread,
    AllCores,
}

impl Pool {
    fn handle(self) -> PoolHandle {
        match self {
            Pool::OneThread => PoolHandle::sequential(),
            Pool::AllCores => PoolHandle::global(),
        }
    }
}

/// One invocation's settings and what its artifacts share: the seven
/// dataset stand-ins, generated on first use, and the reports of the
/// Table-4 grid, each `(pool, model, variant, dataset)` cell trained on
/// first use and at most once.
pub struct Sweep {
    /// Divisor of the paper's dataset sizes.
    scale: usize,
    /// Training epochs per measurement.
    epochs: usize,
    datasets: OnceCell<Vec<(PaperDatasetSpec, Dataset)>>,
    reports: HashMap<(Pool, ModelKind, Variant), Vec<TrainReport>>,
}

impl Sweep {
    /// An empty sweep at the scale and epochs of `SPTX_SCALE` and
    /// `SPTX_EPOCHS`.
    ///
    /// # Errors
    ///
    /// As [`scale_from_env`].
    pub fn from_env() -> Result<Self, String> {
        Ok(Self::new(scale_from_env()?, epochs_from_env()?))
    }

    fn new(scale: usize, epochs: usize) -> Self {
        Self {
            scale,
            epochs,
            datasets: OnceCell::new(),
            reports: HashMap::new(),
        }
    }

    /// Prints an artifact's `# title` line with the scale and epochs it runs
    /// at.
    fn heading(&self, title: &str) {
        println!("# {title} (scale 1/{}, {} epochs)", self.scale, self.epochs);
    }

    /// The scaled stand-in for the paper's dataset `name`, drawn from `seed`.
    fn stand_in(&self, name: &str, seed: u64) -> Dataset {
        let spec = PaperDatasetSpec::by_name(name).expect("known dataset");
        spec.generate(self.scale, seed)
    }

    /// The scaled stand-ins for the paper's seven datasets (Table 3).
    fn datasets(&self) -> &[(PaperDatasetSpec, Dataset)] {
        let generate = |spec: &PaperDatasetSpec| (*spec, spec.generate(self.scale, 0xBEEF));
        self.datasets
            .get_or_init(|| PAPER_DATASETS.iter().map(generate).collect())
    }

    /// The reports of `kind`/`variant` under its Table-4 configuration on
    /// `pool`, one per dataset in [`PAPER_DATASETS`] order.
    fn table4(&mut self, pool: Pool, kind: ModelKind, variant: Variant) -> &[TrainReport] {
        let key = (pool, kind, variant);
        if !self.reports.contains_key(&key) {
            let config = kind.table4(self.epochs);
            let reports = (self.datasets().iter())
                .map(|(spec, ds)| {
                    eprintln!("[table4] {pool:?} {kind:?} {variant:?} {} ...", spec.name);
                    run_model(kind, variant, ds, &config, &pool.handle()).1
                })
                .collect();
            self.reports.insert(key, reports);
        }
        &self.reports[&key]
    }
}

fn figure2(sweep: &mut Sweep) {
    sweep.heading("Figure 2 — top op-level time consumers");
    println!("\nBaseline (gather/scatter) variants are profiled, as in the paper.");

    let cfg = bench_config(32, 16, 2048, sweep.epochs);
    for ds_name in ["FB13", "FB15K"] {
        let ds = sweep.stand_in(ds_name, 0xF16 + ds_name.len() as u64);
        for kind in ModelKind::ALL {
            let (_, mut report) = run_model(kind, Variant::Dense, &ds, &cfg, &PoolHandle::global());
            let total = report.breakdown.total().as_secs_f64().max(1e-9);
            report.ops.sort_by_key(|e| std::cmp::Reverse(e.time));
            let rows: Vec<Vec<String>> = (report.ops.iter())
                .map(|e| {
                    let share = format!("{:.1}%", 100.0 * e.time.as_secs_f64() / total);
                    vec![e.name.to_string(), share, e.calls.to_string()]
                })
                .collect();
            let model = kind.name();
            print_table(
                &format!("{model} ({ds_name}) — ops by share of training time"),
                &["Function (op)", "Share", "Calls"],
                &rows,
            );
        }
    }
    println!("\nExpected shape: gather_backward (the scatter of Figure 1b) ranks near the");
    println!("top for TransE/TransR/TransH; the torus dissimilarity op joins it for TorusE.");
}

/// Trains `kind`/`variant` on `ds` on every core: its filtered Hits@10.
fn hits10(
    kind: ModelKind,
    variant: Variant,
    ds: &Dataset,
    cfg: &TrainConfig,
    eval: &EvalConfig,
) -> f32 {
    let (trainer, _) = run_model(kind, variant, ds, cfg, &PoolHandle::global());
    trainer.evaluate_batched(ds, eval).hits(10).unwrap_or(0.0)
}

/// Prints what ranking candidates by training-set degree scores on `ds`
/// under `eval`: the line a model has to beat to have learned anything.
fn print_popularity(ds: &Dataset, eval: &EvalConfig) {
    let popularity = Popularity::new(&ds.train, ds.num_entities);
    let report = evaluate_batched(&popularity, &ds.test, &ds.all_known(), eval);
    let (hits, mrr) = (report.hits(10).unwrap_or(0.0), report.mrr);
    println!("\nPopularity baseline (training-set degree): Hits@10 {hits:.3}, MRR {mrr:.3}");
}

fn figure5(sweep: &mut Sweep) {
    let scale = sweep.scale;
    let epochs = sweep.epochs.max(10);
    println!("# Figure 5 — Hits@10 vs embedding size (FB15K stand-in, scale 1/{scale})");
    let ds = sweep.stand_in("FB15K", 0x5EED);
    let eval = EvalConfig {
        max_triples: Some(200),
        ..Default::default()
    };

    let rows = [4usize, 8, 16, 32, 64, 128].map(|dim| {
        let cfg = TrainConfig {
            lr: 0.3,
            ..bench_config(dim, dim.min(8), 2048, epochs)
        };
        eprintln!("[figure5] dim={dim} ...");
        let hits = ModelKind::ALL.map(|kind| hits10(kind, Variant::Sparse, &ds, &cfg, &eval));
        let mut row = vec![dim.to_string()];
        row.extend(hits.iter().map(|h| format!("{h:.3}")));
        row
    });
    print_table(
        "Filtered Hits@10 by embedding size",
        &["Dim", "TransE", "TransR", "TransH", "TorusE"],
        &rows,
    );
    print_popularity(&ds, &eval);
    println!("\nExpected shape: monotone-increasing then saturating curves.");
}

fn figure6(sweep: &mut Sweep) {
    sweep.heading("Figure 6 — time & peak memory vs batch size");
    let ds = sweep.stand_in("FB15K", 0xBA7C);

    for kind in ModelKind::ALL {
        let rows = [64usize, 128, 256, 512, 1024, 2048, 4096].map(|bs| {
            let cfg = bench_config(128, 8, bs, sweep.epochs);
            eprintln!("[figure6] {} bs={bs} ...", kind.name());
            let (_, r) = run_model(kind, Variant::Sparse, &ds, &cfg, &PoolHandle::global());
            vec![bs.to_string(), secs(r.wall), mib(r.peak_memory_bytes)]
        });
        print_table(
            &format!("{} — SpTransX, dim 128", kind.name()),
            &["Batch size", "Train time (s)", "Peak memory (MiB)"],
            &rows,
        );
    }
    println!("\nExpected shape: time falls and memory rises as batch size grows.");
}

fn figure7(sweep: &mut Sweep) {
    sweep.heading("Figure 7 — total training time");
    for (mode_name, pool) in [
        ("(a) CPU — 1 thread", Pool::OneThread),
        ("(b) GPU analog — all cores", Pool::AllCores),
    ] {
        for kind in ModelKind::ALL {
            let [sparse, dense] = [Variant::Sparse, Variant::Dense].map(|variant| {
                let reports = sweep.table4(pool, kind, variant);
                reports.iter().map(|r| r.wall).collect::<Vec<_>>()
            });
            let rows: Vec<Vec<String>> = (PAPER_DATASETS.iter().zip(sparse).zip(dense))
                .map(|((spec, sp), de)| {
                    let slowdown = factor(sp.as_secs_f64(), de.as_secs_f64());
                    vec![spec.name.to_string(), secs(sp), secs(de), slowdown]
                })
                .collect();
            print_table(
                &format!("{mode_name} — {}", kind.name()),
                &[
                    "Dataset",
                    "SpTransX (s)",
                    "Baseline (s)",
                    "Baseline slowdown",
                ],
                &rows,
            );
        }
    }
    println!("\nExpected shape: slowdown factors > 1 everywhere; largest for TransE,");
    println!("smallest for TorusE; consistent across datasets for a given model.");
}

fn figure8(sweep: &mut Sweep) {
    sweep.heading("Figure 8 — phase breakdown averaged over datasets");
    let n = PAPER_DATASETS.len() as u32;
    let mut rows = Vec::new();
    for kind in ModelKind::ALL {
        for variant in [Variant::Sparse, Variant::Dense] {
            let reports = sweep.table4(Pool::AllCores, kind, variant);
            let sum = (reports.iter()).fold(Breakdown::default(), |sum, r| sum + r.breakdown);
            let phases = [sum.forward, sum.backward, sum.step, sum.total()];
            let mut row = vec![kind.name().to_string(), variant.name().to_string()];
            row.extend(phases.map(|t| secs(t / n)));
            rows.push(row);
        }
    }
    print_table(
        "Mean seconds per dataset",
        &["Model", "Variant", "Forward", "Backward", "Step", "Total"],
        &rows,
    );
    println!("\nExpected shape: SpTransX rows dominate the baseline rows in forward and");
    println!("backward columns; the step column is close between variants.");
}

fn figure9(sweep: &mut Sweep) {
    let scale = sweep.scale;
    let epochs = sweep.epochs.max(8);
    println!("# Figure 9 — loss curves, sparse vs non-sparse (WN18 stand-in, scale 1/{scale})");
    let ds = sweep.stand_in("WN18", 0xF19);

    for kind in ModelKind::ALL {
        // A high rate for visible convergence within few epochs.
        let cfg = TrainConfig {
            lr: 0.05,
            ..bench_config(16, 8, 2048, epochs)
        };
        eprintln!("[figure9] {} ...", kind.name());
        let [sp, de] = [Variant::Sparse, Variant::Dense]
            .map(|variant| run_model(kind, variant, &ds, &cfg, &PoolHandle::global()).1);
        let rows: Vec<Vec<String>> = (sp.epoch_losses.iter().zip(&de.epoch_losses))
            .enumerate()
            .map(|(e, (a, b))| vec![e.to_string(), format!("{a:.5}"), format!("{b:.5}")])
            .collect();
        print_table(
            &format!("{} — margin loss per epoch", kind.name()),
            &["Epoch", "SpTransX", "Baseline"],
            &rows,
        );
    }
    println!("\nExpected shape: per-model curves coincide and decrease.");
}

fn table1(sweep: &mut Sweep) {
    sweep.heading("Table 1 — TransE time breakdown");
    let datasets = sweep.datasets();
    let cfg = bench_config(64, 32, 4096, sweep.epochs);

    for (mode_name, pool) in [
        ("CPU (1 thread)", Pool::OneThread),
        ("GPU analog (all cores)", Pool::AllCores),
    ] {
        let mut sums = [Breakdown::default(); 2];
        for (spec, ds) in datasets {
            eprintln!("[table1/{mode_name}] {} ...", spec.name);
            for (sum, variant) in sums.iter_mut().zip([Variant::Sparse, Variant::Dense]) {
                let (_, report) = run_model(ModelKind::TransE, variant, ds, &cfg, &pool.handle());
                *sum = *sum + report.breakdown;
            }
        }
        let n = datasets.len() as u32;
        let [sp, de] = sums;
        let rows = [
            ("Forward", sp.forward, de.forward),
            ("Backward", sp.backward, de.backward),
            ("Step", sp.step, de.step),
        ]
        .map(|(phase, s, d)| vec![phase.to_string(), secs(s / n), secs(d / n)]);
        print_table(
            &format!("{mode_name} — mean seconds per dataset"),
            &["Phase", "Sparse", "Non-Sparse (baseline)"],
            &rows,
        );
    }
}

/// Tables 5 and 6: per model, the mean over the seven datasets of one
/// counter of the all-core Table-4 reports, in each variant, and the
/// baseline's overhead. Returns each model's two means, sparse first.
fn print_variant_means(
    sweep: &mut Sweep,
    title: &str,
    counter: fn(&TrainReport) -> u64,
    format: fn(u64) -> String,
) -> [(ModelKind, [u64; 2]); 4] {
    let means = ModelKind::ALL.map(|kind| {
        let mut mean = |variant| {
            let reports = sweep.table4(Pool::AllCores, kind, variant);
            reports.iter().map(counter).sum::<u64>() / reports.len() as u64
        };
        (kind, [mean(Variant::Sparse), mean(Variant::Dense)])
    });
    let rows = means.map(|(kind, [sp, de])| {
        let overhead = factor(sp as f64, de as f64);
        vec![kind.name().to_string(), format(sp), format(de), overhead]
    });
    print_table(
        title,
        &["Model", "SpTransX", "Baseline", "Baseline overhead"],
        &rows,
    );
    means
}

fn table5(sweep: &mut Sweep) {
    sweep.heading("Table 5 — average peak tensor memory");
    let means = print_variant_means(
        sweep,
        "Mean peak memory (MiB)",
        |r| r.peak_memory_bytes,
        mib,
    );
    let overhead = |(_, [sp, de]): &(ModelKind, [u64; 2])| *de as f64 / (*sp).max(1) as f64;
    let top = means.iter().map(overhead).fold(0.0, f64::max);
    let largest = means.iter().filter(|m| overhead(m) == top);
    let largest: Vec<&str> = largest.map(|(kind, _)| kind.name()).collect();
    println!(
        "\nPaper's expectation: SpTransX < Baseline for every model; largest factor on TransH."
    );
    println!(
        "Largest factor in this run: {} ({top:.1}x).",
        largest.join(", ")
    );
}

fn table6(sweep: &mut Sweep) {
    sweep.heading("Table 6 — average FLOP count");
    print_variant_means(
        sweep,
        "Mean GFLOPs per training run",
        TrainReport::flops,
        |flops| format!("{:.2}", flops as f64 / 1e9),
    );
    println!("\nExpected shape: SpTransX ≤ Baseline for every model.");
}

fn table7(sweep: &mut Sweep) {
    let scale = sweep.scale;
    println!("# Table 7 — simulated cache miss rates (scale 1/{scale})");
    let (dim, batch) = (128, 4096);
    // The mean of `total` over `count`, as a percentage.
    let percent = |total: f64, count: f64| format!("{:.2}%", 100.0 * total / count);
    let mut rows = Vec::new();
    let mut sums = (0.0f64, 0.0f64);
    for (spec, ds) in sweep.datasets() {
        eprintln!("[table7] {} ...", spec.name);
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, batch, 77);
        let b = plan.batch(0);
        let (n_ent, n_rel) = (ds.num_entities, ds.num_relations);
        let (heads, rels, tails) = (b.pos.heads(), b.pos.rels(), b.pos.tails());
        let incidence =
            hrt(n_ent, n_rel, heads, rels, tails, TailSign::Negative).expect("validated batch");
        let cmp = compare_kernels(&incidence, dim);
        let (sp, gs) = (cmp.spmm_miss_rate, cmp.gather_scatter_miss_rate);
        sums = (sums.0 + sp, sums.1 + gs);
        rows.push(vec![
            spec.name.to_string(),
            percent(sp, 1.0),
            percent(gs, 1.0),
        ]);
    }
    let n = PAPER_DATASETS.len() as f64;
    rows.push(vec![
        "AVERAGE".into(),
        percent(sums.0, n),
        percent(sums.1, n),
    ]);
    print_table(
        &format!("L1+L2 overall miss rate, batch {batch}, dim {dim}"),
        &[
            "Dataset",
            "SpMM pipeline (SpTransX)",
            "Gather/scatter pipeline (baseline)",
        ],
        &rows,
    );
    println!("\nExpected shape: SpMM pipeline ≤ gather/scatter pipeline on average");
    println!("(the paper's Table 7 rows, modest single-digit percentage gaps).");
}

/// Table 8's training seeds.
const SEEDS: [u64; 9] = [11, 22, 33, 44, 55, 66, 77, 88, 99];

fn table8(sweep: &mut Sweep) {
    let scale = sweep.scale;
    let epochs = sweep.epochs.max(10);
    let seeds = SEEDS.len();
    println!("# Table 8 — Hits@10 over {seeds} seeds (WN18 stand-in, scale 1/{scale})");
    let ds = sweep.stand_in("WN18", 0x88);
    let eval = EvalConfig {
        max_triples: Some(150),
        ..Default::default()
    };
    let base = TrainConfig {
        lr: 0.3,
        lr_schedule: Some((5, 0.7)),
        ..bench_config(32, 16, 2048, epochs)
    };

    let rows = ModelKind::ALL.map(|kind| {
        let [sp, de] = [Variant::Sparse, Variant::Dense].map(|variant| {
            let hits = SEEDS.map(|seed| {
                eprintln!("[table8] {kind:?}/{variant:?} seed {seed} ...");
                let mut cfg = base.clone();
                cfg.seed = seed;
                f64::from(hits10(kind, variant, &ds, &cfg, &eval))
            });
            let mean = hits.iter().sum::<f64>() / seeds as f64;
            let var = hits.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / seeds as f64;
            format!("{mean:.3} ± {:.4}", var.sqrt())
        });
        vec![kind.name().to_string(), de, sp]
    });
    print_table(
        "Filtered Hits@10 (mean ± std over seeds)",
        &["Model", "Baseline (TorchKGE-style)", "SpTransX"],
        &rows,
    );
    print_popularity(&ds, &eval);
    println!("\nExpected shape: overlapping intervals — the sparse formulation is");
    println!("accuracy-neutral (paper reports equal or slightly better Hits@10).");
}

fn table9(sweep: &mut Sweep) {
    let (scale, epochs) = (sweep.scale, sweep.epochs);
    println!("# Table 9 — data-parallel scaling on the COVID-19 stand-in (scale 1/{scale})");
    let ds = COVID19_SPEC.generate(scale, 0xC0FFEE);
    let (entities, relations, triples) = (ds.num_entities, ds.num_relations, ds.total_triples());
    println!("\nGraph: {entities} entities, {relations} relations, {triples} triples");
    let cfg = bench_config(64, 16, 2048, epochs);

    let widest = xparallel::current_num_threads().clamp(2, 16);
    let mut rows = Vec::new();
    let mut baseline = None;
    for w in [1, 2, 4, 8, 16].into_iter().filter(|&w| w <= widest) {
        eprintln!("[table9] {w} workers ...");
        // The replicas fan out on the pool, each tape sequential, so worker
        // count — up to the pool's size — is the variable being swept.
        let report = Trainer::replicated(&ds, &cfg, w, AllReduce, SpTransE::from_config)
            .and_then(|mut t| t.run())
            .expect("distributed training");
        let (wall, steps) = (report.wall, report.steps);
        let t = wall.as_secs_f64();
        let speedup = format!("{:.2}x", *baseline.get_or_insert(t) / t);
        rows.push(vec![w.to_string(), secs(wall), speedup, steps.to_string()]);
    }
    print_table(
        &format!("SpTransE, {epochs} epochs"),
        &["Workers", "Time (s)", "Speedup vs 1 worker", "Sync steps"],
        &rows,
    );
    println!("\nExpected shape: monotone speedup with diminishing returns (Table 9's");
    println!("706s -> 180s over 4 -> 64 GPUs is a ~3.9x gain over 16x more hardware).");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_names_twelve_artifacts_once_each_as_the_readme_does() {
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 12, "{names:?}");

        // The README's artifact table: rows "| `name` | caption |" of its
        // "Reproducing the paper's figures and tables" section.
        let readme = include_str!("../../../README.md");
        let section = readme
            .split("\n## Reproducing the paper's figures and tables")
            .nth(1)
            .expect("README section");
        let section = section.split("\n## ").next().unwrap();
        let mut documented: Vec<&str> = (section.lines())
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect();
        documented.sort_unstable();
        assert_eq!(documented, unique);
    }

    #[test]
    fn select_takes_one_name_or_all() {
        assert_eq!(select("all").unwrap().len(), 12);
        let one = select("table6").unwrap();
        assert_eq!((one.len(), one[0].name), (1, "table6"));
    }

    #[test]
    fn the_table4_artifacts_share_one_sweep() {
        let mut sweep = Sweep::new(4000, 1);
        for run in [figure8, table5, table6] {
            run(&mut sweep);
        }
        // Two variants of four models on the all-core pool, each over the
        // seven datasets, trained once for all three artifacts.
        assert_eq!(sweep.reports.len(), 8);
        assert!(sweep.reports.values().all(|r| r.len() == 7));
    }
}
