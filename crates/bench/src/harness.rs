//! Dataset preparation, model dispatch, and table formatting shared by the
//! per-figure benchmark binaries, and the one estimator ([`time_arm`]) and
//! fixtures every bench in `benches/` times through.
//!
//! Every binary accepts two environment knobs:
//!
//! * `SPTX_SCALE` — divisor applied to the paper's dataset sizes
//!   (default 200; `1` reproduces full-size graphs, which takes hours);
//! * `SPTX_EPOCHS` — training epochs per measurement (default 5; the paper
//!   uses 200).

use kg::synthetic::{PaperDatasetSpec, COVID19_SPEC, PAPER_DATASETS};
use kg::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse::incidence::{hrt, TailSign};
use sparse::{CsrMatrix, DenseMatrix};
use sptransx::{AnyModel, Registered, TrainConfig, TrainReport, Trainer};
use xparallel::PoolHandle;

/// Default dataset scale divisor.
pub const DEFAULT_SCALE: usize = 200;
/// Default epochs per measurement.
pub const DEFAULT_EPOCHS: usize = 5;

/// Reads `SPTX_SCALE`.
pub fn scale_from_env() -> usize {
    std::env::var("SPTX_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(DEFAULT_SCALE)
}

/// Reads `SPTX_EPOCHS`.
pub fn epochs_from_env() -> usize {
    std::env::var("SPTX_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&e| e >= 1)
        .unwrap_or(DEFAULT_EPOCHS)
}

/// Individually timed runs behind every [`time_arm`] figure.
pub const TIMED_RUNS: u32 = 5;

/// The crate's one estimator and its one line printer: runs `run` twice
/// untimed, then [`TIMED_RUNS`] times timed, prints
/// `label: X ms (min of 5)` — plus `elements` per second when given — and
/// returns the minimum in milliseconds.
///
/// For a training epoch the first warm-up pays the first-touch
/// renormalization (all rows start dirty — a full-table page-through when
/// paged) and the arena growth; the second runs with the caches that sweep
/// evicted refilled, so the timed epochs are the ones a long run repeats.
/// The minimum, not the mean: on a shared machine noise only adds time.
pub fn time_arm<T>(label: &str, elements: Option<u64>, mut run: impl FnMut() -> T) -> f64 {
    std::hint::black_box(run());
    std::hint::black_box(run());
    let ms = (0..TIMED_RUNS)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(run());
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    let rate = elements.map_or(String::new(), |n| {
        format!(", {:.3e} elem/s", n as f64 * 1e3 / ms)
    });
    println!("{label}: {ms:.3} ms (min of {TIMED_RUNS}){rate}");
    ms
}

/// `m` random `(heads, rels, tails)` over `n_ent` entities and `n_rel`
/// relations, with no self-loop: the index lists of one training batch.
pub fn random_triples(
    n_ent: usize,
    n_rel: usize,
    m: usize,
    seed: u64,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let heads: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n_ent as u32)).collect();
    let tails: Vec<u32> = (heads.iter())
        .map(|&h| match rng.gen_range(0..n_ent as u32) {
            t if t == h => (t + 1) % n_ent as u32,
            t => t,
        })
        .collect();
    let rels: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n_rel as u32)).collect();
    (heads, rels, tails)
}

/// The `hrt` incidence matrix of [`random_triples`]: one batch's SpMM
/// operand over the stacked `(n_ent + n_rel)`-row table.
pub fn incidence(n_ent: usize, n_rel: usize, m: usize, sign: TailSign, seed: u64) -> CsrMatrix {
    let (heads, rels, tails) = random_triples(n_ent, n_rel, m, seed);
    hrt(n_ent, n_rel, &heads, &rels, &tails, sign).expect("indices in range")
}

/// A `rows × cols` matrix of uniform values in `[-1, 1)`.
pub fn dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    DenseMatrix::from_vec(rows, cols, data)
}

/// The four models of the paper's headline evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// TransE (`h + r − t`).
    TransE,
    /// TransR (relation-space projection).
    TransR,
    /// TransH (hyperplane translation).
    TransH,
    /// TorusE (wraparound metric).
    TorusE,
}

impl ModelKind {
    /// All four, in the paper's column order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::TransE,
        ModelKind::TransR,
        ModelKind::TransH,
        ModelKind::TorusE,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::TransE => "TransE",
            ModelKind::TransR => "TransR",
            ModelKind::TransH => "TransH",
            ModelKind::TorusE => "TorusE",
        }
    }
}

/// Sparse (SpTransX) or dense-baseline implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The paper's contribution.
    Sparse,
    /// The gather/scatter baseline (TorchKGE-style).
    Dense,
}

impl Variant {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Sparse => "SpTransX",
            Variant::Dense => "Baseline",
        }
    }
}

impl ModelKind {
    /// The registered family of `kind` in `variant`.
    pub fn registered(self, variant: Variant) -> &'static Registered {
        let suffix = match variant {
            Variant::Sparse => "",
            Variant::Dense => "-dense",
        };
        let key = format!("{}{suffix}", self.name().to_ascii_lowercase());
        Registered::find(&key).expect("every paper model is registered in both variants")
    }
}

/// Trains `kind`/`variant` on `dataset` with every kernel on `pool` and
/// returns the report (`PoolHandle::sequential()` is the paper's one-thread
/// "CPU" arm, `PoolHandle::global()` every core).
///
/// # Panics
///
/// Panics on configuration errors (benchmark configs are controlled).
pub fn run_model(
    kind: ModelKind,
    variant: Variant,
    dataset: &Dataset,
    config: &TrainConfig,
    pool: &PoolHandle,
) -> TrainReport {
    trained(kind.registered(variant), dataset, config, pool).1
}

/// Trains `model` on `dataset` with every kernel on `pool`: the trainer,
/// which holds the trained model, and its report.
///
/// # Panics
///
/// Panics on configuration errors (benchmark configs are controlled).
pub fn trained(
    model: &Registered,
    dataset: &Dataset,
    config: &TrainConfig,
    pool: &PoolHandle,
) -> (Trainer<Box<dyn AnyModel>>, TrainReport) {
    let model = (model.build)(dataset, config).expect("benchmark config must be valid");
    let trainer = Trainer::new(model, dataset, config).expect("plan construction");
    let mut trainer = trainer.with_pool(pool.clone());
    let report = trainer.run().expect("training");
    (trainer, report)
}

/// Generates the scaled stand-ins for the paper's seven datasets (Table 3).
pub fn paper_datasets(scale: usize) -> Vec<(PaperDatasetSpec, Dataset)> {
    PAPER_DATASETS
        .iter()
        .map(|spec| (*spec, spec.generate(scale, 0xBEEF)))
        .collect()
}

/// Generates the scaled COVID-19 graph of Appendix F.
pub fn covid_dataset(scale: usize) -> Dataset {
    COVID19_SPEC.generate(scale, 0xC0FFEE)
}

/// A benchmark TrainConfig with the paper's optimizer settings (§5.3) and a
/// per-run dimension/batch override.
pub fn bench_config(dim: usize, rel_dim: usize, batch_size: usize, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size,
        dim,
        rel_dim,
        lr: 4e-4,
        margin: 0.5,
        ..Default::default()
    }
}

/// Prints a row-major text table with a header and aligned columns.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> = header
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:<w$}", h, w = widths[i]))
        .collect();
    println!("| {} |", line.join(" | "));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("| {} |", cells.join(" | "));
    }
}

/// Formats a duration in seconds with two decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a byte count in MiB with two decimals.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a speedup/slowdown factor like the paper's bar labels.
pub fn factor(base: f64, other: f64) -> String {
    if base <= 0.0 {
        return "-".to_string();
    }
    format!("{:.1}x", other / base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_dispatch_trains_every_pair() {
        let spec = PaperDatasetSpec::by_name("WN18RR").unwrap();
        let ds = spec.generate(2000, 1);
        let cfg = bench_config(8, 4, 64, 1);
        for kind in ModelKind::ALL {
            for variant in [Variant::Sparse, Variant::Dense] {
                let report = run_model(kind, variant, &ds, &cfg, &PoolHandle::global());
                assert_eq!(report.epoch_losses.len(), 1, "{kind:?}/{variant:?}");
            }
        }
    }

    #[test]
    fn time_arm_warms_up_twice_then_keeps_the_fastest_of_five() {
        let mut runs = 0;
        let ms = time_arm("count", Some(1), || runs += 1);
        assert_eq!(runs, 2 + TIMED_RUNS);
        assert!(ms.is_finite() && ms >= 0.0);
    }

    #[test]
    fn fixtures_are_seeded_and_self_loop_free() {
        let (heads, rels, tails) = random_triples(5, 2, 200, 3);
        assert!(heads.iter().zip(&tails).all(|(h, t)| h != t));
        assert!(rels.iter().all(|&r| r < 2));
        let a = incidence(5, 2, 200, TailSign::Negative, 3);
        assert_eq!((a.rows(), a.cols(), a.nnz()), (200, 7, 600));
        assert_eq!(dense(3, 4, 9).as_slice(), dense(3, 4, 9).as_slice());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
        assert_eq!(mib(1024 * 1024), "1.00");
        assert_eq!(factor(2.0, 5.0), "2.5x");
        assert_eq!(factor(0.0, 5.0), "-");
    }

    #[test]
    fn env_knob_defaults() {
        // Not set in the test environment.
        assert!(scale_from_env() >= 1);
        assert!(epochs_from_env() >= 1);
    }
}
