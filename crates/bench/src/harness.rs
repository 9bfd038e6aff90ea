//! Dataset preparation, model dispatch, and table formatting shared by the
//! paper's artifacts ([`crate::paper`]), and the one estimator
//! ([`time_arm`]) and fixtures every bench in `benches/` times through.
//!
//! The artifacts read two environment knobs, each a positive integer:
//!
//! * `SPTX_SCALE` — divisor applied to the paper's dataset sizes
//!   (default 200; `1` reproduces full-size graphs, which takes hours);
//! * `SPTX_EPOCHS` — training epochs per measurement (default 5; the paper
//!   uses 200).

use std::env::var_os;
use std::ffi::OsString;

use kg::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse::incidence::{hrt, TailSign};
use sparse::CsrMatrix;
use sptransx::{AnyModel, Registered, TrainConfig, TrainReport, Trainer};
use xparallel::PoolHandle;

/// Default dataset scale divisor.
pub const DEFAULT_SCALE: usize = 200;
/// Default epochs per measurement.
pub const DEFAULT_EPOCHS: usize = 5;

/// Reads `SPTX_SCALE`, [`DEFAULT_SCALE`] when unset.
///
/// # Errors
///
/// A message naming the variable and its value when that is not a positive
/// integer.
pub fn scale_from_env() -> Result<usize, String> {
    parse_knob("SPTX_SCALE", var_os("SPTX_SCALE"), DEFAULT_SCALE)
}

/// Reads `SPTX_EPOCHS`, [`DEFAULT_EPOCHS`] when unset.
///
/// # Errors
///
/// As [`scale_from_env`].
pub fn epochs_from_env() -> Result<usize, String> {
    parse_knob("SPTX_EPOCHS", var_os("SPTX_EPOCHS"), DEFAULT_EPOCHS)
}

/// The positive integer `value` of the knob `var`, `default` when unset.
fn parse_knob(var: &str, value: Option<OsString>, default: usize) -> Result<usize, String> {
    let Some(value) = value else {
        return Ok(default);
    };
    let value = value.to_string_lossy();
    match value.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{var}={value:?}: expected a positive integer")),
    }
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

/// A row-major `rows × cols` table of uniform values in `[-1, 1)`.
pub fn dense(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// The four models of the paper's headline evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

    /// The registered family of `kind` in `variant`.
    pub fn registered(self, variant: Variant) -> &'static Registered {
        let suffix = match variant {
            Variant::Sparse => "",
            Variant::Dense => "-dense",
        };
        let key = format!("{}{suffix}", self.name().to_ascii_lowercase());
        Registered::find(&key).expect("every paper model is registered in both variants")
    }

    /// The paper's Table 4 configuration of `kind`, scaled: TransE and
    /// TorusE run wide, TransR and TransH narrower for memory.
    pub fn table4(self, epochs: usize) -> TrainConfig {
        let (dim, rel_dim, batch_size) = match self {
            ModelKind::TransE | ModelKind::TorusE => (128, 8, 4096),
            ModelKind::TransR => (32, 16, 2048),
            ModelKind::TransH => (32, 32, 1024),
        };
        bench_config(dim, rel_dim, batch_size, epochs)
    }
}

/// Sparse (SpTransX) or dense-baseline implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// Trains `kind`/`variant` on `dataset` with every kernel on `pool`: the
/// trainer, which holds the trained model, and its report
/// (`PoolHandle::sequential()` is the paper's one-thread "CPU" arm,
/// `PoolHandle::global()` every core).
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
) -> (Trainer<Box<dyn AnyModel>>, TrainReport) {
    let model = (kind.registered(variant).build)(dataset, config);
    let model = model.expect("benchmark config must be valid");
    let trainer = Trainer::new(model, dataset, config).expect("plan construction");
    let mut trainer = trainer.with_pool(pool.clone());
    let report = trainer.run().expect("training");
    (trainer, report)
}

/// A benchmark TrainConfig with the paper's optimizer settings (§5.3) and a
/// per-run dimension/batch override; the rest is `TrainConfig::default()`.
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
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let print_row = |cells: &[&str]| {
        let cells: Vec<String> = (cells.iter().enumerate())
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("| {} |", cells.join(" | "));
    };
    print_row(header);
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        print_row(&row.iter().map(String::as_str).collect::<Vec<_>>());
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
        let spec = kg::synthetic::PaperDatasetSpec::by_name("WN18RR").unwrap();
        let ds = spec.generate(2000, 1);
        let cfg = bench_config(8, 4, 64, 1);
        for kind in ModelKind::ALL {
            for variant in [Variant::Sparse, Variant::Dense] {
                let (_, report) = run_model(kind, variant, &ds, &cfg, &PoolHandle::global());
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
        assert_eq!(dense(3, 4, 9).len(), 12);
        assert_eq!(dense(3, 4, 9), dense(3, 4, 9));
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
        // An unset knob reads its default, a set one its value.
        let scale = |value: Option<&str>| parse_knob("SPTX_SCALE", value.map(Into::into), 7);
        assert_eq!(scale(None), Ok(7));
        assert_eq!(scale(Some("2000")), Ok(2000));
    }
}
