//! Command-line interface logic for the `sptx` binary.
//!
//! Subcommands:
//!
//! * `generate` — write a synthetic KG to TSV files
//!   (`--entities`, `--relations`, `--triples`, `--out <dir>`).
//! * `train` — train a model on a TSV file and save embeddings
//!   (`--model`, `--train <file>`, `--epochs`, `--dim`, `--lr`, `--out`);
//!   `--async true --workers N` switches to the lock-free Hogwild arm
//!   (nondeterministic, SGD + sparse gradients + resident store only).
//! * `stats` — print dataset statistics (degrees, relation classes).
//! * `serve` — load saved embeddings, build (or load) an IVF candidate
//!   index, replay a Zipf-skewed query workload through the ANN and exact
//!   arms, and report recall@K, latency percentiles, QPS, scan fraction and
//!   cache hit rates (`--emb`, `--train`, `--clusters`, `--nprobe`, …).
//!
//! Every subcommand accepts `--threads N` to size the worker pool, the
//! process's one width: every kernel and every `--workers` replica runs on
//! it. The training and evaluation engines are bit-identical at any thread
//! count (the determinism contract CI enforces), so the knob only trades
//! wall-clock time. The one documented exception is `train --async true`
//! with 2+ workers on 2+ threads, which is nondeterministic by design.
//!
//! Parsing is deliberately dependency-free (`--key value` pairs); this
//! module holds the testable core, `src/bin/sptx.rs` is a thin shell.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use kg::eval::{BatchScorer, EvalConfig};
use kg::stream::RowFile;
use kg::{load_tsv, write_tsv, Dataset, Vocab};
use sptransx::serve::{
    recall_at_k, IvfConfig, IvfIndex, LatencySummary, QueryKey, ServeEngine, ServeModel,
    ZipfWorkload,
};
use sptransx::{
    Arm, Combine, KgeModel, Norm, OptimizerKind, SamplerKind, SpDistMult, SpTorusE, SpTransE,
    SpTransH, SpTransR, TrainConfig, Trainer,
};

/// Parsed command line: subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand name.
    pub command: String,
    /// `--key value` options (keys without the dashes).
    pub options: HashMap<String, String>,
}

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (missing command, unknown flag, unparsable value).
    Usage(String),
    /// Underlying library failure.
    Library(Box<dyn std::error::Error>),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Library(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<kg::Error> for CliError {
    fn from(e: kg::Error) -> Self {
        CliError::Library(Box::new(e))
    }
}

impl From<sptransx::Error> for CliError {
    fn from(e: sptransx::Error) -> Self {
        CliError::Library(Box::new(e))
    }
}

/// A configuration the library refuses is the user's flags being wrong: a
/// usage error (its message names the flags), not a failed run.
fn config_is_usage(e: sptransx::Error) -> CliError {
    match e {
        sptransx::Error::Config { context } => CliError::Usage(context),
        other => other.into(),
    }
}

/// Splits raw arguments (without argv\[0\]) into a subcommand and options.
///
/// # Errors
///
/// Returns [`CliError::Usage`] when no subcommand is present, a flag lacks a
/// value, or a positional argument appears after the subcommand.
pub fn parse_args(raw: &[String]) -> Result<Args, CliError> {
    let mut iter = raw.iter();
    let command = iter
        .next()
        .ok_or_else(|| {
            CliError::Usage("expected a subcommand (generate|train|stats|serve)".into())
        })?
        .clone();
    let mut options = HashMap::new();
    while let Some(key) = iter.next() {
        let Some(stripped) = key.strip_prefix("--") else {
            return Err(CliError::Usage(format!(
                "unexpected positional argument {key:?}"
            )));
        };
        let value = iter
            .next()
            .ok_or_else(|| CliError::Usage(format!("flag --{stripped} needs a value")))?;
        options.insert(stripped.to_string(), value.clone());
    }
    Ok(Args { command, options })
}

impl Args {
    /// A string option with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] if missing.
    pub fn required(&self, key: &str) -> Result<String, CliError> {
        self.options
            .get(key)
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the value does not parse.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("could not parse --{key} value {v:?}"))),
        }
    }
}

/// The `generate` subcommand: synthesize a KG and write train/valid/test TSVs.
///
/// # Errors
///
/// Propagates I/O and usage errors.
pub fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let entities: usize = args.parse_or("entities", 1_000)?;
    let relations: usize = args.parse_or("relations", 10)?;
    if entities < 2 {
        return Err(CliError::Usage("--entities must be at least 2".into()));
    }
    if relations == 0 {
        return Err(CliError::Usage("--relations must be at least 1".into()));
    }
    let triples: usize = args.parse_or("triples", entities * 5)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let out = PathBuf::from(args.str_or("out", "kg-out"));
    std::fs::create_dir_all(&out).map_err(kg::Error::from)?;

    let ds = kg::synthetic::SyntheticKgBuilder::new(entities, relations)
        .triples(triples)
        .seed(seed)
        .build();
    let vocab = numeric_vocab(entities, relations);
    for (name, store) in [
        ("train.tsv", &ds.train),
        ("valid.tsv", &ds.valid),
        ("test.tsv", &ds.test),
    ] {
        let file = std::fs::File::create(out.join(name)).map_err(kg::Error::from)?;
        write_tsv(file, store, &vocab)?;
    }
    Ok(format!(
        "wrote {} train / {} valid / {} test triples to {}",
        ds.train.len(),
        ds.valid.len(),
        ds.test.len(),
        out.display()
    ))
}

/// The `train` subcommand: load a TSV, train, save embeddings + report.
///
/// Everything is parsed, and the arm it adds up to checked against
/// [`Arm::check`], before the dataset is opened.
///
/// # Errors
///
/// Propagates I/O, parse and training errors; an illegal arm is a
/// [`CliError::Usage`].
pub fn cmd_train(args: &Args) -> Result<String, CliError> {
    // `--async true` selects the Hogwild arm; `--workers` is meaningless
    // (and therefore rejected) on the synchronous default.
    let use_async: bool = args.parse_or("async", false)?;
    if args.options.contains_key("workers") && !use_async {
        return Err(CliError::Usage(
            "--workers only applies to the asynchronous arm; add --async true".into(),
        ));
    }
    let (workers, combine) = if use_async {
        (args.parse_or("workers", 4)?, Combine::Shared)
    } else {
        (1, Combine::AllReduce)
    };
    if workers == 0 {
        return Err(CliError::Usage("--workers must be at least 1".into()));
    }
    let job = TrainJob {
        args,
        train_path: args.required("train")?,
        config: config_from_args(args)?,
        out: PathBuf::from(args.str_or("out", "embeddings.bin")),
        cache_rows: cache_rows_from_args(args)?,
        workers,
        combine,
    };
    match args.str_or("model", "transe").as_str() {
        "transe" => job.run(SpTransE::from_config),
        "toruse" => job.run(SpTorusE::from_config),
        "transr" => job.run(SpTransR::from_config),
        "transh" => job.run(SpTransH::from_config),
        "distmult" => job.run(SpDistMult::from_config),
        other => Err(CliError::Usage(format!(
            "unknown --model {other:?} (transe|toruse|transr|transh|distmult)"
        ))),
    }
}

/// Parses `--store {ram,disk}` + `--cache-rows N`: the row-cache budget of
/// disk mode, `None` for the fully resident default. A budget without a
/// disk store to apply it to is a usage error, not a silent no-op.
fn cache_rows_from_args(args: &Args) -> Result<Option<usize>, CliError> {
    match args.str_or("store", "ram").as_str() {
        "ram" if args.options.contains_key("cache-rows") => Err(CliError::Usage(
            "--cache-rows only applies to --store disk".into(),
        )),
        "ram" => Ok(None),
        "disk" => match args.parse_or("cache-rows", 4096)? {
            0 => Err(CliError::Usage("--cache-rows must be at least 1".into())),
            cache_rows => Ok(Some(cache_rows)),
        },
        other => Err(CliError::Usage(format!(
            "unknown --store {other:?} (ram|disk)"
        ))),
    }
}

/// The `stats` subcommand.
///
/// # Errors
///
/// Propagates I/O and parse errors.
pub fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let path = args.required("train")?;
    let (ds, _) = load_dataset(Path::new(&path), args)?;
    let stats = kg::stats::GraphStats::compute(&ds.train, ds.num_entities);
    Ok(format!(
        "triples: {}\nactive entities: {}\nactive relations: {}\nmean degree: {:.2}\n\
         max degree: {}\ntop-1% degree share: {:.1}%\nrelation classes (1-1/1-N/N-1/N-N): {:?}",
        stats.triples,
        stats.active_entities,
        stats.active_relations,
        stats.mean_degree,
        stats.max_degree,
        100.0 * stats.top1pct_degree_share,
        stats.class_counts
    ))
}

/// The `serve` subcommand: load embeddings, build/load the IVF index,
/// replay a Zipf workload through the ANN (cached) and exact arms, report
/// quality and latency, and optionally enforce `--min-recall` /
/// `--max-scan-frac` thresholds (nonzero exit on violation — the CI smoke
/// hook).
///
/// # Errors
///
/// Propagates I/O, parse and serving errors; threshold violations surface
/// as [`CliError::Library`] serving errors.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let emb_path = args.required("emb")?;
    let train_path = args.required("train")?;
    let norm = parse_norm(args)?;
    let zipf: f64 = args.parse_or("zipf", 1.1)?;
    if !(zipf.is_finite() && zipf >= 0.0) {
        return Err(CliError::Usage(format!(
            "--zipf needs a finite exponent ≥ 0, got {zipf}"
        )));
    }
    let cache_size: usize = args.parse_or("cache-size", 1_024)?;
    if cache_size == 0 {
        return Err(CliError::Usage("--cache-size must be at least 1".into()));
    }
    let k: usize = args.parse_or("k", 10)?;
    let kmeans_iters: usize = args.parse_or("kmeans-iters", 8)?;
    // `--nprobe`'s default depends on the index and `--clusters`' on the
    // entity count, both loaded below; a given value is checked here.
    let checked = [
        ("k", k),
        ("kmeans-iters", kmeans_iters),
        ("nprobe", args.parse_or("nprobe", 1)?),
        ("clusters", args.parse_or("clusters", 1)?),
    ];
    for (flag, value) in checked {
        if value == 0 {
            return Err(CliError::Usage(format!("--{flag} must be at least 1")));
        }
    }
    let cache_rows = cache_rows_from_args(args)?;
    // The embedding dump stores only the stacked matrix; the training TSV
    // recovers the entity/relation split of its rows.
    let mut vocab = Vocab::new();
    let file = std::fs::File::open(&train_path).map_err(kg::Error::from)?;
    load_tsv(file, &mut vocab)?;
    let n = vocab.num_entities();
    if n == 0 {
        return Err(CliError::Usage(format!(
            "training file {train_path:?} has no triples"
        )));
    }
    let model = ServeModel::load(&emb_path, n, norm)?;
    let r = model.num_relations();
    if r != vocab.num_relations() {
        return Err(CliError::Library(Box::new(sptransx::Error::serve(
            format!(
                "embedding file implies {r} relations but the training file has {} — \
             wrong file pair, or a non-translational model dump",
                vocab.num_relations()
            ),
        ))));
    }

    let clusters: usize = args.parse_or("clusters", IvfConfig::sqrt_clusters(n).clusters)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let num_queries: usize = args.parse_or("queries", 2_000)?;

    let index = match args.options.get("index") {
        Some(path) => IvfIndex::load(path)?,
        None => IvfIndex::build(
            model.embeddings(),
            n,
            model.dim(),
            &IvfConfig {
                clusters,
                iters: kmeans_iters,
                seed,
            },
            &xparallel::PoolHandle::global(),
        )?,
    };
    if let Some(path) = args.options.get("index-out") {
        index.save(path)?;
    }
    let num_clusters = index.num_clusters();
    let nprobe: usize = args.parse_or("nprobe", num_clusters.div_ceil(8))?;
    let nprobe = nprobe.min(num_clusters);

    let mut engine = ServeEngine::new(model, index)?.with_cache(cache_size);
    let mut workload = ZipfWorkload::new(n, r, zipf, seed);

    // --store disk: additionally answer every query through a row cache over
    // the on-disk embedding file (the out-of-core arm), cross-checking each
    // answer against the resident ANN arm bit for bit.
    let mut paged_rows = match cache_rows {
        None => None,
        Some(cache_rows) => {
            let storage = sptransx::FileRowStorage::open(&emb_path)?;
            let mut rows = sptransx::serve::PagedRows::new(Box::new(storage), cache_rows)?;
            rows.set_tracing(true);
            Some(rows)
        }
    };

    // First-principles cache model: the same key stream (one distinct line
    // per distinct key) replayed through `lru_replay` must predict the real
    // cache's hit count exactly.
    let mut key_lines: HashMap<QueryKey, u32> = HashMap::new();
    let mut key_trace = Vec::with_capacity(num_queries);

    let mut ann_lat = Vec::with_capacity(num_queries);
    let mut exact_lat = Vec::with_capacity(num_queries);
    let mut paged_lat = Vec::with_capacity(num_queries);
    let mut recall_sum = 0.0f64;
    let mut scored_total = 0usize;
    let mut computed = 0usize;
    let mut paged_divergences = 0usize;
    for _ in 0..num_queries {
        let q = workload.next_query();
        let key: QueryKey = (q.dir as u8, q.entity, q.rel, k as u32, nprobe as u32);
        let next_line = key_lines.len() as u32;
        key_trace.push(*key_lines.entry(key).or_insert(next_line));

        let t = std::time::Instant::now();
        let ann = engine.answer_ann(&q, k, nprobe);
        ann_lat.push(t.elapsed());
        let t = std::time::Instant::now();
        let exact = engine.answer_exact(&q, k);
        exact_lat.push(t.elapsed());
        if let Some(rows) = &mut paged_rows {
            let t = std::time::Instant::now();
            let paged = engine.answer_ann_paged(rows, &q, k, nprobe)?;
            paged_lat.push(t.elapsed());
            if paged.hits != ann.hits {
                paged_divergences += 1;
            }
        }

        recall_sum += recall_at_k(&exact, &ann.hits);
        if !ann.cache_hit {
            scored_total += ann.scored;
            computed += 1;
        }
    }

    let recall = recall_sum / num_queries.max(1) as f64;
    let scan_frac = if computed == 0 {
        0.0
    } else {
        scored_total as f64 / (computed * n) as f64
    };
    let cache_stats = engine.cache_stats().unwrap_or_default();
    let (sim, _, cache_warning) = lru_replay(cache_size, &key_trace, "cache", cache_stats.hits);
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let arm = |name: &str, s: &LatencySummary| {
        format!(
            "{name} p50 {:.1}us p95 {:.1}us p99 {:.1}us, {:.0} qps",
            us(s.p50),
            us(s.p95),
            us(s.p99),
            s.qps
        )
    };
    let ann_sum = LatencySummary::from_samples(&ann_lat)
        .ok_or_else(|| CliError::Usage("--queries must be positive".into()))?;
    let exact_sum = LatencySummary::from_samples(&exact_lat).expect("same sample count");
    let mut out = format!(
        "serving {n} entities / {r} relations, dim {}, norm {}\n\
         index: {num_clusters} clusters, nprobe {nprobe}, kmeans iters {kmeans_iters}, seed {seed}\n\
         workload: {num_queries} queries, zipf({zipf}), k {k}, cache {cache_size}\n\
         recall@{k} vs exact arm: {recall:.4}\n\
         scan fraction (cache misses): {:.1}% of entities\n\
         cache hit rate: {:.1}% (simcache model: {:.1}%)\n\
         {}\n\
         {}",
        engine.model().dim(),
        args.str_or("norm", "l2"),
        100.0 * scan_frac,
        100.0 * cache_stats.hit_rate(),
        100.0 * (1.0 - sim.miss_rate()),
        arm("ann  ", &ann_sum),
        arm("exact", &exact_sum),
    );
    out.push_str(&cache_warning);
    if let Some(rows) = &paged_rows {
        let stats = rows.stats();
        let accesses = stats.hits + stats.misses;
        let hit_rate = if accesses > 0 {
            100.0 * stats.hits as f64 / accesses as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "\npaged store: budget {} rows, {} hits / {} misses / {} evictions (hit rate {hit_rate:.1}%)",
            rows.budget(),
            stats.hits,
            stats.misses,
            stats.evictions,
        ));
        if let Some(s) = LatencySummary::from_samples(&paged_lat) {
            out.push_str(&format!("\n{}", arm("paged", &s)));
        }
        let trace = rows.trace().expect("tracing was enabled");
        let (_, replay, warning) = lru_replay(rows.budget(), trace, "row cache", stats.hits);
        out.push_str(&(replay + &warning));
        if paged_divergences > 0 {
            out.push_str(&format!(
                "\nWARNING: paged arm diverged from the resident ANN arm on \
                 {paged_divergences} queries"
            ));
        }
    }

    let min_recall: f64 = args.parse_or("min-recall", 0.0)?;
    if recall < min_recall {
        return Err(CliError::Library(Box::new(sptransx::Error::serve(
            format!("recall@{k} {recall:.4} is below --min-recall {min_recall} ({out})"),
        ))));
    }
    let max_scan_frac: f64 = args.parse_or("max-scan-frac", 1.0)?;
    if scan_frac > max_scan_frac {
        return Err(CliError::Library(Box::new(sptransx::Error::serve(
            format!("scan fraction {scan_frac:.4} exceeds --max-scan-frac {max_scan_frac} ({out})"),
        ))));
    }
    Ok(out)
}

fn numeric_vocab(entities: usize, relations: usize) -> Vocab {
    let mut vocab = Vocab::new();
    for e in 0..entities {
        vocab.intern_entity(&format!("e{e}"));
    }
    for r in 0..relations {
        vocab.intern_relation(&format!("r{r}"));
    }
    vocab
}

fn load_dataset(train: &Path, args: &Args) -> Result<(Dataset, Vocab), CliError> {
    let mut vocab = Vocab::new();
    let file = std::fs::File::open(train).map_err(kg::Error::from)?;
    let store = load_tsv(file, &mut vocab)?;
    let valid_frac: f64 = args.parse_or("valid-frac", 0.0)?;
    let test_frac: f64 = args.parse_or("test-frac", 0.1)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let ds = Dataset::from_single_store(
        train.display().to_string(),
        vocab.num_entities(),
        vocab.num_relations(),
        store,
        valid_frac,
        test_frac,
        seed,
    )
    .map_err(|e| match e {
        kg::Error::InvalidSplit { context } => {
            CliError::Usage(format!("--valid-frac / --test-frac: {context}"))
        }
        other => other.into(),
    })?;
    Ok((ds, vocab))
}

fn config_from_args(args: &Args) -> Result<TrainConfig, CliError> {
    let norm = parse_norm(args)?;
    let sampler = match args.str_or("sampler", "uniform").as_str() {
        "uniform" => SamplerKind::Uniform,
        "bernoulli" => SamplerKind::Bernoulli,
        other => {
            return Err(CliError::Usage(format!(
                "unknown --sampler {other:?} (uniform|bernoulli)"
            )))
        }
    };
    let optimizer = match args.str_or("optimizer", "sgd").as_str() {
        "sgd" => OptimizerKind::Sgd,
        "adagrad" => OptimizerKind::Adagrad,
        "adam" => OptimizerKind::Adam,
        other => {
            return Err(CliError::Usage(format!(
                "unknown --optimizer {other:?} (sgd|adagrad|adam)"
            )))
        }
    };
    // `--lr-decay STEP:GAMMA` hooks the Appendix E step scheduler up:
    // every STEP epochs the learning rate is multiplied by GAMMA.
    let lr_schedule = match args.options.get("lr-decay") {
        None => None,
        Some(raw) => Some(parse_lr_decay(raw)?),
    };
    let config = TrainConfig {
        epochs: args.parse_or("epochs", 50)?,
        batch_size: args.parse_or("batch-size", 1024)?,
        dim: args.parse_or("dim", 64)?,
        rel_dim: args.parse_or("rel-dim", 32)?,
        lr: args.parse_or("lr", 0.1)?,
        margin: args.parse_or("margin", 0.5)?,
        norm,
        sampler,
        seed: args.parse_or("seed", 42)?,
        lr_schedule,
        optimizer,
        dense_grads: args.parse_or("dense-grads", false)?,
        ..TrainConfig::default()
    };
    // `"nan".parse::<f32>()` succeeds; out-of-range and non-finite values
    // are refused here, before any dataset is opened.
    config.validate().map_err(config_is_usage)?;
    Ok(config)
}

/// `--norm` for both `train` (whose model coerces it to its own geometry)
/// and `serve` (which has to be told the metric the dump was trained under).
fn parse_norm(args: &Args) -> Result<Norm, CliError> {
    match args.str_or("norm", "l2").as_str() {
        "l1" => Ok(Norm::L1),
        "l2" => Ok(Norm::L2),
        "torus-l1" => Ok(Norm::TorusL1),
        "torus-l2" => Ok(Norm::TorusL2),
        other => Err(CliError::Usage(format!(
            "unknown --norm {other:?} (l1|l2|torus-l1|torus-l2)"
        ))),
    }
}

/// Parses `STEP:GAMMA` (e.g. `10:0.5`) into a step-LR schedule.
fn parse_lr_decay(raw: &str) -> Result<(u32, f32), CliError> {
    let bad = || {
        CliError::Usage(format!(
            "--lr-decay needs STEP:GAMMA with STEP ≥ 1 and GAMMA > 0 (e.g. 10:0.5), got {raw:?}"
        ))
    };
    let (step, gamma) = raw.split_once(':').ok_or_else(bad)?;
    let step: u32 = step
        .trim()
        .parse()
        .ok()
        .filter(|&s| s >= 1)
        .ok_or_else(bad)?;
    let gamma: f32 = gamma
        .trim()
        .parse()
        .ok()
        .filter(|g: &f32| g.is_finite() && *g > 0.0)
        .ok_or_else(bad)?;
    Ok((step, gamma))
}

/// The scratch pagefile of a `--store disk` run, removed however the run
/// ends.
struct Pagefile(PathBuf);

impl Drop for Pagefile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// What `sptx train` parsed, before any file is opened.
struct TrainJob<'a> {
    args: &'a Args,
    train_path: String,
    config: TrainConfig,
    out: PathBuf,
    /// `--store disk`: the [`embedding_table`] pages to `{out}.pagefile`
    /// behind a row cache of this budget.
    cache_rows: Option<usize>,
    workers: usize,
    combine: Combine,
}

impl TrainJob<'_> {
    /// Checks the arm, then loads, trains, evaluates, dumps and reports.
    /// One path for every model and every arm: the synchronous default is
    /// the one-worker run.
    fn run<M: KgeModel + BatchScorer + Send>(
        &self,
        make_model: fn(&Dataset, &TrainConfig) -> sptransx::Result<M>,
    ) -> Result<String, CliError> {
        let config = &self.config;
        let arm = Arm {
            pages: M::pages(),
            paged: self.cache_rows.is_some(),
            optimizer: config.optimizer,
            dense_grads: config.dense_grads,
            fused: config.fused,
            workers: self.workers,
            combine: self.combine,
        };
        arm.check().map_err(config_is_usage)?;

        let (ds, _vocab) = load_dataset(Path::new(&self.train_path), self.args)?;
        let mut trainer = Trainer::replicated(&ds, config, self.workers, self.combine, make_model)?;
        let paged = match self.cache_rows {
            None => None,
            Some(budget) => {
                let mut path = self.out.as_os_str().to_owned();
                path.push(".pagefile");
                let pagefile = Pagefile(path.into());
                let id = page_out_embeddings(&mut trainer, &pagefile.0, budget)?;
                Some((id, pagefile))
            }
        };

        tensor::profile::reset();
        let report = trainer.run()?;
        // Snapshot kernel counters before evaluation pollutes them.
        let kernel_table = kernel_counter_table();
        // Unpage (and cross-validate the cache counters) before the
        // paging-unaware evaluation and dump paths read the table.
        let paged_report = match &paged {
            Some((id, _)) => unpage_and_validate(&mut trainer, *id)?,
            None => String::new(),
        };
        // Batched, pool-parallel engine; strided subsampling avoids the
        // dataset-order bias of a plain prefix truncation.
        let eval = trainer.evaluate_batched(
            &ds,
            &EvalConfig {
                max_triples: Some(500),
                sample: kg::eval::SampleStrategy::Strided,
                ..Default::default()
            },
        );
        let store = trainer.model().store();
        if let Some(id) = embedding_table(store) {
            let t = store.value(id);
            let (cols, data) = (t.cols(), t.as_slice());
            RowFile::write(&self.out, t.rows(), cols, |r, dst| {
                dst.copy_from_slice(&data[r * cols..(r + 1) * cols]);
            })?;
        }
        Ok(format!(
            "{}: {} epochs, loss {:.4} -> {:.4}, wall {:.2}s, Hits@10 {:.3}, MRR {:.3}\n\
             {}\n{kernel_table}{paged_report}\nembeddings saved to {}",
            KgeModel::name(trainer.model()),
            report.epoch_losses.len(),
            report.epoch_losses.first().copied().unwrap_or(0.0),
            report.epoch_losses.last().copied().unwrap_or(0.0),
            report.wall.as_secs_f64(),
            eval.hits(10).unwrap_or(0.0),
            eval.mrr,
            arm_line(&arm),
            self.out.display()
        ))
    }
}

/// The table `sptx train` pages out and dumps: the stacked entity+relation
/// `embeddings` where the model has one (what `sptx serve` reads), else its
/// `entities` table (TransH, TransR).
fn embedding_table(store: &tensor::ParamStore) -> Option<tensor::ParamId> {
    store
        .lookup("embeddings")
        .or_else(|| store.lookup("entities"))
}

/// Pages the trainer's [`embedding_table`] out to a fresh `pagefile` with a
/// `budget`-row cache and turns row tracing on (the trace feeds the simcache
/// cross-validation after the run). Returns the paged [`tensor::ParamId`].
fn page_out_embeddings<M: KgeModel>(
    trainer: &mut Trainer<M>,
    pagefile: &Path,
    budget: usize,
) -> Result<tensor::ParamId, CliError> {
    let store = trainer.model_mut().store_mut();
    let id = embedding_table(store).ok_or_else(|| {
        CliError::Usage("--store disk needs a model with an embedding table".into())
    })?;
    let (rows, cols) = store.param_shape(id);
    let storage = sptransx::FileRowStorage::create(pagefile, rows, cols)?;
    store
        .page_out(id, Box::new(storage), budget)
        .map_err(sptransx::Error::from)?;
    store
        .pager_mut(id)
        .expect("just paged out")
        .set_tracing(true);
    Ok(id)
}

/// Collects the pager's counters and row trace, brings the table fully back
/// into RAM (evaluation and the embedding dump need residency), replays the
/// trace through a fully-associative simcache LRU of the same budget, and
/// renders the report lines — with the PR-6 `WARNING:` idiom on any
/// hit-count divergence so CI can grep for it.
fn unpage_and_validate<M: KgeModel>(
    trainer: &mut Trainer<M>,
    id: tensor::ParamId,
) -> Result<String, CliError> {
    let store = trainer.model_mut().store_mut();
    let pager = store.pager(id).expect("paged parameter");
    let stats = pager.stats();
    let (read_calls, write_calls) = pager.storage_io_ops();
    let trace = pager.trace().expect("tracing was enabled").to_vec();
    let budget = pager.budget();
    store.unpage(id).map_err(sptransx::Error::from)?;

    let (_, replay, warning) = lru_replay(budget, &trace, "cache", stats.hits);
    let accesses = stats.hits + stats.misses;
    let hit_rate = if accesses > 0 {
        100.0 * stats.hits as f64 / accesses as f64
    } else {
        0.0
    };
    Ok(format!(
        "\npaged store: budget {budget} rows, {} hits / {} misses / {} evictions / {} \
         write-backs / {read_calls} read calls / {write_calls} write calls \
         (hit rate {hit_rate:.1}%){replay}{warning}",
        stats.hits, stats.misses, stats.evictions, stats.write_backs,
    ))
}

/// The first-principles model every cache in a report is checked against:
/// replays `lines` (one id per distinct key or row, in access order) through
/// a fully-associative simcache LRU of `capacity` lines. Returns the model's
/// counters, the replay report line, and a `WARNING:` line (empty when the
/// model's hit count equals the `hits` the real `what` counted) for CI to
/// grep.
fn lru_replay(
    capacity: usize,
    lines: &[u32],
    what: &str,
    hits: u64,
) -> (simcache::CacheStats, String, String) {
    let mut sim = simcache::Cache::new(simcache::CacheConfig {
        size_bytes: capacity * 64,
        line_bytes: 64,
        ways: capacity,
    });
    for &line in lines {
        sim.access(u64::from(line) * 64);
    }
    let sim = sim.stats();
    let replay = format!(
        "\nsimcache LRU replay: {} hits / {} misses",
        sim.hits, sim.misses
    );
    let warning = if sim.hits == hits {
        String::new()
    } else {
        format!(
            "\nWARNING: simcache model predicted {} hits, {what} saw {hits}",
            sim.hits
        )
    };
    (sim, replay, warning)
}

/// The report's `arm:` line, which names the arm that produced the numbers
/// so report consumers can tell a nondeterministic run from a contract run.
fn arm_line(arm: &Arm) -> String {
    let schedule = match arm.combine {
        Combine::Shared => format!(
            "async hogwild ({} workers, nondeterministic), ",
            arm.workers
        ),
        Combine::AllReduce => String::new(),
    };
    let gradients = if arm.dense_grads {
        "dense (--dense-grads ablation)"
    } else {
        "sparse touched-row"
    };
    let kernels = if arm.fused { "fused" } else { "unfused" };
    format!("arm: {schedule}{gradients} gradients/renorm, {kernels} kernels")
}

/// Renders the Table-5-style per-kernel counter report for the training run:
/// one row per autograd kernel (`op::*` scope) with call counts and the
/// analytic bytes-moved / flop totals from `sparse::metrics`.
///
/// Wall-clock times are deliberately omitted and rows are sorted by name,
/// so the table is bit-identical across thread counts and machines — CI
/// diffs the full report between runs.
fn kernel_counter_table() -> String {
    let mut rows: Vec<_> = tensor::profile::report()
        .into_iter()
        .filter(|e| e.name.starts_with("op::"))
        .collect();
    rows.sort_by_key(|e| e.name);
    let mut out = String::from("per-kernel counters (analytic bytes/flops, thread-independent):");
    for e in &rows {
        out.push_str(&format!(
            "\n  {:<28} calls {:>8}  bytes {:>14}  flops {:>14}",
            e.name, e.calls, e.bytes, e.flops
        ));
    }
    out
}

/// Applies the global `--threads N` option: sizes the worker pool, which the
/// `sptx` binary has not created yet when it parses its flags.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for a non-positive or unparsable value, and
/// for an in-process caller whose pool already runs another size (the pool
/// cannot be resized, and ignoring the flag would be a silent no-op).
fn apply_threads_option(args: &Args) -> Result<(), CliError> {
    let Some(raw) = args.options.get("threads") else {
        return Ok(());
    };
    let n: usize = raw.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
        CliError::Usage(format!("--threads needs a positive integer, got {raw:?}"))
    })?;
    if !xparallel::set_num_threads(n) && xparallel::current_num_threads() != n {
        return Err(CliError::Usage(format!(
            "--threads {n}: this process's worker pool already runs {} threads",
            xparallel::current_num_threads()
        )));
    }
    Ok(())
}

/// The flags each subcommand reads (`--threads` is global and not listed).
/// `None` for an unknown subcommand, which [`run`] reports itself.
fn known_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "generate" => &["entities", "relations", "triples", "seed", "out"],
        "train" => &[
            "train",
            "valid-frac",
            "test-frac",
            "seed",
            "model",
            "out",
            "epochs",
            "batch-size",
            "dim",
            "rel-dim",
            "lr",
            "margin",
            "norm",
            "sampler",
            "optimizer",
            "lr-decay",
            "dense-grads",
            "store",
            "cache-rows",
            "async",
            "workers",
        ],
        "stats" => &["train", "valid-frac", "test-frac", "seed"],
        "serve" => &[
            "emb",
            "train",
            "norm",
            "k",
            "clusters",
            "nprobe",
            "kmeans-iters",
            "queries",
            "zipf",
            "cache-size",
            "seed",
            "store",
            "cache-rows",
            "index",
            "index-out",
            "min-recall",
            "max-scan-frac",
        ],
        "help" | "--help" | "-h" => &[],
        _ => return None,
    })
}

/// Rejects any `--flag` the subcommand does not read, so a typo (or a flag
/// that no longer exists) is a loud error instead of a silently ignored
/// default.
fn check_known_flags(args: &Args) -> Result<(), CliError> {
    let Some(known) = known_flags(&args.command) else {
        return Ok(());
    };
    let unknown = args
        .options
        .keys()
        .map(String::as_str)
        .filter(|k| *k != "threads" && !known.contains(k))
        .min();
    match unknown {
        None => Ok(()),
        Some(flag) => Err(CliError::Usage(format!(
            "unknown flag --{flag} for `sptx {}` (see `sptx help`)",
            args.command
        ))),
    }
}

/// Dispatches a parsed command, returning the text to print.
///
/// # Errors
///
/// Propagates all subcommand errors; a flag the subcommand does not know is
/// a [`CliError::Usage`] naming it.
pub fn run(args: &Args) -> Result<String, CliError> {
    check_known_flags(args)?;
    apply_threads_option(args)?;
    match args.command.as_str() {
        "generate" => cmd_generate(args),
        "train" => cmd_train(args),
        "stats" => cmd_stats(args),
        "serve" => cmd_serve(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown subcommand {other:?}\n{USAGE}"
        ))),
    }
}

/// The usage banner.
pub const USAGE: &str = "\
sptx — SparseTransX knowledge-graph embedding trainer

USAGE:
  sptx generate --entities N --relations R --triples M --out DIR
  sptx train    --train FILE.tsv [--model transe|toruse|transr|transh|distmult]
                [--epochs E] [--dim D] [--lr LR] [--margin M]
                [--norm l1|l2|torus-l1|torus-l2]
                [--optimizer sgd|adagrad|adam] [--lr-decay STEP:GAMMA]
                [--sampler uniform|bernoulli] [--dense-grads true|false]
                [--store ram|disk] [--cache-rows N] [--async true] [--workers N]
                [--out embeddings.bin]
  sptx stats    --train FILE.tsv
  sptx serve    --emb FILE.bin --train FILE.tsv [--k K]
                [--norm l1|l2|torus-l1|torus-l2]
                [--clusters C] [--nprobe P] [--kmeans-iters I]
                [--queries Q] [--zipf S] [--cache-size N] [--seed S]
                [--store ram|disk] [--cache-rows N]
                [--index FILE] [--index-out FILE]
                [--min-recall R] [--max-scan-frac F]
  sptx help

Any subcommand also accepts --threads N (worker-pool size, the one width of
the process: kernels and --workers replicas all run on it; results are
bit-identical at any N, only wall-clock changes). --dense-grads true disables
the touched-row sparse gradient AND epoch-renormalization paths (an ablation
switch: training is bit-identical, each batch and epoch-end sweep just walks
whole embedding tables). The train report names which arm ran and prints a
per-kernel calls/bytes/flops counter table. --lr-decay multiplies the learning
rate by GAMMA every STEP epochs.

--async true trains with the lock-free Hogwild arm: --workers N replicas
(default 4) run as tasks on the --threads pool, share one set of parameter
tensors and apply touched-row SGD updates with no barriers and no locks.
Throughput scales with cores, but when 2+ workers run at once the run is
nondeterministic (update interleaving and occasional lost increments on row
collisions) — validate results statistically, and use the synchronous
default wherever the bit-determinism contract matters. At --workers 1, or
at --threads 1 (the workers then sweep their shards in turn), the arm
degenerates to the synchronous trainer bit-for-bit.
Requires SGD, sparse gradients and --store ram.

--store disk trains out of core: the embedding table lives in {out}.pagefile
and only each batch's touched rows are paged into a --cache-rows row RAM
cache (LRU, dirty rows written back on eviction and at epoch end). Paging
moves bytes, never arithmetic — the run is bit-identical to --store ram —
and the report's cache counters are cross-validated against a simcache LRU
replay of the same row trace (any divergence prints a WARNING line).
Every --model pages (transe|toruse|transh|transr|distmult). Requires SGD and
sparse gradients.

serve loads the stacked embedding matrix train saves (TransE/TorusE layout;
--norm must match training: a toruse dump trained under l1|l2 is served with
torus-l1|torus-l2), answers top-K completion queries through an IVF
candidate index (nprobe = cost/recall knob; nprobe = clusters is an exact
full scan; the clustering itself is squared-L2 under every --norm, only
candidate scores use it), measures recall@K against the exact full-scan arm, and
reports latency percentiles, QPS, scan fraction and cache hit rates.
--min-recall / --max-scan-frac turn quality regressions into a nonzero
exit status for CI. serve --store disk additionally answers every query
through a --cache-rows row cache over the on-disk embedding file (queries a
store bigger than RAM); answers are checked bitwise against the resident
arm and the row-cache counters against a simcache LRU replay, with any
divergence reported as a WARNING line.";

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_command_and_flags() {
        let args = parse_args(&strs(&["train", "--epochs", "5", "--lr", "0.1"])).unwrap();
        assert_eq!(args.command, "train");
        assert_eq!(args.parse_or("epochs", 0usize).unwrap(), 5);
        assert!((args.parse_or("lr", 0.0f32).unwrap() - 0.1).abs() < 1e-6);
        assert_eq!(args.parse_or("dim", 64usize).unwrap(), 64);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&strs(&["train", "positional"])).is_err());
        assert!(parse_args(&strs(&["train", "--epochs"])).is_err());
        let args = parse_args(&strs(&["train", "--epochs", "abc"])).unwrap();
        assert!(args.parse_or("epochs", 0usize).is_err());
        assert!(args.required("missing").is_err());
    }

    #[test]
    fn generate_then_stats_then_train() {
        let dir = std::env::temp_dir().join("sptx-cli-test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();

        let gen = parse_args(&strs(&[
            "generate",
            "--entities",
            "80",
            "--relations",
            "4",
            "--triples",
            "500",
            "--out",
            &out,
        ]))
        .unwrap();
        let msg = run(&gen).unwrap();
        assert!(msg.contains("train"), "{msg}");

        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let stats = parse_args(&strs(&["stats", "--train", &train_file])).unwrap();
        let msg = run(&stats).unwrap();
        assert!(msg.contains("mean degree"), "{msg}");

        let emb_out = dir.join("emb.bin").to_string_lossy().to_string();
        let train = parse_args(&strs(&[
            "train",
            "--train",
            &train_file,
            "--epochs",
            "3",
            "--dim",
            "8",
            "--batch-size",
            "64",
            "--out",
            &emb_out,
        ]))
        .unwrap();
        let msg = run(&train).unwrap();
        assert!(msg.contains("SpTransE"), "{msg}");
        assert!(
            msg.contains("arm: sparse touched-row gradients/renorm, fused kernels"),
            "{msg}"
        );
        assert!(msg.contains("per-kernel counters"), "{msg}");
        assert!(msg.contains("op::spmm_score"), "{msg}");
        assert!(dir.join("emb.bin").exists());
    }

    #[test]
    fn unknown_subcommand_and_model() {
        let args = parse_args(&strs(&["frobnicate"])).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));

        let dir = std::env::temp_dir().join("sptx-cli-test2");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "generate",
            "--entities",
            "30",
            "--relations",
            "2",
            "--triples",
            "100",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let bad = parse_args(&strs(&["train", "--train", &train_file, "--model", "nope"])).unwrap();
        assert!(matches!(run(&bad), Err(CliError::Usage(_))));
    }

    #[test]
    fn optimizer_and_lr_decay_flags_parse() {
        let args = parse_args(&strs(&[
            "train",
            "--optimizer",
            "adagrad",
            "--lr-decay",
            "10:0.5",
            "--dense-grads",
            "true",
        ]))
        .unwrap();
        let cfg = config_from_args(&args).unwrap();
        assert_eq!(cfg.optimizer, OptimizerKind::Adagrad);
        assert_eq!(cfg.lr_schedule, Some((10, 0.5)));
        assert!(cfg.dense_grads);

        let defaults = config_from_args(&parse_args(&strs(&["train"])).unwrap()).unwrap();
        assert_eq!(defaults.optimizer, OptimizerKind::Sgd);
        assert_eq!(defaults.lr_schedule, None);
        assert!(!defaults.dense_grads);
        assert!(defaults.fused);

        let bad = parse_args(&strs(&["train", "--optimizer", "lbfgs"])).unwrap();
        assert!(matches!(config_from_args(&bad), Err(CliError::Usage(_))));
        for decay in ["0:0.5", "10", "10:-1", "x:0.5", "10:nan"] {
            let bad = parse_args(&strs(&["train", "--lr-decay", decay])).unwrap();
            assert!(
                matches!(config_from_args(&bad), Err(CliError::Usage(_))),
                "--lr-decay {decay} should be rejected"
            );
        }
    }

    #[test]
    fn train_with_adam_and_decay_runs_end_to_end() {
        let dir = std::env::temp_dir().join("sptx-cli-test-opt");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "generate",
            "--entities",
            "60",
            "--relations",
            "3",
            "--triples",
            "300",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let emb_out = dir.join("emb.bin").to_string_lossy().to_string();
        let train = parse_args(&strs(&[
            "train",
            "--train",
            &train_file,
            "--epochs",
            "2",
            "--dim",
            "8",
            "--batch-size",
            "64",
            "--optimizer",
            "adam",
            "--lr-decay",
            "1:0.5",
            "--out",
            &emb_out,
        ]))
        .unwrap();
        let msg = run(&train).unwrap();
        assert!(msg.contains("SpTransE"), "{msg}");

        // Models without a stacked table dump their entity table: the
        // report's "embeddings saved to" names a file that exists.
        for (model, name) in [("transh", "SpTransH"), ("transr", "SpTransR")] {
            let emb_out = dir.join(format!("emb_{model}.bin"));
            let mut argv = strs(&["train", "--train", &train_file, "--model", model]);
            argv.extend(strs(&["--epochs", "1", "--dim", "8", "--rel-dim", "3"]));
            argv.extend(strs(&["--out", &emb_out.to_string_lossy()]));
            let msg = run(&parse_args(&argv).unwrap()).unwrap();
            assert!(msg.contains(name), "{msg}");
            let bytes = std::fs::metadata(&emb_out).expect("dump exists").len();
            assert!(bytes >= 60 * 8 * 4, "{model}: {bytes} bytes");
        }
    }

    #[test]
    fn train_store_disk_matches_store_ram_bit_for_bit() {
        let dir = std::env::temp_dir().join("sptx-cli-test-paged");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "generate",
            "--entities",
            "150",
            "--relations",
            "4",
            "--triples",
            "700",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let common = |model: &str, store: &str, emb: &str| {
            let mut argv = strs(&[
                "train",
                "--train",
                &train_file,
                "--model",
                model,
                "--epochs",
                "2",
                "--dim",
                "8",
                "--batch-size",
                "16",
                "--store",
                store,
                "--out",
                emb,
            ]);
            if store == "disk" {
                argv.extend(strs(&["--cache-rows", "96"]));
            }
            argv
        };

        // The stacked `embeddings` of an hrt model, the `entities` of an ht
        // one: either is the table the run pages and dumps.
        for model in ["transe", "transh", "distmult"] {
            let ram_out = dir.join("emb_ram.bin").to_string_lossy().to_string();
            let msg = run(&parse_args(&common(model, "ram", &ram_out)).unwrap()).unwrap();
            assert!(!msg.contains("paged store:"), "{msg}");

            // 96 cache rows against a 150- or 154-row table: evictions and
            // write-backs all run, yet the dumped embeddings must be the
            // same bytes the resident run saved.
            let disk_out = dir.join("emb_disk.bin").to_string_lossy().to_string();
            let msg = run(&parse_args(&common(model, "disk", &disk_out)).unwrap()).unwrap();
            assert!(msg.contains("paged store: budget 96 rows"), "{msg}");
            assert!(msg.contains("simcache LRU replay"), "{msg}");
            assert!(!msg.contains("WARNING"), "cache model diverged: {msg}");
            assert!(
                !dir.join("emb_disk.bin.pagefile").exists(),
                "the pagefile must be cleaned up after training"
            );

            let ram_bytes = std::fs::read(dir.join("emb_ram.bin")).unwrap();
            let disk_bytes = std::fs::read(dir.join("emb_disk.bin")).unwrap();
            assert_eq!(
                ram_bytes, disk_bytes,
                "{model}: paged embeddings diverged from resident"
            );
        }
    }

    #[test]
    fn train_distmult_accepts_a_self_loop_triple() {
        // `hrt` merges the `h == t` column of `e3 r2 e3` into one stored
        // entry; the semiring score used to demand three and panic.
        let dir = std::env::temp_dir().join("sptx-cli-test-self-loop");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        let generate = ["generate", "--entities", "60", "--relations", "4"];
        let mut argv = strs(&generate);
        argv.extend(strs(&["--triples", "400", "--out", &out]));
        run(&parse_args(&argv).unwrap()).unwrap();
        let train_file = dir.join("train.tsv");
        let mut tsv = std::fs::read_to_string(&train_file).unwrap();
        tsv.push_str("e3\tr2\te3\n");
        std::fs::write(&train_file, tsv).unwrap();

        // `tests/cli_binary.rs` compares this run's dump at 1 and 4 threads.
        let emb = dir.join("emb.bin");
        let mut argv = strs(&["train", "--train", &train_file.to_string_lossy()]);
        argv.extend(strs(&[
            "--model", "distmult", "--epochs", "2", "--dim", "8",
        ]));
        argv.extend(strs(&[
            "--batch-size",
            "64",
            "--out",
            &emb.to_string_lossy(),
        ]));
        let msg = run(&parse_args(&argv).unwrap()).unwrap();
        assert!(msg.contains("SpDistMult"), "{msg}");
        let mut store = RowFile::open(&emb).unwrap();
        let table = store.read_rows(0, store.rows()).unwrap();
        assert_eq!(table.len(), (60 + 4) * 8);
        assert!(table.iter().all(|x| x.is_finite()), "non-finite embeddings");
    }

    #[test]
    fn train_store_disk_rejects_unsupported_configurations() {
        // Validation fires before the dataset loads, so no fixture needed.
        for extra in [
            &["--store", "disk", "--optimizer", "adam"][..],
            &["--store", "disk", "--dense-grads", "true"],
            &["--store", "disk", "--fused", "false"],
            &["--store", "disk", "--cache-rows", "0"],
            &["--store", "tape"],
        ] {
            let mut argv = strs(&["train", "--train", "missing.tsv"]);
            argv.extend(strs(extra));
            let args = parse_args(&argv).unwrap();
            assert!(
                matches!(run(&args), Err(CliError::Usage(_))),
                "expected a usage error for {extra:?}"
            );
        }
    }

    #[test]
    fn train_rejects_non_finite_and_out_of_range_hyperparameters() {
        // `sptx train --margin nan` used to train three epochs of NaN loss
        // and exit 0. Validation fires before the dataset loads.
        for (flag, value) in [
            ("--margin", "nan"),
            ("--margin", "inf"),
            ("--margin", "-0.5"),
            ("--lr", "nan"),
            ("--lr", "inf"),
            ("--lr", "-inf"),
            ("--lr", "0"),
        ] {
            let argv = strs(&["train", "--train", "missing.tsv", flag, value]);
            match run(&parse_args(&argv).unwrap()) {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains(flag), "{flag} {value}: message {msg:?}")
                }
                other => panic!("{flag} {value}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn train_async_end_to_end_and_flag_validation() {
        // Flag validation fires before any dataset loads.
        for extra in [
            &["--workers", "2"][..], // --workers without --async
            &["--async", "true", "--workers", "0"],
            &["--async", "true", "--store", "disk"],
            &["--async", "true", "--optimizer", "adam"],
            &["--async", "true", "--dense-grads", "true"],
        ] {
            let mut argv = strs(&["train", "--train", "missing.tsv"]);
            argv.extend(strs(extra));
            let args = parse_args(&argv).unwrap();
            assert!(
                matches!(run(&args), Err(CliError::Usage(_))),
                "expected a usage error for {extra:?}"
            );
        }

        let dir = std::env::temp_dir().join("sptx-cli-test-async");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "generate",
            "--entities",
            "80",
            "--relations",
            "4",
            "--triples",
            "500",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let emb_out = dir.join("emb.bin").to_string_lossy().to_string();
        let train = parse_args(&strs(&[
            "train",
            "--train",
            &train_file,
            "--epochs",
            "3",
            "--dim",
            "8",
            "--batch-size",
            "64",
            "--async",
            "true",
            "--workers",
            "2",
            "--out",
            &emb_out,
        ]))
        .unwrap();
        let msg = run(&train).unwrap();
        assert!(msg.contains("SpTransE"), "{msg}");
        assert!(
            msg.contains("arm: async hogwild (2 workers, nondeterministic)"),
            "{msg}"
        );
        assert!(msg.contains("MRR"), "{msg}");
        assert!(msg.contains("per-kernel counters"), "{msg}");
        assert!(dir.join("emb.bin").exists());
    }

    #[test]
    fn serve_end_to_end_with_index_roundtrip() {
        let dir = std::env::temp_dir().join("sptx-cli-test-serve");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "generate",
            "--entities",
            "120",
            "--relations",
            "4",
            "--triples",
            "600",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let emb_out = dir.join("emb.bin").to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "train",
            "--train",
            &train_file,
            "--epochs",
            "2",
            "--dim",
            "8",
            "--batch-size",
            "64",
            "--out",
            &emb_out,
        ]))
        .unwrap())
        .unwrap();

        // Build the index, serve a small workload, and persist the index.
        let index_path = dir.join("index.ivf").to_string_lossy().to_string();
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            &emb_out,
            "--train",
            &train_file,
            "--queries",
            "200",
            "--clusters",
            "12",
            "--nprobe",
            "12", // nprobe == clusters: the ANN arm IS the exact scan
            "--min-recall",
            "0.999",
            "--index-out",
            &index_path,
        ]))
        .unwrap();
        let msg = run(&serve).unwrap();
        assert!(msg.contains("recall@10 vs exact arm: 1.0000"), "{msg}");
        assert!(!msg.contains("WARNING"), "cache model diverged: {msg}");

        // Reload the saved index and serve again with a selective probe.
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            &emb_out,
            "--train",
            &train_file,
            "--queries",
            "200",
            "--nprobe",
            "3",
            "--index",
            &index_path,
        ]))
        .unwrap();
        let msg = run(&serve).unwrap();
        assert!(msg.contains("index: 12 clusters, nprobe 3"), "{msg}");

        // The out-of-core arm: the same workload answered through a 48-row
        // cache over the on-disk dump must agree with the resident arm on
        // every query (any divergence or counter mismatch prints WARNING).
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            &emb_out,
            "--train",
            &train_file,
            "--queries",
            "200",
            "--nprobe",
            "3",
            "--index",
            &index_path,
            "--store",
            "disk",
            "--cache-rows",
            "48",
        ]))
        .unwrap();
        let msg = run(&serve).unwrap();
        assert!(msg.contains("paged store: budget 48 rows"), "{msg}");
        assert!(msg.contains("simcache LRU replay"), "{msg}");
        assert!(!msg.contains("WARNING"), "paged arm diverged: {msg}");

        let bad = parse_args(&strs(&[
            "serve",
            "--emb",
            &emb_out,
            "--train",
            &train_file,
            "--store",
            "tape",
        ]))
        .unwrap();
        assert!(matches!(run(&bad), Err(CliError::Usage(_))));

        // An impossible recall floor must fail the command.
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            &emb_out,
            "--train",
            &train_file,
            "--queries",
            "50",
            "--nprobe",
            "1",
            "--min-recall",
            "1.1",
        ]))
        .unwrap();
        assert!(matches!(run(&serve), Err(CliError::Library(_))));
    }

    #[test]
    fn serve_rejects_mismatched_and_corrupt_inputs() {
        let dir = std::env::temp_dir().join("sptx-cli-test-serve-bad");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "generate",
            "--entities",
            "50",
            "--relations",
            "3",
            "--triples",
            "200",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();

        // Missing embedding file.
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            "/nonexistent.bin",
            "--train",
            &train_file,
        ]))
        .unwrap();
        assert!(run(&serve).is_err());

        // Truncated embedding file: rejected at open, not a panic.
        let emb_out = dir.join("emb.bin").to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "train",
            "--train",
            &train_file,
            "--epochs",
            "1",
            "--dim",
            "8",
            "--batch-size",
            "64",
            "--out",
            &emb_out,
        ]))
        .unwrap())
        .unwrap();
        let bytes = std::fs::read(&emb_out).unwrap();
        let cut = dir.join("cut.bin");
        std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            &cut.to_string_lossy(),
            "--train",
            &train_file,
        ]))
        .unwrap();
        assert!(matches!(run(&serve), Err(CliError::Library(_))));

        // Corrupt index file.
        let bad_index = dir.join("bad.ivf");
        std::fs::write(&bad_index, b"SPTXIVF1 not really").unwrap();
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            &emb_out,
            "--train",
            &train_file,
            "--index",
            &bad_index.to_string_lossy(),
        ]))
        .unwrap();
        assert!(matches!(run(&serve), Err(CliError::Library(_))));
    }

    #[test]
    fn serve_rejects_an_index_with_an_out_of_range_entity_id() {
        // On 0c0bd16 this index loaded (only `indptr` was checked) and the
        // first probe of its cluster panicked indexing the table.
        let dir = std::env::temp_dir().join("sptx-cli-test-serve-bad-ids");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.to_string_lossy().to_string();
        let mut argv = strs(&["generate", "--entities", "60", "--relations", "3"]);
        argv.extend(strs(&["--triples", "300", "--out", &out]));
        run(&parse_args(&argv).unwrap()).unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let emb = dir.join("emb.bin").to_string_lossy().to_string();
        let mut argv = strs(&["train", "--train", &train_file, "--epochs", "1"]);
        argv.extend(strs(&["--dim", "8", "--batch-size", "64", "--out", &emb]));
        run(&parse_args(&argv).unwrap()).unwrap();
        let index = dir.join("index.ivf").to_string_lossy().to_string();
        let serve = strs(&["serve", "--emb", &emb, "--train", &train_file]);
        let mut argv = serve.clone();
        argv.extend(strs(&[
            "--queries",
            "20",
            "--clusters",
            "14",
            "--index-out",
            &index,
        ]));
        run(&parse_args(&argv).unwrap()).unwrap();

        // The first entity id sits after the header, the 14 × 8 centroids
        // and the 15 offsets.
        let mut bytes = std::fs::read(&index).unwrap();
        let at = 32 + 4 * 14 * 8 + 4 * 15;
        bytes[at..at + 4].copy_from_slice(&0x7fff_0000u32.to_le_bytes());
        std::fs::write(&index, &bytes).unwrap();
        let mut argv = serve;
        argv.extend(strs(&["--queries", "20", "--index", &index]));
        let err = run(&parse_args(&argv).unwrap()).unwrap_err();
        assert!(matches!(err, CliError::Library(_)), "{err}");
        assert!(err.to_string().contains("partition"), "{err}");
    }

    #[test]
    fn threads_option_is_validated_and_accepted() {
        let bad = parse_args(&strs(&["help", "--threads", "zero"])).unwrap();
        assert!(matches!(run(&bad), Err(CliError::Usage(_))));
        let bad = parse_args(&strs(&["help", "--threads", "0"])).unwrap();
        assert!(matches!(run(&bad), Err(CliError::Usage(_))));
        // In process the pool already exists: its own size is accepted, and
        // any other is a usage error rather than a silently ignored flag.
        let n = xparallel::current_num_threads();
        let ok = parse_args(&strs(&["help", "--threads", &n.to_string()])).unwrap();
        assert!(run(&ok).is_ok());
        let other = parse_args(&strs(&["help", "--threads", &(n + 1).to_string()])).unwrap();
        match run(&other) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--threads"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_flag_and_subcommand() {
        // One typo per subcommand; validation fires before any file is read.
        for (argv, flag) in [
            (&["generate", "--bogus-flag", "7"][..], "--bogus-flag"),
            (
                &["train", "--train", "missing.tsv", "--batchsize", "3"],
                "--batchsize",
            ),
            // `--prefetch` is rejected like any flag `train` does not read.
            (
                &[
                    "train",
                    "--train",
                    "missing.tsv",
                    "--store",
                    "disk",
                    "--prefetch",
                    "true",
                ],
                "--prefetch",
            ),
            (&["stats", "--train", "missing.tsv", "--sed", "1"], "--sed"),
            (
                &[
                    "serve",
                    "--emb",
                    "e.bin",
                    "--train",
                    "t.tsv",
                    "--n-probe",
                    "2",
                ],
                "--n-probe",
            ),
            (&["help", "--verbose", "true"], "--verbose"),
        ] {
            let args = parse_args(&strs(argv)).unwrap();
            match run(&args) {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains(flag), "{msg}");
                    assert!(msg.contains(&format!("sptx {}", argv[0])), "{msg}");
                }
                other => panic!("expected a usage error for {argv:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn help_prints_usage() {
        let args = parse_args(&strs(&["help"])).unwrap();
        assert_eq!(run(&args).unwrap(), USAGE);
    }
}
