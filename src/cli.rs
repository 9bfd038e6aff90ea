//! Command-line interface logic for the `sptx` binary.
//!
//! Subcommands:
//!
//! * `generate` — write a synthetic KG to train/valid/test TSV files.
//! * `train` — train any family of [`sptransx::MODELS`] on a TSV file, save
//!   its embedding table and print a report; `--async true --workers N`
//!   switches to the lock-free Hogwild arm (nondeterministic, SGD + sparse
//!   gradients + resident store only).
//! * `stats` — print dataset statistics (degrees, relation classes).
//! * `serve` — load saved embeddings, build (or load) an IVF candidate
//!   index, replay a Zipf-skewed query workload through the ANN and exact
//!   arms, and report recall@K, latency percentiles, QPS, scan fraction and
//!   cache hit rates.
//!
//! Every flag is one row of [`FLAGS`]: the subcommands that read it, the
//! kind of value it takes, what its absence means and its help line.
//! Unknown-flag rejection, range checks, parsing, `sptx help` and the
//! out-of-range cases of the binary's tests all derive from that table; the
//! subcommands only read typed values out of it. No subcommand knows a model
//! by name: `train --model` picks a [`sptransx::Registered`] family.
//!
//! `--threads N` sizes the worker pool, the process's one width: every
//! kernel and every `--workers` replica runs on it. The training and
//! evaluation engines are bit-identical at any thread count (the determinism
//! contract CI enforces), so the knob only trades wall-clock time. The one
//! documented exception is `train --async true` with 2+ workers on 2+
//! threads, which is nondeterministic by design.
//!
//! Parsing is deliberately dependency-free (`--key value` pairs); this
//! module holds the testable core, `src/bin/sptx.rs` is a thin shell.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use kg::eval::{evaluate_batched, EvalConfig, Popularity};
use kg::stream::RowFile;
use kg::{load_tsv, write_tsv, Dataset, Vocab};
use sptransx::serve::{
    recall_at_k, IvfConfig, IvfIndex, LatencySummary, QueryKey, ScanStats, ServeEngine, ServeModel,
    ZipfWorkload,
};
use sptransx::{
    Arm, Combine, KgeModel, Norm, OptimizerKind, Registered, SamplerKind, TrainConfig, TrainReport,
    Trainer, MODELS,
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

// ---------------------------------------------------------------------------
// The flag table
// ---------------------------------------------------------------------------

/// The subcommands, each with its line in `sptx help`.
const COMMANDS: [(&str, &str); 4] = [
    ("generate", "write a synthetic KG as train/valid/test TSVs"),
    ("train", "train a model, save its embeddings, report"),
    ("stats", "print degrees and relation classes"),
    ("serve", "answer top-K completion queries from a dump"),
];

/// What a flag's value must be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A whole number no smaller than this.
    Count(u64),
    /// A finite number in `[min, below)`, or `(min, below)` when `open`.
    Real {
        /// The lower bound.
        min: f64,
        /// Whether `min` itself is refused.
        open: bool,
        /// The exclusive upper bound.
        below: f64,
    },
    /// One of these names.
    Choice(&'static [&'static str]),
    /// A [`Registered::key`] of [`MODELS`].
    Model,
    /// `true` or `false`.
    Switch,
    /// `STEP:GAMMA`, with `STEP ≥ 1` and a finite `GAMMA > 0`.
    Decay,
    /// A path (its metavariable), checked where it is opened.
    Path(&'static str),
}

const fn real(min: f64, open: bool, below: f64) -> Kind {
    Kind::Real { min, open, below }
}
const POSITIVE: Kind = real(0.0, true, f64::INFINITY);
const NON_NEGATIVE: Kind = real(0.0, false, f64::INFINITY);
const FRACTION: Kind = real(0.0, false, 1.0);

impl Kind {
    /// Values of every shape this kind refuses (unparsable, below the
    /// bound, at the upper one, not a name), for tests to feed the binary.
    pub fn refused(&self) -> Vec<String> {
        let values = match *self {
            Kind::Count(min) => vec![Some(-1.0), (min > 0).then_some(min as f64 - 1.0)],
            Kind::Real { min, open, below } => {
                let low = if open { min } else { min - 1.0 };
                vec![
                    Some(f64::NAN),
                    Some(low),
                    below.is_finite().then_some(below),
                ]
            }
            Kind::Choice(_) | Kind::Model => return vec!["bogus".into()],
            Kind::Switch => return vec!["maybe".into()],
            Kind::Decay => return ["0:0.5", "10", "10:-1"].map(String::from).to_vec(),
            Kind::Path(_) => Vec::new(),
        };
        values
            .into_iter()
            .flatten()
            .map(|x| x.to_string())
            .collect()
    }
}

/// What a flag's absence means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absent {
    /// The subcommand cannot run without it.
    Required,
    /// This value.
    Value(&'static str),
    /// Off, or derived where it is read (the help line says from what).
    Unset,
}

/// One `--flag` of one or more subcommands.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The name, without the dashes.
    pub name: &'static str,
    /// The subcommands that read it.
    pub commands: &'static [&'static str],
    /// What its value must be.
    pub kind: Kind,
    /// What its absence means.
    pub absent: Absent,
    /// Its line in `sptx help`.
    pub help: &'static str,
}

#[rustfmt::skip]
const fn flag(name: &'static str, commands: &'static [&'static str], kind: Kind, absent: Absent, help: &'static str) -> Flag {
    Flag { name, commands, kind, absent, help }
}

const GENERATE: &[&str] = &["generate"];
const TRAIN: &[&str] = &["train"];
const SERVE: &[&str] = &["serve"];
const SPLIT: &[&str] = &["train", "stats"];
const TRAIN_SERVE: &[&str] = &["train", "serve"];
const TSV: &[&str] = &["train", "stats", "serve"];
const SEEDED: &[&str] = &["generate", "train", "stats", "serve"];
const EVERY: &[&str] = &["generate", "train", "stats", "serve", "help"];

/// Every flag of every subcommand; a name may have one row per subcommand.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    flag("entities", GENERATE, Kind::Count(2), Absent::Value("1000"), "entities"),
    flag("relations", GENERATE, Kind::Count(1), Absent::Value("10"), "relations"),
    flag("triples", GENERATE, Kind::Count(1), Absent::Unset, "triples before the split (default 5 × --entities)"),
    flag("out", GENERATE, Kind::Path("DIR"), Absent::Value("kg-out"), "directory for train.tsv, valid.tsv and test.tsv"),
    flag("train", TSV, Kind::Path("FILE.tsv"), Absent::Required, "triples, one tab-separated `head relation tail` per line"),
    flag("valid-frac", SPLIT, FRACTION, Absent::Value("0"), "share of the triples held out for validation"),
    flag("test-frac", SPLIT, FRACTION, Absent::Value("0.1"), "share of the triples held out for testing"),
    flag("seed", SEEDED, Kind::Count(0), Absent::Value("42"), "RNG seed"),
    flag("model", TRAIN, Kind::Model, Absent::Value("transe"), "model family; -dense are the gather baselines"),
    flag("out", TRAIN, Kind::Path("FILE"), Absent::Value("embeddings.bin"), "where the trained embedding table is saved"),
    flag("epochs", TRAIN, Kind::Count(1), Absent::Value("50"), "training epochs"),
    flag("batch-size", TRAIN, Kind::Count(1), Absent::Value("1024"), "positive triples per mini-batch"),
    flag("dim", TRAIN, Kind::Count(1), Absent::Value("64"), "entity embedding dimension"),
    flag("rel-dim", TRAIN, Kind::Count(1), Absent::Value("32"), "relation-space dimension (TransR)"),
    flag("lr", TRAIN, POSITIVE, Absent::Value("0.1"), "learning rate"),
    flag("margin", TRAIN, NON_NEGATIVE, Absent::Value("0.5"), "margin of the ranking loss"),
    flag("norm", TRAIN_SERVE, Kind::Choice(&["l1", "l2", "torus-l1", "torus-l2"]), Absent::Value("l2"), "distance; serve names the dump's own"),
    flag("sampler", TRAIN, Kind::Choice(&["uniform", "bernoulli"]), Absent::Value("uniform"), "negative sampler"),
    flag("optimizer", TRAIN, Kind::Choice(&["sgd", "adagrad", "adam"]), Absent::Value("sgd"), "optimizer"),
    flag("lr-decay", TRAIN, Kind::Decay, Absent::Unset, "multiply the learning rate by GAMMA every STEP epochs"),
    flag("dense-grads", TRAIN, Kind::Switch, Absent::Value("false"), "walk whole tables in every sweep (ablation)"),
    flag("store", TRAIN_SERVE, Kind::Choice(&["ram", "disk"]), Absent::Value("ram"), "where the embedding table lives"),
    flag("cache-rows", TRAIN_SERVE, Kind::Count(1), Absent::Value("4096"), "row-cache budget of --store disk"),
    flag("async", TRAIN, Kind::Switch, Absent::Value("false"), "train with the lock-free Hogwild arm"),
    flag("workers", TRAIN, Kind::Count(1), Absent::Value("4"), "replicas of --async true"),
    flag("emb", SERVE, Kind::Path("FILE.bin"), Absent::Required, "embedding table saved by train"),
    flag("k", SERVE, Kind::Count(1), Absent::Value("10"), "answers per query"),
    flag("clusters", SERVE, Kind::Count(1), Absent::Unset, "IVF clusters (default √entities)"),
    flag("nprobe", SERVE, Kind::Count(1), Absent::Unset, "clusters probed per query (default clusters / 8)"),
    flag("kmeans-iters", SERVE, Kind::Count(1), Absent::Value("8"), "k-means rounds of the index build"),
    flag("queries", SERVE, Kind::Count(1), Absent::Value("2000"), "queries in the workload"),
    flag("zipf", SERVE, NON_NEGATIVE, Absent::Value("1.1"), "Zipf exponent of the query stream"),
    flag("cache-size", SERVE, Kind::Count(1), Absent::Value("1024"), "query-cache entries"),
    flag("index", SERVE, Kind::Path("FILE"), Absent::Unset, "load the IVF index instead of building it"),
    flag("index-out", SERVE, Kind::Path("FILE"), Absent::Unset, "save the IVF index"),
    flag("min-recall", SERVE, NON_NEGATIVE, Absent::Value("0"), "fail below this recall@K against the exact arm"),
    flag("max-scan-frac", SERVE, NON_NEGATIVE, Absent::Value("1"), "fail above this share of entities scanned"),
    flag("threads", EVERY, Kind::Count(1), Absent::Unset, "worker-pool size (default SPTX_NUM_THREADS, else every CPU)"),
];

/// `--model`'s choices: every registered family's key.
fn model_keys() -> String {
    let keys: Vec<String> = MODELS.iter().map(Registered::key).collect();
    keys.join("|")
}

impl Flag {
    /// The row of `--name` for `command` (`--help` and `-h` are `help`).
    pub fn find(command: &str, name: &str) -> Option<&'static Flag> {
        let command = if command.starts_with('-') {
            "help"
        } else {
            command
        };
        (FLAGS.iter()).find(|f| f.name == name && f.commands.contains(&command))
    }

    /// Checks `raw` against this flag's [`Kind`].
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] naming the flag.
    pub fn check(&self, raw: &str) -> Result<(), CliError> {
        let name = self.name;
        let usage = |msg: String| Err(CliError::Usage(msg));
        let unparsable = || CliError::Usage(format!("could not parse --{name} value {raw:?}"));
        match self.kind {
            Kind::Count(min) if raw.parse::<u64>().map_err(|_| unparsable())? < min => {
                usage(format!("--{name} must be at least {min}"))
            }
            Kind::Real { min, open, below } => {
                let x: f64 = raw.parse().map_err(|_| unparsable())?;
                let above = if open { x > min } else { x >= min };
                if x.is_finite() && above && x < below {
                    return Ok(());
                }
                let from = if open { '(' } else { '[' };
                usage(format!(
                    "--{name} needs a finite number in {from}{min}, {below}), got {raw}"
                ))
            }
            Kind::Choice(names) if !names.contains(&raw) => {
                usage(format!("unknown --{name} {raw:?} ({})", names.join("|")))
            }
            Kind::Model if Registered::find(raw).is_none() => {
                usage(format!("unknown --{name} {raw:?} ({})", model_keys()))
            }
            Kind::Switch => raw.parse::<bool>().map(|_| ()).map_err(|_| unparsable()),
            Kind::Decay => parse_lr_decay(raw).map(|_| ()),
            _ => Ok(()),
        }
    }

    /// The flag's lines in `sptx help`.
    fn usage(&self) -> String {
        let metavar = match self.kind {
            Kind::Count(_) => "N".into(),
            Kind::Real { .. } => "X".into(),
            Kind::Choice(names) => names.join("|"),
            Kind::Model => model_keys(),
            Kind::Switch => "true|false".into(),
            Kind::Decay => "STEP:GAMMA".into(),
            Kind::Path(metavar) => metavar.to_string(),
        };
        let left = format!("  --{} {metavar}", self.name);
        let help = match self.absent {
            Absent::Required => format!("{} (required)", self.help),
            Absent::Value(v) => format!("{} (default {v})", self.help),
            Absent::Unset => self.help.to_string(),
        };
        match left.chars().count() {
            ..26 => format!("{left:<26}{help}\n"),
            _ => format!("{left}\n{:26}{help}\n", ""),
        }
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
    /// `--name`'s value if given, checked against its [`FLAGS`] row (which
    /// the subcommand must have: reading an undeclared flag panics).
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for a value the row refuses.
    pub fn given<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        let flag = Flag::find(&self.command, name).expect("a declared flag");
        let Some(raw) = self.options.get(name) else {
            return Ok(None);
        };
        flag.check(raw)?;
        let bad = || CliError::Usage(format!("could not parse --{name} value {raw:?}"));
        raw.parse().map(Some).map_err(|_| bad())
    }

    /// `--name`'s value: the given one, else its row's default (a flag
    /// without one, [`Absent::Unset`], is read with [`Args::given`]).
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for a refused value or a missing required flag.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<T, CliError> {
        if let Some(value) = self.given(name)? {
            return Ok(value);
        }
        match Flag::find(&self.command, name).map(|f| f.absent) {
            Some(Absent::Value(raw)) => Ok(raw.parse().ok().expect("a default parses")),
            _ => Err(CliError::Usage(format!("missing required flag --{name}"))),
        }
    }

    /// The entry of `values` that `--name` picks: one per name of its
    /// [`Kind::Choice`], in the same order.
    fn pick<T: Copy>(&self, name: &str, values: &[T]) -> Result<T, CliError> {
        let raw: String = self.get(name)?;
        let names = match Flag::find(&self.command, name).map(|f| f.kind) {
            Some(Kind::Choice(names)) if names.len() == values.len() => names,
            _ => panic!("--{name} is not a choice of {} names", values.len()),
        };
        Ok(values[names.iter().position(|n| *n == raw).expect("checked")])
    }
}

/// Rejects, in name order, any `--flag` the subcommand has no [`FLAGS`] row
/// for — a typo, or a flag that no longer exists, is a loud error instead of
/// a silently ignored default — and any value its row refuses.
fn check_flags(args: &Args) -> Result<(), CliError> {
    let mut options: Vec<_> = args.options.iter().collect();
    options.sort();
    for (name, raw) in options {
        let unknown = || {
            let command = &args.command;
            CliError::Usage(format!(
                "unknown flag --{name} for `sptx {command}` (see `sptx help`)"
            ))
        };
        Flag::find(&args.command, name)
            .ok_or_else(unknown)?
            .check(raw)?;
    }
    Ok(())
}

/// Applies `--threads N`: sizes the worker pool, which the `sptx` binary has
/// not created yet when it parses its flags. An in-process caller whose pool
/// already runs another size gets a usage error: the pool cannot be resized,
/// and ignoring the flag would be a silent no-op.
fn apply_threads_option(args: &Args) -> Result<(), CliError> {
    let Some(n) = args.given::<usize>("threads")? else {
        return Ok(());
    };
    if !xparallel::set_num_threads(n) && xparallel::current_num_threads() != n {
        return Err(CliError::Usage(format!(
            "--threads {n}: this process's worker pool already runs {} threads",
            xparallel::current_num_threads()
        )));
    }
    Ok(())
}

/// Dispatches a parsed command, returning the text to print.
///
/// # Errors
///
/// Propagates all subcommand errors; a flag the subcommand does not know,
/// or a value its [`FLAGS`] row refuses, is a [`CliError::Usage`] naming it.
pub fn run(args: &Args) -> Result<String, CliError> {
    let command: fn(&Args) -> Result<String, CliError> = match args.command.as_str() {
        "generate" => cmd_generate,
        "train" => cmd_train,
        "stats" => cmd_stats,
        "serve" => cmd_serve,
        "help" | "--help" | "-h" => |_| Ok(usage()),
        other => {
            let usage = usage();
            return Err(CliError::Usage(format!(
                "unknown subcommand {other:?}\n{usage}"
            )));
        }
    };
    check_flags(args)?;
    apply_threads_option(args)?;
    command(args)
}

/// The usage text: the subcommands, each one's [`FLAGS`], then the notes.
pub fn usage() -> String {
    let mut out = String::from("sptx — SparseTransX knowledge-graph embedding trainer\n\nUSAGE:\n");
    for (command, what) in COMMANDS {
        out += &format!("  sptx {command:<8} [--flag value]…   {what}\n");
    }
    out += "  sptx help\n";
    let sections = COMMANDS.map(|(command, _)| (command, command));
    for (title, command) in sections.into_iter().chain([("every subcommand", "help")]) {
        out += &format!("\n{title}:\n");
        // A flag every subcommand reads is listed once, under the last title.
        for f in FLAGS.iter().filter(|f| f.commands.contains(&command)) {
            if (f.commands == EVERY) == (command == "help") {
                out += &f.usage();
            }
        }
    }
    let kernels = xparallel::Isa::detected().name();
    format!("{out}\n{NOTES}\n\nkernels: {kernels}")
}

/// What `sptx help` says after the flags.
const NOTES: &str = "\
Results are bit-identical at any --threads N; only wall-clock changes. The
train report names the arm that ran and prints per-kernel calls, bytes and
flops; a run whose loss goes NaN or infinite stops, naming the epoch and
batch, and exits 1.

--async true: --workers N replicas run as tasks on the --threads pool and
share one set of parameters, stepping touched rows with no barriers and no
locks. With 2+ workers at once the run is nondeterministic; at --workers 1
or --threads 1 it is the synchronous trainer bit for bit. Requires SGD,
sparse gradients and --store ram.

--store disk: the embedding table lives in {out}.pagefile (train) or the
dump (serve), and each batch or query pages its rows into a --cache-rows
LRU row cache. Paging moves bytes, never arithmetic: the run is
bit-identical to --store ram. Every --model pages, the -dense gather
baselines included. Requires SGD and sparse gradients.

serve reads the stacked table of an hrt model (TransE/TorusE layout) under
the --norm it was trained with (a toruse dump trained under l1 is served
with torus-l1), answers each query through an IVF index (the clustering is
squared-L2 under every --norm) and the exact full scan, and reports
recall@K, latency, QPS, scan fraction and cache hit rates. Every cache
count is checked against a simcache LRU replay of the same trace, and any
divergence prints a WARNING line.

The IVF k-means and probe and TransR's projections run 8 lanes wide on a
CPU with AVX2, with the bits of the 4-lane baseline loop (never FMA). The
last line names the kernels this CPU runs.";

// ---------------------------------------------------------------------------
// The subcommands
// ---------------------------------------------------------------------------

/// `sptx generate`: synthesize a KG and write train/valid/test TSVs.
fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let entities: usize = args.get("entities")?;
    let relations: usize = args.get("relations")?;
    let triples = args.given("triples")?.unwrap_or(entities * 5);
    let out: PathBuf = args.get("out")?;
    std::fs::create_dir_all(&out).map_err(kg::Error::from)?;

    let ds = kg::synthetic::SyntheticKgBuilder::new(entities, relations)
        .triples(triples)
        .seed(args.get("seed")?)
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

/// `sptx train`: everything is parsed, and the arm it adds up to checked
/// against [`Arm::check`] (a refusal is a usage error), before the dataset
/// is opened.
fn cmd_train(args: &Args) -> Result<String, CliError> {
    // `--async true` selects the Hogwild arm; `--workers` is meaningless
    // (and therefore rejected) on the synchronous default.
    let use_async: bool = args.get("async")?;
    if args.options.contains_key("workers") && !use_async {
        return Err(CliError::Usage(
            "--workers only applies to the asynchronous arm; add --async true".into(),
        ));
    }
    let (workers, combine) = if use_async {
        (args.get("workers")?, Combine::Shared)
    } else {
        (1, Combine::AllReduce)
    };
    let model = args.get::<String>("model")?;
    TrainJob {
        args,
        train_path: args.get("train")?,
        model: Registered::find(&model).expect("--model is checked against the registry"),
        config: config_from_args(args)?,
        out: args.get("out")?,
        cache_rows: cache_rows_from_args(args)?,
        workers,
        combine,
    }
    .run()
}

/// Parses `--store {ram,disk}` + `--cache-rows N`: the row-cache budget of
/// disk mode, `None` for the fully resident default. A budget without a
/// disk store to apply it to is a usage error, not a silent no-op.
fn cache_rows_from_args(args: &Args) -> Result<Option<usize>, CliError> {
    let disk = args.pick("store", &[false, true])?;
    if !disk && args.options.contains_key("cache-rows") {
        return Err(CliError::Usage(
            "--cache-rows only applies to --store disk".into(),
        ));
    }
    disk.then(|| args.get("cache-rows")).transpose()
}

/// `sptx stats`.
fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let path: PathBuf = args.get("train")?;
    let (ds, _) = load_dataset(&path, args)?;
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

/// `sptx serve`: a threshold violation (`--min-recall`, `--max-scan-frac`)
/// is a serving error, so CI smoke runs fail on it.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    ServeJob::parse(args)?.run()
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
    let ds = Dataset::from_single_store(
        train.display().to_string(),
        vocab.num_entities(),
        vocab.num_relations(),
        store,
        args.get("valid-frac")?,
        args.get("test-frac")?,
        args.get("seed")?,
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
    use OptimizerKind::{Adagrad, Adam, Sgd};
    let lr_decay: Option<String> = args.given("lr-decay")?;
    let config = TrainConfig {
        epochs: args.get("epochs")?,
        batch_size: args.get("batch-size")?,
        dim: args.get("dim")?,
        rel_dim: args.get("rel-dim")?,
        lr: args.get("lr")?,
        margin: args.get("margin")?,
        norm: parse_norm(args)?,
        sampler: args.pick("sampler", &[SamplerKind::Uniform, SamplerKind::Bernoulli])?,
        seed: args.get("seed")?,
        lr_schedule: lr_decay.as_deref().map(parse_lr_decay).transpose()?,
        optimizer: args.pick("optimizer", &[Sgd, Adagrad, Adam])?,
        dense_grads: args.get("dense-grads")?,
        ..TrainConfig::default()
    };
    // The table's ranges are f64; an f32 that rounds out of range is the
    // library's to refuse.
    config.validate().map_err(config_is_usage)?;
    Ok(config)
}

/// `--norm` for both `train` (whose model coerces it to its own geometry)
/// and `serve` (which has to be told the metric the dump was trained under).
fn parse_norm(args: &Args) -> Result<Norm, CliError> {
    args.pick("norm", &[Norm::L1, Norm::L2, Norm::TorusL1, Norm::TorusL2])
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
    train_path: PathBuf,
    model: &'static Registered,
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
    fn run(&self) -> Result<String, CliError> {
        let config = &self.config;
        let arm = Arm {
            paged: self.cache_rows.is_some(),
            optimizer: config.optimizer,
            dense_grads: config.dense_grads,
            fused: config.fused,
            workers: self.workers,
            combine: self.combine,
        };
        arm.check().map_err(config_is_usage)?;

        let (ds, _vocab) = load_dataset(&self.train_path, self.args)?;
        let build = self.model.build;
        let mut trainer = Trainer::replicated(&ds, config, self.workers, self.combine, build)?;
        let paged = match self.cache_rows {
            None => None,
            Some(budget) => {
                let mut path = self.out.as_os_str().to_owned();
                path.push(".pagefile");
                let pagefile = Pagefile(path.into());
                let store = trainer.model_mut().store_mut();
                let id = page_out_embeddings(store, &pagefile.0, budget)?;
                Some((id, pagefile))
            }
        };

        let report = trainer.run()?;
        // Unpage (and cross-validate the cache counters) before the
        // paging-unaware evaluation and dump paths read the table.
        let paged_report = match &paged {
            Some((id, _)) => unpage_and_validate(trainer.model_mut().store_mut(), *id)?,
            None => String::new(),
        };
        // Batched, pool-parallel engine; strided subsampling avoids the
        // dataset-order bias of a plain prefix truncation. The popularity
        // baseline is ranked under the same protocol.
        let eval_config = EvalConfig {
            max_triples: Some(500),
            sample: kg::eval::SampleStrategy::Strided,
            ..Default::default()
        };
        let eval = trainer.evaluate_batched(&ds, &eval_config);
        let popularity = Popularity::new(&ds.train, ds.num_entities);
        let baseline = evaluate_batched(&popularity, &ds.test, &ds.all_known(), &eval_config);
        let store = trainer.model().store();
        if let Some(id) = embedding_table(store) {
            let t = store.value(id);
            let (cols, data) = (t.cols(), t.as_slice());
            RowFile::write(&self.out, t.rows(), cols, |r, dst| {
                dst.copy_from_slice(&data[r * cols..(r + 1) * cols]);
            })?;
        }
        Ok(format!(
            "{}: {} epochs, loss {:.4} -> {:.4}, wall {:.2}s, Hits@10 {:.3} (popularity {:.3}), \
             MRR {:.3} (popularity {:.3})\n\
             {}\n{}{paged_report}\nembeddings saved to {}",
            trainer.model().name(),
            report.epoch_losses.len(),
            report.epoch_losses.first().copied().unwrap_or(0.0),
            report.epoch_losses.last().copied().unwrap_or(0.0),
            report.wall.as_secs_f64(),
            eval.hits(10).unwrap_or(0.0),
            baseline.hits(10).unwrap_or(0.0),
            eval.mrr,
            baseline.mrr,
            arm_line(&arm),
            kernel_counter_table(&report),
            self.out.display()
        ))
    }
}

/// The table `sptx train` pages out and dumps: the first one the model
/// registered, which is the stacked entity+relation `embeddings` of the
/// `hrt` families (what `sptx serve` reads) and the `entities` of the
/// others — the table every family pages.
fn embedding_table(store: &tensor::ParamStore) -> Option<tensor::ParamId> {
    store.param_ids().first().copied()
}

/// Pages the [`embedding_table`] out to a fresh `pagefile` with a
/// `budget`-row cache and turns row tracing on (the trace feeds the simcache
/// cross-validation after the run). Returns the paged [`tensor::ParamId`].
fn page_out_embeddings(
    store: &mut tensor::ParamStore,
    pagefile: &Path,
    budget: usize,
) -> Result<tensor::ParamId, CliError> {
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
fn unpage_and_validate(
    store: &mut tensor::ParamStore,
    id: tensor::ParamId,
) -> Result<String, CliError> {
    let pager = store.pager(id).expect("paged parameter");
    let stats = pager.stats();
    let (read_calls, write_calls) = pager.storage_io_ops();
    let trace = pager.trace().expect("tracing was enabled").to_vec();
    let budget = pager.budget();
    store.unpage(id).map_err(sptransx::Error::from)?;

    let (_, replay, warning) = lru_replay(budget, &trace, "cache", stats.hits);
    Ok(format!(
        "\npaged store: budget {budget} rows, {} hits / {} misses / {} evictions / {} \
         write-backs / {read_calls} read calls / {write_calls} write calls \
         (hit rate {:.1}%){replay}{warning}",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.write_backs,
        hit_rate(stats.hits, stats.misses),
    ))
}

/// `hits` as a percentage of all accesses (0 when there were none).
fn hit_rate(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 0.0,
        accesses => 100.0 * hits as f64 / accesses as f64,
    }
}

/// What `sptx serve` parsed, before any file is opened.
struct ServeJob {
    emb: PathBuf,
    train: PathBuf,
    norm: Norm,
    norm_name: String,
    k: usize,
    /// `None`: √entities and an eighth of the index's clusters.
    clusters: Option<usize>,
    nprobe: Option<usize>,
    kmeans_iters: usize,
    queries: usize,
    zipf: f64,
    cache_size: usize,
    seed: u64,
    cache_rows: Option<usize>,
    index: Option<PathBuf>,
    index_out: Option<PathBuf>,
    min_recall: f64,
    max_scan_frac: f64,
}

impl ServeJob {
    fn parse(args: &Args) -> Result<Self, CliError> {
        Ok(Self {
            emb: args.get("emb")?,
            train: args.get("train")?,
            norm: parse_norm(args)?,
            norm_name: args.get("norm")?,
            k: args.get("k")?,
            clusters: args.given("clusters")?,
            nprobe: args.given("nprobe")?,
            kmeans_iters: args.get("kmeans-iters")?,
            queries: args.get("queries")?,
            zipf: args.get("zipf")?,
            cache_size: args.get("cache-size")?,
            seed: args.get("seed")?,
            cache_rows: cache_rows_from_args(args)?,
            index: args.given("index")?,
            index_out: args.given("index-out")?,
            min_recall: args.get("min-recall")?,
            max_scan_frac: args.get("max-scan-frac")?,
        })
    }

    /// The dump, split into entity and relation rows by the training file:
    /// the dump stores only the stacked matrix.
    fn load(&self) -> Result<ServeModel, CliError> {
        let mut vocab = Vocab::new();
        let file = std::fs::File::open(&self.train).map_err(kg::Error::from)?;
        load_tsv(file, &mut vocab)?;
        let n = vocab.num_entities();
        if n == 0 {
            return Err(CliError::Usage(format!(
                "training file {:?} has no triples",
                self.train.display().to_string()
            )));
        }
        let model = ServeModel::load(&self.emb, n, self.norm)?;
        let r = model.num_relations();
        if r != vocab.num_relations() {
            return Err(serve_error(format!(
                "embedding file implies {r} relations but the training file has {} — \
                 wrong file pair, or a non-translational model dump",
                vocab.num_relations()
            )));
        }
        Ok(model)
    }

    /// `--index`, or an index built over `model`'s entity rows; saved to
    /// `--index-out` if given.
    fn index(&self, model: &ServeModel) -> Result<IvfIndex, CliError> {
        let n = model.num_entities();
        let index = match &self.index {
            Some(path) => IvfIndex::load(path)?,
            None => IvfIndex::build(
                model.embeddings(),
                n,
                model.dim(),
                &IvfConfig {
                    clusters: (self.clusters).unwrap_or(IvfConfig::sqrt_clusters(n).clusters),
                    iters: self.kmeans_iters,
                    seed: self.seed,
                },
                &xparallel::PoolHandle::global(),
            )?,
        };
        if let Some(path) = &self.index_out {
            index.save(path)?;
        }
        Ok(index)
    }

    fn run(&self) -> Result<String, CliError> {
        let model = self.load()?;
        let index = self.index(&model)?;
        let (n, r) = (model.num_entities(), model.num_relations());
        let (k, num_clusters) = (self.k, index.num_clusters());
        let nprobe = (self.nprobe)
            .unwrap_or(num_clusters.div_ceil(8))
            .min(num_clusters);
        let mut engine = ServeEngine::new(model, index)?.with_cache(self.cache_size);
        let mut workload = ZipfWorkload::new(n, r, self.zipf, self.seed);

        // --store disk: additionally answer every query through a row cache
        // over the on-disk embedding file (the out-of-core arm),
        // cross-checking each answer against the resident ANN arm bit for bit.
        let mut paged_rows = match self.cache_rows {
            None => None,
            Some(cache_rows) => {
                let storage = sptransx::FileRowStorage::open(&self.emb)?;
                let mut rows = sptransx::serve::PagedRows::new(Box::new(storage), cache_rows)?;
                rows.set_tracing(true);
                Some(rows)
            }
        };

        // First-principles cache model: the same key stream (one distinct
        // line per distinct key) replayed through `lru_replay` must predict
        // the real cache's hit count exactly.
        let mut key_lines: HashMap<QueryKey, u32> = HashMap::new();
        let (mut ann_lat, mut exact_lat, mut paged_lat) = (Vec::new(), Vec::new(), Vec::new());
        let (mut recall_sum, mut scored, mut computed, mut diverged) = (0.0, 0, 0, 0);
        let mut key_trace = Vec::with_capacity(self.queries);
        let mut exact_scan = ScanStats::default();
        for _ in 0..self.queries {
            let q = workload.next_query();
            let key: QueryKey = (q.dir as u8, q.entity, q.rel, k as u32, nprobe as u32);
            let next_line = key_lines.len() as u32;
            key_trace.push(*key_lines.entry(key).or_insert(next_line));

            let t = std::time::Instant::now();
            let ann = engine.answer_ann(&q, k, nprobe);
            ann_lat.push(t.elapsed());
            let before = engine.scan_stats();
            let t = std::time::Instant::now();
            let exact = engine.answer_exact(&q, k);
            exact_lat.push(t.elapsed());
            exact_scan = exact_scan + (engine.scan_stats() - before);
            if let Some(rows) = &mut paged_rows {
                let t = std::time::Instant::now();
                let paged = engine.answer_ann_paged(rows, &q, k, nprobe)?;
                paged_lat.push(t.elapsed());
                diverged += usize::from(paged.hits != ann.hits);
            }
            recall_sum += recall_at_k(&exact, &ann.hits);
            if !ann.cache_hit {
                scored += ann.scored;
                computed += 1;
            }
        }

        let recall = recall_sum / self.queries as f64;
        let scan_frac = match computed {
            0 => 0.0,
            computed => scored as f64 / (computed * n) as f64,
        };
        let dim = engine.model().dim();
        let early_exit = |arm: &str, scan: ScanStats| {
            format!(
                "early exit ({arm}): {:.1}% of candidate panels stopped, {:.1}% of their columns read",
                100.0 * scan.stopped_frac(),
                100.0 * scan.columns_frac(dim),
            )
        };
        let ann_scan = engine.scan_stats() - exact_scan;
        let cache_stats = engine.cache_stats().unwrap_or_default();
        let (sim, _, cache_warning) =
            lru_replay(self.cache_size, &key_trace, "cache", cache_stats.hits);
        let summary = |samples: &[std::time::Duration]| {
            LatencySummary::from_samples(samples).expect("--queries is at least 1")
        };
        let mut out = format!(
            "serving {n} entities / {r} relations, dim {}, norm {}\n\
             index: {num_clusters} clusters, nprobe {nprobe}, kmeans iters {}, seed {}\n\
             workload: {} queries, zipf({}), k {k}, cache {}\n\
             recall@{k} vs exact arm: {recall:.4}\n\
             scan fraction (cache misses): {:.1}% of entities\n\
             {}\n\
             {}\n\
             cache hit rate: {:.1}% (simcache model: {:.1}%)\n\
             {}\n\
             {}",
            engine.model().dim(),
            self.norm_name,
            self.kmeans_iters,
            self.seed,
            self.queries,
            self.zipf,
            self.cache_size,
            100.0 * scan_frac,
            early_exit("ann", ann_scan),
            early_exit("exact", exact_scan),
            100.0 * cache_stats.hit_rate(),
            100.0 * (1.0 - sim.miss_rate()),
            latency_line("ann  ", &summary(&ann_lat)),
            latency_line("exact", &summary(&exact_lat)),
        );
        out.push_str(&cache_warning);
        if let Some(rows) = &paged_rows {
            let stats = rows.stats();
            out.push_str(&format!(
                "\npaged store: budget {} rows, {} hits / {} misses / {} evictions (hit rate {:.1}%)\n{}",
                rows.budget(),
                stats.hits,
                stats.misses,
                stats.evictions,
                hit_rate(stats.hits, stats.misses),
                latency_line("paged", &summary(&paged_lat)),
            ));
            let trace = rows.trace().expect("tracing was enabled");
            let (_, replay, warning) = lru_replay(rows.budget(), trace, "row cache", stats.hits);
            out.push_str(&(replay + &warning));
            if diverged > 0 {
                out += &format!(
                    "\nWARNING: paged arm diverged from the resident ANN arm on {diverged} queries"
                );
            }
        }

        let (min_recall, max_scan_frac) = (self.min_recall, self.max_scan_frac);
        if recall < min_recall {
            let why = format!("recall@{k} {recall:.4} is below --min-recall {min_recall}");
            return Err(serve_error(format!("{why} ({out})")));
        }
        if scan_frac > max_scan_frac {
            let why =
                format!("scan fraction {scan_frac:.4} exceeds --max-scan-frac {max_scan_frac}");
            return Err(serve_error(format!("{why} ({out})")));
        }
        Ok(out)
    }
}

fn serve_error(context: String) -> CliError {
    CliError::Library(Box::new(sptransx::Error::serve(context)))
}

/// One arm's latency line of the serve report.
fn latency_line(name: &str, s: &LatencySummary) -> String {
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    format!(
        "{name} p50 {:.1}us p95 {:.1}us p99 {:.1}us, {:.0} qps",
        us(s.p50),
        us(s.p95),
        us(s.p99),
        s.qps
    )
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
/// one row per autograd kernel (`op::*` row of the report) with call counts
/// and the analytic bytes-moved / flop totals.
///
/// Wall-clock times are deliberately omitted and rows are sorted by name,
/// so the table is bit-identical across thread counts and machines — CI
/// diffs the full report between runs.
fn kernel_counter_table(report: &TrainReport) -> String {
    let mut rows = report.ops.clone();
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one command line; arguments are whitespace-separated (the
    /// scratch paths below have no spaces).
    fn cli(line: &str) -> Result<String, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        run(&parse_args(&argv)?)
    }

    fn args(line: &str) -> Args {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv).unwrap()
    }

    /// A fresh scratch directory `name` holding a generated KG; returns the
    /// directory and its `train.tsv`.
    fn kg(name: &str, entities: usize, relations: usize, triples: usize) -> (PathBuf, String) {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let (e, r, t, out) = (entities, relations, triples, dir.display());
        let msg = cli(&format!(
            "generate --entities {e} --relations {r} --triples {t} --out {out}"
        ));
        assert!(msg.unwrap().contains("train"));
        let train = dir.join("train.tsv").display().to_string();
        (dir, train)
    }

    fn is_usage(result: Result<String, CliError>) -> bool {
        matches!(result, Err(CliError::Usage(_)))
    }

    #[test]
    fn parse_command_and_flags() {
        let args = args("train --epochs 5 --lr 0.1");
        assert_eq!(args.command, "train");
        assert_eq!(args.get::<usize>("epochs").unwrap(), 5);
        assert!((args.get::<f32>("lr").unwrap() - 0.1).abs() < 1e-6);
        // Absent: the table's default.
        assert_eq!(args.get::<usize>("dim").unwrap(), 64);
        assert_eq!(args.given::<String>("lr-decay").unwrap(), None);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(&[]).is_err());
        for line in ["train positional", "train --epochs"] {
            let argv: Vec<String> = line.split(' ').map(String::from).collect();
            assert!(parse_args(&argv).is_err(), "{line}");
        }
        let args = args("train --epochs abc");
        assert!(args.get::<usize>("epochs").is_err());
        match args.get::<String>("train") {
            Err(CliError::Usage(msg)) => assert!(msg.contains("missing required flag --train")),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    /// One row per (subcommand, name); every subcommand a row names exists;
    /// every default passes its own row's check; `sptx help` shows every
    /// flag; and every value a kind offers as refused is refused.
    #[test]
    fn the_flag_table_is_consistent() {
        let mut seen = std::collections::BTreeSet::new();
        let text = usage();
        for f in FLAGS {
            for command in f.commands {
                let known = *command == "help" || COMMANDS.iter().any(|(c, _)| c == command);
                assert!(known, "--{}: {command}", f.name);
                assert!(seen.insert((*command, f.name)), "--{} twice", f.name);
            }
            if let Absent::Value(raw) = f.absent {
                f.check(raw).unwrap();
            }
            for bad in f.kind.refused() {
                assert!(f.check(&bad).is_err(), "--{} {bad}", f.name);
            }
            assert!(text.contains(&format!("  --{} ", f.name)), "--{}", f.name);
        }
        assert!(
            text.contains(&format!("\n  --model {}\n", model_keys())),
            "{text}"
        );
    }

    #[test]
    fn train_trains_every_registered_model() {
        let (dir, train) = kg("sptx-cli-test-registry", 60, 3, 300);
        for model in MODELS {
            let key = model.key();
            let emb = dir.join(format!("emb_{key}.bin"));
            let msg = cli(&format!(
                "train --train {train} --model {key} --epochs 1 --dim 8 --rel-dim 3 \
                 --batch-size 64 --out {}",
                emb.display()
            ))
            .unwrap();
            assert!(
                msg.starts_with(&format!("{}: 1 epochs", model.name)),
                "{msg}"
            );
            let mut dump = RowFile::open(&emb).unwrap();
            assert!(dump.rows() >= 60, "{key}: {} rows", dump.rows());
            let table = dump.read_rows(0, dump.rows()).unwrap();
            assert!(table.iter().all(|x| x.is_finite()), "{key}");
        }
    }

    #[test]
    fn generate_then_stats_then_train() {
        let (dir, train) = kg("sptx-cli-test", 80, 4, 500);
        let msg = cli(&format!("stats --train {train}")).unwrap();
        assert!(msg.contains("mean degree"), "{msg}");

        let emb = dir.join("emb.bin");
        let line = format!("train --train {train} --epochs 3 --dim 8 --batch-size 64");
        let msg = cli(&format!("{line} --out {}", emb.display())).unwrap();
        assert!(msg.contains("SpTransE"), "{msg}");
        assert!(
            msg.contains("arm: sparse touched-row gradients/renorm, fused kernels"),
            "{msg}"
        );
        assert!(msg.contains("per-kernel counters"), "{msg}");
        assert!(msg.contains("op::spmm_score"), "{msg}");
        assert!(emb.exists());
    }

    #[test]
    fn unknown_subcommand_and_model() {
        assert!(is_usage(cli("frobnicate")));
        let (_, train) = kg("sptx-cli-test2", 30, 2, 100);
        assert!(is_usage(cli(&format!(
            "train --train {train} --model nope"
        ))));
    }

    #[test]
    fn optimizer_and_lr_decay_flags_parse() {
        let cfg = config_from_args(&args(
            "train --optimizer adagrad --lr-decay 10:0.5 --dense-grads true",
        ))
        .unwrap();
        assert_eq!(cfg.optimizer, OptimizerKind::Adagrad);
        assert_eq!(cfg.lr_schedule, Some((10, 0.5)));
        assert!(cfg.dense_grads);

        let defaults = config_from_args(&args("train")).unwrap();
        assert_eq!(defaults.optimizer, OptimizerKind::Sgd);
        assert_eq!(defaults.lr_schedule, None);
        assert!(!defaults.dense_grads);
        assert!(defaults.fused);

        let bad = config_from_args(&args("train --optimizer lbfgs"));
        assert!(matches!(bad, Err(CliError::Usage(_))));
        for decay in ["0:0.5", "10", "10:-1", "x:0.5", "10:nan"] {
            let bad = config_from_args(&args(&format!("train --lr-decay {decay}")));
            assert!(
                matches!(bad, Err(CliError::Usage(_))),
                "--lr-decay {decay} should be rejected"
            );
        }
    }

    #[test]
    fn train_with_adam_and_decay_runs_end_to_end() {
        let (dir, train) = kg("sptx-cli-test-opt", 60, 3, 300);
        let emb = dir.join("emb.bin").display().to_string();
        let msg = cli(&format!(
            "train --train {train} --epochs 2 --dim 8 --batch-size 64 --optimizer adam \
             --lr-decay 1:0.5 --out {emb}"
        ))
        .unwrap();
        assert!(msg.contains("SpTransE"), "{msg}");

        // Models without a stacked table dump their entity table: the
        // report's "embeddings saved to" names a file that exists.
        for (model, name) in [("transh", "SpTransH"), ("transr", "SpTransR")] {
            let emb = dir.join(format!("emb_{model}.bin"));
            let msg = cli(&format!(
                "train --train {train} --model {model} --epochs 1 --dim 8 --rel-dim 3 --out {}",
                emb.display()
            ))
            .unwrap();
            assert!(msg.contains(name), "{msg}");
            let bytes = std::fs::metadata(&emb).expect("dump exists").len();
            assert!(bytes >= 60 * 8 * 4, "{model}: {bytes} bytes");
        }
    }

    #[test]
    fn train_store_disk_matches_store_ram_bit_for_bit() {
        let (dir, train) = kg("sptx-cli-test-paged", 150, 4, 700);
        let common =
            format!("train --train {train} --epochs 2 --dim 8 --batch-size 16 --rel-dim 4");
        // The stacked `embeddings` of an hrt model, the `entities` of the
        // others: either is the table the run pages and dumps. Every family
        // pages.
        for model in MODELS {
            let model = model.key();
            let ram = dir.join("emb_ram.bin");
            let msg = cli(&format!("{common} --model {model} --out {}", ram.display())).unwrap();
            assert!(!msg.contains("paged store:"), "{msg}");

            // 96 cache rows against a 150- or 154-row table: evictions and
            // write-backs all run, yet the dumped embeddings must be the
            // same bytes the resident run saved.
            let disk = dir.join("emb_disk.bin");
            let msg = cli(&format!(
                "{common} --model {model} --store disk --cache-rows 96 --out {}",
                disk.display()
            ))
            .unwrap();
            assert!(msg.contains("paged store: budget 96 rows"), "{msg}");
            assert!(msg.contains("simcache LRU replay"), "{msg}");
            assert!(!msg.contains("WARNING"), "cache model diverged: {msg}");
            assert!(
                !dir.join("emb_disk.bin.pagefile").exists(),
                "the pagefile must be cleaned up after training"
            );
            assert_eq!(
                std::fs::read(&ram).unwrap(),
                std::fs::read(&disk).unwrap(),
                "{model}: paged embeddings diverged from resident"
            );
        }
    }

    #[test]
    fn train_distmult_accepts_a_self_loop_triple() {
        // `hrt` merges the `h == t` column of `e3 r2 e3` into one stored
        // entry; the semiring score used to demand three and panic.
        let (dir, train) = kg("sptx-cli-test-self-loop", 60, 4, 400);
        let tsv = std::fs::read_to_string(&train).unwrap() + "e3\tr2\te3\n";
        std::fs::write(&train, tsv).unwrap();

        // `tests/cli_binary.rs` compares this run's dump at 1 and 4 threads.
        let emb = dir.join("emb.bin");
        let msg = cli(&format!(
            "train --train {train} --model distmult --epochs 2 --dim 8 --batch-size 64 --out {}",
            emb.display()
        ))
        .unwrap();
        assert!(msg.contains("SpDistMult"), "{msg}");
        let mut store = RowFile::open(&emb).unwrap();
        let table = store.read_rows(0, store.rows()).unwrap();
        assert_eq!(table.len(), (60 + 4) * 8);
        assert!(table.iter().all(|x| x.is_finite()), "non-finite embeddings");
    }

    #[test]
    fn train_store_disk_rejects_unsupported_configurations() {
        // Validation fires before the dataset loads, so no fixture needed.
        // Each line must be refused for its own reason, not as an unknown
        // flag, so the message fragment is part of the case.
        for (extra, why) in [
            (
                "--store disk --optimizer adam",
                "--store disk requires --optimizer sgd",
            ),
            ("--store disk --dense-grads true", "drop --dense-grads true"),
            (
                "--store disk --cache-rows 0",
                "--cache-rows must be at least 1",
            ),
            ("--store tape", "unknown --store \"tape\""),
        ] {
            match cli(&format!("train --train missing.tsv {extra}")) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(why), "{extra}: message {msg:?}"),
                other => panic!("{extra}: expected a usage error, got {other:?}"),
            }
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
            match cli(&format!("train --train missing.tsv {flag} {value}")) {
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
            "--workers 2", // --workers without --async
            "--async true --workers 0",
            "--async true --store disk",
            "--async true --optimizer adam",
            "--async true --dense-grads true",
        ] {
            let result = cli(&format!("train --train missing.tsv {extra}"));
            assert!(is_usage(result), "expected a usage error for {extra:?}");
        }

        let (dir, train) = kg("sptx-cli-test-async", 80, 4, 500);
        let emb = dir.join("emb.bin");
        let msg = cli(&format!(
            "train --train {train} --epochs 3 --dim 8 --batch-size 64 --async true --workers 2 \
             --out {}",
            emb.display()
        ))
        .unwrap();
        assert!(msg.contains("SpTransE"), "{msg}");
        assert!(
            msg.contains("arm: async hogwild (2 workers, nondeterministic)"),
            "{msg}"
        );
        assert!(msg.contains("MRR"), "{msg}");
        assert!(msg.contains("per-kernel counters"), "{msg}");
        assert!(emb.exists());
    }

    /// Trains a small TransE dump next to `train`; returns the serve prefix
    /// `serve --emb … --train …`.
    fn trained_dump(dir: &Path, train: &str) -> String {
        let emb = dir.join("emb.bin").display().to_string();
        let line = format!("train --train {train} --epochs 2 --dim 8 --batch-size 64");
        cli(&format!("{line} --out {emb}")).unwrap();
        format!("serve --emb {emb} --train {train}")
    }

    #[test]
    fn serve_end_to_end_with_index_roundtrip() {
        let (dir, train) = kg("sptx-cli-test-serve", 120, 4, 600);
        let serve = trained_dump(&dir, &train);

        // Build the index, serve a small workload, and persist the index.
        // nprobe == clusters: the ANN arm IS the exact scan.
        let index = dir.join("index.ivf").display().to_string();
        let msg = cli(&format!(
            "{serve} --queries 200 --clusters 12 --nprobe 12 --min-recall 0.999 \
             --index-out {index}"
        ))
        .unwrap();
        assert!(msg.contains("recall@10 vs exact arm: 1.0000"), "{msg}");
        assert!(!msg.contains("WARNING"), "cache model diverged: {msg}");

        // Reload the saved index and serve again with a selective probe.
        let reload = format!("{serve} --queries 200 --nprobe 3 --index {index}");
        let msg = cli(&reload).unwrap();
        assert!(msg.contains("index: 12 clusters, nprobe 3"), "{msg}");

        // The out-of-core arm: the same workload answered through a 48-row
        // cache over the on-disk dump must agree with the resident arm on
        // every query (any divergence or counter mismatch prints WARNING).
        let msg = cli(&format!("{reload} --store disk --cache-rows 48")).unwrap();
        assert!(msg.contains("paged store: budget 48 rows"), "{msg}");
        assert!(msg.contains("simcache LRU replay"), "{msg}");
        assert!(!msg.contains("WARNING"), "paged arm diverged: {msg}");

        assert!(is_usage(cli(&format!("{serve} --store tape"))));

        // An impossible recall floor must fail the command.
        let result = cli(&format!("{serve} --queries 50 --nprobe 1 --min-recall 1.1"));
        assert!(matches!(result, Err(CliError::Library(_))));
    }

    #[test]
    fn serve_rejects_mismatched_and_corrupt_inputs() {
        let (dir, train) = kg("sptx-cli-test-serve-bad", 50, 3, 200);

        // Missing embedding file.
        assert!(cli(&format!("serve --emb /nonexistent.bin --train {train}")).is_err());

        // Truncated embedding file: rejected at open, not a panic.
        let serve = trained_dump(&dir, &train);
        let bytes = std::fs::read(dir.join("emb.bin")).unwrap();
        let cut = dir.join("cut.bin");
        std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
        let result = cli(&format!("serve --emb {} --train {train}", cut.display()));
        assert!(matches!(result, Err(CliError::Library(_))));

        // Corrupt index file.
        let bad_index = dir.join("bad.ivf");
        std::fs::write(&bad_index, b"SPTXIVF1 not really").unwrap();
        let result = cli(&format!("{serve} --index {}", bad_index.display()));
        assert!(matches!(result, Err(CliError::Library(_))));
    }

    #[test]
    fn serve_rejects_an_index_with_an_out_of_range_entity_id() {
        // On 0c0bd16 this index loaded (only `indptr` was checked) and the
        // first probe of its cluster panicked indexing the table.
        let (dir, train) = kg("sptx-cli-test-serve-bad-ids", 60, 3, 300);
        let serve = trained_dump(&dir, &train);
        let index = dir.join("index.ivf").display().to_string();
        cli(&format!(
            "{serve} --queries 20 --clusters 14 --index-out {index}"
        ))
        .unwrap();

        // The first entity id sits after the header, the 14 × 8 centroids
        // and the 15 offsets.
        let mut bytes = std::fs::read(&index).unwrap();
        let at = 32 + 4 * 14 * 8 + 4 * 15;
        bytes[at..at + 4].copy_from_slice(&0x7fff_0000u32.to_le_bytes());
        std::fs::write(&index, &bytes).unwrap();
        let err = cli(&format!("{serve} --queries 20 --index {index}")).unwrap_err();
        assert!(matches!(err, CliError::Library(_)), "{err}");
        assert!(err.to_string().contains("partition"), "{err}");
    }

    #[test]
    fn threads_option_is_validated_and_accepted() {
        assert!(is_usage(cli("help --threads zero")));
        assert!(is_usage(cli("help --threads 0")));
        // In process the pool already exists: its own size is accepted, and
        // any other is a usage error rather than a silently ignored flag.
        let n = xparallel::current_num_threads();
        assert!(cli(&format!("help --threads {n}")).is_ok());
        match cli(&format!("help --threads {}", n + 1)) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--threads"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_flag_and_subcommand() {
        // One typo per subcommand; validation fires before any file is read.
        // `--prefetch` is rejected like any flag `train` does not read.
        for (line, flag) in [
            ("generate --bogus-flag 7", "--bogus-flag"),
            ("train --train missing.tsv --batchsize 3", "--batchsize"),
            (
                "train --train missing.tsv --store disk --prefetch true",
                "--prefetch",
            ),
            ("stats --train missing.tsv --sed 1", "--sed"),
            ("serve --emb e.bin --train t.tsv --n-probe 2", "--n-probe"),
            ("help --verbose true", "--verbose"),
        ] {
            match cli(line) {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains(flag), "{msg}");
                    let command = line.split(' ').next().unwrap();
                    assert!(msg.contains(&format!("sptx {command}")), "{msg}");
                }
                other => panic!("expected a usage error for {line:?}, got {other:?}"),
            }
        }
    }

    /// `sptx help` is the usage text, which ends with the one line naming
    /// the kernels this CPU runs.
    #[test]
    fn help_prints_usage() {
        let text = cli("help").unwrap();
        assert_eq!(text, usage());
        let kernels: Vec<&str> = text.lines().filter(|l| l.starts_with("kernels:")).collect();
        let want = format!("kernels: {}", xparallel::Isa::detected().name());
        assert_eq!(kernels, [want.as_str()], "{text}");
        assert_eq!(text.lines().last(), Some(want.as_str()));
    }
}
