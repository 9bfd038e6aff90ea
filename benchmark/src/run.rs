//! What every workload shares: the run context, the metric tables, and the
//! schedule that spreads set-up repetitions and timed passes over the run
//! (rules R2 and R5 of the README).

use std::time::Instant;

use tensor::memory::MemoryScope;

use crate::check::Checks;
use crate::json::Metric;
use crate::quiet::{setup_points, Latency, Quiet};
use crate::sys::{peak_rss_mb, RunDir};
use crate::trace::Tracer;

/// The benchmark's error currency: any layer's error, boxed.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// `--seconds` value at which the pass counts in the workload modules apply
/// unscaled (the `run_seconds` of `BENCHMARK.json`).
pub const NOMINAL_SECONDS: f64 = 20.0;

/// Repetitions of every timed item below which R2 does not hold.
pub const MIN_PASSES: usize = 8;

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`. A traced
/// run prints all of them; the ones a workload does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kg.synthetic.build_s", "s"),
    ("kg.known.build_s", "s"),
    ("kg.plan.build_s", "s"),
    ("kg.eval.queries_per_s", "1/s"),
    ("kg.eval.mrr", "ratio"),
    ("sptransx.model.init_s", "s"),
    ("sptransx.attach_plan_s", "s"),
    ("tensor.page_out_s", "s"),
    ("step.zero_grads_s", "s"),
    ("step.page_in_s", "s"),
    ("step.forward_s", "s"),
    ("step.backward_s", "s"),
    ("step.optimizer_s", "s"),
    ("step.end_epoch_s", "s"),
    ("models.transe.epoch_s", "s"),
    ("models.transh.epoch_s", "s"),
    ("models.transr.epoch_s", "s"),
    ("models.toruse.epoch_s", "s"),
    ("sptransx.trainer.epoch_s", "s"),
    ("sparse.spmm.calls", "count"),
    ("sparse.flops", "count"),
    ("sparse.bytes", "count"),
    ("tensor.memory.peak_mb", "MB"),
    ("tensor.alloc.per_epoch", "count"),
    ("pager.hits", "count"),
    ("pager.misses", "count"),
    ("pager.evictions", "count"),
    ("pager.write_backs", "count"),
    ("pager.read_ops", "count"),
    ("pager.write_ops", "count"),
    ("pager.hit_rate", "ratio"),
    ("serve.synth_s", "s"),
    ("serve.ivf.build_s", "s"),
    ("serve.probe_s", "s"),
    ("serve.ann_miss_p50_ms", "ms"),
    ("serve.cache_hit_p50_ms", "ms"),
    ("serve.exact_ms", "ms"),
    ("serve.scored_per_query", "count"),
    ("serve.scan_frac", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.recall_at_10", "ratio"),
    ("serve.paged.query_ms", "ms"),
    ("serve.paged.hits", "count"),
    ("serve.paged.misses", "count"),
    ("serve.paged.read_ops", "count"),
    ("trace.overhead_frac", "ratio"),
    ("run.wall_s", "s"),
];

/// Values of the per-layer metrics, all 0 until a workload sets them.
#[derive(Debug, Clone)]
pub struct Layers(Vec<f64>);

impl Layers {
    fn new() -> Self {
        Self(vec![0.0; PER_LAYER.len()])
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`] — a typo in this crate.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = Self::index(name);
        self.0[i] = value;
    }

    fn index(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("'{name}' is not a declared per-layer metric"))
    }

    /// Adds `value` to metric `name` (a total over a workload's models).
    pub fn add(&mut self, name: &str, value: f64) {
        let i = Self::index(name);
        self.0[i] += value;
    }

    /// Sets `<stem>_s` from the tracer's quiet time of the spans `stem`.
    pub fn set_quiet(&mut self, tracer: &Tracer, stem: &str) {
        self.set(&format!("{stem}_s"), tracer.quiet_secs(stem));
    }

    /// All per-layer metrics, in table order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .zip(&self.0)
            .map(|(&(name, unit), &value)| Metric::new(name, value, unit))
            .collect()
    }
}

/// State of one benchmark run.
#[derive(Debug)]
pub struct Ctx {
    /// `--seed`: feeds every input generator.
    pub seed: u64,
    /// `--seconds / NOMINAL_SECONDS`: scales the pass counts.
    pub scale: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Span recorder (off outside traced passes and set-ups).
    pub tracer: Tracer,
    /// Operation accounting.
    pub checks: Checks,
    /// Per-layer values.
    pub layers: Layers,
    /// Scratch directory for pagefiles, removed on drop.
    pub dir: RunDir,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Ctx {
    /// A fresh context for one run of `workload`.
    ///
    /// # Errors
    ///
    /// Fails if the scratch directory cannot be created.
    pub fn new(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Res<Self> {
        Ok(Self {
            seed,
            scale: seconds / NOMINAL_SECONDS,
            trace,
            tracer: Tracer::new(false, seed),
            checks: Checks::new(workload),
            layers: Layers::new(),
            dir: RunDir::create()?,
            notes: Vec::new(),
        })
    }

    /// `nominal` timed passes scaled by `--seconds`, never below
    /// [`MIN_PASSES`].
    pub fn passes(&self, nominal: usize) -> usize {
        ((nominal as f64 * self.scale) as usize).max(MIN_PASSES)
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// What a pass is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Untimed: fills caches, arenas and the pager.
    WarmUp,
    /// Timed with one clock pair per item, tracer off.
    Plain,
    /// Timed with spans around every layer call (traced run only).
    Traced,
}

/// What [`drive`] measured around the workload's own items.
#[derive(Debug)]
pub struct Driven {
    /// The whole set-up, one item, `1 + extra_setups` repetitions.
    pub setup: Quiet,
    /// `VmHWM` after set-up, warm-up and the timed passes up to the first
    /// extra set-up — before that or a verification twin is built.
    pub peak_rss_mb: f64,
    /// `tensor::memory` peak above the pre-run baseline at the same point.
    pub tensor_peak_mb: f64,
}

/// Runs a workload's schedule: set-up (kept), one warm-up pass, `passes`
/// timed passes, and after each `1/extra_setups` of them one more complete
/// set-up that is timed and dropped. In a traced run even passes are traced
/// and odd passes plain, so both see the same stretch of wall-clock.
///
/// # Errors
///
/// Propagates the first error of `set_up` or `pass`.
pub fn drive<S>(
    ctx: &mut Ctx,
    passes: usize,
    extra_setups: usize,
    mut set_up: impl FnMut(&mut Ctx, usize) -> Res<S>,
    mut pass: impl FnMut(&mut Ctx, &mut S, Pass) -> Res<()>,
) -> Res<(S, Driven)> {
    let memory = MemoryScope::start();
    let started = Instant::now();
    let mut setup = Quiet::new(1);
    let mut setup_wall = 0f64;
    let mut timed_set_up = |ctx: &mut Ctx, rep: usize| -> Res<S> {
        ctx.tracer.set_on(ctx.trace);
        ctx.tracer.begin("setup", 0);
        let start = Instant::now();
        let state = set_up(ctx, rep);
        let secs = start.elapsed().as_secs_f64();
        setup.record(0, secs);
        setup_wall += secs;
        ctx.tracer.end();
        ctx.tracer.set_on(false);
        state
    };

    let mut state = timed_set_up(ctx, 0)?;
    pass(ctx, &mut state, Pass::WarmUp)?;

    let points = setup_points(passes, extra_setups);
    let mut peaks = None;
    for p in 1..=passes {
        let kind = if ctx.trace && p % 2 == 0 {
            Pass::Traced
        } else {
            Pass::Plain
        };
        ctx.tracer.set_on(kind == Pass::Traced);
        pass(ctx, &mut state, kind)?;
        ctx.tracer.set_on(false);
        if let Some(k) = points.iter().position(|&at| at == p) {
            if k == 0 {
                peaks = Some((
                    peak_rss_mb().unwrap_or(f64::NAN),
                    memory.peak_delta_bytes() as f64 / (1024.0 * 1024.0),
                ));
            }
            drop(timed_set_up(ctx, k + 1)?);
        }
    }
    let (peak_rss_mb, tensor_peak_mb) = peaks.unwrap_or((f64::NAN, f64::NAN));
    ctx.note(format!(
        "wall-clock so far {:.1} s, of which {} set-ups {setup_wall:.1} s; the rest is 1 warm-up + {passes} timed passes",
        started.elapsed().as_secs_f64(),
        setup.min_reps(),
    ));
    Ok((
        state,
        Driven {
            setup,
            peak_rss_mb,
            tensor_peak_mb,
        },
    ))
}

/// The five end-to-end values of a run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// R2 minimum over the complete set-ups.
    pub setup_s: f64,
    /// Work per quiet second.
    pub throughput_per_s: f64,
    /// Per-item minima, summarized, in milliseconds.
    pub latency_ms: Latency,
    /// See [`Driven::peak_rss_mb`].
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The metrics in [`END_TO_END`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        let values = [
            self.setup_s,
            self.throughput_per_s,
            self.latency_ms.p50,
            self.latency_ms.tail,
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect()
    }
}

/// Records `traced ÷ plain − 1` of two quiet times. A diagnostic, not a
/// check: the true cost is a dozen clock reads per 10 ms batch step, far
/// below what two estimators of 4–18 repetitions each can resolve on a
/// noisy box, and a run must not fail on its own measurement error.
pub fn record_trace_overhead(ctx: &mut Ctx, plain: f64, traced: f64) {
    ctx.layers.set("trace.overhead_frac", traced / plain - 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn declared(section: &str) -> Vec<(String, String)> {
        // Each metric object is on one line: {"name": "...", "unit": "...", ...}
        let start = MANIFEST.find(&format!("\"{section}\"")).expect("section");
        let body = &MANIFEST[start..];
        let end = body.find(']').expect("section end");
        body[..end]
            .lines()
            .filter_map(|l| {
                let field = |key: &str| {
                    let at = l.find(&format!("\"{key}\": \""))? + key.len() + 5;
                    Some(l[at..].split('"').next()?.to_string())
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_the_manifest() {
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn workload_names_match_the_manifest() {
        for w in crate::WORKLOADS {
            assert!(
                MANIFEST.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "{w} missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            MANIFEST.matches("\"why\": ").count(),
            crate::WORKLOADS.len()
        );
    }

    #[test]
    fn schedule_interleaves_setups_and_alternates_traced_passes() {
        let mut ctx = Ctx::new("train_resident", 1, NOMINAL_SECONDS, true).unwrap();
        let mut log: Vec<String> = Vec::new();
        let log_cell = std::cell::RefCell::new(&mut log);
        let (state, driven) = drive(
            &mut ctx,
            8,
            4,
            |_, rep| {
                log_cell.borrow_mut().push(format!("setup{rep}"));
                Ok(rep)
            },
            |ctx, _, kind| {
                assert_eq!(ctx.tracer.is_on(), kind == Pass::Traced);
                log_cell.borrow_mut().push(format!("{kind:?}"));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(state, 0, "the first set-up is the live one");
        assert_eq!(driven.setup.min_reps(), 5);
        assert_eq!(
            log.join(" "),
            "setup0 WarmUp Plain Traced setup1 Plain Traced setup2 \
             Plain Traced setup3 Plain Traced setup4"
        );
        // One "setup" span per repetition, recorded only because trace is on.
        assert_eq!(ctx.tracer.item_minima("setup").len(), 1);
        assert_eq!(
            ctx.tracer
                .spans()
                .iter()
                .filter(|s| s.name == "setup")
                .count(),
            5
        );
    }

    #[test]
    fn pass_counts_scale_with_seconds_but_keep_the_r2_floor() {
        let ctx = Ctx::new("serve_ann", 1, 10.0, false).unwrap();
        assert_eq!(ctx.passes(30), 15);
        assert_eq!(ctx.passes(10), MIN_PASSES);
        let ctx = Ctx::new("serve_ann", 1, NOMINAL_SECONDS, false).unwrap();
        assert_eq!(ctx.passes(30), 30);
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn unknown_layer_names_are_bugs() {
        Layers::new().set("step.typo_s", 1.0);
    }
}
