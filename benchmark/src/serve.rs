//! The serving workload: an IVF index over a clustered embedding table, a
//! query cache, and a Zipf query stream — the layers training never runs,
//! reading the table training writes.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use kg::stream::EmbeddingStore;
use sptransx::serve::{
    recall_at_k, IvfConfig, IvfIndex, PagedRows, Query, ServeEngine, ServeModel, ZipfWorkload,
};
use sptransx::{Norm, ReadOnlyRowStorage};
use tensor::RowStorage;
use xparallel::PoolHandle;

use crate::quiet::{latency, Quiet};
use crate::run::{drive, record_trace_overhead, Ctx, EndToEnd, Pass, Res};
use crate::sys::SplitMix64;

const ENTITIES: usize = 50_000;
const RELATIONS: usize = 64;
const DIM: usize = 64;
/// Clustered data: this many true centres, entity `e` near centre
/// `e % TRUE_CLUSTERS` (the regime IVF exploits; as `benches/serve.rs`).
const TRUE_CLUSTERS: usize = 64;
/// The centres and the k-means initialisation are the workload's shape, not
/// its input: with them drawn from `--seed`, the candidates scored per query
/// (and with them every time) moved by ±8 % from seed to seed. The seed
/// draws the entities around the centres, the relations and the queries.
const SHAPE_SEED: u64 = 0x5EED_CAFE;
const IVF_CLUSTERS: usize = 224;
const IVF_ITERS: usize = 4;
const CACHE_ENTRIES: usize = 1024;
const QUERIES: usize = 3000;
const ZIPF_EXPONENT: f64 = 1.1;
const K: usize = 10;
const NPROBE: usize = 8;
/// Timed passes over the query stream at the nominal `--seconds`.
const PASSES: usize = 18;
/// Complete set-ups after the first, one after each quarter of the passes
/// (a serving set-up is 1.3 s of k-means; five is what the run affords).
const EXTRA_SETUPS: usize = 4;
const RECALL_QUERIES: usize = 200;
const PAGED_QUERIES: usize = 500;
const PAGED_BUDGET_PERCENT: usize = 5;

/// The stacked `(N + R) × d` matrix the workload serves, from `seed`.
fn synth_table(seed: u64) -> Vec<f32> {
    let mut shape = SplitMix64::new(SHAPE_SEED);
    let centres: Vec<f32> = (0..TRUE_CLUSTERS * DIM)
        .map(|_| shape.uniform(-3.0, 3.0))
        .collect();
    let mut rng = SplitMix64::new(seed);
    let mut table = vec![0f32; (ENTITIES + RELATIONS) * DIM];
    for e in 0..ENTITIES {
        let c = e % TRUE_CLUSTERS;
        for j in 0..DIM {
            table[e * DIM + j] = centres[c * DIM + j] + rng.uniform(-0.3, 0.3);
        }
    }
    for v in &mut table[ENTITIES * DIM..] {
        *v = rng.uniform(-0.05, 0.05);
    }
    table
}

/// Counts the transfers the pager asks of a read-only store, from outside
/// (`ReadOnlyRowStorage` keeps no count of its own).
#[derive(Debug)]
struct CountingReads {
    inner: ReadOnlyRowStorage,
    reads: Arc<AtomicU64>,
}

impl RowStorage for CountingReads {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn read_rows_into(
        &mut self,
        first: usize,
        count: usize,
        out: &mut [f32],
    ) -> std::io::Result<()> {
        // A statistic that publishes no other data.
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_rows_into(first, count, out)
    }

    fn write_rows(&mut self, first: usize, count: usize, data: &[f32]) -> std::io::Result<()> {
        self.inner.write_rows(first, count, data)
    }
}

struct ServeState {
    /// `None` only while a pass swaps in a fresh query cache.
    engine: Option<ServeEngine>,
    /// Query `i` of plain passes.
    query: Quiet,
    /// The same under spans (traced passes), for the overhead.
    query_traced: Quiet,
    /// Per query of the latest pass: answered from the cache?
    cache_hit: Vec<bool>,
    /// Per query of the latest pass: candidates scored.
    scored: Vec<usize>,
    cache_hit_rate: f64,
}

/// One complete set-up: load the table, cluster it, couple the engine.
fn set_up(ctx: &mut Ctx, table: &[f32]) -> Res<ServeState> {
    let tr = &mut ctx.tracer;
    let owned = table.to_vec();
    let model = tr.span("serve.synth", 0, || {
        ServeModel::from_stacked(owned, ENTITIES, RELATIONS, DIM, Norm::L2)
    })?;
    let index = tr.span("serve.ivf.build", 0, || {
        IvfIndex::build(
            model.embeddings(),
            ENTITIES,
            DIM,
            &IvfConfig {
                clusters: IVF_CLUSTERS,
                iters: IVF_ITERS,
                seed: SHAPE_SEED,
            },
            // R1: one compute thread.
            &PoolHandle::sequential(),
        )
    })?;
    let engine = ServeEngine::new(model, index)?.with_cache(CACHE_ENTRIES);
    Ok(ServeState {
        engine: Some(engine),
        query: Quiet::new(QUERIES),
        query_traced: Quiet::new(QUERIES),
        cache_hit: vec![false; QUERIES],
        scored: vec![0; QUERIES],
        cache_hit_rate: 0.0,
    })
}

/// One pass over the stream from a fresh query cache, so the same queries
/// hit in every pass and query `i` is identical work each time.
fn run_pass(ctx: &mut Ctx, state: &mut ServeState, queries: &[Query], kind: Pass) {
    let mut engine = state
        .engine
        .take()
        .expect("engine present between passes")
        .with_cache(CACHE_ENTRIES);
    let tr = &mut ctx.tracer;
    tr.begin("pass", 0);
    for (i, q) in queries.iter().enumerate() {
        tr.begin("serve.query", i);
        let start = Instant::now();
        let answer = engine.answer_ann(q, K, NPROBE);
        let secs = start.elapsed().as_secs_f64();
        tr.end();
        state.cache_hit[i] = answer.cache_hit;
        state.scored[i] = answer.scored;
        black_box(answer);
        match kind {
            Pass::WarmUp => {}
            Pass::Plain => state.query.record(i, secs),
            Pass::Traced => state.query_traced.record(i, secs),
        }
    }
    tr.end();
    state.cache_hit_rate = engine.cache_stats().map_or(0.0, |s| s.hit_rate());
    state.engine = Some(engine);
    ctx.checks.ops(queries.len() as u64);
}

fn same_bits(a: &[(u32, f32)], b: &[(u32, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn median_ms(secs: impl Iterator<Item = f64>) -> f64 {
    let ms: Vec<f64> = secs.map(|s| s * 1e3).collect();
    if ms.is_empty() {
        0.0
    } else {
        latency(&ms).p50
    }
}

/// Runs the serving workload end to end and returns its five numbers.
///
/// # Errors
///
/// Any error of the program under test (a failed operation) aborts the run.
pub fn run(ctx: &mut Ctx) -> Res<EndToEnd> {
    let table = synth_table(ctx.seed);
    let queries = ZipfWorkload::new(ENTITIES, RELATIONS, ZIPF_EXPONENT, ctx.seed).take(QUERIES);
    let passes = ctx.passes(PASSES);
    let (mut state, driven) = drive(
        ctx,
        passes,
        EXTRA_SETUPS,
        |ctx, _rep| set_up(ctx, &table),
        |ctx, state, kind| {
            run_pass(ctx, state, &queries, kind);
            Ok(())
        },
    )?;

    let quiet_pass = state.query.total();
    let query_ms: Vec<f64> = state.query.minima().iter().map(|s| s * 1e3).collect();
    let end_to_end = EndToEnd {
        setup_s: driven.setup.total(),
        throughput_per_s: QUERIES as f64 / quiet_pass,
        latency_ms: latency(&query_ms),
        peak_rss_mb: driven.peak_rss_mb,
    };
    ctx.note(format!(
        "{QUERIES} Zipf({ZIPF_EXPONENT}) queries per pass, k={K}, nprobe={NPROBE} of {IVF_CLUSTERS} clusters; quiet pass {quiet_pass:.6} s = sum of per-query minima over {} plain passes",
        state.query.min_reps(),
    ));

    let mut engine = state.engine.take().expect("engine present after passes");

    // Recall against the full scan, and the scan share that bought it.
    let stride = QUERIES / RECALL_QUERIES;
    let strided: Vec<&Query> = queries
        .iter()
        .step_by(stride)
        .take(RECALL_QUERIES)
        .collect();
    let truth: Vec<_> = strided.iter().map(|q| engine.answer_exact(q, K)).collect();
    engine = engine.with_cache(CACHE_ENTRIES);
    let (mut recall, mut scored, mut scans) = (0f64, 0usize, 0usize);
    for (q, exact) in strided.iter().zip(&truth) {
        let answer = engine.answer_ann(q, K, NPROBE);
        recall += recall_at_k(exact, &answer.hits);
        if !answer.cache_hit {
            scored += answer.scored;
            scans += 1;
        }
    }
    let recall = recall / strided.len() as f64;
    let scan_frac = scored as f64 / (scans.max(1) * ENTITIES) as f64;
    ctx.checks.ops(2 * strided.len() as u64);
    ctx.checks.check(
        "recall@10 >= 0.95 against answer_exact",
        recall >= 0.95,
        || format!("recall {recall} over {} strided queries", strided.len()),
    );
    ctx.checks
        .check("ANN scans < 25 % of the entities", scan_frac < 0.25, || {
            format!("scan fraction {scan_frac}")
        });

    // The pager read-only, beside training's read-write use of it: replay
    // through a row cache over the table on disk, bit for bit.
    let row_file = ctx.dir.path().join("embeddings.bin");
    EmbeddingStore::write(&row_file, ENTITIES + RELATIONS, DIM, |row, out| {
        out.copy_from_slice(&table[row * DIM..(row + 1) * DIM]);
    })?;
    // A query pins its whole candidate set: never fewer rows than the
    // NPROBE largest clusters hold, plus the two query rows.
    let mut sizes: Vec<usize> = (0..engine.index().num_clusters())
        .map(|c| engine.index().cluster(c).len())
        .collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let budget = ((ENTITIES + RELATIONS) * PAGED_BUDGET_PERCENT / 100)
        .max(sizes.iter().take(NPROBE).sum::<usize>() + 2);
    let replay = &queries[..PAGED_QUERIES];
    let resident: Vec<_> = replay
        .iter()
        .map(|q| engine.answer_ann(q, K, NPROBE).hits)
        .collect();
    let paged_reps = if ctx.trace { 3 } else { 1 };
    let mut paged_query = Quiet::new(replay.len());
    let mut paged_stats = tensor::PageStats::default();
    let reads = Arc::new(AtomicU64::new(0));
    let mut mismatches = 0usize;
    ctx.tracer.set_on(ctx.trace);
    for rep in 0..paged_reps {
        reads.store(0, Ordering::Relaxed);
        let storage = CountingReads {
            inner: ReadOnlyRowStorage::open(&row_file)?,
            reads: reads.clone(),
        };
        let mut rows = PagedRows::new(Box::new(storage), budget)?;
        for (i, q) in replay.iter().enumerate() {
            ctx.tracer.begin("serve.paged.query", i);
            let start = Instant::now();
            let answer = engine.answer_ann_paged(&mut rows, q, K, NPROBE)?;
            paged_query.record(i, start.elapsed().as_secs_f64());
            ctx.tracer.end();
            if rep == 0 && !same_bits(&answer.hits, &resident[i]) {
                mismatches += 1;
            }
        }
        paged_stats = rows.stats();
    }
    ctx.tracer.set_on(false);
    ctx.checks.ops((paged_reps * replay.len()) as u64);
    ctx.checks.check(
        "paged answers equal resident answers bit for bit",
        mismatches == 0,
        || format!("{mismatches} of {} answers differ", replay.len()),
    );

    if ctx.trace {
        // The probe alone, on the query vectors the stream produces.
        let vectors: Vec<Vec<f32>> = queries
            .iter()
            .map(|q| engine.model().query_vector(q))
            .collect();
        let mut candidates = Vec::new();
        ctx.tracer.set_on(true);
        for _ in 0..crate::run::MIN_PASSES {
            for (i, v) in vectors.iter().enumerate() {
                ctx.tracer.begin("serve.probe", i);
                engine.index().probe(v, NPROBE, &mut candidates);
                ctx.tracer.end();
                black_box(&candidates);
            }
        }
        // The full scan through the BatchScorer kernels, per query.
        for _ in 0..3 {
            for (i, q) in strided.iter().enumerate() {
                ctx.tracer.begin("serve.exact", i);
                black_box(engine.answer_exact(q, K));
                ctx.tracer.end();
            }
        }
        ctx.tracer.set_on(false);

        let l = &mut ctx.layers;
        l.set_quiet(&ctx.tracer, "serve.synth");
        l.set_quiet(&ctx.tracer, "serve.ivf.build");
        l.set_quiet(&ctx.tracer, "serve.probe");
        let minima = state.query.minima();
        let split = |hit: bool| {
            minima
                .iter()
                .zip(&state.cache_hit)
                .filter(move |(_, &h)| h == hit)
                .map(|(s, _)| *s)
        };
        l.set("serve.ann_miss_p50_ms", median_ms(split(false)));
        l.set("serve.cache_hit_p50_ms", median_ms(split(true)));
        let exact = ctx.tracer.item_minima("serve.exact");
        l.set(
            "serve.exact_ms",
            exact.iter().sum::<f64>() * 1e3 / exact.len().max(1) as f64,
        );
        l.set(
            "serve.scored_per_query",
            state.scored.iter().sum::<usize>() as f64 / QUERIES as f64,
        );
        l.set("serve.scan_frac", scan_frac);
        l.set("serve.cache_hit_rate", state.cache_hit_rate);
        l.set("serve.recall_at_10", recall);
        l.set(
            "serve.paged.query_ms",
            paged_query.total() * 1e3 / replay.len() as f64,
        );
        l.set("serve.paged.hits", paged_stats.hits as f64);
        l.set("serve.paged.misses", paged_stats.misses as f64);
        l.set("serve.paged.read_ops", reads.load(Ordering::Relaxed) as f64);
        l.set("tensor.memory.peak_mb", driven.tensor_peak_mb);
        record_trace_overhead(ctx, quiet_pass, state.query_traced.total());
    }
    Ok(end_to_end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_a_function_of_the_seed() {
        let a = synth_table(3);
        assert_eq!(a.len(), (ENTITIES + RELATIONS) * DIM);
        assert_eq!(a, synth_table(3));
        assert_ne!(a, synth_table(4));
        // Entities of one true cluster sit within the jitter of each other.
        let (e0, e1) = (0, TRUE_CLUSTERS);
        for j in 0..DIM {
            assert!((a[e0 * DIM + j] - a[e1 * DIM + j]).abs() < 0.6);
        }
    }

    #[test]
    fn bit_equality_is_stricter_than_float_equality() {
        assert!(same_bits(&[(1, 0.5)], &[(1, 0.5)]));
        assert!(!same_bits(&[(1, 0.0)], &[(1, -0.0)]));
        assert!(!same_bits(&[(1, 0.5)], &[(2, 0.5)]));
        assert!(!same_bits(&[(1, 0.5)], &[]));
    }

    #[test]
    fn median_of_nothing_is_zero() {
        assert_eq!(median_ms(std::iter::empty()), 0.0);
        assert_eq!(median_ms([0.003, 0.001, 0.002].into_iter()), 2.0);
    }
}
