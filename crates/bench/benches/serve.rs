//! Serving-path benchmark: index build, probe, and full-scan vs ANN top-K
//! completion latency.
//!
//! The IVF index (128 clusters, 8 Lloyd iterations) is built only through
//! [`time_arm`], and every arm serves a clone of its last build, the cached
//! arm with a fresh query cache. Then a latency report over a Zipf-skewed
//! request stream of 2 000 queries: `p50/p95/p99`, mean and QPS for the
//! exact full scan, the IVF arm at `nprobe` 1–32 (the cost axis of the
//! recall/cost knob) with its recall@10 and scan fraction, and the IVF arm
//! behind the query cache with its hit rate. Serving SLOs are percentile-shaped, so every query is timed
//! on its own and summarized by [`LatencySummary`] — the one place in the
//! benches that reads the clock itself.
//!
//! It ends with a calibration of the scan's cost model at the end-to-end
//! `serve_ann` workload's shape (50 000 × 64 clustered entities, 224
//! clusters, `nprobe` 8): ns per candidate of `Norm::distance` when each
//! probed list is read by entity id from the id-ordered table (rows a stride
//! apart) and when it is one contiguous run of a list-ordered table, ns per
//! candidate of the panel kernel over the same runs stored as 16-row
//! column-major panels (the engine's layout), the bytes per ns a plain
//! streaming read of the probed runs reaches (the bandwidth bound a scan
//! cannot beat), plus µs per probe and per `top_k` over one query's
//! candidates. Then the engine's own resident miss at that shape: µs per
//! miss, and per miss the candidate panels scored in full, those left
//! early (once none of their rows could make the top 10) and the columns
//! read. A miss costs about the probe, plus 16 rows at the ns per paneled
//! row for every 64 columns read (a panel left after its first 8 columns
//! costs 1/8 of a full one), plus the running top-k (`top_k`'s µs scaled to
//! the rows full panels offer it); the record holds that prediction beside
//! the timed miss. For the index build it times the k-means assignment
//! (every entity against the final centroids' 16-lane panel, two entities per pass
//! as the build runs it, and one) at each instruction set the CPU runs, in
//! one process: ns per (entity × 16-centroid block), so a build costs about
//! `(iters + 1) × N × ⌈K/16⌉ × ns_per_block`.
//!
//! The same numbers go to `BENCH_serve.json` (see `sptx_bench::json`):
//! `build_ms`, the probe's µs per query, and per arm p50, p99 and QPS, with
//! recall@10 and scan fraction per `nprobe`, the cached arm's hit rate, and
//! the calibration record.
//! The committed file is one run of
//! `SPTX_NUM_THREADS=1 cargo bench -p sptx-bench --bench serve`.

use std::time::{Duration, Instant};

use kg::synthetic::SyntheticKgBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sptransx::serve::{
    recall_at_k, top_k, Direction, IvfConfig, IvfIndex, LatencySummary, Query, ServeEngine,
    ServeModel, ZipfWorkload,
};
use sptransx::Norm;
use sptx_bench::harness::time_arm;
use sptx_bench::json::{write_bench_json, JsonObject};
use tensor::{RowScore, PANEL_LANES};
use xparallel::{Isa, PoolHandle};

const K: usize = 10;
const CLUSTERS: usize = 128;
const KMEANS_ITERS: usize = 8;
/// The `nprobe` of the probe timing and the cached arm.
const NPROBE: usize = 8;

/// A serving-scale stacked matrix: clustered entity embeddings (the regime
/// IVF exploits) over a synthetic vocabulary, plus small relation vectors.
fn build_model(entities: usize, relations: usize, dim: usize) -> ServeModel {
    let ds = SyntheticKgBuilder::new(entities, relations)
        .triples(entities)
        .seed(5)
        .build();
    let mut rng = StdRng::seed_from_u64(11);
    let clusters = 64usize;
    let centers: Vec<f32> = (0..clusters * dim)
        .map(|_| rng.gen_range(-3.0f32..3.0))
        .collect();
    let mut stack = vec![0f32; (ds.num_entities + ds.num_relations) * dim];
    for e in 0..ds.num_entities {
        let c = e % clusters;
        for j in 0..dim {
            stack[e * dim + j] = centers[c * dim + j] + rng.gen_range(-0.3f32..0.3);
        }
    }
    for v in &mut stack[ds.num_entities * dim..] {
        *v = rng.gen_range(-0.05f32..0.05);
    }
    ServeModel::from_stacked(stack, ds.num_entities, ds.num_relations, dim, Norm::L2).unwrap()
}

/// One measured serving run: replay `queries` through an arm, collecting
/// per-query latency samples.
fn run_arm(
    engine: &mut ServeEngine,
    queries: &[Query],
    mut answer: impl FnMut(&mut ServeEngine, &Query) -> usize,
) -> (LatencySummary, usize) {
    let mut samples = Vec::with_capacity(queries.len());
    let mut scored = 0usize;
    for q in queries {
        let t0 = Instant::now();
        scored += answer(engine, q);
        samples.push(t0.elapsed());
    }
    (LatencySummary::from_samples(&samples).unwrap(), scored)
}

fn fmt(s: &LatencySummary) -> String {
    format!(
        "p50 {:>8.1?}  p95 {:>8.1?}  p99 {:>8.1?}  mean {:>8.1?}  {:>9.0} qps",
        s.p50, s.p95, s.p99, s.mean, s.qps
    )
}

/// One arm's record: its latency percentiles in µs and its QPS.
fn latency_record(arm: &str, s: &LatencySummary) -> JsonObject {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    JsonObject::new()
        .str("bench", "serve")
        .str("arm", arm)
        .num("p50_us", us(s.p50))
        .num("p99_us", us(s.p99))
        .num("qps", s.qps)
}

/// The scan's cost model at the `serve_ann` shape: the ns per candidate of
/// the rescore over list-strided rows (read by id), over one contiguous run
/// (read by list position) and through the panel kernel over the run's
/// panels, the bytes per ns of a streaming read of the runs, µs per probe
/// and µs per `top_k`, and ns per entity × centroid block of the k-means
/// assignment at each instruction set.
fn calibrate() -> JsonObject {
    const N: usize = 50_000;
    const DIM: usize = 64;
    const CLUSTERS: usize = 224;
    const NPROBE: usize = 8;
    const QUERIES: usize = 400;
    let mut rng = StdRng::seed_from_u64(17);
    let centres: Vec<f32> = (0..64 * DIM).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
    let by_id: Vec<f32> = (0..N * DIM)
        .map(|i| centres[(i / DIM % 64) * DIM + i % DIM] + rng.gen_range(-0.3f32..0.3))
        .collect();
    let cfg = IvfConfig {
        clusters: CLUSTERS,
        iters: 4,
        seed: 0x5EED,
    };
    let index = IvfIndex::build(&by_id, N, DIM, &cfg, &PoolHandle::global()).unwrap();
    let id_row = |e: u32| &by_id[e as usize * DIM..][..DIM];
    let listed: Vec<f32> = (0..CLUSTERS)
        .flat_map(|c| index.cluster(c).iter().flat_map(|&e| id_row(e)))
        .copied()
        .collect();
    let mut start = vec![0usize; CLUSTERS + 1];
    for c in 0..CLUSTERS {
        start[c + 1] = start[c] + index.cluster(c).len();
    }
    // Query vectors as `serve_ann` forms them: an entity row plus a small
    // relation row.
    let queries: Vec<Vec<f32>> = (0..QUERIES)
        .map(|_| {
            let e = rng.gen_range(0..N as u32);
            id_row(e)
                .iter()
                .map(|x| x + rng.gen_range(-0.05f32..0.05))
                .collect()
        })
        .collect();
    let probes: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| index.nearest_clusters(q, NPROBE))
        .collect();
    let candidates: usize = probes
        .iter()
        .flatten()
        .map(|&c| index.cluster(c as usize).len())
        .sum();
    let label = |what: &str| format!("calibration: {what} ({candidates} candidates)");
    let norm = Norm::L2;
    let strided_ms = time_arm(&label("strided rows"), Some(candidates as u64), || {
        let mut acc = 0f32;
        for (q, probe) in queries.iter().zip(&probes) {
            for &c in probe {
                for &e in index.cluster(c as usize) {
                    acc += norm.distance(q, id_row(e));
                }
            }
        }
        acc
    });
    let contiguous_ms = time_arm(&label("contiguous run"), Some(candidates as u64), || {
        let mut acc = 0f32;
        for (q, probe) in queries.iter().zip(&probes) {
            for &c in probe {
                let run = &listed[start[c as usize] * DIM..start[c as usize + 1] * DIM];
                for row in run.chunks_exact(DIM) {
                    acc += norm.distance(q, row);
                }
            }
        }
        acc
    });
    // The list-ordered rows as the engine stores them: 16-row column-major
    // panels, column `j` of row `l` at `[j·w + l]` (`w` < 16 only at the end).
    let mut panels = listed.clone();
    for block in panels.chunks_mut(PANEL_LANES * DIM) {
        let (rows, w) = (block.to_vec(), block.len() / DIM);
        for (l, row) in rows.chunks_exact(DIM).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                block[j * w + l] = v;
            }
        }
    }
    let panel_ms = time_arm(&label("16-row panels"), Some(candidates as u64), || {
        let (score, mut dists) = (norm.row_score(), [0f32; PANEL_LANES]);
        let mut acc = 0f32;
        for (q, probe) in queries.iter().zip(&probes) {
            for &c in probe {
                let (first, end) = (start[c as usize], start[c as usize + 1]);
                for b in first / PANEL_LANES..end.div_ceil(PANEL_LANES) {
                    let lo = b * PANEL_LANES;
                    let w = PANEL_LANES.min(N - lo);
                    let panel = &panels[lo * DIM..(lo + w) * DIM];
                    score.panel_distances(q, panel, &mut dists[..w]);
                    let lanes = first.max(lo) - lo..end.min(lo + w) - lo;
                    acc += dists[lanes].iter().sum::<f32>();
                }
            }
        }
        acc
    });
    let stream_ms = time_arm(&label("streaming read"), Some(candidates as u64), || {
        let mut acc = [0f32; PANEL_LANES];
        for probe in &probes {
            for &c in probe {
                let run = &listed[start[c as usize] * DIM..start[c as usize + 1] * DIM];
                for chunk in run.chunks_exact(PANEL_LANES) {
                    for (a, &v) in acc.iter_mut().zip(chunk) {
                        *a += v;
                    }
                }
            }
        }
        acc
    });
    let probe_ms = time_arm("calibration: probe", Some(QUERIES as u64), || {
        queries
            .iter()
            .map(|q| index.nearest_clusters(q, NPROBE).len())
            .sum::<usize>()
    });
    let pairs: Vec<Vec<(u32, f32)>> = queries
        .iter()
        .zip(&probes)
        .map(|(q, probe)| {
            let ids = probe.iter().flat_map(|&c| index.cluster(c as usize));
            ids.map(|&e| (e, norm.distance(q, id_row(e)))).collect()
        })
        .collect();
    let top_k_ms = time_arm("calibration: top_k", Some(QUERIES as u64), || {
        pairs
            .iter()
            .map(|p| top_k(p.iter().copied(), K).len())
            .sum::<usize>()
    });
    // The resident miss itself, through an engine over the same rows plus
    // 64 small relation rows, on queries `q = h + r`: µs per miss, and the
    // candidate panels it scores in full and stops early (after
    // `PANEL_EXIT_COLUMNS`-column blocks), per miss.
    const RELATIONS: usize = 64;
    let mut stack = by_id.clone();
    stack.extend((0..RELATIONS * DIM).map(|_| rng.gen_range(-0.05f32..0.05)));
    let model = ServeModel::from_stacked(stack, N, RELATIONS, DIM, norm).unwrap();
    let mut engine = ServeEngine::new(model, index.clone()).unwrap();
    let misses: Vec<Query> = (0..QUERIES)
        .map(|_| Query {
            dir: Direction::Tail,
            entity: rng.gen_range(0..N as u32),
            rel: rng.gen_range(0..RELATIONS as u32),
        })
        .collect();
    let before = engine.scan_stats();
    for q in &misses {
        engine.answer_ann(q, K, NPROBE);
    }
    let scan = engine.scan_stats() - before;
    let miss_ms = time_arm("calibration: resident miss", Some(QUERIES as u64), || {
        misses
            .iter()
            .map(|q| engine.answer_ann(q, K, NPROBE).hits.len())
            .sum::<usize>()
    });
    // The k-means assignment as the build runs it, against the final
    // centroids transposed into zero-padded 16-lane blocks: each entity's
    // nearest centroid, one dispatch per pass over the entities, two
    // entities per pass over a block (the build's form) or one.
    let blocks = CLUSTERS.div_ceil(PANEL_LANES);
    let mut centroid_panel = vec![0f32; blocks * DIM * PANEL_LANES];
    for c in 0..CLUSTERS {
        for (j, &v) in index.centroid(c).iter().enumerate() {
            centroid_panel[(c / PANEL_LANES * DIM + j) * PANEL_LANES + c % PANEL_LANES] = v;
        }
    }
    let assign = |isa: Isa, pairs: bool| {
        let form = if pairs { "two rows" } else { "one row" };
        let what = format!(
            "calibration: k-means assignment, {form}, {} ({N} x {blocks} blocks)",
            isa.name()
        );
        let ms = time_arm(&what, Some((N * blocks) as u64), || {
            if pairs {
                isa.run(
                    #[inline(always)]
                    || nearest_sum::<2>(&by_id, &centroid_panel, CLUSTERS),
                )
            } else {
                isa.run(
                    #[inline(always)]
                    || nearest_sum::<1>(&by_id, &centroid_panel, CLUSTERS),
                )
            }
        });
        ms * 1e6 / (N * blocks) as f64
    };
    let isas = [Some(Isa::BASELINE), Isa::avx2()];
    let [baseline_ns, avx2_ns] = isas.map(|isa| isa.map(|isa| assign(isa, true)));
    let [baseline_one_ns, avx2_one_ns] = isas.map(|isa| isa.map(|isa| assign(isa, false)));
    let per_query = |ms: f64| ms * 1e3 / QUERIES as f64;
    let per_row = |ms: f64| ms * 1e6 / candidates as f64;
    let bytes_per_ns = (candidates * DIM * 4) as f64 / (stream_ms * 1e6);
    // A miss's cost model: the probe, each panel's 16 rows at the panel
    // kernel's ns per row times the share of its columns read (1/8 for a
    // panel left after its first block), and the running top-k: `top_k`
    // over a query's candidates, scaled to the rows full panels offer it.
    let per_miss = |count: u64| count as f64 / QUERIES as f64;
    let (full, stopped) = (per_miss(scan.full_panels), per_miss(scan.stopped_panels));
    let panels_read = per_miss(scan.columns_read) / DIM as f64;
    let offered = full * PANEL_LANES as f64 / (candidates as f64 / QUERIES as f64);
    let predicted_us = per_query(probe_ms)
        + panels_read * PANEL_LANES as f64 * per_row(panel_ms) / 1e3
        + per_query(top_k_ms) * offered;
    println!(
        "  calibration at the serve_ann shape: {:.1} candidates/query, {:.2} ns/row strided, {:.2} ns/row contiguous, {:.2} ns/row panels, stream {:.2} B/ns, probe {:.2} us, top_k {:.2} us",
        candidates as f64 / QUERIES as f64,
        per_row(strided_ms),
        per_row(contiguous_ms),
        per_row(panel_ms),
        bytes_per_ns,
        per_query(probe_ms),
        per_query(top_k_ms),
    );
    println!(
        "  resident miss: {:.2} us ({:.1} full + {:.1} early-stopped panels, {:.1}% of their columns read); model {:.2} us",
        per_query(miss_ms),
        full,
        stopped,
        100.0 * scan.columns_frac(DIM),
        predicted_us,
    );
    let ns = |v: Option<f64>| v.map_or("no AVX2 on this CPU".into(), |ns| format!("{ns:.2} ns"));
    println!(
        "  k-means assignment per entity x 16-centroid block: two rows {} baseline, {} avx2; one row {} baseline, {} avx2",
        ns(baseline_ns),
        ns(avx2_ns),
        ns(baseline_one_ns),
        ns(avx2_one_ns),
    );
    let record = JsonObject::new()
        .str("bench", "serve")
        .str("arm", "calibration")
        .int("entities", N as u64)
        .int("clusters", CLUSTERS as u64)
        .int("nprobe", NPROBE as u64)
        .num("candidates_per_query", candidates as f64 / QUERIES as f64)
        .num("ns_per_row_strided", per_row(strided_ms))
        .num("ns_per_row_contiguous", per_row(contiguous_ms))
        .num("ns_per_row_panel", per_row(panel_ms))
        .num("stream_bytes_per_ns", bytes_per_ns)
        .num("probe_us", per_query(probe_ms))
        .num("top_k_us", per_query(top_k_ms))
        .num("full_panels_per_miss", full)
        .num("stopped_panels_per_miss", stopped)
        .num("columns_read_per_miss", per_miss(scan.columns_read))
        .num("miss_us", per_query(miss_ms))
        .num("predicted_miss_us", predicted_us)
        .int("assign_blocks", blocks as u64);
    let arms = [
        ("ns_per_assign_block_baseline", baseline_ns),
        ("ns_per_assign_block_avx2", avx2_ns),
        ("ns_per_assign_block_one_row_baseline", baseline_one_ns),
        ("ns_per_assign_block_one_row_avx2", avx2_one_ns),
    ];
    arms.into_iter().fold(record, |record, (key, ns)| match ns {
        Some(ns) => record.num(key, ns),
        None => record,
    })
}

/// The sum of every row's nearest centroid index, `R` rows per pass over
/// each 16-centroid block of `panel` (the first `k` lanes are centroids):
/// the build's assignment loop. Plain loops, always inlined, so the whole
/// pass is compiled into its caller's [`Isa::run`] trampoline (an iterator
/// adapter the compiler does not inline would run at the baseline width).
#[inline(always)]
fn nearest_sum<const R: usize>(rows: &[f32], panel: &[f32], k: usize) -> usize {
    let dim = panel.len() / k.div_ceil(PANEL_LANES) / PANEL_LANES;
    let mut dists = [[0f32; PANEL_LANES]; R];
    let mut sum = 0;
    for group in rows.chunks_exact(R * dim) {
        let x: [&[f32]; R] = std::array::from_fn(|r| &group[r * dim..(r + 1) * dim]);
        let mut best = [(0, f32::INFINITY); R];
        for (b, block) in panel.chunks_exact(dim * PANEL_LANES).enumerate() {
            RowScore::SquaredL2.panel_distances_rows(x, block, &mut dists);
            let lanes = PANEL_LANES.min(k - b * PANEL_LANES);
            for (best, dists) in best.iter_mut().zip(&dists) {
                for (c, &d) in (b * PANEL_LANES..).zip(&dists[..lanes]) {
                    if d < best.1 {
                        *best = (c, d);
                    }
                }
            }
        }
        sum += best.iter().map(|b| b.0).sum::<usize>();
    }
    sum
}

fn main() {
    let model = build_model(20_000, 32, 64);
    let n = model.num_entities();
    let mut wl = ZipfWorkload::new(n, model.num_relations(), 1.1, 33);
    let queries = wl.take(2_000);

    println!(
        "\nserving latency report — {} entities, dim {}, {CLUSTERS} clusters, {} Zipf(1.1) queries, k={K}",
        n,
        model.dim(),
        queries.len(),
    );

    let cfg = IvfConfig {
        clusters: CLUSTERS,
        iters: KMEANS_ITERS,
        seed: 3,
    };
    let build = || {
        IvfIndex::build(
            model.embeddings(),
            n,
            model.dim(),
            &cfg,
            &PoolHandle::global(),
        )
        .unwrap()
    };
    // Every arm serves the last timed build.
    let mut index = None;
    let build_ms = time_arm("ivf build", None, || index = Some(build()));
    let index = index.expect("time_arm runs its closure");
    let vectors: Vec<Vec<f32>> = queries.iter().map(|q| model.query_vector(q)).collect();
    let mut candidates = Vec::new();
    let probe_ms = time_arm(
        &format!("ivf probe nprobe={NPROBE} ({} queries)", vectors.len()),
        Some(vectors.len() as u64),
        || {
            for v in &vectors {
                index.probe(v, NPROBE, &mut candidates);
            }
        },
    );
    let mut records = vec![
        JsonObject::new()
            .str("bench", "serve")
            .str("arm", "build")
            .int("entities", n as u64)
            .int("dim", model.dim() as u64)
            .int("clusters", CLUSTERS as u64)
            .int("kmeans_iters", KMEANS_ITERS as u64)
            .num("build_ms", build_ms),
        JsonObject::new()
            .str("bench", "serve")
            .str("arm", "probe")
            .int("nprobe", NPROBE as u64)
            .num("us_per_query", probe_ms * 1e3 / vectors.len() as f64),
    ];
    let engine = || ServeEngine::new(model.clone(), index.clone()).unwrap();

    let mut exact_engine = engine();
    let (exact_lat, _) = run_arm(&mut exact_engine, &queries, |e, q| {
        e.answer_exact(q, K);
        n
    });
    println!("  exact full scan       {}", fmt(&exact_lat));
    records.push(latency_record("exact", &exact_lat));

    // Ground truth for recall: the exact answers.
    let truth: Vec<_> = queries
        .iter()
        .map(|q| exact_engine.answer_exact(q, K))
        .collect();

    for nprobe in [1usize, 2, 4, 8, 16, 32] {
        let mut recall_sum = 0.0;
        let mut qi = 0usize;
        let (lat, scored) = run_arm(&mut engine(), &queries, |e, q| {
            let ans = e.answer_ann(q, K, nprobe);
            recall_sum += recall_at_k(&truth[qi], &ans.hits);
            qi += 1;
            ans.scored
        });
        let recall = recall_sum / queries.len() as f64;
        let scan = scored as f64 / (queries.len() * n) as f64;
        println!(
            "  ivf nprobe={:<3}        {}  recall@{K} {recall:.3}  scan {:>5.1}%",
            nprobe,
            fmt(&lat),
            100.0 * scan
        );
        records.push(
            latency_record("ivf", &lat)
                .int("nprobe", nprobe as u64)
                .num("recall_at_10", recall)
                .num("scan_frac", scan),
        );
    }

    // Cached arm: same stream, hot head absorbed by the LRU.
    let mut cached = engine().with_cache(1024);
    let (lat, _) = run_arm(&mut cached, &queries, |e, q| {
        e.answer_ann(q, K, NPROBE).scored
    });
    let hit_rate = cached.cache_stats().unwrap().hit_rate();
    println!(
        "  ivf nprobe={NPROBE} + cache  {}  cache hit rate {:.1}%\n",
        fmt(&lat),
        100.0 * hit_rate
    );
    records.push(
        latency_record("ivf+cache", &lat)
            .int("nprobe", NPROBE as u64)
            .num("cache_hit_rate", hit_rate),
    );

    records.push(calibrate());

    match write_bench_json("serve", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_serve.json: {e}"),
    }
}
