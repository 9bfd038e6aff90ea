//! Properties of the serving layer (ISSUE 6):
//!
//! * the exact full-scan arm ranks **bit-identically** to a full scan
//!   through `evaluate_batched`'s scorers (same kernels, compared both at
//!   the score-buffer and at the report level);
//! * the ANN arm's candidate scores equal the full scan's scores bitwise,
//!   so `nprobe == clusters` reproduces the exact answer exactly;
//! * the IVF index build is bit-identical at pool widths 1 and 4 (the
//!   in-process analog of `SPTX_NUM_THREADS ∈ {1,4}`, which CI also runs
//!   cross-process);
//! * index and embedding (de)serialization round-trip, and corrupt or
//!   truncated files are errors, not panics;
//! * at some nprobe the ANN arm reaches recall@10 ≥ 0.95 while scoring
//!   < 25% of entities (the acceptance knob, pinned on clustered data);
//! * the serving LRU cache's hit count is predicted exactly by a
//!   fully-associative `simcache` model replaying the same key stream;
//! * the index's 16-lane centroid-panel kernel picks the argmin and the probe
//!   order a row-at-a-time `RowScore::SquaredL2` scan picks, ties included;
//! * a table with a non-finite entity coordinate, or zero k-means rounds,
//!   is a configuration error rather than a silently poisoned index;
//! * `nearest_clusters`' selection returns the prefix of a full sort, ties
//!   and NaN queries included;
//! * the engine stores entity rows in list order as 16-row panels, yet every
//!   arm, its model's `BatchScorer` and an engine built from its model
//!   again answer bit for bit as the id-ordered dump does;
//! * the resident walk, which leaves a panel once none of its candidates
//!   can beat the k-th best and keeps a running top-k, answers as `top_k`
//!   over every candidate's `Norm::distance` does: ties at the k-th score,
//!   any `k` and `nprobe`, and non-finite or huge coordinates, where it must
//!   not prune.

use kg::eval::{evaluate_batched, BatchScorer, EvalConfig};
use kg::stream::RowFile;
use kg::synthetic::SyntheticKgBuilder;
use kg::Dataset;
use rand::{Rng, SeedableRng};
use sptransx::serve::{
    recall_at_k, top_k, Direction, IvfConfig, IvfIndex, PagedRows, Query, QueryCache, QueryKey,
    ServeEngine, ServeModel, ZipfWorkload,
};
use sptransx::{FileRowStorage, KgeModel, Norm, QueryDir, SpTransE, TrainConfig, Trainer};
use tensor::{RowScore, RowStorage};
use xparallel::PoolHandle;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sptx-serve-properties");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Trains a small SpTransE and returns the trainer (for its live model) and
/// the dataset. The serving model is rebuilt from the same dump `sptx train`
/// writes.
fn trained(entities: usize, relations: usize, dim: usize) -> (Trainer<SpTransE>, Dataset) {
    let ds = SyntheticKgBuilder::new(entities, relations)
        .triples(entities * 4)
        .seed(7)
        .build();
    let config = TrainConfig {
        epochs: 2,
        batch_size: 128,
        dim,
        lr: 0.05,
        seed: 7,
        ..Default::default()
    };
    let model = SpTransE::from_config(&ds, &config).unwrap();
    let mut trainer = Trainer::new(model, &ds, &config).unwrap();
    trainer.run().unwrap();
    (trainer, ds)
}

/// The stacked `(N + R) × d` dump of a trained model — exactly what
/// `sptx train` saves.
fn dump_stack(trainer: &Trainer<SpTransE>) -> (usize, Vec<f32>) {
    let m = trainer.model();
    let id = m.store().lookup("embeddings").unwrap();
    let t = m.store().value(id);
    (t.cols(), t.as_slice().to_vec())
}

#[test]
fn serve_model_scores_bit_identical_to_training_scorer() {
    let (trainer, ds) = trained(90, 5, 8);
    let (dim, stack) = dump_stack(&trainer);
    let serve =
        ServeModel::from_stacked(stack, ds.num_entities, ds.num_relations, dim, Norm::L2).unwrap();
    let model = trainer.model();
    let n = ds.num_entities;

    let tail_q: Vec<(u32, u32)> = (0..16).map(|i| (i * 5 % n as u32, i % 5)).collect();
    let head_q: Vec<(u32, u32)> = (0..16).map(|i| (i % 5, i * 7 % n as u32)).collect();
    let mut a = vec![0f32; tail_q.len() * n];
    let mut b = vec![0f32; tail_q.len() * n];
    serve.score_tails_into(&tail_q, &mut a);
    model.score_tails_into(&tail_q, &mut b);
    assert_eq!(a, b, "tail score buffers must match bitwise");
    serve.score_heads_into(&head_q, &mut a);
    model.score_heads_into(&head_q, &mut b);
    assert_eq!(a, b, "head score buffers must match bitwise");

    // And the whole evaluation report: ranking the test set through the
    // loaded ServeModel is indistinguishable from ranking through the live
    // training model.
    let cfg = EvalConfig::default();
    let known = ds.all_known();
    let from_serve = evaluate_batched(&serve, &ds.test, &known, &cfg);
    let from_model = evaluate_batched(model, &ds.test, &known, &cfg);
    assert_eq!(from_serve.mrr.to_bits(), from_model.mrr.to_bits());
    assert_eq!(
        from_serve.mean_rank.to_bits(),
        from_model.mean_rank.to_bits()
    );
    assert_eq!(from_serve.hits_at, from_model.hits_at);
    assert_eq!(from_serve.queries, from_model.queries);
}

#[test]
fn exact_arm_matches_bruteforce_topk() {
    let (trainer, ds) = trained(70, 4, 8);
    let (dim, stack) = dump_stack(&trainer);
    let n = ds.num_entities;
    let serve = ServeModel::from_stacked(stack, n, ds.num_relations, dim, Norm::L2).unwrap();
    let index = IvfIndex::build(
        serve.embeddings(),
        n,
        dim,
        &IvfConfig::default(),
        &PoolHandle::global(),
    )
    .unwrap();
    let mut engine = ServeEngine::new(serve.clone(), index).unwrap();

    for (entity, rel, dir) in [(0u32, 0u32, Direction::Tail), (13, 3, Direction::Head)] {
        let q = Query { dir, entity, rel };
        let got = engine.answer_exact(&q, 10);
        // Independent reference: one BatchScorer row, ranked by the same
        // deterministic (score, id) total order.
        let mut buf = vec![0f32; n];
        match dir {
            Direction::Tail => serve.score_tails_into(&[(entity, rel)], &mut buf),
            Direction::Head => serve.score_heads_into(&[(rel, entity)], &mut buf),
        }
        let want = top_k(buf.iter().enumerate().map(|(i, &s)| (i as u32, s)), 10);
        assert_eq!(got, want);
    }
}

#[test]
fn paged_ann_arm_matches_resident_arm_bitwise_with_validated_counters() {
    // The out-of-core serving path: answers read embedding rows only
    // through a tight PagedRows cache over the on-disk dump, yet must match
    // the fully resident ANN arm bit for bit — and the row cache's counters
    // must be predicted exactly by a simcache LRU replay of its row trace.
    let (trainer, ds) = trained(120, 5, 8);
    let (dim, stack) = dump_stack(&trainer);
    let n = ds.num_entities;
    let path = temp_path(&format!("paged_arm_{}.bin", std::process::id()));
    RowFile::write(&path, n + ds.num_relations, dim, |r, dst| {
        dst.copy_from_slice(&stack[r * dim..(r + 1) * dim]);
    })
    .unwrap();

    let serve = ServeModel::from_stacked(stack, n, ds.num_relations, dim, Norm::L2).unwrap();
    let index = IvfIndex::build(
        serve.embeddings(),
        n,
        dim,
        &IvfConfig {
            clusters: 10,
            ..Default::default()
        },
        &PoolHandle::global(),
    )
    .unwrap();
    let mut engine = ServeEngine::new(serve, index).unwrap();

    // Budget well under the 125-row store: queries touch ~n/clusters
    // candidates per probe, so 60 rows fits every working set while still
    // forcing eviction traffic across queries.
    let storage = FileRowStorage::open(&path).unwrap();
    let mut rows = PagedRows::new(Box::new(storage), 60).unwrap();
    rows.set_tracing(true);

    let mut wl = ZipfWorkload::new(n, ds.num_relations, 1.1, 5);
    for _ in 0..60 {
        let q = wl.next_query();
        let resident = engine.answer_ann(&q, 10, 3);
        let paged = engine.answer_ann_paged(&mut rows, &q, 10, 3).unwrap();
        assert_eq!(paged.scored, resident.scored, "different candidate sets");
        assert_eq!(
            paged.hits, resident.hits,
            "paged answers must equal resident answers bitwise"
        );
    }
    let stats = rows.stats();
    let trace = rows.trace().unwrap();
    assert_eq!(stats.hits + stats.misses, trace.len() as u64);
    assert!(stats.evictions > 0, "a 60-row budget must evict");
    assert_eq!(stats.write_backs, 0, "read-only serving never writes back");
    let mut sim = simcache::Cache::new(simcache::CacheConfig {
        size_bytes: 60 * 64,
        line_bytes: 64,
        ways: 60,
    });
    for &row in trace {
        sim.access(u64::from(row) * 64);
    }
    assert_eq!(
        (stats.hits, stats.misses),
        (sim.stats().hits, sim.stats().misses),
        "row-cache counters diverge from the simcache LRU model"
    );

    // A budget below a single query's working set is a loud error.
    let storage = FileRowStorage::open(&path).unwrap();
    let mut tiny = PagedRows::new(Box::new(storage), 2).unwrap();
    let q = Query {
        dir: Direction::Tail,
        entity: 0,
        rel: 0,
    };
    let err = engine.answer_ann_paged(&mut tiny, &q, 10, 10).unwrap_err();
    assert!(
        err.to_string().contains("cache budget"),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn full_probe_ann_reproduces_exact_arm_bitwise() {
    let (trainer, ds) = trained(80, 4, 8);
    let (dim, stack) = dump_stack(&trainer);
    let n = ds.num_entities;
    let serve = ServeModel::from_stacked(stack, n, ds.num_relations, dim, Norm::L2).unwrap();
    let index = IvfIndex::build(
        serve.embeddings(),
        n,
        dim,
        &IvfConfig {
            clusters: 9,
            ..Default::default()
        },
        &PoolHandle::global(),
    )
    .unwrap();
    let clusters = index.num_clusters();
    let mut engine = ServeEngine::new(serve, index).unwrap();
    let mut wl = ZipfWorkload::new(n, ds.num_relations, 1.0, 3);
    for _ in 0..40 {
        let q = wl.next_query();
        let exact = engine.answer_exact(&q, 10);
        let ann = engine.answer_ann(&q, 10, clusters);
        assert_eq!(ann.scored, n, "full probe must scan every entity");
        assert_eq!(
            ann.hits, exact,
            "nprobe == clusters must equal the full scan bitwise"
        );
    }
}

#[test]
fn ann_candidate_scores_equal_full_scan_scores_bitwise() {
    let (trainer, ds) = trained(100, 5, 8);
    let (dim, stack) = dump_stack(&trainer);
    let n = ds.num_entities;
    let serve = ServeModel::from_stacked(stack, n, ds.num_relations, dim, Norm::L2).unwrap();
    let index = IvfIndex::build(
        serve.embeddings(),
        n,
        dim,
        &IvfConfig {
            clusters: 10,
            ..Default::default()
        },
        &PoolHandle::global(),
    )
    .unwrap();
    let mut engine = ServeEngine::new(serve.clone(), index).unwrap();
    let mut wl = ZipfWorkload::new(n, ds.num_relations, 1.0, 11);
    for _ in 0..30 {
        let q = wl.next_query();
        let ann = engine.answer_ann(&q, 10, 2);
        assert!(ann.scored < n, "partial probe should not scan everything");
        let mut buf = vec![0f32; n];
        match q.dir {
            Direction::Tail => serve.score_tails_into(&[(q.entity, q.rel)], &mut buf),
            Direction::Head => serve.score_heads_into(&[(q.rel, q.entity)], &mut buf),
        }
        for &(id, score) in &ann.hits {
            assert_eq!(
                score.to_bits(),
                buf[id as usize].to_bits(),
                "ANN score for entity {id} must equal the full scan bit-for-bit"
            );
        }
    }
}

#[test]
fn index_build_is_bit_identical_at_widths_1_and_4() {
    let (trainer, ds) = trained(120, 4, 8);
    let (dim, stack) = dump_stack(&trainer);
    let cfg = IvfConfig {
        clusters: 11,
        iters: 6,
        seed: 5,
    };
    let build = |width: usize| {
        IvfIndex::build(
            &stack,
            ds.num_entities,
            dim,
            &cfg,
            &PoolHandle::global().with_width(width),
        )
        .unwrap()
    };
    let base = build(1);
    for width in [2usize, 4, 7] {
        assert_eq!(build(width), base, "width {width} must match width 1");
    }
    // Byte-level check through serialization, closing the loop on the
    // on-disk artifact CI's determinism job compares.
    let (pa, pb) = (temp_path("w1.ivf"), temp_path("w4.ivf"));
    base.save(&pa).unwrap();
    build(4).save(&pb).unwrap();
    assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
}

#[test]
fn index_serialization_round_trips_and_rejects_corruption() {
    let (trainer, ds) = trained(60, 3, 8);
    let (dim, stack) = dump_stack(&trainer);
    let index = IvfIndex::build(
        &stack,
        ds.num_entities,
        dim,
        &IvfConfig::default(),
        &PoolHandle::global(),
    )
    .unwrap();
    let path = temp_path("roundtrip.ivf");
    index.save(&path).unwrap();
    let loaded = IvfIndex::load(&path).unwrap();
    assert_eq!(loaded, index);

    // Truncation at several byte offsets: always an error, never a panic.
    let bytes = std::fs::read(&path).unwrap();
    for cut in [0, 4, 20, bytes.len() / 2, bytes.len() - 1] {
        let p = temp_path("truncated.ivf");
        std::fs::write(&p, &bytes[..cut]).unwrap();
        assert!(IvfIndex::load(&p).is_err(), "cut at {cut} must be rejected");
    }
    // Wrong magic.
    let p = temp_path("magic.ivf");
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    std::fs::write(&p, &bad).unwrap();
    assert!(IvfIndex::load(&p).is_err());
    // Trailing garbage changes the length: rejected.
    let p = temp_path("padded.ivf");
    let mut bad = bytes.clone();
    bad.extend_from_slice(&[0u8; 3]);
    std::fs::write(&p, &bad).unwrap();
    assert!(IvfIndex::load(&p).is_err());
}

#[test]
fn serve_model_load_round_trips_the_cli_dump_format() {
    let (trainer, ds) = trained(50, 3, 8);
    let (dim, stack) = dump_stack(&trainer);
    let rows = ds.num_entities + ds.num_relations;
    let path = temp_path("emb_roundtrip.bin");
    RowFile::write(&path, rows, dim, |r, dst| {
        dst.copy_from_slice(&stack[r * dim..(r + 1) * dim]);
    })
    .unwrap();
    let loaded = ServeModel::load(&path, ds.num_entities, Norm::L2).unwrap();
    assert_eq!(loaded.embeddings(), &stack[..]);
    assert_eq!(loaded.num_relations(), ds.num_relations);
    assert_eq!(loaded.dim(), dim);

    // Truncated dump: error at load, not a panic (the RowFile length
    // check added alongside the serving layer).
    let bytes = std::fs::read(&path).unwrap();
    let p = temp_path("emb_truncated.bin");
    std::fs::write(&p, &bytes[..bytes.len() - 10]).unwrap();
    assert!(ServeModel::load(&p, ds.num_entities, Norm::L2).is_err());
    // An entity count that leaves no relation rows is rejected.
    assert!(ServeModel::load(&path, rows, Norm::L2).is_err());
}

/// Builds a stacked matrix with `clusters` well-separated entity clusters
/// and tiny relation vectors — the regime where IVF probing must shine.
fn clustered_stack(
    num_entities: usize,
    num_relations: usize,
    clusters: usize,
    dim: usize,
    seed: u64,
) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let centers: Vec<f32> = (0..clusters * dim)
        .map(|_| rng.gen_range(-4.0f32..4.0))
        .collect();
    let mut stack = vec![0f32; (num_entities + num_relations) * dim];
    for e in 0..num_entities {
        let c = e % clusters;
        for j in 0..dim {
            stack[e * dim + j] = centers[c * dim + j] + rng.gen_range(-0.25f32..0.25);
        }
    }
    for v in &mut stack[num_entities * dim..] {
        *v = rng.gen_range(-0.05f32..0.05);
    }
    stack
}

#[test]
fn ann_reaches_recall_95_scanning_under_a_quarter_of_entities() {
    let (n, r, dim) = (600usize, 4usize, 8usize);
    let stack = clustered_stack(n, r, 30, dim, 13);
    let serve = ServeModel::from_stacked(stack, n, r, dim, Norm::L2).unwrap();
    let index = IvfIndex::build(
        serve.embeddings(),
        n,
        dim,
        &IvfConfig {
            clusters: 30,
            iters: 8,
            seed: 1,
        },
        &PoolHandle::global(),
    )
    .unwrap();
    let clusters = index.num_clusters();
    let mut engine = ServeEngine::new(serve, index).unwrap();

    let mut best = None;
    for nprobe in 1..=clusters {
        let mut wl = ZipfWorkload::new(n, r, 1.1, 99);
        let mut recall_sum = 0.0;
        let mut scored = 0usize;
        let queries = 150;
        for _ in 0..queries {
            let q = wl.next_query();
            let exact = engine.answer_exact(&q, 10);
            let ann = engine.answer_ann(&q, 10, nprobe);
            recall_sum += recall_at_k(&exact, &ann.hits);
            scored += ann.scored;
        }
        let recall = recall_sum / queries as f64;
        let frac = scored as f64 / (queries * n) as f64;
        if recall >= 0.95 && frac < 0.25 {
            best = Some((nprobe, recall, frac));
            break;
        }
    }
    let (nprobe, recall, frac) =
        best.expect("no nprobe reached recall >= 0.95 while scanning < 25% of entities");
    assert!(
        nprobe < clusters,
        "should not need a full probe, used {nprobe}"
    );
    assert!(
        recall >= 0.95 && frac < 0.25,
        "recall {recall}, frac {frac}"
    );
}

#[test]
fn lru_cache_hits_are_predicted_exactly_by_simcache() {
    // Replay one Zipf key stream through (a) the real serving cache and
    // (b) a fully-associative simcache LRU with one distinct 64-byte line
    // per distinct key. Exact same policy => exact same hit count.
    for (capacity, queries, zipf) in [(8usize, 1500usize, 1.2f64), (32, 2000, 0.9), (1, 500, 1.5)] {
        let mut real = QueryCache::new(capacity);
        let mut sim = simcache::Cache::new(simcache::CacheConfig {
            size_bytes: capacity * 64,
            line_bytes: 64,
            ways: capacity,
        });
        let mut addrs: std::collections::HashMap<QueryKey, u64> = std::collections::HashMap::new();
        let mut wl = ZipfWorkload::new(200, 5, zipf, 17);
        for _ in 0..queries {
            let q = wl.next_query();
            let key: QueryKey = (q.dir as u8, q.entity, q.rel, 10, 4);
            let next = addrs.len() as u64 * 64;
            sim.access(*addrs.entry(key).or_insert(next));
            if real.get(&key).is_none() {
                real.insert(key, Vec::new());
            }
        }
        assert_eq!(
            real.stats().hits,
            sim.stats().hits,
            "capacity {capacity}: serving cache and simcache model must agree exactly"
        );
        assert!(
            real.stats().hits > 0,
            "capacity {capacity}: the Zipf stream should produce some hits"
        );
    }
}

#[test]
fn cached_answers_equal_uncached_answers() {
    let (trainer, ds) = trained(80, 4, 8);
    let (dim, stack) = dump_stack(&trainer);
    let n = ds.num_entities;
    let serve = ServeModel::from_stacked(stack, n, ds.num_relations, dim, Norm::L2).unwrap();
    let index = IvfIndex::build(
        serve.embeddings(),
        n,
        dim,
        &IvfConfig::default(),
        &PoolHandle::global(),
    )
    .unwrap();
    let mut cached = ServeEngine::new(serve.clone(), index.clone())
        .unwrap()
        .with_cache(16);
    let mut plain = ServeEngine::new(serve, index).unwrap();
    let mut wl = ZipfWorkload::new(n, ds.num_relations, 1.3, 23);
    let mut saw_cache_hit = false;
    for _ in 0..200 {
        let q = wl.next_query();
        let a = cached.answer_ann(&q, 10, 3);
        let b = plain.answer_ann(&q, 10, 3);
        assert_eq!(a.hits, b.hits, "a cached answer must never differ");
        saw_cache_hit |= a.cache_hit;
    }
    assert!(saw_cache_hit, "the skewed stream should hit the cache");
    let stats = cached.cache_stats().unwrap();
    assert_eq!(stats.hits + stats.misses, 200);
}

/// The index's distance kernel against the row-at-a-time reference it
/// replaced: `RowScore::SquaredL2.distance` to each centroid in cluster
/// order. Random `K` in 1..=70 (one lane to five blocks, any tail) and `d` in
/// 1..=80, tables drawn from a pool of fewer distinct rows than entities — so
/// initial centroids repeat, equal distances are common and, with fewer
/// distinct rows than clusters, the empty-cluster re-seed runs — with
/// quarter-step values (exact sums, many ties) in odd cases and arbitrary
/// floats in even ones. Every entity must sit in the lowest-index nearest
/// centroid's list, and `nearest_clusters` must return the reference's
/// `(distance, id)` order, at pool widths 1 and 4.
#[test]
fn panel_kernel_matches_row_at_a_time_reference() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    for case in 0..40u64 {
        let k = rng.gen_range(1..=70usize);
        let d = rng.gen_range(1..=80usize);
        let distinct = rng.gen_range(1..=k + 4);
        let pool: Vec<f32> = (0..distinct * d)
            .map(|_| match case % 2 {
                1 => rng.gen_range(-4i32..4) as f32 / 4.0,
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect();
        let n = k + rng.gen_range(0..3 * k);
        let mut emb = Vec::with_capacity(n * d);
        for _ in 0..n {
            let r = rng.gen_range(0..distinct);
            emb.extend_from_slice(&pool[r * d..(r + 1) * d]);
        }
        let cfg = IvfConfig {
            clusters: k,
            iters: rng.gen_range(1..=3),
            seed: case,
        };
        let build = |w| IvfIndex::build(&emb, n, d, &cfg, &PoolHandle::global().with_width(w));
        let index = build(1).unwrap();
        assert_eq!(build(4).unwrap(), index, "case {case}: width 4");
        let what = format!("case {case}: k {k}, d {d}, {distinct} distinct rows");

        let reference = |x: &[f32]| -> Vec<(u32, f32)> {
            (0..index.num_clusters())
                .map(|c| (c as u32, RowScore::SquaredL2.distance(x, index.centroid(c))))
                .collect()
        };
        let mut home = vec![u32::MAX; n];
        for c in 0..index.num_clusters() {
            for &e in index.cluster(c) {
                home[e as usize] = c as u32;
            }
        }
        let mut queries: Vec<Vec<f32>> = emb.chunks_exact(d).map(<[f32]>::to_vec).collect();
        for (e, row) in queries.iter().enumerate() {
            let mut best = (0u32, f32::INFINITY);
            for (c, dist) in reference(row) {
                if dist < best.1 {
                    best = (c, dist);
                }
            }
            assert_eq!(home[e], best.0, "{what}: entity {e}");
        }
        queries.extend((0..8).map(|_| (0..d).map(|_| rng.gen_range(-1.5f32..1.5)).collect()));
        for q in &queries {
            let mut want = reference(q);
            want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let want: Vec<u32> = want.into_iter().map(|(c, _)| c).collect();
            let nprobe = rng.gen_range(1..=want.len());
            assert_eq!(index.nearest_clusters(q, want.len()), want, "{what}");
            assert_eq!(index.nearest_clusters(q, nprobe), want[..nprobe], "{what}");
        }
    }
}

/// One NaN among 8 000 coordinates used to become centroid 0, holding only
/// its own row, while another cluster ended empty — and `build` returned
/// `Ok`. Now it is refused, naming the first non-finite entity coordinate;
/// relation rows past the entities are not clustered and not checked. Zero
/// Lloyd rounds used to run one.
#[test]
fn build_refuses_non_finite_entities_and_zero_rounds() {
    let (n, r, d) = (1000usize, 4usize, 8usize);
    let mut stack = clustered_stack(n, r, 16, d, 3);
    let cfg = IvfConfig {
        clusters: 16,
        iters: 4,
        seed: 1,
    };
    let build = |stack: &[f32], cfg: &IvfConfig| {
        IvfIndex::build(stack, n, d, cfg, &PoolHandle::global()).map_err(|e| e.to_string())
    };
    stack[n * d + 2] = f32::NAN;
    assert!(
        build(&stack, &cfg).is_ok(),
        "relation rows are not clustered"
    );
    for (bad, shown) in [
        (f32::NAN, "NaN"),
        (f32::INFINITY, "inf"),
        (f32::NEG_INFINITY, "-inf"),
    ] {
        let mut poisoned = stack.clone();
        poisoned[5 * d + 3] = bad;
        poisoned[700 * d] = bad;
        let err = build(&poisoned, &cfg).unwrap_err();
        assert!(
            err.contains(&format!("entity row 5 column 3 is {shown}")),
            "{err}"
        );
    }
    let err = build(&stack, &IvfConfig { iters: 0, ..cfg }).unwrap_err();
    assert!(err.contains("iteration count must be positive"), "{err}");
}

/// `nearest_clusters` selects the `nprobe` nearest centroids and sorts only
/// those. It must return the prefix of a full `(distance, id)` sort of every
/// centroid: over tables whose repeated rows duplicate centroids (ties), for
/// a query with one NaN coordinate (every distance NaN), and at `nprobe` 1,
/// K − 1, K and K + 5.
#[test]
fn nearest_clusters_selection_equals_full_sort() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(43);
    let mut duplicated = 0;
    for case in 0..24u64 {
        let d = rng.gen_range(1..=20usize);
        let k = rng.gen_range(2..=40usize);
        let distinct = rng.gen_range(1..=k);
        let pool: Vec<f32> = (0..distinct * d)
            .map(|_| rng.gen_range(-4i32..4) as f32 / 4.0)
            .collect();
        let n = k + rng.gen_range(0..2 * k);
        let emb: Vec<f32> = (0..n)
            .flat_map(|_| {
                let r = rng.gen_range(0..distinct);
                pool[r * d..(r + 1) * d].to_vec()
            })
            .collect();
        let cfg = IvfConfig {
            clusters: k,
            iters: 2,
            seed: case,
        };
        let index = IvfIndex::build(&emb, n, d, &cfg, &PoolHandle::global()).unwrap();
        let kk = index.num_clusters();
        duplicated += (0..kk)
            .filter(|&a| (0..a).any(|b| index.centroid(a) == index.centroid(b)))
            .count();

        let mut queries: Vec<Vec<f32>> = (0..6)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.5f32..1.5)).collect())
            .collect();
        queries.extend(emb.chunks_exact(d).take(4).map(<[f32]>::to_vec));
        let mut nan = queries[0].clone();
        nan[d / 2] = f32::NAN;
        queries.push(nan);
        for q in &queries {
            let mut full: Vec<(u32, f32)> = (0..kk)
                .map(|c| (c as u32, RowScore::SquaredL2.distance(q, index.centroid(c))))
                .collect();
            full.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let full: Vec<u32> = full.into_iter().map(|(c, _)| c).collect();
            for nprobe in [1, kk - 1, kk, kk + 5] {
                let want = &full[..nprobe.clamp(1, kk)];
                assert_eq!(
                    index.nearest_clusters(q, nprobe),
                    want,
                    "case {case}: k {kk}, d {d}, nprobe {nprobe}, query {q:?}"
                );
            }
        }
    }
    assert!(duplicated > 0, "no case produced tied centroids");
}

fn bits(hits: &[(u32, f32)]) -> Vec<(u32, u32)> {
    hits.iter().map(|&(e, s)| (e, s.to_bits())).collect()
}

/// The engine stores entity rows in its index's list order, as 16-row
/// column-major panels; the answers must not show it. On random clustered
/// tables under every norm, the exact arm, the ANN arm at `nprobe` 1, 3 and
/// K, and the paged arm (which reads the id-ordered dump) all bit-equal a
/// brute-force top-k over the original id-ordered rows (over the probed
/// candidates for ANN). The engine's query vector is `QueryDir::translated`
/// of the original rows, and an engine over the saved and reloaded index
/// answers as the built one does. The engine's model scores and evaluates
/// as the fresh model does (`BatchScorer` reads its rows out of the panels),
/// and an engine built from it again answers as the first. Twelve random
/// shapes, then `dim` 64 with `n mod 16` at 0, 1 and 15 (no tail panel, a
/// one-row tail, the widest tail).
#[test]
fn list_order_placement_answers_from_the_id_ordered_rows() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    let norms = [Norm::L1, Norm::L2, Norm::TorusL1, Norm::TorusL2];
    for case in 0..15u64 {
        let norm = norms[case as usize % norms.len()];
        let (n, r, dim) = match case {
            0..12 => (
                rng.gen_range(30..200usize),
                rng.gen_range(1..5usize),
                rng.gen_range(2..12usize),
            ),
            _ => {
                let tail = [0, 1, 15][case as usize - 12];
                (16 * rng.gen_range(4..12usize) + tail, 3, 64)
            }
        };
        let stack = clustered_stack(n, r, rng.gen_range(2..9), dim, case);
        let row = |i: usize| &stack[i * dim..(i + 1) * dim];
        let cfg = IvfConfig {
            clusters: rng.gen_range(3..14),
            iters: 3,
            seed: case,
        };
        let index = IvfIndex::build(&stack, n, dim, &cfg, &PoolHandle::global()).unwrap();
        let k_all = index.num_clusters();
        let path = temp_path(&format!("placement_{case}_{}.ivf", std::process::id()));
        index.save(&path).unwrap();
        let loaded = IvfIndex::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let model = || ServeModel::from_stacked(stack.clone(), n, r, dim, norm).unwrap();
        let mut engine = ServeEngine::new(model(), index.clone()).unwrap();
        let mut reloaded = ServeEngine::new(model(), loaded).unwrap();
        let mut storage = tensor::VecStorage::new(n + r, dim);
        storage.write_rows(0, n + r, &stack).unwrap();
        let mut rows = PagedRows::new(Box::new(storage), n + r).unwrap();
        let what = format!("case {case}: {norm:?}, n {n}, dim {dim}, {k_all} clusters");

        let (fresh, held) = (model(), engine.model());
        let tails: Vec<(u32, u32)> = (0..12).map(|i| (i * 7 % n as u32, i % r as u32)).collect();
        let heads: Vec<(u32, u32)> = (0..12).map(|i| (i % r as u32, i * 5 % n as u32)).collect();
        let (mut got, mut want) = (vec![0f32; 12 * n], vec![0f32; 12 * n]);
        held.score_tails_into(&tails, &mut got);
        fresh.score_tails_into(&tails, &mut want);
        assert_eq!(bits_of(&got), bits_of(&want), "{what}: tail scores");
        held.score_heads_into(&heads, &mut got);
        fresh.score_heads_into(&heads, &mut want);
        assert_eq!(bits_of(&got), bits_of(&want), "{what}: head scores");
        let ds = SyntheticKgBuilder::new(n, r).seed(case).build();
        assert!(!ds.test.is_empty(), "{what}: nothing to evaluate");
        let (known, cfg) = (ds.all_known(), EvalConfig::default());
        let report = |m: &ServeModel| {
            let rep = evaluate_batched(m, &ds.test, &known, &cfg);
            let hits: Vec<u32> = rep.hits_at.iter().map(|h| h.to_bits()).collect();
            (
                rep.mrr.to_bits(),
                rep.mean_rank.to_bits(),
                hits,
                rep.queries,
            )
        };
        assert_eq!(report(held), report(&fresh), "{what}: evaluate_batched");
        let mut again = ServeEngine::new(held.clone(), index.clone()).unwrap();

        for q in ZipfWorkload::new(n, r, 1.0, case).take(24) {
            let dir = match q.dir {
                Direction::Tail => QueryDir::Tails,
                Direction::Head => QueryDir::Heads,
            };
            let mut qv = vec![0f32; dim];
            dir.translated(row(q.entity as usize), row(n + q.rel as usize), &mut qv);
            let got = engine.model().query_vector(&q);
            assert_eq!(bits_of(&got), bits_of(&qv), "{what}: query vector of {q:?}");
            let brute = |cands: &[u32]| {
                let scored = cands
                    .iter()
                    .map(|&e| (e, norm.distance(&qv, row(e as usize))));
                bits(&top_k(scored, 10))
            };

            let all: Vec<u32> = (0..n as u32).collect();
            let exact = bits(&engine.answer_exact(&q, 10));
            assert_eq!(exact, brute(&all), "{what}: exact arm, {q:?}");
            assert_eq!(bits(&reloaded.answer_exact(&q, 10)), exact, "{what}");
            assert_eq!(
                bits(&again.answer_exact(&q, 10)),
                exact,
                "{what}: placed again"
            );
            let again_qv = again.model().query_vector(&q);
            assert_eq!(bits_of(&again_qv), bits_of(&qv), "{what}: placed again");
            for nprobe in [1, 3, k_all] {
                let mut cands = Vec::new();
                index.probe(&qv, nprobe, &mut cands);
                let want = brute(&cands);
                let ann = engine.answer_ann(&q, 10, nprobe);
                assert_eq!(ann.scored, cands.len(), "{what}: nprobe {nprobe}");
                assert_eq!(bits(&ann.hits), want, "{what}: ANN nprobe {nprobe}, {q:?}");
                let paged = engine.answer_ann_paged(&mut rows, &q, 10, nprobe).unwrap();
                assert_eq!(bits(&paged.hits), want, "{what}: paged nprobe {nprobe}");
                let loaded = reloaded.answer_ann(&q, 10, nprobe);
                assert_eq!(
                    bits(&loaded.hits),
                    want,
                    "{what}: loaded index, nprobe {nprobe}"
                );
                let placed = again.answer_ann(&q, 10, nprobe);
                assert_eq!(
                    bits(&placed.hits),
                    want,
                    "{what}: placed again, nprobe {nprobe}"
                );
            }
        }
    }
}

fn bits_of(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The resident walk against the plain reference, `top_k` over
/// `Norm::distance` of every probed candidate (of every entity for the exact
/// arm), under every serving norm, at `k` 1, 10 and more than the entities,
/// and at every `nprobe`. Coordinates are quarter steps, so distances are
/// exact and ties — a candidate in a later cluster, at a lower id, scoring
/// exactly the k-th best — are common. Then the guard path: NaN, `±∞` and
/// `±3e38` planted in entity rows (after the index is built) and in relation
/// rows, where the walk must not prune. The index is built at pool widths 1
/// and 4.
#[test]
fn early_exit_walk_equals_top_k_over_every_candidate() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(53);
    let norms = [Norm::L1, Norm::L2, Norm::TorusL1, Norm::TorusL2];
    let mut ties = 0;
    for case in 0..24u64 {
        let norm = norms[case as usize % norms.len()];
        let n = rng.gen_range(20..240usize);
        let r = rng.gen_range(1..4usize);
        let dim = [3, 8, 9, 17, 64][case as usize % 5];
        let mut stack: Vec<f32> = (0..(n + r) * dim)
            .map(|_| rng.gen_range(-4i32..=4) as f32 / 4.0)
            .collect();
        let cfg = IvfConfig {
            clusters: rng.gen_range(1..12),
            iters: 2,
            seed: case,
        };
        let build = |w| IvfIndex::build(&stack, n, dim, &cfg, &PoolHandle::global().with_width(w));
        let index = build(1).unwrap();
        assert_eq!(build(4).unwrap(), index, "case {case}: width 4");
        let guarded = case >= 16;
        if guarded {
            let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e38, -3e38];
            for _ in 0..rng.gen_range(1..6) {
                let at = rng.gen_range(0..stack.len());
                stack[at] = bad[rng.gen_range(0..bad.len())];
            }
        }
        let model = ServeModel::from_stacked(stack.clone(), n, r, dim, norm).unwrap();
        let mut engine = ServeEngine::new(model, index.clone()).unwrap();
        let what = format!("case {case}: {norm:?}, n {n}, dim {dim}, guarded {guarded}");
        let row = |e: u32| &stack[e as usize * dim..][..dim];
        for q in ZipfWorkload::new(n, r, 1.0, case).take(12) {
            let qv = engine.model().query_vector(&q);
            let reference = |cands: &[u32], k: usize| {
                let scored = cands.iter().map(|&e| (e, norm.distance(&qv, row(e))));
                bits(&top_k(scored, k))
            };
            for k in [1, 10, n + 5] {
                let all: Vec<u32> = (0..n as u32).collect();
                let want = reference(&all, k);
                assert_eq!(
                    bits(&engine.answer_exact(&q, k)),
                    want,
                    "{what}: exact, k {k}"
                );
                if let Some(&(_, kth)) = want.get(k.saturating_sub(1)).filter(|_| k < n) {
                    let later = all.iter().filter(|&&e| {
                        !want.iter().any(|w| w.0 == e)
                            && norm.distance(&qv, row(e)).to_bits() == kth
                    });
                    ties += later.count();
                }
                for nprobe in 1..=index.num_clusters() {
                    let mut cands = Vec::new();
                    index.probe(&qv, nprobe, &mut cands);
                    let ann = engine.answer_ann(&q, k, nprobe);
                    assert_eq!(ann.scored, cands.len(), "{what}: k {k}, nprobe {nprobe}");
                    let want = reference(&cands, k);
                    assert_eq!(
                        bits(&ann.hits),
                        want,
                        "{what}: k {k}, nprobe {nprobe}, {q:?}"
                    );
                }
            }
        }
    }
    assert!(ties > 0, "no query tied the k-th best score");
    // The tables above are small for panels to stop; this one stops some
    // under every norm: 800 rows around 8 centres at dim 64.
    let (n, r, dim) = (800, 3, 64);
    let stack = clustered_stack(n, r, 8, dim, 7);
    for norm in norms {
        let model = ServeModel::from_stacked(stack.clone(), n, r, dim, norm).unwrap();
        let cfg = IvfConfig {
            clusters: 16,
            iters: 3,
            seed: 2,
        };
        let index = IvfIndex::build(&stack, n, dim, &cfg, &PoolHandle::global()).unwrap();
        let mut engine = ServeEngine::new(model, index.clone()).unwrap();
        for q in ZipfWorkload::new(n, r, 1.0, 5).take(20) {
            let qv = engine.model().query_vector(&q);
            let scored =
                (0..n as u32).map(|e| (e, norm.distance(&qv, &stack[e as usize * dim..][..dim])));
            let want = bits(&top_k(scored, 10));
            assert_eq!(bits(&engine.answer_exact(&q, 10)), want, "{norm:?}, {q:?}");
        }
        let stats = engine.scan_stats();
        assert!(stats.stopped_panels > 0, "{norm:?}: {stats:?}");
    }
}

/// A hopeless partial score can still become a NaN with its sign bit set,
/// which `top_k`'s total order ranks first: the torus term of a difference
/// that overflows (`−2e38 − 2e38 = −∞`, then `−∞ − floor(−∞)` is x86's
/// default NaN). One cluster, so the walk visits ids in order: rows 0..32
/// sit near the query; rows 32..64 are a torus half-step away in their
/// first 8 columns, out of reach of the 4th best, and overflow in column 9.
/// Rows beyond `±f32::MAX / 2` turn pruning off, so the walk scores them
/// in full and answers as the reference does.
#[test]
fn overflowing_torus_rows_are_not_pruned() {
    let (n, r, dim) = (64usize, 1usize, 16usize);
    let mut stack = vec![0f32; (n + r) * dim];
    for (e, row) in stack.chunks_exact_mut(dim).take(n).enumerate() {
        let far = e >= 32;
        for (j, v) in row.iter_mut().enumerate() {
            *v = match j {
                9 if far => 2e38,
                9 => -2e38,
                0..=7 if far => 0.5,
                _ => (e % 5) as f32 / 64.0,
            };
        }
    }
    let cfg = IvfConfig {
        clusters: 1,
        iters: 1,
        seed: 0,
    };
    let index = IvfIndex::build(&stack, n, dim, &cfg, &PoolHandle::global()).unwrap();
    for norm in [Norm::TorusL1, Norm::TorusL2] {
        let model = ServeModel::from_stacked(stack.clone(), n, r, dim, norm).unwrap();
        let mut engine = ServeEngine::new(model, index.clone()).unwrap();
        let q = Query {
            dir: Direction::Tail,
            entity: 3,
            rel: 0,
        };
        let qv = engine.model().query_vector(&q);
        let scored =
            (0..n as u32).map(|e| (e, norm.distance(&qv, &stack[e as usize * dim..][..dim])));
        let want = bits(&top_k(scored, 4));
        assert_eq!(bits(&engine.answer_exact(&q, 4)), want, "{norm:?}");
        assert_eq!(bits(&engine.answer_ann(&q, 4, 1).hits), want, "{norm:?}");
    }
}
