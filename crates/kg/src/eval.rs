//! Link-prediction evaluation: Hits@K, MRR, mean rank (raw and filtered).
//!
//! The paper reports **filtered Hits@10** (§6.1, Appendix E): for each test
//! triple, all entities are ranked as candidate tails (and heads) by model
//! score; candidates that form *other* known true triples are excluded before
//! ranking (Bordes et al., 2013's protocol).
//!
//! # Engine architecture
//!
//! Evaluation is a headline workload (the paper's Hits@10 tables), so the
//! engine is batched and pool-parallel rather than scalar:
//!
//! 1. Test triples are processed in chunks of [`EvalConfig::chunk_size`].
//! 2. A [`BatchScorer`] fills a reused `(chunk × num_entities)` dense score
//!    buffer for the whole chunk — one kernel dispatch instead of one
//!    heap-allocated `Vec` per query.
//! 3. Queries in the chunk are ranked across the [`xparallel`] pool with a
//!    fixed-size sub-chunk reduction folded in order, so reports are
//!    bit-identical at **any** `SPTX_NUM_THREADS` — the same determinism
//!    contract the training step upholds.
//!
//! Scalar [`TripleScorer`] implementations plug into the same engine through
//! the [`ScalarBatch`] adapter; [`evaluate`] does this automatically, so both
//! paths share one ranking/reduction code path and produce bit-identical
//! metrics whenever their score buffers are bit-identical.
//!
//! # Ranking convention
//!
//! The rank of the true entity is `1 + |{strictly better}| + |{ties}| / 2`:
//! equal-score candidates contribute half a rank each instead of resolving in
//! index order, which would flatter (or punish) models that emit many equal
//! scores. `NaN` scores are handled pessimistically — see [`evaluate`].

use std::collections::HashMap;

use crate::{TripleSet, TripleStore};

/// A model that can score every candidate head/tail for a partial triple.
///
/// Scores are **distances**: lower is better, matching the translational
/// score functions `‖h + r − t‖`.
pub trait TripleScorer {
    /// Scores `(h, r, t)` for every entity `t` in `0..num_entities`.
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32>;

    /// Scores `(h, r, t)` for every entity `h` in `0..num_entities`.
    fn score_heads(&self, rel: u32, tail: u32) -> Vec<f32>;

    /// Number of candidate entities.
    fn num_entities(&self) -> usize;
}

/// A model that can score **chunks** of ranking queries into a caller-provided
/// dense buffer — the batched counterpart of [`TripleScorer`].
///
/// Implementations write one row of `num_entities()` scores per query into
/// `out` (row-major, `out.len() == queries.len() * num_entities()`), reusing
/// whatever scratch they need across the chunk instead of allocating per
/// query. The `sptransx` models form every query vector of the chunk up front
/// and score all `(query, candidate)` elements in one pool-parallel pass.
///
/// Scores follow the [`TripleScorer`] convention: distances, lower is better.
pub trait BatchScorer {
    /// Number of candidate entities (the row width of the score buffer).
    fn num_entities(&self) -> usize;

    /// Scores `(h, r, t)` for every entity `t`, for each query `(h, r)` in
    /// `queries`; row `i` of `out` receives query `i`'s scores.
    ///
    /// # Panics
    ///
    /// Implementations may panic if
    /// `out.len() != queries.len() * num_entities()`.
    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]);

    /// Scores `(h, r, t)` for every entity `h`, for each query `(r, t)` in
    /// `queries`; row `i` of `out` receives query `i`'s scores.
    ///
    /// # Panics
    ///
    /// Implementations may panic if
    /// `out.len() != queries.len() * num_entities()`.
    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]);
}

/// Adapter running any scalar [`TripleScorer`] through the batched engine:
/// each query row is filled by one scalar `score_tails`/`score_heads` call.
///
/// This keeps every existing scorer working with [`evaluate_batched`] (and is
/// what [`evaluate`] uses internally); models with a native [`BatchScorer`]
/// implementation skip the per-query allocation this adapter inherits.
pub struct ScalarBatch<'a, S: TripleScorer + ?Sized>(pub &'a S);

impl<S: TripleScorer + ?Sized> BatchScorer for ScalarBatch<'_, S> {
    fn num_entities(&self) -> usize {
        self.0.num_entities()
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        let n = self.0.num_entities();
        assert_eq!(
            out.len(),
            queries.len() * n,
            "score buffer has wrong length"
        );
        for (row, &(head, rel)) in out.chunks_exact_mut(n.max(1)).zip(queries) {
            row.copy_from_slice(&self.0.score_tails(head, rel));
        }
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        let n = self.0.num_entities();
        assert_eq!(
            out.len(),
            queries.len() * n,
            "score buffer has wrong length"
        );
        for (row, &(rel, tail)) in out.chunks_exact_mut(n.max(1)).zip(queries) {
            row.copy_from_slice(&self.0.score_heads(rel, tail));
        }
    }
}

/// The popularity baseline: every candidate scored by its training-set
/// degree ([`crate::stats::degrees`]), whatever the query. A model that does
/// not beat it under the same protocol has learned nothing the graph's
/// degree skew does not already give away. Scores are negated degrees, so
/// the most frequent entity is the nearest.
pub struct Popularity {
    scores: Vec<f32>,
}

impl Popularity {
    /// The baseline of a graph with `num_entities` entities trained on
    /// `train`.
    pub fn new(train: &TripleStore, num_entities: usize) -> Self {
        let degrees = crate::stats::degrees(train, num_entities);
        Self {
            scores: degrees.iter().map(|&d| -(d as f32)).collect(),
        }
    }

    /// Writes the degree scores into each of the `queries` rows of `out`.
    fn fill(&self, queries: usize, out: &mut [f32]) {
        let n = self.scores.len();
        assert_eq!(out.len(), queries * n, "score buffer has wrong length");
        for row in out.chunks_exact_mut(n.max(1)) {
            row.copy_from_slice(&self.scores);
        }
    }
}

impl TripleScorer for Popularity {
    fn score_tails(&self, _head: u32, _rel: u32) -> Vec<f32> {
        self.scores.clone()
    }

    fn score_heads(&self, _rel: u32, _tail: u32) -> Vec<f32> {
        self.scores.clone()
    }

    fn num_entities(&self) -> usize {
        self.scores.len()
    }
}

impl BatchScorer for Popularity {
    fn num_entities(&self) -> usize {
        self.scores.len()
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        self.fill(queries.len(), out);
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        self.fill(queries.len(), out);
    }
}

/// Aggregate link-prediction metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPredictionReport {
    /// `hits_at[i]` is the fraction of queries whose true entity ranked
    /// within `ks[i]`.
    pub hits_at: Vec<f32>,
    /// The cutoffs corresponding to `hits_at`.
    pub ks: Vec<usize>,
    /// Mean reciprocal rank.
    pub mrr: f32,
    /// Mean rank (1-based).
    pub mean_rank: f32,
    /// Number of ranking queries performed (2 per test triple).
    pub queries: usize,
}

impl LinkPredictionReport {
    /// The Hits@K value for cutoff `k`, if it was requested.
    pub fn hits(&self, k: usize) -> Option<f32> {
        self.ks
            .iter()
            .position(|&x| x == k)
            .map(|i| self.hits_at[i])
    }
}

/// How [`EvalConfig::max_triples`] selects its subset of the test set.
///
/// Evaluation is `O(|test| · N · d)`, so large graphs evaluate a sample.
/// Which sample matters: test stores often carry residual dataset order
/// (generation order, relation grouping), and a plain prefix inherits that
/// bias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleStrategy {
    /// The first `max_triples` test triples, in order. **Biased** whenever
    /// the test store is not already shuffled — kept as the default because
    /// it is what pre-existing reports were produced with.
    #[default]
    Prefix,
    /// Every `⌈len / max_triples⌉`-th triple, spreading the sample evenly
    /// across the store. Deterministic and order-robust against contiguous
    /// grouping (e.g. triples sorted by relation).
    Strided,
    /// A uniform random subset drawn with the given seed (partial
    /// Fisher–Yates), visited in ascending index order. Deterministic for a
    /// fixed seed.
    Seeded(u64),
}

/// Evaluation protocol configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Hits@K cutoffs to report (default `[1, 3, 10]`).
    pub ks: Vec<usize>,
    /// Whether to filter known true triples from candidate lists.
    pub filtered: bool,
    /// Cap on evaluated test triples (None = all). **This truncates the test
    /// set**; [`EvalConfig::sample`] controls which subset survives.
    pub max_triples: Option<usize>,
    /// Subset selection when `max_triples` truncates (default
    /// [`SampleStrategy::Prefix`]).
    pub sample: SampleStrategy,
    /// Test triples scored per batched chunk (default 64). Each chunk uses a
    /// reused `chunk_size × num_entities` score buffer; larger chunks
    /// amortize kernel dispatch, smaller chunks bound memory.
    pub chunk_size: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            ks: vec![1, 3, 10],
            filtered: true,
            max_triples: None,
            sample: SampleStrategy::default(),
            chunk_size: 64,
        }
    }
}

impl EvalConfig {
    /// Indices of the test triples this configuration evaluates, in
    /// evaluation order — `max_triples` capping plus [`SampleStrategy`]
    /// selection applied to a store of length `len`.
    pub fn selected_indices(&self, len: usize) -> Vec<usize> {
        let limit = self.max_triples.unwrap_or(len).min(len);
        if limit == len {
            return (0..len).collect();
        }
        match self.sample {
            SampleStrategy::Prefix => (0..limit).collect(),
            SampleStrategy::Strided => {
                // i-th pick at ⌊i·len/limit⌋: evenly spread, strictly
                // increasing because limit ≤ len.
                (0..limit).map(|i| i * len / limit).collect()
            }
            SampleStrategy::Seeded(seed) => {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut pool: Vec<usize> = (0..len).collect();
                for i in 0..limit {
                    let j = rng.gen_range(i..len);
                    pool.swap(i, j);
                }
                let mut picked = pool[..limit].to_vec();
                // Ascending order for score-buffer locality; the set is
                // already uniform, so ordering adds no bias.
                picked.sort_unstable();
                picked
            }
        }
    }
}

/// Runs link-prediction evaluation of a scalar `scorer` on `test`.
///
/// This wraps `scorer` in [`ScalarBatch`] and delegates to
/// [`evaluate_batched`], so the scalar and batched paths share one ranking
/// engine. For each test triple both the tail and the head are predicted.
///
/// # Ranking convention
///
/// The rank of the true entity is `1 + |{candidates with strictly smaller
/// score}| + |{equal-score candidates}| / 2`: optimistic tie-breaking on
/// equal scores would inflate results, so ties count half. `NaN` candidate
/// scores never outrank the truth, and a `NaN` score **for the truth itself**
/// is assigned the worst possible rank — a model emitting `NaN` must not be
/// flattered by `NaN`'s all-comparisons-false semantics.
///
/// # Examples
///
/// ```
/// use kg::eval::{evaluate, EvalConfig, TripleScorer};
/// use kg::{Triple, TripleSet, TripleStore};
///
/// /// A perfect oracle: distance 0 for the true entity, 1 elsewhere.
/// struct Oracle { truth: TripleSet, n: usize }
/// impl TripleScorer for Oracle {
///     fn score_tails(&self, h: u32, r: u32) -> Vec<f32> {
///         (0..self.n as u32)
///             .map(|t| if self.truth.contains(&Triple::new(h, r, t)) { 0.0 } else { 1.0 })
///             .collect()
///     }
///     fn score_heads(&self, r: u32, t: u32) -> Vec<f32> {
///         (0..self.n as u32)
///             .map(|h| if self.truth.contains(&Triple::new(h, r, t)) { 0.0 } else { 1.0 })
///             .collect()
///     }
///     fn num_entities(&self) -> usize { self.n }
/// }
///
/// let test: TripleStore = [Triple::new(0, 0, 1)].into_iter().collect();
/// let truth = TripleSet::from_stores([&test]);
/// let report = evaluate(&Oracle { truth: truth.clone(), n: 5 }, &test, &truth, &EvalConfig::default());
/// assert_eq!(report.hits(1), Some(1.0));
/// ```
pub fn evaluate(
    scorer: &dyn TripleScorer,
    test: &TripleStore,
    known: &TripleSet,
    config: &EvalConfig,
) -> LinkPredictionReport {
    evaluate_batched(&ScalarBatch(scorer), test, known, config)
}

/// Runs link-prediction evaluation through the batched, pool-parallel engine.
///
/// Test triples are scored in chunks into two reused
/// `chunk_size × num_entities` buffers (tail and head queries), then every
/// query in the chunk is ranked in parallel on the [`xparallel`] pool. The
/// reduction maps fixed-size sub-chunks of queries to partials and folds
/// them in order, so metrics are bit-identical at any thread count.
///
/// Ranking follows the same convention as [`evaluate`] — the two entry points
/// produce bit-identical reports whenever the scorers produce bit-identical
/// score buffers.
pub fn evaluate_batched(
    scorer: &dyn BatchScorer,
    test: &TripleStore,
    known: &TripleSet,
    config: &EvalConfig,
) -> LinkPredictionReport {
    let indices = config.selected_indices(test.len());
    let n = scorer.num_entities();
    let chunk = config.chunk_size.max(1);
    // Chunk score buffers, allocated once and reused for every chunk.
    let mut tail_scores = vec![0f32; chunk.min(indices.len().max(1)) * n];
    let mut head_scores = vec![0f32; chunk.min(indices.len().max(1)) * n];

    // Filter indexes, built in one pass over `known`: ranking then corrects
    // each query's rank from its (typically tiny) filter list instead of
    // probing the hash set once per candidate — for a 10k-entity graph that
    // replaces ~10k hash lookups per query with a handful of slots.
    let empty: Vec<u32> = Vec::new();
    let mut known_tails: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    let mut known_heads: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    if config.filtered {
        for t in known.iter() {
            known_tails.entry((t.head, t.rel)).or_default().push(t.tail);
            known_heads.entry((t.rel, t.tail)).or_default().push(t.head);
        }
    }

    let mut acc = Accum::new(config.ks.len());
    for ids in indices.chunks(chunk) {
        let m = ids.len();
        let tail_q: Vec<(u32, u32)> = ids
            .iter()
            .map(|&i| {
                let t = test.get(i);
                (t.head, t.rel)
            })
            .collect();
        let head_q: Vec<(u32, u32)> = ids
            .iter()
            .map(|&i| {
                let t = test.get(i);
                (t.rel, t.tail)
            })
            .collect();
        scorer.score_tails_into(&tail_q, &mut tail_scores[..m * n]);
        scorer.score_heads_into(&head_q, &mut head_scores[..m * n]);

        let tail_scores = &tail_scores[..m * n];
        let head_scores = &head_scores[..m * n];
        // Sub-chunks of fixed length: the fold order of the f64 partials
        // depends only on `m`, never on the worker count.
        let part = xparallel::PoolHandle::global().map_reduce_fixed(
            m,
            RANK_REDUCE_CHUNK,
            Accum::new(config.ks.len()),
            |range| {
                let mut local = Accum::new(config.ks.len());
                for i in range {
                    let t = test.get(ids[i]);
                    let tail_filter = known_tails
                        .get(&(t.head, t.rel))
                        .unwrap_or(&empty)
                        .as_slice();
                    let rank = rank_of(
                        &tail_scores[i * n..(i + 1) * n],
                        t.tail as usize,
                        tail_filter,
                    );
                    local.record(&config.ks, rank);
                    let head_filter = known_heads
                        .get(&(t.rel, t.tail))
                        .unwrap_or(&empty)
                        .as_slice();
                    let rank = rank_of(
                        &head_scores[i * n..(i + 1) * n],
                        t.head as usize,
                        head_filter,
                    );
                    local.record(&config.ks, rank);
                }
                local
            },
            Accum::merge,
        );
        acc = Accum::merge(acc, part);
    }
    acc.into_report(&config.ks)
}

/// Queries per reduction sub-chunk in [`evaluate_batched`]; fixed so the
/// metric fold order is independent of the pool width.
const RANK_REDUCE_CHUNK: usize = 8;

/// Deterministic partial metrics for one worker's share of ranking queries.
struct Accum {
    hits: Vec<usize>,
    rr_sum: f64,
    rank_sum: f64,
    queries: usize,
}

impl Accum {
    fn new(num_ks: usize) -> Self {
        Self {
            hits: vec![0; num_ks],
            rr_sum: 0.0,
            rank_sum: 0.0,
            queries: 0,
        }
    }

    fn record(&mut self, ks: &[usize], rank: f64) {
        for (slot, &k) in self.hits.iter_mut().zip(ks) {
            if rank <= k as f64 {
                *slot += 1;
            }
        }
        self.rr_sum += 1.0 / rank;
        self.rank_sum += rank;
        self.queries += 1;
    }

    fn merge(mut self, other: Self) -> Self {
        for (a, b) in self.hits.iter_mut().zip(&other.hits) {
            *a += b;
        }
        self.rr_sum += other.rr_sum;
        self.rank_sum += other.rank_sum;
        self.queries += other.queries;
        self
    }

    fn into_report(self, ks: &[usize]) -> LinkPredictionReport {
        let q = self.queries.max(1) as f64;
        LinkPredictionReport {
            hits_at: self.hits.iter().map(|&h| (h as f64 / q) as f32).collect(),
            ks: ks.to_vec(),
            mrr: (self.rr_sum / q) as f32,
            mean_rank: (self.rank_sum / q) as f32,
            queries: self.queries,
        }
    }
}

/// 1-based rank of `target` among `scores` (lower score = better), with the
/// candidates listed in `filtered` excluded from the competition.
///
/// Convention: `1 + |{strictly better}| + |{ties}| / 2` — ties count half so
/// index order can neither flatter nor punish models that emit equal scores.
/// `NaN` candidates count as worse than everything; a `NaN` target score gets
/// the worst possible rank (all surviving candidates counted as better).
///
/// The implementation counts over *all* candidates in one branch-light pass,
/// then subtracts the filter list's contributions — `O(n + |filter|)` with no
/// per-candidate set probe. Filter entries must be distinct (they come from a
/// set); out-of-range entries are ignored, and the target itself never
/// counts, filtered or not.
fn rank_of(scores: &[f32], target: usize, filtered: &[u32]) -> f64 {
    let target_score = scores[target];
    let mut better = 0isize;
    let mut ties = 0isize;
    let mut candidates = scores.len() as isize - 1;
    for (cand, &s) in scores.iter().enumerate() {
        if cand == target {
            continue;
        }
        if s < target_score {
            better += 1;
        } else if s == target_score {
            ties += 1;
        }
    }
    for &c in filtered {
        let c = c as usize;
        if c == target || c >= scores.len() {
            continue;
        }
        candidates -= 1;
        let s = scores[c];
        if s < target_score {
            better -= 1;
        } else if s == target_score {
            ties -= 1;
        }
    }
    if target_score.is_nan() {
        // All comparisons against NaN are false, which would assign rank 1;
        // report the documented worst case instead.
        return 1.0 + candidates.max(0) as f64;
    }
    1.0 + better as f64 + ties as f64 / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triple;

    struct FixedScorer {
        n: usize,
        /// score[i] used for every query.
        scores: Vec<f32>,
    }

    impl TripleScorer for FixedScorer {
        fn score_tails(&self, _h: u32, _r: u32) -> Vec<f32> {
            self.scores.clone()
        }
        fn score_heads(&self, _r: u32, _t: u32) -> Vec<f32> {
            self.scores.clone()
        }
        fn num_entities(&self) -> usize {
            self.n
        }
    }

    fn single_test_triple() -> (TripleStore, TripleSet) {
        let test: TripleStore = [Triple::new(0, 0, 2)].into_iter().collect();
        let known = TripleSet::from_stores([&test]);
        (test, known)
    }

    #[test]
    fn perfect_scores_rank_first() {
        let (test, known) = single_test_triple();
        // Entity 2 has the lowest distance; entity 0 (head query truth) does too... use
        // distinct scores so both queries rank exactly.
        let scorer = FixedScorer {
            n: 4,
            scores: vec![0.0, 3.0, 0.1, 2.0],
        };
        // tail query: truth = 2 (score 0.1): entity 0 scores better -> rank 2.
        // head query: truth = 0 (score 0.0): rank 1.
        let r = evaluate(&scorer, &test, &known, &EvalConfig::default());
        assert_eq!(r.queries, 2);
        assert_eq!(r.hits(1), Some(0.5));
        assert_eq!(r.hits(3), Some(1.0));
        assert!((r.mrr - (1.0 + 0.5) / 2.0).abs() < 1e-6);
        assert!((r.mean_rank - 1.5).abs() < 1e-6);
    }

    #[test]
    fn filtering_removes_known_competitors() {
        // Truth for tail query is entity 2; entity 0 scores better but forms a
        // known triple, so filtered eval ranks the truth first.
        let test: TripleStore = [Triple::new(1, 0, 2)].into_iter().collect();
        let mut known = TripleSet::from_stores([&test]);
        known.insert(Triple::new(1, 0, 0)); // known competitor as tail
        known.insert(Triple::new(0, 0, 2)); // known competitor as head
        let scorer = FixedScorer {
            n: 3,
            scores: vec![0.0, 0.5, 1.0],
        };
        let raw = evaluate(
            &scorer,
            &test,
            &known,
            &EvalConfig {
                filtered: false,
                ..Default::default()
            },
        );
        let filt = evaluate(&scorer, &test, &known, &EvalConfig::default());
        assert!(filt.mrr > raw.mrr);
        // Tail query filtered: candidates {1}, truth=2 score 1.0 vs 0.5 -> rank 2.
        // Head query filtered: candidates {2}, truth=1 score 0.5 vs 1.0 -> rank 1.
        assert!((filt.mean_rank - 1.5).abs() < 1e-6);
    }

    #[test]
    fn ties_count_half() {
        let (test, known) = single_test_triple();
        let scorer = FixedScorer {
            n: 3,
            scores: vec![1.0, 1.0, 1.0],
        };
        let r = evaluate(&scorer, &test, &known, &EvalConfig::default());
        // Two ties -> rank 1 + 2/2 = 2 for both queries.
        assert!((r.mean_rank - 2.0).abs() < 1e-6);
    }

    #[test]
    fn tie_rank_is_invariant_to_candidate_order() {
        // The truth ties with two candidates; permuting which indices hold
        // the tying scores must not change the rank.
        let base = vec![0.5, 2.0, 0.5, 0.5, 9.0];
        let permuted = vec![0.5, 0.5, 0.5, 9.0, 2.0];
        let r1 = rank_of(&base, 0, &[]);
        let r2 = rank_of(&permuted, 2, &[]);
        assert_eq!(r1, r2);
        assert_eq!(r1, 1.0 + 0.0 + 2.0 / 2.0);
    }

    #[test]
    fn nan_scores_are_pessimistic() {
        // NaN candidates never beat the truth.
        let scores = vec![f32::NAN, 1.0, f32::NAN];
        assert_eq!(rank_of(&scores, 1, &[]), 1.0);
        // A NaN truth gets the worst rank, not (flattering) rank 1.
        let scores = vec![0.5, f32::NAN, 2.0];
        assert_eq!(rank_of(&scores, 1, &[]), 3.0);
        // ... and filtered candidates still do not count against it.
        assert_eq!(rank_of(&scores, 1, &[0]), 2.0);
        // Out-of-range filter entries (scorer/filter vocabulary mismatch)
        // are ignored rather than corrupting the counts.
        assert_eq!(rank_of(&scores, 1, &[0, 99]), 2.0);
    }

    #[test]
    fn max_triples_caps_work() {
        let test: TripleStore = (0..10).map(|i| Triple::new(i, 0, (i + 1) % 10)).collect();
        let known = TripleSet::from_stores([&test]);
        let scorer = FixedScorer {
            n: 10,
            scores: (0..10).map(|i| i as f32).collect(),
        };
        let r = evaluate(
            &scorer,
            &test,
            &known,
            &EvalConfig {
                max_triples: Some(3),
                ..Default::default()
            },
        );
        assert_eq!(r.queries, 6);
    }

    #[test]
    fn sample_strategies_select_expected_indices() {
        let cfg = |sample| EvalConfig {
            max_triples: Some(4),
            sample,
            ..Default::default()
        };
        // No truncation: every strategy yields the identity.
        let full = EvalConfig {
            sample: SampleStrategy::Seeded(7),
            ..Default::default()
        };
        assert_eq!(full.selected_indices(3), vec![0, 1, 2]);

        assert_eq!(
            cfg(SampleStrategy::Prefix).selected_indices(10),
            vec![0, 1, 2, 3]
        );
        // Stride spreads over the whole store instead of taking a prefix.
        let strided = cfg(SampleStrategy::Strided).selected_indices(10);
        assert_eq!(strided, vec![0, 2, 5, 7]);

        let a = cfg(SampleStrategy::Seeded(9)).selected_indices(100);
        let b = cfg(SampleStrategy::Seeded(9)).selected_indices(100);
        assert_eq!(a, b, "seeded sampling is deterministic");
        assert_eq!(a.len(), 4);
        assert!(
            a.windows(2).all(|w| w[0] < w[1]),
            "distinct and sorted: {a:?}"
        );
        assert!(a.iter().all(|&i| i < 100));
        let c = cfg(SampleStrategy::Seeded(10)).selected_indices(100);
        assert_ne!(a, c, "different seeds draw different subsets");
    }

    #[test]
    fn strided_sampling_resists_dataset_order_bias() {
        // A store whose second half is "easy" (truth in the first K): a
        // prefix sample sees none of it, a strided sample sees half.
        let test: TripleStore = (0..20).map(|i| Triple::new(0, 0, i % 10)).collect();
        let picked = EvalConfig {
            max_triples: Some(10),
            sample: SampleStrategy::Strided,
            ..Default::default()
        }
        .selected_indices(test.len());
        assert!(picked.iter().filter(|&&i| i >= 10).count() >= 4);
    }

    #[test]
    fn batched_adapter_matches_scalar_for_all_chunk_sizes() {
        let test: TripleStore = (0..17)
            .map(|i| Triple::new(i % 5, i % 3, (i + 1) % 5))
            .collect();
        let known = TripleSet::from_stores([&test]);
        let scorer = FixedScorer {
            n: 5,
            scores: vec![0.3, 0.1, 4.0, 0.1, 2.0],
        };
        let baseline = evaluate(
            &scorer,
            &test,
            &known,
            &EvalConfig {
                chunk_size: 1,
                ..Default::default()
            },
        );
        for chunk_size in [2usize, 3, 16, 64] {
            let r = evaluate(
                &scorer,
                &test,
                &known,
                &EvalConfig {
                    chunk_size,
                    ..Default::default()
                },
            );
            assert_eq!(r, baseline, "chunk_size {chunk_size}");
        }
    }

    #[test]
    fn empty_test_store_reports_zero_queries() {
        let test = TripleStore::new();
        let known = TripleSet::new();
        let scorer = FixedScorer {
            n: 3,
            scores: vec![0.0, 1.0, 2.0],
        };
        let r = evaluate(&scorer, &test, &known, &EvalConfig::default());
        assert_eq!(r.queries, 0);
        assert_eq!(r.mrr, 0.0);
    }

    #[test]
    fn popularity_ranks_the_hub_first_on_both_paths() {
        // A star: hub 0 linked to leaves 1..=5, so its degree is 5 and each
        // leaf's is 1.
        let train: TripleStore = (1..=5).map(|leaf| Triple::new(0, 0, leaf)).collect();
        let pop = Popularity::new(&train, 6);
        let tails = pop.score_tails(3, 0);
        let best = (0..6).min_by(|&a, &b| tails[a].total_cmp(&tails[b]));
        assert_eq!(best, Some(0));

        // Each test triple asks once for the hub (rank 1) and once for a
        // leaf, which trails the hub and ties with the four other leaves:
        // rank 1 + 1 + 4/2 = 4.
        let test: TripleStore = [Triple::new(0, 0, 2), Triple::new(4, 1, 0)]
            .into_iter()
            .collect();
        let known = TripleSet::from_stores([&test]);
        let scalar = evaluate(&pop, &test, &known, &EvalConfig::default());
        let batched = evaluate_batched(&pop, &test, &known, &EvalConfig::default());
        assert_eq!(scalar, batched);
        assert_eq!(scalar.queries, 4);
        assert_eq!(scalar.hits(1), Some(0.5));
        assert!((scalar.mrr - 0.625).abs() < 1e-6, "{scalar:?}");
    }

    #[test]
    fn hits_lookup_missing_k() {
        let (test, known) = single_test_triple();
        let scorer = FixedScorer {
            n: 3,
            scores: vec![0.0, 1.0, 2.0],
        };
        let r = evaluate(&scorer, &test, &known, &EvalConfig::default());
        assert_eq!(r.hits(7), None);
    }
}
