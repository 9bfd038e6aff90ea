//! Online link-prediction serving: top-K completion queries over a trained
//! model, with an ANN candidate index so a query does not score all `N`
//! entities.
//!
//! Training ends with `sptx train` writing the stacked `(N + R) × d`
//! embedding matrix of the translational models to disk; this module is the
//! inference path the ROADMAP's "millions of users" north star needs on top
//! of it:
//!
//! * [`ServeModel`] loads that matrix back and implements
//!   [`kg::eval::BatchScorer`] through the **same** batched walk training
//!   evaluation uses (the scorer module's `batched_scores_into`) — so
//!   ranking through a loaded model is bit-identical to `evaluate_batched`'s
//!   scoring by construction.
//! * [`IvfIndex`] clusters the entity embeddings (deterministic k-means on
//!   the shared `xparallel` pool) into inverted lists; a query probes the
//!   `nprobe` nearest centroids and rescores only those candidates. `nprobe`
//!   is the cost/recall knob: `nprobe == clusters` *is* the full scan, and
//!   recall@K against the exact arm is a pure candidate-coverage measure.
//! * **Panel storage.** [`ServeEngine::new`] moves the model's entity rows,
//!   in place, into the index's list order (the concatenated inverted
//!   lists), as an IVF-Flat index stores its vectors, and transposes each
//!   block of [`PANEL_LANES`] = 16 storage rows into a column-major panel:
//!   column `j` of the block's rows stored together (the last panel is
//!   `N mod 16` rows wide). Each probed cluster is then a run of consecutive
//!   panels; the model keeps an id → row map, through which every read of an
//!   entity row by id goes, copying the row out of its panel.
//! * One score for every arm: [`Norm::distance`] (the tape's row score of
//!   `q − candidate`) against [`QueryDir::translated`]. The resident arms
//!   score 16 candidates per pass through
//!   [`tensor::RowScore::panel_distances_within`], whose every lane is that
//!   distance bit for bit when it scores the panel in full.
//! * **One resident walk, with an early exit.** The ANN arm walks the
//!   `nprobe` nearest clusters, nearest first; the exact arm is the same
//!   walk over every cluster. Each cluster is a run of consecutive panels,
//!   and the walk keeps a running top-k: after every 8 columns of a panel
//!   it compares the lanes the cluster holds against the k-th best score so
//!   far, and leaves the panel once every one of them is strictly above it.
//!   Every term is `≥ 0`, so a partial score bounds the full one from below
//!   and a lane left behind could not have entered the top k; a tie at a
//!   lower id is never left. The walk prunes only when every entity and
//!   query coordinate is within `±f32::MAX / 2`: beyond it a later column's
//!   torus term of an overflowed difference can turn a hopeless partial
//!   into a negative NaN, which the score order ranks first.
//!   [`ServeEngine::scan_stats`] counts what it read.
//! * The paged arm reads one id-ordered row at a time through the
//!   [`DenseView`] training reads, mapped onto [`PagedRows`], scores every
//!   probed candidate in full and ranks them with [`top_k`]: the
//!   unpruned reference the resident arm is checked against, bit for bit.
//!   Answers name entity ids and depend only on the set of `(id, score)`
//!   pairs, so neither the layout nor the walk shows in them.
//! * [`QueryCache`] absorbs the hot head of Zipf-skewed traffic
//!   ([`ZipfWorkload`]); its exact-LRU policy is cross-validated against a
//!   fully-associative `simcache` model in the serving tests.
//!
//! **Determinism scope:** index build, query answers, cache behaviour and
//! the workload stream are all bit-identical at any `SPTX_NUM_THREADS`.
//! Only *latency* (what `benches/serve.rs` measures) varies with threads.

mod cache;
mod index;
mod workload;

pub use cache::{QueryCache, QueryCacheStats, QueryKey};
pub use index::{IvfConfig, IvfIndex};
pub use workload::ZipfWorkload;

use std::collections::BinaryHeap;
use std::path::Path;
use std::time::Duration;

use kg::eval::BatchScorer;
use kg::stream::RowFile;
use sparse::DenseView;
use tensor::kernels::transpose;
use tensor::{RowScore, PANEL_LANES};
use xparallel::PoolHandle;

use crate::model::Norm;
use crate::scorer::{batched_scores_into, QueryDir};
use crate::{Error, Result};

/// Which slot of a triple a completion query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Given `(h, r, ?)`, rank candidate tails.
    Tail,
    /// Given `(?, r, t)`, rank candidate heads.
    Head,
}

/// One top-K completion request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Which slot to complete.
    pub dir: Direction,
    /// The known entity (head for [`Direction::Tail`], tail for
    /// [`Direction::Head`]).
    pub entity: u32,
    /// The relation.
    pub rel: u32,
}

impl Query {
    fn query_dir(&self) -> QueryDir {
        match self.dir {
            Direction::Tail => QueryDir::Tails,
            Direction::Head => QueryDir::Heads,
        }
    }
}

/// A loaded stacked-translational model (TransE / TorusE family) ready to
/// answer queries.
///
/// Holds the `(N + R) × d` matrix `sptx train` saves — entity rows first,
/// relation rows below — plus the distance norm, which the save format does
/// not record and must therefore match the training configuration.
///
/// The entity rows may be stored in any order and in panels: entity `e`
/// sits at storage row `row_of[e]`, and storage rows are grouped into
/// column-major panels of `lanes` rows. A loaded model stores them by id, one
/// row per panel (plain row-major rows); [`ServeEngine::new`] moves them into
/// its index's list order, in panels of [`PANEL_LANES`].
#[derive(Debug, Clone)]
pub struct ServeModel {
    emb: Vec<f32>,
    /// Entity id → storage row.
    row_of: Vec<u32>,
    /// Storage rows per panel: 1 (row-major) or [`PANEL_LANES`].
    lanes: usize,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
    norm: Norm,
}

impl ServeModel {
    /// Wraps an in-memory stacked embedding matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the buffer length disagrees with
    /// `(num_entities + num_relations) * dim`, or any count is zero.
    pub fn from_stacked(
        emb: Vec<f32>,
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        norm: Norm,
    ) -> Result<Self> {
        if num_entities == 0 || num_relations == 0 || dim == 0 {
            return Err(Error::config(
                "serve model needs entities, relations and a positive dimension",
            ));
        }
        let expected = (num_entities + num_relations) * dim;
        if emb.len() != expected {
            return Err(Error::config(format!(
                "embedding buffer has {} floats, expected {expected} for ({num_entities} + {num_relations}) x {dim}",
                emb.len()
            )));
        }
        Ok(Self {
            emb,
            row_of: (0..num_entities as u32).collect(),
            lanes: 1,
            num_entities,
            num_relations,
            dim,
            norm,
        })
    }

    /// Loads the `sptx train` embedding dump at `path`.
    ///
    /// The file stores its own row/column counts; `num_entities` fixes where
    /// entity rows end and relation rows begin, and is validated against the
    /// stored row count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kg`] on I/O or format failures and [`Error::Serve`]
    /// when the stored shape cannot be a stacked `(N + R) × d` matrix for
    /// the given `num_entities`.
    pub fn load(path: impl AsRef<Path>, num_entities: usize, norm: Norm) -> Result<Self> {
        let mut store = RowFile::open(path).map_err(Error::Kg)?;
        let rows = store.rows();
        let dim = store.cols();
        if rows <= num_entities {
            return Err(Error::serve(format!(
                "embedding file has {rows} rows but the vocabulary has {num_entities} entities — no relation rows left"
            )));
        }
        let num_relations = rows - num_entities;
        let emb = store.read_rows(0, rows).map_err(Error::Kg)?;
        Self::from_stacked(emb, num_entities, num_relations, dim, norm)
    }

    /// Number of candidate entities.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Distance norm used for scoring.
    pub fn norm(&self) -> Norm {
        self.norm
    }

    /// The stacked `(N + R) × d` matrix in **storage order**: the `N × d`
    /// entity region first, the relation rows below, row-major. A model
    /// [`ServeModel::load`] or [`ServeModel::from_stacked`] returns stores
    /// its entity rows by id, row-major, so this is the dump `sptx train`
    /// wrote. The model a [`ServeEngine`] holds stores them in its index's
    /// list order, as column-major panels of [`PANEL_LANES`] rows: panel `b`
    /// starts at `b·16·d`, and column `j` of storage row `16b + l` is at
    /// `b·16·d + j·w + l`, where `w` is 16 except in the last panel, which
    /// is `N mod 16` rows wide when that is not zero.
    pub fn embeddings(&self) -> &[f32] {
        &self.emb
    }

    /// Materializes the query vector `q = h + r` (tail queries) or
    /// `q = t − r` (head queries) — [`QueryDir::translated`] over the two
    /// table rows, the same call every arm and the training models make.
    ///
    /// # Panics
    ///
    /// Panics if the query's entity or relation is out of range.
    pub fn query_vector(&self, query: &Query) -> Vec<f32> {
        let mut q = vec![0f32; self.dim];
        self.query_vector_into(query, &mut q);
        q
    }

    /// [`ServeModel::query_vector`] into `q` (`dim` long).
    fn query_vector_into(&self, query: &Query, q: &mut [f32]) {
        let [ent, rel] = self.rows_of(query);
        self.entity_into(ent as usize, q);
        query
            .query_dir()
            .translate(q, self.relation_row(rel as usize));
    }

    /// Stacked row `row ≥ N`: a relation row, row-major wherever the entity
    /// rows are.
    fn relation_row(&self, row: usize) -> &[f32] {
        &self.emb[row * self.dim..(row + 1) * self.dim]
    }

    /// Storage rows `b·lanes ..` of the entity region as one column-major
    /// panel, and its width `w` (`lanes`, or fewer in the last panel):
    /// column `j` of row `l` at `[j·w + l]`.
    fn panel(&self, b: usize) -> (&[f32], usize) {
        let first = b * self.lanes;
        let w = self.lanes.min(self.num_entities - first);
        (&self.emb[first * self.dim..(first + w) * self.dim], w)
    }

    /// Copies entity `id`'s row out of its panel into `out`: every read of
    /// an entity row by id goes through here.
    fn entity_into(&self, id: usize, out: &mut [f32]) {
        let row = self.row_of[id] as usize;
        let (panel, w) = self.panel(row / self.lanes);
        let lane = row % self.lanes;
        for (o, col) in out.iter_mut().zip(panel.chunks_exact(w)) {
            *o = col[lane];
        }
    }

    /// The two rows a query reads in the id-ordered table `sptx train`
    /// dumps: its entity's and its relation's.
    fn rows_of(&self, query: &Query) -> [u32; 2] {
        let (n, r) = (self.num_entities, self.num_relations);
        assert!(
            (query.entity as usize) < n && (query.rel as usize) < r,
            "{query:?} out of range for {n} entities / {r} relations"
        );
        [query.entity, n as u32 + query.rel]
    }

    /// Moves the entity rows so that storage row `i` holds entity `order[i]`
    /// (`order` a permutation of the ids), stored as panels of
    /// [`PANEL_LANES`] rows, in place; relation rows stay. A model already in
    /// panels (one taken out of an engine) is first transposed back into
    /// rows, and the order composes with its current placement.
    fn place(&mut self, order: &[u32]) {
        let (n, dim) = (self.num_entities, self.dim);
        assert_eq!(order.len(), n, "placement must cover every entity");
        let ent = &mut self.emb[..n * dim];
        transpose_blocks(ent, dim, self.lanes, Transpose::ToRows);
        let src: Vec<u32> = order.iter().map(|&e| self.row_of[e as usize]).collect();
        permute_rows(ent, dim, &src);
        transpose_blocks(ent, dim, PANEL_LANES, Transpose::ToPanels);
        self.lanes = PANEL_LANES;
        for (row, &e) in (0u32..).zip(order) {
            self.row_of[e as usize] = row;
        }
    }

    /// Every candidate's distance, in id order, through the batched walk
    /// the training models evaluate on; each row is copied out of its panel
    /// into the walk's scratch.
    fn scores_into(&self, dir: QueryDir, queries: &[(u32, u32)], out: &mut [f32]) {
        let n = self.num_entities;
        batched_scores_into(
            (n, self.dim),
            queries,
            dir,
            out,
            |ent, rel, q| {
                self.entity_into(ent, q);
                dir.translate(q, self.relation_row(n + rel));
            },
            |_, q, cand, row| {
                self.entity_into(cand, row);
                self.norm.distance(q, row)
            },
        );
    }
}

/// `query`'s vector from its entity's row and its relation's.
fn translate(query: &Query, ent: &[f32], rel: &[f32]) -> Vec<f32> {
    let mut q = vec![0f32; ent.len()];
    query.query_dir().translated(ent, rel, &mut q);
    q
}

/// Which way [`transpose_blocks`] turns each block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transpose {
    /// Row-major rows into a column-major panel.
    ToPanels,
    /// A column-major panel back into row-major rows.
    ToRows,
}

/// Transposes every `lanes`-row block of the `dim`-wide rows of `data` in
/// place, through one block of scratch. Block `b` covers rows
/// `b·lanes ..`; the last block holds what is left, `w` rows. In panel form
/// column `j` of the block's row `l` sits at `[j·w + l]`, in row form at
/// `[l·dim + j]`. One-row blocks are the same in both forms.
fn transpose_blocks(data: &mut [f32], dim: usize, lanes: usize, to: Transpose) {
    if lanes == 1 {
        return;
    }
    let mut scratch = vec![0f32; lanes * dim];
    for block in data.chunks_mut(lanes * dim) {
        let w = block.len() / dim;
        let src = &mut scratch[..block.len()];
        src.copy_from_slice(block);
        match to {
            Transpose::ToPanels => transpose(src, w, dim, block),
            Transpose::ToRows => transpose(src, dim, w, block),
        }
    }
}

/// Reorders the `dim`-wide rows of `data` in place so that row `i` ends up
/// holding what row `src[i]` held (`src` a permutation of the row indices):
/// each cycle of `src` is followed once, through one row of scratch, so no
/// second table is ever allocated.
fn permute_rows(data: &mut [f32], dim: usize, src: &[u32]) {
    debug_assert_eq!(data.len(), src.len() * dim);
    let mut done = vec![false; src.len()];
    let mut scratch = vec![0f32; dim];
    for start in 0..src.len() {
        if std::mem::replace(&mut done[start], true) || src[start] as usize == start {
            continue;
        }
        scratch.copy_from_slice(&data[start * dim..(start + 1) * dim]);
        let mut i = start;
        loop {
            let from = src[i] as usize;
            if from == start {
                data[i * dim..(i + 1) * dim].copy_from_slice(&scratch);
                break;
            }
            data.copy_within(from * dim..(from + 1) * dim, i * dim);
            done[from] = true;
            i = from;
        }
    }
}

impl BatchScorer for ServeModel {
    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        self.scores_into(QueryDir::Tails, queries, out);
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        self.scores_into(QueryDir::Heads, queries, out);
    }
}

/// The deterministic score order used everywhere in this module: primary by
/// score ascending (lower distance = better) under IEEE total order, ties by
/// entity id ascending. A NaN with the sign bit clear ranks after `+∞`
/// (worst); one with it set ranks before `−∞` (first). x86's default NaN,
/// what `inf − inf` gives, has the sign bit set.
fn score_order(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// An `(entity, score)` pair ordered by [`score_order`], for the running
/// top-k heap of the resident walk: its greatest element is the k-th best.
#[derive(Debug, Clone, Copy)]
struct Ranked(u32, f32);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        score_order(&(self.0, self.1), &(other.0, other.1))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ranked {}

/// The `k` best `(entity, score)` pairs under the deterministic score order,
/// best first. The result depends only on the *set* of input pairs, never on
/// their iteration order.
pub fn top_k(pairs: impl IntoIterator<Item = (u32, f32)>, k: usize) -> Vec<(u32, f32)> {
    let mut v: Vec<(u32, f32)> = pairs.into_iter().collect();
    keep_top_k(&mut v, k);
    v
}

/// [`top_k`] in place: truncates `v` to its `k` best pairs, best first.
fn keep_top_k(v: &mut Vec<(u32, f32)>, k: usize) {
    if k == 0 {
        v.clear();
    } else if k < v.len() {
        v.select_nth_unstable_by(k - 1, score_order);
        v.truncate(k);
    }
    v.sort_unstable_by(score_order);
}

/// Fraction of `exact`'s entity ids that `approx` also returned
/// (`|ids(exact) ∩ ids(approx)| / |exact|`; 1.0 when `exact` is empty).
pub fn recall_at_k(exact: &[(u32, f32)], approx: &[(u32, f32)]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let found = exact
        .iter()
        .filter(|(id, _)| approx.iter().any(|(a, _)| a == id))
        .count();
    found as f64 / exact.len() as f64
}

/// One ANN answer plus its cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnAnswer {
    /// The top-K `(entity, score)` pairs, best first.
    pub hits: Vec<(u32, f32)>,
    /// How many candidate entities the probed clusters hold (0 on a cache
    /// hit): the scan's share of the table. The resident arm stops reading
    /// a panel early once none of its candidates can make the top `k`;
    /// those candidates count here too ([`ServeEngine::scan_stats`] counts
    /// the columns read).
    pub scored: usize,
    /// Whether the answer came from the query cache.
    pub cache_hit: bool,
}

/// What the resident walks of a [`ServeEngine`] read, counted per
/// *candidate panel*: one probed cluster's share of one 16-row panel (a
/// panel two probed clusters overlap counts once for each).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Candidate panels scored in full.
    pub full_panels: u64,
    /// Candidate panels stopped early: after some multiple of
    /// [`tensor::PANEL_EXIT_COLUMNS`] columns, none of their candidates could
    /// still make the top `k`.
    pub stopped_panels: u64,
    /// Columns read over all candidate panels (`dim` for a full one).
    pub columns_read: u64,
}

impl ScanStats {
    /// Share of the candidate panels stopped early (0 when none were read).
    pub fn stopped_frac(&self) -> f64 {
        let panels = self.full_panels + self.stopped_panels;
        self.stopped_panels as f64 / panels.max(1) as f64
    }

    /// Share of the candidate panels' `dim` columns each that were read (0
    /// when none were).
    pub fn columns_frac(&self, dim: usize) -> f64 {
        let panels = self.full_panels + self.stopped_panels;
        self.columns_read as f64 / (panels * dim as u64).max(1) as f64
    }
}

impl std::ops::Add for ScanStats {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            full_panels: self.full_panels + rhs.full_panels,
            stopped_panels: self.stopped_panels + rhs.stopped_panels,
            columns_read: self.columns_read + rhs.columns_read,
        }
    }
}

impl std::ops::Sub for ScanStats {
    type Output = Self;

    /// The counts between an earlier reading `rhs` and this one.
    fn sub(self, rhs: Self) -> Self {
        Self {
            full_panels: self.full_panels - rhs.full_panels,
            stopped_panels: self.stopped_panels - rhs.stopped_panels,
            columns_read: self.columns_read - rhs.columns_read,
        }
    }
}

/// Largest coordinate magnitude under which the resident walk stops a panel
/// early: no difference of two such values overflows, so no score is NaN,
/// and a partial score is a lower bound of the full one in [`score_order`].
const PRUNE_LIMIT: f32 = f32::MAX / 2.0;

/// Whether every value is within `±PRUNE_LIMIT` (so finite).
fn within_prune_limit(v: &[f32]) -> bool {
    v.iter().fold(true, |ok, x| ok & (x.abs() <= PRUNE_LIMIT))
}

/// The resident walk's scratch, kept by the engine so that a miss allocates
/// only its answer.
#[derive(Debug, Default)]
struct WalkScratch {
    /// The query vector.
    qv: Vec<f32>,
    /// The probed clusters and their centroid distances, nearest first.
    order: Vec<(u32, f32)>,
    /// The running top `k`; its greatest element is the k-th best.
    best: BinaryHeap<Ranked>,
}

/// The serving engine: a [`ServeModel`] whose entity rows it stores in
/// its [`IvfIndex`]'s list order, that index, and an optional
/// [`QueryCache`], with reusable scratch buffers so that a resident miss
/// allocates only its answer vector.
#[derive(Debug)]
pub struct ServeEngine {
    model: ServeModel,
    index: IvfIndex,
    cache: Option<QueryCache>,
    /// Every entity coordinate is within `±PRUNE_LIMIT`: the resident walk
    /// may stop panels early (for queries within it too).
    prunable: bool,
    walk: WalkScratch,
    scan: ScanStats,
    /// The paged arm's candidate entities, probed cluster by probed
    /// cluster.
    cand_buf: Vec<u32>,
    /// The paged arm's candidate scores, one per candidate.
    score_buf: Vec<f32>,
}

impl ServeEngine {
    /// Couples a model with an index built over its entity embeddings, and
    /// moves the model's entity rows into the index's list order, in place:
    /// afterwards storage row `i` holds entity `i` of the concatenated
    /// inverted lists, and each block of [`PANEL_LANES`] storage rows is a
    /// column-major panel (see [`ServeModel::embeddings`]), so each probed
    /// cluster is a run of consecutive panels the panel kernel scores 16
    /// rows at a time. The move costs one row of scratch, one 16-row block
    /// of scratch for the transposition and one `u32` per entity, never a
    /// second table; relation rows do not move. A model taken out of another
    /// engine ([`ServeEngine::model`]) is transposed back into rows and
    /// placed again. One pass over the entity rows decides whether the
    /// resident walk may stop panels early (every coordinate within
    /// `±f32::MAX / 2`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] when the index disagrees with the model on
    /// dimension or entity count.
    pub fn new(mut model: ServeModel, index: IvfIndex) -> Result<Self> {
        if index.dim() != model.dim() {
            return Err(Error::serve(format!(
                "index dimension {} does not match model dimension {}",
                index.dim(),
                model.dim()
            )));
        }
        if index.num_entities() != model.num_entities() {
            return Err(Error::serve(format!(
                "index covers {} entities, model has {}",
                index.num_entities(),
                model.num_entities()
            )));
        }
        model.place(index.list_order());
        let prunable = within_prune_limit(&model.emb[..model.num_entities * model.dim]);
        let walk = WalkScratch {
            qv: vec![0.0; model.dim],
            ..WalkScratch::default()
        };
        Ok(Self {
            model,
            index,
            cache: None,
            prunable,
            walk,
            scan: ScanStats::default(),
            cand_buf: Vec::new(),
            score_buf: Vec::new(),
        })
    }

    /// Enables an exact-LRU answer cache holding `capacity` entries.
    #[must_use]
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(QueryCache::new(capacity));
        self
    }

    /// The loaded model.
    pub fn model(&self) -> &ServeModel {
        &self.model
    }

    /// The candidate index.
    pub fn index(&self) -> &IvfIndex {
        &self.index
    }

    /// Cache hit/miss counters, if a cache is enabled.
    pub fn cache_stats(&self) -> Option<QueryCacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// What the resident walks ([`ServeEngine::answer_exact`] and the
    /// misses of [`ServeEngine::answer_ann`]) have read since the engine was
    /// made: candidate panels scored in full and stopped early, and columns
    /// read.
    pub fn scan_stats(&self) -> ScanStats {
        self.scan
    }

    /// Ground-truth arm: the top-K over **all** `N` entities — the
    /// [`BatchScorer`] kernels' distances, bit for bit — best first. It is
    /// the ANN arm's walk over every cluster, nearest first, so its bound
    /// on the k-th best score tightens within the first list and most
    /// panels are left after a few columns.
    ///
    /// # Panics
    ///
    /// Panics if the query's entity or relation is out of range.
    pub fn answer_exact(&mut self, query: &Query, k: usize) -> Vec<(u32, f32)> {
        self.walk(query, k, self.index.num_clusters()).hits
    }

    /// ANN arm: probes the `nprobe` nearest clusters and rescores only their
    /// entities, with the exact same distance arithmetic as the full scan —
    /// so every returned score equals the full scan's score for that entity
    /// bit-for-bit, and `nprobe == num_clusters` reproduces
    /// [`ServeEngine::answer_exact`] exactly.
    ///
    /// With a cache enabled, repeated `(dir, entity, rel, k, nprobe)` keys
    /// are answered from the cache (`scored == 0`).
    ///
    /// # Panics
    ///
    /// Panics if the query's entity or relation is out of range.
    pub fn answer_ann(&mut self, query: &Query, k: usize, nprobe: usize) -> AnnAnswer {
        let key: QueryKey = (
            query.dir as u8,
            query.entity,
            query.rel,
            k as u32,
            nprobe as u32,
        );
        if let Some(cache) = &mut self.cache {
            if let Some(hit) = cache.get(&key) {
                return AnnAnswer {
                    hits: hit.to_vec(),
                    scored: 0,
                    cache_hit: true,
                };
            }
        }
        let answer = self.walk(query, k, nprobe);
        if let Some(cache) = &mut self.cache {
            cache.insert(key, answer.hits.clone());
        }
        answer
    }

    /// ANN arm reading embedding rows **only** through a [`PagedRows`]
    /// cache — the out-of-core serving path. The resident matrix inside the
    /// engine's [`ServeModel`] is never touched; only its shape metadata and
    /// norm are used.
    ///
    /// Bit-identical to [`ServeEngine::answer_ann`], by an independent
    /// route: the same query vector and the same probe, but every candidate
    /// is read by entity id from the id-ordered store through
    /// [`PagedRows::table`], scored in full one row at a time and ranked by
    /// [`top_k`], where the resident arm walks its list-ordered panels 16
    /// rows at a time, stops those that cannot win and keeps a running
    /// top-k. The query cache is bypassed (the caller owns caching policy
    /// for the paged tier).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] when `rows` disagrees with the model shape,
    /// the working set (2 query rows, then the candidate set) exceeds the
    /// cache budget, or the backing store fails.
    ///
    /// # Panics
    ///
    /// Panics if the query's entity or relation is out of range.
    pub fn answer_ann_paged(
        &mut self,
        rows: &mut PagedRows,
        query: &Query,
        k: usize,
        nprobe: usize,
    ) -> Result<AnnAnswer> {
        let m = &self.model;
        let shape = (m.num_entities() + m.num_relations(), m.dim());
        if (rows.rows(), rows.cols()) != shape {
            return Err(Error::serve(format!(
                "paged store is {}x{} but the model needs {}x{}",
                rows.rows(),
                rows.cols(),
                shape.0,
                shape.1
            )));
        }
        let [ent, rel] = self.model.rows_of(query);
        rows.ensure(&[&[ent, rel]])?;
        let table = rows.table();
        let qv = translate(query, table.row(ent as usize), table.row(rel as usize));
        let index = &self.index;
        let clusters = index.nearest_clusters(&qv, nprobe);
        let lists: Vec<&[u32]> = clusters
            .iter()
            .map(|&c| index.cluster(c as usize))
            .collect();
        rows.ensure(&lists)?;
        self.cand_buf.clear();
        for list in &lists {
            self.cand_buf.extend_from_slice(list);
        }
        let cands = &self.cand_buf;
        self.score_buf.resize(cands.len(), 0.0);
        let norm = self.model.norm();
        rescore(&mut self.score_buf, &qv, norm, rows.table(), |i| {
            cands[i] as usize
        });
        let scores = self.score_buf.iter().copied();
        Ok(AnnAnswer {
            hits: top_k(cands.iter().copied().zip(scores), k),
            scored: cands.len(),
            cache_hit: false,
        })
    }

    /// The resident scan behind [`ServeEngine::answer_exact`] and the
    /// misses of [`ServeEngine::answer_ann`]: the `nprobe` clusters nearest
    /// to the query vector, nearest first, each a run of consecutive panels
    /// of the list-ordered table. Every panel a cluster overlaps goes
    /// through [`RowScore::panel_distances_within`] with the k-th best score
    /// so far as its bound; a panel scored in full offers its cluster's
    /// lanes to the running top `k`, a stopped one held none that could
    /// enter it. Only the scratch's buffers are written, so a walk
    /// allocates its answer and nothing else.
    ///
    /// A lane is stopped only when its partial score is strictly above the
    /// k-th best, so ties at a lower id still enter. The bound stays `+∞`
    /// (every panel scored in full, the running top-k alone) unless every
    /// entity coordinate and every query coordinate is within
    /// `±f32::MAX / 2`: beyond that a later column's torus term of an
    /// overflowed difference can turn a hopeless partial into a negative
    /// NaN, which [`score_order`] ranks first.
    fn walk(&mut self, query: &Query, k: usize, nprobe: usize) -> AnnAnswer {
        let Self {
            model,
            index,
            walk,
            scan,
            ..
        } = self;
        let WalkScratch { qv, order, best } = walk;
        model.query_vector_into(query, qv);
        index.nearest_clusters_into(qv, nprobe, order);
        let prune = self.prunable && within_prune_limit(qv);
        let (score, ids, dim) = (model.norm.row_score(), index.list_order(), model.dim);
        debug_assert_eq!(model.lanes, PANEL_LANES, "a placed model is in panels");
        let mut dists = [0f32; PANEL_LANES];
        let mut scored = 0;
        best.clear();
        for &(c, _) in order.iter() {
            let run = index.range(c as usize);
            scored += run.len();
            if k == 0 || run.is_empty() {
                continue;
            }
            for b in run.start / PANEL_LANES..run.end.div_ceil(PANEL_LANES) {
                let (panel, w) = model.panel(b);
                let first = b * PANEL_LANES;
                let keep = run.start.max(first) - first..run.end.min(first + w) - first;
                let bound = match best.peek() {
                    Some(kth) if prune && best.len() == k => kth.1,
                    _ => f32::INFINITY,
                };
                let dists = &mut dists[..w];
                let read = score_panel_within(score, qv, panel, dists, keep.clone(), bound);
                scan.columns_read += read as u64;
                if read < dim {
                    scan.stopped_panels += 1;
                    continue;
                }
                scan.full_panels += 1;
                for l in keep {
                    let hit = Ranked(ids[first + l], dists[l]);
                    if best.len() < k {
                        best.push(hit);
                    } else if let Some(mut kth) = best.peek_mut() {
                        if hit < *kth {
                            *kth = hit;
                        }
                    }
                }
            }
        }
        let mut hits: Vec<(u32, f32)> = best.drain().map(|Ranked(e, s)| (e, s)).collect();
        hits.sort_unstable_by(score_order);
        AnnAnswer {
            hits,
            scored,
            cache_hit: false,
        }
    }
}

/// One panel through [`RowScore::panel_distances_within`], as a call of its
/// own: the panel kernel inlined into the scan's per-row loop, with the
/// score matched at run time, made a miss's scan ≈ 1.6× slower.
#[inline(never)]
fn score_panel_within(
    score: RowScore,
    qv: &[f32],
    panel: &[f32],
    out: &mut [f32],
    keep: std::ops::Range<usize>,
    bound: f32,
) -> usize {
    score.panel_distances_within(qv, panel, out, keep, bound)
}

/// `out[i] = norm.distance(qv, table.row(row(i)))` for every `i`, on the
/// pool: the paged arm's one-row scan.
fn rescore(
    out: &mut [f32],
    qv: &[f32],
    norm: Norm,
    table: DenseView<'_>,
    row: impl Fn(usize) -> usize + Sync,
) {
    PoolHandle::global().for_mut(out, 256, |offset, chunk| {
        for (i, dst) in (offset..).zip(chunk) {
            *dst = norm.distance(qv, table.row(row(i)));
        }
    });
}

/// A fixed-budget row cache over a file-backed stacked embedding matrix:
/// the serving analog of training's paged [`tensor::ParamStore`], for
/// answering queries from a store bigger than RAM.
///
/// Wraps the same [`tensor::Pager`] (fully-associative LRU, exact
/// hit/miss/evict counters, optional row trace for simcache
/// cross-validation) around a read-only [`tensor::RowStorage`] backend —
/// typically a read-only [`crate::FileRowStorage`] over the `sptx train`
/// embedding dump. Serving never dirties rows, so nothing is ever written back.
#[derive(Debug)]
pub struct PagedRows {
    pager: tensor::Pager,
    cache: Vec<f32>,
}

impl PagedRows {
    /// Builds a `budget`-row cache over `storage` (clamped to the row
    /// count). The cache memory (`budget × cols` floats) is allocated once,
    /// here.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] for a zero budget or an empty store.
    pub fn new(storage: Box<dyn tensor::RowStorage>, budget: usize) -> Result<Self> {
        if budget == 0 {
            return Err(Error::serve("row-cache budget must be at least 1 row"));
        }
        if storage.rows() == 0 || storage.cols() == 0 {
            return Err(Error::serve("cannot page an empty embedding store"));
        }
        let budget = budget.min(storage.rows());
        let pager = tensor::Pager::new(storage, budget);
        let cache = vec![0.0; budget * pager.cols()];
        Ok(Self { pager, cache })
    }

    /// Total rows in the backing store.
    pub fn rows(&self) -> usize {
        self.pager.rows()
    }

    /// The cache budget in rows (after clamping to the store size).
    pub fn budget(&self) -> usize {
        self.pager.budget()
    }

    /// Floats per row.
    pub fn cols(&self) -> usize {
        self.pager.cols()
    }

    /// Cache hit/miss/evict counters.
    pub fn stats(&self) -> tensor::PageStats {
        self.pager.stats()
    }

    /// Enables or disables row-trace recording (for simcache replay).
    pub fn set_tracing(&mut self, on: bool) {
        self.pager.set_tracing(on);
    }

    /// The recorded row trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&[u32]> {
        self.pager.trace()
    }

    /// Pages the union of the given row lists in (loading misses from the
    /// backing store) and pins it until the next `ensure` call — through
    /// [`tensor::Pager::ensure_union`], training's own merge.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] when the distinct rows exceed the cache
    /// budget or on backing-store I/O failures.
    pub fn ensure(&mut self, lists: &[&[u32]]) -> Result<()> {
        self.pager
            .ensure_union(lists, &mut self.cache)
            .map_err(|e| Error::serve(e.to_string()))
    }

    /// The store as the table view training's kernels read; only rows the
    /// most recent [`PagedRows::ensure`] pinned are sure to be resident.
    pub fn table(&self) -> DenseView<'_> {
        DenseView::mapped(self.pager.cols(), &self.cache, self.pager.slot_of())
    }
}

/// Latency percentiles plus throughput over a set of per-query samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median latency.
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Arithmetic mean latency.
    pub mean: Duration,
    /// Queries per second implied by the total time (`len / sum`).
    pub qps: f64,
}

impl LatencySummary {
    /// Summarizes per-query latency samples (nearest-rank percentiles).
    /// Returns `None` for an empty sample set.
    pub fn from_samples(samples: &[Duration]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let pct = |p: f64| {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        let total: Duration = sorted.iter().sum();
        let qps = if total.as_secs_f64() > 0.0 {
            sorted.len() as f64 / total.as_secs_f64()
        } else {
            f64::INFINITY
        };
        Some(Self {
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            mean: total / sorted.len() as u32,
            qps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_is_order_independent_and_tie_broken_by_id() {
        let pairs = vec![(3u32, 1.0f32), (1, 0.5), (2, 0.5), (0, 2.0)];
        let mut rev = pairs.clone();
        rev.reverse();
        let a = top_k(pairs, 3);
        let b = top_k(rev, 3);
        assert_eq!(a, b);
        assert_eq!(a, vec![(1, 0.5), (2, 0.5), (3, 1.0)]);
    }

    #[test]
    fn top_k_handles_nan_pessimistically() {
        let pairs = vec![(0u32, f32::NAN), (1, 5.0), (2, 1.0)];
        let got = top_k(pairs, 2);
        assert_eq!(got, vec![(2, 1.0), (1, 5.0)]);
    }

    #[test]
    fn top_k_clamps_k() {
        assert_eq!(top_k(vec![(0, 1.0)], 10), vec![(0, 1.0)]);
        assert!(top_k(vec![(0, 1.0)], 0).is_empty());
        assert!(top_k(Vec::new(), 5).is_empty());
    }

    #[test]
    fn recall_counts_id_overlap() {
        let exact = vec![(1u32, 0.1f32), (2, 0.2), (3, 0.3), (4, 0.4)];
        let approx = vec![(2u32, 0.2f32), (4, 0.4), (9, 9.0)];
        assert!((recall_at_k(&exact, &approx) - 0.5).abs() < 1e-12);
        assert_eq!(recall_at_k(&[], &approx), 1.0);
    }

    #[test]
    fn serve_model_validates_shape() {
        assert!(ServeModel::from_stacked(vec![0.0; 10], 3, 2, 2, Norm::L2).is_ok());
        assert!(ServeModel::from_stacked(vec![0.0; 9], 3, 2, 2, Norm::L2).is_err());
        assert!(ServeModel::from_stacked(vec![], 0, 2, 2, Norm::L2).is_err());
    }

    #[test]
    fn permute_rows_matches_a_gathered_copy() {
        let dim = 3;
        let cases: [(&str, Vec<u32>); 5] = [
            ("identity", (0..7).collect()),
            ("one 7-cycle", (1..7).chain([0]).collect()),
            ("all 2-cycles", vec![1, 0, 3, 2, 5, 4]),
            ("n = 1", vec![0]),
            ("mixed", vec![2, 0, 1, 3, 6, 5, 4]),
        ];
        for (what, src) in cases {
            let table: Vec<f32> = (0..src.len() * dim).map(|v| v as f32).collect();
            let gathered: Vec<f32> = src
                .iter()
                .flat_map(|&s| table[s as usize * dim..][..dim].to_vec())
                .collect();
            let mut permuted = table.clone();
            permute_rows(&mut permuted, dim, &src);
            assert_eq!(permuted, gathered, "{what}");
        }
    }

    #[test]
    fn transpose_blocks_round_trips_through_panels() {
        // 37 rows: two full 16-row panels and a 5-row tail.
        let (rows, dim) = (37, 3);
        let table: Vec<f32> = (0..rows * dim).map(|v| v as f32).collect();
        let mut panels = table.clone();
        transpose_blocks(&mut panels, dim, 16, Transpose::ToPanels);
        for row in 0..rows {
            let (b, l) = (row / 16, row % 16);
            let w = 16.min(rows - 16 * b);
            for j in 0..dim {
                assert_eq!(panels[b * 16 * dim + j * w + l], table[row * dim + j]);
            }
        }
        transpose_blocks(&mut panels, dim, 16, Transpose::ToRows);
        assert_eq!(panels, table);
        transpose_blocks(&mut panels, dim, 1, Transpose::ToPanels);
        assert_eq!(panels, table, "one-row panels are rows");
    }

    #[test]
    fn placement_maps_every_id_to_its_row() {
        // 21 entities: one full panel and a 5-row tail.
        let (n, r, dim) = (21, 2, 3);
        let stack: Vec<f32> = (0..(n + r) * dim).map(|v| v as f32).collect();
        let mut model = ServeModel::from_stacked(stack.clone(), n, r, dim, Norm::L2).unwrap();
        let reversed: Vec<u32> = (0..n as u32).rev().collect();
        let shuffled: Vec<u32> = (0..n as u32).map(|i| i * 8 % n as u32).collect();
        // Placing twice composes: the second order is relative to the ids.
        for order in [reversed, shuffled] {
            model.place(&order);
            let mut rows = model.embeddings()[..n * dim].to_vec();
            transpose_blocks(&mut rows, dim, PANEL_LANES, Transpose::ToRows);
            let mut got = vec![0f32; dim];
            for (row, &e) in order.iter().enumerate() {
                let want = &stack[e as usize * dim..][..dim];
                model.entity_into(e as usize, &mut got);
                assert_eq!(got, want);
                assert_eq!(&rows[row * dim..][..dim], want);
            }
            assert_eq!(model.embeddings()[n * dim..], stack[n * dim..]);
        }
    }

    #[test]
    fn latency_summary_percentiles() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let s = LatencySummary::from_samples(&samples).unwrap();
        assert_eq!(s.p50, Duration::from_micros(50));
        assert_eq!(s.p95, Duration::from_micros(95));
        assert_eq!(s.p99, Duration::from_micros(99));
        assert!(LatencySummary::from_samples(&[]).is_none());
    }
}
