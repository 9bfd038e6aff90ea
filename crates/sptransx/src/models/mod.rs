//! The model skeleton, and the thirteen families described on it.
//!
//! A model is three things: its **parameters**, the tape expression for
//! **one side** of a batch, and its **evaluation transforms**. A [`Family`]
//! says those (plus which structure it caches per batch, its end-of-epoch
//! constraint and whether it has a paged working set); [`Model`] is
//! everything else, written once: validation and the norm coercion, the
//! parameter store, `attach_plan`'s fan-out, the positive/negative doubling,
//! paging, and both evaluation walks. Every public model name is an alias —
//! `pub type SpTransE = Model<TransE>` — next to its family's description,
//! and [`MODELS`] lists every family for callers that pick one by name.

pub mod dense;
pub mod extensions;
pub mod spcomplex;
pub mod spdistmult;
pub mod sprotate;
pub mod sptorus;
pub mod sptranse;
pub mod sptransh;
pub mod sptransr;

use std::fmt::Debug;
use std::sync::Arc;

use kg::eval::{BatchScorer, TripleScorer};
use kg::{BatchPlan, Dataset, TripleStore};
use sparse::incidence::{self, IncidencePair, RelationGroups, TailSign};
use tensor::{init, Graph, ParamId, ParamStore, Tensor, Var};

use crate::model::{KgeModel, Norm, TrainConfig};
use crate::scorer::{batched_scores_into, scalar_scores, QueryDir};
use crate::Result;

/// The sizes every family is built from: the dataset's entity and relation
/// counts and the configuration's two dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Entities `N`.
    pub entities: usize,
    /// Relations `R`.
    pub relations: usize,
    /// Entity embedding dimension `d` ([`TrainConfig::dim`]).
    pub dim: usize,
    /// Relation-space dimension `k` ([`TrainConfig::rel_dim`]).
    pub rel_dim: usize,
}

/// Which metrics a family can be trained with; [`Model::from_config`] coerces
/// [`TrainConfig::norm`] to one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// `L1` or `L2`; a torus metric falls back to `L2`.
    Euclidean,
    /// `TorusL1` or `TorusL2` (TorusE): `L1` maps to `TorusL1`, `L2` to
    /// `TorusL2`.
    Torus,
    /// `L2` whatever was asked for (TransC, which scores its square).
    L2Only,
}

impl Geometry {
    /// The one norm coercion: torus metrics are TorusE-only, and TorusE has
    /// no other.
    fn coerce(self, requested: Norm) -> Norm {
        match (self, requested) {
            (Geometry::L2Only, _) | (Geometry::Euclidean, Norm::TorusL1 | Norm::TorusL2) => {
                Norm::L2
            }
            (Geometry::Torus, Norm::L1) => Norm::TorusL1,
            (Geometry::Torus, Norm::L2) => Norm::TorusL2,
            (_, norm) => norm,
        }
    }
}

/// What a training hook reads besides its family.
#[derive(Debug, Clone, Copy)]
pub struct Cx<'a> {
    /// The model's parameters.
    pub store: &'a ParamStore,
    /// The model's sizes.
    pub shape: Shape,
    /// The model's (coerced) metric.
    pub norm: Norm,
}

/// What an evaluation hook reads besides its family: every parameter's
/// resident table (resolved once per walk, and — unlike the store —
/// shareable across the pool's workers), the sizes and the metric.
#[derive(Debug, Clone)]
pub struct Eval<'a> {
    tables: Vec<&'a Tensor>,
    /// The model's sizes.
    pub shape: Shape,
    /// The model's (coerced) metric.
    pub norm: Norm,
}

impl<'a> Eval<'a> {
    /// Row `row` of parameter `id`.
    #[inline]
    pub fn row(&self, id: ParamId, row: usize) -> &'a [f32] {
        self.tables[id.index()].row(row)
    }
}

/// One ranking query as [`Family::score`] sees it.
#[derive(Debug, Clone, Copy)]
pub struct RankQuery<'a> {
    /// Which slot is open.
    pub dir: QueryDir,
    /// The relation.
    pub rel: usize,
    /// What [`Family::query`] wrote for the known entity and the relation.
    pub vector: &'a [f32],
}

/// A family's paged working set: the table it pages and the rows of it one
/// side of a batch touches ([`Family::WORKING_SET`]) — the side's own shared
/// list, so that the whole plan's lists can be declared to the store as the
/// table's access schedule without copying one.
pub type WorkingSet<F> = for<'a> fn(&'a F, &'a <F as Family>::Side) -> (ParamId, &'a Arc<[u32]>);

/// What distinguishes one model from another. Everything a hook does not
/// say is [`Model`]'s.
///
/// A family value holds the handles of the parameters it registered and
/// whatever else it derived from the training set (TransM's relation
/// weights); sizes, the metric and the store reach the hooks through
/// [`Cx`] / [`Eval`].
pub trait Family: Debug + Sized + Send + Sync + 'static {
    /// [`KgeModel::name`].
    const NAME: &'static str;

    /// The metrics this family trains with.
    const GEOMETRY: Geometry = Geometry::Euclidean;

    /// `Some` if the family can train with its table paged out: the table,
    /// and the rows of it one side touches — known before any kernel runs,
    /// which is the sparsity premise that makes demand paging possible.
    /// [`KgeModel::pages`] and [`KgeModel::page_in_batch`] are both derived
    /// from this one declaration. Declare it only if every tape op
    /// [`Family::side`] records that reads the *paged* table reads it through
    /// [`ParamStore::table`] — `Graph::spmm`, `Graph::spmm_score` and
    /// `Graph::semiring_score` do; `gather` and `project_rows` read
    /// [`ParamStore::value`] and do not, which is fine for the small relation
    /// tables that stay resident beside it. All nine sparse families declare
    /// one; the four gather baselines, by design, do not.
    const WORKING_SET: Option<WorkingSet<Self>> = None;

    /// The structure cached for one side of one batch. It is built once per
    /// plan and kept for the whole run, so it should hold what the side's
    /// tape ops take — `Arc`-shared incidence pairs and index lists — and
    /// nothing the side never reads.
    type Side: Debug + Send + Sync;

    /// Registers the family's parameters in `store` and initializes them.
    /// Names, registration order and seeds (`seed`, `seed + 1`, `seed + 2`)
    /// are part of the saved-model and golden-hash contract. `train` is for
    /// statistics of the training graph, not for sizes.
    fn init(store: &mut ParamStore, shape: &Shape, seed: u64, train: &TripleStore) -> Self;

    /// Builds the cached structure of one side of a batch: its positives or
    /// its negatives. Called twice per batch from `attach_plan` (positives
    /// first), batches fanned out on the global pool; it may allocate freely.
    ///
    /// # Errors
    ///
    /// Returns an error if the triples reference out-of-range indices.
    fn cache(&self, shape: &Shape, triples: &TripleStore) -> Result<Self::Side>;

    /// Records the tape expression for **one side** of a batch and returns
    /// its `(m, 1)` distance column (lower is better; a similarity is
    /// negated). Runs twice per batch in the steady state, so it must not
    /// allocate outside the tape's arena: hand cached `Arc`s to the ops with
    /// a refcount bump, and build no `Vec` or `Box`.
    fn side(&self, cx: &Cx<'_>, g: &mut Graph, side: &Self::Side) -> Var;

    /// Applies the end-of-epoch parameter constraint, walking dirty rows
    /// only ([`ParamStore::for_dirty_rows`]). Default: none.
    fn end_epoch(&self, _store: &mut ParamStore, _shape: &Shape) {}

    /// Length of a query vector, and of the scratch [`Family::score`] gets.
    fn query_len(shape: &Shape) -> usize {
        shape.dim
    }

    /// Writes the query vector of `(ent, rel)` into `q`: whatever part of
    /// the score does not depend on the candidate (`h + r`, `t − r`, a
    /// projection, a product). Called once per query by both walks.
    fn query(&self, ev: &Eval<'_>, dir: QueryDir, ent: usize, rel: usize, q: &mut [f32]);

    /// Scores candidate entity `cand` against query `q`, transforming the
    /// candidate into `scratch` if it needs to. Called once per
    /// `(query, candidate)` element by both walks — from the pool's workers
    /// in the batched one — so it must not allocate. Operand order is part
    /// of the contract (`kernel_golden` pins it): the torus metrics are
    /// symmetric only up to rounding.
    fn score(&self, ev: &Eval<'_>, q: &RankQuery<'_>, cand: usize, scratch: &mut [f32]) -> f32;
}

/// A trainable, scorable model of family `F`: the one implementation of
/// [`KgeModel`], [`TripleScorer`] and [`BatchScorer`].
#[derive(Debug)]
pub struct Model<F: Family> {
    store: ParamStore,
    shape: Shape,
    norm: Norm,
    family: F,
    batches: Vec<[F::Side; 2]>,
}

impl<F: Family> Model<F> {
    /// Initializes the model for a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for invalid hyperparameters.
    pub fn from_config(dataset: &Dataset, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let shape = Shape {
            entities: dataset.num_entities,
            relations: dataset.num_relations,
            dim: config.dim,
            rel_dim: config.rel_dim,
        };
        let mut store = ParamStore::new();
        let family = F::init(&mut store, &shape, config.seed, &dataset.train);
        Ok(Self {
            store,
            shape,
            norm: F::GEOMETRY.coerce(config.norm),
            family,
            batches: Vec::new(),
        })
    }

    /// The sizes the model was built with.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Entity embedding dimension.
    pub fn dim(&self) -> usize {
        self.shape.dim
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.shape.entities
    }

    /// The metric in use: [`TrainConfig::norm`] coerced to the family's
    /// [`Geometry`]. The semiring families score with their own product and
    /// never read it.
    pub fn metric(&self) -> Norm {
        self.norm
    }

    /// The family value: parameter handles and family-specific accessors.
    pub fn family(&self) -> &F {
        &self.family
    }

    /// Handle to the first-registered table: the stacked `(N + R) × d`
    /// `embeddings` of the `hrt` families, the `entities` of the others.
    pub fn embedding_param(&self) -> ParamId {
        self.store.param_ids()[0]
    }

    fn cx(&self) -> Cx<'_> {
        Cx {
            store: &self.store,
            shape: self.shape,
            norm: self.norm,
        }
    }

    fn eval(&self) -> Eval<'_> {
        let table = |id| self.store.value(id);
        Eval {
            tables: self.store.param_ids().into_iter().map(table).collect(),
            shape: self.shape,
            norm: self.norm,
        }
    }

    fn scalar(&self, dir: QueryDir, ent: u32, rel: u32) -> Vec<f32> {
        let (ev, f) = (self.eval(), &self.family);
        let (ent, rel) = (ent as usize, rel as usize);
        scalar_scores(
            self.shape.entities,
            F::query_len(&self.shape),
            |q| f.query(&ev, dir, ent, rel, q),
            |vector, cand, scratch| f.score(&ev, &RankQuery { dir, rel, vector }, cand, scratch),
        )
    }

    fn batched(&self, dir: QueryDir, queries: &[(u32, u32)], out: &mut [f32]) {
        let (ev, f) = (self.eval(), &self.family);
        batched_scores_into(
            (self.shape.entities, F::query_len(&self.shape)),
            queries,
            dir,
            out,
            |ent, rel, q| f.query(&ev, dir, ent, rel, q),
            |rel, vector, cand, scratch| {
                f.score(&ev, &RankQuery { dir, rel, vector }, cand, scratch)
            },
        );
    }
}

impl<F: Family> KgeModel for Model<F> {
    fn name(&self) -> &'static str {
        F::NAME
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn attach_plan(&mut self, plan: &BatchPlan) -> Result<()> {
        // Batches are independent, so cache construction (CSR assembly plus
        // the touched columns) fans out one task per batch on the global
        // pool; the first error by batch index wins, keeping this
        // deterministic.
        let (family, shape) = (&self.family, &self.shape);
        let mut slots: Vec<Option<Result<[F::Side; 2]>>> = Vec::new();
        slots.resize_with(plan.num_batches(), || None);
        xparallel::PoolHandle::global().for_each_mut(&mut slots, |i, slot| {
            let batch = plan.batch(i);
            let pos = family.cache(shape, &batch.pos);
            *slot = Some(pos.and_then(|pos| Ok([pos, family.cache(shape, &batch.neg)?])));
        });
        self.batches = slots
            .into_iter()
            .map(|s| s.expect("cache slot filled by its task"))
            .collect::<Result<_>>()?;
        if let (Some(working_set), Some(first)) = (F::WORKING_SET, self.batches.first()) {
            // The plan is fixed for the run, so the table's whole access
            // schedule is known here: declare it (pointer clones), and a
            // later page-out lays the pagefile out to match.
            let (table, _) = working_set(&self.family, &first[0]);
            let lists = |sides: &[F::Side; 2]| {
                let list = |side| working_set(&self.family, side).1.clone();
                sides.iter().map(list).collect()
            };
            let schedule = self.batches.iter().map(lists).collect();
            self.store.declare_schedule(table, schedule);
        }
        Ok(())
    }

    fn num_batches(&self) -> usize {
        self.batches.len()
    }

    fn score_batch(&self, g: &mut Graph, batch_idx: usize) -> (Var, Var) {
        let [pos, neg] = &self.batches[batch_idx];
        let cx = self.cx();
        (self.family.side(&cx, g, pos), self.family.side(&cx, g, neg))
    }

    fn page_in_batch(&mut self, batch_idx: usize) -> Result<()> {
        if let Some(working_set) = F::WORKING_SET {
            // Every row the step will touch is pinned resident up front.
            let [pos, neg] = &self.batches[batch_idx];
            let (table, pos) = working_set(&self.family, pos);
            let (_, neg) = working_set(&self.family, neg);
            self.store.page_in(table, &[pos, neg])?;
        }
        Ok(())
    }

    fn pages(&self) -> bool {
        F::WORKING_SET.is_some()
    }

    fn end_epoch(&mut self) {
        self.family.end_epoch(&mut self.store, &self.shape);
    }
}

impl<F: Family> TripleScorer for Model<F> {
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32> {
        self.scalar(QueryDir::Tails, head, rel)
    }

    fn score_heads(&self, rel: u32, tail: u32) -> Vec<f32> {
        self.scalar(QueryDir::Heads, tail, rel)
    }

    fn num_entities(&self) -> usize {
        self.shape.entities
    }
}

impl<F: Family> BatchScorer for Model<F> {
    fn num_entities(&self) -> usize {
        self.shape.entities
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        self.batched(QueryDir::Tails, queries, out);
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        self.batched(QueryDir::Heads, queries, out);
    }
}

// ---------------------------------------------------------------------------
// The registry: every family, named once
// ---------------------------------------------------------------------------

/// A model of a family picked at run time, as [`Registered::build`] returns
/// it. `Box<dyn AnyModel>` is itself a [`KgeModel`] and a [`BatchScorer`], so
/// it trains and evaluates through [`crate::Trainer`] like a concrete model.
pub trait AnyModel: KgeModel + BatchScorer + Send {}

impl<T: KgeModel + BatchScorer + Send> AnyModel for T {}

/// One family of [`MODELS`]: its name, and its constructor with the family's
/// type erased.
#[derive(Debug, Clone, Copy)]
pub struct Registered {
    /// [`KgeModel::name`] of the family's models (`"SpTransE"`,
    /// `"TransE-dense"`).
    pub name: &'static str,
    /// [`KgeModel::pages`] of the family's models, known before one is built
    /// (an arm is checked before any data is loaded).
    pub pages: bool,
    /// The family's `from_config`, boxed.
    pub build: fn(&Dataset, &TrainConfig) -> Result<Box<dyn AnyModel>>,
}

impl Registered {
    const fn of<F: Family>() -> Self {
        Self {
            name: F::NAME,
            pages: F::WORKING_SET.is_some(),
            build: boxed::<F>,
        }
    }

    /// The family's `sptx train --model` key: its name in lower case without
    /// the sparse families' `Sp` (`transe`, `complex`, `transe-dense`).
    pub fn key(&self) -> String {
        let name = self.name.strip_prefix("Sp").unwrap_or(self.name);
        name.to_ascii_lowercase()
    }

    /// The family whose [`Registered::key`] is `key`.
    pub fn find(key: &str) -> Option<&'static Registered> {
        MODELS.iter().find(|m| m.key() == key)
    }
}

fn boxed<F: Family>(dataset: &Dataset, config: &TrainConfig) -> Result<Box<dyn AnyModel>> {
    Ok(Box::new(Model::<F>::from_config(dataset, config)?))
}

/// Every family: the paper's four, the other five sparse ones, then the four
/// gather baselines. `sptx train --model`, the bench harness and the artifact
/// binaries all pick from this list.
pub const MODELS: &[Registered] = &[
    Registered::of::<sptranse::TransE>(),
    Registered::of::<sptorus::TorusE>(),
    Registered::of::<sptransh::TransH>(),
    Registered::of::<sptransr::TransR>(),
    Registered::of::<spdistmult::DistMult>(),
    Registered::of::<spcomplex::ComplEx>(),
    Registered::of::<sprotate::RotatE>(),
    Registered::of::<extensions::TransC>(),
    Registered::of::<extensions::TransM>(),
    Registered::of::<dense::GatherTransE>(),
    Registered::of::<dense::GatherTorusE>(),
    Registered::of::<dense::GatherTransH>(),
    Registered::of::<dense::GatherTransR>(),
];

impl KgeModel for Box<dyn AnyModel> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn store(&self) -> &ParamStore {
        (**self).store()
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        (**self).store_mut()
    }

    fn attach_plan(&mut self, plan: &BatchPlan) -> Result<()> {
        (**self).attach_plan(plan)
    }

    fn num_batches(&self) -> usize {
        (**self).num_batches()
    }

    fn score_batch(&self, g: &mut Graph, batch_idx: usize) -> (Var, Var) {
        (**self).score_batch(g, batch_idx)
    }

    fn page_in_batch(&mut self, batch_idx: usize) -> Result<()> {
        (**self).page_in_batch(batch_idx)
    }

    fn pages(&self) -> bool {
        (**self).pages()
    }

    fn end_epoch(&mut self) {
        (**self).end_epoch();
    }
}

impl BatchScorer for Box<dyn AnyModel> {
    fn num_entities(&self) -> usize {
        BatchScorer::num_entities(&**self)
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        (**self).score_tails_into(queries, out);
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        (**self).score_heads_into(queries, out);
    }
}

// ---------------------------------------------------------------------------
// Shared pieces of the family descriptions
// ---------------------------------------------------------------------------

/// The stacked `(N + R) × width` table of the `hrt` families: entity rows
/// first, relation rows below, registered as `embeddings`.
#[derive(Debug, Clone, Copy)]
pub struct Stacked {
    /// The `embeddings` parameter.
    pub emb: ParamId,
}

impl Stacked {
    pub(crate) fn register(store: &mut ParamStore, init: Tensor) -> Self {
        Self {
            emb: store.add_param("embeddings", init),
        }
    }

    /// Entity `e`'s row.
    pub(crate) fn entity<'a>(&self, ev: &Eval<'a>, e: usize) -> &'a [f32] {
        ev.row(self.emb, e)
    }

    /// Relation `r`'s row.
    pub(crate) fn relation<'a>(&self, ev: &Eval<'a>, r: usize) -> &'a [f32] {
        ev.row(self.emb, ev.shape.entities + r)
    }

    /// The translational query `q = h + r` (tails) or `t − r` (heads).
    pub(crate) fn translated(
        &self,
        ev: &Eval<'_>,
        dir: QueryDir,
        ent: usize,
        rel: usize,
        q: &mut [f32],
    ) {
        dir.translated(self.entity(ev, ent), self.relation(ev, rel), q);
    }

    /// The `hrt` families' [`Family::WORKING_SET`]: the columns a side's
    /// incidence matrix touches.
    pub(crate) fn working_set<'a>(&self, side: &'a HrtSide) -> (ParamId, &'a Arc<[u32]>) {
        (self.emb, side.touched_columns())
    }
}

/// The stacked `(N + R) × d` TransE-family initialization: Xavier uniform
/// with entity rows (the first `n`) L2-normalized, relation rows left as-is.
pub(crate) fn stacked_transe_init(s: &Shape, seed: u64) -> Tensor {
    let (n, d) = (s.entities, s.dim);
    let mut emb = init::xavier_translational(n + s.relations, d, seed);
    let data = emb.as_mut_slice();
    for row in data[..n * d].chunks_exact_mut(d) {
        let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
    }
    emb
}

/// Torus coordinates for a stacked `(N + R) × d` table: uniform in `[0, 1)`.
pub(crate) fn stacked_torus_init(s: &Shape, seed: u64) -> Tensor {
    let mut emb = init::uniform(s.entities + s.relations, s.dim, 0.5, seed);
    for x in emb.as_mut_slice() {
        *x += 0.5;
    }
    emb
}

/// One side of an `hrt` family (TransE, TorusE, TransC, TransM and the
/// semiring models): its incidence pair, shared with the tape.
pub type HrtSide = Arc<IncidencePair>;

pub(crate) fn hrt_side(s: &Shape, t: &TripleStore, tail_sign: TailSign) -> Result<HrtSide> {
    let a = incidence::hrt(
        s.entities,
        s.relations,
        t.heads(),
        t.rels(),
        t.tails(),
        tail_sign,
    )?;
    Ok(Arc::new(IncidencePair::new(a)))
}

/// One side of an `ht` family (TransH, TransR): the incidence pair plus the
/// per-triple relation indices its gathers need, both shared with the tape.
#[derive(Debug, Clone)]
pub struct HtSide {
    pub(crate) pair: Arc<IncidencePair>,
    pub(crate) rels: Arc<Vec<u32>>,
}

pub(crate) fn ht_side(s: &Shape, t: &TripleStore) -> Result<HtSide> {
    let a = incidence::ht(s.entities, t.heads(), t.tails())?;
    Ok(HtSide {
        pair: Arc::new(IncidencePair::new(a)),
        rels: Arc::new(t.rels().to_vec()),
    })
}

/// One side of a dense (gather/scatter) baseline: its three index lists,
/// shared with the tape.
#[derive(Debug, Clone)]
pub struct DenseSide {
    pub(crate) heads: Arc<Vec<u32>>,
    pub(crate) rels: Arc<Vec<u32>>,
    pub(crate) tails: Arc<Vec<u32>>,
}

pub(crate) fn dense_side(t: &TripleStore) -> DenseSide {
    DenseSide {
        heads: Arc::new(t.heads().to_vec()),
        rels: Arc::new(t.rels().to_vec()),
        tails: Arc::new(t.tails().to_vec()),
    }
}

/// One side grouped by relation, which is what `Graph::project_rows` walks.
pub(crate) fn by_relation(s: &Shape, t: &TripleStore) -> Result<Arc<RelationGroups>> {
    Ok(Arc::new(RelationGroups::new(s.relations, t.rels())?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        DenseTorusE, DenseTransE, DenseTransH, DenseTransR, SpComplEx, SpDistMult, SpRotatE,
        SpTorusE, SpTransC, SpTransE, SpTransH, SpTransM, SpTransR,
    };
    use kg::synthetic::SyntheticKgBuilder;
    use kg::UniformSampler;

    fn dataset() -> Dataset {
        SyntheticKgBuilder::new(50, 4).triples(400).seed(2).build()
    }

    fn metrics<M: Constructible>(what: &str, want: [Norm; 4]) {
        let ds = dataset();
        let requested = [Norm::L1, Norm::L2, Norm::TorusL1, Norm::TorusL2];
        for (norm, want) in requested.into_iter().zip(want) {
            let config = TrainConfig {
                norm,
                ..Default::default()
            };
            assert_eq!(
                M::build(&ds, &config).metric(),
                want,
                "{what} asked for {norm:?}"
            );
        }
    }

    /// A model type seen through what the table tests need of it.
    trait Constructible: KgeModel + BatchScorer + Send + Sized {
        fn build(ds: &Dataset, config: &TrainConfig) -> Self;
        fn metric(&self) -> Norm;
    }

    impl<F: Family> Constructible for Model<F> {
        fn build(ds: &Dataset, config: &TrainConfig) -> Self {
            Self::from_config(ds, config).unwrap()
        }
        fn metric(&self) -> Norm {
            Model::metric(self)
        }
    }

    /// The norm coercion: torus metrics are TorusE-only (a Euclidean family
    /// falls back to L2), TorusE has no other, and TransC is squared L2
    /// whatever it is asked for. The semiring rows are the Euclidean
    /// coercion of a metric they never read.
    #[test]
    fn every_model_ends_up_with_the_metric_its_geometry_allows() {
        use Norm::{TorusL1, TorusL2, L1, L2};
        let (euclidean, torus) = ([L1, L2, L2, L2], [TorusL1, TorusL2, TorusL1, TorusL2]);
        type Row = (&'static str, fn(&str, [Norm; 4]), [Norm; 4]);
        let rows: [Row; 13] = [
            ("SpTransE", metrics::<SpTransE>, euclidean),
            ("SpTorusE", metrics::<SpTorusE>, torus),
            ("SpTransH", metrics::<SpTransH>, euclidean),
            ("SpTransR", metrics::<SpTransR>, euclidean),
            ("SpTransC", metrics::<SpTransC>, [L2; 4]),
            ("SpTransM", metrics::<SpTransM>, euclidean),
            ("SpDistMult", metrics::<SpDistMult>, euclidean),
            ("SpComplEx", metrics::<SpComplEx>, euclidean),
            ("SpRotatE", metrics::<SpRotatE>, euclidean),
            ("DenseTransE", metrics::<DenseTransE>, euclidean),
            ("DenseTorusE", metrics::<DenseTorusE>, torus),
            ("DenseTransH", metrics::<DenseTransH>, euclidean),
            ("DenseTransR", metrics::<DenseTransR>, euclidean),
        ];
        for (what, check, want) in rows {
            check(what, want);
        }
    }

    /// A self-loop positive (`h == t`) is a two-entry `hrt` row, which the
    /// semiring score used to refuse with a panic.
    #[test]
    fn semiring_models_train_over_a_self_loop_positive() {
        fn epoch<M: Constructible>(what: &str) {
            let mut ds = dataset();
            ds.train.push(kg::Triple::new(3, 2, 3));
            let config = TrainConfig {
                epochs: 1,
                dim: 8,
                batch_size: 64,
                ..Default::default()
            };
            let mut trainer = crate::Trainer::new(M::build(&ds, &config), &ds, &config).unwrap();
            let report = trainer.run().unwrap();
            assert!(report.epoch_losses[0].is_finite(), "{what}: {report:?}");
            let tables = bits(trainer.model().store());
            let finite = |x: &u32| f32::from_bits(*x).is_finite();
            assert!(tables.iter().flatten().all(finite), "{what}");
        }
        epoch::<SpDistMult>("SpDistMult");
        epoch::<SpComplEx>("SpComplEx");
        epoch::<SpRotatE>("SpRotatE");
    }

    fn bits(store: &ParamStore) -> Vec<Vec<u32>> {
        let table = |id| {
            store
                .value(id)
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        store.param_ids().into_iter().map(table).collect()
    }

    /// What [`Model`] itself promises, whatever the family: `params` are the
    /// documented `(name, rows, cols)` in registration order at `N = 50`,
    /// `R = 4`, `d = 8`, `k = 4`.
    fn contract<M: Constructible>(what: &str, params: &[(&str, usize, usize)]) {
        let ds = dataset();
        let config = TrainConfig {
            dim: 8,
            rel_dim: 4,
            batch_size: 64,
            ..Default::default()
        };
        let mut model = M::build(&ds, &config);

        // The benchmark holds models as these two trait objects, and the
        // replicated trainer sends them to its workers.
        let _: &dyn KgeModel = &model;
        let _: &dyn BatchScorer = &model;
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&model);

        let store = model.store();
        let got: Vec<_> = store
            .param_ids()
            .into_iter()
            .map(|id| {
                (
                    store.name(id),
                    store.value(id).rows(),
                    store.value(id).cols(),
                )
            })
            .collect();
        assert_eq!(got, params, "{what}: parameters");
        let twin = M::build(&ds, &config);
        assert_eq!(
            bits(model.store()),
            bits(twin.store()),
            "{what}: one seed, two inits"
        );
        // The registry builds this family under this name.
        let entry = MODELS.iter().find(|m| m.name == model.name()).unwrap();
        let boxed = (entry.build)(&ds, &config).unwrap();
        assert_eq!(bits(boxed.store()), bits(model.store()), "{what}: registry");
        assert_eq!((entry.pages, boxed.pages()), (model.pages(), model.pages()));

        // A second plan replaces the first.
        assert_eq!(model.num_batches(), 0, "{what}");
        let sampler = UniformSampler::new(ds.num_entities);
        for batch_size in [64, 48] {
            let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, batch_size, 7);
            model.attach_plan(&plan).unwrap();
            assert_eq!(model.num_batches(), plan.num_batches(), "{what}");

            let mut g = Graph::new();
            let (pos, neg) = model.score_batch(&mut g, 0);
            let m = plan.batch(0).len();
            assert_eq!(g.value(pos).shape(), (m, 1), "{what}");
            assert_eq!(g.value(neg).shape(), (m, 1), "{what}");
            let (again, _) = model.score_batch(&mut g, 0);
            let column = |v| {
                g.value(v)
                    .as_slice()
                    .iter()
                    .map(|x: &f32| x.to_bits())
                    .collect()
            };
            let (first, second): (Vec<u32>, Vec<u32>) = (column(pos), column(again));
            assert_eq!(first, second, "{what}: one batch, two forwards");
        }

        // Every sparse family pages and no gather baseline does, and with
        // nothing paged out paging a batch in changes nothing.
        assert_eq!(model.pages(), what.starts_with("Sp"), "{what}");
        let before = bits(model.store());
        model.page_in_batch(0).unwrap();
        assert_eq!(bits(model.store()), before, "{what}");
    }

    #[test]
    fn skeleton_contract_holds_for_every_model() {
        type Params = &'static [(&'static str, usize, usize)];
        const STACKED: Params = &[("embeddings", 54, 8)];
        const COMPLEX: Params = &[("embeddings", 54, 16)];
        const SPLIT: Params = &[("entities", 50, 8), ("relations", 4, 8)];
        const HYPERPLANES: Params = &[
            ("entities", 50, 8),
            ("normals", 4, 8),
            ("translations", 4, 8),
        ];
        const PROJECTIONS: Params = &[
            ("entities", 50, 8),
            ("relations", 4, 4),
            ("projections", 4, 32),
        ];
        type Row = (&'static str, fn(&str, Params), Params);
        let rows: [Row; 13] = [
            ("SpTransE", contract::<SpTransE>, STACKED),
            ("SpTorusE", contract::<SpTorusE>, STACKED),
            ("SpTransH", contract::<SpTransH>, HYPERPLANES),
            ("SpTransR", contract::<SpTransR>, PROJECTIONS),
            ("SpTransC", contract::<SpTransC>, STACKED),
            ("SpTransM", contract::<SpTransM>, STACKED),
            ("SpDistMult", contract::<SpDistMult>, STACKED),
            ("SpComplEx", contract::<SpComplEx>, COMPLEX),
            ("SpRotatE", contract::<SpRotatE>, COMPLEX),
            ("DenseTransE", contract::<DenseTransE>, SPLIT),
            ("DenseTorusE", contract::<DenseTorusE>, SPLIT),
            ("DenseTransH", contract::<DenseTransH>, HYPERPLANES),
            ("DenseTransR", contract::<DenseTransR>, PROJECTIONS),
        ];
        for (what, check, params) in rows {
            check(what, params);
        }
    }

    #[test]
    fn the_registry_names_every_family_once() {
        let keys: Vec<String> = MODELS.iter().map(Registered::key).collect();
        assert_eq!(keys.len(), 13);
        let distinct: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), 13, "{keys:?}");
        for key in &keys {
            assert_eq!(&Registered::find(key).unwrap().key(), key);
        }
        assert_eq!(
            keys[..5],
            ["transe", "toruse", "transh", "transr", "distmult"]
        );
        assert_eq!(keys[12], "transr-dense");
        assert!(Registered::find("SpTransE").is_none());
    }

    /// A boxed model is its family behind one more pointer: two epochs
    /// through the trainer give the concrete model's losses and parameters,
    /// bit for bit (TransH and RotatE both have an end-of-epoch hook).
    #[test]
    fn a_boxed_model_trains_as_its_family_does() {
        fn check<M: Constructible>(key: &str) {
            let ds = dataset();
            let config = TrainConfig {
                epochs: 2,
                dim: 8,
                batch_size: 64,
                lr: 0.05,
                ..Default::default()
            };
            let mut concrete = crate::Trainer::new(M::build(&ds, &config), &ds, &config).unwrap();
            let boxed = (Registered::find(key).unwrap().build)(&ds, &config).unwrap();
            let mut boxed = crate::Trainer::new(boxed, &ds, &config).unwrap();
            let losses = |r: crate::TrainReport| {
                r.epoch_losses
                    .iter()
                    .map(|l| l.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                losses(concrete.run().unwrap()),
                losses(boxed.run().unwrap()),
                "{key}"
            );
            let (a, b) = (concrete.model().store(), boxed.model().store());
            assert_eq!(bits(a), bits(b), "{key}");
        }
        check::<SpTransH>("transh");
        check::<SpRotatE>("rotate");
    }
}
