//! Sparse TransE (paper §4.3).
//!
//! TransE enforces `h + r ≈ t`. The sparse formulation stacks entity and
//! relation embeddings in one `(N + R) × d` matrix and computes the whole
//! batch's `h + r − t` expressions as a single SpMM with the `hrt` incidence
//! matrix (§4.2.2); the backward pass is one SpMM with the cached transpose.

use kg::eval::{BatchScorer, TripleScorer};
use kg::{BatchPlan, Dataset};
use sparse::incidence::TailSign;
use tensor::{Graph, ParamId, ParamStore, Var};

use crate::model::{normalize_leading_rows, KgeModel, Norm, TrainConfig};
use crate::models::{build_hrt_caches, HrtCache};
use crate::scorer::{distances_to_rows, translational_scores_into, QueryDir};
use crate::Result;

/// The SpTransX TransE model.
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpTransE, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(60, 4).triples(300).seed(1).build();
/// let config = TrainConfig { dim: 8, ..Default::default() };
/// let model = SpTransE::from_config(&ds, &config)?;
/// assert_eq!(model.dim(), 8);
/// # Ok::<(), sptransx::Error>(())
/// ```
#[derive(Debug)]
pub struct SpTransE {
    store: ParamStore,
    emb: ParamId,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
    norm: Norm,
    batches: Vec<HrtCache>,
}

impl SpTransE {
    /// Initializes the model for a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for invalid hyperparameters.
    pub fn from_config(dataset: &Dataset, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let (n, r, d) = (dataset.num_entities, dataset.num_relations, config.dim);
        // TransE normalizes entity embeddings (not relations) at init and
        // after every epoch.
        let emb_t = crate::models::stacked_transe_init(n, r, d, config.seed);
        let mut store = ParamStore::new();
        let emb = store.add_param("embeddings", emb_t);
        Ok(Self {
            store,
            emb,
            num_entities: n,
            num_relations: r,
            dim: d,
            norm: config.norm,
            batches: Vec::new(),
        })
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Handle to the stacked `(N + R) × d` embedding parameter.
    pub fn embedding_param(&self) -> ParamId {
        self.emb
    }
}

impl KgeModel for SpTransE {
    fn name(&self) -> &'static str {
        "SpTransE"
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn attach_plan(&mut self, plan: &BatchPlan) -> Result<()> {
        self.batches = build_hrt_caches(
            plan,
            self.num_entities,
            self.num_relations,
            TailSign::Negative,
        )?;
        Ok(())
    }

    fn num_batches(&self) -> usize {
        self.batches.len()
    }

    fn score_batch(&self, g: &mut Graph, batch_idx: usize) -> (Var, Var) {
        let cache = &self.batches[batch_idx];
        let score = self.norm.row_score();
        let pos = g.spmm_score(&self.store, self.emb, cache.pos.clone(), score);
        let neg = g.spmm_score(&self.store, self.emb, cache.neg.clone(), score);
        (pos, neg)
    }

    fn end_epoch(&mut self) {
        normalize_leading_rows(&mut self.store, self.emb, self.num_entities);
    }

    fn page_in_batch(&mut self, batch_idx: usize) -> Result<()> {
        // The batch's working set is exactly the union of the columns its
        // two cached incidence matrices touch — known before any kernel
        // runs, so every row is pinned resident for the whole step.
        let cache = &self.batches[batch_idx];
        let lists = [cache.pos.touched_columns(), cache.neg.touched_columns()];
        self.store.page_in(self.emb, &lists)?;
        Ok(())
    }

    fn pages() -> bool {
        true
    }
}

impl TripleScorer for SpTransE {
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32> {
        let emb = self.store.value(self.emb);
        let d = self.dim;
        let h = emb.row(head as usize);
        let r = emb.row(self.num_entities + rel as usize);
        let query: Vec<f32> = h.iter().zip(r).map(|(a, b)| a + b).collect();
        distances_to_rows(emb.as_slice(), self.num_entities, d, &query, self.norm)
    }

    fn score_heads(&self, rel: u32, tail: u32) -> Vec<f32> {
        let emb = self.store.value(self.emb);
        let d = self.dim;
        let t = emb.row(tail as usize);
        let r = emb.row(self.num_entities + rel as usize);
        // ‖h + r − t‖ = ‖h − (t − r)‖.
        let query: Vec<f32> = t.iter().zip(r).map(|(a, b)| a - b).collect();
        distances_to_rows(emb.as_slice(), self.num_entities, d, &query, self.norm)
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }
}

impl BatchScorer for SpTransE {
    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        let emb = self.store.value(self.emb);
        translational_scores_into(
            emb.as_slice(),
            self.num_entities,
            self.num_relations,
            self.dim,
            self.norm,
            queries,
            QueryDir::Tails,
            out,
        );
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        let emb = self.store.value(self.emb);
        translational_scores_into(
            emb.as_slice(),
            self.num_entities,
            self.num_relations,
            self.dim,
            self.norm,
            queries,
            QueryDir::Heads,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::synthetic::SyntheticKgBuilder;
    use kg::UniformSampler;

    fn setup() -> (Dataset, SpTransE, BatchPlan) {
        let ds = SyntheticKgBuilder::new(50, 4).triples(400).seed(2).build();
        let config = TrainConfig {
            dim: 8,
            batch_size: 64,
            ..Default::default()
        };
        let model = SpTransE::from_config(&ds, &config).unwrap();
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 64, 7);
        (ds, model, plan)
    }

    #[test]
    fn entities_start_normalized() {
        let (_, model, _) = setup();
        let emb = model.store().value(model.embedding_param());
        for i in 0..model.num_entities() {
            let norm: f32 = emb.row(i).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-5, "entity {i} norm {norm}");
        }
    }

    #[test]
    fn score_batch_shapes() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        assert_eq!(model.num_batches(), plan.num_batches());
        let mut g = Graph::new();
        let (pos, neg) = model.score_batch(&mut g, 0);
        assert_eq!(g.value(pos).shape(), (plan.batch(0).len(), 1));
        assert_eq!(g.value(neg).shape(), (plan.batch(0).len(), 1));
        // Distances are non-negative.
        assert!(g.value(pos).as_slice().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn scores_match_manual_computation() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, _) = model.score_batch(&mut g, 0);
        let batch = plan.batch(0);
        let emb = model.store().value(model.embedding_param());
        for i in 0..batch.len().min(10) {
            let t = batch.pos.get(i);
            let mut dist = 0.0f32;
            for j in 0..model.dim() {
                let v = emb.get(t.head as usize, j)
                    + emb.get(model.num_entities() + t.rel as usize, j)
                    - emb.get(t.tail as usize, j);
                dist += v * v;
            }
            assert!((g.value(pos).get(i, 0) - dist.sqrt()).abs() < 1e-4);
        }
    }

    #[test]
    fn scorer_ranks_translated_entity_best() {
        // Hand-craft embeddings: t = h + r exactly for entity 3.
        let ds = SyntheticKgBuilder::new(10, 2).triples(50).seed(3).build();
        let config = TrainConfig {
            dim: 4,
            ..Default::default()
        };
        let mut model = SpTransE::from_config(&ds, &config).unwrap();
        let emb_id = model.embedding_param();
        {
            let emb = model.store_mut().value_mut(emb_id);
            emb.zero_();
            for j in 0..4 {
                emb.set(0, j, 0.1 * j as f32); // h = entity 0
                emb.set(10, j, 0.05); // r = relation 0
                emb.set(3, j, 0.1 * j as f32 + 0.05); // t = entity 3 = h + r
            }
        }
        let scores = model.score_tails(0, 0);
        let best = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 3);
        assert!(scores[3] < 1e-5);
    }

    #[test]
    fn end_epoch_renormalizes_entities_only() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let emb_id = model.embedding_param();
        model.store_mut().value_mut(emb_id).as_mut_slice()[0] = 100.0;
        let rel_row_before: Vec<f32> = model
            .store()
            .value(emb_id)
            .row(model.num_entities())
            .to_vec();
        model.end_epoch();
        let emb = model.store().value(emb_id);
        let norm: f32 = emb.row(0).iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        assert_eq!(emb.row(model.num_entities()), rel_row_before.as_slice());
    }
}
