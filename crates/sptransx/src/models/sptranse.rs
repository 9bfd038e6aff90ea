//! Sparse TransE (paper §4.3).
//!
//! TransE enforces `h + r ≈ t`. The sparse formulation stacks entity and
//! relation embeddings in one `(N + R) × d` matrix and computes the whole
//! batch's `h + r − t` expressions as a single SpMM with the `hrt` incidence
//! matrix (§4.2.2); the backward pass is that matrix's transpose product,
//! pushed through its rows.

use kg::TripleStore;
use sparse::incidence::TailSign;
use tensor::{Graph, ParamStore, Var};

use crate::model::normalize_leading_rows;
use crate::models::{
    hrt_side, stacked_transe_init, Cx, Eval, Family, HrtSide, Model, RankQuery, Shape, Stacked,
    WorkingSet,
};
use crate::scorer::QueryDir;
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
pub type SpTransE = Model<TransE>;

/// [`SpTransE`]'s family: one stacked table, the fused `hrt` score under the
/// configured norm, unit-norm entities.
#[derive(Debug)]
pub struct TransE(pub Stacked);

impl Family for TransE {
    const NAME: &'static str = "SpTransE";
    const WORKING_SET: WorkingSet<Self> = |f, side| f.0.working_set(side);
    type Side = HrtSide;

    fn init(store: &mut ParamStore, shape: &Shape, seed: u64, _: &TripleStore) -> Self {
        TransE(Stacked::register(store, stacked_transe_init(shape, seed)))
    }

    fn cache(&self, shape: &Shape, triples: &TripleStore) -> Result<HrtSide> {
        hrt_side(shape, triples, TailSign::Negative)
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, side: &HrtSide) -> Var {
        g.spmm_score(cx.store, self.0.emb, side.clone(), cx.norm.row_score())
    }

    fn end_epoch(&self, store: &mut ParamStore, shape: &Shape) {
        // Entities (not relations) are normalized at init and after every
        // epoch.
        normalize_leading_rows(store, self.0.emb, shape.entities);
    }

    fn query(&self, ev: &Eval<'_>, dir: QueryDir, ent: usize, rel: usize, q: &mut [f32]) {
        self.0.translated(ev, dir, ent, rel, q);
    }

    fn score(&self, ev: &Eval<'_>, q: &RankQuery<'_>, cand: usize, _: &mut [f32]) -> f32 {
        ev.norm.distance(q.vector, self.0.entity(ev, cand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KgeModel, TrainConfig};
    use kg::eval::TripleScorer;
    use kg::synthetic::SyntheticKgBuilder;
    use kg::{BatchPlan, Dataset, UniformSampler};

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
