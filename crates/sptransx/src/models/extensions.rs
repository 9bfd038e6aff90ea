//! Further translational models from the paper's extension list (§1,
//! Table 2): TransC and TransM. Both reuse the `hrt` expression, so each is
//! a different *reduction* over the same single SpMM.

use kg::TripleStore;
use sparse::incidence::TailSign;
use tensor::{Graph, ParamStore, RowScore, Var};

use crate::model::normalize_leading_rows;
use crate::models::{
    hrt_side, stacked_transe_init, Cx, Eval, Family, Geometry, HrtSide, Model, RankQuery, Shape,
    Stacked, WorkingSet,
};
use crate::scorer::QueryDir;
use crate::Result;

/// Sparse TransC: score `‖h + r − t‖²₂` (Table 2). Always squared
/// Euclidean: [`crate::TrainConfig::norm`] is not read.
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpTransC, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let model = SpTransC::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(sptransx::KgeModel::name(&model), "SpTransC");
/// # Ok::<(), sptransx::Error>(())
/// ```
pub type SpTransC = Model<TransC>;

/// [`SpTransC`]'s family: TransE's table and constraint under the squared
/// row score.
#[derive(Debug)]
pub struct TransC(pub Stacked);

impl Family for TransC {
    const NAME: &'static str = "SpTransC";
    const GEOMETRY: Geometry = Geometry::L2Only;
    const WORKING_SET: WorkingSet<Self> = |f, side| f.0.working_set(side);
    type Side = HrtSide;

    fn init(store: &mut ParamStore, shape: &Shape, seed: u64, _: &TripleStore) -> Self {
        TransC(Stacked::register(store, stacked_transe_init(shape, seed)))
    }

    fn cache(&self, shape: &Shape, triples: &TripleStore) -> Result<HrtSide> {
        hrt_side(shape, triples, TailSign::Negative)
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, side: &HrtSide) -> Var {
        g.spmm_score(cx.store, self.0.emb, side.clone(), RowScore::SquaredL2)
    }

    fn end_epoch(&self, store: &mut ParamStore, shape: &Shape) {
        normalize_leading_rows(store, self.0.emb, shape.entities);
    }

    fn query(&self, ev: &Eval<'_>, dir: QueryDir, ent: usize, rel: usize, q: &mut [f32]) {
        self.0.translated(ev, dir, ent, rel, q);
    }

    fn score(&self, ev: &Eval<'_>, q: &RankQuery<'_>, cand: usize, _: &mut [f32]) -> f32 {
        // The square of the L2 distance, which preserves its ranking.
        let d = ev.norm.distance(q.vector, self.0.entity(ev, cand));
        d * d
    }
}

/// Sparse TransM: score `wᵣ · ‖h + r − t‖` with fixed per-relation weights
/// (Fan et al., 2014). Weights are the standard
/// `wᵣ = 1 / log(hptᵣ + tphᵣ)` computed from the training graph — not
/// learned — so they enter the tape as a constant column.
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpTransM, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let model = SpTransM::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// let w = model.family().relation_weight(0);
/// assert!(w > 0.0 && w <= 1.0);
/// # Ok::<(), sptransx::Error>(())
/// ```
pub type SpTransM = Model<TransM>;

/// [`SpTransM`]'s family: TransE's table and constraint, each side's fused
/// score multiplied by its cached weight column.
#[derive(Debug)]
pub struct TransM {
    table: Stacked,
    rel_weights: Vec<f32>,
}

impl TransM {
    /// The fixed per-relation weight `wᵣ`.
    pub fn relation_weight(&self, rel: u32) -> f32 {
        self.rel_weights.get(rel as usize).copied().unwrap_or(1.0)
    }
}

/// `wᵣ = 1 / log(e + hptᵣ + tphᵣ)`: frequent 1-N/N-N relations get smaller
/// weights, softening their (noisier) margins.
fn relation_weights(train: &TripleStore, num_relations: usize) -> Vec<f32> {
    use std::collections::HashMap;
    let mut tails_of: HashMap<(u32, u32), u32> = HashMap::new();
    let mut heads_of: HashMap<(u32, u32), u32> = HashMap::new();
    for t in train.iter() {
        *tails_of.entry((t.rel, t.head)).or_insert(0) += 1;
        *heads_of.entry((t.rel, t.tail)).or_insert(0) += 1;
    }
    let mut tph = vec![(0u64, 0u64); num_relations];
    for ((rel, _), c) in &tails_of {
        tph[*rel as usize].0 += u64::from(*c);
        tph[*rel as usize].1 += 1;
    }
    let mut hpt = vec![(0u64, 0u64); num_relations];
    for ((rel, _), c) in &heads_of {
        hpt[*rel as usize].0 += u64::from(*c);
        hpt[*rel as usize].1 += 1;
    }
    (0..num_relations)
        .map(|r| {
            let t = tph[r].0 as f64 / tph[r].1.max(1) as f64;
            let h = hpt[r].0 as f64 / hpt[r].1.max(1) as f64;
            (1.0 / (std::f64::consts::E + t + h).ln()) as f32
        })
        .collect()
}

impl Family for TransM {
    const NAME: &'static str = "SpTransM";
    const WORKING_SET: WorkingSet<Self> = |f, (pair, _)| f.table.working_set(pair);
    /// The side's incidence pair and its per-triple weights.
    type Side = (HrtSide, Vec<f32>);

    fn init(store: &mut ParamStore, shape: &Shape, seed: u64, train: &TripleStore) -> Self {
        TransM {
            table: Stacked::register(store, stacked_transe_init(shape, seed)),
            rel_weights: relation_weights(train, shape.relations),
        }
    }

    fn cache(&self, shape: &Shape, triples: &TripleStore) -> Result<Self::Side> {
        let weights = triples.rels().iter().map(|&r| self.rel_weights[r as usize]);
        let pair = hrt_side(shape, triples, TailSign::Negative)?;
        Ok((pair, weights.collect()))
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, (pair, w): &Self::Side) -> Var {
        let dist = g.spmm_score(cx.store, self.table.emb, pair.clone(), cx.norm.row_score());
        // Arena-backed input: the weight column recurs every epoch, so no
        // per-batch `Tensor::from_vec` allocation.
        let weights = g.input_from_slice(w.len(), 1, w);
        g.mul(dist, weights)
    }

    fn end_epoch(&self, store: &mut ParamStore, shape: &Shape) {
        normalize_leading_rows(store, self.table.emb, shape.entities);
    }

    fn query(&self, ev: &Eval<'_>, dir: QueryDir, ent: usize, rel: usize, q: &mut [f32]) {
        self.table.translated(ev, dir, ent, rel, q);
    }

    fn score(&self, ev: &Eval<'_>, q: &RankQuery<'_>, cand: usize, _: &mut [f32]) -> f32 {
        self.rel_weights[q.rel] * ev.norm.distance(q.vector, self.table.entity(ev, cand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KgeModel, SpTransE, TrainConfig};
    use kg::synthetic::SyntheticKgBuilder;
    use kg::{BatchPlan, Dataset, UniformSampler};

    fn setup() -> (Dataset, BatchPlan, TrainConfig) {
        let ds = SyntheticKgBuilder::new(40, 4).triples(300).seed(70).build();
        let config = TrainConfig {
            dim: 8,
            batch_size: 64,
            ..Default::default()
        };
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 64, 71);
        (ds, plan, config)
    }

    #[test]
    fn transc_is_squared_transe() {
        let (ds, plan, cfg) = setup();
        let mut c = SpTransC::from_config(&ds, &cfg).unwrap();
        let mut e = SpTransE::from_config(&ds, &cfg).unwrap();
        c.attach_plan(&plan).unwrap();
        e.attach_plan(&plan).unwrap();
        let mut g1 = Graph::new();
        let (pc, _) = c.score_batch(&mut g1, 0);
        let mut g2 = Graph::new();
        let (pe, _) = e.score_batch(&mut g2, 0);
        for i in 0..plan.batch(0).len().min(10) {
            let sq = g1.value(pc).get(i, 0);
            let l2 = g2.value(pe).get(i, 0);
            assert!((sq - l2 * l2).abs() < 1e-3, "{sq} vs {}", l2 * l2);
        }
    }

    #[test]
    fn transm_weights_scale_scores() {
        let (ds, plan, cfg) = setup();
        let mut m = SpTransM::from_config(&ds, &cfg).unwrap();
        let mut e = SpTransE::from_config(&ds, &cfg).unwrap();
        m.attach_plan(&plan).unwrap();
        e.attach_plan(&plan).unwrap();
        let mut g1 = Graph::new();
        let (pm, _) = m.score_batch(&mut g1, 0);
        let mut g2 = Graph::new();
        let (pe, _) = e.score_batch(&mut g2, 0);
        let batch = plan.batch(0);
        for i in 0..batch.len().min(10) {
            let w = m.family().relation_weight(batch.pos.get(i).rel);
            assert!(w > 0.0 && w <= 1.0, "weight {w}");
            let want = w * g2.value(pe).get(i, 0);
            assert!((g1.value(pm).get(i, 0) - want).abs() < 1e-4);
        }
    }

    #[test]
    fn weights_penalize_one_to_many_relations() {
        // Relation 0: 1-N fan-out 30; relation 1: clean 1-1 chain.
        let mut train = TripleStore::new();
        for t in 1..=30u32 {
            train.push(kg::Triple::new(0, 0, t));
        }
        for i in 0..30u32 {
            train.push(kg::Triple::new(i, 1, i + 31));
        }
        let w = relation_weights(&train, 2);
        assert!(
            w[0] < w[1],
            "1-N relation should get a smaller weight: {w:?}"
        );
    }

    #[test]
    fn both_models_train_under_trainer() {
        let (ds, _, cfg) = setup();
        let cfg = TrainConfig {
            epochs: 3,
            lr: 0.1,
            ..cfg
        };
        for result in [
            crate::Trainer::new(SpTransC::from_config(&ds, &cfg).unwrap(), &ds, &cfg)
                .unwrap()
                .run(),
            crate::Trainer::new(SpTransM::from_config(&ds, &cfg).unwrap(), &ds, &cfg)
                .unwrap()
                .run(),
        ] {
            let report = result.unwrap();
            assert!(report.epoch_losses.last().unwrap() <= report.epoch_losses.first().unwrap());
        }
    }
}
