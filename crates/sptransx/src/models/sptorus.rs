//! Sparse TorusE (paper §4.6).
//!
//! TorusE shares TransE's `h + r − t` expression (computed with the same
//! single `hrt` SpMM) but measures it with a wraparound (torus) metric over
//! the fractional parts of the embeddings, and applies no norm constraints.

use kg::TripleStore;
use sparse::incidence::TailSign;
use tensor::{Graph, ParamStore, Var};

use crate::models::{
    hrt_side, stacked_torus_init, Cx, Eval, Family, Geometry, HrtSide, Model, RankQuery, Shape,
    Stacked, WorkingSet,
};
use crate::scorer::QueryDir;
use crate::Result;

/// The SpTransX TorusE model.
///
/// The configured [`crate::Norm`] is coerced to a torus metric: `L1 →
/// TorusL1`, `L2 → TorusL2` (the paper's "L2 torus" default).
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpTorusE, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(5).build();
/// let model = SpTorusE::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(sptransx::KgeModel::name(&model), "SpTorusE");
/// # Ok::<(), sptransx::Error>(())
/// ```
pub type SpTorusE = Model<TorusE>;

/// [`SpTorusE`]'s family: one stacked table of torus coordinates, the fused
/// `hrt` score under a torus metric, no constraint.
#[derive(Debug)]
pub struct TorusE(pub Stacked);

impl Family for TorusE {
    const NAME: &'static str = "SpTorusE";
    const GEOMETRY: Geometry = Geometry::Torus;
    const WORKING_SET: WorkingSet<Self> = |f, side| f.0.working_set(side);
    type Side = HrtSide;

    fn init(store: &mut ParamStore, shape: &Shape, seed: u64, _: &TripleStore) -> Self {
        TorusE(Stacked::register(store, stacked_torus_init(shape, seed)))
    }

    fn cache(&self, shape: &Shape, triples: &TripleStore) -> Result<HrtSide> {
        hrt_side(shape, triples, TailSign::Negative)
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, side: &HrtSide) -> Var {
        g.spmm_score(cx.store, self.0.emb, side.clone(), cx.norm.row_score())
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
    use crate::{KgeModel, Norm, TrainConfig};
    use kg::eval::TripleScorer;
    use kg::synthetic::SyntheticKgBuilder;
    use kg::{BatchPlan, UniformSampler};

    #[test]
    fn norm_is_coerced_to_torus() {
        let ds = SyntheticKgBuilder::new(30, 2).triples(100).seed(1).build();
        let m = SpTorusE::from_config(
            &ds,
            &TrainConfig {
                norm: Norm::L2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(m.metric(), Norm::TorusL2);
        let m = SpTorusE::from_config(
            &ds,
            &TrainConfig {
                norm: Norm::L1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(m.metric(), Norm::TorusL1);
    }

    #[test]
    fn scores_are_bounded_by_torus_geometry() {
        let ds = SyntheticKgBuilder::new(40, 3).triples(300).seed(2).build();
        let config = TrainConfig {
            dim: 8,
            batch_size: 50,
            ..Default::default()
        };
        let mut model = SpTorusE::from_config(&ds, &config).unwrap();
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 50, 3);
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, _) = model.score_batch(&mut g, 0);
        // Max per-component squared torus distance is 0.25.
        let bound = 0.25 * model.dim() as f32 + 1e-5;
        assert!(g
            .value(pos)
            .as_slice()
            .iter()
            .all(|&x| (0.0..=bound).contains(&x)));
    }

    #[test]
    fn wraparound_equivalence_in_scoring() {
        // Shifting an embedding by an integer must not change torus scores.
        let ds = SyntheticKgBuilder::new(20, 2).triples(80).seed(4).build();
        let config = TrainConfig {
            dim: 4,
            ..Default::default()
        };
        let mut model = SpTorusE::from_config(&ds, &config).unwrap();
        let before = model.score_tails(0, 0);
        let emb_id = model.embedding_param();
        {
            let emb = model.store_mut().value_mut(emb_id);
            for j in 0..4 {
                let v = emb.get(0, j);
                emb.set(0, j, v + 3.0); // integer shift of the head entity
            }
        }
        let after = model.score_tails(0, 0);
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
