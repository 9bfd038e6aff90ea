//! How replicas combine their updates (paper Appendix F).
//!
//! The paper wraps SpTransX in PyTorch DDP and scales TransE to 64 GPUs
//! (Table 9). There is one training driver, [`crate::Trainer`]; what
//! [`crate::Trainer::replicated`] adds is `workers` replicas of the model
//! (same seed → identical initial parameters) over a **sharded** batch plan,
//! and a [`Combine`] that says how their updates meet. This module holds
//! what is specific to combining: the gradient all-reduce, the lock-step
//! audit, and the epoch-edge dirty-row fold of the shared arm.
//!
//! # Pool discipline and determinism
//!
//! With two or more replicas, each replica's step runs *on* a pool task
//! (all-reduce) or a dedicated thread (shared), so its tape replays on a
//! [`xparallel::PoolHandle::sequential`] handle — fanning the inner kernels
//! back onto the pool the task occupies could deadlock, and DDP ranks are
//! single-threaded over their shard anyway. A single replica runs on the
//! caller thread with the trainer's own handle.

use tensor::{ParamId, RowSet, Sweep};

use crate::model::KgeModel;
use crate::train::Replica;

/// How the replicas of a [`crate::Trainer::replicated`] run combine their
/// updates. With one worker either variant *is* the plain
/// [`crate::Trainer::new`] schedule, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// DDP's algorithm: lock-step rounds in which every replica computes
    /// gradients on its own batch (one pool task per replica), the gradients
    /// are **all-reduced** (averaged) and every replica applies the identical
    /// optimizer step through its own optimizer instance, so parameters and
    /// optimizer state stay bit-identical across replicas. A round per
    /// `ceil(batches / workers)`, so wall-clock shrinks with worker count
    /// until synchronization dominates — the scaling curve of Table 9.
    ///
    /// The all-reduce and the optimizer steps run on the caller thread with
    /// full pool parallelism in fixed replica/parameter order: losses and
    /// final embeddings are bit-identical at any `SPTX_NUM_THREADS`, and
    /// repeated runs with the same seed are bit-identical full stop.
    AllReduce,
    /// Hogwild: the replicas' *value* tensors alias one set of shared buffers
    /// ([`tensor::ParamStore::share_values`] / `alias_values`; gradients,
    /// tapes and row sets stay worker-private) and every worker sweeps its
    /// shard on a dedicated thread, applying touched-row SGD steps to the
    /// shared values with **no barriers and no locks**. Workers join at every
    /// epoch edge; only then does rank 0 renormalize, over the union of all
    /// workers' dirty rows.
    ///
    /// **Nondeterministic** with 2+ workers — an ablation arm, not the
    /// determinism-contract path: update interleaving (and occasional lost
    /// increments on row collisions) varies run to run, so validate results
    /// statistically.
    ///
    /// **Safety argument:** see [`tensor::hogwild`] for why the races are
    /// benign — word-sized aligned `f32` stores never tear, sparse batches
    /// make row collisions rare, any bit pattern is a valid `f32`, and the
    /// epoch-edge joins quiesce the buffers before renormalization,
    /// evaluation or dumping reads them. That argument needs a stateless
    /// scaled-add update on touched rows only, which is why the arm table
    /// ([`crate::Arm::check`]) admits only SGD with sparse gradients here.
    Shared,
}

/// The long-lived scratch of the gradient all-reduce: the parameter handles
/// and one row-union set, so the steady-state lock-step round allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct Reducer {
    param_ids: Vec<ParamId>,
    union: RowSet,
}

impl Reducer {
    /// Averages gradients over the `active` replicas (those with a batch this
    /// round) and broadcasts the result, so every replica holds the same
    /// (mean) gradient — the all-reduce of DDP. A no-op below two replicas.
    ///
    /// The reduction runs over the **union** of the replicas' touched sets —
    /// `O(union · d)` per step instead of whole gradient tables — and each
    /// replica's set is widened to that union (after the broadcast every
    /// replica holds gradient exactly on the union rows). Rows outside the
    /// union are `+0.0` on every replica, which is precisely what reducing
    /// them would compute, so one replica in the all-rows state (which makes
    /// the union all rows) changes the cost of the same loop, not a bit of
    /// its result.
    pub(crate) fn all_reduce<M: KgeModel>(&mut self, replicas: &mut [Replica<M>], active: f32) {
        let Some((rank0, rest)) = replicas.split_first_mut() else {
            return;
        };
        if rest.is_empty() {
            return;
        }
        if self.param_ids.is_empty() {
            self.param_ids = rank0.model.store().param_ids();
        }
        let scale = 1.0 / active;
        let union = &mut self.union;
        for &id in &self.param_ids {
            union.clear();
            union.insert_set(rank0.model.store().touched(id));
            for r in rest.iter() {
                union.insert_set(r.model.store().touched(id));
            }
            // Rank 0's walk reduces each union row in place — its own bits,
            // `+= 1.0 · g` per other replica in rank order, `*= 1/active` —
            // and the other replicas' walks copy the mean out, as
            // `0.0 + 1.0 · mean`: the association of a zeroed gradient
            // accumulating the mean (it canonicalizes `-0.0`), and
            // idempotent, so rank 0 can hold the mean the others copy. Every
            // replica's gradient becomes the mean on exactly the union rows,
            // which its touched set now covers for the optimizer step and
            // the next `zero_grads`.
            let store = rank0.model.store_mut();
            store.touch_set(id, union);
            store.sweep_serial(id, Sweep::Grads, |row, mean, _| {
                for other in rest.iter() {
                    for (m, g) in mean.iter_mut().zip(other.model.store().grad(id).row(row)) {
                        *m += 1.0 * g;
                    }
                }
                for m in mean.iter_mut() {
                    *m *= scale;
                    *m = 0.0 + 1.0 * *m;
                }
            });
            let mean = rank0.model.store().grad(id);
            for r in rest.iter_mut() {
                let store = r.model.store_mut();
                store.touch_set(id, union);
                store.sweep_serial(id, Sweep::Grads, |row, grad, _| {
                    for (g, m) in grad.iter_mut().zip(mean.row(row)) {
                        *g = 0.0 + 1.0 * m;
                    }
                });
            }
        }
    }
}

/// Debug-build enforcement of the DDP contract: after each lock-step round,
/// every replica must hold bit-identical parameters (they all applied the
/// same mean gradient through identical optimizer state). A shared stateful
/// optimizer, or a non-broadcast reduction, fails here on the first
/// divergent step instead of silently leaving a rank-0 model that no longer
/// represents "the" trained model.
#[cfg(debug_assertions)]
pub(crate) fn assert_replicas_in_lockstep<M: KgeModel>(replicas: &[Replica<M>]) {
    let Some((rank0, rest)) = replicas.split_first() else {
        return;
    };
    let rank0 = rank0.model.store();
    let param_ids = rank0.param_ids();
    for (w, other) in rest.iter().enumerate() {
        let other = other.model.store();
        for &id in &param_ids {
            let (a, b) = (rank0.value(id).as_slice(), other.value(id).as_slice());
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "replica {} desynchronized from rank 0 on parameter {id:?}",
                w + 1
            );
            // The dirty sets drive the epoch renormalization sweeps: the
            // all-reduce widens every replica's touched set to the union
            // before the optimizer marks dirty rows, so the sets — and
            // therefore the renorm walks — must be identical too.
            assert_eq!(
                rank0.dirty(id).as_slice(),
                other.dirty(id).as_slice(),
                "replica {} dirty set desynchronized from rank 0 on parameter {id:?}",
                w + 1
            );
        }
    }
}

/// The quiescent point of the shared arm, after every worker joined: folds
/// the workers' dirty rows into rank 0 (clearing them locally) so its
/// renormalization sweep covers everything any worker wrote this epoch. The
/// values are shared, so rank 0's renorm is the renorm.
pub(crate) fn fold_dirty_rows<M: KgeModel>(replicas: &mut [Replica<M>]) {
    let Some((rank0, rest)) = replicas.split_first_mut() else {
        return;
    };
    let rank0 = rank0.model.store_mut();
    for w in rest {
        let store = w.model.store_mut();
        for id in store.param_ids() {
            rank0.mark_dirty(id, store.dirty(id));
            store.for_dirty_rows(id, |_, _| false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpTransE, TrainConfig, TrainReport, Trainer};
    use kg::synthetic::SyntheticKgBuilder;
    use kg::Dataset;
    use tensor::Tensor;

    fn dataset() -> Dataset {
        SyntheticKgBuilder::new(60, 4).triples(600).seed(40).build()
    }

    fn config() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            batch_size: 64,
            dim: 8,
            lr: 0.05,
            ..Default::default()
        }
    }

    fn train(
        ds: &Dataset,
        cfg: &TrainConfig,
        workers: usize,
        combine: Combine,
    ) -> (TrainReport, SpTransE) {
        let mut t = Trainer::replicated(ds, cfg, workers, combine, SpTransE::from_config).unwrap();
        (t.run().unwrap(), t.into_model())
    }

    #[test]
    fn single_worker_matches_step_count() {
        let (r, _) = train(&dataset(), &config(), 1, Combine::AllReduce);
        assert_eq!(r.workers, 1);
        assert_eq!(r.steps, 3 * (540usize.div_ceil(64)));
    }

    #[test]
    fn multi_worker_reduces_steps() {
        let (r1, _) = train(&dataset(), &config(), 1, Combine::AllReduce);
        let (r4, _) = train(&dataset(), &config(), 4, Combine::AllReduce);
        assert!(r4.steps < r1.steps, "{} !< {}", r4.steps, r1.steps);
    }

    #[test]
    fn replicas_stay_synchronized_and_loss_decreases() {
        let (r, _) = train(&dataset(), &config(), 3, Combine::AllReduce);
        assert!(r.epoch_losses.last().unwrap() <= r.epoch_losses.first().unwrap());
    }

    #[test]
    fn touched_row_renorm_stays_in_lockstep_at_2_and_3_workers() {
        // The all-reduce widens every replica's touched set to the union, so
        // the per-param dirty sets — and the epoch renormalization sweeps
        // they drive — must stay identical across replicas, and the
        // touched-row sweep must remain bit-identical to the dense ablation.
        // Running under debug assertions this also exercises the dirty-set
        // comparison inside `assert_replicas_in_lockstep`.
        let ds = dataset();
        for workers in [2, 3] {
            let dense_cfg = TrainConfig {
                dense_grads: true,
                ..config()
            };
            let (_, m_sparse) = train(&ds, &config(), workers, Combine::AllReduce);
            let (_, m_dense) = train(&ds, &dense_cfg, workers, Combine::AllReduce);
            let a = m_sparse.store().value(m_sparse.embedding_param());
            let b = m_dense.store().value(m_dense.embedding_param());
            assert!(
                (a.as_slice().iter().zip(b.as_slice())).all(|(x, y)| x.to_bits() == y.to_bits()),
                "touched-row renorm diverged from dense ablation at {workers} workers"
            );
        }
    }

    #[test]
    fn one_all_rows_replica_reduces_like_all_sparse_and_all_dense() {
        // Rank 1 in the all-rows state (an untracked `grad_mut` writer) makes
        // the union all rows: the same loop then visits every row, and every
        // gradient and post-step value bit matches the all-sparse and the
        // all-dense reduction.
        let (ds, cfg) = (dataset(), config());
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let run = |all_rows_ranks: &[usize]| {
            let mut t =
                Trainer::replicated(&ds, &cfg, 3, Combine::AllReduce, SpTransE::from_config)
                    .unwrap();
            let id = t.model().embedding_param();
            let mut union = Vec::new();
            for r in &mut t.replicas {
                r.forward_backward(0, cfg.margin).unwrap();
                union.extend_from_slice(r.model.store().touched(id).as_slice().unwrap());
            }
            union.sort_unstable();
            union.dedup();
            for &rank in all_rows_ranks {
                t.replicas[rank].model.store_mut().grad_mut(id);
            }
            Reducer::default().all_reduce(&mut t.replicas, 3.0);
            for r in &t.replicas {
                let touched = r.model.store().touched(id);
                if all_rows_ranks.is_empty() {
                    assert_eq!(touched.as_slice(), Some(&union[..]));
                } else {
                    assert!(touched.is_dense());
                }
            }
            let grads: Vec<_> = (t.replicas.iter())
                .map(|r| bits(r.model.store().grad(id)))
                .collect();
            assert!(grads.iter().all(|g| *g == grads[0]), "broadcast mean");
            t.replicas.iter_mut().for_each(|r| r.step());
            let values: Vec<_> = (t.replicas.iter())
                .map(|r| bits(r.model.store().value(id)))
                .collect();
            (grads, values)
        };
        let sparse = run(&[]);
        assert!(
            sparse.0[0].iter().any(|&g| g != 0),
            "the batch has gradient"
        );
        assert_eq!(run(&[1]), sparse, "one all-rows replica");
        assert_eq!(run(&[0, 1, 2]), sparse, "all replicas all-rows");
    }

    #[test]
    fn hogwild_covers_every_batch_and_loss_decreases() {
        let (r, _) = train(&dataset(), &config(), 4, Combine::Shared);
        assert_eq!(r.workers, 4);
        // Unlike the all-reduce rounds, every worker's step lands in the
        // shared tables: total steps = epochs × batches, independent of the
        // worker count.
        assert_eq!(r.steps, 3 * (540usize.div_ceil(64)));
        assert_eq!(r.epoch_losses.len(), 3);
        assert!(
            r.epoch_losses.last().unwrap() <= r.epoch_losses.first().unwrap(),
            "async loss did not decrease: {:?}",
            r.epoch_losses
        );
    }

    #[test]
    fn hogwild_model_aliases_shared_values() {
        let (_, m) = train(&dataset(), &config(), 2, Combine::Shared);
        let id = m.embedding_param();
        assert!(m.store().value(id).is_shared());
        assert!(m.store().value(id).as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn more_workers_than_batches_is_safe() {
        // Two batches: six of eight replicas idle. They must add nothing to
        // the mean, so the run is the two-worker run bit for bit (the second
        // epoch is what a stale idle gradient would change).
        let ds = SyntheticKgBuilder::new(30, 2).triples(80).seed(41).build();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 64,
            dim: 4,
            lr: 0.05,
            ..Default::default()
        };
        let (r8, m8) = train(&ds, &cfg, 8, Combine::AllReduce);
        let (r2, m2) = train(&ds, &cfg, 2, Combine::AllReduce);
        assert_eq!((r8.workers, r8.steps), (8, r2.steps));
        assert_eq!(r8.epoch_losses, r2.epoch_losses);
        let emb = |m: &SpTransE| m.store().value(m.embedding_param()).as_slice().to_vec();
        assert_eq!(emb(&m8), emb(&m2));
    }
}
