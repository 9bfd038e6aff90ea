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

use tensor::{ParamId, Tensor};

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

/// The long-lived buffers of the gradient all-reduce: one accumulator per
/// parameter and one row-union list, sized on the first reduction, so the
/// steady-state lock-step round copies bits instead of cloning tensors.
#[derive(Debug, Default)]
pub(crate) struct Reducer {
    param_ids: Vec<ParamId>,
    acc: Vec<Tensor>,
    union: Vec<u32>,
}

impl Reducer {
    /// Averages gradients over the `active` replicas (those with a batch this
    /// round) and broadcasts the result, so every replica holds the same
    /// (mean) gradient — the all-reduce of DDP. A no-op below two replicas.
    ///
    /// **Touched-row path:** when every replica's row set is sparse, the
    /// reduction runs over the **union** of the replica sets — `O(union · d)`
    /// per step instead of copying whole gradient tables — and each replica's
    /// set is widened to that union (after the broadcast every replica holds
    /// gradient exactly on the union rows). Rows outside the union are `+0.0`
    /// on every replica, which is precisely what the dense path computes for
    /// them, so both paths are bit-identical. Any replica in the dense state
    /// falls the whole parameter back to the dense reduction.
    pub(crate) fn all_reduce<M: KgeModel>(&mut self, replicas: &mut [Replica<M>], active: f32) {
        if replicas.len() < 2 {
            return;
        }
        if self.acc.is_empty() {
            let store = replicas[0].model.store();
            self.param_ids = store.param_ids();
            let zeros = |&id| Tensor::zeros(store.grad(id).rows(), store.grad(id).cols());
            self.acc = self.param_ids.iter().map(zeros).collect();
        }
        let scale = 1.0 / active;
        let union = &mut self.union;
        for (&id, acc) in self.param_ids.iter().zip(self.acc.iter_mut()) {
            union.clear();
            let mut dense = false;
            for r in replicas.iter() {
                match r.model.store().touched(id).as_slice() {
                    None => {
                        dense = true;
                        break;
                    }
                    Some(rows) => union.extend_from_slice(rows),
                }
            }
            if dense {
                // Seed the accumulator with replica 0's gradient bits (the
                // allocation-free equivalent of cloning it).
                acc.as_mut_slice()
                    .copy_from_slice(replicas[0].model.store().grad(id).as_slice());
                for other in replicas.iter().skip(1) {
                    acc.add_scaled(other.model.store().grad(id), 1.0);
                }
                for x in acc.as_mut_slice() {
                    *x *= scale;
                }
                for r in replicas.iter_mut() {
                    // grad_mut marks the replica's row set dense — correct:
                    // after a dense broadcast any row may be nonzero.
                    let g = r.model.store_mut().grad_mut(id);
                    g.zero_();
                    g.add_scaled(acc, 1.0);
                }
                continue;
            }
            union.sort_unstable();
            union.dedup();
            let n = acc.cols();
            if n == 0 || union.is_empty() {
                continue;
            }
            // Reduce the union rows into the accumulator, element for element
            // the same expressions as the dense path (seed-copy, `+= 1.0 · g`,
            // `*= 1/active`), restricted to rows that can be nonzero.
            let accd = acc.as_mut_slice();
            let g0 = replicas[0].model.store().grad(id).as_slice();
            for &r in union.iter() {
                let span = r as usize * n..(r as usize + 1) * n;
                accd[span.clone()].copy_from_slice(&g0[span]);
            }
            for other in replicas.iter().skip(1) {
                let gd = other.model.store().grad(id).as_slice();
                for &r in union.iter() {
                    for j in r as usize * n..(r as usize + 1) * n {
                        accd[j] += 1.0 * gd[j];
                    }
                }
            }
            for &r in union.iter() {
                for x in &mut accd[r as usize * n..(r as usize + 1) * n] {
                    *x *= scale;
                }
            }
            // Broadcast: every replica's gradient becomes the mean on exactly
            // the union rows, and its row set is widened to the union so the
            // optimizer step and the next zero_grads cover them.
            for r in replicas.iter_mut() {
                let gd = r.model.store_mut().grad_rows_mut(id, union).as_mut_slice();
                for &row in union.iter() {
                    for j in row as usize * n..(row as usize + 1) * n {
                        gd[j] = 0.0;
                        gd[j] += 1.0 * accd[j];
                    }
                }
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
            match store.dirty(id).as_slice() {
                None => rank0.mark_all_dirty(id),
                Some(rows) => rank0.mark_dirty(id, rows),
            }
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
