//! How replicas combine their updates (paper Appendix F).
//!
//! The paper wraps SpTransX in PyTorch DDP and scales TransE to 64 GPUs
//! (Table 9). There is one training driver, [`crate::Trainer`]; what
//! [`crate::Trainer::replicated`] adds is `workers` replicas of the model
//! over a **sharded** batch plan, and a [`Combine`] that says how their
//! updates meet. DDP keeps one parameter copy per rank and proves them
//! equal; here every replica's value tensors alias rank 0's
//! ([`tensor::ParamStore::alias_values`]), so W replicas are W gradient
//! workers over one table and the two combines differ only in when the step
//! happens. This module holds what is specific to combining: the gradient
//! all-reduce into rank 0, and the epoch-edge fold of every replica's dirty
//! rows into rank 0, whose renormalization is then the renorm.
//!
//! # Pool discipline and determinism
//!
//! One pool runs every replica: with two or more, both combines hand each
//! replica to its own task on the trainer's pool
//! ([`xparallel::PoolHandle::for_each_mut`]) — one batch per task and round
//! under all-reduce, a whole shard per task and epoch under shared. So each
//! replica's tape replays on a [`xparallel::PoolHandle::sequential`] handle
//! (fanning the inner kernels back onto the pool the task occupies could
//! deadlock, and DDP ranks are single-threaded over their shard anyway), and
//! the pool's width bounds how many replicas run at once: at width 1 they
//! run one after another, in rank order. A single replica runs on the caller
//! thread with the trainer's own handle.

use tensor::{ParamId, RowSet, Sweep};

use crate::model::KgeModel;
use crate::train::Replica;

/// How the replicas of a [`crate::Trainer::replicated`] run combine their
/// updates. With one worker either variant *is* the plain
/// [`crate::Trainer::new`] schedule, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// DDP's algorithm, on one table: rounds in which every replica computes
    /// the gradient of its own batch (one pool task per replica), the
    /// gradients are **all-reduced** (summed in rank order and averaged)
    /// into rank 0, and rank 0 alone applies the step. Each round averages
    /// up to `workers` batches into one step, so an epoch is
    /// `ceil(batches / workers)` steps — a different trajectory from one
    /// replica's, and the scaling curve of Table 9.
    ///
    /// **Race-free and deterministic**, although the replicas' values alias
    /// one buffer: the only concurrent phase (forward and backward) *reads*
    /// the values and writes replica-private gradients; the reduction, the
    /// step and the epoch-end renormalization run after the join, on the
    /// caller thread with full pool parallelism, in fixed rank/parameter
    /// order. Losses and final embeddings are bit-identical at any
    /// `SPTX_NUM_THREADS`, and repeated runs with the same seed are
    /// bit-identical full stop.
    AllReduce,
    /// Hogwild: the same aliased values (gradients, tapes and row sets stay
    /// worker-private), but every worker sweeps its whole shard as one task
    /// on the trainer's pool, applying touched-row SGD steps to the shared
    /// values with **no barriers and no locks**. Workers join at every epoch
    /// edge; only then does rank 0 renormalize, over the union of all
    /// workers' dirty rows.
    ///
    /// **Nondeterministic** when 2+ workers run at once (2+ workers on a
    /// pool at least 2 wide) — an ablation arm, not the determinism-contract
    /// path: update interleaving (and occasional lost increments on row
    /// collisions) varies run to run, so validate results statistically. On
    /// a width-1 pool the contiguous shards run back to back in plan order,
    /// which is [`crate::Trainer::new`]'s sweep bit for bit.
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
/// and one row-union set, so the steady-state round allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Reducer {
    param_ids: Vec<ParamId>,
    union: RowSet,
}

impl Reducer {
    /// Averages gradients over the `active` replicas (those with a batch this
    /// round) into rank 0, the one replica that steps — the all-reduce of
    /// DDP, reduced to its root. A no-op below two replicas.
    ///
    /// The reduction runs over the **union** of the replicas' touched sets —
    /// `O(union · d)` per step instead of whole gradient tables — and rank
    /// 0's set is widened to that union, for the optimizer step and the next
    /// `zero_grads`. Rows outside the union are `+0.0` on every replica,
    /// which is precisely what reducing them would compute, so one replica in
    /// the all-rows state (which makes the union all rows) changes the cost
    /// of the same loop, not a bit of its result.
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
            for r in rest.iter() {
                union.insert_set(r.model.store().touched(id));
            }
            // Each union row, in place: rank 0's own bits, `+= 1.0 · g` per
            // other replica in rank order, `*= 1/active`, then
            // `0.0 + 1.0 · mean` — the association of a zeroed gradient
            // accumulating the mean, which canonicalizes `-0.0`.
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
        }
    }
}

/// The quiescent point of every schedule, after every replica joined: folds
/// the other replicas' dirty rows into rank 0 (clearing them locally) so its
/// renormalization sweep covers everything any replica wrote this epoch. The
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
        // The all-reduce widens rank 0's touched set to the union, so rank
        // 0's dirty set — and the epoch renormalization sweep it drives —
        // covers every row the one step wrote, and the touched-row sweep
        // must remain bit-identical to the dense ablation.
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
        // the union all rows: the same loop then visits every row, and rank
        // 0's mean gradient and post-step value bits match the all-sparse
        // and the all-dense reduction.
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
            let before: Vec<_> = (t.replicas.iter())
                .map(|r| r.model.store().grad(id).clone())
                .collect();
            Reducer::default().all_reduce(&mut t.replicas, 3.0);
            let rank0 = t.replicas[0].model.store();
            let touched = rank0.touched(id);
            if all_rows_ranks.is_empty() {
                assert_eq!(touched.as_slice(), Some(&union[..]));
            } else {
                assert!(touched.is_dense());
            }
            let mean = rank0.grad(id);
            for row in 0..mean.rows() {
                for (j, &got) in mean.row(row).iter().enumerate() {
                    let want = if union.binary_search(&(row as u32)).is_ok() {
                        let mut m = before[0].get(row, j);
                        m += 1.0 * before[1].get(row, j);
                        m += 1.0 * before[2].get(row, j);
                        0.0 + 1.0 * (m * (1.0 / 3.0))
                    } else {
                        0.0
                    };
                    assert_eq!(got.to_bits(), want.to_bits(), "row {row}, column {j}");
                }
            }
            let grads = bits(mean);
            t.replicas[0].step();
            (grads, bits(t.model().store().value(id)))
        };
        let sparse = run(&[]);
        assert!(sparse.0.iter().any(|&g| g != 0), "the batch has gradient");
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
    fn every_replica_aliases_rank0_values_under_either_combine() {
        let (ds, cfg) = (dataset(), config());
        for combine in [Combine::AllReduce, Combine::Shared] {
            let t = Trainer::replicated(&ds, &cfg, 3, combine, SpTransE::from_config).unwrap();
            let rank0 = t.model().store();
            for (rank, r) in t.replicas.iter().enumerate() {
                for id in rank0.param_ids() {
                    let (value, canonical) = (r.model.store().value(id), rank0.value(id));
                    assert!(value.is_shared(), "{combine:?} rank {rank}, {id:?}");
                    assert_eq!(
                        value.as_slice().as_ptr(),
                        canonical.as_slice().as_ptr(),
                        "{combine:?} rank {rank}, {id:?}"
                    );
                }
            }
        }
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
