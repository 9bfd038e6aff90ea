//! SparseTransX: translation-based knowledge-graph embedding models trained
//! with sparse matrix operations.
//!
//! This crate is the paper's primary contribution, rebuilt in Rust. Each
//! translational model exists in two functionally identical variants:
//!
//! | Model | Sparse (SpTransX) | Dense baseline (TorchKGE-style) |
//! |-------|-------------------|--------------------------------|
//! | TransE (`‖h + r − t‖`) | [`SpTransE`] — one `hrt` SpMM | [`DenseTransE`] — 3 gathers + add/sub |
//! | TorusE (torus `‖h + r − t‖`) | [`SpTorusE`] | [`DenseTorusE`] |
//! | TransR (`‖Mᵣ(h − t) + r‖`) | [`SpTransR`] — one `ht` SpMM + 1 projection | [`DenseTransR`] — 2 gathers + 2 projections |
//! | TransH (hyperplane) | [`SpTransH`] — one `ht` SpMM, shared sub-expressions | [`DenseTransH`] — 2 gathers + 2 projections |
//! | DistMult (Appendix D) | [`SpDistMult`] — `(×,×)` semiring score | — |
//!
//! The table lists the paper's families; SpTransC, SpTransM, SpComplEx and
//! SpRotatE complete the thirteen. [`MODELS`] registers every one under a
//! key (`transe`, `transe-dense`, …) for callers that pick a family at run
//! time — `sptx train --model`, the bench harness — and builds it as a
//! `Box<dyn` [`AnyModel`]`>`, which trains like a concrete model.
//!
//! The sparse variants build each mini-batch's incidence matrix **once**
//! (negatives are pre-generated, §5.3) and reuse it — with the sorted list of
//! the columns it touches — every epoch. The backward `Aᵀ · G` is pushed
//! through the same matrix's rows, so no transpose is built or kept.
//!
//! [`Trainer`] is the one training driver — margin-ranking loss over a
//! [`kg::BatchPlan`], one replica or several ([`Trainer::replicated`], Appendix
//! F), the paper's time/memory/FLOP report; [`Arm::check`] says what is legal.
//!
//! **Place in the workspace:** the top of the model stack — it combines
//! `kg` (data), `sparse` (incidence matrices), and `tensor` (autograd);
//! the bench harness and the `sptransx-repro` facade sit above it.
//!
//! # Examples
//!
//! ```
//! use sptransx::{SpTransE, TrainConfig, Trainer};
//! use kg::synthetic::SyntheticKgBuilder;
//!
//! # fn main() -> Result<(), sptransx::Error> {
//! let ds = SyntheticKgBuilder::new(100, 6).triples(600).seed(3).build();
//! let config = TrainConfig { epochs: 3, batch_size: 128, dim: 16, lr: 0.05, ..Default::default() };
//! let model = SpTransE::from_config(&ds, &config)?;
//! let mut trainer = Trainer::new(model, &ds, &config)?;
//! let report = trainer.run()?;
//! assert!(report.epoch_losses.last() < report.epoch_losses.first());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod distributed;
mod model;
pub mod models;
mod paging;
mod scorer;
pub mod serve;
mod train;

pub use distributed::Combine;
pub use model::{Arm, KgeModel, Norm, OptimizerKind, SamplerKind, TrainConfig};
pub use models::dense::{DenseTorusE, DenseTransE, DenseTransH, DenseTransR};
pub use models::extensions::{SpTransC, SpTransM};
pub use models::spcomplex::SpComplEx;
pub use models::spdistmult::SpDistMult;
pub use models::sprotate::SpRotatE;
pub use models::sptorus::SpTorusE;
pub use models::sptranse::SpTransE;
pub use models::sptransh::SpTransH;
pub use models::sptransr::SpTransR;
pub use models::{AnyModel, Family, Model, Registered, MODELS};
pub use paging::{FileRowStorage, ReadOnlyRowStorage};
pub use scorer::QueryDir;
pub use train::{Breakdown, TrainReport, Trainer};

/// Convenience alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by model construction and training.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An invalid configuration value.
    Config {
        /// What was wrong.
        context: String,
    },
    /// Propagated sparse-matrix error.
    Sparse(sparse::Error),
    /// Propagated dataset error.
    Kg(kg::Error),
    /// Serving-layer failure (index I/O, corrupt files, shape mismatches).
    Serve {
        /// What went wrong.
        context: String,
    },
    /// Propagated paged-storage error (cache budget exceeded, backing-store
    /// I/O, invalid paging configuration).
    Storage(tensor::Error),
    /// Training diverged: a batch's loss was NaN or infinite (a learning
    /// rate far too large, say). The run stops at that batch.
    Diverged {
        /// The epoch, counting from 1 over the trainer's lifetime.
        epoch: usize,
        /// The batch of the replica's shard, counting from 1.
        batch: usize,
        /// The replica that trained the batch, when two or more train.
        rank: Option<usize>,
        /// The non-finite loss.
        loss: f32,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Config { context } => write!(f, "invalid configuration: {context}"),
            Error::Sparse(e) => write!(f, "sparse matrix error: {e}"),
            Error::Kg(e) => write!(f, "dataset error: {e}"),
            Error::Serve { context } => write!(f, "serving error: {context}"),
            Error::Storage(e) => write!(f, "{e}"),
            Error::Diverged {
                epoch,
                batch,
                rank,
                loss,
            } => {
                write!(
                    f,
                    "training diverged: loss {loss} at epoch {epoch}, batch {batch}"
                )?;
                rank.map_or(Ok(()), |rank| write!(f, " of rank {rank}"))
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sparse(e) => Some(e),
            Error::Kg(e) => Some(e),
            Error::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sparse::Error> for Error {
    fn from(e: sparse::Error) -> Self {
        Error::Sparse(e)
    }
}

impl From<kg::Error> for Error {
    fn from(e: kg::Error) -> Self {
        Error::Kg(e)
    }
}

impl From<tensor::Error> for Error {
    fn from(e: tensor::Error) -> Self {
        Error::Storage(e)
    }
}

impl Error {
    pub(crate) fn config(context: impl Into<String>) -> Self {
        Error::Config {
            context: context.into(),
        }
    }

    /// A serving-layer error with the given context (public so callers
    /// layering CLI/deployment checks on top of [`serve`] can produce
    /// uniform errors).
    pub fn serve(context: impl Into<String>) -> Self {
        Error::Serve {
            context: context.into(),
        }
    }
}
