//! # SparseTransX reproduction — facade crate
//!
//! This crate re-exports the entire workspace: a from-scratch Rust
//! reproduction of *SparseTransX: Efficient Training of Translation-Based
//! Knowledge Graph Embeddings Using Sparse Matrix Operations* (MLSys 2025).
//!
//! The individual subsystems live in dedicated crates:
//!
//! * [`xparallel`] — persistent thread pool and parallel loops.
//! * [`sparse`] — CSR matrices, (semiring) SpMM kernels, incidence builders.
//! * [`tensor`] — dense tensors, tape autograd, optimizers, losses.
//! * [`kg`] — triple stores, dataset loaders/generators, sampling, evaluation.
//! * [`simcache`] — cache simulator used for the Table 7 analog.
//! * [`sptransx`] — the models (sparse + dense baselines) and trainers.
//!
//! # Examples
//!
//! ```
//! use sptransx_repro::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = kg::synthetic::SyntheticKgBuilder::new(200, 8)
//!     .triples(1_000)
//!     .seed(7)
//!     .build();
//! let config = TrainConfig { epochs: 2, batch_size: 256, dim: 16, ..Default::default() };
//! let mut trainer = Trainer::new(SpTransE::from_config(&dataset, &config)?, &dataset, &config)?;
//! let report = trainer.run()?;
//! assert_eq!(report.epoch_losses.len(), 2);
//! # Ok(())
//! # }
//! ```

pub use kg;
pub use simcache;
pub use sparse;
pub use sptransx;
pub use tensor;
pub use xparallel;

pub mod cli;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use kg::{self, Dataset, TripleStore};
    pub use sparse::CsrMatrix;
    pub use sptransx::{
        DenseTorusE, DenseTransE, DenseTransH, DenseTransR, KgeModel, SpComplEx, SpDistMult,
        SpRotatE, SpTorusE, SpTransC, SpTransE, SpTransH, SpTransM, SpTransR, TrainConfig, Trainer,
    };
    pub use tensor::Tensor;
}
