//! Knowledge-graph data handling: triple stores, dataset loading and
//! generation, negative sampling, batching, and link-prediction evaluation.
//!
//! This crate is the reproduction's analog of the SparseTransX framework's
//! data modules (paper §4.7.2): dataloaders for standard KG formats, a
//! streaming store for embeddings too large for memory, a negative sampler,
//! and the evaluation protocol (filtered Hits@K / MRR) used in §6.
//!
//! Because the paper's seven benchmark datasets (FB15K, WN18, BioKG, …) are
//! distributed as files we cannot fetch offline, [`synthetic`] generates
//! graphs with the same entity/relation/triple counts, Zipf-distributed
//! entity popularity and a realistic mix of relation cardinalities — the
//! properties that drive both training cost and ranking difficulty.
//!
//! **Place in the workspace:** depends only on `xparallel` (parallel
//! evaluation); `sptransx` consumes its datasets, batch plans, and samplers,
//! and the bench harness its synthetic dataset shapes.
//!
//! # Examples
//!
//! ```
//! use kg::synthetic::SyntheticKgBuilder;
//!
//! let ds = SyntheticKgBuilder::new(100, 5).triples(500).seed(1).build();
//! assert_eq!(ds.num_entities, 100);
//! assert!(ds.train.len() > 0);
//! ```

#![deny(missing_docs)]

mod batch;
mod dataset;
pub mod eval;
mod loader;
mod negative;
pub mod stats;
pub mod stream;
pub mod synthetic;
mod triple;

pub use batch::{Batch, BatchPlan};
pub use dataset::Dataset;
pub use loader::{load_tsv, write_tsv, Vocab};
pub use negative::{BernoulliSampler, NegativeSampler, UniformSampler};
pub use triple::{Triple, TripleSet, TripleStore};

/// Convenience alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by dataset loading and validation.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line of an input file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        context: String,
    },
    /// An index exceeded the declared entity/relation count.
    IndexOutOfBounds {
        /// Description of the offending value.
        context: String,
    },
    /// Split fractions that are negative, not numbers, or leave no
    /// training triples.
    InvalidSplit {
        /// Description of the offending fractions.
        context: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Parse { line, context } => write!(f, "parse error at line {line}: {context}"),
            Error::IndexOutOfBounds { context } => write!(f, "index out of bounds: {context}"),
            Error::InvalidSplit { context } => write!(f, "invalid split: {context}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}
