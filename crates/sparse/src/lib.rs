//! Sparse matrix formats and SpMM kernels.
//!
//! This crate is the Rust analog of the SpMM substrate the SparseTransX paper
//! takes from iSpLib (CPU) and DGL g-SpMM (GPU): coordinate ([`CooMatrix`])
//! and compressed-sparse-row ([`CsrMatrix`]) matrices over `f32`, a parallel
//! cache-friendly sparse × dense multiplication ([`spmm::csr_spmm`]), its
//! transpose form used for backpropagation (`∂L/∂X = Aᵀ · ∂L/∂C`, Appendix G
//! of the paper), and the *semiring* generalization of Appendix D that turns
//! the same traversal into DistMult / ComplEx / RotatE scoring.
//!
//! It also hosts the paper's central data structure: the **triplet incidence
//! matrix** ([`incidence`]), whose rows hold exactly two (`h − t`) or three
//! (`h + r − t`) nonzeros drawn from `{−1, +1}`, kept with the sorted columns
//! the batch touches ([`incidence::IncidencePair`]). The backward `Aᵀ · G`
//! walks the same rows, so no transpose is kept.
//!
//! **Place in the workspace:** sits directly on `xparallel`; consumed by
//! `tensor` (the SpMM autograd op), `simcache` (kernel traces), and
//! `sptransx` (incidence construction).
//!
//! # Examples
//!
//! ```
//! use sparse::{CooMatrix, DenseMatrix};
//!
//! // A 2×3 sparse matrix times a 3×2 dense matrix.
//! let a = CooMatrix::from_triplets(2, 3, vec![(0, 0, 1.0), (0, 2, -1.0), (1, 1, 2.0)])?;
//! let csr = a.to_csr();
//! let b = DenseMatrix::from_rows(&[[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]);
//! let c = sparse::spmm::csr_spmm(&csr, &b);
//! assert_eq!(c.row(0), &[-2.0, -20.0]);
//! assert_eq!(c.row(1), &[4.0, 40.0]);
//! # Ok::<(), sparse::Error>(())
//! ```

#![deny(missing_docs)]

mod coo;
mod csr;
mod dense;
mod error;
pub mod incidence;
pub mod metrics;
pub mod num;
pub mod semiring;
pub mod spmm;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::{DenseMatrix, DenseView};
pub use error::{Error, Result};
pub use num::Complex32;
