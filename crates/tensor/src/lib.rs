//! Dense tensors with tape-based reverse-mode automatic differentiation.
//!
//! The SparseTransX paper builds on PyTorch 2.3; this crate is the
//! reproduction's PyTorch analog, scoped to exactly what translation-based
//! KGE training needs:
//!
//! * [`Tensor`] — owned row-major `f32` matrices with parallel reduction /
//!   norm kernels and global **peak-memory accounting**
//!   ([`memory`]), the stand-in for `torch.cuda.max_memory_allocated`.
//! * [`Arena`] — a recycling buffer pool that makes the steady-state
//!   training step allocation-free: every [`Graph`] owns one, draws node
//!   values/gradients and backward temporaries from it, and returns them on
//!   [`Graph::reset`] instead of dropping them.
//! * [`Graph`] / [`Var`] — a define-by-run tape. Forward values are computed
//!   eagerly as ops are recorded; [`Graph::backward`] replays the tape in
//!   reverse. Embedding tables live outside the tape in a [`ParamStore`] so
//!   the (large) parameter matrices are never copied per batch.
//! * The two ops at the heart of the paper: [`Graph::gather`] +
//!   scatter-add backward (the *non-sparse* fine-grained path every baseline
//!   framework uses) and [`Graph::spmm`] whose backward `∂L/∂X = Aᵀ · ∂L/∂C`
//!   (Appendix G) is pushed through the rows of `A`. Both backwards are one
//!   scatter with a coefficient ([`kernels`]): the arms differ only in the
//!   rows they scatter.
//! * [`hogwild`] — the one value table every data-parallel replica aliases
//!   ([`ParamStore::alias_values`]), and why sharing it stays sound.
//! * [`optim`] — SGD / Adagrad / Adam and a step LR scheduler (Appendix E).
//! * [`profile`] — lightweight named timers used to regenerate the paper's
//!   forward/backward/step breakdowns (Table 1, Figure 8) and the
//!   per-function attribution of Figure 2.
//!
//! **Place in the workspace:** builds on `sparse` (SpMM kernels) and
//! `xparallel` (elementwise parallelism); `sptransx` drives every model's
//! forward/backward through this tape.
//!
//! # Examples
//!
//! Differentiate a TransE-style score through the tape:
//!
//! ```
//! use tensor::{Graph, ParamStore, RowScore, Tensor};
//!
//! let mut store = ParamStore::new();
//! let emb = store.add_param("emb", Tensor::from_rows(&[[1.0, 2.0], [0.5, 0.0], [3.0, 1.0]]));
//! let mut g = Graph::new();
//! let rows = g.gather(&store, emb, vec![0, 2]);
//! let norms = g.score_rows(rows, RowScore::L2 { eps: 1e-9 });
//! let loss = g.mean(norms);
//! g.backward(loss, &mut store);
//! assert_eq!(store.grad(emb).rows(), 3);
//! ```

#![deny(missing_docs)]

mod arena;
pub mod gradcheck;
mod graph;
pub mod hogwild;
pub mod init;
pub mod memory;
pub mod optim;
pub mod paged;
pub mod profile;
mod store;
mod tensor;

pub use arena::Arena;
pub use graph::{Graph, RowScore, Var};
pub use sparse::semiring::Semiring;

/// Low-level kernels re-exported for benchmarks and cross-crate tests.
pub mod kernels {
    pub use crate::graph::{scatter_add_csr, scatter_add_rows};
}
pub use paged::{PageStats, Pager, RowStorage, VecStorage};
pub use store::{ParamId, ParamStore, RowSet, Sweep};
pub use tensor::Tensor;

/// Convenience alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors for tensor-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Operand shapes are incompatible.
    ShapeMismatch {
        /// Description of the mismatch.
        context: String,
    },
    /// A referenced parameter does not exist.
    UnknownParam {
        /// The offending parameter name.
        name: String,
    },
    /// A paged-storage operation failed: backing-store I/O, a working set
    /// larger than the cache budget, or an invalid paging configuration.
    Storage {
        /// Description of the failure.
        context: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            Error::UnknownParam { name } => write!(f, "unknown parameter: {name}"),
            Error::Storage { context } => write!(f, "paged storage: {context}"),
        }
    }
}

impl std::error::Error for Error {}
