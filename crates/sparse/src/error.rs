//! Error type for sparse-matrix construction and kernel invocation.

use std::fmt;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced when building or combining sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A coordinate `(row, col)` lies outside the declared shape.
    IndexOutOfBounds {
        /// Offending row index.
        row: usize,
        /// Offending column index.
        col: usize,
        /// Declared number of rows.
        rows: usize,
        /// Declared number of columns.
        cols: usize,
    },
    /// A row of an `hrt` incidence matrix names an entity past its
    /// `entities` entity columns (which are not all of its columns).
    EntityOutOfBounds {
        /// Offending (batch) row.
        row: usize,
        /// Offending entity index.
        entity: usize,
        /// Number of entities.
        entities: usize,
        /// Rows (batch triples) of the matrix being built.
        rows: usize,
    },
    /// Matrix shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// A CSR structure invariant was violated (e.g. non-monotone `indptr`).
    InvalidStructure {
        /// Human-readable description of the violation.
        context: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "index ({row}, {col}) out of bounds for {rows}x{cols} matrix"
            ),
            Error::EntityOutOfBounds {
                row,
                entity,
                entities,
                rows,
            } => write!(
                f,
                "entity {entity} in row {row} of {rows} out of bounds for {entities} entities"
            ),
            Error::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            Error::InvalidStructure { context } => write!(f, "invalid sparse structure: {context}"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    pub(crate) fn shape(context: impl Into<String>) -> Self {
        Error::ShapeMismatch {
            context: context.into(),
        }
    }

    pub(crate) fn structure(context: impl Into<String>) -> Self {
        Error::InvalidStructure {
            context: context.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::IndexOutOfBounds {
            row: 5,
            col: 7,
            rows: 2,
            cols: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("(5, 7)"));
        assert!(msg.contains("2x3"));

        let e = Error::shape("a.cols (3) != b.rows (4)");
        assert!(e.to_string().contains("a.cols"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<Error>();
    }
}
