//! Error type for search and indexing operations.

use std::fmt;

/// Errors from the search engine and the disk index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The database contains no items.
    EmptyDatabase,
    /// A database item's length differs from the query length.
    LengthMismatch {
        /// Index of the offending database item.
        index: usize,
        /// Expected series length (the query length).
        expected: usize,
        /// Actual length of the item.
        actual: usize,
    },
    /// The query's length differs from the snapshot's series length.
    QueryLength {
        /// The snapshot's series length.
        expected: usize,
        /// The query's length.
        actual: usize,
    },
    /// The query's samples are finite but so large that the Euclidean
    /// distance between two of its rotations overflows `f64`.
    QueryOverflow,
    /// A database item holds a NaN or an infinity.
    NonFinite {
        /// Index of the offending database item.
        index: usize,
        /// Position of the first non-finite sample in the item.
        position: usize,
    },
    /// An invalid parameter (e.g. `k = 0` for k-NN).
    InvalidParam {
        /// Parameter name.
        name: &'static str,
        /// Violation description.
        message: String,
    },
}

impl SearchError {
    /// Convenience constructor for [`SearchError::InvalidParam`].
    pub fn invalid_param(name: &'static str, message: impl Into<String>) -> Self {
        SearchError::InvalidParam {
            name,
            message: message.into(),
        }
    }
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::EmptyDatabase => write!(f, "database contains no items"),
            SearchError::LengthMismatch {
                index,
                expected,
                actual,
            } => write!(
                f,
                "database item {index} has length {actual}, expected {expected}"
            ),
            SearchError::QueryLength { expected, actual } => write!(
                f,
                "query has length {actual}, the snapshot's series have length {expected}"
            ),
            SearchError::QueryOverflow => write!(
                f,
                "query samples are too large: distances between its rotations overflow f64"
            ),
            SearchError::NonFinite { index, position } => write!(
                f,
                "database item {index} has a non-finite sample at position {position}"
            ),
            SearchError::InvalidParam { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            SearchError::EmptyDatabase.to_string(),
            "database contains no items"
        );
        let e = SearchError::LengthMismatch {
            index: 3,
            expected: 64,
            actual: 32,
        };
        assert_eq!(e.to_string(), "database item 3 has length 32, expected 64");
        assert_eq!(
            SearchError::NonFinite {
                index: 3,
                position: 5
            }
            .to_string(),
            "database item 3 has a non-finite sample at position 5"
        );
        assert_eq!(
            SearchError::invalid_param("k", "must be >= 1").to_string(),
            "invalid parameter `k`: must be >= 1"
        );
    }

    #[test]
    fn is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(SearchError::EmptyDatabase);
        assert!(!e.to_string().is_empty());
    }
}
