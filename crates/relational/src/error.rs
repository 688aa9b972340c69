//! The typed error hierarchy of the relational substrate.
//!
//! Errors are split along the boundary that matters to callers:
//!
//! * [`SchemaError`] — the *shape* of the database is wrong (unknown or
//!   duplicate relations/attributes, bad foreign-key declarations, no
//!   target). These are programming or configuration mistakes: retrying
//!   with the same schema cannot succeed.
//! * [`DataError`] — the *contents* are wrong (arity/type mismatches,
//!   duplicate or dangling keys, malformed CSV cells, rows outside the
//!   target relation). These arrive with external data — exactly the messy
//!   multi-relational inputs of the CTU repository — and must surface as
//!   values, never panics.
//!
//! [`RelationalError`] is the union the substrate's `Result` alias carries;
//! `From` impls let `?` lift either category, and the workspace-level
//! `crossmine::CrossMineError` lifts all of them one level further.

use std::fmt;

/// The database *shape* is invalid: schema construction or lookup failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchemaError {
    /// A relation name was not found in the database schema.
    UnknownRelation(String),
    /// An attribute name was not found in a relation.
    UnknownAttribute {
        /// The relation that was searched.
        relation: String,
        /// The attribute name that was not found.
        attribute: String,
    },
    /// A duplicate relation name was registered.
    DuplicateRelation(String),
    /// A duplicate attribute name within one relation.
    DuplicateAttribute {
        /// The relation declaring the duplicate.
        relation: String,
        /// The attribute name declared twice.
        attribute: String,
    },
    /// A foreign key referenced a relation that does not exist (or has no
    /// primary key).
    BadForeignKey {
        /// The relation declaring the foreign key.
        relation: String,
        /// The foreign-key attribute.
        attribute: String,
        /// Why the reference is invalid.
        reason: String,
    },
    /// The database has no target relation / labels where one was required.
    NoTarget,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            SchemaError::UnknownAttribute { relation, attribute } => {
                write!(f, "unknown attribute `{attribute}` in relation `{relation}`")
            }
            SchemaError::DuplicateRelation(name) => {
                write!(f, "duplicate relation name `{name}`")
            }
            SchemaError::DuplicateAttribute { relation, attribute } => {
                write!(f, "duplicate attribute `{attribute}` in relation `{relation}`")
            }
            SchemaError::BadForeignKey { relation, attribute, reason } => {
                write!(f, "bad foreign key `{relation}.{attribute}`: {reason}")
            }
            SchemaError::NoTarget => write!(f, "database has no target relation"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// The database *contents* are invalid: a tuple, label, key, or CSV cell
/// did not meet the schema's contract.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DataError {
    /// A tuple had the wrong arity for its relation.
    ArityMismatch {
        /// The relation the tuple was pushed to.
        relation: String,
        /// The relation's declared arity (or expected label count).
        expected: usize,
        /// The arity actually supplied.
        got: usize,
    },
    /// A value had the wrong type for its attribute.
    TypeMismatch {
        /// The relation holding the attribute.
        relation: String,
        /// The attribute the value was bound to.
        attribute: String,
        /// The type the attribute requires.
        expected: &'static str,
    },
    /// A primary-key value was inserted twice.
    DuplicateKey {
        /// The relation with the duplicate.
        relation: String,
        /// The repeated key value.
        key: u64,
    },
    /// A foreign-key value matched no primary key in the referenced
    /// relation (reported by strict CSV loading).
    DanglingForeignKey {
        /// The relation holding the foreign key.
        relation: String,
        /// The foreign-key attribute.
        attribute: String,
        /// The unmatched key value.
        key: u64,
    },
    /// A target row id outside the target relation was handed to a
    /// training or prediction entry point.
    RowOutOfRange {
        /// The offending row id.
        row: u64,
        /// Number of rows in the target relation.
        num_targets: usize,
    },
    /// A delta update named a row its relation did not hold before the
    /// batch (out of range, or inserted by the same batch).
    UpdateRowOutOfRange {
        /// The relation the update targeted.
        relation: String,
        /// The offending row id.
        row: u64,
        /// Rows the relation held before the batch.
        rows: usize,
    },
    /// A training entry point was called with no training rows.
    EmptyTrainingSet,
    /// The target relation has rows without labels (or labels without
    /// rows).
    MissingLabels {
        /// Rows in the target relation.
        rows: usize,
        /// Labels supplied.
        labels: usize,
    },
    /// A delta tried to overwrite a key column (primary or foreign key).
    /// Key columns define tuple identity and join structure; rewriting one
    /// in place would silently re-link propagation paths, so deltas must
    /// express that as delete+insert instead (which the delta layer does
    /// not support — keys are immutable once written).
    KeyColumnUpdate {
        /// The relation holding the key column.
        relation: String,
        /// The key attribute the update targeted.
        attribute: String,
    },
    /// CSV parsing / serialization failure, with the file and line (1-based)
    /// when known.
    Csv {
        /// The file (or relation) being read or written, when known.
        file: String,
        /// 1-based line number of the offending row, when known.
        line: Option<usize>,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::ArityMismatch { relation, expected, got } => {
                write!(f, "tuple arity mismatch in `{relation}`: expected {expected}, got {got}")
            }
            DataError::TypeMismatch { relation, attribute, expected } => {
                write!(f, "type mismatch on `{relation}.{attribute}`: expected {expected}")
            }
            DataError::DuplicateKey { relation, key } => {
                write!(f, "duplicate primary key {key} in relation `{relation}`")
            }
            DataError::DanglingForeignKey { relation, attribute, key } => {
                write!(f, "dangling foreign key `{relation}.{attribute}` = {key}")
            }
            DataError::RowOutOfRange { row, num_targets } => {
                write!(f, "target row {row} out of range (target relation has {num_targets} rows)")
            }
            DataError::UpdateRowOutOfRange { relation, row, rows } => write!(
                f,
                "cannot update row {row} of `{relation}`: it held {rows} rows before the batch"
            ),
            DataError::EmptyTrainingSet => write!(f, "training set is empty"),
            DataError::MissingLabels { rows, labels } => {
                write!(f, "target relation has {rows} rows but {labels} labels")
            }
            DataError::KeyColumnUpdate { relation, attribute } => {
                write!(f, "cannot update key column `{relation}.{attribute}`: keys are immutable")
            }
            DataError::Csv { file, line, reason } => match line {
                Some(l) => write!(f, "csv error in {file} line {l}: {reason}"),
                None => write!(f, "csv error in {file}: {reason}"),
            },
        }
    }
}

impl std::error::Error for DataError {}

/// Any error of the relational substrate: a schema problem or a data
/// problem. Match on the category first; the payloads carry the details.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RelationalError {
    /// The database shape is wrong (see [`SchemaError`]).
    Schema(SchemaError),
    /// The database contents are wrong (see [`DataError`]).
    Data(DataError),
}

impl fmt::Display for RelationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationalError::Schema(e) => e.fmt(f),
            RelationalError::Data(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RelationalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RelationalError::Schema(e) => Some(e),
            RelationalError::Data(e) => Some(e),
        }
    }
}

impl From<SchemaError> for RelationalError {
    fn from(e: SchemaError) -> Self {
        RelationalError::Schema(e)
    }
}

impl From<DataError> for RelationalError {
    fn from(e: DataError) -> Self {
        RelationalError::Data(e)
    }
}

impl RelationalError {
    /// The schema error inside, if this is a schema error.
    pub fn as_schema(&self) -> Option<&SchemaError> {
        match self {
            RelationalError::Schema(e) => Some(e),
            RelationalError::Data(_) => None,
        }
    }

    /// The data error inside, if this is a data error.
    pub fn as_data(&self) -> Option<&DataError> {
        match self {
            RelationalError::Data(e) => Some(e),
            RelationalError::Schema(_) => None,
        }
    }
}

/// Convenience alias used across the substrate.
pub type Result<T> = std::result::Result<T, RelationalError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_delegate_to_inner() {
        let e: RelationalError = SchemaError::UnknownRelation("Loan".into()).into();
        assert_eq!(e.to_string(), "unknown relation `Loan`");
        let e: RelationalError = DataError::DuplicateKey { relation: "T".into(), key: 7 }.into();
        assert_eq!(e.to_string(), "duplicate primary key 7 in relation `T`");
    }

    #[test]
    fn categories_are_inspectable() {
        let e: RelationalError = SchemaError::NoTarget.into();
        assert!(e.as_schema().is_some());
        assert!(e.as_data().is_none());
        let e: RelationalError = DataError::EmptyTrainingSet.into();
        assert!(e.as_data().is_some());
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn csv_error_carries_location() {
        let e = DataError::Csv { file: "loan.csv".into(), line: Some(3), reason: "bad".into() };
        assert_eq!(e.to_string(), "csv error in loan.csv line 3: bad");
        let e = DataError::Csv { file: "loan.csv".into(), line: None, reason: "bad".into() };
        assert_eq!(e.to_string(), "csv error in loan.csv: bad");
    }
}
