//! # crossmine-relational
//!
//! The in-memory multi-relational database substrate underneath the
//! [CrossMine](https://doi.org/10.1109/ICDE.2004.1320014) reproduction.
//!
//! A [`Database`] is a set of relations linked by primary/foreign keys, one
//! of which is the *target relation* whose tuples carry class labels
//! (CrossMine §3.1). The substrate provides:
//!
//! * typed schemas with interned categorical dictionaries ([`schema`]),
//! * columnar tuple storage ([`relation`]),
//! * hash indexes on key columns and sorted indexes on numerical columns
//!   ([`index`]),
//! * the §3.1 join graph — pk–fk joins and fk–fk joins sharing a primary key
//!   ([`joins`]),
//! * physical joins via binding tables, used by the FOIL/TILDE baselines
//!   ([`physical`]),
//! * the read-only [`TupleSource`] the clause evaluator runs over
//!   ([`source`]), and
//! * plain-text persistence ([`csv`]).
//!
//! ```
//! use crossmine_relational::{
//!     Attribute, AttrType, Database, DatabaseSchema, RelationSchema, Value, ClassLabel,
//! };
//!
//! let mut schema = DatabaseSchema::new();
//! let mut loan = RelationSchema::new("Loan");
//! loan.add_attribute(Attribute::new("loan_id", AttrType::PrimaryKey)).unwrap();
//! loan.add_attribute(Attribute::new("amount", AttrType::Numerical)).unwrap();
//! let loan_id = schema.add_relation(loan).unwrap();
//! schema.set_target(loan_id);
//!
//! let mut db = Database::new(schema).unwrap();
//! db.push_row(loan_id, vec![Value::Key(1), Value::Num(1000.0)]).unwrap();
//! db.push_label(ClassLabel::POS);
//! assert_eq!(db.num_targets(), 1);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod csv;
pub mod database;
pub mod delta;
pub mod display;
pub mod error;
pub mod fixtures;
pub mod index;
pub mod joins;
pub mod physical;
pub mod relation;
pub mod schema;
pub mod source;
pub mod stats;
pub mod value;

pub use builder::DatabaseBuilder;
pub use csv::LoadOptions;
pub use database::Database;
pub use delta::{DeltaBatch, DeltaOp, DeltaOverlay, MergedKeys, MergedView};
pub use error::{DataError, RelationalError, Result, SchemaError};
pub use index::{KeyIndex, SortedIndex};
pub use joins::{JoinEdge, JoinGraph, JoinKind};
pub use physical::BindingTable;
pub use relation::{Relation, Row};
pub use schema::{AttrId, Attribute, DatabaseSchema, RelId, RelationSchema};
pub use source::{KeyLookup, TupleSource};
pub use value::{AttrType, ClassLabel, Value};
