//! # crossmine-core
//!
//! A from-scratch Rust implementation of **CrossMine** (Yin, Han, Yang, Yu —
//! *CrossMine: Efficient Classification Across Multiple Database Relations*,
//! ICDE 2004): an efficient, scalable multi-relational classifier built on
//! **tuple-ID propagation**.
//!
//! Instead of physically joining relations to evaluate candidate literals
//! (the FOIL/TILDE cost model), CrossMine propagates the IDs of the target
//! tuples — together with their class labels — along primary-/foreign-key
//! join edges ([`propagation`]). Every literal in a reached relation can
//! then be scored by foil gain ([`gain`], [`search`]) from the propagated
//! IDs alone. Clauses of *complex literals* (join path + constraint,
//! [`literal`]) are grown greedily with look-one-ahead ([`learner`]), and
//! imbalanced problems are handled by negative-tuple sampling with a safe
//! accuracy estimator ([`sampling`]). Prediction is one clause evaluator
//! ([`evaluate`]) over any read-only
//! [`TupleSource`](crossmine_relational::TupleSource).
//!
//! ```
//! use crossmine_core::{CrossMine, eval::{cross_validate, RelationalClassifier}};
//! # use crossmine_relational::{Attribute, AttrType, Database, DatabaseSchema,
//! #     RelationSchema, Value, ClassLabel, Row};
//! # let mut schema = DatabaseSchema::new();
//! # let mut t = RelationSchema::new("T");
//! # t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
//! # let mut c = Attribute::new("c", AttrType::Categorical);
//! # c.intern("a"); c.intern("b");
//! # t.add_attribute(c).unwrap();
//! # let tid = schema.add_relation(t).unwrap();
//! # schema.set_target(tid);
//! # let mut db = Database::new(schema).unwrap();
//! # for i in 0..40u64 {
//! #     db.push_row(tid, vec![Value::Key(i), Value::Cat((i % 2) as u32)]).unwrap();
//! #     db.push_label(if i % 2 == 0 { ClassLabel::POS } else { ClassLabel::NEG });
//! # }
//! let clf = CrossMine::default();
//! let result = cross_validate(&clf, &db, 10, 42, 10);
//! assert!(result.mean_accuracy() > 0.99);
//! ```

#![warn(missing_docs)]

pub mod classifier;
pub mod clause;
pub mod eval;
pub mod evaluate;
pub mod explain;
pub mod features;
mod frontier;
pub mod gain;
pub mod idset;
pub mod learner;
pub mod literal;
pub mod logistic;
pub mod metrics;
pub mod model_io;
pub mod params;
pub mod propagation;
pub mod pruning;
pub mod sampling;
pub mod search;
pub mod stats;

pub use classifier::{CrossMine, CrossMineModel};
pub use clause::Clause;
pub use eval::{cross_validate, CvResult, RelationalClassifier};
pub use evaluate::{evaluate, EvalScratch, FireSink, LabelSink, Sink};
pub use features::{propositionalize, CrossMineHybrid, CrossMineHybridModel};
pub use idset::{IdSet, Stamp, TargetSet};
pub use learner::{ClauseLearner, ScoredLiteral, SearchScratch};
pub use literal::{AggOp, CmpOp, ComplexLiteral, Constraint, ConstraintKind};
pub use metrics::ConfusionMatrix;
pub use params::{CrossMineParams, CrossMineParamsBuilder, ParamError};
pub use propagation::{
    propagate, try_propagate, AnnView, Annotation, ClauseState, PathScratch, PropStats,
    PropagationScratch,
};
pub use pruning::{fit_with_pruning, prune, PruneConfig};
pub use stats::{CacheStats, CachedEntry, PathKey, SourceSig, StatsCache};
