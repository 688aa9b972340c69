//! The trained CrossMine model and its prediction procedure (§5.3).

use crossmine_relational::{ClassLabel, DataError, Database, JoinGraph, RelationalError, Row};

use crate::clause::Clause;
use crate::evaluate::{evaluate, EvalScratch, FireSink, LabelSink};
use crate::learner::ClauseLearner;
use crate::params::CrossMineParams;

/// The CrossMine classifier (untrained): parameters only.
#[derive(Debug, Clone, Default)]
pub struct CrossMine {
    /// Learner hyper-parameters.
    pub params: CrossMineParams,
}

/// A trained model: one clause set per class (one-vs-rest, §5.3), ranked for
/// prediction, plus the majority class as the fallback.
#[derive(Debug, Clone)]
pub struct CrossMineModel {
    /// All learned clauses across classes, sorted by estimated accuracy
    /// descending — the order they are tried at prediction time.
    pub clauses: Vec<Clause>,
    /// Predicted when no clause fires: the majority training class.
    pub default_label: ClassLabel,
    /// Distinct classes seen at training time.
    pub classes: Vec<ClassLabel>,
}

impl CrossMine {
    /// A classifier with the paper's default parameters.
    pub fn new(params: CrossMineParams) -> Self {
        CrossMine { params }
    }

    /// Trains on the target tuples `train_rows` of `db`. For each class `C`,
    /// tuples of `C` are the positives and all others negatives (§5.3).
    ///
    /// # Errors
    ///
    /// * [`SchemaError::NoTarget`](crossmine_relational::SchemaError::NoTarget)
    ///   when the database has no target relation.
    /// * [`DataError::EmptyTrainingSet`] when `train_rows` is empty.
    /// * [`DataError::MissingLabels`] when the target relation's row and
    ///   label counts disagree.
    /// * [`DataError::RowOutOfRange`] when a training row id is outside the
    ///   target relation.
    pub fn fit(
        &self,
        db: &Database,
        train_rows: &[Row],
    ) -> Result<CrossMineModel, RelationalError> {
        let graph = JoinGraph::build(&db.schema);
        self.fit_with_graph(db, train_rows, &graph)
    }

    /// [`fit`](Self::fit) with a pre-built join graph (avoids rebuilding it
    /// across folds). Same errors as [`fit`](Self::fit).
    pub fn fit_with_graph(
        &self,
        db: &Database,
        train_rows: &[Row],
        graph: &JoinGraph,
    ) -> Result<CrossMineModel, RelationalError> {
        let target = db.target()?;
        if train_rows.is_empty() {
            return Err(DataError::EmptyTrainingSet.into());
        }
        let target_rows = db.relation(target).len();
        if target_rows != db.num_targets() {
            return Err(
                DataError::MissingLabels { rows: target_rows, labels: db.num_targets() }.into()
            );
        }
        check_rows_in_range(train_rows, db.num_targets())?;

        let mut class_counts: Vec<(ClassLabel, usize)> = Vec::new();
        for &r in train_rows {
            let l = db.label(r);
            match class_counts.iter_mut().find(|(c, _)| *c == l) {
                Some((_, n)) => *n += 1,
                None => class_counts.push((l, 1)),
            }
        }
        class_counts.sort_by_key(|&(c, _)| c);
        let classes: Vec<ClassLabel> = class_counts.iter().map(|&(c, _)| c).collect();
        let default_label = class_counts
            .iter()
            .max_by_key(|&&(c, n)| (n, std::cmp::Reverse(c)))
            .map(|&(c, _)| c)
            .unwrap_or(ClassLabel::NEG);

        let mut clauses: Vec<Clause> = Vec::new();
        for &class in &classes {
            let learner = ClauseLearner::new(db, graph, &self.params, class, classes.len());
            clauses.extend(learner.find_clauses(train_rows));
        }
        clauses.sort_by(|a, b| {
            b.accuracy.partial_cmp(&a.accuracy).unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(CrossMineModel { clauses, default_label, classes })
    }
}

/// Validates that every row id indexes the target relation.
pub(crate) fn check_rows_in_range(rows: &[Row], num_targets: usize) -> Result<(), RelationalError> {
    for &r in rows {
        if r.0 as usize >= num_targets {
            return Err(DataError::RowOutOfRange { row: r.0 as u64, num_targets }.into());
        }
    }
    Ok(())
}

impl CrossMineModel {
    /// Predicts the class of each row: the label of the most accurate clause
    /// it satisfies, else the default label (§5.3). Clause satisfaction is
    /// computed with tuple-ID propagation, all rows at once per clause
    /// ([`evaluate`]); a row listed twice gets its label at both slots.
    ///
    /// # Errors
    ///
    /// [`DataError::RowOutOfRange`] when a row id is outside the target
    /// relation of `db`.
    pub fn predict(&self, db: &Database, rows: &[Row]) -> Result<Vec<ClassLabel>, RelationalError> {
        check_rows_in_range(rows, db.num_targets())?;
        let mut sink = LabelSink::new(rows.len());
        let Ok(_) =
            evaluate(&self.clauses, db, &db.schema, rows, &mut sink, &mut EvalScratch::default());
        Ok(sink.labels(&self.clauses, self.default_label))
    }

    /// The distinct rows among `rows` satisfying `clause`, ascending
    /// (exposed for diagnostics and the baselines' shared evaluation).
    pub fn satisfiers(&self, db: &Database, clause: &Clause, rows: &[Row]) -> Vec<Row> {
        let mut sink = FireSink::new(rows.len());
        let clauses = std::slice::from_ref(clause);
        let Ok(_) = evaluate(clauses, db, &db.schema, rows, &mut sink, &mut EvalScratch::default());
        let mut sat: Vec<Row> =
            (0..rows.len()).filter(|&slot| !sink.fired(slot).is_empty()).map(|s| rows[s]).collect();
        sat.sort_unstable();
        sat.dedup();
        sat
    }

    /// Number of learned clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmine_relational::{AttrType, Attribute, DatabaseSchema, RelationSchema, Value};

    /// Single-relation database where c='a' => POS, else NEG.
    fn simple_db(n: u64) -> Database {
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        let mut c = Attribute::new("c", AttrType::Categorical);
        c.intern("a");
        c.intern("b");
        t.add_attribute(c).unwrap();
        let tid = schema.add_relation(t).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        for i in 0..n {
            let code = (i % 2) as u32;
            db.push_row(tid, vec![Value::Key(i), Value::Cat(code)]).unwrap();
            db.push_label(if code == 0 { ClassLabel::POS } else { ClassLabel::NEG });
        }
        db
    }

    #[test]
    fn fit_predict_separable() {
        let db = simple_db(60);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let (train, test): (Vec<Row>, Vec<Row>) = rows.iter().partition(|r| r.0 < 40);
        let model = CrossMine::default().fit(&db, &train).unwrap();
        assert!(model.num_clauses() >= 1);
        let preds = model.predict(&db, &test).unwrap();
        let correct = preds.iter().zip(&test).filter(|(p, r)| **p == db.label(**r)).count();
        assert_eq!(correct, test.len(), "separable data must be classified perfectly");
    }

    #[test]
    fn default_label_is_majority() {
        let mut db = simple_db(10);
        // Make labels 7 NEG / 3 POS regardless of attributes.
        let labels: Vec<ClassLabel> =
            (0..10).map(|i| if i < 3 { ClassLabel::POS } else { ClassLabel::NEG }).collect();
        db.set_labels(labels).unwrap();
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = CrossMine::default().fit(&db, &rows).unwrap();
        assert_eq!(model.default_label, ClassLabel::NEG);
    }

    #[test]
    fn predict_unseen_rows_fall_back_to_default() {
        let db = simple_db(20);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        // Train with an impossible gain threshold: no clauses at all.
        let cm = CrossMine::new(CrossMineParams::builder().min_foil_gain(1e9).build().unwrap());
        let model = cm.fit(&db, &rows).unwrap();
        assert_eq!(model.num_clauses(), 0);
        let preds = model.predict(&db, &rows).unwrap();
        assert!(preds.iter().all(|&p| p == model.default_label));
    }

    /// Regression for the prediction fallback: a model with *no* clauses and
    /// a model whose clauses *cover nothing* must both return
    /// `default_label` for every row, and `satisfiers` must stay consistent
    /// with `predict` on empty batches.
    #[test]
    fn fallback_symmetry_empty_and_uncovering_models() {
        use crate::literal::{ComplexLiteral, Constraint, ConstraintKind};

        let db = simple_db(20);
        let target = db.target().unwrap();
        let rows: Vec<Row> = db.relation(target).iter_rows().collect();

        // 1. Hand-built empty-clause model.
        let empty = CrossMineModel {
            clauses: Vec::new(),
            default_label: ClassLabel::POS,
            classes: vec![ClassLabel::NEG, ClassLabel::POS],
        };
        let preds = empty.predict(&db, &rows).unwrap();
        assert_eq!(preds.len(), rows.len());
        assert!(preds.iter().all(|&p| p == empty.default_label));

        // 2. A model whose single clause covers no row: code 99 was never
        //    interned for `T.c`, so no tuple satisfies the literal.
        let impossible = Clause::new(
            vec![ComplexLiteral::local(Constraint {
                rel: target,
                kind: ConstraintKind::CatEq { attr: crossmine_relational::AttrId(1), value: 99 },
            })],
            ClassLabel::NEG,
            0,
            0.0,
            2,
        );
        let uncovering = CrossMineModel {
            clauses: vec![impossible],
            default_label: ClassLabel::POS,
            classes: vec![ClassLabel::NEG, ClassLabel::POS],
        };
        let preds = uncovering.predict(&db, &rows).unwrap();
        assert!(preds.iter().all(|&p| p == uncovering.default_label));
        // The uncovering clause has no satisfiers, matching predict.
        assert!(uncovering.satisfiers(&db, &uncovering.clauses[0], &rows).is_empty());

        // 3. Empty batches: predict and satisfiers both return empty.
        assert!(empty.predict(&db, &[]).unwrap().is_empty());
        assert!(uncovering.predict(&db, &[]).unwrap().is_empty());
        assert!(uncovering.satisfiers(&db, &uncovering.clauses[0], &[]).is_empty());
    }

    /// `satisfiers` over a whole batch must partition exactly like the
    /// prediction machinery: every row predicted by clause `c` (and no
    /// earlier clause) is a satisfier of `c`.
    #[test]
    fn satisfiers_consistent_with_predict_per_clause() {
        let db = simple_db(40);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = CrossMine::default().fit(&db, &rows).unwrap();
        let preds = model.predict(&db, &rows).unwrap();
        for (ci, clause) in model.clauses.iter().enumerate() {
            let sat = model.satisfiers(&db, clause, &rows);
            for (r, &p) in rows.iter().zip(&preds) {
                let earlier =
                    model.clauses[..ci].iter().any(|c| model.satisfiers(&db, c, &[*r]).contains(r));
                if sat.contains(r) && !earlier {
                    assert_eq!(p, clause.label, "row {} decided by clause {ci}", r.0);
                }
            }
        }
    }

    #[test]
    fn clauses_sorted_by_accuracy() {
        let db = simple_db(60);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = CrossMine::default().fit(&db, &rows).unwrap();
        for w in model.clauses.windows(2) {
            assert!(w[0].accuracy >= w[1].accuracy);
        }
    }

    #[test]
    fn multiclass_three_way() {
        // c in {a,b,c} maps to three classes.
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        let mut c = Attribute::new("c", AttrType::Categorical);
        c.intern("a");
        c.intern("b");
        c.intern("c");
        t.add_attribute(c).unwrap();
        let tid = schema.add_relation(t).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        for i in 0..90u64 {
            let code = (i % 3) as u32;
            db.push_row(tid, vec![Value::Key(i), Value::Cat(code)]).unwrap();
            db.push_label(ClassLabel(code));
        }
        let rows: Vec<Row> = db.relation(tid).iter_rows().collect();
        let model = CrossMine::default().fit(&db, &rows).unwrap();
        assert_eq!(model.classes.len(), 3);
        let preds = model.predict(&db, &rows).unwrap();
        let correct = preds.iter().zip(&rows).filter(|(p, r)| **p == db.label(**r)).count();
        assert_eq!(correct, rows.len());
    }

    #[test]
    fn satisfiers_match_prediction_machinery() {
        let db = simple_db(20);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = CrossMine::default().fit(&db, &rows).unwrap();
        let pos_clause =
            model.clauses.iter().find(|c| c.label == ClassLabel::POS).expect("positive clause");
        let sat = model.satisfiers(&db, pos_clause, &rows);
        assert_eq!(sat.len(), 10);
        assert!(sat.iter().all(|r| db.label(*r) == ClassLabel::POS));
    }

    #[test]
    fn fit_rejects_empty_training_set() {
        let db = simple_db(10);
        let err = CrossMine::default().fit(&db, &[]).unwrap_err();
        assert!(matches!(err, RelationalError::Data(DataError::EmptyTrainingSet)));
    }

    #[test]
    fn fit_rejects_out_of_range_rows() {
        let db = simple_db(10);
        let err = CrossMine::default().fit(&db, &[Row(10)]).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::Data(DataError::RowOutOfRange { row: 10, num_targets: 10 })
        ));
    }

    #[test]
    fn fit_rejects_missing_target() {
        use crossmine_relational::SchemaError;
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        schema.add_relation(t).unwrap();
        // No set_target: Database::new with a target-less schema is itself an
        // error, so build via the schema that lacks a target.
        let err = Database::new(schema).map(|db| CrossMine::default().fit(&db, &[Row(0)]));
        match err {
            Err(e) => {
                assert!(matches!(e, RelationalError::Schema(SchemaError::NoTarget)))
            }
            Ok(inner) => {
                assert!(matches!(
                    inner.unwrap_err(),
                    RelationalError::Schema(SchemaError::NoTarget)
                ))
            }
        }
    }

    #[test]
    fn predict_rejects_out_of_range_rows() {
        let db = simple_db(10);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = CrossMine::default().fit(&db, &rows).unwrap();
        let err = model.predict(&db, &[Row(99)]).unwrap_err();
        assert!(matches!(err, RelationalError::Data(DataError::RowOutOfRange { row: 99, .. })));
    }

    #[test]
    fn fit_rejects_unlabeled_rows() {
        let mut db = simple_db(10);
        let tid = db.target().unwrap();
        // An extra target row without a matching label.
        db.push_row(tid, vec![Value::Key(10), Value::Cat(0)]).unwrap();
        let err = CrossMine::default().fit(&db, &[Row(0)]).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::Data(DataError::MissingLabels { rows: 11, labels: 10 })
        ));
    }
}
