//! Propositionalization: CrossMine clauses as features (§9's future work).
//!
//! The paper closes with: "it is interesting to study how to integrate
//! CrossMine methodology with other classification methods (such as SVM,
//! Neural Networks, and k-nearest neighbors) in the multi-relational
//! environment". This module implements that bridge: every learned clause
//! becomes a binary feature (does the target tuple satisfy it?), turning a
//! multi-relational problem into a flat one that any statistical learner
//! can consume — here demonstrated with the bundled logistic regression
//! ([`crate::logistic`]) as [`CrossMineHybrid`].

use crossmine_relational::{ClassLabel, Database, Row};

use crate::classifier::{CrossMine, CrossMineModel};
use crate::eval::RelationalClassifier;
use crate::evaluate::{evaluate, EvalScratch, FireSink};
use crate::logistic::LogisticRegression;
use crate::params::CrossMineParams;

/// Builds the clause-indicator feature matrix for `rows`: one row per
/// target tuple, one 0/1 column per clause of `model` (clause order).
pub fn propositionalize(model: &CrossMineModel, db: &Database, rows: &[Row]) -> Vec<Vec<f64>> {
    let mut sink = FireSink::new(rows.len());
    let Ok(_) =
        evaluate(&model.clauses, db, &db.schema, rows, &mut sink, &mut EvalScratch::default());
    (0..rows.len())
        .map(|slot| {
            let mut features = vec![0.0; model.clauses.len()];
            for &ci in sink.fired(slot) {
                features[ci] = 1.0;
            }
            features
        })
        .collect()
}

/// The §9 hybrid: CrossMine learns the clauses, a logistic regression
/// weighs them. Binary problems only (the positive class is the largest
/// label, as elsewhere).
#[derive(Debug, Clone)]
pub struct CrossMineHybrid {
    /// Parameters of the underlying clause learner.
    pub params: CrossMineParams,
    /// Gradient-descent epochs for the logistic head.
    pub epochs: usize,
    /// Learning rate for the logistic head.
    pub learning_rate: f64,
}

impl Default for CrossMineHybrid {
    fn default() -> Self {
        CrossMineHybrid { params: CrossMineParams::default(), epochs: 200, learning_rate: 0.5 }
    }
}

/// A trained hybrid model.
#[derive(Debug, Clone)]
pub struct CrossMineHybridModel {
    /// The clause set providing the features.
    pub clauses: CrossMineModel,
    /// The logistic head over clause indicators.
    pub head: LogisticRegression,
    /// The label predicted at probability ≥ 0.5.
    pub pos_label: ClassLabel,
    /// The other label.
    pub neg_label: ClassLabel,
}

impl CrossMineHybrid {
    /// Trains clauses then the logistic head on their indicators.
    ///
    /// # Errors
    ///
    /// Same validation as [`CrossMine::fit`]: no target relation, empty
    /// training set, unlabeled or out-of-range rows.
    pub fn fit(
        &self,
        db: &Database,
        train_rows: &[Row],
    ) -> Result<CrossMineHybridModel, crossmine_relational::RelationalError> {
        let clauses = CrossMine::new(self.params.clone()).fit(db, train_rows)?;
        let mut labels: Vec<ClassLabel> = train_rows.iter().map(|&r| db.label(r)).collect();
        labels.sort();
        labels.dedup();
        let pos_label = labels.last().copied().unwrap_or(ClassLabel::POS);
        let neg_label = labels.first().copied().unwrap_or(ClassLabel::NEG);

        let x = propositionalize(&clauses, db, train_rows);
        let y: Vec<f64> =
            train_rows.iter().map(|&r| if db.label(r) == pos_label { 1.0 } else { 0.0 }).collect();
        let mut head = LogisticRegression::new(clauses.clauses.len());
        head.fit(&x, &y, self.epochs, self.learning_rate);
        Ok(CrossMineHybridModel { clauses, head, pos_label, neg_label })
    }
}

impl CrossMineHybridModel {
    /// Predicted probability of the positive class for each row.
    pub fn predict_proba(&self, db: &Database, rows: &[Row]) -> Vec<f64> {
        let x = propositionalize(&self.clauses, db, rows);
        x.iter().map(|f| self.head.predict_proba(f)).collect()
    }

    /// Hard predictions at the 0.5 threshold.
    pub fn predict(&self, db: &Database, rows: &[Row]) -> Vec<ClassLabel> {
        self.predict_proba(db, rows)
            .into_iter()
            .map(|p| if p >= 0.5 { self.pos_label } else { self.neg_label })
            .collect()
    }
}

impl RelationalClassifier for CrossMineHybrid {
    fn train_predict(
        &self,
        db: &Database,
        train_rows: &[Row],
        test_rows: &[Row],
    ) -> Vec<ClassLabel> {
        // The trait is infallible by design (harness code hands it validated
        // folds); the inherent `fit` validates and returns `Result`.
        let model = self.fit(db, train_rows).expect("cross-validation folds are valid rows");
        model.predict(db, test_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmine_relational::{AttrType, Attribute, DatabaseSchema, RelationSchema, Value};

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
            db.push_row(tid, vec![Value::Key(i), Value::Cat((i % 2) as u32)]).unwrap();
            db.push_label(if i % 2 == 0 { ClassLabel::POS } else { ClassLabel::NEG });
        }
        db
    }

    #[test]
    fn features_are_clause_indicators() {
        let db = simple_db(40);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = CrossMine::default().fit(&db, &rows).unwrap();
        let x = propositionalize(&model, &db, &rows);
        assert_eq!(x.len(), rows.len());
        for (i, feats) in x.iter().enumerate() {
            assert_eq!(feats.len(), model.clauses.len());
            for (j, clause) in model.clauses.iter().enumerate() {
                let satisfied = model.satisfiers(&db, clause, &rows).contains(&rows[i]);
                assert_eq!(feats[j] == 1.0, satisfied, "row {i} clause {j}");
            }
        }
    }

    #[test]
    fn hybrid_solves_separable_data() {
        let db = simple_db(60);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let (train, test): (Vec<Row>, Vec<Row>) = rows.iter().partition(|r| r.0 % 3 != 0);
        let model = CrossMineHybrid::default().fit(&db, &train).unwrap();
        let preds = model.predict(&db, &test);
        let correct = preds.iter().zip(&test).filter(|(p, r)| **p == db.label(**r)).count();
        assert_eq!(correct, test.len());
    }

    #[test]
    fn probabilities_are_calibrated_direction() {
        let db = simple_db(60);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = CrossMineHybrid::default().fit(&db, &rows).unwrap();
        let probs = model.predict_proba(&db, &rows);
        for (r, p) in rows.iter().zip(&probs) {
            if db.label(*r) == ClassLabel::POS {
                assert!(*p > 0.5, "positive row should get p > 0.5, got {p}");
            } else {
                assert!(*p < 0.5, "negative row should get p < 0.5, got {p}");
            }
        }
    }

    #[test]
    fn hybrid_with_no_clauses_falls_back_to_prior() {
        let db = simple_db(20);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let hybrid = CrossMineHybrid {
            params: CrossMineParams::builder().min_foil_gain(1e9).build().unwrap(),
            ..Default::default()
        };
        let model = hybrid.fit(&db, &rows).unwrap();
        assert_eq!(model.clauses.num_clauses(), 0);
        // With no features the head predicts the bias; predictions are a
        // single constant class.
        let preds = model.predict(&db, &rows);
        assert!(preds.windows(2).all(|w| w[0] == w[1]));
    }
}
