//! FOIL (Quinlan & Cameron-Jones) reimplemented as the paper's baseline.
//!
//! A top-down sequential covering learner that — unlike CrossMine —
//! evaluates every candidate literal by **physically joining** the current
//! clause's binding table with the candidate relation (§2, §4.1). The
//! covering loop and stopping criteria mirror CrossMine's (same foil gain,
//! same Laplace accuracy), so measured differences isolate the evaluation
//! strategy: tuple-ID propagation vs. join materialization.

use std::time::{Duration, Instant};

use crossmine_core::gain::laplace_accuracy;
use crossmine_core::idset::Stamp;
use crossmine_relational::{BindingTable, ClassLabel, Database, JoinGraph, Row};

use crate::common::{
    apply_candidate, best_candidate, positivity, table_class_counts, Candidate, CandidateSpace,
};

/// FOIL hyper-parameters, aligned with CrossMine's for comparability.
#[derive(Debug, Clone)]
pub struct FoilParams {
    /// Minimum foil gain to append a literal.
    pub min_gain: f64,
    /// Maximum literals per clause.
    pub max_clause_length: usize,
    /// Covering stops when positives drop to this fraction.
    pub min_pos_fraction: f64,
    /// Safety cap on clauses per class.
    pub max_clauses: usize,
    /// Wall-clock budget for training (the paper cuts runs at 10 hours);
    /// `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Which joins the refinement operator considers (see
    /// [`CandidateSpace`]); the historical default is untyped keys.
    pub space: CandidateSpace,
}

impl Default for FoilParams {
    fn default() -> Self {
        FoilParams {
            min_gain: 2.5,
            max_clause_length: 6,
            min_pos_fraction: 0.1,
            max_clauses: 1000,
            timeout: None,
            space: CandidateSpace::default(),
        }
    }
}

/// One FOIL clause: a sequence of refinements plus prediction metadata.
#[derive(Debug, Clone)]
pub struct FoilClause {
    /// The refinements, in order. Slot indices refer to the binding table
    /// built by replaying the sequence from the target relation.
    pub steps: Vec<Candidate>,
    /// Predicted class.
    pub label: ClassLabel,
    /// Positive training support.
    pub sup_pos: usize,
    /// Negative training support.
    pub sup_neg: usize,
    /// Laplace accuracy estimate.
    pub accuracy: f64,
}

/// The FOIL classifier.
#[derive(Debug, Clone, Default)]
pub struct Foil {
    /// Hyper-parameters.
    pub params: FoilParams,
}

/// A trained FOIL model.
#[derive(Debug, Clone)]
pub struct FoilModel {
    /// All clauses across classes, sorted by accuracy descending.
    pub clauses: Vec<FoilClause>,
    /// Fallback label.
    pub default_label: ClassLabel,
    /// Whether training hit the timeout (results may be partial).
    pub timed_out: bool,
}

impl Foil {
    /// A FOIL learner with the given parameters.
    pub fn new(params: FoilParams) -> Self {
        Foil { params }
    }

    /// Trains on the target rows `train_rows` of `db`.
    pub fn fit(&self, db: &Database, train_rows: &[Row]) -> FoilModel {
        let graph = JoinGraph::build(&db.schema);
        let start = Instant::now();
        let deadline = self.params.timeout.map(|t| start + t);
        let in_budget = || deadline.map(|d| Instant::now() < d).unwrap_or(true);

        let mut class_counts: Vec<(ClassLabel, usize)> = Vec::new();
        for &r in train_rows {
            let l = db.label(r);
            match class_counts.iter_mut().find(|(c, _)| *c == l) {
                Some((_, n)) => *n += 1,
                None => class_counts.push((l, 1)),
            }
        }
        class_counts.sort_by_key(|&(c, _)| c);
        let default_label = class_counts
            .iter()
            .max_by_key(|&&(c, n)| (n, std::cmp::Reverse(c)))
            .map(|&(c, _)| c)
            .unwrap_or(ClassLabel::NEG);
        let num_classes = class_counts.len().max(2);

        let target = db.target().expect("database must have a target");
        let mut stamp = Stamp::new(db.num_targets());
        let mut clauses: Vec<FoilClause> = Vec::new();
        let mut timed_out = false;

        'classes: for &(class, _) in &class_counts {
            let is_pos = positivity(db, class);
            let mut remaining: Vec<Row> = train_rows.to_vec();
            let orig_pos = remaining.iter().filter(|r| is_pos[r.0 as usize]).count();
            let mut covered_pos = 0usize;

            while (orig_pos - covered_pos) as f64 > self.params.min_pos_fraction * orig_pos as f64
                && clauses.len() < self.params.max_clauses
            {
                if !in_budget() {
                    timed_out = true;
                    break 'classes;
                }
                let mut table = BindingTable::from_targets(target, remaining.iter().copied());
                let mut steps: Vec<Candidate> = Vec::new();
                while let Some(best) = best_candidate(
                    db,
                    &graph,
                    self.params.space,
                    &table,
                    &is_pos,
                    &mut stamp,
                    in_budget,
                ) {
                    if best.gain < self.params.min_gain {
                        break;
                    }
                    table = apply_candidate(db, &table, &best.candidate);
                    steps.push(best.candidate);
                    if steps.len() >= self.params.max_clause_length || !in_budget() {
                        break;
                    }
                }
                if steps.is_empty() {
                    break;
                }
                let (sup_pos, sup_neg) = table_class_counts(&table, &is_pos, &mut stamp);
                if sup_pos == 0 {
                    break;
                }
                let covered = table.distinct_targets();
                clauses.push(FoilClause {
                    steps,
                    label: class,
                    sup_pos,
                    sup_neg,
                    accuracy: laplace_accuracy(sup_pos, sup_neg as f64, num_classes),
                });
                // Remove covered positives; negatives stay (Algorithm 1).
                let covered_set: std::collections::HashSet<u32> =
                    covered.iter().map(|r| r.0).collect();
                remaining.retain(|r| {
                    let hit = covered_set.contains(&r.0) && is_pos[r.0 as usize];
                    if hit {
                        covered_pos += 1;
                    }
                    !hit
                });
            }
        }

        clauses.sort_by(|a, b| {
            b.accuracy.partial_cmp(&a.accuracy).unwrap_or(std::cmp::Ordering::Equal)
        });
        FoilModel { clauses, default_label, timed_out }
    }
}

impl FoilModel {
    /// Predicts by the most accurate satisfied clause, evaluated with
    /// physical joins (replaying each clause's refinement sequence).
    pub fn predict(&self, db: &Database, rows: &[Row]) -> Vec<ClassLabel> {
        let target = db.target().expect("database must have a target");
        // Labels are per row, then fanned out to every slot holding it, so
        // a row listed twice gets the same label at both slots.
        let mut label_of: Vec<Option<ClassLabel>> = vec![None; db.num_targets()];
        let mut unassigned: Vec<Row> = rows.to_vec();
        unassigned.sort_unstable();
        unassigned.dedup();
        for clause in &self.clauses {
            if unassigned.is_empty() {
                break;
            }
            let mut table = BindingTable::from_targets(target, unassigned.iter().copied());
            for step in &clause.steps {
                table = apply_candidate(db, &table, step);
                if table.is_empty() {
                    break;
                }
            }
            let satisfied = table.distinct_targets();
            if satisfied.is_empty() {
                continue;
            }
            for r in &satisfied {
                label_of[r.0 as usize].get_or_insert(clause.label);
            }
            unassigned.retain(|r| label_of[r.0 as usize].is_none());
        }
        rows.iter().map(|r| label_of[r.0 as usize].unwrap_or(self.default_label)).collect()
    }
}

impl crossmine_core::RelationalClassifier for Foil {
    fn train_predict(
        &self,
        db: &Database,
        train_rows: &[Row],
        test_rows: &[Row],
    ) -> Vec<ClassLabel> {
        let model = self.fit(db, train_rows);
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
        let mut s = RelationSchema::new("S");
        s.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        s.add_attribute(Attribute::new("t_id", AttrType::ForeignKey { target: "T".into() }))
            .unwrap();
        let mut d = Attribute::new("d", AttrType::Categorical);
        d.intern("x");
        d.intern("y");
        s.add_attribute(d).unwrap();
        let tid = schema.add_relation(t).unwrap();
        let sid = schema.add_relation(s).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        for i in 0..n {
            // class determined by the S relation's attribute, one join away.
            let pos = i % 2 == 0;
            db.push_row(tid, vec![Value::Key(i), Value::Cat(0)]).unwrap();
            db.push_label(if pos { ClassLabel::POS } else { ClassLabel::NEG });
            db.push_row(sid, vec![Value::Key(i), Value::Key(i), Value::Cat(pos as u32)]).unwrap();
        }
        db
    }

    #[test]
    fn learns_one_join_away() {
        let db = simple_db(40);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = Foil::default().fit(&db, &rows);
        assert!(!model.clauses.is_empty());
        assert!(!model.timed_out);
        let preds = model.predict(&db, &rows);
        let correct = preds.iter().zip(&rows).filter(|(p, r)| **p == db.label(**r)).count();
        assert_eq!(correct, rows.len(), "separable-one-join data must be perfect");
    }

    #[test]
    fn respects_timeout() {
        let db = simple_db(40);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let params = FoilParams { timeout: Some(Duration::ZERO), ..Default::default() };
        let model = Foil::new(params).fit(&db, &rows);
        assert!(model.timed_out);
        // Prediction still works (falls back to default).
        let preds = model.predict(&db, &rows);
        assert_eq!(preds.len(), rows.len());
    }

    #[test]
    fn clause_metadata_consistent() {
        let db = simple_db(60);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = Foil::default().fit(&db, &rows);
        for c in &model.clauses {
            assert!(c.sup_pos > 0);
            assert!(c.accuracy > 0.0 && c.accuracy <= 1.0);
            assert!(c.steps.len() <= FoilParams::default().max_clause_length);
        }
        for w in model.clauses.windows(2) {
            assert!(w[0].accuracy >= w[1].accuracy);
        }
    }

    #[test]
    fn noise_produces_no_clauses() {
        let mut db = simple_db(40);
        // Scramble labels so nothing correlates.
        let labels: Vec<ClassLabel> = (0..40)
            .map(|i| if (i / 2) % 2 == 0 { ClassLabel::POS } else { ClassLabel::NEG })
            .collect();
        db.set_labels(labels).unwrap();
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = Foil::default().fit(&db, &rows);
        // The S signal is gone; any clause found must be weak/absent.
        for c in &model.clauses {
            assert!(c.sup_pos + c.sup_neg < 40);
        }
    }
}
