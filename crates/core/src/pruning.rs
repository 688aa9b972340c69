//! Reduced-error pruning of clause sets on a validation split.
//!
//! The paper notes (§9) that CrossMine "is still a greedy algorithm" —
//! greedy clause growth can overfit trailing literals, and Laplace accuracy
//! estimated on training data can overrank lucky clauses. This extension
//! applies the classic rule-learning remedy:
//!
//! 1. **literal truncation** — for every clause, keep the shortest literal
//!    prefix whose *validation* accuracy is maximal, and
//! 2. **clause filtering** — drop clauses whose validation accuracy does not
//!    beat predicting the majority class outright,
//!
//! then re-rank the survivors by validated accuracy.

use crossmine_relational::{Database, Row};

use crate::classifier::CrossMineModel;
use crate::clause::Clause;
use crate::gain::laplace_accuracy;

/// Pruning configuration.
#[derive(Debug, Clone)]
pub struct PruneConfig {
    /// Truncate trailing literals when a prefix validates at least as well.
    pub truncate_literals: bool,
    /// Drop clauses validating at or below the majority-class rate.
    pub drop_weak_clauses: bool,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig { truncate_literals: true, drop_weak_clauses: true }
    }
}

/// Coverage `(correct, wrong)` of `clause`'s first `prefix_len` literals on
/// the validation rows.
fn prefix_coverage(
    model: &CrossMineModel,
    db: &Database,
    clause: &Clause,
    prefix_len: usize,
    rows: &[Row],
) -> (usize, usize) {
    let mut prefix = clause.clone();
    prefix.literals.truncate(prefix_len);
    let covered = model.satisfiers(db, &prefix, rows);
    let pos = covered.iter().filter(|&&r| db.label(r) == clause.label).count();
    (pos, covered.len() - pos)
}

/// Prunes `model` against `validation_rows` (held out from training).
/// Returns a new model; the input is unchanged.
pub fn prune(
    model: &CrossMineModel,
    db: &Database,
    validation_rows: &[Row],
    config: &PruneConfig,
) -> CrossMineModel {
    let num_classes = model.classes.len().max(2);

    // Majority rate on validation = the bar a clause must beat.
    let majority = validation_rows.iter().filter(|r| db.label(**r) == model.default_label).count()
        as f64
        / validation_rows.len().max(1) as f64;

    let mut pruned: Vec<Clause> = Vec::new();
    for clause in &model.clauses {
        // Find the best prefix by validated Laplace accuracy.
        let mut best_len = clause.literals.len();
        let mut best_acc = {
            let (p, n) = prefix_coverage(model, db, clause, best_len, validation_rows);
            laplace_accuracy(p, n as f64, num_classes)
        };
        if config.truncate_literals {
            for len in 1..clause.literals.len() {
                let (p, n) = prefix_coverage(model, db, clause, len, validation_rows);
                let acc = laplace_accuracy(p, n as f64, num_classes);
                // Strictly better, or equal with fewer literals.
                if acc > best_acc {
                    best_acc = acc;
                    best_len = len;
                }
            }
        }
        if config.drop_weak_clauses && best_acc <= majority && clause.label == model.default_label {
            // Predicting the default label with less confidence than the
            // prior adds nothing.
            continue;
        }
        if config.drop_weak_clauses {
            let (p, n) = prefix_coverage(model, db, clause, best_len, validation_rows);
            if p == 0 && n > 0 {
                continue; // only wrong on validation
            }
        }
        let mut c = clause.clone();
        c.literals.truncate(best_len);
        c.accuracy = best_acc;
        pruned.push(c);
    }
    pruned.sort_by(|a, b| b.accuracy.partial_cmp(&a.accuracy).unwrap_or(std::cmp::Ordering::Equal));
    CrossMineModel {
        clauses: pruned,
        default_label: model.default_label,
        classes: model.classes.clone(),
    }
}

/// Convenience: split `rows` into train/validation by `validation_fraction`
/// (deterministic striping by row id), fit, prune, return the pruned model.
///
/// # Errors
///
/// Same validation as [`CrossMine::fit`](crate::classifier::CrossMine::fit);
/// note the training half of the split must be non-empty.
pub fn fit_with_pruning(
    clf: &crate::classifier::CrossMine,
    db: &Database,
    rows: &[Row],
    validation_fraction: f64,
    config: &PruneConfig,
) -> Result<CrossMineModel, crossmine_relational::RelationalError> {
    assert!((0.0..1.0).contains(&validation_fraction));
    let stride = (1.0 / validation_fraction.max(1e-9)).round().max(2.0) as u32;
    let (validation, train): (Vec<Row>, Vec<Row>) = rows.iter().partition(|r| r.0 % stride == 0);
    let model = clf.fit(db, &train)?;
    Ok(prune(&model, db, &validation, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::CrossMine;
    use crate::literal::{CmpOp, ComplexLiteral, Constraint, ConstraintKind};
    use crossmine_relational::{
        AttrType, Attribute, ClassLabel, DatabaseSchema, RelationSchema, Value,
    };

    /// c decides the class; x is pure noise that greedy growth may latch on.
    fn db(n: u64) -> Database {
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        let mut c = Attribute::new("c", AttrType::Categorical);
        c.intern("a");
        c.intern("b");
        t.add_attribute(c).unwrap();
        t.add_attribute(Attribute::new("x", AttrType::Numerical)).unwrap();
        let tid = schema.add_relation(t).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        for i in 0..n {
            let pos = i % 2 == 0;
            db.push_row(
                tid,
                vec![Value::Key(i), Value::Cat(pos as u32), Value::Num(((i * 37) % 101) as f64)],
            )
            .unwrap();
            db.push_label(if pos { ClassLabel::POS } else { ClassLabel::NEG });
        }
        db
    }

    #[test]
    fn pruning_truncates_overfit_literals() {
        let database = db(60);
        let tid = database.target().unwrap();
        // Hand-build an overfit clause: the true literal (c = POS-code) plus
        // a noise literal that narrows coverage on validation.
        let good = ComplexLiteral::local(Constraint {
            rel: tid,
            kind: ConstraintKind::CatEq { attr: crossmine_relational::AttrId(1), value: 1 },
        });
        let noise = ComplexLiteral::local(Constraint {
            rel: tid,
            kind: ConstraintKind::Num {
                attr: crossmine_relational::AttrId(2),
                op: CmpOp::Le,
                threshold: 40.0,
            },
        });
        let clause = Clause::new(vec![good, noise], ClassLabel::POS, 10, 0.0, 2);
        let model = CrossMineModel {
            clauses: vec![clause],
            default_label: ClassLabel::NEG,
            classes: vec![ClassLabel::NEG, ClassLabel::POS],
        };
        let rows: Vec<Row> = database.relation(tid).iter_rows().collect();
        let pruned = prune(&model, &database, &rows, &PruneConfig::default());
        assert_eq!(pruned.clauses.len(), 1);
        assert_eq!(
            pruned.clauses[0].len(),
            1,
            "the noise literal must be truncated: {}",
            pruned.clauses[0].display(&database.schema)
        );
    }

    #[test]
    fn pruning_drops_validation_hostile_clauses() {
        let database = db(60);
        let tid = database.target().unwrap();
        // A clause that is simply wrong: predicts POS for c = NEG-code.
        let wrong = Clause::new(
            vec![ComplexLiteral::local(Constraint {
                rel: tid,
                kind: ConstraintKind::CatEq { attr: crossmine_relational::AttrId(1), value: 0 },
            })],
            ClassLabel::POS,
            5,
            0.0,
            2,
        );
        let model = CrossMineModel {
            clauses: vec![wrong],
            default_label: ClassLabel::NEG,
            classes: vec![ClassLabel::NEG, ClassLabel::POS],
        };
        let rows: Vec<Row> = database.relation(tid).iter_rows().collect();
        let pruned = prune(&model, &database, &rows, &PruneConfig::default());
        assert!(pruned.clauses.is_empty(), "a 0-precision clause must be dropped");
    }

    #[test]
    fn pruned_model_still_predicts_well() {
        let database = db(120);
        let tid = database.target().unwrap();
        let rows: Vec<Row> = database.relation(tid).iter_rows().collect();
        let pruned = fit_with_pruning(
            &CrossMine::default(),
            &database,
            &rows,
            0.25,
            &PruneConfig::default(),
        )
        .unwrap();
        let test: Vec<Row> = rows.iter().copied().filter(|r| r.0 % 5 == 1).collect();
        let preds = pruned.predict(&database, &test).unwrap();
        let correct = preds.iter().zip(&test).filter(|(p, r)| **p == database.label(**r)).count();
        assert_eq!(correct, test.len(), "separable data survives pruning perfectly");
    }

    #[test]
    fn disabled_config_is_identity_modulo_rescoring() {
        let database = db(60);
        let tid = database.target().unwrap();
        let rows: Vec<Row> = database.relation(tid).iter_rows().collect();
        let model = CrossMine::default().fit(&database, &rows).unwrap();
        let config = PruneConfig { truncate_literals: false, drop_weak_clauses: false };
        let pruned = prune(&model, &database, &rows, &config);
        assert_eq!(pruned.clauses.len(), model.clauses.len());
        for (a, b) in model.clauses.iter().zip(&pruned.clauses) {
            assert_eq!(a.len(), b.len());
        }
    }
}
