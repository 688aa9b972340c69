//! Model introspection: which relations and attributes the learned clauses
//! use, per-clause coverage on a dataset, per-prediction provenance
//! ([`RowExplanation`]), and a text report. CrossMine's clauses are its
//! main interpretability asset — this module turns a [`CrossMineModel`]
//! into something a domain expert can read, and each individual prediction
//! into a record of *why*: which clauses fired, which literals matched
//! along which prop-paths, and what the winning clause's training-time
//! accuracy was.

use std::collections::BTreeMap;

use crossmine_relational::{ClassLabel, Database, Row};

use crate::classifier::{check_rows_in_range, CrossMineModel};
use crate::evaluate::{evaluate, EvalScratch, FireSink};
use crate::literal::ConstraintKind;

/// How often the model's clauses touch each relation/attribute.
#[derive(Debug, Clone, Default)]
pub struct FeatureUsage {
    /// `(relation, attribute)` -> number of literals constraining it.
    pub constraints: BTreeMap<(String, String), usize>,
    /// Relation -> number of times it appears on a prop-path.
    pub path_relations: BTreeMap<String, usize>,
    /// Literal shape counts: (categorical, numerical, aggregation).
    pub literal_kinds: (usize, usize, usize),
    /// Prop-path length histogram: counts of 0-, 1- and 2-edge paths.
    pub path_lengths: [usize; 3],
}

/// Computes [`FeatureUsage`] for a model over `db`'s schema.
pub fn feature_usage(model: &CrossMineModel, db: &Database) -> FeatureUsage {
    let mut usage = FeatureUsage::default();
    for clause in &model.clauses {
        for lit in &clause.literals {
            let rel = db.schema.relation(lit.constraint.rel);
            let attr_name = match &lit.constraint.kind {
                ConstraintKind::CatEq { attr, .. } | ConstraintKind::Num { attr, .. } => {
                    rel.attr(*attr).name.clone()
                }
                ConstraintKind::Agg { agg, attr, .. } => match attr {
                    Some(a) => format!("{}({})", agg.name(), rel.attr(*a).name),
                    None => format!("{}(*)", agg.name()),
                },
            };
            *usage.constraints.entry((rel.name.clone(), attr_name)).or_insert(0) += 1;
            match &lit.constraint.kind {
                ConstraintKind::CatEq { .. } => usage.literal_kinds.0 += 1,
                ConstraintKind::Num { .. } => usage.literal_kinds.1 += 1,
                ConstraintKind::Agg { .. } => usage.literal_kinds.2 += 1,
            }
            let len = lit.path.len().min(2);
            usage.path_lengths[len] += 1;
            for edge in &lit.path {
                *usage
                    .path_relations
                    .entry(db.schema.relation(edge.to).name.clone())
                    .or_insert(0) += 1;
            }
        }
    }
    usage
}

/// One literal a row satisfied, rendered for provenance: the bracketed
/// display string (prop-path included) plus the path length in edges.
#[derive(Debug, Clone, PartialEq)]
pub struct LiteralMatch {
    /// The literal's display string, e.g. `[T→A] A.amount ≤ 3200`.
    pub literal: String,
    /// Prop-path length in join edges (0 = a local constraint).
    pub path_len: usize,
}

/// One clause that *fired* for a row: every literal was satisfied.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseFire {
    /// Index of the clause in the model's (accuracy-descending) order.
    pub clause_index: usize,
    /// The class the clause predicts.
    pub label: ClassLabel,
    /// Laplace accuracy recorded at training time — the ranking score that
    /// decided whether this clause won.
    pub accuracy: f64,
    /// The matched literals, in application order. A clause fires only
    /// when *all* its literals hold, so this is the clause's full body.
    pub literals: Vec<LiteralMatch>,
}

/// Full provenance of one prediction: the label and every clause that
/// fired for the row, in rank order. The first fire is the winner — its
/// label *is* the prediction; an empty list means the default label.
#[derive(Debug, Clone, PartialEq)]
pub struct RowExplanation {
    /// The explained target row.
    pub row: Row,
    /// The predicted label (identical to what
    /// [`CrossMineModel::predict`] returns for this row).
    pub label: ClassLabel,
    /// Every clause that fired, most accurate first.
    pub fired: Vec<ClauseFire>,
    /// True when no clause fired and the model's default label was used.
    pub default_used: bool,
}

impl RowExplanation {
    /// The clause that decided the prediction, when one fired.
    pub fn winning(&self) -> Option<&ClauseFire> {
        self.fired.first()
    }

    /// Renders the explanation as one JSON object (no trailing newline) —
    /// the JSONL record format `loadgen --explain` and external tooling
    /// consume. Hand-rolled because the workspace is dependency-free; the
    /// only dynamic strings are literal displays, which are escaped.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str(&format!(
            "{{\"row\":{},\"label\":{},\"default_used\":{},\"fired\":[",
            self.row.0, self.label.0, self.default_used
        ));
        for (i, fire) in self.fired.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"clause\":{},\"label\":{},\"accuracy\":{:.4},\"literals\":[",
                fire.clause_index, fire.label.0, fire.accuracy
            ));
            for (j, lit) in fire.literals.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"literal\":\"{}\",\"path_len\":{}}}",
                    escape_json(&lit.literal),
                    lit.path_len
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl CrossMineModel {
    /// [`predict`](CrossMineModel::predict) with full provenance: for each
    /// row, the predicted label plus *every* clause that fired (not just
    /// the winner — downstream consumers rank-compare alternatives), each
    /// with its matched literals and prop-paths.
    ///
    /// The label always equals what [`predict`](CrossMineModel::predict)
    /// returns: clause satisfaction is computed per target independently,
    /// and the winner is the first (most accurate) firing clause. The only
    /// difference is that evaluation cannot stop at the first fire, so
    /// explained prediction costs one propagation pass per clause
    /// regardless of coverage.
    ///
    /// # Errors
    ///
    /// [`DataError::RowOutOfRange`](crossmine_relational::DataError::RowOutOfRange)
    /// when a row id is outside the target relation of `db`.
    pub fn predict_explained(
        &self,
        db: &Database,
        rows: &[Row],
    ) -> Result<Vec<RowExplanation>, crossmine_relational::RelationalError> {
        check_rows_in_range(rows, db.num_targets())?;
        let mut sink = FireSink::new(rows.len());
        let Ok(_) =
            evaluate(&self.clauses, db, &db.schema, rows, &mut sink, &mut EvalScratch::default());
        Ok(sink.explain(&self.clauses, &db.schema, rows, self.default_label))
    }
}

/// Per-clause coverage of a row set: how many of `rows` satisfy each clause
/// and how many of those carry the clause's label.
#[derive(Debug, Clone)]
pub struct ClauseCoverage {
    /// The clause's display string.
    pub clause: String,
    /// Rows satisfying the clause.
    pub covered: usize,
    /// Covered rows whose true label matches the clause's.
    pub correct: usize,
    /// Estimated accuracy recorded at training time.
    pub trained_accuracy: f64,
}

/// Evaluates every clause of `model` on `rows`.
pub fn clause_coverage(model: &CrossMineModel, db: &Database, rows: &[Row]) -> Vec<ClauseCoverage> {
    model
        .clauses
        .iter()
        .map(|clause| {
            let sat = model.satisfiers(db, clause, rows);
            let correct = sat.iter().filter(|r| db.label(**r) == clause.label).count();
            ClauseCoverage {
                clause: clause.display(&db.schema),
                covered: sat.len(),
                correct,
                trained_accuracy: clause.accuracy,
            }
        })
        .collect()
}

/// Renders a full model report: clause list with coverage plus feature
/// usage, evaluated against `rows`.
pub fn report(model: &CrossMineModel, db: &Database, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "CrossMine model: {} clauses over {} classes (default: {})\n\n",
        model.num_clauses(),
        model.classes.len(),
        model.default_label
    ));
    for cov in clause_coverage(model, db, rows) {
        out.push_str(&format!(
            "{}\n    covers {} rows, {} correct ({})  trained acc {:.2}\n",
            cov.clause,
            cov.covered,
            cov.correct,
            if cov.covered == 0 {
                "n/a".to_string()
            } else {
                format!("{:.1}%", 100.0 * cov.correct as f64 / cov.covered as f64)
            },
            cov.trained_accuracy,
        ));
    }
    let usage = feature_usage(model, db);
    out.push_str(&format!(
        "\nliterals: {} categorical, {} numerical, {} aggregation\n",
        usage.literal_kinds.0, usage.literal_kinds.1, usage.literal_kinds.2
    ));
    out.push_str(&format!(
        "prop-paths: {} local, {} one-edge, {} look-one-ahead\n",
        usage.path_lengths[0], usage.path_lengths[1], usage.path_lengths[2]
    ));
    if !usage.constraints.is_empty() {
        out.push_str("constrained attributes:\n");
        for ((rel, attr), n) in &usage.constraints {
            out.push_str(&format!("    {rel}.{attr}: {n}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::CrossMine;
    use crossmine_relational::{
        AttrType, Attribute, ClassLabel, DatabaseSchema, RelationSchema, Value,
    };

    fn db() -> Database {
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
        for i in 0..40u64 {
            db.push_row(tid, vec![Value::Key(i), Value::Cat((i % 2) as u32)]).unwrap();
            db.push_label(if i % 2 == 0 { ClassLabel::POS } else { ClassLabel::NEG });
        }
        db
    }

    #[test]
    fn usage_counts_literals() {
        let db = db();
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = CrossMine::default().fit(&db, &rows).unwrap();
        let usage = feature_usage(&model, &db);
        assert!(usage.literal_kinds.0 >= 2, "both classes use the categorical attribute");
        assert_eq!(usage.literal_kinds.1 + usage.literal_kinds.2, 0);
        assert_eq!(usage.path_lengths[1] + usage.path_lengths[2], 0);
        assert!(usage.constraints.contains_key(&("T".to_string(), "c".to_string())));
    }

    #[test]
    fn coverage_matches_labels_on_separable_data() {
        let db = db();
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = CrossMine::default().fit(&db, &rows).unwrap();
        for cov in clause_coverage(&model, &db, &rows) {
            assert_eq!(cov.covered, 20);
            assert_eq!(cov.correct, 20);
        }
    }

    #[test]
    fn report_renders() {
        let db = db();
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = CrossMine::default().fit(&db, &rows).unwrap();
        let r = report(&model, &db, &rows);
        assert!(r.contains("CrossMine model:"));
        assert!(r.contains("constrained attributes:"));
        assert!(r.contains("T.c"));
    }
}
