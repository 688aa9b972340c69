//! Compiling a trained [`CrossMineModel`] against a [`DatabaseSchema`] into
//! an executable [`CompiledPlan`].
//!
//! Compilation front-loads all the validation and resolution that
//! per-request evaluation would otherwise repeat: every prop-path edge is
//! checked against the schema's [`JoinGraph`], paths are checked to chain
//! and to start from a relation that is active at that point of the clause
//! (the §5.2 invariant the learner maintains), constrained attributes are
//! checked to exist with the right type, and categorical codes are checked
//! against the dictionary. A compiled plan is therefore *panic-free to
//! evaluate*: the batched evaluator never revalidates.

use crossmine_core::classifier::CrossMineModel;
use crossmine_core::clause::Clause;
use crossmine_core::literal::{ComplexLiteral, ConstraintKind};
use crossmine_relational::{AttrId, ClassLabel, DatabaseSchema, JoinGraph, RelId};

/// Why a model failed to compile against a schema.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// The schema has no target relation.
    NoTarget,
    /// A literal references a relation outside the schema.
    UnknownRelation {
        /// Index of the offending clause.
        clause: usize,
        /// The out-of-range relation id.
        rel: RelId,
    },
    /// A prop-path edge is not a §3.1 join edge of the schema.
    UnknownEdge {
        /// Index of the offending clause.
        clause: usize,
        /// Index of the literal within the clause.
        literal: usize,
    },
    /// Consecutive prop-path edges do not chain (`to` ≠ next `from`).
    BrokenChain {
        /// Index of the offending clause.
        clause: usize,
        /// Index of the literal within the clause.
        literal: usize,
    },
    /// A literal propagates from (or constrains, for empty paths) a relation
    /// that is not active at that point of the clause.
    InactiveSource {
        /// Index of the offending clause.
        clause: usize,
        /// Index of the literal within the clause.
        literal: usize,
        /// The inactive relation.
        rel: RelId,
    },
    /// A literal's constraint is not on the relation its prop-path ends at.
    PathEndMismatch {
        /// Index of the offending clause.
        clause: usize,
        /// Index of the literal within the clause.
        literal: usize,
    },
    /// A constrained attribute does not exist or has the wrong type.
    BadAttribute {
        /// Index of the offending clause.
        clause: usize,
        /// Index of the literal within the clause.
        literal: usize,
        /// What is wrong with the attribute.
        reason: String,
    },
    /// A categorical test uses a code outside the attribute's dictionary.
    CatCodeOutOfRange {
        /// Index of the offending clause.
        clause: usize,
        /// Index of the literal within the clause.
        literal: usize,
        /// The out-of-dictionary code.
        code: u32,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoTarget => write!(f, "schema has no target relation"),
            PlanError::UnknownRelation { clause, rel } => {
                write!(f, "clause {clause}: relation {} not in schema", rel.0)
            }
            PlanError::UnknownEdge { clause, literal } => {
                write!(f, "clause {clause} literal {literal}: edge is not a join edge")
            }
            PlanError::BrokenChain { clause, literal } => {
                write!(f, "clause {clause} literal {literal}: prop-path edges do not chain")
            }
            PlanError::InactiveSource { clause, literal, rel } => {
                write!(
                    f,
                    "clause {clause} literal {literal}: relation {} inactive at this point",
                    rel.0
                )
            }
            PlanError::PathEndMismatch { clause, literal } => {
                write!(f, "clause {clause} literal {literal}: constraint not at path end")
            }
            PlanError::BadAttribute { clause, literal, reason } => {
                write!(f, "clause {clause} literal {literal}: {reason}")
            }
            PlanError::CatCodeOutOfRange { clause, literal, code } => {
                write!(f, "clause {clause} literal {literal}: categorical code {code} not interned")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Static statistics of a compiled plan, used for capacity planning and
/// the `loadgen` report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanStats {
    /// Number of clauses.
    pub clauses: usize,
    /// Total literals across clauses.
    pub literals: usize,
    /// Total prop-path edges across literals.
    pub path_edges: usize,
    /// Longest single prop-path.
    pub max_path_len: usize,
    /// Distinct numeric thresholds tested per `(relation, attribute)`,
    /// pre-sorted ascending — the threshold ladder a batched evaluator
    /// walks monotonically.
    pub numeric_thresholds: Vec<((RelId, AttrId), Vec<f64>)>,
    /// Number of categorical equality tests per `(relation, attribute)`,
    /// pre-bucketed by dictionary code order.
    pub categorical_tests: Vec<((RelId, AttrId), usize)>,
}

impl std::fmt::Display for PlanStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} clauses, {} literals, {} path edges (max path {}), \
             {} numeric columns, {} categorical columns",
            self.clauses,
            self.literals,
            self.path_edges,
            self.max_path_len,
            self.numeric_thresholds.len(),
            self.categorical_tests.len()
        )
    }
}

/// A model lowered against one schema: validated clauses in rank order plus
/// everything prediction needs resolved ahead of time.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// Validated clauses, sorted by accuracy descending (prediction order).
    pub clauses: Vec<Clause>,
    /// Predicted when no clause fires.
    pub default_label: ClassLabel,
    /// Distinct classes of the model.
    pub classes: Vec<ClassLabel>,
    /// The target relation (resolved once; the evaluator trusts it).
    pub target: RelId,
    /// Number of relations the schema had at compile time — a cheap
    /// consistency check against the database handed to the evaluator.
    pub num_relations: usize,
    /// Static plan statistics.
    pub stats: PlanStats,
}

impl CompiledPlan {
    /// Lowers `model` against `schema`, validating every literal. The
    /// returned plan's clauses are in the model's (accuracy-descending)
    /// order, so evaluation semantics match [`CrossMineModel::predict`]
    /// exactly.
    pub fn compile(model: &CrossMineModel, schema: &DatabaseSchema) -> Result<Self, PlanError> {
        let target = schema.target().map_err(|_| PlanError::NoTarget)?;
        let graph = JoinGraph::build(schema);
        let num_relations = schema.num_relations();

        let mut stats = PlanStats { clauses: model.clauses.len(), ..PlanStats::default() };
        let mut clauses = Vec::with_capacity(model.clauses.len());
        for (ci, clause) in model.clauses.iter().enumerate() {
            // Replay the active-relation invariant the learner maintains:
            // only the target is active at the start, each literal's
            // constrained relation becomes active after it applies.
            let mut active = vec![false; num_relations];
            active[target.0] = true;
            for (li, lit) in clause.literals.iter().enumerate() {
                validate_literal(schema, &graph, &active, ci, li, lit)?;
                collect_stats(&mut stats, lit);
                active[lit.constraint.rel.0] = true;
            }
            clauses.push(clause.clone());
        }
        stats.numeric_thresholds.sort_by_key(|&(k, _)| k);
        stats.categorical_tests.sort_by_key(|&(k, _)| k);
        for (_, thresholds) in &mut stats.numeric_thresholds {
            thresholds.sort_by(f64::total_cmp);
            thresholds.dedup();
        }
        Ok(CompiledPlan {
            clauses,
            default_label: model.default_label,
            classes: model.classes.clone(),
            target,
            num_relations,
            stats,
        })
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }
}

fn validate_literal(
    schema: &DatabaseSchema,
    graph: &JoinGraph,
    active: &[bool],
    ci: usize,
    li: usize,
    lit: &ComplexLiteral,
) -> Result<(), PlanError> {
    let rel = lit.constraint.rel;
    if rel.0 >= schema.num_relations() {
        return Err(PlanError::UnknownRelation { clause: ci, rel });
    }
    if lit.path.is_empty() {
        if !active[rel.0] {
            return Err(PlanError::InactiveSource { clause: ci, literal: li, rel });
        }
    } else {
        let src = lit.path[0].from;
        if src.0 >= schema.num_relations() {
            return Err(PlanError::UnknownRelation { clause: ci, rel: src });
        }
        if !active[src.0] {
            return Err(PlanError::InactiveSource { clause: ci, literal: li, rel: src });
        }
        for (i, edge) in lit.path.iter().enumerate() {
            if !graph.edges().contains(edge) {
                return Err(PlanError::UnknownEdge { clause: ci, literal: li });
            }
            if i > 0 && lit.path[i - 1].to != edge.from {
                return Err(PlanError::BrokenChain { clause: ci, literal: li });
            }
        }
        if lit.path.last().expect("nonempty").to != rel {
            return Err(PlanError::PathEndMismatch { clause: ci, literal: li });
        }
    }

    // Attribute existence + type + dictionary checks.
    let rschema = schema.relation(rel);
    let check_attr = |attr: AttrId, want: &str| -> Result<(), PlanError> {
        if attr.0 >= rschema.arity() {
            return Err(PlanError::BadAttribute {
                clause: ci,
                literal: li,
                reason: format!("attribute {} out of range for {}", attr.0, rschema.name),
            });
        }
        let a = rschema.attr(attr);
        let ok = match want {
            "categorical" => a.ty.is_categorical(),
            _ => a.ty.is_numerical(),
        };
        if !ok {
            return Err(PlanError::BadAttribute {
                clause: ci,
                literal: li,
                reason: format!("{}.{} is not {want}", rschema.name, a.name),
            });
        }
        Ok(())
    };
    match &lit.constraint.kind {
        ConstraintKind::CatEq { attr, value } => {
            check_attr(*attr, "categorical")?;
            if *value as usize >= rschema.attr(*attr).cardinality() {
                return Err(PlanError::CatCodeOutOfRange { clause: ci, literal: li, code: *value });
            }
        }
        ConstraintKind::Num { attr, .. } => check_attr(*attr, "numerical")?,
        ConstraintKind::Agg { attr, .. } => {
            if let Some(a) = attr {
                check_attr(*a, "numerical")?;
            }
        }
    }
    Ok(())
}

fn collect_stats(stats: &mut PlanStats, lit: &ComplexLiteral) {
    stats.literals += 1;
    stats.path_edges += lit.path.len();
    stats.max_path_len = stats.max_path_len.max(lit.path.len());
    let rel = lit.constraint.rel;
    match &lit.constraint.kind {
        ConstraintKind::CatEq { attr, .. } => {
            let key = (rel, *attr);
            match stats.categorical_tests.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => stats.categorical_tests.push((key, 1)),
            }
        }
        ConstraintKind::Num { attr, threshold, .. } => {
            push_threshold(&mut stats.numeric_thresholds, (rel, *attr), *threshold);
        }
        ConstraintKind::Agg { attr, threshold, .. } => {
            if let Some(a) = attr {
                push_threshold(&mut stats.numeric_thresholds, (rel, *a), *threshold);
            }
        }
    }
}

fn push_threshold(acc: &mut Vec<((RelId, AttrId), Vec<f64>)>, key: (RelId, AttrId), t: f64) {
    match acc.iter_mut().find(|(k, _)| *k == key) {
        Some((_, v)) => v.push(t),
        None => acc.push((key, vec![t])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmine_core::literal::{AggOp, CmpOp, Constraint};
    use crossmine_relational::{AttrType, Attribute, JoinEdge, JoinKind, RelationSchema};

    /// T(id pk, x num) <- S(id pk, t_id fk->T, d cat{a,b}, v num).
    fn schema() -> DatabaseSchema {
        let mut s = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        t.add_attribute(Attribute::new("x", AttrType::Numerical)).unwrap();
        let mut sr = RelationSchema::new("S");
        sr.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        sr.add_attribute(Attribute::new("t_id", AttrType::ForeignKey { target: "T".into() }))
            .unwrap();
        let mut d = Attribute::new("d", AttrType::Categorical);
        d.intern("a");
        d.intern("b");
        sr.add_attribute(d).unwrap();
        sr.add_attribute(Attribute::new("v", AttrType::Numerical)).unwrap();
        let tid = s.add_relation(t).unwrap();
        s.add_relation(sr).unwrap();
        s.set_target(tid);
        s
    }

    const T: RelId = RelId(0);
    const S: RelId = RelId(1);

    fn t_to_s() -> JoinEdge {
        JoinEdge {
            from: T,
            from_attr: AttrId(0),
            to: S,
            to_attr: AttrId(1),
            kind: JoinKind::PkToFk,
        }
    }

    fn model_of(literals: Vec<ComplexLiteral>) -> CrossMineModel {
        CrossMineModel {
            clauses: vec![Clause::new(literals, ClassLabel::POS, 5, 1.0, 2)],
            default_label: ClassLabel::NEG,
            classes: vec![ClassLabel::NEG, ClassLabel::POS],
        }
    }

    #[test]
    fn valid_model_compiles_with_stats() {
        let lits = vec![
            ComplexLiteral {
                path: vec![t_to_s()],
                constraint: Constraint {
                    rel: S,
                    kind: ConstraintKind::CatEq { attr: AttrId(2), value: 1 },
                },
            },
            // S is now active: a local numeric literal on it is legal.
            ComplexLiteral::local(Constraint {
                rel: S,
                kind: ConstraintKind::Num { attr: AttrId(3), op: CmpOp::Le, threshold: 4.0 },
            }),
            ComplexLiteral {
                path: vec![t_to_s(), t_to_s().reversed()],
                constraint: Constraint {
                    rel: T,
                    kind: ConstraintKind::Agg {
                        agg: AggOp::Sum,
                        attr: Some(AttrId(1)),
                        op: CmpOp::Ge,
                        threshold: 2.0,
                    },
                },
            },
        ];
        let plan = CompiledPlan::compile(&model_of(lits), &schema()).unwrap();
        assert_eq!(plan.target, T);
        assert_eq!(plan.num_relations, 2);
        assert_eq!(plan.stats.clauses, 1);
        assert_eq!(plan.stats.literals, 3);
        assert_eq!(plan.stats.path_edges, 3);
        assert_eq!(plan.stats.max_path_len, 2);
        assert_eq!(plan.stats.categorical_tests, vec![((S, AttrId(2)), 1)]);
        assert_eq!(
            plan.stats.numeric_thresholds,
            vec![((T, AttrId(1)), vec![2.0]), ((S, AttrId(3)), vec![4.0])]
        );
        let text = plan.stats.to_string();
        assert!(text.contains("1 clauses"), "{text}");
    }

    #[test]
    fn empty_model_compiles() {
        let model = CrossMineModel {
            clauses: Vec::new(),
            default_label: ClassLabel::POS,
            classes: vec![ClassLabel::NEG, ClassLabel::POS],
        };
        let plan = CompiledPlan::compile(&model, &schema()).unwrap();
        assert_eq!(plan.num_clauses(), 0);
        assert_eq!(plan.default_label, ClassLabel::POS);
    }

    #[test]
    fn rejects_inactive_source() {
        // A local literal on S before any path ever activated S.
        let lit = ComplexLiteral::local(Constraint {
            rel: S,
            kind: ConstraintKind::Num { attr: AttrId(3), op: CmpOp::Le, threshold: 0.0 },
        });
        let err = CompiledPlan::compile(&model_of(vec![lit]), &schema()).unwrap_err();
        assert_eq!(err, PlanError::InactiveSource { clause: 0, literal: 0, rel: S });
    }

    #[test]
    fn rejects_unknown_edge_and_broken_chain() {
        // An edge that is not in the join graph (wrong join column).
        let bogus = JoinEdge {
            from: T,
            from_attr: AttrId(1),
            to: S,
            to_attr: AttrId(3),
            kind: JoinKind::PkToFk,
        };
        let lit = ComplexLiteral {
            path: vec![bogus],
            constraint: Constraint {
                rel: S,
                kind: ConstraintKind::CatEq { attr: AttrId(2), value: 0 },
            },
        };
        let err = CompiledPlan::compile(&model_of(vec![lit]), &schema()).unwrap_err();
        assert_eq!(err, PlanError::UnknownEdge { clause: 0, literal: 0 });

        // Two valid edges that do not chain (S -> T then S -> T again).
        let lit = ComplexLiteral {
            path: vec![t_to_s(), t_to_s()],
            constraint: Constraint {
                rel: S,
                kind: ConstraintKind::CatEq { attr: AttrId(2), value: 0 },
            },
        };
        let err = CompiledPlan::compile(&model_of(vec![lit]), &schema()).unwrap_err();
        assert_eq!(err, PlanError::BrokenChain { clause: 0, literal: 0 });
    }

    #[test]
    fn rejects_path_end_mismatch() {
        // Path ends at S but the constraint is on T.
        let lit = ComplexLiteral {
            path: vec![t_to_s()],
            constraint: Constraint {
                rel: T,
                kind: ConstraintKind::Num { attr: AttrId(1), op: CmpOp::Le, threshold: 0.0 },
            },
        };
        let err = CompiledPlan::compile(&model_of(vec![lit]), &schema()).unwrap_err();
        assert_eq!(err, PlanError::PathEndMismatch { clause: 0, literal: 0 });
    }

    #[test]
    fn rejects_bad_attribute_and_code() {
        // Numeric constraint on a categorical column.
        let lit = ComplexLiteral {
            path: vec![t_to_s()],
            constraint: Constraint {
                rel: S,
                kind: ConstraintKind::Num { attr: AttrId(2), op: CmpOp::Le, threshold: 0.0 },
            },
        };
        let err = CompiledPlan::compile(&model_of(vec![lit]), &schema()).unwrap_err();
        assert!(matches!(err, PlanError::BadAttribute { clause: 0, literal: 0, .. }), "{err}");

        // Categorical code beyond the dictionary.
        let lit = ComplexLiteral {
            path: vec![t_to_s()],
            constraint: Constraint {
                rel: S,
                kind: ConstraintKind::CatEq { attr: AttrId(2), value: 99 },
            },
        };
        let err = CompiledPlan::compile(&model_of(vec![lit]), &schema()).unwrap_err();
        assert_eq!(err, PlanError::CatCodeOutOfRange { clause: 0, literal: 0, code: 99 });
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn rejects_schema_without_target() {
        let mut s = schema();
        s.target = None;
        let err = CompiledPlan::compile(&model_of(Vec::new()), &s).unwrap_err();
        assert_eq!(err, PlanError::NoTarget);
    }
}
