//! TILDE (Blockeel & De Raedt): top-down induction of logical decision
//! trees, reimplemented as the paper's second baseline.
//!
//! Each internal node refines the *associated query* of its yes-branch with
//! one candidate (an optional join plus a test), chosen by C4.5-style
//! information gain over the distinct target tuples. Candidate evaluation
//! materializes physical joins exactly like FOIL — the divide-and-conquer
//! tree structure makes it faster than FOIL in practice (§2) but it still
//! pays the join-materialization cost CrossMine avoids.

use std::time::{Duration, Instant};

use crossmine_core::idset::Stamp;
use crossmine_relational::{BindingTable, ClassLabel, Database, JoinGraph, Row};

use crate::common::{apply_candidate, positivity, table_class_counts, Candidate};

/// TILDE hyper-parameters.
#[derive(Debug, Clone)]
pub struct TildeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum targets in a node to keep splitting.
    pub min_split: usize,
    /// Minimum information gain (bits) for a split to be accepted.
    pub min_gain: f64,
    /// Wall-clock training budget; `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Which joins the refinement operator considers.
    pub space: crate::common::CandidateSpace,
}

impl Default for TildeParams {
    fn default() -> Self {
        TildeParams {
            max_depth: 8,
            min_split: 4,
            min_gain: 1e-3,
            timeout: None,
            space: crate::common::CandidateSpace::default(),
        }
    }
}

/// A node of the logical decision tree.
#[derive(Debug, Clone)]
pub enum Node {
    /// Leaf predicting a class.
    Leaf {
        /// Predicted class.
        label: ClassLabel,
        /// Training tuples that reached this leaf (diagnostics).
        support: usize,
    },
    /// Internal split on one refinement of the associated query.
    Split {
        /// The refinement applied on the yes-branch.
        refinement: Candidate,
        /// Subtree for targets satisfying the refinement.
        yes: Box<Node>,
        /// Subtree for the rest (the refinement is discarded there).
        no: Box<Node>,
    },
}

impl Node {
    /// Number of nodes in this subtree.
    pub fn size(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { yes, no, .. } => 1 + yes.size() + no.size(),
        }
    }

    /// Depth of this subtree.
    pub fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { yes, no, .. } => 1 + yes.depth().max(no.depth()),
        }
    }
}

/// The TILDE classifier.
#[derive(Debug, Clone, Default)]
pub struct Tilde {
    /// Hyper-parameters.
    pub params: TildeParams,
}

/// A trained logical decision tree.
#[derive(Debug, Clone)]
pub struct TildeModel {
    /// The root node.
    pub root: Node,
    /// Whether training hit the timeout.
    pub timed_out: bool,
}

fn entropy(p: usize, n: usize) -> f64 {
    let total = (p + n) as f64;
    if p == 0 || n == 0 {
        return 0.0;
    }
    let fp = p as f64 / total;
    let fn_ = n as f64 / total;
    -fp * fp.log2() - fn_ * fn_.log2()
}

impl Tilde {
    /// A TILDE learner with the given parameters.
    pub fn new(params: TildeParams) -> Self {
        Tilde { params }
    }

    /// Trains a logical decision tree on the target rows `train_rows`.
    /// Binary trees over pos/neg; multi-class is reduced to the majority
    /// class at leaves via the positivity of the largest class (the paper's
    /// experiments are binary).
    pub fn fit(&self, db: &Database, train_rows: &[Row]) -> TildeModel {
        let graph = JoinGraph::build(&db.schema);
        let target = db.target().expect("database must have a target");
        // Positive = the lexicographically-largest class among those present
        // (ClassLabel::POS in binary problems).
        let mut classes: Vec<ClassLabel> = train_rows.iter().map(|&r| db.label(r)).collect();
        classes.sort();
        classes.dedup();
        let pos_class = classes.last().copied().unwrap_or(ClassLabel::POS);
        let neg_class = classes.iter().rev().nth(1).copied().unwrap_or(ClassLabel::NEG);
        let is_pos = positivity(db, pos_class);

        let start = Instant::now();
        let deadline = self.params.timeout.map(|t| start + t);
        let mut timed_out = false;
        let mut stamp = Stamp::new(db.num_targets());
        let table = BindingTable::from_targets(target, train_rows.iter().copied());
        let root = self.grow(
            db,
            &graph,
            table,
            &is_pos,
            pos_class,
            neg_class,
            0,
            &mut stamp,
            &deadline,
            &mut timed_out,
        );
        TildeModel { root, timed_out }
    }

    #[allow(clippy::too_many_arguments)]
    fn grow(
        &self,
        db: &Database,
        graph: &JoinGraph,
        table: BindingTable,
        is_pos: &[bool],
        pos_class: ClassLabel,
        neg_class: ClassLabel,
        depth: usize,
        stamp: &mut Stamp,
        deadline: &Option<Instant>,
        timed_out: &mut bool,
    ) -> Node {
        let (p, n) = table_class_counts(&table, is_pos, stamp);
        let majority = if p >= n { pos_class } else { neg_class };
        let leaf = Node::Leaf { label: majority, support: p + n };
        if p == 0 || n == 0 || p + n < self.params.min_split || depth >= self.params.max_depth {
            return leaf;
        }
        let in_budget = || deadline.map(|d| Instant::now() < d).unwrap_or(true);
        if !in_budget() {
            *timed_out = true;
            return leaf;
        }

        // Pick the refinement with the best *information gain* over the
        // distinct-target split (C4.5-style, not foil gain): evaluate the
        // candidates' (p_yes, n_yes) via the shared machinery, then rescore.
        let parent_h = entropy(p, n);
        let mut best: Option<(Candidate, f64)> = None;
        // best_candidate maximizes foil gain; for TILDE we enumerate by
        // running it repeatedly is wasteful — instead reuse its scan through
        // a custom scorer below.
        let scored = crate::common::all_candidates(
            db,
            graph,
            self.params.space,
            &table,
            is_pos,
            stamp,
            in_budget,
        );
        for cand in scored {
            let (py, ny) = (cand.pos, cand.neg);
            let (pn, nn) = (p - py, n - ny);
            if py + ny == 0 || pn + nn == 0 {
                continue;
            }
            let total = (p + n) as f64;
            let h = ((py + ny) as f64 / total) * entropy(py, ny)
                + ((pn + nn) as f64 / total) * entropy(pn, nn);
            let gain = parent_h - h;
            if gain > self.params.min_gain && best.as_ref().map(|(_, g)| gain > *g).unwrap_or(true)
            {
                best = Some((cand.candidate, gain));
            }
        }
        let Some((refinement, _)) = best else {
            return leaf;
        };

        // Yes branch: refined table (query context accumulates). No branch:
        // original table filtered to unsatisfied targets.
        let yes_table = apply_candidate(db, &table, &refinement);
        let yes_targets: std::collections::HashSet<u32> =
            yes_table.distinct_targets().iter().map(|r| r.0).collect();
        let no_table = table.retain_targets(|r| !yes_targets.contains(&r.0));

        let yes = self.grow(
            db,
            graph,
            yes_table,
            is_pos,
            pos_class,
            neg_class,
            depth + 1,
            stamp,
            deadline,
            timed_out,
        );
        let no = self.grow(
            db,
            graph,
            no_table,
            is_pos,
            pos_class,
            neg_class,
            depth + 1,
            stamp,
            deadline,
            timed_out,
        );
        Node::Split { refinement, yes: Box::new(yes), no: Box::new(no) }
    }
}

impl TildeModel {
    /// Predicts by routing `rows` down the tree, evaluating each split's
    /// refinement with physical joins on the node's accumulated table.
    pub fn predict(&self, db: &Database, rows: &[Row]) -> Vec<ClassLabel> {
        let target = db.target().expect("database must have a target");
        // Routed per row, then fanned out to every slot holding it, so a
        // row listed twice gets the same label at both slots.
        let mut label_of: Vec<ClassLabel> = vec![ClassLabel::NEG; db.num_targets()];
        let mut distinct: Vec<Row> = rows.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let table = BindingTable::from_targets(target, distinct);
        route(db, &self.root, table, &mut label_of);
        rows.iter().map(|r| label_of[r.0 as usize]).collect()
    }
}

/// Sends every target of `table` down `node`, writing the reached leaf's
/// label to `label_of[target]`.
fn route(db: &Database, node: &Node, table: BindingTable, label_of: &mut [ClassLabel]) {
    match node {
        Node::Leaf { label, .. } => {
            for t in table.distinct_targets() {
                label_of[t.0 as usize] = *label;
            }
        }
        Node::Split { refinement, yes, no } => {
            let yes_table = apply_candidate(db, &table, refinement);
            let yes_targets: std::collections::HashSet<u32> =
                yes_table.distinct_targets().iter().map(|r| r.0).collect();
            let no_table = table.retain_targets(|r| !yes_targets.contains(&r.0));
            route(db, yes, yes_table, label_of);
            route(db, no, no_table, label_of);
        }
    }
}

impl crossmine_core::RelationalClassifier for Tilde {
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

    /// Class decided by an attribute one join away (S.d).
    fn one_join_db(n: u64) -> Database {
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
            let pos = i % 2 == 0;
            db.push_row(tid, vec![Value::Key(i), Value::Cat(0)]).unwrap();
            db.push_label(if pos { ClassLabel::POS } else { ClassLabel::NEG });
            db.push_row(sid, vec![Value::Key(i), Value::Key(i), Value::Cat(pos as u32)]).unwrap();
        }
        db
    }

    #[test]
    fn learns_one_join_split() {
        let db = one_join_db(40);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = Tilde::default().fit(&db, &rows);
        assert!(!model.timed_out);
        assert!(model.root.size() >= 3, "tree must actually split");
        let preds = model.predict(&db, &rows);
        let correct = preds.iter().zip(&rows).filter(|(p, r)| **p == db.label(**r)).count();
        assert_eq!(correct, rows.len());
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut db = one_join_db(10);
        db.set_labels(vec![ClassLabel::POS; 10]).unwrap();
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = Tilde::default().fit(&db, &rows);
        assert_eq!(model.root.size(), 1);
        assert!(matches!(model.root, Node::Leaf { label: ClassLabel::POS, .. }));
    }

    #[test]
    fn depth_limit_respected() {
        let db = one_join_db(60);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let params = TildeParams { max_depth: 2, ..Default::default() };
        let model = Tilde::new(params).fit(&db, &rows);
        assert!(model.root.depth() <= 3); // max_depth splits + leaf level
    }

    #[test]
    fn timeout_yields_partial_tree() {
        let db = one_join_db(40);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let params = TildeParams { timeout: Some(Duration::ZERO), ..Default::default() };
        let model = Tilde::new(params).fit(&db, &rows);
        assert!(model.timed_out);
        let preds = model.predict(&db, &rows);
        assert_eq!(preds.len(), rows.len());
    }

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy(5, 0), 0.0);
        assert_eq!(entropy(0, 5), 0.0);
        assert!((entropy(5, 5) - 1.0).abs() < 1e-12);
        assert!(entropy(1, 9) < 1.0);
    }
}
