//! The clause evaluator (§5.3), written once over any [`TupleSource`].
//!
//! Every label path — [`predict`](crate::CrossMineModel::predict),
//! explanations, features, pruning, and the serve crate's in-memory,
//! overlay and disk paths — calls [`evaluate`] with one of two sinks:
//! [`LabelSink`] keeps each row's first (most accurate) firing clause and
//! lets evaluation stop once every row has one; [`FireSink`] records every
//! fire, for provenance.

use crossmine_relational::{ClassLabel, DatabaseSchema, Row, TupleSource};

use crate::clause::Clause;
use crate::explain::{ClauseFire, LiteralMatch, RowExplanation};
use crate::idset::{Stamp, TargetSet};
use crate::propagation::{ClauseState, PathScratch, PropStats};

/// Where [`evaluate`] reports clause fires.
pub trait Sink {
    /// True when a row is decided by its first fire: it leaves the batch,
    /// and evaluation stops once every row has fired.
    const FIRST_FIRE_ONLY: bool;

    /// Clause `clause` (an index into the ranked clauses) fired for batch
    /// slot `slot`. Per slot, fires arrive in rank order.
    fn fire(&mut self, slot: usize, clause: usize);
}

/// The label sink: per slot, the first clause that fired.
#[derive(Debug, Clone)]
pub struct LabelSink(Vec<Option<usize>>);

impl LabelSink {
    /// A sink for a batch of `slots` rows.
    pub fn new(slots: usize) -> Self {
        LabelSink(vec![None; slots])
    }

    /// One label per slot: the first firing clause's, else `default`.
    pub fn labels(&self, clauses: &[Clause], default: ClassLabel) -> Vec<ClassLabel> {
        self.0.iter().map(|c| c.map_or(default, |ci| clauses[ci].label)).collect()
    }
}

impl Sink for LabelSink {
    const FIRST_FIRE_ONLY: bool = true;

    fn fire(&mut self, slot: usize, clause: usize) {
        self.0[slot].get_or_insert(clause);
    }
}

/// The fires sink: per slot, every clause that fired, in rank order.
#[derive(Debug, Clone)]
pub struct FireSink(Vec<Vec<usize>>);

impl FireSink {
    /// A sink for a batch of `slots` rows.
    pub fn new(slots: usize) -> Self {
        FireSink(vec![Vec::new(); slots])
    }

    /// The clauses that fired for `slot`, most accurate first.
    pub fn fired(&self, slot: usize) -> &[usize] {
        &self.0[slot]
    }

    /// One [`RowExplanation`] per slot of `rows`, literals rendered
    /// against `schema`; `default` labels slots no clause fired for.
    pub fn explain(
        self,
        clauses: &[Clause],
        schema: &DatabaseSchema,
        rows: &[Row],
        default: ClassLabel,
    ) -> Vec<RowExplanation> {
        rows.iter()
            .zip(self.0)
            .map(|(&row, fired)| {
                let fired: Vec<_> =
                    fired.into_iter().map(|ci| clause_fire(schema, ci, &clauses[ci])).collect();
                let label = fired.first().map_or(default, |f| f.label);
                RowExplanation { row, label, default_used: fired.is_empty(), fired }
            })
            .collect()
    }
}

/// The provenance record of `clause`, fired at rank `clause_index`.
fn clause_fire(schema: &DatabaseSchema, clause_index: usize, clause: &Clause) -> ClauseFire {
    ClauseFire {
        clause_index,
        label: clause.label,
        accuracy: clause.accuracy,
        literals: clause
            .literals
            .iter()
            .map(|lit| LiteralMatch { literal: lit.display(schema), path_len: lit.path.len() })
            .collect(),
    }
}

impl Sink for FireSink {
    const FIRST_FIRE_ONLY: bool = false;

    fn fire(&mut self, slot: usize, clause: usize) {
        self.0[slot].push(clause);
    }
}

/// Buffers [`evaluate`] reuses across calls: positivity dummies and the
/// distinct-counting stamp, sized to the target relation, and the CSR
/// buffers for prop-paths.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    is_pos: Vec<bool>,
    stamp: Stamp,
    path: PathScratch,
}

impl EvalScratch {
    /// Returns and resets the propagation counters.
    pub fn take_stats(&mut self) -> PropStats {
        self.path.take_stats()
    }
}

/// Evaluates `clauses`, in rank order, on the target rows `rows` of `src`
/// (laid out as `schema`), reporting every fire to `sink`. Per clause, one
/// tuple-ID propagation along each literal's prop-path decides every live
/// row at once; a row listed at several slots is propagated once and fires
/// for every slot holding it. Returns the number of clauses evaluated.
///
/// # Errors
///
/// The first read error of `src`.
///
/// # Panics
///
/// When `schema` has no target relation or a row is outside it.
pub fn evaluate<S: TupleSource, K: Sink>(
    clauses: &[Clause],
    src: &S,
    schema: &DatabaseSchema,
    rows: &[Row],
    sink: &mut K,
    scratch: &mut EvalScratch,
) -> Result<usize, S::Error> {
    let num_targets = src.num_rows(schema.target().expect("schema must have a target relation"));
    if scratch.is_pos.len() != num_targets {
        scratch.is_pos = vec![false; num_targets];
        scratch.stamp = Stamp::new(num_targets);
    }
    let EvalScratch { is_pos, stamp, path } = scratch;

    // Slots ordered by row: each row's slots form one run, walked in step
    // with the ascending surviving targets.
    let mut by_row: Vec<usize> = (0..rows.len()).collect();
    by_row.sort_by_key(|&slot| rows[slot]);
    let mut live = TargetSet::from_rows(is_pos, rows.iter().copied());
    let mut evaluated = 0;
    for (ci, clause) in clauses.iter().enumerate() {
        if live.is_empty() {
            break;
        }
        evaluated += 1;
        let mut state = ClauseState::over(src, schema, is_pos, live.clone());
        for lit in &clause.literals {
            state.try_apply_literal(lit, stamp, path)?;
            if state.targets.is_empty() {
                break;
            }
        }
        let mut slots = by_row.iter().copied().peekable();
        for r in state.targets.iter() {
            while let Some(slot) = slots.next_if(|&s| rows[s] <= r) {
                if rows[slot] == r {
                    sink.fire(slot, ci);
                }
            }
            if K::FIRST_FIRE_ONLY {
                live.remove(r.0, is_pos);
            }
        }
    }
    Ok(evaluated)
}
