//! Sparse clause evaluation (§5.3) for batches much smaller than the
//! target relation.
//!
//! A clause decides each target row from the tuples joinable with it
//! along each literal's prop-path (Definition 2). [`ClauseState`] keeps
//! an idset for *every* tuple of every active relation, so one pass costs
//! the size of the relations it crosses whatever the batch. A [`Frontier`]
//! keeps idsets for the *touched* tuples only: those joinable with at
//! least one live target. It is seeded from the live rows and grows
//! through [`KeyLookup::for_each_row`] from the touched tuples' join
//! values, so a pass costs the join neighbourhood of the batch.
//!
//! Both states give identical answers. By Lemmas 1 and 2 a tuple joinable
//! with no live target carries an empty idset under either one: it adds
//! nothing to any propagated set, passes no target through a constraint,
//! and feeds no aggregate. The frontier simply does not store it.
//! Aggregates accumulate over touched rows in ascending row order, as the
//! dense scan does, so float sums are bit-identical.
//!
//! [`ClauseState`]: crate::propagation::ClauseState

use crossmine_relational::{DatabaseSchema, JoinEdge, KeyLookup, RelId, Row, TupleSource, Value};

use crate::clause::Clause;
use crate::idset::Stamp;
use crate::literal::{Constraint, ConstraintKind};
use crate::propagation::{AggStats, PropStats};

/// A clause runs on the frontier when `live × SPARSE_DENSITY ≤ targets`,
/// and on the dense [`ClauseState`](crate::propagation::ClauseState)
/// otherwise. Probes of batch evaluation over the perfbench `online`
/// model (R10.T2000) found the frontier faster up to about half the
/// target relation, and over `mutable`'s (R5.T200) up to all of it. A
/// factor of 8 starts every all-rows pass dense and sends serving
/// batches, which are a few rows, to the frontier.
pub(crate) const SPARSE_DENSITY: usize = 8;

/// The touched tuples of one relation and their idsets, as a CSR over
/// those tuples only: `rows[k]` (ascending) carries
/// `ids[offsets[k]..offsets[k + 1]]`, sorted, deduplicated and never empty.
#[derive(Debug, Clone, Default)]
struct Frontier {
    rows: Vec<Row>,
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Frontier {
    /// Empties the frontier, keeping its buffers.
    fn clear(&mut self) {
        self.rows.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.ids.clear();
    }

    /// The identity over `live`: each row joinable exactly with itself.
    fn identity(&mut self, live: &[Row]) {
        self.clear();
        self.rows.extend_from_slice(live);
        self.ids.extend(live.iter().map(|r| r.0));
        self.offsets.extend(1..=live.len() as u32);
    }

    /// Makes this frontier a copy of `other` in its own buffers (the
    /// derived `clone_from` would drop them and allocate anew).
    fn copy_from(&mut self, other: &Frontier) {
        self.rows.clone_from(&other.rows);
        self.offsets.clone_from(&other.offsets);
        self.ids.clone_from(&other.ids);
    }

    /// The idset of `rows[k]`.
    fn ids(&self, k: usize) -> &[u32] {
        &self.ids[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Keeps the rows `keep_row` accepts (by position) and, in them, the
    /// ids `keep_id` accepts; rows left without ids leave the frontier.
    fn retain(&mut self, mut keep_row: impl FnMut(usize) -> bool, keep_id: impl Fn(u32) -> bool) {
        let (mut rows, mut write) = (0, 0);
        let mut start = 0;
        for k in 0..self.rows.len() {
            let end = self.offsets[k + 1] as usize;
            if keep_row(k) {
                let first = write;
                for i in start..end {
                    let id = self.ids[i];
                    if keep_id(id) {
                        self.ids[write] = id;
                        write += 1;
                    }
                }
                if write > first {
                    self.rows[rows] = self.rows[k];
                    rows += 1;
                    self.offsets[rows] = write as u32;
                }
            }
            start = end;
        }
        self.rows.truncate(rows);
        self.offsets.truncate(rows + 1);
        self.ids.truncate(write);
    }
}

/// The frontier evaluator's buffers, reused across clauses and calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseScratch {
    /// `active[rel]` is `Some` iff `rel` is active in the current clause.
    active: Vec<Option<Frontier>>,
    /// Frontier buffers not in use.
    pool: Vec<Frontier>,
    /// Live targets satisfying the clause so far, ascending.
    targets: Vec<u32>,
    /// Marks the members of `targets`.
    member: Stamp,
    /// Marks the targets that pass the current literal.
    passed: Stamp,
    /// `slot[id]`: the position of member `id` in `targets`.
    slot: Vec<u32>,
    /// Gathered column values.
    values: Vec<Value>,
    /// `(receiving row, position of the sending row)` of one edge.
    pairs: Vec<(Row, u32)>,
    /// Per-target aggregates, parallel to `targets`.
    agg: Vec<AggStats>,
    stats: PropStats,
}

impl SparseScratch {
    /// Sizes the per-target buffers to `num_targets` target rows.
    pub(crate) fn resize(&mut self, num_targets: usize) {
        self.member = Stamp::new(num_targets);
        self.passed = Stamp::new(num_targets);
        self.slot = vec![0; num_targets];
    }

    /// Returns and resets the propagation counters.
    pub(crate) fn take_stats(&mut self) -> PropStats {
        std::mem::take(&mut self.stats)
    }

    /// Evaluates `clause` on the live target rows `live` (ascending,
    /// distinct) of `src`, laid out as `schema`, appending the rows that
    /// satisfy it, ascending, to `fired`.
    pub(crate) fn clause<S: TupleSource>(
        &mut self,
        src: &S,
        schema: &DatabaseSchema,
        clause: &Clause,
        live: &[Row],
        fired: &mut Vec<Row>,
    ) -> Result<(), S::Error> {
        let target = schema.target().expect("schema must have a target relation");
        for slot in &mut self.active {
            if let Some(f) = slot.take() {
                self.pool.push(f);
            }
        }
        self.active.resize_with(schema.num_relations(), || None);
        self.targets.clear();
        self.targets.extend(live.iter().map(|r| r.0));
        self.mark_targets();
        let mut seed = self.pool.pop().unwrap_or_default();
        seed.identity(live);
        self.active[target.0] = Some(seed);

        for lit in &clause.literals {
            let mut ann = self.pool.pop().unwrap_or_default();
            let SparseScratch { active, pool, values, pairs, stats, .. } = self;
            match lit.path.first() {
                None => ann.copy_from(active_frontier(active, lit.constraint.rel)),
                Some(edge) => {
                    let from = active_frontier(active, edge.from);
                    propagate(src, from, edge, &mut ann, values, pairs, stats)?;
                    let mut spare = pool.pop().unwrap_or_default();
                    for edge in &lit.path[1..] {
                        std::mem::swap(&mut ann, &mut spare);
                        propagate(src, &spare, edge, &mut ann, values, pairs, stats)?;
                    }
                    pool.push(spare);
                }
            }
            self.constrain(src, &lit.constraint, &mut ann)?;
            let before = self.targets.len();
            let passed = &self.passed;
            self.targets.retain(|&id| passed.is_marked(id));
            if let Some(old) = self.active[lit.constraint.rel.0].take() {
                self.pool.push(old);
            }
            if self.targets.len() < before {
                self.mark_targets();
                let member = &self.member;
                for f in self.active.iter_mut().flatten() {
                    f.retain(|_| true, |id| member.is_marked(id));
                }
                ann.retain(|_| true, |id| member.is_marked(id));
            }
            self.active[lit.constraint.rel.0] = Some(ann);
            if self.targets.is_empty() {
                break;
            }
        }
        fired.extend(self.targets.iter().map(|&id| Row(id)));
        Ok(())
    }

    /// Re-marks `member` and `slot` from `targets`.
    fn mark_targets(&mut self) {
        self.member.reset();
        for (i, &id) in self.targets.iter().enumerate() {
            self.member.mark(id);
            self.slot[id as usize] = i as u32;
        }
    }

    /// Applies `constraint` to `ann`, the frontier of `constraint.rel`,
    /// and marks in `passed` the targets that still satisfy the clause. A
    /// categorical or numerical test drops failing rows; an aggregation
    /// keeps the rows and tests each target's aggregate over them. Reads
    /// the constrained column at the touched rows, once (not at all for a
    /// pure count).
    fn constrain<S: TupleSource>(
        &mut self,
        src: &S,
        constraint: &Constraint,
        ann: &mut Frontier,
    ) -> Result<(), S::Error> {
        let SparseScratch { targets, member, passed, slot, values, agg, .. } = self;
        passed.reset();
        match &constraint.kind {
            ConstraintKind::CatEq { attr, value } => {
                src.values(constraint.rel, *attr, &ann.rows, values)?;
                ann.retain(|k| values[k] == Value::Cat(*value), |_| true);
            }
            ConstraintKind::Num { attr, op, threshold } => {
                src.values(constraint.rel, *attr, &ann.rows, values)?;
                let pass = |v: &Value| matches!(v, Value::Num(x) if op.test(*x, *threshold));
                ann.retain(|k| pass(&values[k]), |_| true);
            }
            ConstraintKind::Agg { agg: op_agg, attr, op, threshold } => {
                if let Some(a) = attr {
                    src.values(constraint.rel, *a, &ann.rows, values)?;
                }
                agg.clear();
                agg.resize(targets.len(), AggStats::default());
                let nums = attr.map(|_| values.as_slice());
                for k in 0..ann.rows.len() {
                    let num = nums.and_then(|v| v[k].as_num());
                    for &id in ann.ids(k) {
                        if !member.is_marked(id) {
                            continue;
                        }
                        let s = &mut agg[slot[id as usize] as usize];
                        s.rows += 1;
                        if let Some(x) = num {
                            s.num_rows += 1;
                            s.sum += x;
                        }
                    }
                }
                for (&id, s) in targets.iter().zip(agg.iter()) {
                    if s.value(*op_agg).is_some_and(|v| op.test(v, *threshold)) {
                        passed.mark(id);
                    }
                }
                return Ok(());
            }
        }
        for &id in &ann.ids {
            if member.is_marked(id) {
                passed.mark(id);
            }
        }
        Ok(())
    }
}

/// The frontier of `rel`, which callers guarantee is active (a literal
/// only reads active relations, Algorithm 3).
fn active_frontier(active: &[Option<Frontier>], rel: RelId) -> &Frontier {
    active[rel.0].as_ref().expect("literal reads an inactive relation")
}

/// Propagates `from` (a frontier of `edge.from`) across `edge` into `to`:
/// `idset(u) = ⋃ idset(t)` over the touched `t` joinable with `u`
/// (Definition 2). Reads `edge.from`'s join column at the touched rows
/// only; null join values never match, and a self-join edge does not hand
/// a tuple its own ids.
fn propagate<S: TupleSource>(
    src: &S,
    from: &Frontier,
    edge: &JoinEdge,
    to: &mut Frontier,
    values: &mut Vec<Value>,
    pairs: &mut Vec<(Row, u32)>,
    stats: &mut PropStats,
) -> Result<(), S::Error> {
    src.values(edge.from, edge.from_attr, &from.rows, values)?;
    let keys = src.keys(edge.to, edge.to_attr)?;
    let self_join = edge.from == edge.to && edge.from_attr == edge.to_attr;
    let caps = (pairs.capacity(), to.rows.capacity(), to.offsets.capacity(), to.ids.capacity());
    pairs.clear();
    for (k, v) in values.iter().enumerate() {
        let Value::Key(key) = *v else { continue };
        let row = from.rows[k];
        keys.for_each_row(key, |to_row| {
            if !(self_join && to_row == row) {
                pairs.push((to_row, k as u32));
            }
        });
    }
    pairs.sort_unstable();

    to.clear();
    for group in pairs.chunk_by(|a, b| a.0 == b.0) {
        let start = to.ids.len();
        for &(_, k) in group {
            to.ids.extend_from_slice(from.ids(k as usize));
        }
        stats.ids_propagated += (to.ids.len() - start) as u64;
        if group.len() > 1 {
            // Several senders: merge their sets into one sorted set.
            to.ids[start..].sort_unstable();
            let mut write = start + 1;
            for i in start + 1..to.ids.len() {
                if to.ids[i] != to.ids[write - 1] {
                    to.ids[write] = to.ids[i];
                    write += 1;
                }
            }
            to.ids.truncate(write);
        }
        to.rows.push(group[0].0);
        to.offsets.push(to.ids.len() as u32);
    }
    stats.passes += 1;
    if caps == (pairs.capacity(), to.rows.capacity(), to.offsets.capacity(), to.ids.capacity()) {
        stats.capacity_hits += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retain_compacts_rows_and_ids_in_place() {
        let mut f = Frontier::default();
        f.clear();
        for (row, ids) in [(1, &[0, 2][..]), (4, &[2]), (7, &[1, 2, 3]), (9, &[3])] {
            f.rows.push(Row(row));
            f.ids.extend_from_slice(ids);
            f.offsets.push(f.ids.len() as u32);
        }
        // Row 4 loses its only id; row 7 fails the row test.
        f.retain(|k| k != 2, |id| id != 2);
        assert_eq!(f.rows, [Row(1), Row(9)]);
        assert_eq!(f.offsets, [0, 1, 2]);
        assert_eq!((f.ids(0), f.ids(1)), (&[0][..], &[3][..]));
    }

    #[test]
    fn identity_seeds_each_row_with_itself() {
        let mut f = Frontier::default();
        f.identity(&[Row(3), Row(8)]);
        assert_eq!(f.offsets, [0, 1, 2]);
        assert_eq!((f.ids(0), f.ids(1)), (&[3][..], &[8][..]));
    }
}
