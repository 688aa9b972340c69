//! Best-literal search within one relation (§5.1).
//!
//! Given a relation that tuple IDs have been propagated to, find the
//! categorical, numerical, or aggregation constraint with the highest foil
//! gain. Categorical attributes are bucketed by value; numerical attributes
//! are swept through their sorted index ascending (for `A ≤ v`) and
//! descending (for `A ≥ v`) while growing a stamped pool of covered target
//! IDs; aggregation literals first compute per-target statistics and then
//! reuse the numerical sweep over those per-target values.

use std::borrow::Cow;

use crossmine_relational::{AttrId, Database, RelId};

use crate::gain::foil_gain;
use crate::idset::{Stamp, TargetSet};
use crate::literal::{AggOp, CmpOp, Constraint, ConstraintKind};
use crate::params::CrossMineParams;
use crate::propagation::{aggregate, AggStats, AnnView};
use crate::stats::{num_entries, CachedEntry, CatTable, Tables};

/// A constraint together with its foil gain and coverage.
#[derive(Debug, Clone)]
pub struct ScoredConstraint {
    /// The constraint found.
    pub constraint: Constraint,
    /// Its foil gain against the current clause.
    pub gain: f64,
    /// Positive targets covered.
    pub pos: usize,
    /// Negative targets covered.
    pub neg: usize,
}

/// Finds the best constraint in `rel` under annotation view `ann` (owned
/// [`crate::propagation::Annotation`]s convert implicitly; the parallel
/// search passes CSR scratch views), where the current clause covers
/// `targets`. `allow_aggregation` is false for the target relation
/// (aggregating a target tuple over itself is meaningless) and when the
/// params disable aggregation literals.
#[allow(clippy::too_many_arguments)] // the full search context is irreducible
pub fn best_constraint_in<'a>(
    db: &Database,
    rel: RelId,
    ann: impl Into<AnnView<'a>>,
    targets: &TargetSet,
    is_pos: &[bool],
    stamp: &mut Stamp,
    params: &CrossMineParams,
    allow_aggregation: bool,
) -> Option<ScoredConstraint> {
    let with_aggs = allow_aggregation && params.aggregation_literals;
    score_relation(db, rel, Counts::View(ann.into()), targets, is_pos, stamp, params, with_aggs)
}

/// [`best_constraint_in`] over a count-store entry: the same candidates in
/// the same order, but categorical groups, numerical sweep inputs and
/// per-target aggregates come from the entry's precomputed tables.
///
/// Parity with the live search: the entry was built from a *superset* of
/// the live annotation, and every tally filters through the live `targets`.
/// Filtered categorical groups equal the live ones exactly. The
/// numerical/aggregate sweeps may see extra ("phantom") rows whose ids all
/// filter out: a phantom distinct value emits the same `(p, n)` as the
/// previous emission (a gain tie, which the strict `>` in
/// [`score_relation`] never prefers) or `p == 0` (skipped), so the chosen
/// constraint and score are byte-identical — only the
/// `literals_considered` counter can differ.
///
/// Tallies the entry's cached annotation instead when the tables are absent
/// (fan-out-exceeded at build time) or lack the aggregate side this query
/// needs: parity-safe by the same superset argument, and still no
/// propagation pass.
#[allow(clippy::too_many_arguments)] // mirrors best_constraint_in
pub(crate) fn best_constraint_cached(
    db: &Database,
    rel: RelId,
    entry: &CachedEntry,
    targets: &TargetSet,
    is_pos: &[bool],
    stamp: &mut Stamp,
    params: &CrossMineParams,
    allow_aggregation: bool,
) -> Option<ScoredConstraint> {
    let with_aggs = allow_aggregation && params.aggregation_literals;
    let counts = match &entry.tables {
        Some(t) if !(with_aggs && t.aggs.is_none()) => Counts::Tables(t),
        _ => Counts::View(entry.view()),
    };
    score_relation(db, rel, counts, targets, is_pos, stamp, params, with_aggs)
}

/// Where one relation's sweep inputs come from.
#[derive(Clone, Copy)]
enum Counts<'a> {
    /// Tally a propagated annotation on the spot.
    View(AnnView<'a>),
    /// Read a count-store entry's precomputed tables.
    Tables(&'a Tables),
}

/// The §5.1 scan of one relation: every categorical value, every numerical
/// threshold and, with `with_aggs`, every aggregation literal, keeping the
/// first candidate of highest foil gain.
#[allow(clippy::too_many_arguments)] // mirrors best_constraint_in
fn score_relation(
    db: &Database,
    rel: RelId,
    counts: Counts<'_>,
    targets: &TargetSet,
    is_pos: &[bool],
    stamp: &mut Stamp,
    params: &CrossMineParams,
    with_aggs: bool,
) -> Option<ScoredConstraint> {
    let p_c = targets.pos();
    let n_c = targets.neg();
    if p_c == 0 {
        return None;
    }
    let mut best: Option<ScoredConstraint> = None;
    // Candidate literals evaluated in this relation; flushed to the obs
    // counter once at the end (a single add, not one per candidate).
    let mut considered = 0u64;
    let mut consider = |kind: ConstraintKind, p: usize, n: usize| {
        considered += 1;
        // Covering no positive, or everything, carries no information.
        if p == 0 || (p == p_c && n == n_c) {
            return;
        }
        let gain = foil_gain(p_c, n_c, p, n);
        if gain > best.as_ref().map_or(0.0, |b| b.gain) {
            best = Some(ScoredConstraint {
                constraint: Constraint { rel, kind },
                gain,
                pos: p,
                neg: n,
            });
        }
    };
    let schema = db.schema.relation(rel);

    for (aid, attr) in schema.iter_attrs() {
        if attr.ty.is_categorical() {
            let built;
            let table = match counts {
                Counts::View(ann) => {
                    built = CatTable::build(db, rel, aid, ann);
                    &built
                }
                Counts::Tables(t) => t.cat(aid),
            };
            // Count the distinct live targets behind each code.
            for code in 0..table.ranges.len() {
                stamp.reset();
                let mut p = 0;
                let mut n = 0;
                for &id in table.group(code) {
                    if targets.contains(id) && stamp.mark(id) {
                        if is_pos[id as usize] {
                            p += 1;
                        } else {
                            n += 1;
                        }
                    }
                }
                if p + n > 0 {
                    consider(ConstraintKind::CatEq { attr: aid, value: code as u32 }, p, n);
                }
            }
        } else if attr.ty.is_numerical() {
            let entries = match counts {
                Counts::View(ann) => num_entries(db, rel, aid, ann),
                Counts::Tables(t) => t.num(aid).entries(),
            };
            sweep_numeric(&entries, targets, is_pos, stamp, |op, threshold, p, n| {
                consider(ConstraintKind::Num { attr: aid, op, threshold }, p, n);
            });
        }
    }

    if with_aggs {
        let stats_of = |attr: Option<AttrId>| match counts {
            Counts::View(ann) => Cow::Owned(aggregate(db, rel, attr, ann, targets)),
            Counts::Tables(t) => Cow::Borrowed(t.agg(attr)),
        };
        // count(*) over joinable tuples, then sum/avg per numerical attribute.
        sweep_per_target(&stats_of(None), AggOp::Count, targets, is_pos, |op, threshold, p, n| {
            consider(ConstraintKind::Agg { agg: AggOp::Count, attr: None, op, threshold }, p, n);
        });
        for (aid, attr) in schema.iter_attrs() {
            if !attr.ty.is_numerical() {
                continue;
            }
            let stats = stats_of(Some(aid));
            for agg in [AggOp::Sum, AggOp::Avg] {
                sweep_per_target(&stats, agg, targets, is_pos, |op, threshold, p, n| {
                    consider(ConstraintKind::Agg { agg, attr: Some(aid), op, threshold }, p, n);
                });
            }
        }
    }

    params.obs.add("search.literals_considered", considered);
    best
}

/// Sweeps `(value, target-ids)` entries sorted ascending by value, reporting
/// at each distinct-value boundary the coverage of `A <= v` (ascending pass)
/// and `A >= v` (descending pass) through `emit(op, threshold, p, n)`.
fn sweep_numeric(
    entries: &[(f64, &[u32])],
    targets: &TargetSet,
    is_pos: &[bool],
    stamp: &mut Stamp,
    mut emit: impl FnMut(CmpOp, f64, usize, usize),
) {
    if entries.is_empty() {
        return;
    }
    for (op, forward) in [(CmpOp::Le, true), (CmpOp::Ge, false)] {
        stamp.reset();
        let mut p = 0;
        let mut n = 0;
        let mut i = 0;
        let len = entries.len();
        while i < len {
            let idx = if forward { i } else { len - 1 - i };
            let v = entries[idx].0;
            // Absorb every entry sharing this value.
            loop {
                let idx = if forward { i } else { len - 1 - i };
                if i >= len || entries[idx].0 != v {
                    break;
                }
                for &id in entries[idx].1 {
                    if targets.contains(id) && stamp.mark(id) {
                        if is_pos[id as usize] {
                            p += 1;
                        } else {
                            n += 1;
                        }
                    }
                }
                i += 1;
                if i >= len {
                    break;
                }
            }
            emit(op, v, p, n);
        }
    }
}

/// Sweeps per-target aggregate values: each target appears at most once, so
/// no distinct-counting is needed — just sorted prefix/suffix counts.
fn sweep_per_target(
    stats: &[AggStats],
    agg: AggOp,
    targets: &TargetSet,
    is_pos: &[bool],
    mut emit: impl FnMut(CmpOp, f64, usize, usize),
) {
    let mut vals: Vec<(f64, bool)> = Vec::new();
    for (id, s) in stats.iter().enumerate() {
        if !targets.contains(id as u32) {
            continue;
        }
        if let Some(v) = s.value(agg) {
            // A NaN aggregate (e.g. avg over a NaN-valued attribute) fails
            // every comparison at apply time: exclude it from coverage and
            // from the threshold pool, where it would stall the `==`
            // value-grouping loop.
            if !v.is_nan() {
                vals.push((v, is_pos[id]));
            }
        }
    }
    if vals.is_empty() {
        return;
    }
    // total_cmp instead of `partial_cmp(..).unwrap_or(Equal)`: with NaNs a
    // fallback-to-Equal comparator is not a total order, so the sort could
    // leave the array arbitrarily shuffled and silently break the
    // sorted-prefix coverage counts below.
    vals.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Ascending: A <= v.
    let mut p = 0;
    let mut n = 0;
    let mut i = 0;
    while i < vals.len() {
        let v = vals[i].0;
        while i < vals.len() && vals[i].0 == v {
            if vals[i].1 {
                p += 1;
            } else {
                n += 1;
            }
            i += 1;
        }
        emit(CmpOp::Le, v, p, n);
    }
    // Descending: A >= v.
    let mut p = 0;
    let mut n = 0;
    let mut i = vals.len();
    while i > 0 {
        let v = vals[i - 1].0;
        while i > 0 && vals[i - 1].0 == v {
            if vals[i - 1].1 {
                p += 1;
            } else {
                n += 1;
            }
            i -= 1;
        }
        emit(CmpOp::Ge, v, p, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idset::IdSet;
    use crate::propagation::Annotation;
    use crossmine_relational::{
        AttrId, AttrType, Attribute, ClassLabel, DatabaseSchema, RelationSchema, Value,
    };

    /// One relation `T(pk, color, x)` where IDs are "propagated" as identity:
    /// row i is joinable with target i.
    fn single_rel_db(rows: &[(u32, f64)], labels: &[bool]) -> (Database, Vec<bool>) {
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        let mut color = Attribute::new("color", AttrType::Categorical);
        color.intern("c0");
        color.intern("c1");
        color.intern("c2");
        t.add_attribute(color).unwrap();
        t.add_attribute(Attribute::new("x", AttrType::Numerical)).unwrap();
        let tid = schema.add_relation(t).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        for (i, (c, x)) in rows.iter().enumerate() {
            db.push_row(tid, vec![Value::Key(i as u64), Value::Cat(*c), Value::Num(*x)]).unwrap();
            db.push_label(if labels[i] { ClassLabel::POS } else { ClassLabel::NEG });
        }
        (db, labels.to_vec())
    }

    fn identity_ann(n: usize) -> Annotation {
        Annotation { idsets: (0..n as u32).map(IdSet::singleton).collect() }
    }

    #[test]
    fn finds_perfect_categorical_literal() {
        // color c0 <=> positive.
        let rows = [(0u32, 1.0), (0, 2.0), (1, 3.0), (2, 4.0)];
        let labels = [true, true, false, false];
        let (db, is_pos) = single_rel_db(&rows, &labels);
        let targets = TargetSet::all(&is_pos);
        let mut stamp = Stamp::new(4);
        let params = CrossMineParams::builder().aggregation_literals(false).build().unwrap();
        let best = best_constraint_in(
            &db,
            db.target().unwrap(),
            &identity_ann(4),
            &targets,
            &is_pos,
            &mut stamp,
            &params,
            false,
        )
        .unwrap();
        match best.constraint.kind {
            ConstraintKind::CatEq { attr, value } => {
                assert_eq!(attr, AttrId(1));
                assert_eq!(value, 0);
            }
            ref k => panic!("expected categorical literal, got {k:?}"),
        }
        assert_eq!((best.pos, best.neg), (2, 0));
        // gain = 2 * I(c) = 2 * 1 bit.
        assert!((best.gain - 2.0).abs() < 1e-12);
    }

    #[test]
    fn finds_numerical_threshold() {
        // x <= 2.5 <=> positive; colors are uninformative.
        let rows = [(0u32, 1.0), (1, 2.0), (0, 3.0), (1, 4.0)];
        let labels = [true, true, false, false];
        let (db, is_pos) = single_rel_db(&rows, &labels);
        let targets = TargetSet::all(&is_pos);
        let mut stamp = Stamp::new(4);
        let params = CrossMineParams::builder().aggregation_literals(false).build().unwrap();
        let best = best_constraint_in(
            &db,
            db.target().unwrap(),
            &identity_ann(4),
            &targets,
            &is_pos,
            &mut stamp,
            &params,
            false,
        )
        .unwrap();
        match best.constraint.kind {
            ConstraintKind::Num { op, threshold, .. } => {
                assert_eq!(op, CmpOp::Le);
                assert_eq!(threshold, 2.0);
            }
            ref k => panic!("expected numerical literal, got {k:?}"),
        }
        assert_eq!((best.pos, best.neg), (2, 0));
    }

    #[test]
    fn numerical_sweep_equals_bruteforce() {
        // Cross-check the sweep against brute-force evaluation of every
        // threshold on a fixed irregular dataset.
        let rows: Vec<(u32, f64)> =
            [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0].iter().map(|&x| (0u32, x)).collect();
        let labels = [true, false, true, true, false, true, false, false, true, false];
        let (db, is_pos) = single_rel_db(&rows, &labels);
        let targets = TargetSet::all(&is_pos);
        let mut stamp = Stamp::new(10);
        let params = CrossMineParams::builder().aggregation_literals(false).build().unwrap();
        let best = best_constraint_in(
            &db,
            db.target().unwrap(),
            &identity_ann(10),
            &targets,
            &is_pos,
            &mut stamp,
            &params,
            false,
        )
        .unwrap();

        // Brute force over all (op, threshold) pairs.
        let mut brute_best = f64::NEG_INFINITY;
        for &(_, x) in &rows {
            for op in [CmpOp::Le, CmpOp::Ge] {
                let (mut p, mut n) = (0, 0);
                for (i, &(_, xi)) in rows.iter().enumerate() {
                    if op.test(xi, x) {
                        if labels[i] {
                            p += 1;
                        } else {
                            n += 1;
                        }
                    }
                }
                if p > 0 && !(p == 5 && n == 5) {
                    brute_best = brute_best.max(foil_gain(5, 5, p, n));
                }
            }
        }
        assert!((best.gain - brute_best).abs() < 1e-9, "{} vs {brute_best}", best.gain);
    }

    #[test]
    fn returns_none_without_positives() {
        let rows = [(0u32, 1.0)];
        let labels = [false];
        let (db, is_pos) = single_rel_db(&rows, &labels);
        let targets = TargetSet::all(&is_pos);
        let mut stamp = Stamp::new(1);
        let params = CrossMineParams::default();
        assert!(best_constraint_in(
            &db,
            db.target().unwrap(),
            &identity_ann(1),
            &targets,
            &is_pos,
            &mut stamp,
            &params,
            false,
        )
        .is_none());
    }

    #[test]
    fn universal_literal_rejected() {
        // All rows share color c0 and label mixes: the only categorical
        // literal covers everything and must not be proposed.
        let rows = [(0u32, 1.0), (0, 1.0)];
        let labels = [true, false];
        let (db, is_pos) = single_rel_db(&rows, &labels);
        let targets = TargetSet::all(&is_pos);
        let mut stamp = Stamp::new(2);
        let params = CrossMineParams::builder().aggregation_literals(false).build().unwrap();
        let best = best_constraint_in(
            &db,
            db.target().unwrap(),
            &identity_ann(2),
            &targets,
            &is_pos,
            &mut stamp,
            &params,
            false,
        );
        // x <= 1.0 also covers everything; no candidate survives.
        assert!(best.is_none());
    }

    #[test]
    fn distinct_counting_under_fanout() {
        // Two tuples both joinable with target 0 (positive): a literal
        // matching both must count target 0 once.
        let rows = [(0u32, 1.0), (0, 2.0), (1, 3.0)];
        let labels = [true, false, false];
        let (db, is_pos) = single_rel_db(&rows, &labels);
        let targets = TargetSet::all(&is_pos);
        let ann = Annotation {
            idsets: vec![IdSet::singleton(0), IdSet::singleton(0), IdSet::singleton(1)],
        };
        let mut stamp = Stamp::new(3);
        let params = CrossMineParams::builder().aggregation_literals(false).build().unwrap();
        let best = best_constraint_in(
            &db,
            db.target().unwrap(),
            &ann,
            &targets,
            &is_pos,
            &mut stamp,
            &params,
            false,
        )
        .unwrap();
        // Best literal is color=c0 covering rows 0,1 -> target {0}: 1 pos, 0 neg.
        assert_eq!((best.pos, best.neg), (1, 0));
    }

    #[test]
    fn aggregation_count_literal_found() {
        // Targets 0,1 joinable with 3 tuples each; targets 2,3 with 1. The
        // count >= 3 literal separates them perfectly. Attribute values are
        // uninformative.
        let rows = [(0u32, 1.0); 8];
        let labels = [true, true, false, false];
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        let mut c = Attribute::new("color", AttrType::Categorical);
        c.intern("c0");
        t.add_attribute(c).unwrap();
        t.add_attribute(Attribute::new("x", AttrType::Numerical)).unwrap();
        let tid = schema.add_relation(t).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        for (i, (c, x)) in rows.iter().enumerate() {
            db.push_row(tid, vec![Value::Key(i as u64), Value::Cat(*c), Value::Num(*x)]).unwrap();
        }
        // 4 targets (only first 4 rows are "targets" conceptually; labels len 4).
        let is_pos = labels.to_vec();
        let targets = TargetSet::all(&is_pos);
        // Non-target-side annotation: rows 0..2 -> target0, 3..5 -> target1,
        // 6 -> target2, 7 -> target3.
        let ann = Annotation {
            idsets: vec![
                IdSet::singleton(0),
                IdSet::singleton(0),
                IdSet::singleton(0),
                IdSet::singleton(1),
                IdSet::singleton(1),
                IdSet::singleton(1),
                IdSet::singleton(2),
                IdSet::singleton(3),
            ],
        };
        let mut stamp = Stamp::new(4);
        let params = CrossMineParams::default();
        let best = best_constraint_in(&db, tid, &ann, &targets, &is_pos, &mut stamp, &params, true)
            .unwrap();
        match best.constraint.kind {
            ConstraintKind::Agg { agg: AggOp::Count, op: CmpOp::Ge, threshold, .. } => {
                assert_eq!(threshold, 3.0);
            }
            ref k => panic!("expected count literal, got {k:?}"),
        }
        assert_eq!((best.pos, best.neg), (2, 0));
    }

    #[test]
    fn nan_aggregate_values_keep_sweep_deterministic() {
        // A NaN attribute value makes sum/avg aggregates NaN for its target.
        // The per-target sweep used to sort with `partial_cmp(..).unwrap_or
        // (Equal)`, which leaves the array arbitrarily ordered around NaNs
        // and silently breaks the sorted-prefix coverage counts; `total_cmp`
        // sorts NaNs to a deterministic end. The perfect discriminator here
        // is avg(x): 1.5 for the positives vs 50.0/60.0 for the negatives,
        // and it must still be found with a NaN avg in the pool.
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        let mut c = Attribute::new("color", AttrType::Categorical);
        c.intern("c0");
        t.add_attribute(c).unwrap();
        t.add_attribute(Attribute::new("x", AttrType::Numerical)).unwrap();
        let tid = schema.add_relation(t).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        // Two rows per target: t0 sums to 3, t1 to 5, t2 to NaN, t3 to 202.
        // No plain numerical threshold separates the classes (every cut
        // either covers everything or mixes), but sum(x) <= 5 does.
        let xs = [1.0, 2.0, 2.0, 3.0, f64::NAN, 1.0, 2.0, 200.0];
        for (i, x) in xs.iter().enumerate() {
            db.push_row(tid, vec![Value::Key(i as u64), Value::Cat(0), Value::Num(*x)]).unwrap();
        }
        let is_pos = vec![true, true, false, false];
        let targets = TargetSet::all(&is_pos);
        let ann = Annotation { idsets: (0..8).map(|i| IdSet::singleton(i / 2)).collect() };
        let mut stamp = Stamp::new(4);
        let params = CrossMineParams::default();
        let run = |stamp: &mut Stamp| {
            best_constraint_in(&db, tid, &ann, &targets, &is_pos, stamp, &params, true)
                .expect("a discriminating aggregate literal exists")
        };
        let first = run(&mut stamp);
        let second = run(&mut stamp);
        assert_eq!(format!("{:?}", first.constraint), format!("{:?}", second.constraint));
        assert!(first.gain.is_finite());
        // Coverage counts must stay within the target totals (the broken
        // sort could double-count prefix entries).
        assert!(first.pos <= targets.pos() && first.neg <= targets.neg());
        match first.constraint.kind {
            ConstraintKind::Agg { agg: AggOp::Sum, op: CmpOp::Le, threshold, .. } => {
                assert!(threshold.is_finite(), "NaN threshold chosen: {threshold}");
                assert_eq!(threshold, 5.0);
            }
            ref k => panic!("expected sum <= 5 literal, got {k:?}"),
        }
        assert_eq!((first.pos, first.neg), (2, 0));
    }
}
