//! Oracle tests for aggregation literals (§3.2/§5.1): the per-target
//! aggregate statistics and the best-aggregation-literal search must agree
//! with brute-force recomputation from raw joins.

use crossmine_core::idset::{Stamp, TargetSet};
use crossmine_core::literal::{AggOp, CmpOp, ConstraintKind};
use crossmine_core::propagation::{aggregate, ClauseState};
use crossmine_core::search::best_constraint_in;
use crossmine_core::CrossMineParams;
use crossmine_relational::{
    AttrId, AttrType, Attribute, ClassLabel, Database, DatabaseSchema, JoinGraph, RelationSchema,
    Row, Value,
};

/// T (target) 1-to-n S with a numerical attribute; counts per target vary.
fn one_to_n_db(seed: u64, n_targets: u64) -> Database {
    let mut schema = DatabaseSchema::new();
    let mut t = RelationSchema::new("T");
    t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
    let mut s = RelationSchema::new("S");
    s.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
    s.add_attribute(Attribute::new("t_id", AttrType::ForeignKey { target: "T".into() })).unwrap();
    s.add_attribute(Attribute::new("x", AttrType::Numerical)).unwrap();
    let tid = schema.add_relation(t).unwrap();
    let sid = schema.add_relation(s).unwrap();
    schema.set_target(tid);
    let mut db = Database::new(schema).unwrap();
    // Deterministic pseudo-random without rand: a simple LCG.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut s_id = 0u64;
    for i in 0..n_targets {
        let pos = next() % 2 == 0;
        db.push_row(tid, vec![Value::Key(i)]).unwrap();
        db.push_label(if pos { ClassLabel::POS } else { ClassLabel::NEG });
        let children = next() % 5; // 0..=4 children
        for _ in 0..children {
            s_id += 1;
            let x = f64::from(next() % 1000) / 10.0;
            db.push_row(sid, vec![Value::Key(s_id), Value::Key(i), Value::Num(x)]).unwrap();
        }
    }
    db
}

/// Brute-force per-target aggregates straight from the raw S relation.
fn brute_aggregates(db: &Database) -> Vec<(u32, f64)> {
    let sid = db.schema.rel_id("S").unwrap();
    let s = db.relation(sid);
    let mut acc = vec![(0u32, 0.0f64); db.num_targets()];
    for r in s.iter_rows() {
        let t = s.value(r, AttrId(1)).as_key().unwrap() as usize;
        let x = s.value(r, AttrId(2)).as_num().unwrap();
        acc[t].0 += 1;
        acc[t].1 += x;
    }
    acc
}

#[test]
fn aggregate_stats_match_bruteforce() {
    for seed in [1u64, 7, 42] {
        let db = one_to_n_db(seed, 60);
        let graph = JoinGraph::build(&db.schema);
        let target = db.target().unwrap();
        let sid = db.schema.rel_id("S").unwrap();
        let edge = *graph.edges().iter().find(|e| e.from == target && e.to == sid).unwrap();
        let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
        let targets = TargetSet::all(&is_pos);
        let state = ClauseState::new(&db, &is_pos, targets.clone());
        let ann = state.propagate_edge(&edge);
        let stats = aggregate(&db, sid, Some(AttrId(2)), &ann, &targets);
        let brute = brute_aggregates(&db);
        for (t, &(count, sum)) in brute.iter().enumerate() {
            assert_eq!(stats[t].rows, count, "seed {seed} target {t} count");
            assert!(
                (stats[t].sum - sum).abs() < 1e-9,
                "seed {seed} target {t} sum {} vs {sum}",
                stats[t].sum
            );
            if count > 0 {
                let avg = stats[t].value(AggOp::Avg).unwrap();
                assert!((avg - sum / count as f64).abs() < 1e-9);
            } else {
                assert_eq!(stats[t].value(AggOp::Count), None);
            }
        }
    }
}

#[test]
fn best_aggregation_literal_matches_bruteforce_gain() {
    let db = one_to_n_db(3, 80);
    let graph = JoinGraph::build(&db.schema);
    let target = db.target().unwrap();
    let sid = db.schema.rel_id("S").unwrap();
    let edge = *graph.edges().iter().find(|e| e.from == target && e.to == sid).unwrap();
    let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
    let targets = TargetSet::all(&is_pos);
    let state = ClauseState::new(&db, &is_pos, targets.clone());
    let ann = state.propagate_edge(&edge);
    let mut stamp = Stamp::new(db.num_targets());
    let params = CrossMineParams::default();
    let best = best_constraint_in(&db, sid, &ann, &targets, &mut stamp, &params, true);

    // Brute force every aggregation literal: for each (agg, op, threshold
    // drawn from realized aggregate values), count covered pos/neg and
    // compute gain; also every plain numerical/no literal — the search's
    // winner must match the global max.
    let p_c = targets.pos();
    let n_c = targets.neg();
    let brute = brute_aggregates(&db);
    let mut best_gain = f64::NEG_INFINITY;
    for agg in [AggOp::Count, AggOp::Sum, AggOp::Avg] {
        let values: Vec<Option<f64>> = brute
            .iter()
            .map(|&(c, s)| match agg {
                AggOp::Count => (c > 0).then_some(f64::from(c)),
                AggOp::Sum => (c > 0).then_some(s),
                AggOp::Avg => (c > 0).then_some(s / f64::from(c)),
            })
            .collect();
        for threshold in values.iter().flatten() {
            for op in [CmpOp::Le, CmpOp::Ge] {
                let (mut p, mut n) = (0, 0);
                for (t, v) in values.iter().enumerate() {
                    if let Some(v) = v {
                        if op.test(*v, *threshold) {
                            if is_pos[t] {
                                p += 1;
                            } else {
                                n += 1;
                            }
                        }
                    }
                }
                if p > 0 && !(p == p_c && n == n_c) {
                    best_gain = best_gain.max(crossmine_core::gain::foil_gain(p_c, n_c, p, n));
                }
            }
        }
    }
    // Plain numerical literals on S.x compete too; compute their best gain.
    let s = db.relation(sid);
    let xs: Vec<f64> = s.iter_rows().map(|r| s.value(r, AttrId(2)).as_num().unwrap()).collect();
    let owner: Vec<usize> =
        s.iter_rows().map(|r| s.value(r, AttrId(1)).as_key().unwrap() as usize).collect();
    for &threshold in &xs {
        for op in [CmpOp::Le, CmpOp::Ge] {
            let mut seen = vec![false; db.num_targets()];
            for (row, &x) in xs.iter().enumerate() {
                if op.test(x, threshold) {
                    seen[owner[row]] = true;
                }
            }
            let p = seen.iter().enumerate().filter(|&(t, &s)| s && is_pos[t]).count();
            let n = seen.iter().enumerate().filter(|&(t, &s)| s && !is_pos[t]).count();
            if p > 0 && !(p == p_c && n == n_c) {
                best_gain = best_gain.max(crossmine_core::gain::foil_gain(p_c, n_c, p, n));
            }
        }
    }

    let found = best.expect("some literal must score");
    assert!(
        (found.gain - best_gain).abs() < 1e-9,
        "search found gain {} ({:?}), brute force best {best_gain}",
        found.gain,
        found.constraint.kind
    );
}

#[test]
fn zero_child_targets_never_satisfy_aggregation() {
    let db = one_to_n_db(5, 40);
    let graph = JoinGraph::build(&db.schema);
    let target = db.target().unwrap();
    let sid = db.schema.rel_id("S").unwrap();
    let edge = *graph.edges().iter().find(|e| e.from == target && e.to == sid).unwrap();
    let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
    let mut state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
    let brute = brute_aggregates(&db);
    let childless: Vec<u32> =
        brute.iter().enumerate().filter(|(_, &(c, _))| c == 0).map(|(t, _)| t as u32).collect();
    assert!(!childless.is_empty(), "want some childless targets in this seed");

    // count(*) <= huge threshold still excludes childless targets.
    let lit = crossmine_core::ComplexLiteral {
        path: vec![edge],
        constraint: crossmine_core::Constraint {
            rel: sid,
            kind: ConstraintKind::Agg {
                agg: AggOp::Count,
                attr: None,
                op: CmpOp::Le,
                threshold: 1e12,
            },
        },
    };
    let mut stamp = Stamp::new(db.num_targets());
    state.apply_literal(&lit, &mut stamp);
    for t in childless {
        assert!(
            !state.targets.contains(t),
            "childless target {t} must not satisfy an aggregation literal"
        );
    }
    for (t, &(c, _)) in brute.iter().enumerate() {
        if c > 0 {
            assert!(state.targets.contains(t as u32), "target {t} with {c} children satisfies");
        }
    }
    let _ = Row(0);
}
