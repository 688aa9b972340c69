//! The evaluator's two clause states must agree. `evaluate` runs a clause
//! on the sparse frontier when the live rows are at most an eighth of the
//! target relation and on the dense `ClauseState` otherwise, so a small
//! subset takes the sparse path and all rows the dense one. For random
//! synthetic databases and random subsets with duplicates, the subset's
//! labels and fires must equal the all-rows answer projected onto it.

use crossmine_core::evaluate::{evaluate, EvalScratch, FireSink, LabelSink};
use crossmine_core::{AggOp, Clause, CmpOp, ComplexLiteral, Constraint, ConstraintKind, CrossMine};
use crossmine_datasets::{generate_financial, FinancialConfig};
use crossmine_relational::{
    AttrId, AttrType, Attribute, ClassLabel, Database, DatabaseSchema, JoinGraph, RelationSchema,
    Row, Value,
};
use proptest::prelude::*;

/// Checks `picks` (indices into the target rows, any multiset) against
/// the all-rows evaluation, for both sinks. Returns the first mismatch.
fn check_subset(db: &Database, clauses: &[Clause], picks: &[usize]) -> Result<(), String> {
    let n = db.num_targets();
    let all: Vec<Row> = (0..n as u32).map(Row).collect();
    let subset: Vec<Row> = picks.iter().map(|&p| Row((p % n) as u32)).collect();
    let mut scratch = EvalScratch::default();

    let mut dense = LabelSink::new(n);
    let Ok(_) = evaluate(clauses, db, &db.schema, &all, &mut dense, &mut scratch);
    let mut sparse = LabelSink::new(subset.len());
    let Ok(_) = evaluate(clauses, db, &db.schema, &subset, &mut sparse, &mut scratch);
    let default = ClassLabel(u32::MAX);
    let (dense, sparse) = (dense.labels(clauses, default), sparse.labels(clauses, default));
    for (slot, row) in subset.iter().enumerate() {
        if sparse[slot] != dense[row.0 as usize] {
            return Err(format!("label of row {} at slot {slot}", row.0));
        }
    }

    let mut dense = FireSink::new(n);
    let Ok(_) = evaluate(clauses, db, &db.schema, &all, &mut dense, &mut scratch);
    let mut sparse = FireSink::new(subset.len());
    let Ok(_) = evaluate(clauses, db, &db.schema, &subset, &mut sparse, &mut scratch);
    for (slot, row) in subset.iter().enumerate() {
        if sparse.fired(slot) != dense.fired(row.0 as usize) {
            return Err(format!("fires of row {} at slot {slot}", row.0));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sparse_subsets_match_dense_all_rows(
        seed in 0u64..10_000,
        relations in 2usize..6,
        picks in prop::collection::vec(prop::collection::vec(0usize..10_000, 0..12), 1..6),
    ) {
        let db = crossmine_synth::generate(&crossmine_synth::GenParams {
            num_relations: relations,
            expected_tuples: 120,
            min_tuples: 100,
            seed,
            ..Default::default()
        });
        let rows: Vec<Row> = (0..db.num_targets() as u32).map(Row).collect();
        let model = CrossMine::default().fit(&db, &rows).expect("fit");
        for batch in &picks {
            // Every batch repeats its first row, so duplicates are always
            // present; all stay within the sparse density.
            let mut batch = batch.clone();
            if let Some(&first) = batch.first() {
                batch.push(first);
            }
            prop_assert!(batch.len() * 8 <= db.num_targets());
            let outcome = check_subset(&db, &model.clauses, &batch);
            prop_assert!(outcome.is_ok(), "{:?} for batch {:?}", outcome, batch);
        }
    }
}

/// The financial database has numerical and aggregation literals over
/// several hops, where float sums must accumulate in the same order on
/// both paths.
#[test]
fn financial_subsets_match_dense_all_rows() {
    let db = generate_financial(&FinancialConfig::small());
    let rows: Vec<Row> = (0..db.num_targets() as u32).map(Row).collect();
    let model = CrossMine::default().fit(&db, &rows).expect("fit");
    let n = db.num_targets();
    for start in (0..n).step_by(7) {
        let picks: Vec<usize> = (0..n / 8 - 1).map(|i| start + i * 13).chain([start]).collect();
        check_subset(&db, &model.clauses, &picks).expect("sparse equals dense");
    }
}

/// `T ← S → U`, where every target reaches its `U` tuple through two `S`
/// tuples and every third target also reaches a second `U` tuple: the `U`
/// idsets merge duplicate ids from several senders, which a count or sum
/// over `U` must see once.
#[test]
fn converging_paths_count_each_target_once() {
    let mut schema = DatabaseSchema::new();
    let mut t = RelationSchema::new("T");
    t.add_attribute(Attribute::new("t_id", AttrType::PrimaryKey)).unwrap();
    let mut u = RelationSchema::new("U");
    u.add_attribute(Attribute::new("u_id", AttrType::PrimaryKey)).unwrap();
    u.add_attribute(Attribute::new("x", AttrType::Numerical)).unwrap();
    let mut s = RelationSchema::new("S");
    s.add_attribute(Attribute::new("s_id", AttrType::PrimaryKey)).unwrap();
    s.add_attribute(Attribute::new("t_id", AttrType::ForeignKey { target: "T".into() })).unwrap();
    s.add_attribute(Attribute::new("u_id", AttrType::ForeignKey { target: "U".into() })).unwrap();
    let (tid, uid, sid) = (
        schema.add_relation(t).unwrap(),
        schema.add_relation(u).unwrap(),
        schema.add_relation(s).unwrap(),
    );
    schema.set_target(tid);
    let mut db = Database::new(schema).unwrap();
    for i in 0..4u64 {
        db.push_row(uid, vec![Value::Key(i), Value::Num(1.5 * i as f64 + 0.1)]).unwrap();
    }
    let mut s_key = 0;
    let mut link = |db: &mut Database, t: u64, u: u64| {
        db.push_row(sid, vec![Value::Key(s_key), Value::Key(t), Value::Key(u)]).unwrap();
        s_key += 1;
    };
    for i in 0..24u64 {
        db.push_row(tid, vec![Value::Key(i)]).unwrap();
        db.push_label(ClassLabel(0));
        link(&mut db, i, i % 4);
        link(&mut db, i, i % 4);
        if i % 3 == 0 {
            link(&mut db, i, (i + 1) % 4);
        }
    }
    let graph = JoinGraph::build(&db.schema);
    let to_s = *graph.edges_from(tid).find(|e| e.to == sid).unwrap();
    let to_u = *graph.edges_from(sid).find(|e| e.to == uid).unwrap();
    let agg = |agg, attr, threshold| Clause {
        literals: vec![ComplexLiteral {
            path: vec![to_s, to_u],
            constraint: Constraint {
                rel: uid,
                kind: ConstraintKind::Agg { agg, attr, op: CmpOp::Ge, threshold },
            },
        }],
        label: ClassLabel(1),
        sup_pos: 1,
        sup_neg: 0.0,
        accuracy: 1.0,
    };
    let clauses = [agg(AggOp::Count, None, 2.0), agg(AggOp::Sum, Some(AttrId(1)), 4.0)];
    // Count the targets the count clause fires for on all rows (dense):
    // only those reaching two distinct `U` tuples.
    let rows: Vec<Row> = (0..24).map(Row).collect();
    let mut all = LabelSink::new(24);
    let count = &clauses[..1];
    let _ = evaluate(count, &db, &db.schema, &rows, &mut all, &mut EvalScratch::default());
    let fired = all.labels(count, ClassLabel(0)).iter().filter(|&&l| l == ClassLabel(1)).count();
    assert_eq!(fired, 8, "every third target reaches two U tuples");
    for picks in [[0usize, 0, 3], [1, 2, 5], [6, 7, 8], [9, 10, 21]] {
        check_subset(&db, &clauses, &picks).expect("sparse equals dense");
    }
}
