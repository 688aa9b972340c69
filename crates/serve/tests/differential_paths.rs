//! Every label path must give every batch slot the same answer, including
//! when a batch holds each row twice and when it is empty.
//!
//! The reference is core `predict` over the distinct rows, where no slot
//! can shadow another. The doubled batch is that row list twice over, so
//! each slot `i` and `i + n` ask about the same row.
//!
//! The evaluator runs a clause on a sparse frontier when the live rows are
//! at most an eighth of the target relation, and densely otherwise, so
//! the overlay check also runs batches on both sides of that rule.

use crossmine_core::classifier::CrossMine;
use crossmine_core::{propositionalize, ConstraintKind};
use crossmine_relational::{
    AttrId, AttrType, ClassLabel, Database, DeltaBatch, DeltaOverlay, RelId, Row, Value,
};
use crossmine_serve::{
    evaluate_batch, evaluate_batch_overlay, evaluate_batch_overlay_traced, evaluate_batch_traced,
    predict_disk, CompiledPlan, OverlayScratch, ServeScratch,
};
use crossmine_storage::DiskDatabase;
use crossmine_synth::{generate, GenParams};

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("crossmine-serve-diff-{tag}-{}", std::process::id()))
}

/// Labels per path, in a fixed order, for one batch.
fn all_paths(
    model: &crossmine_core::CrossMineModel,
    plan: &CompiledPlan,
    db: &crossmine_relational::Database,
    disk: &mut DiskDatabase,
    batch: &[Row],
) -> Vec<(&'static str, Vec<ClassLabel>)> {
    let empty = DeltaOverlay::build(db, &DeltaBatch::new()).unwrap();
    let explained: Vec<ClassLabel> =
        model.predict_explained(db, batch).unwrap().iter().map(|e| e.label).collect();
    let traced: Vec<ClassLabel> = evaluate_batch_traced(plan, db, batch, &mut ServeScratch::new())
        .iter()
        .map(|e| e.label)
        .collect();
    vec![
        ("predict", model.predict(db, batch).unwrap()),
        ("predict_explained", explained),
        ("evaluate_batch", evaluate_batch(plan, db, batch, &mut ServeScratch::new())),
        ("evaluate_batch_traced", traced),
        (
            "evaluate_batch_overlay",
            evaluate_batch_overlay(plan, db, &empty, batch, &mut OverlayScratch::new()),
        ),
        ("predict_disk", predict_disk(plan, disk, batch).unwrap()),
    ]
}

#[test]
fn every_path_labels_duplicate_and_empty_batches_alike() {
    let db = generate(&GenParams {
        num_relations: 5,
        expected_tuples: 200,
        seed: 21,
        ..Default::default()
    });
    let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
    let n = rows.len();
    let model = CrossMine::default().fit(&db, &rows).unwrap();
    assert!(model.num_clauses() >= 2, "the fixture must learn several clauses");
    let plan = CompiledPlan::compile(&model, &db.schema).unwrap();
    let reference = model.predict(&db, &rows).unwrap();

    let path = tmp("dup");
    let mut disk = DiskDatabase::spill(&db, &path, 16).unwrap();

    let doubled: Vec<Row> = rows.iter().chain(&rows).copied().collect();
    let want: Vec<ClassLabel> = reference.iter().chain(&reference).copied().collect();
    for (name, got) in all_paths(&model, &plan, &db, &mut disk, &doubled) {
        assert_eq!(got.len(), 2 * n, "{name}: one label per slot");
        let first_wrong = (0..n).filter(|&i| got[i] != want[i]).count();
        let second_wrong = (n..2 * n).filter(|&i| got[i] != want[i]).count();
        assert_eq!(
            (first_wrong, second_wrong),
            (0, 0),
            "{name}: wrong labels on (first, second) copies of the doubled batch"
        );
    }

    for (name, got) in all_paths(&model, &plan, &db, &mut disk, &[]) {
        assert!(got.is_empty(), "{name}: an empty batch has no labels");
    }
    std::fs::remove_file(&path).ok();

    let features = propositionalize(&model, &db, &doubled);
    assert_eq!(features.len(), 2 * n);
    let differing = (0..n).filter(|&i| features[i] != features[i + n]).count();
    assert_eq!(differing, 0, "propositionalize: copies of a row got different features");
    assert!(propositionalize(&model, &db, &[]).is_empty());
}

/// A delta that reaches what the model reads:
/// * fresh-keyed copies of rows of every keyed non-target relation, whose
///   foreign keys name existing rows, so existing tuples join them;
/// * fresh-keyed copies of target rows, every other one with its foreign
///   keys naming the new non-target rows;
/// * patches on every column a literal constrains, each cell set to
///   another row's value.
fn reaching_delta(db: &Database, model: &crossmine_core::CrossMineModel) -> DeltaBatch {
    let target = db.target().unwrap();
    let next_key = |rel: RelId| {
        let pk = db.schema.relation(rel).primary_key.unwrap();
        db.relation(rel).column(pk).iter().filter_map(|v| v.as_key()).max().unwrap_or(0) + 1
    };
    let mut batch = DeltaBatch::new();
    let mut fresh: Vec<(RelId, u64)> = Vec::new();
    for (rel, schema) in db.schema.iter_relations() {
        let len = db.relation(rel).len();
        let Some(pk) = schema.primary_key else { continue };
        if rel == target || len == 0 {
            continue;
        }
        let key = next_key(rel);
        for i in 0..3 {
            let mut tuple = db.relation(rel).tuple(Row(((i * 17) % len) as u32));
            tuple[pk.0] = Value::Key(key + i as u64);
            batch.insert(rel, tuple);
            fresh.push((rel, key + i as u64));
        }
    }
    let schema = db.schema.relation(target);
    let (len, key) = (db.relation(target).len(), next_key(target));
    for i in 0..6 {
        let src = Row(((i * 17) % len) as u32);
        let mut tuple = db.relation(target).tuple(src);
        tuple[schema.primary_key.unwrap().0] = Value::Key(key + i as u64);
        for (attr, a) in schema.iter_attrs() {
            let AttrType::ForeignKey { target: to } = &a.ty else { continue };
            let named = fresh.iter().find(|(r, _)| Some(*r) == db.schema.rel_id(to));
            if let (Some(&(_, k)), 0) = (named, i % 2) {
                tuple[attr.0] = Value::Key(k);
            }
        }
        batch.insert_labeled(target, tuple, db.label(src));
    }
    let mut constrained: Vec<(RelId, AttrId)> = Vec::new();
    for lit in model.clauses.iter().flat_map(|c| &c.literals) {
        let attr = match lit.constraint.kind {
            ConstraintKind::CatEq { attr, .. } | ConstraintKind::Num { attr, .. } => Some(attr),
            ConstraintKind::Agg { attr, .. } => attr,
        };
        if let Some(attr) = attr.filter(|&a| !constrained.contains(&(lit.constraint.rel, a))) {
            constrained.push((lit.constraint.rel, attr));
        }
    }
    assert!(!constrained.is_empty(), "the model must constrain some column");
    for &(rel, attr) in &constrained {
        let column = db.relation(rel).column(attr);
        for i in 0..column.len().min(40) {
            batch.update(rel, Row(i as u32), attr, column[(i * 7 + 3) % column.len()]);
        }
    }
    batch
}

#[test]
fn overlay_matches_the_materialized_merge_on_both_sides_of_the_density_rule() {
    let db = generate(&GenParams {
        num_relations: 5,
        expected_tuples: 200,
        seed: 21,
        ..Default::default()
    });
    let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
    let model = CrossMine::default().fit(&db, &rows).unwrap();
    let plan = CompiledPlan::compile(&model, &db.schema).unwrap();
    let delta = reaching_delta(&db, &model);
    let overlay = DeltaOverlay::build(&db, &delta).unwrap();
    assert!(overlay.inserted_rows() > 0 && overlay.updated_cells() > 0);
    let mut merged = db.clone();
    merged.apply_delta(&delta).unwrap();
    let n = merged.num_targets();
    assert!(n > rows.len(), "the delta inserts target rows");
    let all: Vec<Row> = (0..n as u32).map(Row).collect();
    let reference = model.predict(&merged, &all).unwrap();
    let base = model.predict(&db, &rows).unwrap();
    let changed = (0..rows.len()).filter(|&i| base[i] != reference[i]).count();
    assert!(changed > 0, "the patches must change some base row's label");

    // The inserted targets first, then the rest in a fixed scattered order.
    let mut order: Vec<Row> = all[rows.len()..].to_vec();
    let mut rest: Vec<Row> = all[..rows.len()].to_vec();
    rest.sort_by_key(|r| ((r.0 as usize * 37) % n, r.0));
    order.extend(rest);
    let under = n / 8;
    let batches: Vec<(&str, Vec<Row>)> = vec![
        ("one row", vec![all[n - 1]]),
        ("just under the rule", order[..under].to_vec()),
        ("just over the rule", order[..under + 1].to_vec()),
        ("all rows", all.clone()),
        ("every row doubled", all.iter().chain(&all).copied().collect()),
        ("a sparse batch doubled", order[..under / 2].repeat(2)),
        ("empty", Vec::new()),
    ];
    for (name, batch) in &batches {
        let want: Vec<ClassLabel> = batch.iter().map(|r| reference[r.0 as usize]).collect();
        let overlay_labels =
            evaluate_batch_overlay(&plan, &db, &overlay, batch, &mut OverlayScratch::new());
        assert_eq!(overlay_labels, want, "{name}: overlay vs the merge's predict");
        let merged_labels = evaluate_batch(&plan, &merged, batch, &mut ServeScratch::new());
        assert_eq!(merged_labels, want, "{name}: evaluate_batch on the merge");
        assert_eq!(model.predict(&merged, batch).unwrap(), want, "{name}: predict on the merge");
        let traced: Vec<ClassLabel> =
            evaluate_batch_overlay_traced(&plan, &db, &overlay, batch, &mut OverlayScratch::new())
                .iter()
                .map(|e| e.label)
                .collect();
        assert_eq!(traced, want, "{name}: traced overlay");
    }
    let mut scratch = OverlayScratch::new();
    for &row in &all {
        let got = evaluate_batch_overlay(&plan, &db, &overlay, &[row], &mut scratch);
        assert_eq!(got, [reference[row.0 as usize]], "row {} alone", row.0);
    }
}
