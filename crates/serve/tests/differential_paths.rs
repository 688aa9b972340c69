//! Every label path must give every batch slot the same answer, including
//! when a batch holds each row twice and when it is empty.
//!
//! The reference is core `predict` over the distinct rows, where no slot
//! can shadow another. The doubled batch is that row list twice over, so
//! each slot `i` and `i + n` ask about the same row.

use crossmine_core::classifier::CrossMine;
use crossmine_core::propositionalize;
use crossmine_relational::{ClassLabel, DeltaBatch, DeltaOverlay, Row};
use crossmine_serve::{
    evaluate_batch, evaluate_batch_overlay, evaluate_batch_traced, predict_disk, CompiledPlan,
    OverlayScratch, ServeScratch,
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
