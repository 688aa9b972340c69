//! Disk-resident serving: compiled-plan prediction over a [`DiskDatabase`]
//! must agree exactly with in-memory prediction, and the buffer pool must
//! report a healthy (non-zero) hit rate through its `Display` stats.

use crossmine_core::classifier::CrossMine;
use crossmine_relational::Row;
use crossmine_serve::{predict_disk, CompiledPlan};
use crossmine_storage::{DiskDatabase, StorageError};
use crossmine_synth::{generate, GenParams};

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("crossmine-serve-disk-{tag}-{}", std::process::id()))
}

#[test]
fn disk_prediction_matches_memory_and_reports_hits() {
    let db = generate(&GenParams {
        num_relations: 5,
        expected_tuples: 120,
        min_tuples: 40,
        seed: 23,
        ..Default::default()
    });
    let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
    let model = CrossMine::default().fit(&db, &rows).unwrap();
    assert!(model.num_clauses() >= 1);
    let expected = model.predict(&db, &rows).unwrap();
    let plan = CompiledPlan::compile(&model, &db.schema).unwrap();

    let path = tmp("parity");
    // 8 frames: small enough to evict, large enough to re-hit hot pages.
    let mut disk = DiskDatabase::spill(&db, &path, 8).unwrap();
    let got = predict_disk(&plan, &mut disk, &rows).unwrap();
    assert_eq!(got, expected, "disk-resident prediction must equal in-memory prediction");

    let stats = disk.stats();
    assert!(stats.hits > 0, "serving against disk must re-hit buffered pages");
    assert!(stats.hit_rate() > 0.0);
    let rendered = format!("{stats}");
    assert!(rendered.contains("hits="), "stats Display: {rendered}");
    assert!(rendered.contains("hit_rate="), "stats Display: {rendered}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn disk_prediction_small_batches_and_tiny_pool() {
    let db = generate(&GenParams {
        num_relations: 4,
        expected_tuples: 80,
        min_tuples: 25,
        seed: 7,
        ..Default::default()
    });
    let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
    let model = CrossMine::default().fit(&db, &rows).unwrap();
    let expected = model.predict(&db, &rows).unwrap();
    let plan = CompiledPlan::compile(&model, &db.schema).unwrap();

    let path = tmp("tiny");
    // A pathologically small pool forces constant eviction; results must
    // not change, and per-chunk prediction must agree with the full batch.
    let mut disk = DiskDatabase::spill(&db, &path, 2).unwrap();
    let mut got = Vec::new();
    for c in rows.chunks(7) {
        got.extend(predict_disk(&plan, &mut disk, c).unwrap());
    }
    assert_eq!(got, expected);
    assert!(disk.resident_pages() <= 2);
    assert!(disk.stats().evictions > 0, "the tiny pool must have evicted");
    std::fs::remove_file(&path).ok();
}

#[test]
fn disk_read_errors_surface_as_errors() {
    let db = generate(&GenParams {
        num_relations: 4,
        expected_tuples: 80,
        min_tuples: 25,
        seed: 7,
        ..Default::default()
    });
    let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
    let model = CrossMine::default().fit(&db, &rows).unwrap();
    assert!(model.num_clauses() >= 1);
    let plan = CompiledPlan::compile(&model, &db.schema).unwrap();

    let path = tmp("truncated");
    // One frame: nearly every read goes to the file, which is then cut
    // short under the open database.
    let mut disk = DiskDatabase::spill(&db, &path, 1).unwrap();
    std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(0).unwrap();
    let err = predict_disk(&plan, &mut disk, &rows).unwrap_err();
    assert!(matches!(err, StorageError::Io(_)), "{err}");
    // An empty batch reads nothing, so it still succeeds.
    assert!(predict_disk(&plan, &mut disk, &[]).unwrap().is_empty());
    std::fs::remove_file(&path).ok();
}
