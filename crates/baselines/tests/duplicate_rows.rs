//! FOIL and TILDE label a row the same wherever it sits in a batch: a
//! batch holding every target row twice gets, on both copies, the label
//! the row gets in a batch of distinct rows.

use crossmine_baselines::{Foil, Tilde};
use crossmine_relational::{ClassLabel, Database, Row};
use crossmine_synth::{generate, GenParams};

fn fixture() -> (Database, Vec<Row>) {
    let db = generate(&GenParams {
        num_relations: 5,
        expected_tuples: 200,
        seed: 21,
        ..Default::default()
    });
    let rows = db.relation(db.target().unwrap()).iter_rows().collect();
    (db, rows)
}

/// Counts (first-copy, second-copy) slots of the doubled batch whose label
/// differs from the distinct-row prediction.
fn wrong_copies(rows: &[Row], predict: impl Fn(&[Row]) -> Vec<ClassLabel>) -> (usize, usize) {
    let reference = predict(rows);
    let doubled: Vec<Row> = rows.iter().chain(rows).copied().collect();
    let got = predict(&doubled);
    assert_eq!(got.len(), doubled.len());
    let n = rows.len();
    let first = (0..n).filter(|&i| got[i] != reference[i]).count();
    let second = (0..n).filter(|&i| got[n + i] != reference[i]).count();
    assert!(predict(&[]).is_empty());
    (first, second)
}

#[test]
fn foil_labels_duplicate_rows_alike() {
    let (db, rows) = fixture();
    let model = Foil::default().fit(&db, &rows);
    assert_eq!(wrong_copies(&rows, |batch| model.predict(&db, batch)), (0, 0));
}

#[test]
fn tilde_labels_duplicate_rows_alike() {
    let (db, rows) = fixture();
    let model = Tilde::default().fit(&db, &rows);
    assert_eq!(wrong_copies(&rows, |batch| model.predict(&db, batch)), (0, 0));
}
