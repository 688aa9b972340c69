//! Server-level delta/overlay contract: `PredictionServer::apply_delta`
//! answers exactly as a server over the materialized merge would — labels,
//! epochs, and full provenance — without recompiling or copying the base;
//! invalid batches are rejected atomically as typed [`ServeError`]s; and a
//! property sweep pins base + overlay to the materialized merge for
//! arbitrary valid delta batches.

use std::sync::Arc;

use proptest::prelude::*;

use crossmine_core::CrossMine;
use crossmine_relational::fixtures::fig2_loan_account;
use crossmine_relational::{
    AttrId, ClassLabel, Database, DeltaBatch, DeltaOverlay, RelId, Row, Value,
};
use crossmine_serve::{
    evaluate_batch, evaluate_batch_overlay, CompiledPlan, ModelRegistry, OverlayScratch,
    PredictionServer, ServeError, ServeScratch, ServerConfig,
};

fn plan_for(db: &Database) -> CompiledPlan {
    let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
    let model = CrossMine::default().fit(db, &rows).unwrap();
    CompiledPlan::compile(&model, &db.schema).unwrap()
}

fn start_server(db: Arc<Database>, plan: &CompiledPlan) -> PredictionServer {
    let registry = Arc::new(ModelRegistry::new(plan.clone()));
    PredictionServer::start(db, registry, ServerConfig::default()).expect("start")
}

/// The exemplar mutation: a fresh account, a loan referencing it (the
/// same-batch FK case), a loan referencing a base account, one patched
/// amount.
fn fig2_delta(db: &Database) -> DeltaBatch {
    let loan = db.schema.rel_id("Loan").unwrap();
    let account = db.schema.rel_id("Account").unwrap();
    let mut batch = DeltaBatch::new();
    batch.insert(account, vec![Value::Key(500), Value::Cat(0), Value::Num(990101.0)]);
    batch.insert_labeled(
        loan,
        vec![Value::Key(6), Value::Key(500), Value::Num(800.0), Value::Num(12.0), Value::Num(70.0)],
        ClassLabel::POS,
    );
    batch.insert_labeled(
        loan,
        vec![
            Value::Key(7),
            Value::Key(45),
            Value::Num(9500.0),
            Value::Num(24.0),
            Value::Num(480.0),
        ],
        ClassLabel::NEG,
    );
    batch.update(loan, Row(0), AttrId(2), Value::Num(1500.0));
    batch
}

#[test]
fn served_overlay_matches_a_server_over_the_materialized_merge() {
    let base = fig2_loan_account();
    let plan = plan_for(&base);
    let batch = fig2_delta(&base);

    let mut merged = base.clone();
    merged.apply_delta(&batch).unwrap();
    let rows: Vec<Row> = (0..merged.num_targets() as u32).map(Row).collect();

    let overlay_server = start_server(Arc::new(base), &plan);
    assert!(overlay_server.overlay().is_none());
    let stats = overlay_server.apply_delta(&batch).expect("valid delta");
    assert_eq!((stats.inserted_rows, stats.updated_cells, stats.ops), (3, 1, 4));
    assert!(overlay_server.overlay().is_some());

    let merged_server = start_server(Arc::new(merged), &plan);
    for &row in &rows {
        let got = overlay_server.predict(row).expect("overlay predict");
        let want = merged_server.predict(row).expect("merged predict");
        assert_eq!(got.label, want.label, "row {}", row.0);
        assert_eq!(got.epoch, want.epoch);
    }
    merged_server.shutdown();
    let report = overlay_server.shutdown();
    assert_eq!(report.requests, rows.len() as u64);
    assert_eq!(report.errors, 0);
}

#[test]
fn overlay_rows_are_visible_to_predict_explained_with_full_provenance() {
    let base = fig2_loan_account();
    let plan = plan_for(&base);
    let batch = fig2_delta(&base);

    let mut merged = base.clone();
    merged.apply_delta(&batch).unwrap();
    let rows: Vec<Row> = (0..merged.num_targets() as u32).map(Row).collect();
    assert!(rows.len() > 5, "the delta appends target rows past the base");

    let overlay_server = start_server(Arc::new(base), &plan);
    overlay_server.apply_delta(&batch).expect("valid delta");
    let merged_server = start_server(Arc::new(merged), &plan);

    let got = overlay_server.explain_batch(&rows).expect("overlay explain");
    let want = merged_server.explain_batch(&rows).expect("merged explain");
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.explanation.row, w.explanation.row);
        assert_eq!(g.explanation.label, w.explanation.label);
        assert_eq!(g.explanation.default_used, w.explanation.default_used);
        assert_eq!(g.epoch, w.epoch);
        assert_eq!(g.explanation.fired.len(), w.explanation.fired.len());
        for (gf, wf) in g.explanation.fired.iter().zip(&w.explanation.fired) {
            assert_eq!(gf.clause_index, wf.clause_index);
            assert_eq!(gf.label, wf.label);
        }
    }
    // The delta-appended target rows specifically (not just base rows).
    for &row in &rows[5..] {
        let e = overlay_server.predict_explained(row).expect("appended row explained");
        assert_eq!(e.explanation.row, row);
    }
    merged_server.shutdown();
    overlay_server.shutdown();
}

#[test]
fn dangling_fk_is_a_typed_invalid_delta_and_leaves_the_overlay_unchanged() {
    let base = fig2_loan_account();
    let plan = plan_for(&base);
    let loan = base.schema.rel_id("Loan").unwrap();
    let expected = {
        let rows: Vec<Row> = (0..base.num_targets() as u32).map(Row).collect();
        let mut scratch = ServeScratch::new();
        evaluate_batch(&plan, &base, &rows, &mut scratch)
    };
    let server = start_server(Arc::new(base), &plan);

    let mut bad = DeltaBatch::new();
    bad.insert_labeled(
        loan,
        vec![
            Value::Key(6),
            Value::Key(9999), // no such account
            Value::Num(1.0),
            Value::Num(1.0),
            Value::Num(1.0),
        ],
        ClassLabel::POS,
    );
    let err = server.apply_delta(&bad).expect_err("dangling FK must be rejected");
    let ServeError::InvalidDelta(reason) = &err else {
        panic!("expected InvalidDelta, got {err:?}");
    };
    assert!(reason.contains("9999"), "the reason names the dangling key: {reason}");
    assert!(!err.is_retryable(), "resubmitting the same bad batch cannot help");
    assert!(server.overlay().is_none(), "a rejected batch installs nothing");

    // The server still answers exactly as before the rejected batch.
    for (i, label) in expected.iter().enumerate() {
        assert_eq!(server.predict(Row(i as u32)).unwrap().label, *label);
    }
    server.shutdown();
}

#[test]
fn deltas_accumulate_and_later_batches_see_earlier_inserts() {
    let base = fig2_loan_account();
    let plan = plan_for(&base);
    let loan = base.schema.rel_id("Loan").unwrap();
    let account = base.schema.rel_id("Account").unwrap();

    let mut merged = base.clone();
    let server = start_server(Arc::new(base), &plan);

    let mut first = DeltaBatch::new();
    first.insert(account, vec![Value::Key(700), Value::Cat(1), Value::Num(980214.0)]);
    server.apply_delta(&first).expect("first batch valid");
    merged.apply_delta(&first).unwrap();

    // The second batch references the account the FIRST batch inserted:
    // validation must run against base + accumulated history.
    let mut second = DeltaBatch::new();
    second.insert_labeled(
        loan,
        vec![
            Value::Key(8),
            Value::Key(700),
            Value::Num(3000.0),
            Value::Num(36.0),
            Value::Num(95.0),
        ],
        ClassLabel::NEG,
    );
    let stats = server.apply_delta(&second).expect("cross-batch FK resolves");
    assert_eq!(stats.ops, 2, "stats cover the accumulated history");
    merged.apply_delta(&second).unwrap();

    let rows: Vec<Row> = (0..merged.num_targets() as u32).map(Row).collect();
    let merged_server = start_server(Arc::new(merged), &plan);
    for &row in &rows {
        assert_eq!(
            server.predict(row).unwrap().label,
            merged_server.predict(row).unwrap().label,
            "row {}",
            row.0
        );
    }
    merged_server.shutdown();
    server.shutdown();
}

/// An update of a row an *earlier* accepted batch inserted is valid on
/// the materialized path (the row is part of the database by then), so
/// the server must accept it too and read the patched cells exactly as
/// the merge does. An update of a row inserted by the *same* batch stays
/// rejected on both paths.
#[test]
fn updates_of_rows_inserted_by_an_earlier_batch_match_the_merge() {
    let base = fig2_loan_account();
    let plan = plan_for(&base);
    let loan = base.schema.rel_id("Loan").unwrap();
    let account = base.schema.rel_id("Account").unwrap();

    let mut merged = base.clone();
    let server = start_server(Arc::new(base.clone()), &plan);

    let mut first = DeltaBatch::new();
    first.insert(account, vec![Value::Key(700), Value::Cat(1), Value::Num(980214.0)]);
    first.insert_labeled(
        loan,
        vec![
            Value::Key(8),
            Value::Key(700),
            Value::Num(3000.0),
            Value::Num(36.0),
            Value::Num(95.0),
        ],
        ClassLabel::NEG,
    );
    server.apply_delta(&first).expect("first batch valid");
    merged.apply_delta(&first).unwrap();

    // Row 5 of Loan and row 4 of Account exist only since `first`.
    let mut second = DeltaBatch::new();
    second.update(loan, Row(5), AttrId(2), Value::Num(100.0));
    second.update(account, Row(4), AttrId(2), Value::Num(960101.0));
    second.update(loan, Row(5), AttrId(4), Value::Num(1.0));
    merged.apply_delta(&second).expect("the materialized path accepts cross-batch updates");
    let stats = server.apply_delta(&second).expect("the server accepts them too");
    assert_eq!((stats.inserted_rows, stats.updated_cells, stats.ops), (2, 3, 5));

    let rows: Vec<Row> = (0..merged.num_targets() as u32).map(Row).collect();
    let merged_server = start_server(Arc::new(merged), &plan);
    for &row in &rows {
        assert_eq!(
            server.predict(row).unwrap().label,
            merged_server.predict(row).unwrap().label,
            "row {}",
            row.0
        );
    }
    let got = server.explain_batch(&rows).unwrap();
    let want = merged_server.explain_batch(&rows).unwrap();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.explanation, w.explanation);
    }
    merged_server.shutdown();

    // Same-batch insert-then-update: rejected on both paths.
    let mut same = DeltaBatch::new();
    same.insert(account, vec![Value::Key(701), Value::Cat(0), Value::Num(0.0)]);
    same.update(account, Row(5), AttrId(2), Value::Num(1.0));
    let mut twin = base;
    twin.apply_delta(&first).unwrap();
    assert!(twin.apply_delta(&same).is_err());
    assert!(matches!(server.apply_delta(&same), Err(ServeError::InvalidDelta(_))));
    server.shutdown();
}

#[test]
fn apply_delta_is_refused_during_shutdown() {
    let base = fig2_loan_account();
    let plan = plan_for(&base);
    let server = start_server(Arc::new(base.clone()), &plan);
    server.begin_shutdown();
    let err = server.apply_delta(&fig2_delta(&base)).unwrap_err();
    assert_eq!(err, ServeError::ShuttingDown);
    server.shutdown();
}

/// Generator for arbitrary *valid* delta batches against the fig2 base:
/// any number of fresh accounts, loans referencing base or same-batch
/// accounts, and numeric cell patches on base rows.
fn arb_fig2_delta() -> impl Strategy<Value = Vec<(u8, u64, i64)>> {
    // Encoded ops: (kind, selector, value) decoded in `decode_delta`.
    // Keeping the strategy on plain tuples keeps shrinking effective.
    prop::collection::vec((0u8..4, 0u64..4000, -1000i64..1000), 0..12)
}

fn decode_delta(base: &Database, ops: &[(u8, u64, i64)]) -> DeltaBatch {
    let loan = base.schema.rel_id("Loan").unwrap();
    let account = base.schema.rel_id("Account").unwrap();
    let base_accounts = [124u64, 108, 45, 67];
    let mut batch = DeltaBatch::new();
    let mut new_accounts: Vec<u64> = Vec::new();
    let mut next_account = 1000u64;
    let mut next_loan = 100u64;
    for &(kind, sel, c) in ops {
        let (a, b) = (sel % 4, sel / 4);
        match kind {
            // A fresh account (key space disjoint from the base).
            0 => {
                batch.insert(
                    account,
                    vec![
                        Value::Key(next_account),
                        Value::Cat((a % 2) as u32),
                        Value::Num(c as f64),
                    ],
                );
                new_accounts.push(next_account);
                next_account += 1;
            }
            // A loan on a base account or (when any exist) a same-batch one.
            1 => {
                let fk = if b % 2 == 0 || new_accounts.is_empty() {
                    base_accounts[(a as usize) % base_accounts.len()]
                } else {
                    new_accounts[(b as usize) % new_accounts.len()]
                };
                let label = if c >= 0 { ClassLabel::POS } else { ClassLabel::NEG };
                batch.insert_labeled(
                    loan,
                    vec![
                        Value::Key(next_loan),
                        Value::Key(fk),
                        Value::Num((b as f64) * 37.0),
                        Value::Num(12.0 + (a as f64)),
                        Value::Num(c as f64),
                    ],
                    label,
                );
                next_loan += 1;
            }
            // Patch a numeric loan cell (attrs 2..=4 are Numerical).
            2 => {
                batch.update(
                    loan,
                    Row((b % 5) as u32),
                    AttrId(2 + (a % 3) as usize),
                    Value::Num(c as f64),
                );
            }
            // Patch the numeric account date (attr 2).
            _ => {
                batch.update(account, Row((b % 4) as u32), AttrId(2), Value::Num(c as f64));
            }
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For ANY valid delta batch, evaluating base + overlay is
    /// byte-identical to evaluating the materialized merge — over every
    /// target row, base and appended alike.
    #[test]
    fn overlay_eval_matches_materialized_merge(ops in arb_fig2_delta()) {
        let base = fig2_loan_account();
        let plan = plan_for(&base);
        let batch = decode_delta(&base, &ops);

        let overlay = DeltaOverlay::build(&base, &batch).expect("generated batches are valid");
        let mut merged = base.clone();
        merged.apply_delta(&batch).expect("same validation, same verdict");
        let rows: Vec<Row> = (0..merged.num_targets() as u32).map(Row).collect();

        let mut mscratch = ServeScratch::new();
        let want = evaluate_batch(&plan, &merged, &rows, &mut mscratch);
        let mut oscratch = OverlayScratch::new();
        let got = evaluate_batch_overlay(&plan, &base, &overlay, &rows, &mut oscratch);
        prop_assert_eq!(got, want);
    }

    /// Overlay/merge agreement also holds under RelId-level accounting:
    /// the overlay reports exactly the rows/cells the merge added.
    #[test]
    fn overlay_stats_match_the_merge_growth(ops in arb_fig2_delta()) {
        let base = fig2_loan_account();
        let batch = decode_delta(&base, &ops);
        let overlay = DeltaOverlay::build(&base, &batch).expect("valid");
        let mut merged = base.clone();
        merged.apply_delta(&batch).expect("valid");
        let grown: usize = (0..merged.schema.num_relations())
            .map(|r| {
                let rel = RelId(r);
                merged.relation(rel).len() - base.relation(rel).len()
            })
            .sum();
        prop_assert_eq!(overlay.inserted_rows(), grown);
    }
}
