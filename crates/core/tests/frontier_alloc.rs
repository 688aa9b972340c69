//! Batch-1 evaluation costs the batch's join neighbourhood, not the
//! database. Padding every non-target relation with ten times its size in
//! tuples that join nothing must not add one allocated byte to a warm
//! batch-1 `evaluate`, in memory or through a delta overlay that patches
//! the padded relations (whose patched columns a whole-column read would
//! copy); with its buffers warm, such a call allocates nothing at all. As
//! a control, the all-rows pass, which annotates every tuple, does
//! allocate more over the padded database.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use crossmine_core::evaluate::{evaluate, EvalScratch, LabelSink};
use crossmine_core::{Clause, CrossMine};
use crossmine_relational::{Database, DeltaBatch, DeltaOverlay, RelId, Row, TupleSource, Value};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `db` plus ten times each non-target relation's size in tuples that
/// join nothing: fresh primary keys no foreign key names, null foreign
/// keys, other values copied from existing tuples.
fn padded(db: &Database) -> Database {
    let target = db.target().expect("target");
    let mut out = db.clone();
    for (rel, schema) in db.schema.iter_relations() {
        let len = db.relation(rel).len();
        if rel == target || len == 0 {
            continue;
        }
        let mut next_key = 1 + db
            .relation(rel)
            .iter_rows()
            .flat_map(|r| db.relation(rel).tuple(r))
            .filter_map(|v| v.as_key())
            .max()
            .unwrap_or(0);
        for i in 0..10 * len {
            let mut tuple = db.relation(rel).tuple(Row((i % len) as u32));
            for (attr, a) in schema.iter_attrs() {
                if Some(attr) == schema.primary_key {
                    tuple[attr.0] = Value::Key(next_key);
                    next_key += 1;
                } else if a.ty.is_key() {
                    tuple[attr.0] = Value::Null;
                }
            }
            out.push_row_unchecked(rel, tuple);
        }
    }
    out
}

/// A delta patching one non-key cell of row 0 in every non-target
/// relation that has one (rows present in both fixtures).
fn patches(db: &Database) -> DeltaBatch {
    let target = db.target().expect("target");
    let mut batch = DeltaBatch::new();
    for (rel, schema) in db.schema.iter_relations() {
        if rel == target || db.relation(rel).len() < 2 {
            continue;
        }
        if let Some((attr, _)) = schema.iter_attrs().find(|(_, a)| !a.ty.is_key()) {
            let value = db.relation(rel).column(attr)[1];
            batch.update(rel, Row(0), attr, value);
        }
    }
    batch
}

/// Bytes allocated by one pass of batch-1 `evaluate` calls over `rows`,
/// after a warm-up pass with the same scratch. The sinks are allocated
/// before the pass.
fn batch1_bytes<S: TupleSource>(clauses: &[Clause], src: &S, db: &Database, rows: &[Row]) -> u64 {
    let mut scratch = EvalScratch::default();
    let mut pass = |sinks: &mut [LabelSink]| {
        for (&row, sink) in rows.iter().zip(sinks) {
            let _ = evaluate(clauses, src, &db.schema, &[row], sink, &mut scratch);
        }
    };
    let mut sinks: Vec<LabelSink> = rows.iter().map(|_| LabelSink::new(1)).collect();
    pass(&mut sinks);
    let mut sinks: Vec<LabelSink> = rows.iter().map(|_| LabelSink::new(1)).collect();
    let before = BYTES.load(Ordering::Relaxed);
    pass(&mut sinks);
    BYTES.load(Ordering::Relaxed) - before
}

/// Bytes allocated by one warm all-rows `evaluate` (the dense path).
fn all_rows_bytes<S: TupleSource>(clauses: &[Clause], src: &S, db: &Database, rows: &[Row]) -> u64 {
    let mut scratch = EvalScratch::default();
    let mut sink = LabelSink::new(rows.len());
    let _ = evaluate(clauses, src, &db.schema, rows, &mut sink, &mut scratch);
    let before = BYTES.load(Ordering::Relaxed);
    let mut sink = LabelSink::new(rows.len());
    let _ = evaluate(clauses, src, &db.schema, rows, &mut sink, &mut scratch);
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn warm_batch1_eval_allocates_no_more_over_a_padded_database() {
    let db = crossmine_synth::generate(&crossmine_synth::GenParams {
        num_relations: 5,
        expected_tuples: 200,
        min_tuples: 60,
        seed: 42,
        ..Default::default()
    });
    let target = db.target().expect("target");
    let rows: Vec<Row> = db.relation(target).iter_rows().collect();
    let model = CrossMine::default().fit(&db, &rows).expect("fit");
    let reaching = |c: &Clause| c.literals.iter().any(|l| l.constraint.rel != target);
    assert!(model.clauses.iter().any(reaching), "the fixture must join beyond the target");
    let big = padded(&db);
    let non_target = |d: &Database| -> usize {
        (0..d.schema.num_relations())
            .map(RelId)
            .filter(|&r| r != target)
            .map(|r| d.relation(r).len())
            .sum()
    };
    assert_eq!(non_target(&big), 11 * non_target(&db));
    db.build_all_indexes();
    big.build_all_indexes();

    let clauses = &model.clauses;
    let small_mem = batch1_bytes(clauses, &db, &db, &rows);
    let big_mem = batch1_bytes(clauses, &big, &big, &rows);
    assert!(big_mem <= small_mem, "in memory: {big_mem} bytes padded vs {small_mem} unpadded");
    assert_eq!(small_mem, 0, "a warm batch-1 evaluate allocates nothing");

    let (small_delta, big_delta) = (patches(&db), patches(&big));
    assert!(!small_delta.is_empty());
    let small_overlay = DeltaOverlay::build(&db, &small_delta).expect("valid delta");
    let big_overlay = DeltaOverlay::build(&big, &big_delta).expect("valid delta");
    let (small_view, big_view) = (small_overlay.view(&db), big_overlay.view(&big));
    let small_ov = batch1_bytes(clauses, &small_view, &db, &rows);
    let big_ov = batch1_bytes(clauses, &big_view, &big, &rows);
    assert!(big_ov <= small_ov, "overlay: {big_ov} bytes padded vs {small_ov} unpadded");
    assert_eq!(small_ov, 0, "a warm batch-1 evaluate over an overlay allocates nothing");

    // The control: the dense all-rows pass grows with the padding, so the
    // fixture does measure what a whole-relation pass would cost.
    let small_dense = all_rows_bytes(clauses, &small_view, &db, &rows);
    let big_dense = all_rows_bytes(clauses, &big_view, &big, &rows);
    assert!(big_dense > small_dense, "dense: {big_dense} padded vs {small_dense} unpadded");

    // The padded tuples changed no answer.
    let small_labels = model.predict(&db, &rows).expect("predict");
    assert_eq!(model.predict(&big, &rows).expect("predict"), small_labels);
}
