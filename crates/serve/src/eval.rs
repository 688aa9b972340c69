//! Batched clause-plan evaluation: core's [`evaluate`] — the evaluator
//! [`CrossMineModel::predict`](crossmine_core::CrossMineModel::predict)
//! calls, so results are byte-identical — over three sources:
//!
//! * the base [`Database`] ([`evaluate_batch`]);
//! * base + a validated [`DeltaOverlay`], read in place as one merged
//!   database ([`evaluate_batch_overlay`]) — no plan recompile, no copy
//!   of the base, and byte-identical to materializing the delta
//!   ([`Database::apply_delta`]) and calling [`evaluate_batch`];
//! * a disk-resident [`DiskDatabase`], every tuple read going through its
//!   buffer pool ([`predict_disk`], paper §8).
//!
//! Scratch state ([`ServeScratch`]) lives with the caller (one per server
//! worker), so steady-state evaluation performs no per-request
//! propagation allocation.
//!
//! [`Database::apply_delta`]: crossmine_relational::Database::apply_delta

use crossmine_core::evaluate::{evaluate, EvalScratch, FireSink, LabelSink, Sink};
use crossmine_core::explain::RowExplanation;
use crossmine_obs::ObsHandle;
use crossmine_relational::{ClassLabel, Database, DeltaOverlay, MergedView, Row, TupleSource};
use crossmine_storage::pager::Result as StorageResult;
use crossmine_storage::{DiskDatabase, DiskSource};

use crate::plan::CompiledPlan;

/// Per-worker reusable state for [`evaluate_batch`] and
/// [`evaluate_batch_overlay`]: the evaluator's buffers, which survive
/// across batches (only a change in the target cardinality re-sizes them),
/// and the observability handle.
#[derive(Debug, Default)]
pub struct ServeScratch {
    eval: EvalScratch,
    obs: ObsHandle,
}

impl ServeScratch {
    /// An empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch whose [`evaluate_batch`] calls report per-batch spans,
    /// row/clause counters, and propagation stats through `obs`. The
    /// default (no-op) handle makes every hook free.
    pub fn with_obs(obs: ObsHandle) -> Self {
        ServeScratch { obs, ..Default::default() }
    }
}

/// Asserts that `db` is laid out as the schema `plan` was compiled for.
fn check_plan(plan: &CompiledPlan, db: &Database) {
    assert_eq!(
        db.schema.num_relations(),
        plan.num_relations,
        "database does not match the schema this plan was compiled for"
    );
    assert_eq!(db.target(), Ok(plan.target), "database target differs from the plan's");
}

/// Runs core's evaluator for `plan` over `src` (laid out as `db`'s schema)
/// into `sink`, inside span `span`, flushing the serve counters when obs is
/// enabled.
fn run<S: TupleSource, K: Sink>(
    plan: &CompiledPlan,
    src: &S,
    db: &Database,
    rows: &[Row],
    scratch: &mut ServeScratch,
    span: &'static str,
    sink: &mut K,
) -> Result<(), S::Error> {
    let obs = scratch.obs.clone();
    let _batch = obs.span(span);
    let clauses = evaluate(&plan.clauses, src, &db.schema, rows, sink, &mut scratch.eval)?;
    if obs.is_enabled() {
        if K::FIRST_FIRE_ONLY {
            obs.add("serve.rows_scored", rows.len() as u64);
            obs.add("serve.clauses_evaluated", clauses as u64);
        } else {
            obs.add("serve.rows_explained", rows.len() as u64);
        }
        let stats = scratch.eval.take_stats();
        obs.add("propagation.passes", stats.passes);
        obs.add("propagation.ids_propagated", stats.ids_propagated);
        obs.add("propagation.csr_capacity_hits", stats.capacity_hits);
    }
    Ok(())
}

/// Predicts the class of each of `rows` under `plan`, exactly as
/// [`CrossMineModel::predict`](crossmine_core::CrossMineModel::predict)
/// does: per clause (accuracy-descending), one propagation pass checks
/// satisfaction of all still-unassigned rows at once; a satisfied row takes
/// the clause's label; rows no clause covers take the default label. A row
/// listed at several slots gets its label at every one.
///
/// # Panics
///
/// Panics when `db` does not match the schema the plan was compiled
/// against (different relation count or target relation) or when a row id
/// is out of the target relation's range — both indicate a caller wiring
/// error, never data-dependent conditions.
pub fn evaluate_batch(
    plan: &CompiledPlan,
    db: &Database,
    rows: &[Row],
    scratch: &mut ServeScratch,
) -> Vec<ClassLabel> {
    check_plan(plan, db);
    let mut sink = LabelSink::new(rows.len());
    let Ok(()) = run(plan, db, db, rows, scratch, "serve.evaluate_batch", &mut sink);
    sink.labels(&plan.clauses, plan.default_label)
}

/// [`evaluate_batch`] with full per-row provenance: returns one
/// [`RowExplanation`] per batch slot carrying the predicted label, every
/// clause that fired (most accurate first) with its matched literals and
/// prop-paths, and whether the default label was used.
///
/// The labels always equal [`evaluate_batch`]'s (clause satisfaction is
/// per-target-independent and the winner is the first firing clause), but
/// tracing cannot stop once every row is assigned — an explanation lists
/// *all* fires, so every clause costs its propagation pass. This is the
/// price of provenance; serve it out-of-band
/// ([`PredictionServer::predict_explained`](crate::server::PredictionServer::predict_explained)),
/// not on the batch hot path.
///
/// # Panics
///
/// Same wiring-error panics as [`evaluate_batch`].
pub fn evaluate_batch_traced(
    plan: &CompiledPlan,
    db: &Database,
    rows: &[Row],
    scratch: &mut ServeScratch,
) -> Vec<RowExplanation> {
    check_plan(plan, db);
    let mut sink = FireSink::new(rows.len());
    let Ok(()) = run(plan, db, db, rows, scratch, "serve.evaluate_batch_traced", &mut sink);
    sink.explain(&plan.clauses, &db.schema, rows, plan.default_label)
}

/// Per-worker reusable state for [`evaluate_batch_overlay`]: the same
/// buffers as [`ServeScratch`], which re-size only when the merged target
/// cardinality changes (a new overlay landed).
pub type OverlayScratch = ServeScratch;

/// The merged view of `base` + `delta`, after checking both against `plan`.
fn merged<'a>(plan: &CompiledPlan, base: &'a Database, delta: &'a DeltaOverlay) -> MergedView<'a> {
    check_plan(plan, base);
    assert!(delta.matches(base), "delta overlay was not built against this database snapshot");
    delta.view(base)
}

/// [`evaluate_batch`] against base + overlay: predicts the class of each
/// of `rows` (merged target row ids — overlay tail rows are addressable
/// past the base length) under `plan` without recompiling or
/// materializing. Byte-identical to applying the delta and calling
/// `evaluate_batch` on the merged database.
///
/// # Panics
///
/// Panics when `base` does not match the plan's schema, when `delta` was
/// built against a different snapshot, or when a row id is outside the
/// merged target range — caller wiring errors, never data-dependent.
pub fn evaluate_batch_overlay(
    plan: &CompiledPlan,
    base: &Database,
    delta: &DeltaOverlay,
    rows: &[Row],
    scratch: &mut OverlayScratch,
) -> Vec<ClassLabel> {
    let view = merged(plan, base, delta);
    let mut sink = LabelSink::new(rows.len());
    let Ok(()) = run(plan, &view, base, rows, scratch, "serve.evaluate_batch_overlay", &mut sink);
    sink.labels(&plan.clauses, plan.default_label)
}

/// [`evaluate_batch_traced`] against base + overlay: full per-row
/// provenance over the merged view. Labels and fired clauses are
/// byte-identical to tracing the materialized merge.
///
/// # Panics
///
/// Same wiring-error panics as [`evaluate_batch_overlay`].
pub fn evaluate_batch_overlay_traced(
    plan: &CompiledPlan,
    base: &Database,
    delta: &DeltaOverlay,
    rows: &[Row],
    scratch: &mut OverlayScratch,
) -> Vec<RowExplanation> {
    let view = merged(plan, base, delta);
    let mut sink = FireSink::new(rows.len());
    let span = "serve.evaluate_batch_overlay_traced";
    let Ok(()) = run(plan, &view, base, rows, scratch, span, &mut sink);
    sink.explain(&plan.clauses, &base.schema, rows, plan.default_label)
}

/// Predicts the class of each of `rows` under `plan`, with all tuple data
/// read through `disk`'s buffer pool: each column a literal touches in one
/// sequential scan, each join's key column kept as an in-memory map for
/// the call (§8.1). Identical to [`evaluate_batch`] on the database the
/// disk image was spilled from; the pool's hit/miss statistics are the
/// caller's to report via [`DiskDatabase::stats`].
pub fn predict_disk(
    plan: &CompiledPlan,
    disk: &mut DiskDatabase,
    rows: &[Row],
) -> StorageResult<Vec<ClassLabel>> {
    assert_eq!(
        disk.schema.num_relations(),
        plan.num_relations,
        "disk database does not match the schema this plan was compiled for"
    );
    let schema = disk.schema.clone();
    let mut sink = LabelSink::new(rows.len());
    let source = DiskSource::new(disk);
    evaluate(&plan.clauses, &source, &schema, rows, &mut sink, &mut EvalScratch::default())?;
    Ok(sink.labels(&plan.clauses, plan.default_label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmine_core::CrossMine;
    use crossmine_relational::fixtures::fig2_loan_account;
    use crossmine_relational::{AttrId, DeltaBatch, Value};

    fn plan_for(db: &Database) -> CompiledPlan {
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = CrossMine::default().fit(db, &rows).unwrap();
        CompiledPlan::compile(&model, &db.schema).unwrap()
    }

    fn fig2_delta(db: &Database) -> DeltaBatch {
        let loan = db.schema.rel_id("Loan").unwrap();
        let account = db.schema.rel_id("Account").unwrap();
        let mut batch = DeltaBatch::new();
        // A new account, two new loans on it (one referencing the fresh
        // account — the same-batch FK case), and a patched amount.
        batch.insert(account, vec![Value::Key(500), Value::Cat(0), Value::Num(990101.0)]);
        batch.insert_labeled(
            loan,
            vec![
                Value::Key(6),
                Value::Key(500),
                Value::Num(800.0),
                Value::Num(12.0),
                Value::Num(70.0),
            ],
            crossmine_relational::ClassLabel::POS,
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
            crossmine_relational::ClassLabel::NEG,
        );
        batch.update(loan, Row(0), AttrId(2), Value::Num(1500.0));
        batch
    }

    #[test]
    fn overlay_matches_materialized_merge_golden() {
        let base = fig2_loan_account();
        let plan = plan_for(&base);
        let batch = fig2_delta(&base);
        let delta = DeltaOverlay::build(&base, &batch).unwrap();

        let mut merged = base.clone();
        merged.apply_delta(&batch).unwrap();
        let rows: Vec<Row> = (0..merged.num_targets() as u32).map(Row).collect();

        let mut mscratch = ServeScratch::new();
        let expected = evaluate_batch(&plan, &merged, &rows, &mut mscratch);
        let mut oscratch = OverlayScratch::new();
        let got = evaluate_batch_overlay(&plan, &base, &delta, &rows, &mut oscratch);
        assert_eq!(got, expected);

        // Scratch reuse across batches stays correct.
        let again = evaluate_batch_overlay(&plan, &base, &delta, &rows, &mut oscratch);
        assert_eq!(again, expected);
    }

    #[test]
    fn overlay_traced_matches_materialized_merge() {
        let base = fig2_loan_account();
        let plan = plan_for(&base);
        let batch = fig2_delta(&base);
        let delta = DeltaOverlay::build(&base, &batch).unwrap();

        let mut merged = base.clone();
        merged.apply_delta(&batch).unwrap();
        let rows: Vec<Row> = (0..merged.num_targets() as u32).map(Row).collect();

        let mut mscratch = ServeScratch::new();
        let expected = evaluate_batch_traced(&plan, &merged, &rows, &mut mscratch);
        let mut oscratch = OverlayScratch::new();
        let got = evaluate_batch_overlay_traced(&plan, &base, &delta, &rows, &mut oscratch);
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.row, e.row);
            assert_eq!(g.label, e.label);
            assert_eq!(g.default_used, e.default_used);
            assert_eq!(g.fired.len(), e.fired.len());
            for (gf, ef) in g.fired.iter().zip(&e.fired) {
                assert_eq!(gf.clause_index, ef.clause_index);
                assert_eq!(gf.label, ef.label);
            }
        }
    }

    #[test]
    fn empty_overlay_matches_plain_eval() {
        let base = fig2_loan_account();
        let plan = plan_for(&base);
        let delta = DeltaOverlay::build(&base, &DeltaBatch::new()).unwrap();
        let rows: Vec<Row> = (0..base.num_targets() as u32).map(Row).collect();
        let mut mscratch = ServeScratch::new();
        let expected = evaluate_batch(&plan, &base, &rows, &mut mscratch);
        let mut oscratch = OverlayScratch::new();
        let got = evaluate_batch_overlay(&plan, &base, &delta, &rows, &mut oscratch);
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "delta overlay was not built against this database snapshot")]
    fn stale_overlay_panics() {
        let mut base = fig2_loan_account();
        let plan = plan_for(&base);
        let delta = DeltaOverlay::build(&base, &DeltaBatch::new()).unwrap();
        // Mutate the base after the overlay was validated against it.
        let loan = base.schema.rel_id("Loan").unwrap();
        base.set_value(loan, Row(0), AttrId(2), Value::Num(1.0));
        let mut scratch = OverlayScratch::new();
        let _ = evaluate_batch_overlay(&plan, &base, &delta, &[Row(0)], &mut scratch);
    }
}
