//! Append/update deltas over a frozen [`Database`] snapshot.
//!
//! Production databases churn while models serve. A [`DeltaBatch`] captures
//! a set of row inserts and attribute updates; [`DeltaOverlay::push`]
//! validates one batch against a base snapshot plus the batches already
//! pushed (arity, types, primary-key uniqueness, foreign-key resolution —
//! including references to rows inserted *in the same batch* — and
//! key-column immutability) and, on success, extends the overlay the
//! serving layer evaluates against without copying the base.
//! [`DeltaOverlay::build`] is an empty overlay plus one `push`, and
//! [`Database::apply_delta`] validates through it before materializing the
//! batch in place; the overlay and the materialized merge are defined to be
//! observationally identical, which is what the serve crate's parity tests
//! pin down.
//!
//! Validation is all-or-nothing: a batch either extends the overlay (and
//! can therefore be applied) or is rejected with a typed [`DataError`] and
//! the overlay and the base are untouched.
//!
//! Restrictions, by design:
//!
//! * **Key columns are immutable.** Updating a primary or foreign key would
//!   silently re-link join paths under a served plan; such updates are
//!   rejected with [`DataError::KeyColumnUpdate`].
//! * **Updates target rows that exist before the batch**, base rows and
//!   rows earlier batches inserted alike. A row inserted by the same batch
//!   is fully specified by its insert — patch the insert instead.
//! * **Target inserts carry labels.** Every insert into the target relation
//!   must come with a [`ClassLabel`] (and only target inserts may), so the
//!   merged database keeps its labels parallel to the target rows.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;

use crate::database::Database;
use crate::error::{DataError, Result, SchemaError};
use crate::index::KeyIndex;
use crate::relation::{Relation, Row};
use crate::schema::{AttrId, RelId};
use crate::source::{KeyLookup, TupleSource};
use crate::value::{AttrType, ClassLabel, Value};

/// One mutation inside a [`DeltaBatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Append one tuple to a relation. Target-relation inserts must carry
    /// a label; all other inserts must not.
    Insert {
        /// The relation receiving the tuple.
        rel: RelId,
        /// The tuple, schema order.
        tuple: Vec<Value>,
        /// The class label, for target-relation inserts.
        label: Option<ClassLabel>,
    },
    /// Overwrite one non-key cell of a row that exists before the batch.
    Update {
        /// The relation holding the row.
        rel: RelId,
        /// The row to patch: a base row or one an earlier batch inserted
        /// (rows inserted by the same batch cannot be updated — amend the
        /// insert instead).
        row: Row,
        /// The attribute to overwrite. Key columns are rejected.
        attr: AttrId,
        /// The new value.
        value: Value,
    },
}

/// An ordered batch of row inserts and attribute updates against one base
/// [`Database`] snapshot.
///
/// Building a batch never touches a database; validation happens in
/// [`DeltaOverlay::push`] / [`Database::apply_delta`], so one batch can be
/// checked against many snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    ops: Vec<DeltaOp>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an unlabeled insert (non-target relations).
    pub fn insert(&mut self, rel: RelId, tuple: Vec<Value>) -> &mut Self {
        self.ops.push(DeltaOp::Insert { rel, tuple, label: None });
        self
    }

    /// Queues a labeled insert (the target relation).
    pub fn insert_labeled(
        &mut self,
        rel: RelId,
        tuple: Vec<Value>,
        label: ClassLabel,
    ) -> &mut Self {
        self.ops.push(DeltaOp::Insert { rel, tuple, label: Some(label) });
        self
    }

    /// Queues an update of one non-key cell of row `row`, which must exist
    /// before the batch.
    pub fn update(&mut self, rel: RelId, row: Row, attr: AttrId, value: Value) -> &mut Self {
        self.ops.push(DeltaOp::Update { rel, row, attr, value });
        self
    }

    /// Appends every op of `other`, preserving order.
    pub fn extend(&mut self, other: &DeltaBatch) {
        self.ops.extend(other.ops.iter().cloned());
    }

    /// The ops, in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no ops are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A validated view of base + the [`DeltaBatch`]es pushed so far: appended
/// rows live in small per-relation tail [`Relation`]s, updates of base rows
/// in per-relation patch maps, updates of appended rows in the tails.
///
/// Every accessor takes the base `&Database` it was built on; the
/// overlay stores the base's [`cache_stamp`](Database::cache_stamp) and
/// debug-asserts it on access, so a stale pairing is caught in tests
/// instead of silently mixing snapshots. [`DeltaOverlay::view`] reads the
/// merged database through [`TupleSource`].
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    base_stamp: (u64, u64),
    /// Base row count per relation.
    base_rows: Vec<u32>,
    /// Appended rows per relation (virtual rows `base_rows[rel]..`).
    tails: Vec<Relation>,
    /// `(attr, key) -> virtual rows` for key columns of the tails, the
    /// overlay's side of [`Database::key_index`]. Key columns are never
    /// patched, so base-index hits stay valid.
    tail_keys: Vec<HashMap<(usize, u64), Vec<u32>>>,
    /// `(base row, attr) -> value`, last write wins. Updates of tail rows
    /// overwrite the tail cell instead.
    patches: Vec<HashMap<(u32, usize), Value>>,
    /// Labels of target-relation tail rows, parallel to the target tail.
    tail_labels: Vec<ClassLabel>,
    updated_cells: usize,
}

/// Initial capacity of each relation's key and patch maps. Grown from
/// empty, a young overlay's maps rehash every few batches, which made an
/// apply after 10 deltas read twice the cost of one after 1 000.
const INITIAL_ENTRIES: usize = 64;

impl DeltaOverlay {
    /// An overlay over `base` that changes nothing yet.
    pub fn new(base: &Database) -> DeltaOverlay {
        let nrels = base.schema.num_relations();
        DeltaOverlay {
            base_stamp: base.cache_stamp(),
            base_rows: (0..nrels).map(|r| base.relation(RelId(r)).len() as u32).collect(),
            tails: base.schema.relations.iter().map(Relation::new).collect(),
            tail_keys: vec![HashMap::with_capacity(INITIAL_ENTRIES); nrels],
            patches: vec![HashMap::with_capacity(INITIAL_ENTRIES); nrels],
            tail_labels: Vec::new(),
            updated_cells: 0,
        }
    }

    /// Validates `batch` against `base` and builds the overlay: an empty
    /// overlay plus [`push`](Self::push).
    pub fn build(base: &Database, batch: &DeltaBatch) -> Result<DeltaOverlay> {
        let mut overlay = DeltaOverlay::new(base);
        overlay.push(base, batch)?;
        Ok(overlay)
    }

    /// Validates `batch` against the merged database (`base` plus this
    /// overlay) and, on success, extends the overlay with it. Costs
    /// O(|batch|): earlier batches were validated when they were pushed.
    ///
    /// Checks, in order per op: relation/attribute existence, arity and
    /// value types (the [`Relation::push_checked`] matrix), primary-key
    /// uniqueness against the merged database *and* within the batch,
    /// foreign-key resolution against merged primary keys *or* keys
    /// inserted anywhere in the same batch (forward references allowed),
    /// label/target pairing within the batch, update rows present before
    /// the batch, and key-column immutability.
    ///
    /// All-or-nothing: on error the overlay is untouched.
    pub fn push(&mut self, base: &Database, batch: &DeltaBatch) -> Result<()> {
        self.check(base);
        self.validate(base, batch)?;
        for op in &batch.ops {
            match op {
                DeltaOp::Insert { rel, tuple, label } => {
                    let row = self.base_rows[rel.0] + self.tails[rel.0].len() as u32;
                    for (aid, attr) in base.schema.relation(*rel).iter_attrs() {
                        if attr.ty.is_key() {
                            if let Value::Key(k) = tuple[aid.0] {
                                self.tail_keys[rel.0].entry((aid.0, k)).or_default().push(row);
                            }
                        }
                    }
                    self.tails[rel.0].push_unchecked(tuple.clone());
                    // Validation paired every label with a target insert.
                    if let Some(l) = label {
                        self.tail_labels.push(*l);
                    }
                }
                DeltaOp::Update { rel, row, attr, value } => {
                    // A row an earlier batch inserted is patched in its
                    // tail, exactly where the materialized merge holds it.
                    match row.0.checked_sub(self.base_rows[rel.0]) {
                        Some(tail_row) => self.tails[rel.0].set_value(Row(tail_row), *attr, *value),
                        None => {
                            self.patches[rel.0].insert((row.0, attr.0), *value);
                        }
                    }
                    self.updated_cells += 1;
                }
            }
        }
        Ok(())
    }

    /// Whether key `k` is a primary key of `rel` in the merged database.
    fn has_key(&self, base: &Database, rel: RelId, pk: AttrId, k: u64) -> bool {
        !base.key_index(rel, pk).rows(k).is_empty()
            || self.tail_keys[rel.0].contains_key(&(pk.0, k))
    }

    /// The checks of [`push`](Self::push), mutating nothing.
    fn validate(&self, base: &Database, batch: &DeltaBatch) -> Result<()> {
        let nrels = base.schema.num_relations();
        for op in &batch.ops {
            let rel = match op {
                DeltaOp::Insert { rel, .. } | DeltaOp::Update { rel, .. } => *rel,
            };
            if rel.0 >= nrels {
                return Err(SchemaError::UnknownRelation(format!("#{}", rel.0)).into());
            }
        }

        // Phase 1: collect the batch's own primary keys so foreign keys may
        // reference rows inserted later in the same batch, and catch
        // duplicates (within the batch and against the merged database)
        // early.
        let mut batch_pks: Vec<HashSet<u64>> = vec![HashSet::new(); nrels];
        for op in &batch.ops {
            if let DeltaOp::Insert { rel, tuple, .. } = op {
                let rschema = base.schema.relation(*rel);
                if let Some(pk) = rschema.primary_key {
                    if let Some(Value::Key(k)) = tuple.get(pk.0) {
                        if !batch_pks[rel.0].insert(*k) || self.has_key(base, *rel, pk, *k) {
                            return Err(DataError::DuplicateKey {
                                relation: rschema.name.clone(),
                                key: *k,
                            }
                            .into());
                        }
                    }
                }
            }
        }

        let target = base.schema.target().ok();
        let mut target_inserts = 0usize;
        let mut labels = 0usize;
        let mut stray_labels = 0usize;
        for op in &batch.ops {
            match op {
                DeltaOp::Insert { rel, tuple, label } => {
                    let rschema = base.schema.relation(*rel);
                    Relation::check_tuple(rschema, tuple)?;
                    for (aid, attr) in rschema.iter_attrs() {
                        let (AttrType::ForeignKey { target: tname }, Value::Key(k)) =
                            (&attr.ty, tuple[aid.0])
                        else {
                            continue;
                        };
                        let resolved = base
                            .schema
                            .rel_id(tname)
                            .and_then(|tid| {
                                base.schema.relation(tid).primary_key.map(|pk| (tid, pk))
                            })
                            .is_none_or(|(tid, pk)| {
                                batch_pks[tid.0].contains(&k) || self.has_key(base, tid, pk, k)
                            });
                        if !resolved {
                            return Err(DataError::DanglingForeignKey {
                                relation: rschema.name.clone(),
                                attribute: attr.name.clone(),
                                key: k,
                            }
                            .into());
                        }
                    }
                    if Some(*rel) == target {
                        target_inserts += 1;
                        labels += usize::from(label.is_some());
                    } else {
                        stray_labels += usize::from(label.is_some());
                    }
                }
                DeltaOp::Update { rel, row, attr, value } => {
                    let rschema = base.schema.relation(*rel);
                    if attr.0 >= rschema.arity() {
                        return Err(SchemaError::UnknownAttribute {
                            relation: rschema.name.clone(),
                            attribute: format!("#{}", attr.0),
                        }
                        .into());
                    }
                    let rows = self.base_rows[rel.0] as usize + self.tails[rel.0].len();
                    if row.0 as usize >= rows {
                        return Err(DataError::UpdateRowOutOfRange {
                            relation: rschema.name.clone(),
                            row: u64::from(row.0),
                            rows,
                        }
                        .into());
                    }
                    let a = rschema.attr(*attr);
                    if a.ty.is_key() {
                        return Err(DataError::KeyColumnUpdate {
                            relation: rschema.name.clone(),
                            attribute: a.name.clone(),
                        }
                        .into());
                    }
                    let ok = matches!(
                        (&a.ty, value),
                        (_, Value::Null)
                            | (AttrType::Categorical, Value::Cat(_))
                            | (AttrType::Numerical, Value::Num(_))
                    );
                    if !ok {
                        return Err(DataError::TypeMismatch {
                            relation: rschema.name.clone(),
                            attribute: a.name.clone(),
                            expected: match a.ty {
                                AttrType::Categorical => "categorical",
                                _ => "numerical",
                            },
                        }
                        .into());
                    }
                }
            }
        }
        if labels != target_inserts || stray_labels > 0 {
            return Err(DataError::MissingLabels {
                rows: target_inserts,
                labels: labels + stray_labels,
            }
            .into());
        }
        Ok(())
    }

    /// The base snapshot stamp this overlay was validated against.
    pub fn base_stamp(&self) -> (u64, u64) {
        self.base_stamp
    }

    /// True when `base` is (still) the snapshot this overlay was built on.
    pub fn matches(&self, base: &Database) -> bool {
        base.cache_stamp() == self.base_stamp
    }

    #[inline]
    fn check(&self, base: &Database) {
        debug_assert!(
            self.matches(base),
            "DeltaOverlay used against a database it was not built on"
        );
    }

    /// The merged database this overlay describes over `base`, read in
    /// place through [`TupleSource`].
    pub fn view<'a>(&'a self, base: &'a Database) -> MergedView<'a> {
        self.check(base);
        MergedView { base, delta: self }
    }

    /// Merged target-row count (base targets plus labeled tail rows).
    pub fn num_targets(&self, base: &Database) -> usize {
        self.check(base);
        base.num_targets() + self.tail_labels.len()
    }

    /// The merged label of target row `row`.
    pub fn label(&self, base: &Database, row: Row) -> ClassLabel {
        self.check(base);
        let n = base.num_targets();
        if (row.0 as usize) < n {
            base.label(row)
        } else {
            self.tail_labels[row.0 as usize - n]
        }
    }

    /// Labels of the appended target rows, in insertion order.
    pub fn tail_labels(&self) -> &[ClassLabel] {
        &self.tail_labels
    }

    /// Rows appended across all relations.
    pub fn inserted_rows(&self) -> usize {
        self.tails.iter().map(Relation::len).sum()
    }

    /// Update ops applied, across all pushed batches: each op counts once,
    /// including repeated writes to the same cell.
    pub fn updated_cells(&self) -> usize {
        self.updated_cells
    }

    /// True when the overlay changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserted_rows() == 0 && self.patches.iter().all(HashMap::is_empty)
    }
}

/// Base + [`DeltaOverlay`] as one read-only database: rows at or past a
/// relation's base length come from the overlay's tail, patched cells
/// shadow the base. Reads are observationally identical to the merge
/// [`Database::apply_delta`] materializes.
#[derive(Debug, Clone, Copy)]
pub struct MergedView<'a> {
    base: &'a Database,
    delta: &'a DeltaOverlay,
}

/// A key lookup over a [`MergedView`]: base rows through the base's lazy
/// index (key columns are never patched, so it stays authoritative), then
/// tail rows in insertion order.
#[derive(Debug, Clone, Copy)]
pub struct MergedKeys<'a> {
    base: &'a KeyIndex,
    tail: &'a HashMap<(usize, u64), Vec<u32>>,
    attr: usize,
}

impl KeyLookup for MergedKeys<'_> {
    fn for_each_row(&self, key: u64, mut f: impl FnMut(Row)) {
        self.base.for_each_row(key, &mut f);
        if let Some(rows) = self.tail.get(&(self.attr, key)) {
            for &r in rows {
                f(Row(r));
            }
        }
    }
}

impl TupleSource for MergedView<'_> {
    type Error = Infallible;
    type Keys<'k>
        = MergedKeys<'k>
    where
        Self: 'k;

    fn num_rows(&self, rel: RelId) -> usize {
        self.delta.base_rows[rel.0] as usize + self.delta.tails[rel.0].len()
    }

    /// Borrows the base column when the overlay leaves `rel` untouched;
    /// otherwise copies it, applies the patches and appends the tail.
    fn column(
        &self,
        rel: RelId,
        attr: AttrId,
    ) -> std::result::Result<Cow<'_, [Value]>, Infallible> {
        let base = self.base.relation(rel).column(attr);
        let tail = self.delta.tails[rel.0].column(attr);
        let patches = &self.delta.patches[rel.0];
        if tail.is_empty() && patches.is_empty() {
            return Ok(Cow::Borrowed(base));
        }
        let mut merged = Vec::with_capacity(base.len() + tail.len());
        merged.extend_from_slice(base);
        for (&(row, a), &v) in patches {
            if a == attr.0 {
                merged[row as usize] = v;
            }
        }
        merged.extend_from_slice(tail);
        Ok(Cow::Owned(merged))
    }

    /// Answers each row from the base column, a patch or the tail, without
    /// copying the column.
    fn values(
        &self,
        rel: RelId,
        attr: AttrId,
        rows: &[Row],
        out: &mut Vec<Value>,
    ) -> std::result::Result<(), Infallible> {
        let base = self.base.relation(rel).column(attr);
        let tail = self.delta.tails[rel.0].column(attr);
        let patches = &self.delta.patches[rel.0];
        out.clear();
        out.extend(rows.iter().map(|&Row(r)| match base.get(r as usize) {
            None => tail[r as usize - base.len()],
            Some(&v) if patches.is_empty() => v,
            Some(&v) => patches.get(&(r, attr.0)).copied().unwrap_or(v),
        }));
        Ok(())
    }

    fn keys(&self, rel: RelId, attr: AttrId) -> std::result::Result<MergedKeys<'_>, Infallible> {
        Ok(MergedKeys {
            base: self.base.key_index(rel, attr),
            tail: &self.delta.tail_keys[rel.0],
            attr: attr.0,
        })
    }
}

impl Database {
    /// Validates `batch` through [`DeltaOverlay::build`] and, on
    /// success, applies it in place: inserts append rows (and labels, for
    /// the target relation), updates overwrite cells, all in op order.
    /// Returns the number of ops applied. On error the database is
    /// untouched — validation is all-or-nothing.
    ///
    /// This is the materialized twin of serving through a
    /// [`DeltaOverlay`]; the two are observationally identical.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<usize> {
        DeltaOverlay::build(self, batch)?;
        for op in batch.ops() {
            match op {
                DeltaOp::Insert { rel, tuple, label } => {
                    self.push_row_unchecked(*rel, tuple.clone());
                    if let Some(l) = label {
                        self.push_label(*l);
                    }
                }
                DeltaOp::Update { rel, row, attr, value } => {
                    self.set_value(*rel, *row, *attr, *value);
                }
            }
        }
        Ok(batch.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RelationalError;
    use crate::fixtures::fig2_loan_account;

    fn ids(db: &Database) -> (RelId, RelId) {
        (db.schema.rel_id("Loan").unwrap(), db.schema.rel_id("Account").unwrap())
    }

    /// One merged cell, read through the view's column access.
    fn cell(view: MergedView<'_>, rel: RelId, row: Row, attr: AttrId) -> Value {
        let Ok(column) = view.column(rel, attr);
        column[row.0 as usize]
    }

    fn loan_tuple(lid: u64, aid: u64, amount: f64) -> Vec<Value> {
        vec![
            Value::Key(lid),
            Value::Key(aid),
            Value::Num(amount),
            Value::Num(12.0),
            Value::Num(100.0),
        ]
    }

    #[test]
    fn gathered_values_match_the_merged_column() {
        let db = fig2_loan_account();
        let (loan, _) = ids(&db);
        let mut batch = DeltaBatch::new();
        batch.insert_labeled(loan, loan_tuple(6, 124, 700.0), ClassLabel::POS);
        batch.update(loan, Row(1), AttrId(2), Value::Num(1.5));
        let delta = DeltaOverlay::build(&db, &batch).unwrap();
        let view = delta.view(&db);
        // A tail row, a patched row, an untouched row, and a repeat.
        let rows = [Row(5), Row(1), Row(0), Row(1)];
        for attr in [AttrId(1), AttrId(2)] {
            let Ok(column) = view.column(loan, attr);
            let mut got = vec![Value::Null];
            let Ok(()) = view.values(loan, attr, &rows, &mut got);
            let want: Vec<Value> = rows.iter().map(|r| column[r.0 as usize]).collect();
            assert_eq!(got, want);
        }
        let mut amounts = Vec::new();
        let Ok(()) = view.values(loan, AttrId(2), &rows, &mut amounts);
        assert_eq!(amounts[..2], [Value::Num(700.0), Value::Num(1.5)]);
    }

    #[test]
    fn insert_referencing_same_batch_row_is_valid() {
        let db = fig2_loan_account();
        let (loan, account) = ids(&db);
        let mut batch = DeltaBatch::new();
        // Forward reference: the loan comes *before* the account it points
        // at — both are in the batch, so the FK resolves.
        batch.insert_labeled(loan, loan_tuple(6, 500, 700.0), ClassLabel::POS);
        batch.insert(account, vec![Value::Key(500), Value::Cat(0), Value::Num(990101.0)]);
        let overlay = DeltaOverlay::build(&db, &batch).unwrap();
        assert_eq!(overlay.inserted_rows(), 2);
        let view = overlay.view(&db);
        assert_eq!(view.num_rows(loan), 6);
        assert_eq!(view.num_rows(account), 5);
        assert_eq!(overlay.num_targets(&db), 6);
        assert_eq!(overlay.label(&db, Row(5)), ClassLabel::POS);
        // The tail row is reachable through the merged key lookup.
        let mut hits = Vec::new();
        let Ok(keys) = view.keys(account, AttrId(0));
        keys.for_each_row(500, |r| hits.push(r));
        assert_eq!(hits, vec![Row(4)]);
        assert_eq!(cell(view, account, Row(4), AttrId(0)), Value::Key(500));
    }

    #[test]
    fn dangling_foreign_key_rejected() {
        let db = fig2_loan_account();
        let (loan, _) = ids(&db);
        let mut batch = DeltaBatch::new();
        batch.insert_labeled(loan, loan_tuple(6, 999, 700.0), ClassLabel::NEG);
        let err = DeltaOverlay::build(&db, &batch).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::Data(DataError::DanglingForeignKey { key: 999, .. })
        ));
        // apply_delta leaves the base untouched on rejection.
        let mut db = db;
        let before = db.total_tuples();
        assert!(db.apply_delta(&batch).is_err());
        assert_eq!(db.total_tuples(), before);
    }

    #[test]
    fn key_column_update_rejected() {
        let db = fig2_loan_account();
        let (loan, account) = ids(&db);
        // Primary key.
        let mut batch = DeltaBatch::new();
        batch.update(account, Row(0), AttrId(0), Value::Key(9999));
        let err = DeltaOverlay::build(&db, &batch).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::Data(DataError::KeyColumnUpdate { ref attribute, .. })
                if attribute == "account_id"
        ));
        // Foreign key.
        let mut batch = DeltaBatch::new();
        batch.update(loan, Row(0), AttrId(1), Value::Key(45));
        let err = DeltaOverlay::build(&db, &batch).unwrap_err();
        assert!(matches!(err, RelationalError::Data(DataError::KeyColumnUpdate { .. })));
    }

    #[test]
    fn duplicate_primary_keys_rejected() {
        let db = fig2_loan_account();
        let (_, account) = ids(&db);
        // Against the base.
        let mut batch = DeltaBatch::new();
        batch.insert(account, vec![Value::Key(124), Value::Cat(0), Value::Num(0.0)]);
        let err = DeltaOverlay::build(&db, &batch).unwrap_err();
        assert!(matches!(err, RelationalError::Data(DataError::DuplicateKey { key: 124, .. })));
        // Within the batch.
        let mut batch = DeltaBatch::new();
        batch.insert(account, vec![Value::Key(500), Value::Cat(0), Value::Num(0.0)]);
        batch.insert(account, vec![Value::Key(500), Value::Cat(1), Value::Num(1.0)]);
        let err = DeltaOverlay::build(&db, &batch).unwrap_err();
        assert!(matches!(err, RelationalError::Data(DataError::DuplicateKey { key: 500, .. })));
    }

    #[test]
    fn labels_must_pair_with_target_inserts() {
        let db = fig2_loan_account();
        let (loan, account) = ids(&db);
        // Target insert without a label.
        let mut batch = DeltaBatch::new();
        batch.insert(loan, loan_tuple(6, 124, 1.0));
        assert!(matches!(
            DeltaOverlay::build(&db, &batch).unwrap_err(),
            RelationalError::Data(DataError::MissingLabels { rows: 1, labels: 0 })
        ));
        // Label on a non-target insert.
        let mut batch = DeltaBatch::new();
        batch.insert_labeled(
            account,
            vec![Value::Key(500), Value::Cat(0), Value::Num(0.0)],
            ClassLabel::POS,
        );
        assert!(matches!(
            DeltaOverlay::build(&db, &batch).unwrap_err(),
            RelationalError::Data(DataError::MissingLabels { rows: 0, labels: 1 })
        ));
    }

    #[test]
    fn update_validation() {
        let db = fig2_loan_account();
        let (loan, _) = ids(&db);
        // Row out of the base range (tail rows cannot be updated either).
        let mut batch = DeltaBatch::new();
        batch.update(loan, Row(5), AttrId(2), Value::Num(1.0));
        assert!(matches!(
            DeltaOverlay::build(&db, &batch).unwrap_err(),
            RelationalError::Data(DataError::UpdateRowOutOfRange { row: 5, rows: 5, .. })
        ));
        // Wrong value type for the column.
        let mut batch = DeltaBatch::new();
        batch.update(loan, Row(0), AttrId(2), Value::Cat(1));
        assert!(matches!(
            DeltaOverlay::build(&db, &batch).unwrap_err(),
            RelationalError::Data(DataError::TypeMismatch { .. })
        ));
        // Unknown attribute.
        let mut batch = DeltaBatch::new();
        batch.update(loan, Row(0), AttrId(99), Value::Num(1.0));
        assert!(matches!(
            DeltaOverlay::build(&db, &batch).unwrap_err(),
            RelationalError::Schema(SchemaError::UnknownAttribute { .. })
        ));
        // Null is allowed on non-key columns.
        let mut batch = DeltaBatch::new();
        batch.update(loan, Row(0), AttrId(2), Value::Null);
        assert!(DeltaOverlay::build(&db, &batch).is_ok());
    }

    #[test]
    fn last_write_wins_and_patches_shadow_base() {
        let db = fig2_loan_account();
        let (loan, _) = ids(&db);
        let mut batch = DeltaBatch::new();
        batch.update(loan, Row(0), AttrId(2), Value::Num(111.0));
        batch.update(loan, Row(0), AttrId(2), Value::Num(222.0));
        let overlay = DeltaOverlay::build(&db, &batch).unwrap();
        assert_eq!(overlay.updated_cells(), 2);
        let view = overlay.view(&db);
        assert_eq!(cell(view, loan, Row(0), AttrId(2)), Value::Num(222.0));
        // Unpatched cells read through to the base.
        assert_eq!(cell(view, loan, Row(1), AttrId(2)), Value::Num(4000.0));
    }

    #[test]
    fn apply_delta_matches_overlay() {
        let base = fig2_loan_account();
        let (loan, account) = ids(&base);
        let mut batch = DeltaBatch::new();
        batch.insert(account, vec![Value::Key(500), Value::Cat(1), Value::Num(990101.0)]);
        batch.insert_labeled(loan, loan_tuple(6, 500, 700.0), ClassLabel::NEG);
        batch.update(loan, Row(2), AttrId(4), Value::Num(555.0));
        let overlay = DeltaOverlay::build(&base, &batch).unwrap();

        let mut merged = base.clone();
        assert_eq!(merged.apply_delta(&batch).unwrap(), 3);
        assert_eq!(merged.num_targets(), overlay.num_targets(&base));
        assert_eq!(merged.dangling_foreign_keys(), 0);
        for (rid, _) in base.schema.iter_relations() {
            let view = overlay.view(&base);
            assert_eq!(merged.relation(rid).len(), view.num_rows(rid));
            for row in merged.relation(rid).iter_rows() {
                for aid in 0..merged.schema.relation(rid).arity() {
                    assert_eq!(
                        merged.relation(rid).value(row, AttrId(aid)),
                        cell(view, rid, row, AttrId(aid)),
                        "cell mismatch at {rid:?} {row:?} attr {aid}"
                    );
                }
            }
        }
        for row in merged.relation(loan).iter_rows() {
            assert_eq!(merged.label(row), overlay.label(&base, row));
        }
    }

    /// Every merged cell and target label of `overlay` over `base` equals
    /// the materialized `merged`'s.
    fn assert_matches_merge(base: &Database, overlay: &DeltaOverlay, merged: &Database) {
        let view = overlay.view(base);
        assert_eq!(merged.num_targets(), overlay.num_targets(base));
        for (rid, rschema) in merged.schema.iter_relations() {
            assert_eq!(merged.relation(rid).len(), view.num_rows(rid));
            for aid in (0..rschema.arity()).map(AttrId) {
                let Ok(column) = view.column(rid, aid);
                assert_eq!(merged.relation(rid).column(aid), &column[..], "{rid:?} {aid:?}");
            }
        }
        assert_eq!(
            merged.labels(),
            (0..merged.num_targets() as u32)
                .map(|r| overlay.label(base, Row(r)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn push_validates_against_earlier_batches_and_patches_their_rows() {
        let base = fig2_loan_account();
        let (loan, account) = ids(&base);
        let mut first = DeltaBatch::new();
        first.insert(account, vec![Value::Key(500), Value::Cat(0), Value::Num(1.0)]);
        first.insert_labeled(loan, loan_tuple(6, 500, 700.0), ClassLabel::POS);
        let mut second = DeltaBatch::new();
        // A loan on the first batch's account, and updates of both rows
        // the first batch inserted (Loan row 5, Account row 4).
        second.insert_labeled(loan, loan_tuple(7, 500, 800.0), ClassLabel::NEG);
        second.update(loan, Row(5), AttrId(2), Value::Num(1.5));
        second.update(account, Row(4), AttrId(1), Value::Cat(1));
        second.update(loan, Row(0), AttrId(2), Value::Num(2.5));

        let mut overlay = DeltaOverlay::build(&base, &first).unwrap();
        overlay.push(&base, &second).unwrap();
        let mut merged = base.clone();
        merged.apply_delta(&first).unwrap();
        merged.apply_delta(&second).unwrap();
        assert_matches_merge(&base, &overlay, &merged);
        assert_eq!((overlay.inserted_rows(), overlay.updated_cells()), (3, 3));

        // Rejections leave the overlay as it was: a key the first batch
        // inserted, an update of a row the same batch inserts, a row past
        // the merged end.
        let mut dup = DeltaBatch::new();
        dup.insert(account, vec![Value::Key(501), Value::Cat(0), Value::Num(1.0)]);
        dup.insert(account, vec![Value::Key(500), Value::Cat(0), Value::Num(1.0)]);
        let mut same = DeltaBatch::new();
        same.insert_labeled(loan, loan_tuple(8, 124, 1.0), ClassLabel::POS);
        same.update(loan, Row(7), AttrId(2), Value::Num(1.0));
        let mut past = DeltaBatch::new();
        past.update(account, Row(5), AttrId(2), Value::Num(1.0));
        for bad in [&dup, &same, &past] {
            assert!(overlay.push(&base, bad).is_err());
            assert!(merged.clone().apply_delta(bad).is_err());
            assert_matches_merge(&base, &overlay, &merged);
        }
        let err = overlay.push(&base, &past).unwrap_err();
        assert_eq!(
            err.to_string(),
            "cannot update row 5 of `Account`: it held 5 rows before the batch"
        );
    }

    #[test]
    fn empty_and_extend() {
        let db = fig2_loan_account();
        let (_, account) = ids(&db);
        let empty = DeltaOverlay::build(&db, &DeltaBatch::new()).unwrap();
        assert!(empty.is_empty());
        // An untouched relation is read in place, not copied.
        assert!(matches!(empty.view(&db).column(account, AttrId(1)), Ok(Cow::Borrowed(_))));
        let mut a = DeltaBatch::new();
        a.insert(account, vec![Value::Key(500), Value::Cat(0), Value::Num(0.0)]);
        let mut b = DeltaBatch::new();
        b.insert(account, vec![Value::Key(501), Value::Cat(1), Value::Num(1.0)]);
        a.extend(&b);
        assert_eq!(a.len(), 2);
        let overlay = DeltaOverlay::build(&db, &a).unwrap();
        assert_eq!(overlay.inserted_rows(), 2);
        assert!(!overlay.is_empty());
    }

    #[test]
    fn unknown_relation_rejected() {
        let db = fig2_loan_account();
        let mut batch = DeltaBatch::new();
        batch.insert(RelId(99), vec![Value::Key(1)]);
        assert!(matches!(
            DeltaOverlay::build(&db, &batch).unwrap_err(),
            RelationalError::Schema(SchemaError::UnknownRelation(_))
        ));
    }
}
