//! Differential test over random delta *sequences*: a single server and a
//! 2-shard router sharing one overlay must accept or reject each batch
//! exactly as sequential `Database::apply_delta` on a clone does, and read
//! back the same merged cells and target labels after every batch.
//!
//! The sequences mix valid and invalid batches: references to keys an
//! earlier batch inserted, duplicate primary keys across batches,
//! key-column updates, updates of rows earlier batches inserted (valid)
//! or the same batch inserts (invalid), dangling foreign keys and missing
//! labels. A rejected batch must leave the live overlay as it was, and an
//! overlay snapshot taken before an apply must read unchanged after it.

use std::sync::Arc;

use proptest::prelude::*;

use crossmine_core::CrossMine;
use crossmine_relational::{
    AttrId, AttrType, ClassLabel, Database, DeltaBatch, DeltaOverlay, RelId, Row, TupleSource,
    Value,
};
use crossmine_serve::{
    evaluate_batch, CompiledPlan, ModelRegistry, PredictionServer, ServeRequest, ServeScratch,
    ServerConfig, ShardRouter,
};
use crossmine_synth::{generate, GenParams};

/// Every cell of every relation, column-major, plus the target labels.
type Cells = (Vec<Vec<Vec<Value>>>, Vec<ClassLabel>);

fn materialized_cells(db: &Database) -> Cells {
    let columns = db
        .schema
        .iter_relations()
        .map(|(rid, rs)| {
            (0..rs.arity()).map(|a| db.relation(rid).column(AttrId(a)).to_vec()).collect()
        })
        .collect();
    (columns, db.labels().to_vec())
}

fn overlay_cells(base: &Database, overlay: Option<&DeltaOverlay>) -> Cells {
    let Some(overlay) = overlay else { return materialized_cells(base) };
    let view = overlay.view(base);
    let columns = base
        .schema
        .iter_relations()
        .map(|(rid, rs)| {
            (0..rs.arity())
                .map(|a| {
                    let Ok(column) = view.column(rid, AttrId(a));
                    column.into_owned()
                })
                .collect()
        })
        .collect();
    let labels =
        (0..overlay.num_targets(base) as u32).map(|r| overlay.label(base, Row(r))).collect();
    (columns, labels)
}

/// Decodes one batch against `merged`, the database as every accepted
/// batch so far left it. `base_rows` are the row counts before any delta,
/// so "a row an earlier batch inserted" is any row at or past them.
struct Decoder {
    base_rows: Vec<usize>,
    next_key: Vec<u64>,
    target: RelId,
}

impl Decoder {
    fn new(base: &Database) -> Decoder {
        let next_key = base
            .schema
            .iter_relations()
            .map(|(rid, rs)| {
                rs.primary_key.map_or(0, |pk| {
                    base.relation(rid)
                        .column(pk)
                        .iter()
                        .filter_map(|v| v.as_key())
                        .max()
                        .unwrap_or(0)
                        + 1
                })
            })
            .collect();
        Decoder {
            base_rows: base
                .schema
                .iter_relations()
                .map(|(rid, _)| base.relation(rid).len())
                .collect(),
            next_key,
            target: base.target().unwrap(),
        }
    }

    /// A fresh-keyed clone of row `sel` of keyed relation `rel`, with its
    /// label when `rel` is the target.
    fn clone_row(
        &mut self,
        merged: &Database,
        rel: RelId,
        sel: u64,
    ) -> (Vec<Value>, Option<ClassLabel>) {
        let n = merged.relation(rel).len();
        let src = Row((sel % n as u64) as u32);
        let mut tuple = merged.relation(rel).tuple(src);
        let pk = merged.schema.relation(rel).primary_key.expect("keyed relation");
        tuple[pk.0] = Value::Key(self.next_key[rel.0]);
        self.next_key[rel.0] += 1;
        let label = (rel == self.target).then(|| merged.label(src));
        (tuple, label)
    }

    /// Row `sel` (wrapped) among the rows earlier batches inserted into
    /// `rel`, if there are any.
    fn tail_row(&self, merged: &Database, rel: RelId, sel: u64) -> Option<Row> {
        let (from, to) = (self.base_rows[rel.0], merged.relation(rel).len());
        (to > from).then(|| Row((from + (sel as usize) % (to - from)) as u32))
    }

    fn push_insert(
        batch: &mut DeltaBatch,
        rel: RelId,
        tuple: Vec<Value>,
        label: Option<ClassLabel>,
    ) {
        match label {
            Some(l) => batch.insert_labeled(rel, tuple, l),
            None => batch.insert(rel, tuple),
        };
    }

    fn decode(&mut self, merged: &Database, ops: &[(u8, u64, u64)]) -> DeltaBatch {
        let keyed: Vec<RelId> = merged
            .schema
            .iter_relations()
            .filter(|(rid, rs)| rs.primary_key.is_some() && !merged.relation(*rid).is_empty())
            .map(|(rid, _)| rid)
            .collect();
        // `(rel, non-key attr)` and `(rel, key attr)` cells over non-empty
        // relations.
        let cells = |key: bool| -> Vec<(RelId, AttrId)> {
            merged
                .schema
                .iter_relations()
                .filter(|(rid, _)| !merged.relation(*rid).is_empty())
                .flat_map(|(rid, rs)| {
                    rs.iter_attrs()
                        .filter(move |(_, a)| a.ty.is_key() == key)
                        .map(move |(aid, _)| (rid, aid))
                })
                .collect()
        };
        let (plain, keys) = (cells(false), cells(true));
        let mut batch = DeltaBatch::new();
        let mut inserted = vec![0usize; self.base_rows.len()];
        for &(kind, a, b) in ops {
            let rel = keyed[(a % keyed.len() as u64) as usize];
            match kind {
                // A valid fresh-keyed clone.
                0..=3 => {
                    let (tuple, label) = self.clone_row(merged, rel, b);
                    Self::push_insert(&mut batch, rel, tuple, label);
                    inserted[rel.0] += 1;
                }
                // A clone whose foreign keys point at rows earlier batches
                // inserted, where there are any (valid).
                4 | 5 => {
                    let (mut tuple, label) = self.clone_row(merged, rel, b);
                    for (aid, attr) in merged.schema.relation(rel).iter_attrs() {
                        let AttrType::ForeignKey { target } = &attr.ty else { continue };
                        let tid = merged.schema.rel_id(target).unwrap();
                        let Some(pk) = merged.schema.relation(tid).primary_key else { continue };
                        if let Some(row) = self.tail_row(merged, tid, b) {
                            tuple[aid.0] = merged.relation(tid).value(row, pk);
                        }
                    }
                    Self::push_insert(&mut batch, rel, tuple, label);
                    inserted[rel.0] += 1;
                }
                // An update of a non-key cell (valid): kinds 6–9 pick a
                // row an earlier batch inserted where there is one, kind 10
                // any row present.
                6..=10 if !plain.is_empty() => {
                    let tails: Vec<(RelId, AttrId)> = plain
                        .iter()
                        .copied()
                        .filter(|&(rel, _)| self.tail_row(merged, rel, 0).is_some())
                        .collect();
                    let pool = if kind == 10 || tails.is_empty() { &plain } else { &tails };
                    let (rel, attr) = pool[(a % pool.len() as u64) as usize];
                    let n = merged.relation(rel).len();
                    let row = match kind {
                        10 => Row((b % n as u64) as u32),
                        _ => self.tail_row(merged, rel, b).unwrap_or(Row(0)),
                    };
                    let column = merged.relation(rel).column(attr);
                    let value = if b % 7 == 0 { Value::Null } else { column[(b / 7) as usize % n] };
                    batch.update(rel, row, attr, value);
                }
                // A primary key already present, preferably one an earlier
                // batch inserted (invalid).
                11 => {
                    let (mut tuple, label) = self.clone_row(merged, rel, b);
                    let pk = merged.schema.relation(rel).primary_key.unwrap();
                    let n = merged.relation(rel).len() as u64;
                    let row = self.tail_row(merged, rel, b).unwrap_or(Row((b % n) as u32));
                    tuple[pk.0] = merged.relation(rel).value(row, pk);
                    Self::push_insert(&mut batch, rel, tuple, label);
                }
                // A key-column update (invalid).
                12 if !keys.is_empty() => {
                    let (rel, attr) = keys[(a % keys.len() as u64) as usize];
                    let n = merged.relation(rel).len() as u64;
                    batch.update(rel, Row((b % n) as u32), attr, Value::Key(b));
                }
                // An update of a row this batch inserts (invalid); of the
                // first row past the end when it inserted none (invalid).
                13 if !plain.is_empty() => {
                    let (rel, attr) = plain[(a % plain.len() as u64) as usize];
                    let row = merged.relation(rel).len() + inserted[rel.0].saturating_sub(1);
                    let value = merged.relation(rel).column(attr)[0];
                    batch.update(rel, Row(row as u32), attr, value);
                }
                // A dangling foreign key (invalid) where the relation has
                // one.
                14 if merged
                    .schema
                    .relation(rel)
                    .iter_attrs()
                    .any(|(_, a)| matches!(a.ty, AttrType::ForeignKey { .. })) =>
                {
                    let (mut tuple, label) = self.clone_row(merged, rel, b);
                    for (aid, attr) in merged.schema.relation(rel).iter_attrs() {
                        if let AttrType::ForeignKey { .. } = attr.ty {
                            tuple[aid.0] = Value::Key(u64::MAX - b);
                        }
                    }
                    Self::push_insert(&mut batch, rel, tuple, label);
                }
                // A target insert without its label (invalid).
                _ => {
                    let (tuple, _) = self.clone_row(merged, self.target, b);
                    batch.insert(self.target, tuple);
                }
            }
        }
        batch
    }
}

/// Encoded ops, `(kind, selector, selector)`, decoded by [`Decoder`].
type Ops = Vec<(u8, u64, u64)>;

/// A database seed and a sequence of encoded batches.
fn arb_sequence() -> impl Strategy<Value = (u64, Vec<Ops>)> {
    (
        0u64..1000,
        prop::collection::vec(
            prop::collection::vec((0u8..16, 0u64..1 << 20, 0u64..1 << 20), 1..5),
            1..9,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn servers_track_sequential_apply_delta(input in arb_sequence()) {
        let (seed, sequence) = input;
        let base = generate(&GenParams {
            num_relations: 4,
            min_tuples: 20,
            expected_tuples: 40,
            expected_foreign_keys: 2,
            seed,
            ..Default::default()
        });
        let targets: Vec<Row> = base.relation(base.target().unwrap()).iter_rows().collect();
        let model = CrossMine::default().fit(&base, &targets).unwrap();
        let plan = CompiledPlan::compile(&model, &base.schema).unwrap();
        let base = Arc::new(base);
        let server = PredictionServer::start(
            Arc::clone(&base),
            Arc::new(ModelRegistry::new(plan.clone())),
            ServerConfig::default(),
        )
        .unwrap();
        let router = ShardRouter::start(
            Arc::clone(&base),
            &plan,
            ServerConfig::builder().workers(1).shards(2).build().unwrap(),
        )
        .unwrap();

        let mut merged = Database::clone(&base);
        let mut decoder = Decoder::new(&base);
        for (k, ops) in sequence.iter().enumerate() {
            let batch = decoder.decode(&merged, ops);
            let want = merged.apply_delta(&batch);
            // Snapshots held across the apply: every batch for the router,
            // every other batch for the server, so the server also extends
            // its overlay in place.
            let router_before = router.overlay();
            let router_cells = overlay_cells(&base, router_before.as_deref());
            let server_before = (k % 2 == 0).then(|| server.overlay()).flatten();
            let server_cells = overlay_cells(&base, server_before.as_deref());

            let got_server = server.apply_delta(&batch);
            let got_router = router.apply_delta(&batch);
            prop_assert_eq!(got_server.is_ok(), want.is_ok(), "batch {}: {:?}", k, got_server);
            prop_assert_eq!(got_router.is_ok(), want.is_ok(), "batch {}: {:?}", k, got_router);
            if let (Ok(stats), Ok(_)) = (&got_server, &want) {
                prop_assert_eq!(stats.inserted_rows, merged.total_tuples() - base.total_tuples());
                prop_assert_eq!(Some(*stats), got_router.ok());
            }

            // The live overlays read as the merge, accepted or not.
            let expected = materialized_cells(&merged);
            let server_now = overlay_cells(&base, server.overlay().as_deref());
            prop_assert!(server_now == expected, "server, batch {}", k);
            let router_now = overlay_cells(&base, router.overlay().as_deref());
            prop_assert!(router_now == expected, "router, batch {}", k);
            if want.is_err() {
                prop_assert!(match (&router_before, router.overlay()) {
                    (Some(before), Some(after)) => Arc::ptr_eq(before, &after),
                    (before, after) => before.is_none() && after.is_none(),
                }, "a rejected batch swaps nothing in");
            }
            // Snapshots taken before the apply are untouched by it.
            prop_assert!(overlay_cells(&base, router_before.as_deref()) == router_cells);
            prop_assert!(overlay_cells(&base, server_before.as_deref()) == server_cells);
        }

        // Both serve every merged target row as the merge is scored, the
        // router's rows spread over both shards.
        let rows: Vec<Row> = (0..merged.num_targets() as u32).map(Row).collect();
        let want = evaluate_batch(&plan, &merged, &rows, &mut ServeScratch::new());
        for handles in [
            server.serve(ServeRequest::new(rows.clone())).unwrap(),
            router.serve(ServeRequest::new(rows.clone())).unwrap(),
        ] {
            let got: Vec<ClassLabel> =
                handles.into_iter().map(|h| h.wait().unwrap().label).collect();
            prop_assert_eq!(&got, &want);
        }
        server.shutdown();
        router.shutdown();
    }
}
