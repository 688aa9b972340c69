//! The sufficient-statistics count store behind `find_best_literal`.
//!
//! Every round of Algorithm 3 used to re-propagate tuple IDs and rebuild
//! (value × label) tallies from scratch, although most prop-paths are
//! unchanged between rounds, across clauses, across classes, and across CV
//! folds. Following the FactorBase line of work (precomputed multi-relational
//! sufficient statistics), [`StatsCache`] memoises, per **prop-path
//! signature** ([`PathKey`]), one [`CachedEntry`] holding the statistics in
//! the form the search reads them:
//!
//! * the propagated annotation as a CSR buffer pair, plus its longest row,
//!   which settles most fan-out tests without a scan
//!   ([`CachedEntry::fanout_exceeds`]);
//! * per categorical attribute, code-grouped target ids, each group
//!   distinct, so a group's live `(p, n)` is a plain sum of
//!   [`TargetSet::class`] bytes;
//! * per numerical attribute, the value-sorted `(value, ids)` table the
//!   threshold sweep consumes; and
//! * per aggregate (`count(*)`, then `sum` and `avg` of each numerical
//!   attribute), the targets ordered by their value, which the sweep
//!   filters through the live targets without sorting.
//!
//! **The superset principle.** An entry is computed from an annotation that
//! is a *superset* of every live annotation it will be queried under: the
//! full identity of the target relation ([`SourceSig::Identity`]) or a
//! clause state's annotation at insertion time ([`SourceSig::State`]), which
//! later rounds only ever *restrict* (eliminated targets are dropped, never
//! added). Because tuple-ID propagation commutes with restriction to a
//! target subset, filtering a cached entry through the live [`TargetSet`] at
//! query time reproduces the live counts exactly — see
//! [`crate::search::best_constraint_cached`] for the per-table argument.
//!
//! **Invalidation.** A [`SourceSig::State`] signature carries the clause
//! state's id and the source relation's *epoch*, bumped whenever a literal
//! constrains that relation (constraining clears idsets, which breaks the
//! superset property there — restriction alone never does). The learner
//! retires exactly the entries whose epoch went stale after each literal and
//! the whole state at clause end, so everything keyed
//! [`SourceSig::Identity`] survives across clauses, classes, and folds. A
//! `(uid, version)` database stamp guards against reuse across different or
//! mutated databases: [`StatsCache::prepare`] clears the store on mismatch.
//!
//! **Concurrency.** All lookups for one search round happen in a single
//! prepare pass under one lock, handing each worker `Arc`s to its entries;
//! the hit path inside the workers is lock-free. Freshly computed entries
//! are collected per worker and inserted once after the round, sorted by
//! unit index, so the store's contents — and its LRU-by-bytes eviction
//! order — are independent of worker count and scheduling.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard};

use crossmine_relational::{AttrId, Database, JoinEdge, RelId};

use crate::idset::{Stamp, TargetSet};
use crate::literal::AggOp;
use crate::propagation::{aggregate, AggStats, AnnView};

/// Monotonic source of clause-state ids (see
/// [`crate::propagation::ClauseState::state_id`]).
pub(crate) static NEXT_STATE_ID: AtomicU64 = AtomicU64::new(1);

/// The origin annotation of a cached prop-path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceSig {
    /// The full identity annotation of the target relation (every row maps
    /// to itself). Valid for any clause state whose target relation is
    /// still unconstrained (epoch 0): its live annotation is the identity
    /// restricted to the surviving targets, a subset of this source. These
    /// entries are label-free and sampling-free, so they are shared across
    /// clauses, classes, and cross-validation folds.
    Identity,
    /// A specific clause state's annotation of one relation at one epoch.
    /// Valid until a literal constrains `rel` again (which bumps the epoch)
    /// or the clause is finished.
    State {
        /// The owning clause state's unique id.
        state: u64,
        /// The source relation.
        rel: RelId,
        /// The source relation's constraint epoch at insertion time.
        epoch: u32,
    },
}

/// The canonical prop-path signature an entry is keyed by: where the
/// propagation started ([`SourceSig`]) plus the join-edge chain followed
/// (empty for a relation's own annotation).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathKey {
    /// The origin annotation.
    pub source: SourceSig,
    /// The join edges propagated across, in order.
    pub path: Vec<JoinEdge>,
}

/// Code-grouped target ids of one categorical attribute: group `c` holds
/// every propagated id behind a tuple with code `c`, each once, unfiltered
/// (the live [`TargetSet`] filters at query time).
#[derive(Debug)]
pub(crate) struct CatTable {
    /// `ranges[code]` bounds group `code` in `ids`.
    pub(crate) ranges: Vec<(u32, u32)>,
    /// All groups' ids, concatenated; distinct within each group.
    pub(crate) ids: Vec<u32>,
}

impl CatTable {
    /// Groups `view`'s ids by their tuple's code on categorical attribute
    /// `aid`. `rows` lists the view's rows with a non-empty idset (see
    /// [`joinable_rows`]), and the column is read at those rows only: one
    /// pass sizes the groups (one per code up to the largest code among
    /// them, so a code seen only at rows without ids gets an empty group),
    /// a second fills them, and a third drops the ids a group repeats,
    /// using `stamp` (which must cover every target id).
    pub(crate) fn build(
        db: &Database,
        rel: RelId,
        aid: AttrId,
        view: AnnView<'_>,
        rows: &[u32],
        stamp: &mut Stamp,
    ) -> Self {
        let column = db.relation(rel).column(aid);
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        let mut coded = Vec::with_capacity(rows.len());
        for &row in rows {
            let Some(c) = column[row as usize].as_cat() else { continue };
            let c = c as usize;
            if c >= ranges.len() {
                ranges.resize(c + 1, (0, 0));
            }
            ranges[c].1 += view.ids(row as usize).len() as u32;
            coded.push((c, row));
        }
        let mut total = 0u32;
        for range in &mut ranges {
            let len = range.1;
            *range = (total, total);
            total += len;
        }
        // `range.1` is each group's fill cursor; it ends at the group's end.
        let mut ids = vec![0u32; total as usize];
        for (c, row) in coded {
            let set = view.ids(row as usize);
            let end = &mut ranges[c].1;
            ids[*end as usize..*end as usize + set.len()].copy_from_slice(set);
            *end += set.len() as u32;
        }
        // Compact each group to its distinct ids, front to back.
        let mut write = 0usize;
        for range in &mut ranges {
            let (start, end) = (range.0 as usize, range.1 as usize);
            stamp.reset();
            let begin = write;
            for i in start..end {
                let id = ids[i];
                if stamp.mark(id) {
                    ids[write] = id;
                    write += 1;
                }
            }
            *range = (begin as u32, write as u32);
        }
        ids.truncate(write);
        CatTable { ranges, ids }
    }

    /// The ids of group `code`.
    pub(crate) fn group(&self, code: usize) -> &[u32] {
        let (a, b) = self.ranges[code];
        &self.ids[a as usize..b as usize]
    }
}

/// The rows of `view` whose idset is non-empty, ascending.
pub(crate) fn joinable_rows(view: AnnView<'_>) -> Vec<u32> {
    (0..view.num_rows()).filter(|&row| !view.ids(row).is_empty()).map(|row| row as u32).collect()
}

/// The sweep input of numerical attribute `aid` under `view`: one
/// `(value, ids)` per sorted-index row with a non-NaN value and a non-empty
/// idset, ascending by value. NaN values fail every `A <= v` / `A >= v` test
/// at apply time, so they can never be covered; they must also not become
/// thresholds, or the sweep's `==` value grouping would stall on them.
pub(crate) fn num_entries<'v>(
    db: &Database,
    rel: RelId,
    aid: AttrId,
    view: AnnView<'v>,
) -> Vec<(f64, &'v [u32])> {
    db.sorted_index(rel, aid)
        .entries
        .iter()
        .map(|&(v, row)| (v, view.ids(row.0 as usize)))
        .filter(|(v, set)| !v.is_nan() && !set.is_empty())
        .collect()
}

/// The stored [`num_entries`] of one numerical attribute.
#[derive(Debug)]
pub(crate) struct NumTable {
    /// Attribute values, ascending (ties kept, as in the sorted index).
    pub(crate) values: Vec<f64>,
    /// `ranges[i]` bounds entry `i`'s ids in `ids`.
    pub(crate) ranges: Vec<(u32, u32)>,
    /// All entries' ids, concatenated.
    pub(crate) ids: Vec<u32>,
}

impl NumTable {
    fn build(db: &Database, rel: RelId, aid: AttrId, view: AnnView<'_>) -> Self {
        let entries = num_entries(db, rel, aid, view);
        let mut table = NumTable {
            values: Vec::with_capacity(entries.len()),
            ranges: Vec::with_capacity(entries.len()),
            ids: Vec::new(),
        };
        for (v, set) in entries {
            let start = table.ids.len() as u32;
            table.ids.extend_from_slice(set);
            table.values.push(v);
            table.ranges.push((start, table.ids.len() as u32));
        }
        table
    }

    /// The table as the numerical sweep's input.
    pub(crate) fn entries(&self) -> Vec<(f64, &[u32])> {
        self.values
            .iter()
            .zip(&self.ranges)
            .map(|(&v, &(a, b))| (v, &self.ids[a as usize..b as usize]))
            .collect()
    }
}

/// One aggregate's targets in value order: the targets whose value is
/// defined and not NaN, sorted by `(value.total_cmp, id)`. A NaN value
/// fails every comparison at apply time, so it can neither be covered nor
/// become a threshold (where it would also stall the sweep's `==` value
/// grouping).
#[derive(Debug)]
pub(crate) struct AggColumn {
    /// Aggregate values, ascending.
    pub(crate) values: Vec<f64>,
    /// `ids[i]` is the target whose value is `values[i]`.
    pub(crate) ids: Vec<u32>,
}

impl AggColumn {
    /// The column of `op` over per-target statistics `stats` (indexed by
    /// target id).
    pub(crate) fn new(stats: &[AggStats], op: AggOp) -> Self {
        let mut pairs: Vec<(f64, u32)> = stats
            .iter()
            .enumerate()
            .filter_map(|(id, s)| s.value(op).map(|v| (v, id as u32)))
            .filter(|(v, _)| !v.is_nan())
            .collect();
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        AggColumn {
            values: pairs.iter().map(|p| p.0).collect(),
            ids: pairs.iter().map(|p| p.1).collect(),
        }
    }
}

/// The aggregate columns of one relation, in the order the search scores
/// them: `count(*)`, then `sum` and `avg` of each numerical attribute in
/// schema order.
#[derive(Debug)]
pub(crate) struct AggTables {
    /// `(op, attribute, column)`; the attribute is `None` for `count(*)`.
    pub(crate) columns: Vec<(AggOp, Option<AttrId>, AggColumn)>,
}

impl AggTables {
    /// Aggregates `view` per target, counting only ids in `targets`.
    pub(crate) fn build(db: &Database, rel: RelId, view: AnnView<'_>, targets: &TargetSet) -> Self {
        let count = aggregate(db, rel, None, view, targets);
        let mut columns = vec![(AggOp::Count, None, AggColumn::new(&count, AggOp::Count))];
        for (aid, attr) in db.schema.relation(rel).iter_attrs() {
            if attr.ty.is_numerical() {
                let stats = aggregate(db, rel, Some(aid), view, targets);
                for op in [AggOp::Sum, AggOp::Avg] {
                    columns.push((op, Some(aid), AggColumn::new(&stats, op)));
                }
            }
        }
        AggTables { columns }
    }
}

/// The contingency tables of one entry, present when the entry's fan-out
/// check passed at build time (a fan-out-exceeded propagation is cached as
/// bare CSR so the skip decision itself is replayable without propagating).
#[derive(Debug)]
pub(crate) struct Tables {
    /// Categorical tables, in schema attribute order.
    pub(crate) cats: Vec<(AttrId, CatTable)>,
    /// Numerical tables, in schema attribute order.
    pub(crate) nums: Vec<(AttrId, NumTable)>,
    /// Aggregate tables (unfiltered: built over every target), when
    /// aggregation literals were enabled for this entry's relation.
    pub(crate) aggs: Option<AggTables>,
}

impl Tables {
    /// The table of categorical attribute `aid`.
    pub(crate) fn cat(&self, aid: AttrId) -> &CatTable {
        &self.cats.iter().find(|(a, _)| *a == aid).expect("one table per categorical attribute").1
    }

    /// The table of numerical attribute `aid`.
    pub(crate) fn num(&self, aid: AttrId) -> &NumTable {
        &self.nums.iter().find(|(a, _)| *a == aid).expect("one table per numerical attribute").1
    }
}

/// One cached prop-path: the propagated annotation (CSR) plus, usually, its
/// per-attribute contingency tables. Entries are immutable once shared and
/// held by `Arc`, so cache hits read without locking.
#[derive(Debug)]
pub struct CachedEntry {
    /// CSR offsets (`num_rows + 1`).
    pub(crate) offsets: Vec<u32>,
    /// CSR ids, row-major, each row sorted and deduplicated.
    pub(crate) ids: Vec<u32>,
    /// The most ids any one row carries.
    longest: u32,
    /// Contingency tables (`None` for fan-out-exceeded propagations).
    pub(crate) tables: Option<Tables>,
    /// Approximate heap size, for the byte budget.
    bytes: usize,
}

/// Average propagated ids per joinable tuple, counting only ids in
/// `targets` (the §4.3 fan-out of the view *restricted to* the live target
/// set). On a live annotation — whose ids are already a subset of the
/// surviving targets — this equals `AnnView::avg_fanout`, so the cached
/// search reproduces the legacy skip decision exactly.
pub(crate) fn filtered_fanout(view: AnnView<'_>, targets: &TargetSet) -> f64 {
    let mut total = 0usize;
    let mut joinable = 0usize;
    for row in 0..view.num_rows() {
        let live = view.ids(row).iter().filter(|&&id| targets.contains(id)).count();
        if live > 0 {
            total += live;
            joinable += 1;
        }
    }
    if joinable == 0 {
        0.0
    } else {
        total as f64 / joinable as f64
    }
}

/// Whether the §4.3 fan-out of `view` restricted to `targets` exceeds
/// `limit`, where `longest` is the most ids any row of `view` carries.
///
/// The fan-out averages the live counts of the rows that keep any, and no
/// row keeps more than `longest`, so `longest <= limit` proves the bound
/// holds without a scan; only a longer row makes [`filtered_fanout`] run.
pub(crate) fn fanout_exceeds(
    view: AnnView<'_>,
    longest: usize,
    targets: &TargetSet,
    limit: Option<usize>,
) -> bool {
    limit.is_some_and(|limit| longest > limit && filtered_fanout(view, targets) > limit as f64)
}

fn slice_bytes<T>(v: &[T]) -> usize {
    std::mem::size_of_val(v)
}

impl CachedEntry {
    /// An entry holding a copy of the (superset) annotation `view` and no
    /// tables yet.
    pub fn new(view: AnnView<'_>) -> Self {
        let num_rows = view.num_rows();
        let mut offsets = Vec::with_capacity(num_rows + 1);
        let mut ids = Vec::with_capacity(view.total_ids());
        let mut longest = 0usize;
        offsets.push(0u32);
        for row in 0..num_rows {
            let set = view.ids(row);
            longest = longest.max(set.len());
            ids.extend_from_slice(set);
            offsets.push(ids.len() as u32);
        }
        let mut entry =
            CachedEntry { offsets, ids, longest: longest as u32, tables: None, bytes: 0 };
        entry.bytes = entry.compute_bytes();
        entry
    }

    /// Builds the contingency tables of relation `rel` from the entry's
    /// annotation. `all_targets` must cover every target row (aggregate
    /// tables are unfiltered); `with_aggs` mirrors whether aggregation
    /// literals apply to this relation. `stamp` must cover every target id.
    pub fn build_tables(
        &mut self,
        db: &Database,
        rel: RelId,
        all_targets: &TargetSet,
        with_aggs: bool,
        stamp: &mut Stamp,
    ) {
        let view = self.view();
        let rows = joinable_rows(view);
        let mut cats = Vec::new();
        let mut nums = Vec::new();
        for (aid, attr) in db.schema.relation(rel).iter_attrs() {
            if attr.ty.is_categorical() {
                cats.push((aid, CatTable::build(db, rel, aid, view, &rows, stamp)));
            } else if attr.ty.is_numerical() {
                nums.push((aid, NumTable::build(db, rel, aid, view)));
            }
        }
        let aggs = with_aggs.then(|| AggTables::build(db, rel, view, all_targets));
        self.tables = Some(Tables { cats, nums, aggs });
        self.bytes = self.compute_bytes();
    }

    fn compute_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<CachedEntry>()
            + slice_bytes(&self.offsets)
            + slice_bytes(&self.ids);
        if let Some(t) = &self.tables {
            for (_, c) in &t.cats {
                bytes += slice_bytes(&c.ranges) + slice_bytes(&c.ids) + 32;
            }
            for (_, n) in &t.nums {
                bytes += slice_bytes(&n.values) + slice_bytes(&n.ranges) + slice_bytes(&n.ids) + 32;
            }
            if let Some(a) = &t.aggs {
                for (_, _, column) in &a.columns {
                    bytes += slice_bytes(&column.values) + slice_bytes(&column.ids) + 32;
                }
            }
        }
        bytes
    }

    /// The cached propagated annotation.
    pub fn view(&self) -> AnnView<'_> {
        AnnView::Csr { offsets: &self.offsets, ids: &self.ids }
    }

    /// Whether the entry's fan-out restricted to the live `targets` exceeds
    /// `limit` (see [`fanout_exceeds`]): settled in O(1) whenever the
    /// entry's longest row is within the limit.
    pub fn fanout_exceeds(&self, targets: &TargetSet, limit: Option<usize>) -> bool {
        fanout_exceeds(self.view(), self.longest as usize, targets, limit)
    }

    /// Approximate heap footprint, as accounted against the byte budget.
    pub fn cost_bytes(&self) -> usize {
        self.bytes
    }
}

/// A point-in-time snapshot of the store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Prepared lookups served from the store (cumulative).
    pub hits: u64,
    /// Entries computed and inserted (cumulative).
    pub misses: u64,
    /// Entries evicted by the byte budget (cumulative).
    pub evictions: u64,
    /// Current resident bytes.
    pub bytes: usize,
    /// Current entry count.
    pub entries: usize,
}

struct Slot {
    entry: Arc<CachedEntry>,
    last_used: u64,
}

#[derive(Default)]
struct StoreInner {
    map: HashMap<PathKey, Slot>,
    /// Monotonic recency clock for LRU.
    clock: u64,
    bytes: usize,
    /// `Database::cache_stamp` the contents describe; mismatch clears.
    db_stamp: Option<(u64, u64)>,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Counter values already flushed to obs (see [`StatsCache::drain_report`]).
    reported: (u64, u64, u64),
}

impl StoreInner {
    fn touch(&mut self, key: &PathKey) -> Option<Arc<CachedEntry>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|slot| {
            slot.last_used = clock;
            Arc::clone(&slot.entry)
        })
    }

    fn evict_to(&mut self, budget: usize) {
        while self.bytes > budget && !self.map.is_empty() {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map has a minimum");
            if let Some(slot) = self.map.remove(&victim) {
                self.bytes -= slot.entry.bytes;
                self.evictions += 1;
            }
        }
    }

    fn retire_where(&mut self, mut stale: impl FnMut(&PathKey) -> bool) {
        let mut freed = 0usize;
        self.map.retain(|key, slot| {
            if stale(key) {
                freed += slot.entry.bytes;
                false
            } else {
                true
            }
        });
        self.bytes -= freed;
    }
}

/// The shared sufficient-statistics count store. Cloning shares the
/// underlying store (like `ObsHandle`); the default value is an empty store
/// of its own. The byte budget is supplied per operation (it lives in
/// [`crate::CrossMineParams::stats_cache_budget_bytes`]), so mutating the
/// params field keeps the store coherent.
#[derive(Clone, Default)]
pub struct StatsCache {
    inner: Arc<Mutex<StoreInner>>,
}

impl std::fmt::Debug for StatsCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("StatsCache")
            .field("entries", &s.entries)
            .field("bytes", &s.bytes)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl StatsCache {
    /// A fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock_inner(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("stats cache poisoned")
    }

    /// The single locked pass of one search round: validates the database
    /// stamp (clearing the store when it changed), then resolves every key
    /// to its entry — bumping LRU recency and the hit counter — in one
    /// deterministic sweep. Workers then read their `Arc`s without locking.
    pub fn prepare(&self, db_stamp: (u64, u64), keys: &[PathKey]) -> Vec<Option<Arc<CachedEntry>>> {
        let mut inner = self.lock_inner();
        if inner.db_stamp != Some(db_stamp) {
            let stale: usize = inner.map.len();
            if stale > 0 {
                inner.map.clear();
                inner.bytes = 0;
            }
            inner.db_stamp = Some(db_stamp);
        }
        keys.iter()
            .map(|key| {
                let found = inner.touch(key);
                if found.is_some() {
                    inner.hits += 1;
                }
                found
            })
            .collect()
    }

    /// Inserts one round's freshly computed entries (callers pass them in
    /// unit order so eviction is deterministic), charging each against
    /// `budget_bytes` with LRU-by-bytes eviction. Every insert counts as a
    /// miss: an entry is only ever computed because [`StatsCache::prepare`]
    /// did not have it.
    pub fn insert_batch(
        &self,
        items: impl IntoIterator<Item = (PathKey, Arc<CachedEntry>)>,
        budget_bytes: usize,
    ) {
        let mut inner = self.lock_inner();
        for (key, entry) in items {
            inner.clock += 1;
            let clock = inner.clock;
            inner.misses += 1;
            inner.bytes += entry.bytes;
            if let Some(old) = inner.map.insert(key, Slot { entry, last_used: clock }) {
                inner.bytes -= old.entry.bytes;
            }
            inner.evict_to(budget_bytes);
        }
    }

    /// Drops every entry whose source is `(state, rel, epoch)` — called
    /// after a literal constrains `rel`, which makes that epoch's
    /// annotations unable to reproduce live counts (their idsets were
    /// cleared, not merely restricted). Entries of other relations and
    /// epochs — and everything [`SourceSig::Identity`] — survive.
    pub fn retire_source(&self, state: u64, rel: RelId, epoch: u32) {
        let mut inner = self.lock_inner();
        inner.retire_where(|key| key.source == SourceSig::State { state, rel, epoch });
    }

    /// Drops every entry owned by clause state `state` (clause finished; the
    /// negative-sample set and covering set of the next clause get a fresh
    /// state id). Identity-keyed entries survive.
    pub fn retire_state(&self, state: u64) {
        let mut inner = self.lock_inner();
        inner.retire_where(
            |key| matches!(key.source, SourceSig::State { state: s, .. } if s == state),
        );
    }

    /// Cumulative counters plus current size.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock_inner();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            bytes: inner.bytes,
            entries: inner.map.len(),
        }
    }

    /// The keys currently resident (diagnostics and invalidation tests).
    pub fn keys(&self) -> Vec<PathKey> {
        let inner = self.lock_inner();
        inner.map.keys().cloned().collect()
    }

    /// Counter increments since the last call, plus current bytes — the
    /// learner flushes these into `crossmine-obs` counters
    /// (`stats.cache_hits` / `stats.cache_misses` / `stats.cache_evictions`)
    /// and the `stats.cache_bytes` gauge.
    pub fn drain_report(&self) -> (u64, u64, u64, usize) {
        let mut inner = self.lock_inner();
        let delta = (
            inner.hits - inner.reported.0,
            inner.misses - inner.reported.1,
            inner.evictions - inner.reported.2,
            inner.bytes,
        );
        inner.reported = (inner.hits, inner.misses, inner.evictions);
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idset::{count_distinct, IdSet};
    use crate::propagation::Annotation;
    use crossmine_relational::{
        AttrType, Attribute, ClassLabel, DatabaseSchema, JoinKind, RelationSchema, Row, Value,
    };

    fn tiny_db() -> (Database, Vec<bool>) {
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        let mut c = Attribute::new("c", AttrType::Categorical);
        c.intern("a");
        c.intern("b");
        t.add_attribute(c).unwrap();
        t.add_attribute(Attribute::new("x", AttrType::Numerical)).unwrap();
        let tid = schema.add_relation(t).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        for i in 0..6u64 {
            db.push_row(tid, vec![Value::Key(i), Value::Cat((i % 2) as u32), Value::Num(i as f64)])
                .unwrap();
            db.push_label(if i < 3 { ClassLabel::POS } else { ClassLabel::NEG });
        }
        let is_pos = vec![true, true, true, false, false, false];
        (db, is_pos)
    }

    fn dummy_edge() -> JoinEdge {
        JoinEdge {
            from: RelId(0),
            from_attr: AttrId(0),
            to: RelId(0),
            to_attr: AttrId(0),
            kind: JoinKind::PkToFk,
        }
    }

    fn key(source: SourceSig, path: Vec<JoinEdge>) -> PathKey {
        PathKey { source, path }
    }

    /// The full identity entry of the target relation: row `i` carries
    /// exactly id `i`.
    fn identity_entry(db: &Database, rel: RelId, all: &TargetSet, with_aggs: bool) -> CachedEntry {
        let ann = Annotation::identity(all.capacity(), all);
        entry_with_tables(db, rel, ann.view(), all, with_aggs)
    }

    fn entry_with_tables(
        db: &Database,
        rel: RelId,
        view: AnnView<'_>,
        all: &TargetSet,
        with_aggs: bool,
    ) -> CachedEntry {
        let mut entry = CachedEntry::new(view);
        entry.build_tables(db, rel, all, with_aggs, &mut Stamp::new(all.capacity()));
        entry
    }

    fn entry_of(db: &Database, is_pos: &[bool]) -> Arc<CachedEntry> {
        let all = TargetSet::all(is_pos);
        let rel = db.target().unwrap();
        Arc::new(identity_entry(db, rel, &all, false))
    }

    #[test]
    fn identity_entry_matches_handbuilt_csr_and_tables() {
        let (db, is_pos) = tiny_db();
        let all = TargetSet::all(&is_pos);
        let rel = db.target().unwrap();
        let entry = identity_entry(&db, rel, &all, true);
        assert_eq!(entry.view().num_rows(), 6);
        assert_eq!(entry.view().ids(4), &[4]);
        let tables = entry.tables.as_ref().unwrap();
        // Categorical: code 0 holds the even rows, code 1 the odd ones.
        let (_, cat) = &tables.cats[0];
        let group = |c: usize| {
            let (a, b) = cat.ranges[c];
            &cat.ids[a as usize..b as usize]
        };
        assert_eq!(group(0), &[0, 2, 4]);
        assert_eq!(group(1), &[1, 3, 5]);
        // Numerical: ascending values, one id per entry.
        let (_, num) = &tables.nums[0];
        assert_eq!(num.values, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        // Aggregates: each target joins exactly one row of the identity, so
        // count(*) is 1 for all six, and sum(x) orders them by x.
        let aggs = tables.aggs.as_ref().unwrap();
        let ops: Vec<_> = aggs.columns.iter().map(|(op, attr, _)| (*op, *attr)).collect();
        assert_eq!(
            ops,
            vec![
                (AggOp::Count, None),
                (AggOp::Sum, Some(AttrId(2))),
                (AggOp::Avg, Some(AttrId(2)))
            ]
        );
        let (_, _, count) = &aggs.columns[0];
        assert_eq!(count.values, vec![1.0; 6]);
        assert_eq!(count.ids, vec![0, 1, 2, 3, 4, 5]);
        let (_, _, sum) = &aggs.columns[1];
        assert_eq!(sum.values, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(entry.cost_bytes() > 0);
    }

    #[test]
    fn build_from_owned_annotation_skips_empty_rows() {
        let (db, is_pos) = tiny_db();
        let all = TargetSet::all(&is_pos);
        let rel = db.target().unwrap();
        let ann = Annotation {
            idsets: vec![
                IdSet::from_sorted(vec![0, 1]),
                IdSet::new(),
                IdSet::singleton(2),
                IdSet::new(),
                IdSet::new(),
                IdSet::new(),
            ],
        };
        let entry = entry_with_tables(&db, rel, ann.view(), &all, false);
        assert_eq!(entry.view().ids(0), &[0, 1]);
        assert!(entry.view().ids(1).is_empty());
        let tables = entry.tables.as_ref().unwrap();
        // Row 1 (code 1) contributes nothing; row 2 (code 0) carries id 2.
        let (_, cat) = &tables.cats[0];
        let (a, b) = cat.ranges[0];
        assert_eq!(&cat.ids[a as usize..b as usize], &[0, 1, 2]);
        // Numerical table keeps only rows 0 and 2 (values 0.0 and 2.0).
        let (_, num) = &tables.nums[0];
        assert_eq!(num.values, vec![0.0, 2.0]);
        assert!(tables.aggs.is_none());
    }

    #[test]
    fn filtered_fanout_matches_restricted_live_fanout() {
        let (db, is_pos) = tiny_db();
        let all = TargetSet::all(&is_pos);
        let rel = db.target().unwrap();
        let entry = identity_entry(&db, rel, &all, false);
        // Restrict to three targets: the live annotation would have three
        // singleton rows -> fanout 1.0; an empty restriction -> 0.0.
        let some = TargetSet::from_rows(&is_pos, [Row(0), Row(2), Row(5)]);
        assert_eq!(filtered_fanout(entry.view(), &some), 1.0);
        let none = TargetSet::from_rows(&is_pos, std::iter::empty::<Row>());
        assert_eq!(filtered_fanout(entry.view(), &none), 0.0);
        // On the unrestricted set the filtered fanout equals the plain one.
        assert_eq!(filtered_fanout(entry.view(), &all), entry.view().avg_fanout());
    }

    #[test]
    fn fanout_bound_falls_back_to_the_live_average() {
        // Row 0 carries five ids and row 1 one: the longest row exceeds a
        // limit of 3, so the bound cannot settle the test and the average
        // over the rows that keep a live id decides, either way.
        let (_, is_pos) = tiny_db();
        let mut idsets = vec![IdSet::new(); 6];
        idsets[0] = IdSet::from_sorted(vec![0, 1, 2, 3, 4]);
        idsets[1] = IdSet::singleton(5);
        let ann = Annotation { idsets };
        let entry = CachedEntry::new(ann.view());
        assert_eq!(entry.longest, 5);
        assert_eq!(ann.view().longest_row(), 5);
        let live = |rows: &[u32]| TargetSet::from_rows(&is_pos, rows.iter().map(|&r| Row(r)));
        let cases: [(&[u32], f64, bool); 4] = [
            // (5 + 1) / 2: at the limit, not above it.
            (&[0, 1, 2, 3, 4, 5], 3.0, false),
            // Row 1 drops out: row 0 alone keeps five.
            (&[0, 1, 2, 3, 4], 5.0, true),
            // (4 + 1) / 2.
            (&[0, 1, 2, 3, 5], 2.5, false),
            // Row 0 alone keeps four.
            (&[0, 1, 2, 3], 4.0, true),
        ];
        for (rows, average, exceeded) in cases {
            let targets = live(rows);
            assert_eq!(filtered_fanout(entry.view(), &targets), average, "live {rows:?}");
            assert_eq!(entry.fanout_exceeds(&targets, Some(3)), exceeded, "live {rows:?}");
            assert_eq!(fanout_exceeds(ann.view(), 5, &targets, Some(3)), exceeded);
            // Within the limit, or with none, the bound settles it.
            assert!(!entry.fanout_exceeds(&targets, Some(5)));
            assert!(!entry.fanout_exceeds(&targets, None));
        }
    }

    #[test]
    fn cat_groups_are_distinct_and_tally_like_a_stamped_count() {
        // Codes alternate by row (even rows code 0, odd rows code 1), and
        // several tuples of one code join the same target: targets 1 and 3
        // each sit behind two or three tuples of one code.
        let (db, is_pos) = tiny_db();
        let rel = db.target().unwrap();
        let idsets = vec![
            IdSet::from_sorted(vec![0, 1]),
            IdSet::from_sorted(vec![3]),
            IdSet::from_sorted(vec![1, 2]),
            IdSet::from_sorted(vec![3, 4]),
            IdSet::from_sorted(vec![1]),
            IdSet::new(),
        ];
        let ann = Annotation { idsets: idsets.clone() };
        let view = ann.view();
        let rows = joinable_rows(view);
        assert_eq!(rows, vec![0, 1, 2, 3, 4]);
        let mut stamp = Stamp::new(is_pos.len());
        let table = CatTable::build(&db, rel, AttrId(1), view, &rows, &mut stamp);
        assert_eq!(table.ranges.len(), 2);
        for code in 0..2 {
            let mut group = table.group(code).to_vec();
            let len = group.len();
            group.sort_unstable();
            group.dedup();
            assert_eq!(group.len(), len, "group {code} repeats an id");
        }
        let live_sets = [
            TargetSet::all(&is_pos),
            TargetSet::from_rows(&is_pos, [Row(1), Row(3)]),
            TargetSet::from_rows(&is_pos, [Row(0), Row(2), Row(4), Row(5)]),
        ];
        for targets in &live_sets {
            for code in 0..2 {
                let behind = idsets.iter().skip(code).step_by(2).map(IdSet::as_slice);
                let expected = count_distinct(behind, targets, &is_pos, &mut stamp);
                assert_eq!(targets.tally(table.group(code)), expected, "code {code}");
            }
        }
        // A code seen only at rows without ids gets no group beyond the
        // largest code among the joinable rows.
        let only_even = Annotation {
            idsets: (0..6)
                .map(|r| if r % 2 == 0 { IdSet::singleton(r) } else { IdSet::new() })
                .collect(),
        };
        let rows = joinable_rows(only_even.view());
        let table = CatTable::build(&db, rel, AttrId(1), only_even.view(), &rows, &mut stamp);
        assert_eq!(table.ranges.len(), 1);
        assert_eq!(table.group(0), &[0, 2, 4]);
    }

    #[test]
    fn lru_eviction_by_bytes_is_recency_ordered() {
        let (db, is_pos) = tiny_db();
        let cache = StatsCache::new();
        let stamp = db.cache_stamp();
        let e = entry_of(&db, &is_pos);
        let per = e.cost_bytes();
        let k1 = key(SourceSig::Identity, vec![]);
        let k2 = key(SourceSig::State { state: 1, rel: RelId(0), epoch: 1 }, vec![dummy_edge()]);
        let k3 = key(SourceSig::State { state: 2, rel: RelId(0), epoch: 1 }, vec![dummy_edge()]);
        // Budget fits exactly two entries.
        let budget = per * 2;
        cache.prepare(stamp, std::slice::from_ref(&k1));
        cache.insert_batch([(k1.clone(), Arc::clone(&e)), (k2.clone(), Arc::clone(&e))], budget);
        assert_eq!(cache.stats().entries, 2);
        // Touch k1 so k2 is the LRU victim.
        let hits = cache.prepare(stamp, std::slice::from_ref(&k1));
        assert!(hits[0].is_some());
        cache.insert_batch([(k3.clone(), Arc::clone(&e))], budget);
        let keys = cache.keys();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&k1), "recently used entry survives");
        assert!(keys.contains(&k3), "new entry survives");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().bytes, budget);
        // A zero budget evicts everything, including the fresh insert.
        cache.insert_batch([(k2.clone(), e)], 0);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn retirement_drops_exactly_the_stale_source() {
        let (db, is_pos) = tiny_db();
        let cache = StatsCache::new();
        let stamp = db.cache_stamp();
        let e = entry_of(&db, &is_pos);
        let ident = key(SourceSig::Identity, vec![dummy_edge()]);
        let s1r0e1 = key(SourceSig::State { state: 1, rel: RelId(0), epoch: 1 }, vec![]);
        let s1r0e2 = key(SourceSig::State { state: 1, rel: RelId(0), epoch: 2 }, vec![]);
        let s1r1e1 =
            key(SourceSig::State { state: 1, rel: RelId(1), epoch: 1 }, vec![dummy_edge()]);
        let s2r0e1 = key(SourceSig::State { state: 2, rel: RelId(0), epoch: 1 }, vec![]);
        cache.prepare(stamp, &[]);
        cache.insert_batch(
            [&ident, &s1r0e1, &s1r0e2, &s1r1e1, &s2r0e1]
                .into_iter()
                .map(|k| (k.clone(), Arc::clone(&e))),
            usize::MAX,
        );
        let total = cache.stats().bytes;
        // Epoch 1 of (state 1, rel 0) went stale: exactly one entry drops.
        cache.retire_source(1, RelId(0), 1);
        let keys = cache.keys();
        assert_eq!(keys.len(), 4);
        assert!(!keys.contains(&s1r0e1));
        assert!(keys.contains(&s1r0e2) && keys.contains(&s1r1e1) && keys.contains(&s2r0e1));
        assert_eq!(cache.stats().bytes, total - e.cost_bytes());
        // Clause 1 finished: every state-1 entry drops, identity survives.
        cache.retire_state(1);
        let keys = cache.keys();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&ident) && keys.contains(&s2r0e1));
    }

    #[test]
    fn db_stamp_mismatch_clears_the_store() {
        let (mut db, is_pos) = tiny_db();
        let cache = StatsCache::new();
        let e = entry_of(&db, &is_pos);
        let k = key(SourceSig::Identity, vec![]);
        cache.prepare(db.cache_stamp(), std::slice::from_ref(&k));
        cache.insert_batch([(k.clone(), e)], usize::MAX);
        assert!(cache.prepare(db.cache_stamp(), std::slice::from_ref(&k))[0].is_some());
        // Mutate the database: the stamp moves, the cached counts are stale.
        db.push_label(ClassLabel::POS);
        let found = cache.prepare(db.cache_stamp(), std::slice::from_ref(&k));
        assert!(found[0].is_none(), "stale entries must not be served");
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn drain_report_returns_deltas_and_current_bytes() {
        let (db, is_pos) = tiny_db();
        let cache = StatsCache::new();
        let stamp = db.cache_stamp();
        let e = entry_of(&db, &is_pos);
        let k = key(SourceSig::Identity, vec![]);
        cache.prepare(stamp, std::slice::from_ref(&k));
        cache.insert_batch([(k.clone(), Arc::clone(&e))], usize::MAX);
        cache.prepare(stamp, std::slice::from_ref(&k));
        let (h, m, ev, bytes) = cache.drain_report();
        assert_eq!((h, m, ev), (1, 1, 0));
        assert_eq!(bytes, e.cost_bytes());
        let (h2, m2, _, _) = cache.drain_report();
        assert_eq!((h2, m2), (0, 0), "second drain reports only new activity");
    }

    #[test]
    fn clones_share_the_store() {
        let (db, is_pos) = tiny_db();
        let cache = StatsCache::new();
        let other = cache.clone();
        let k = key(SourceSig::Identity, vec![]);
        other.prepare(db.cache_stamp(), &[]);
        other.insert_batch([(k.clone(), entry_of(&db, &is_pos))], usize::MAX);
        assert_eq!(cache.stats().entries, 1);
        assert!(format!("{cache:?}").contains("entries: 1"));
    }
}
