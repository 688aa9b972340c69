//! Tuple-ID propagation (§4) and clause-state maintenance (§5.2/§5.3).
//!
//! [`Annotation`] attaches an [`IdSet`] to every tuple of one relation: the
//! target tuples joinable with it along the current clause's join path
//! (Definition 2). [`propagate`] moves an annotation across one §3.1 join
//! edge (Lemmas 1 and 2). [`ClauseState`] tracks, while a clause is being
//! built or evaluated, which target tuples still satisfy it and which
//! relations are *active* with which annotations — exactly the state
//! maintained by Algorithm 2 ("update IDs on every active relation").
//!
//! All reads go through [`TupleSource`], so the same code runs in memory,
//! over a delta overlay, or on disk (§8). `try_` methods return the
//! source's read error; their plain twins serve infallible sources.

use std::convert::Infallible;
use std::sync::atomic;

use crossmine_relational::{
    AttrId, Database, DatabaseSchema, JoinEdge, KeyLookup, RelId, Row, TupleSource, Value,
};

use crate::idset::{IdSet, Stamp, TargetSet};
use crate::literal::{AggOp, ComplexLiteral, Constraint, ConstraintKind};

/// Per-tuple ID sets for one relation. A tuple with an empty set is not
/// joinable with any surviving target tuple (or has been eliminated).
#[derive(Debug, Clone)]
pub struct Annotation {
    /// `idsets[row]` = target tuples joinable with `row`.
    pub idsets: Vec<IdSet>,
}

impl Annotation {
    /// An annotation with every tuple unjoinable.
    pub fn empty(num_rows: usize) -> Self {
        Annotation { idsets: vec![IdSet::new(); num_rows] }
    }

    /// The identity annotation of the target relation: each member of
    /// `targets` is joinable exactly with itself.
    pub fn identity(num_rows: usize, targets: &TargetSet) -> Self {
        let mut idsets = vec![IdSet::new(); num_rows];
        for r in targets.iter() {
            idsets[r.0 as usize] = IdSet::singleton(r.0);
        }
        Annotation { idsets }
    }

    /// Total number of propagated IDs.
    pub fn total_ids(&self) -> usize {
        self.idsets.iter().map(IdSet::len).sum()
    }

    /// Number of tuples with at least one ID.
    pub fn joinable_tuples(&self) -> usize {
        self.idsets.iter().filter(|s| !s.is_empty()).count()
    }

    /// Average IDs per joinable tuple — the fan-out the §4.3 constraint
    /// bounds. Zero when nothing is joinable.
    pub fn avg_fanout(&self) -> f64 {
        let joinable = self.joinable_tuples();
        if joinable == 0 {
            0.0
        } else {
            self.total_ids() as f64 / joinable as f64
        }
    }

    /// Drops every ID not in `targets` (Algorithm 2's "update IDs on every
    /// active relation" after tuples are eliminated).
    pub fn restrict_to(&mut self, targets: &TargetSet) {
        for set in &mut self.idsets {
            set.retain(|id| targets.contains(id));
        }
    }

    /// The union of all idsets as a [`TargetSet`].
    pub fn covered_targets(&self, is_pos: &[bool], stamp: &mut Stamp) -> TargetSet {
        stamp.reset();
        let mut rows = Vec::new();
        for set in &self.idsets {
            for id in set.iter() {
                if stamp.mark(id) {
                    rows.push(Row(id));
                }
            }
        }
        TargetSet::from_rows(is_pos, rows)
    }

    /// A borrowed view of this annotation for the search hot path.
    pub fn view(&self) -> AnnView<'_> {
        AnnView::Sets(&self.idsets)
    }

    /// Materialises an owned annotation from a CSR buffer pair: row `r`'s
    /// idset is `ids[offsets[r] as usize..offsets[r + 1] as usize]`, already
    /// sorted and deduplicated (the invariant [`PropagationScratch`]
    /// maintains).
    pub fn from_csr(offsets: &[u32], ids: &[u32]) -> Self {
        debug_assert!(!offsets.is_empty());
        let idsets = offsets
            .windows(2)
            .map(|w| IdSet::from_sorted(ids[w[0] as usize..w[1] as usize].to_vec()))
            .collect();
        Annotation { idsets }
    }
}

/// A borrowed, read-only view over per-tuple ID sets: either an owned
/// [`Annotation`]'s boxed `IdSet`s or one flat CSR buffer produced by
/// [`PropagationScratch`]. The literal search ([`crate::search`]) operates
/// on views so propagated annotations never need per-tuple heap
/// allocations.
#[derive(Debug, Clone, Copy)]
pub enum AnnView<'a> {
    /// Per-tuple `IdSet`s (the owned representation).
    Sets(&'a [IdSet]),
    /// CSR layout: row `r`'s ids are `ids[offsets[r]..offsets[r + 1]]`.
    Csr {
        /// `num_rows + 1` range boundaries into `ids`.
        offsets: &'a [u32],
        /// All ids, row-major; each row's range sorted and deduplicated.
        ids: &'a [u32],
    },
}

impl<'a> From<&'a Annotation> for AnnView<'a> {
    fn from(ann: &'a Annotation) -> Self {
        ann.view()
    }
}

impl<'a> AnnView<'a> {
    /// Number of tuples covered by the view.
    pub fn num_rows(&self) -> usize {
        match self {
            AnnView::Sets(sets) => sets.len(),
            AnnView::Csr { offsets, .. } => offsets.len() - 1,
        }
    }

    /// The (sorted, deduplicated) target ids joinable with tuple `row`.
    #[inline]
    pub fn ids(&self, row: usize) -> &'a [u32] {
        match self {
            AnnView::Sets(sets) => sets[row].as_slice(),
            AnnView::Csr { offsets, ids } => &ids[offsets[row] as usize..offsets[row + 1] as usize],
        }
    }

    /// Total number of propagated IDs.
    pub fn total_ids(&self) -> usize {
        match self {
            AnnView::Sets(sets) => sets.iter().map(IdSet::len).sum(),
            AnnView::Csr { ids, .. } => ids.len(),
        }
    }

    /// Number of tuples with at least one ID.
    pub fn joinable_tuples(&self) -> usize {
        (0..self.num_rows()).filter(|&r| !self.ids(r).is_empty()).count()
    }

    /// The most ids any one tuple carries (zero for an empty view).
    pub fn longest_row(&self) -> usize {
        (0..self.num_rows()).map(|r| self.ids(r).len()).max().unwrap_or(0)
    }

    /// Average IDs per joinable tuple (the §4.3 fan-out), zero when nothing
    /// is joinable.
    pub fn avg_fanout(&self) -> f64 {
        let joinable = self.joinable_tuples();
        if joinable == 0 {
            0.0
        } else {
            self.total_ids() as f64 / joinable as f64
        }
    }
}

/// Cheap propagation statistics kept inside every scratch: a handful of
/// plain `u64` adds per pass, always maintained (no branch on an
/// observability handle in the hot loop). Callers holding an enabled
/// `crossmine_obs::ObsHandle` drain them with
/// [`PropagationScratch::take_stats`] / [`PathScratch::take_stats`] and
/// flush to counters; everyone else pays only the adds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropStats {
    /// Number of [`PropagationScratch::propagate_from`] calls.
    pub passes: u64,
    /// Total tuple-IDs copied across edges (pre-deduplication — the work
    /// the fill pass actually does).
    pub ids_propagated: u64,
    /// Passes served entirely from retained buffer capacity (no buffer had
    /// to grow): the steady-state, allocation-free case.
    pub capacity_hits: u64,
}

impl PropStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: PropStats) {
        self.passes += other.passes;
        self.ids_propagated += other.ids_propagated;
        self.capacity_hits += other.capacity_hits;
    }
}

/// Reusable buffers for allocation-free tuple-ID propagation.
///
/// [`PropagationScratch::propagate_from`] builds the §4 propagated
/// annotation as one CSR structure in two passes — a count pass into an
/// offsets array, then a fill pass into a single flat `u32` buffer — and
/// sorts + deduplicates each row's range in place. All three buffers are
/// retained between calls, so steady-state propagation performs **zero**
/// heap allocation; the per-worker scratch in the parallel literal search
/// lives exactly as long as its worker.
#[derive(Debug, Clone, Default)]
pub struct PropagationScratch {
    /// Range boundaries (`num_rows + 1` entries after a build).
    offsets: Vec<u32>,
    /// Flat id buffer, row-major.
    ids: Vec<u32>,
    /// Count-pass accumulator / fill-pass cursors.
    cursors: Vec<u32>,
    /// Pass/volume/reuse counters since the last [`Self::take_stats`].
    stats: PropStats,
}

impl PropagationScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Propagates `from` (an annotation of relation `edge.from`) across
    /// `edge` into this scratch's CSR buffers (Definition 2: `idset(u) =
    /// ⋃ idset(t)` over joinable `t`; null join values never match). The
    /// result is available through [`PropagationScratch::view`] until the
    /// next call.
    pub fn propagate_from<S: TupleSource<Error = Infallible>>(
        &mut self,
        src: &S,
        from: AnnView<'_>,
        edge: &JoinEdge,
    ) {
        let Ok(()) = self.try_propagate_from(src, from, edge);
    }

    /// [`propagate_from`](Self::propagate_from) over any source: reads
    /// `edge.from`'s join column once and looks up `edge.to`'s key column.
    pub fn try_propagate_from<S: TupleSource>(
        &mut self,
        src: &S,
        from: AnnView<'_>,
        edge: &JoinEdge,
    ) -> Result<(), S::Error> {
        let from_col = src.column(edge.from, edge.from_attr)?;
        let from_col: &[Value] = &from_col;
        let index = src.keys(edge.to, edge.to_attr)?;
        let to_len = src.num_rows(edge.to);
        debug_assert_eq!(from.num_rows(), from_col.len());
        let self_join = edge.from == edge.to && edge.from_attr == edge.to_attr;
        let caps = (self.offsets.capacity(), self.ids.capacity(), self.cursors.capacity());

        // Pass 1: count ids landing on every receiving tuple.
        self.cursors.clear();
        self.cursors.resize(to_len, 0);
        for (i, v) in from_col.iter().enumerate() {
            let set_len = from.ids(i).len() as u32;
            if set_len == 0 {
                continue;
            }
            let Value::Key(key) = *v else { continue };
            let cursors = &mut self.cursors;
            index.for_each_row(key, |to_row| {
                // Self-join edges must not let a tuple inherit its own ids
                // through a different column of the same row.
                if !(self_join && to_row.0 as usize == i) {
                    cursors[to_row.0 as usize] += set_len;
                }
            });
        }

        // Prefix sums: offsets[r] = start of row r's range.
        self.offsets.clear();
        self.offsets.reserve(to_len + 1);
        let mut total = 0u32;
        self.offsets.push(0);
        for r in 0..to_len {
            total += self.cursors[r];
            self.offsets.push(total);
        }

        // Pass 2: fill, reusing `cursors` as per-row write positions.
        self.cursors.copy_from_slice(&self.offsets[..to_len]);
        self.ids.clear();
        self.ids.resize(total as usize, 0);
        for (i, v) in from_col.iter().enumerate() {
            let set = from.ids(i);
            if set.is_empty() {
                continue;
            }
            let Value::Key(key) = *v else { continue };
            let (ids, cursors) = (&mut self.ids, &mut self.cursors);
            index.for_each_row(key, |to_row| {
                let r = to_row.0 as usize;
                if !(self_join && r == i) {
                    let cur = cursors[r] as usize;
                    ids[cur..cur + set.len()].copy_from_slice(set);
                    cursors[r] += set.len() as u32;
                }
            });
        }

        // Pass 3: sort + dedup each row's range in place, compacting the
        // flat buffer front-to-back (writes never overtake unread data).
        let mut write = 0usize;
        let mut read_start = 0usize;
        for r in 0..to_len {
            let read_end = self.offsets[r + 1] as usize;
            self.offsets[r] = write as u32;
            if read_start < read_end {
                self.ids[read_start..read_end].sort_unstable();
                let mut prev = u32::MAX;
                for i in read_start..read_end {
                    let v = self.ids[i];
                    if v != prev || (i == read_start && v == u32::MAX) {
                        self.ids[write] = v;
                        write += 1;
                        prev = v;
                    }
                }
            }
            read_start = read_end;
        }
        self.offsets[to_len] = write as u32;
        self.ids.truncate(write);

        self.stats.passes += 1;
        self.stats.ids_propagated += total as u64;
        if caps == (self.offsets.capacity(), self.ids.capacity(), self.cursors.capacity()) {
            self.stats.capacity_hits += 1;
        }
        Ok(())
    }

    /// The result of the last [`PropagationScratch::propagate_from`].
    pub fn view(&self) -> AnnView<'_> {
        AnnView::Csr { offsets: &self.offsets, ids: &self.ids }
    }

    /// Materialises the current CSR contents as an owned [`Annotation`].
    pub fn to_annotation(&self) -> Annotation {
        Annotation::from_csr(&self.offsets, &self.ids)
    }

    /// Counters accumulated since the last [`Self::take_stats`].
    pub fn stats(&self) -> PropStats {
        self.stats
    }

    /// Returns and resets the accumulated counters.
    pub fn take_stats(&mut self) -> PropStats {
        std::mem::take(&mut self.stats)
    }
}

/// Two [`PropagationScratch`]es ping-ponged across the edges of a multi-edge
/// prop-path, so a whole path is propagated with zero steady-state heap
/// allocation (the final [`Annotation`] materialisation is the only alloc,
/// and only because the caller stores the result). Produces bit-identical
/// results to chaining [`propagate`], which runs the same CSR passes.
#[derive(Debug, Clone, Default)]
pub struct PathScratch {
    ping: PropagationScratch,
    pong: PropagationScratch,
}

impl PathScratch {
    /// An empty pair; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Propagates `from` (an annotation of `edges[0].from`) across every
    /// edge of the path in order, returning the annotation of the final
    /// relation. `edges` must be non-empty and chained
    /// (`edges[i].to == edges[i + 1].from`).
    pub fn propagate_path<S: TupleSource>(
        &mut self,
        src: &S,
        from: AnnView<'_>,
        edges: &[JoinEdge],
    ) -> Result<Annotation, S::Error> {
        assert!(!edges.is_empty(), "prop-path must have at least one edge");
        debug_assert!(edges.windows(2).all(|w| w[0].to == w[1].from), "path edges must chain");
        self.ping.try_propagate_from(src, from, &edges[0])?;
        let mut in_ping = true;
        for edge in &edges[1..] {
            if in_ping {
                self.pong.try_propagate_from(src, self.ping.view(), edge)?;
            } else {
                self.ping.try_propagate_from(src, self.pong.view(), edge)?;
            }
            in_ping = !in_ping;
        }
        Ok(if in_ping { self.ping.to_annotation() } else { self.pong.to_annotation() })
    }

    /// Returns and resets the counters of both halves, combined.
    pub fn take_stats(&mut self) -> PropStats {
        let mut s = self.ping.take_stats();
        s.merge(self.pong.take_stats());
        s
    }
}

/// Propagates `from_ann` (on relation `edge.from`) across `edge`, producing
/// the annotation of `edge.to` (Definition 2: `idset(u) = ⋃ idset(t)` over
/// joinable `t`). Null join values never match.
///
/// Convenience wrapper over [`PropagationScratch`] for callers that want an
/// owned [`Annotation`]; hot paths should hold a scratch and use
/// [`PropagationScratch::propagate_from`] directly to avoid reallocating.
pub fn propagate<S: TupleSource<Error = Infallible>>(
    src: &S,
    from_ann: &Annotation,
    edge: &JoinEdge,
) -> Annotation {
    let Ok(ann) = try_propagate(src, from_ann, edge);
    ann
}

/// [`propagate`] over any source, returning its read error.
pub fn try_propagate<S: TupleSource>(
    src: &S,
    from_ann: &Annotation,
    edge: &JoinEdge,
) -> Result<Annotation, S::Error> {
    let mut scratch = PropagationScratch::new();
    scratch.try_propagate_from(src, from_ann.view(), edge)?;
    Ok(scratch.to_annotation())
}

/// Per-target aggregate accumulators for aggregation literals (§5.1: "by
/// scanning the tuple IDs associated with tuples in R ... calculate the
/// count, sum, and average").
#[derive(Debug, Clone, Copy, Default)]
pub struct AggStats {
    /// Number of joinable tuples (basis of `count`).
    pub rows: u32,
    /// Number of joinable tuples with a non-null value on the aggregated
    /// attribute (basis of `avg`).
    pub num_rows: u32,
    /// Sum of the aggregated attribute over joinable tuples.
    pub sum: f64,
}

impl AggStats {
    /// The aggregate value under `op`, or `None` when undefined (no joinable
    /// tuple, or no non-null value for sum/avg).
    pub fn value(&self, op: AggOp) -> Option<f64> {
        match op {
            AggOp::Count => (self.rows > 0).then_some(self.rows as f64),
            AggOp::Sum => (self.num_rows > 0).then_some(self.sum),
            AggOp::Avg => (self.num_rows > 0).then_some(self.sum / self.num_rows as f64),
        }
    }
}

/// Computes per-target aggregate stats over relation `rel` given its
/// annotation. `attr` is the aggregated numerical column (`None` for pure
/// `count`). Only IDs in `targets` accumulate. Indexed by target row.
pub fn aggregate<'a, S: TupleSource<Error = Infallible>>(
    src: &S,
    rel: RelId,
    attr: Option<AttrId>,
    ann: impl Into<AnnView<'a>>,
    targets: &TargetSet,
) -> Vec<AggStats> {
    let Ok(stats) = try_aggregate(src, rel, attr, ann.into(), targets);
    stats
}

/// [`aggregate`] over any source. Rows accumulate in ascending order, so
/// float sums are bit-identical whatever the source.
fn try_aggregate<S: TupleSource>(
    src: &S,
    rel: RelId,
    attr: Option<AttrId>,
    ann: AnnView<'_>,
    targets: &TargetSet,
) -> Result<Vec<AggStats>, S::Error> {
    let column = attr.map(|a| src.column(rel, a)).transpose()?;
    let mut acc = vec![AggStats::default(); targets.capacity()];
    for i in 0..ann.num_rows() {
        let set = ann.ids(i);
        if set.is_empty() {
            continue;
        }
        let num = column.as_ref().and_then(|c| c[i].as_num());
        for &id in set {
            if !targets.contains(id) {
                continue;
            }
            let s = &mut acc[id as usize];
            s.rows += 1;
            if let Some(x) = num {
                s.num_rows += 1;
                s.sum += x;
            }
        }
    }
    Ok(acc)
}

/// The evolving state of one clause: surviving targets plus the annotation
/// of every active relation. Used both while *building* a clause
/// (Algorithm 2) and while *evaluating* one on unseen tuples (§5.3), over
/// any [`TupleSource`].
#[derive(Debug)]
pub struct ClauseState<'a, S: TupleSource = Database> {
    /// The database being classified.
    pub db: &'a S,
    /// Target tuples satisfying the clause so far.
    pub targets: TargetSet,
    /// `annotations[rel]` is `Some` iff `rel` is active.
    pub annotations: Vec<Option<Annotation>>,
    /// Positivity flags used only to maintain [`TargetSet`] counts.
    is_pos: &'a [bool],
    target_rel: RelId,
    /// Unique id of this state, keying its entries in the count store.
    state_id: u64,
    /// `epochs[rel]` counts how many literals have *constrained* `rel`
    /// (constraining clears idsets, invalidating cached statistics sourced
    /// from that relation; mere target restriction does not).
    epochs: Vec<u32>,
}

impl<S: TupleSource> Clone for ClauseState<'_, S> {
    /// Clones get a fresh `state_id`: the copy diverges from the original,
    /// so they must not share count-store entries keyed by state.
    fn clone(&self) -> Self {
        ClauseState {
            db: self.db,
            targets: self.targets.clone(),
            annotations: self.annotations.clone(),
            is_pos: self.is_pos,
            target_rel: self.target_rel,
            state_id: crate::stats::NEXT_STATE_ID.fetch_add(1, atomic::Ordering::Relaxed),
            epochs: self.epochs.clone(),
        }
    }
}

impl<'a> ClauseState<'a> {
    /// A fresh state: only the target relation is active, annotated with the
    /// identity over `initial` targets.
    pub fn new(db: &'a Database, is_pos: &'a [bool], initial: TargetSet) -> Self {
        ClauseState::over(db, &db.schema, is_pos, initial)
    }
}

impl<'a, S: TupleSource> ClauseState<'a, S> {
    /// [`new`](ClauseState::new) over any source laid out as `schema`.
    pub fn over(
        src: &'a S,
        schema: &DatabaseSchema,
        is_pos: &'a [bool],
        initial: TargetSet,
    ) -> Self {
        let target_rel = schema.target().expect("database must have a target relation");
        let num_relations = schema.num_relations();
        let mut annotations: Vec<Option<Annotation>> = (0..num_relations).map(|_| None).collect();
        annotations[target_rel.0] = Some(Annotation::identity(src.num_rows(target_rel), &initial));
        ClauseState {
            db: src,
            targets: initial,
            annotations,
            is_pos,
            target_rel,
            state_id: crate::stats::NEXT_STATE_ID.fetch_add(1, atomic::Ordering::Relaxed),
            epochs: vec![0; num_relations],
        }
    }

    /// The target relation id.
    pub fn target_rel(&self) -> RelId {
        self.target_rel
    }

    /// This state's unique id (count-store keying; fresh per clause and
    /// per clone).
    pub fn state_id(&self) -> u64 {
        self.state_id
    }

    /// How many literals have constrained `rel` so far (count-store epoch).
    pub fn epoch(&self, rel: RelId) -> u32 {
        self.epochs[rel.0]
    }

    /// Ids of all active relations, ascending, without allocating.
    pub fn active_relations(&self) -> impl Iterator<Item = RelId> + '_ {
        self.annotations.iter().enumerate().filter(|(_, a)| a.is_some()).map(|(i, _)| RelId(i))
    }

    /// The annotation of `rel`, when active.
    pub fn annotation(&self, rel: RelId) -> Option<&Annotation> {
        self.annotations[rel.0].as_ref()
    }

    /// The current annotation of `rel`, which callers guarantee is active
    /// (Algorithm 3 only propagates from, and constrains, active relations).
    fn active(&self, rel: RelId) -> &Annotation {
        self.annotations[rel.0].as_ref().expect("literal reads an inactive relation")
    }

    /// Appends `lit` to the clause: eliminates tuples/targets not satisfying
    /// it, refreshes every active annotation, and marks the constrained
    /// relation active (Algorithm 2's inner update). Prop-paths propagate
    /// through the caller-owned `path` buffers; a read error from the source
    /// leaves the state unchanged.
    pub fn try_apply_literal(
        &mut self,
        lit: &ComplexLiteral,
        stamp: &mut Stamp,
        path: &mut PathScratch,
    ) -> Result<(), S::Error> {
        let mut ann = match lit.path.first() {
            None => self.active(lit.constraint.rel).clone(),
            Some(edge) => path.propagate_path(self.db, self.active(edge.from).view(), &lit.path)?,
        };
        let surviving = constrain(self.db, &lit.constraint, &mut ann, &self.targets, stamp)?;
        // Shrink the surviving-target set.
        self.targets.retain(|id| surviving.is_marked(id));
        // Update IDs on every active relation.
        for slot in self.annotations.iter_mut().flatten() {
            slot.restrict_to(&self.targets);
        }
        ann.restrict_to(&self.targets);
        self.annotations[lit.constraint.rel.0] = Some(ann);
        // The constrained relation's annotation was rebuilt from a literal,
        // not merely restricted: cached statistics sourced there are stale.
        self.epochs[lit.constraint.rel.0] += 1;
        Ok(())
    }
}

impl<S: TupleSource<Error = Infallible>> ClauseState<'_, S> {
    /// Propagates the current annotation of active relation `edge.from`
    /// across `edge` (panics if `edge.from` is inactive — callers only
    /// propagate from active relations, per Algorithm 3).
    pub fn propagate_edge(&self, edge: &JoinEdge) -> Annotation {
        propagate(self.db, self.active(edge.from), edge)
    }

    /// [`try_apply_literal`](Self::try_apply_literal) with fresh path
    /// buffers, for in-memory sources.
    pub fn apply_literal(&mut self, lit: &ComplexLiteral, stamp: &mut Stamp) {
        let Ok(()) = self.try_apply_literal(lit, stamp, &mut PathScratch::new());
    }
}

/// Applies `constraint` to `ann` in place: for categorical/numerical
/// constraints, tuples failing the test are eliminated (their idsets
/// cleared); for aggregation constraints tuples are kept but targets whose
/// aggregate fails are dropped. Returns (via `stamp`) the set of target ids
/// that still satisfy the clause — callers filter on `stamp.is_marked`.
/// Reads the constrained column once, in one scan (none for pure counts).
fn constrain<'s, S: TupleSource>(
    src: &S,
    constraint: &Constraint,
    ann: &mut Annotation,
    targets: &TargetSet,
    stamp: &'s mut Stamp,
) -> Result<&'s Stamp, S::Error> {
    match &constraint.kind {
        ConstraintKind::CatEq { attr, value } => {
            let col = src.column(constraint.rel, *attr)?;
            for (set, v) in ann.idsets.iter_mut().zip(col.iter()) {
                if *v != Value::Cat(*value) {
                    set.clear();
                }
            }
            Ok(mark_covered(ann, targets, stamp))
        }
        ConstraintKind::Num { attr, op, threshold } => {
            let col = src.column(constraint.rel, *attr)?;
            for (set, v) in ann.idsets.iter_mut().zip(col.iter()) {
                if !matches!(v, Value::Num(x) if op.test(*x, *threshold)) {
                    set.clear();
                }
            }
            Ok(mark_covered(ann, targets, stamp))
        }
        ConstraintKind::Agg { agg, attr, op, threshold } => {
            let stats = try_aggregate(src, constraint.rel, *attr, ann.view(), targets)?;
            stamp.reset();
            for (id, s) in stats.iter().enumerate() {
                if let Some(v) = s.value(*agg) {
                    if op.test(v, *threshold) {
                        stamp.mark(id as u32);
                    }
                }
            }
            Ok(stamp)
        }
    }
}

fn mark_covered<'s>(ann: &Annotation, targets: &TargetSet, stamp: &'s mut Stamp) -> &'s Stamp {
    stamp.reset();
    for set in &ann.idsets {
        for id in set.iter() {
            if targets.contains(id) {
                stamp.mark(id);
            }
        }
    }
    stamp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::CmpOp;
    use crossmine_relational::{
        AttrId, AttrType, Attribute, ClassLabel, DatabaseSchema, JoinGraph, RelationSchema,
    };

    /// The Fig. 2 / Fig. 4 Loan–Account database.
    fn fig4() -> (Database, Vec<bool>) {
        let mut schema = DatabaseSchema::new();
        let mut loan = RelationSchema::new("Loan");
        loan.add_attribute(Attribute::new("loan_id", AttrType::PrimaryKey)).unwrap();
        loan.add_attribute(Attribute::new(
            "account_id",
            AttrType::ForeignKey { target: "Account".into() },
        ))
        .unwrap();
        loan.add_attribute(Attribute::new("amount", AttrType::Numerical)).unwrap();
        let mut account = RelationSchema::new("Account");
        account.add_attribute(Attribute::new("account_id", AttrType::PrimaryKey)).unwrap();
        let mut f = Attribute::new("frequency", AttrType::Categorical);
        let monthly = f.intern("monthly");
        assert_eq!(monthly, 0);
        f.intern("weekly");
        account.add_attribute(f).unwrap();
        let t = schema.add_relation(loan).unwrap();
        let a = schema.add_relation(account).unwrap();
        schema.set_target(t);
        let mut db = Database::new(schema).unwrap();
        for (lid, aid, amt, pos) in [
            (1u64, 124u64, 1000.0, true),
            (2, 124, 4000.0, true),
            (3, 108, 10000.0, false),
            (4, 45, 12000.0, false),
            (5, 45, 2000.0, true),
        ] {
            db.push_row(t, vec![Value::Key(lid), Value::Key(aid), Value::Num(amt)]).unwrap();
            db.push_label(if pos { ClassLabel::POS } else { ClassLabel::NEG });
        }
        for (aid, fr) in [(124u64, 0u32), (108, 1), (45, 0), (67, 1)] {
            db.push_row(a, vec![Value::Key(aid), Value::Cat(fr)]).unwrap();
        }
        let is_pos = vec![true, true, false, false, true];
        (db, is_pos)
    }

    fn loan_account_edge(db: &Database) -> JoinEdge {
        let loan = db.schema.rel_id("Loan").unwrap();
        let account = db.schema.rel_id("Account").unwrap();
        *JoinGraph::build(&db.schema)
            .edges()
            .iter()
            .find(|e| e.from == loan && e.to == account)
            .unwrap()
    }

    #[test]
    fn propagation_matches_fig4() {
        let (db, is_pos) = fig4();
        let targets = TargetSet::all(&is_pos);
        let state = ClauseState::new(&db, &is_pos, targets);
        let ann = state.propagate_edge(&loan_account_edge(&db));
        // Fig. 4: account 124 <- {1,2}; 108 <- {3}; 45 <- {4,5}; 67 <- {}.
        assert_eq!(ann.idsets[0].as_slice(), &[0, 1]);
        assert_eq!(ann.idsets[1].as_slice(), &[2]);
        assert_eq!(ann.idsets[2].as_slice(), &[3, 4]);
        assert!(ann.idsets[3].is_empty());
        assert_eq!(ann.total_ids(), 5);
        assert_eq!(ann.joinable_tuples(), 3);
        assert!((ann.avg_fanout() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn transitive_propagation_lemma2() {
        // Propagate Loan -> Account and back Account -> Loan: each loan ends
        // up with the ids of all loans sharing its account.
        let (db, is_pos) = fig4();
        let targets = TargetSet::all(&is_pos);
        let state = ClauseState::new(&db, &is_pos, targets);
        let fwd = loan_account_edge(&db);
        let ann = state.propagate_edge(&fwd);
        let back = propagate(&db, &ann, &fwd.reversed());
        assert_eq!(back.idsets[0].as_slice(), &[0, 1]); // loan 1 shares acct 124 with loan 2
        assert_eq!(back.idsets[2].as_slice(), &[2]); // loan 3 alone on acct 108
        assert_eq!(back.idsets[3].as_slice(), &[3, 4]);
    }

    #[test]
    fn apply_categorical_literal_matches_paper_example() {
        // "Account.frequency = monthly" satisfied by loans {1,2,4,5} (§3.3).
        let (db, is_pos) = fig4();
        let mut state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
        let account = db.schema.rel_id("Account").unwrap();
        let lit = ComplexLiteral {
            path: vec![loan_account_edge(&db)],
            constraint: Constraint {
                rel: account,
                kind: ConstraintKind::CatEq { attr: AttrId(1), value: 0 },
            },
        };
        let mut stamp = Stamp::new(5);
        state.apply_literal(&lit, &mut stamp);
        let rows: Vec<u32> = state.targets.iter().map(|r| r.0).collect();
        assert_eq!(rows, vec![0, 1, 3, 4]);
        assert_eq!((state.targets.pos(), state.targets.neg()), (3, 1));
        // Account became active, its eliminated tuples cleared.
        let ann = state.annotation(account).unwrap();
        assert_eq!(ann.idsets[0].as_slice(), &[0, 1]);
        assert!(ann.idsets[1].is_empty()); // weekly account eliminated
        assert_eq!(ann.idsets[2].as_slice(), &[3, 4]);
        // Target annotation restricted to survivors.
        let t_ann = state.annotation(state.target_rel()).unwrap();
        assert!(t_ann.idsets[2].is_empty());
        assert_eq!(t_ann.idsets[0].as_slice(), &[0]);
    }

    #[test]
    fn apply_numerical_literal_on_target() {
        let (db, is_pos) = fig4();
        let mut state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
        let loan = state.target_rel();
        let lit = ComplexLiteral::local(Constraint {
            rel: loan,
            kind: ConstraintKind::Num { attr: AttrId(2), op: CmpOp::Le, threshold: 4000.0 },
        });
        let mut stamp = Stamp::new(5);
        state.apply_literal(&lit, &mut stamp);
        // Loans with amount <= 4000: {1,2,5}.
        let rows: Vec<u32> = state.targets.iter().map(|r| r.0).collect();
        assert_eq!(rows, vec![0, 1, 4]);
    }

    #[test]
    fn aggregation_stats_and_literal() {
        // count of loans per account: 124 -> 2, 108 -> 1, 45 -> 2.
        // Literal on Loan aggregated from Account's perspective is awkward;
        // instead aggregate loans joinable per *target* after a round trip:
        // each target's count = #loans sharing its account.
        let (db, is_pos) = fig4();
        let targets = TargetSet::all(&is_pos);
        let state = ClauseState::new(&db, &is_pos, targets.clone());
        let fwd = loan_account_edge(&db);
        let ann = state.propagate_edge(&fwd);
        let back = propagate(&db, &ann, &fwd.reversed());
        let loan = state.target_rel();
        let stats = aggregate(&db, loan, Some(AttrId(2)), &back, &targets);
        assert_eq!(stats[0].rows, 2); // loan 1: siblings {1,2}
        assert_eq!(stats[2].rows, 1);
        assert!((stats[0].value(AggOp::Sum).unwrap() - 5000.0).abs() < 1e-9);
        assert!((stats[0].value(AggOp::Avg).unwrap() - 2500.0).abs() < 1e-9);
        assert_eq!(stats[0].value(AggOp::Count), Some(2.0));

        // Aggregation literal: targets whose sibling-loan amounts sum >= 10000.
        let mut state2 = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
        let lit = ComplexLiteral {
            path: vec![fwd, fwd.reversed()],
            constraint: Constraint {
                rel: loan,
                kind: ConstraintKind::Agg {
                    agg: AggOp::Sum,
                    attr: Some(AttrId(2)),
                    op: CmpOp::Ge,
                    threshold: 10000.0,
                },
            },
        };
        let mut stamp = Stamp::new(5);
        state2.apply_literal(&lit, &mut stamp);
        // Sums: loans 1,2 -> 5000; loan 3 -> 10000; loans 4,5 -> 14000.
        let rows: Vec<u32> = state2.targets.iter().map(|r| r.0).collect();
        assert_eq!(rows, vec![2, 3, 4]);
    }

    #[test]
    fn agg_stats_undefined_cases() {
        let s = AggStats::default();
        assert_eq!(s.value(AggOp::Count), None);
        assert_eq!(s.value(AggOp::Sum), None);
        assert_eq!(s.value(AggOp::Avg), None);
        let joined_no_num = AggStats { rows: 3, num_rows: 0, sum: 0.0 };
        assert_eq!(joined_no_num.value(AggOp::Count), Some(3.0));
        assert_eq!(joined_no_num.value(AggOp::Avg), None);
    }

    #[test]
    fn initial_state_restricted_targets() {
        let (db, is_pos) = fig4();
        let initial = TargetSet::from_rows(&is_pos, [Row(0), Row(3)]);
        let state = ClauseState::new(&db, &is_pos, initial);
        let ann = state.propagate_edge(&loan_account_edge(&db));
        assert_eq!(ann.idsets[0].as_slice(), &[0]); // only loan 1 remains on acct 124
        assert_eq!(ann.idsets[2].as_slice(), &[3]);
        assert_eq!(state.active_relations().collect::<Vec<_>>(), vec![state.target_rel()]);
    }

    #[test]
    fn apply_literal_scratch_matches_allocating_path() {
        // Both the 1-edge categorical literal and the 2-edge aggregation
        // literal must leave identical state whichever apply variant ran.
        let (db, is_pos) = fig4();
        let account = db.schema.rel_id("Account").unwrap();
        let fwd = loan_account_edge(&db);
        let lits = [
            ComplexLiteral {
                path: vec![fwd],
                constraint: Constraint {
                    rel: account,
                    kind: ConstraintKind::CatEq { attr: AttrId(1), value: 0 },
                },
            },
            ComplexLiteral {
                path: vec![fwd, fwd.reversed()],
                constraint: Constraint {
                    rel: db.schema.rel_id("Loan").unwrap(),
                    kind: ConstraintKind::Agg {
                        agg: AggOp::Count,
                        attr: None,
                        op: CmpOp::Ge,
                        threshold: 2.0,
                    },
                },
            },
        ];
        let mut stamp = Stamp::new(5);
        let mut path = PathScratch::new();
        for lit in &lits {
            let mut a = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
            let mut b = a.clone();
            a.apply_literal(lit, &mut stamp);
            let Ok(()) = b.try_apply_literal(lit, &mut stamp, &mut path);
            assert_eq!(a.targets, b.targets);
            for (x, y) in a.annotations.iter().zip(&b.annotations) {
                match (x, y) {
                    (Some(x), Some(y)) => assert_eq!(x.idsets, y.idsets),
                    (None, None) => {}
                    _ => panic!("active-relation sets diverged"),
                }
            }
        }
    }

    #[test]
    fn prop_stats_count_passes_volume_and_reuse() {
        let (db, is_pos) = fig4();
        let state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
        let edge = loan_account_edge(&db);
        let from = state.annotation(state.target_rel()).unwrap().view();

        let mut scratch = PropagationScratch::new();
        scratch.propagate_from(&db, from, &edge);
        let first = scratch.stats();
        assert_eq!(first.passes, 1);
        // Fig. 4 propagates 5 loan ids onto accounts.
        assert_eq!(first.ids_propagated, 5);
        // Fresh buffers had to grow: not a capacity hit.
        assert_eq!(first.capacity_hits, 0);

        // Same propagation again: buffers are warm, so the pass is served
        // entirely from retained capacity.
        scratch.propagate_from(&db, from, &edge);
        let both = scratch.take_stats();
        assert_eq!(both, PropStats { passes: 2, ids_propagated: 10, capacity_hits: 1 });
        // take_stats resets.
        assert_eq!(scratch.stats(), PropStats::default());

        // PathScratch merges both halves across a 2-edge path.
        let mut path = PathScratch::new();
        let _ = path.propagate_path(&db, from, &[edge, edge.reversed()]);
        let merged = path.take_stats();
        assert_eq!(merged.passes, 2);
        // 5 copies forward; back, each account's set lands on every loan
        // sharing the account: 2·2 + 1·1 + 2·2 = 9 pre-dedup copies.
        assert_eq!(merged.ids_propagated, 5 + 9);
        assert_eq!(path.take_stats(), PropStats::default());
    }

    #[test]
    fn null_foreign_keys_do_not_propagate() {
        let (mut db, mut is_pos) = fig4();
        let loan = db.schema.rel_id("Loan").unwrap();
        db.push_row(loan, vec![Value::Key(6), Value::Null, Value::Num(1.0)]).unwrap();
        db.push_label(ClassLabel::POS);
        is_pos.push(true);
        let state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
        let ann = state.propagate_edge(&loan_account_edge(&db));
        assert_eq!(ann.total_ids(), 5); // the null-fk loan contributed nothing
    }
}
