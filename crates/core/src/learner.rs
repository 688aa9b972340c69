//! Clause generation: Algorithms 1 (Find-Clauses), 2 (Find-A-Clause) and
//! 3 (Find-Best-Literal), §5.2, plus the §6 sampling hook.
//!
//! Find-Best-Literal runs as an *enumerate-then-evaluate* pipeline: the
//! serial scan order of Algorithm 3 is first flattened into independent
//! search units — `(active relation)`, `(active relation, edge)` and
//! `(active relation, edge, edge2)` for look-one-ahead — which a
//! [`std::thread::scope`] worker pool then evaluates, each worker owning one
//! [`Stamp`] and two [`PropagationScratch`] buffers ([`SearchScratch`]).
//! Workers reduce candidates under a total order (gain descending,
//! prop-path length ascending, unit enumeration index ascending) that is
//! exactly the serial loop's first-wins tie-breaking, so any
//! [`CrossMineParams::num_threads`] setting learns byte-identical clauses.
//!
//! One walker scores every unit, whatever its counts come from: a
//! count-store hit, a fresh entry propagated from the key's superset
//! source and queued for insert, or — with the store off
//! (`stats_cache_budget_bytes == 0`) — the live propagation scored in
//! place. Each source supplies the annotation look-one-ahead propagates
//! from and the scorer, and the §4.3 fan-out test is decided once per unit
//! as its source is resolved.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crossmine_relational::{ClassLabel, Database, JoinEdge, JoinGraph, JoinKind, RelId, Row};

use crate::clause::Clause;
use crate::idset::{Stamp, TargetSet};
use crate::literal::ComplexLiteral;
use crate::params::CrossMineParams;
use crate::propagation::{AnnView, ClauseState, PropagationScratch};
use crate::sampling::{safe_negative_estimate, sample_negatives};
use crate::search::{best_constraint_cached, best_constraint_in, ScoredConstraint};
use crate::stats::{fanout_exceeds, CachedEntry, PathKey, SourceSig};

/// A candidate complex literal with its score.
#[derive(Debug, Clone)]
pub struct ScoredLiteral {
    /// The literal (prop-path + constraint).
    pub literal: ComplexLiteral,
    /// Foil gain and coverage of the constraint.
    pub score: ScoredConstraint,
}

/// Reusable per-worker state for the literal search: one [`Stamp`] plus two
/// propagation scratches (first hop, look-one-ahead hop) per worker. Create
/// it once per learning run and pass it to every
/// [`ClauseLearner::find_a_clause`] / [`ClauseLearner::find_best_literal`]
/// call so the steady-state search performs no per-call heap allocation.
pub struct SearchScratch {
    workers: Vec<WorkerScratch>,
}

struct WorkerScratch {
    stamp: Stamp,
    hop1: PropagationScratch,
    hop2: PropagationScratch,
}

impl SearchScratch {
    /// Scratch for `num_workers` workers (floored at one) searching a
    /// database with `num_targets` target tuples.
    pub fn new(num_targets: usize, num_workers: usize) -> Self {
        let workers = (0..num_workers.max(1))
            .map(|_| WorkerScratch {
                stamp: Stamp::new(num_targets),
                hop1: PropagationScratch::new(),
                hop2: PropagationScratch::new(),
            })
            .collect();
        SearchScratch { workers }
    }

    /// Scratch sized for `db` with the worker count `params` resolves to.
    pub fn for_params(db: &Database, params: &CrossMineParams) -> Self {
        SearchScratch::new(db.num_targets(), params.resolved_threads())
    }

    /// Number of workers this scratch supports.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// A stamp for non-search bookkeeping (applying literals, coverage).
    pub fn stamp_mut(&mut self) -> &mut Stamp {
        &mut self.workers[0].stamp
    }
}

/// One search unit: the prop-path it scores (empty for a constraint on the
/// active relation itself, one edge, or two for look-one-ahead), its serial
/// enumeration index for deterministic reduction, and, with the count store
/// on, its lookup resolved in the round's single locked pass.
struct Unit {
    index: usize,
    path: Vec<JoinEdge>,
    /// The relation the unit's constraint lands on.
    rel: RelId,
    /// Whether aggregation literals are scored: not when the params turn
    /// them off, nor for a target tuple aggregated over itself.
    aggs: bool,
    prep: Option<Prepared>,
}

/// One independent group of search units: an active relation's local
/// constraint scan, or one outgoing edge together with its look-one-ahead
/// extensions, which propagate from the head's annotation (computed once
/// per group, exactly as in the serial loop).
struct UnitGroup {
    /// The active relation the group starts from.
    source: RelId,
    /// The local unit, or the first-hop edge unit.
    head: Unit,
    /// Look-one-ahead second hops (edge groups only).
    lookahead: Vec<Unit>,
}

/// A scored literal tagged with its unit index for the total order.
struct Candidate {
    unit: usize,
    literal: ComplexLiteral,
    score: ScoredConstraint,
}

/// One count-store lookup: the canonical key plus the entry, when cached.
struct Prepared {
    key: PathKey,
    entry: Option<Arc<CachedEntry>>,
}

/// A freshly computed entry awaiting insertion, tagged with its unit index:
/// workers collect these locally and the round inserts them in unit order,
/// so store contents and LRU eviction are scheduling-independent.
struct PendingInsert {
    unit: usize,
    key: PathKey,
    entry: Arc<CachedEntry>,
}

/// Where one unit's annotation and counts come from.
enum ScoreSource<'a> {
    /// The live propagation, scored in place (count store off).
    Live(AnnView<'a>),
    /// A count-store entry: a hit, or a fresh one queued for insert.
    Entry(Arc<CachedEntry>),
}

impl ScoreSource<'_> {
    /// The annotation look-one-ahead propagates from.
    fn view(&self) -> AnnView<'_> {
        match self {
            ScoreSource::Live(view) => *view,
            ScoreSource::Entry(entry) => entry.view(),
        }
    }

    /// The best constraint of `unit` under `learner`'s search context.
    fn score(
        &self,
        learner: &ClauseLearner<'_>,
        unit: &Unit,
        targets: &TargetSet,
        stamp: &mut Stamp,
    ) -> Option<ScoredConstraint> {
        let ClauseLearner { db, params, .. } = learner;
        let (rel, aggs) = (unit.rel, unit.aggs);
        match self {
            ScoreSource::Live(view) => {
                best_constraint_in(db, rel, *view, targets, stamp, params, aggs)
            }
            ScoreSource::Entry(entry) => {
                best_constraint_cached(db, rel, entry, targets, stamp, params, aggs)
            }
        }
    }
}

/// The deterministic reduction order: gain descending (`total_cmp`, exact),
/// then prop-path length ascending, then enumeration index ascending. This
/// reproduces the serial scan's "first candidate wins ties" exactly, so the
/// reduction result is independent of worker scheduling.
fn better_than(a: &Candidate, b: &Candidate) -> bool {
    match a.score.gain.total_cmp(&b.score.gain) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => match a.literal.path.len().cmp(&b.literal.path.len()) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a.unit < b.unit,
        },
    }
}

fn reduce(best: &mut Option<Candidate>, cand: Candidate) {
    if best.as_ref().is_none_or(|b| better_than(&cand, b)) {
        *best = Some(cand);
    }
}

/// Builds clauses for one positive class over one database.
pub struct ClauseLearner<'a> {
    db: &'a Database,
    graph: &'a JoinGraph,
    params: &'a CrossMineParams,
    /// `is_pos[t]` — whether target tuple `t` belongs to the positive class.
    is_pos: Vec<bool>,
    num_classes: usize,
    label: ClassLabel,
    /// Every target id, for building unfiltered count-store tables.
    all_targets: TargetSet,
    /// The full identity annotation of the target relation as flat CSR
    /// buffers (`offsets`, `ids`), the propagation source for
    /// [`SourceSig::Identity`] entries. Built only when the count store is
    /// enabled and the database has a target relation.
    identity: Option<(Vec<u32>, Vec<u32>)>,
}

impl<'a> ClauseLearner<'a> {
    /// Creates a learner treating `label` as the positive class (one-vs-rest,
    /// §5.3). `num_classes` feeds the Laplace accuracy estimate.
    pub fn new(
        db: &'a Database,
        graph: &'a JoinGraph,
        params: &'a CrossMineParams,
        label: ClassLabel,
        num_classes: usize,
    ) -> Self {
        let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == label).collect();
        let all_targets = TargetSet::all(&is_pos);
        let identity =
            (params.stats_cache_budget_bytes > 0).then(|| db.target().ok()).flatten().map(|t| {
                let n = db.relation(t).len() as u32;
                ((0..=n).collect::<Vec<u32>>(), (0..n).collect::<Vec<u32>>())
            });
        ClauseLearner { db, graph, params, is_pos, num_classes, label, all_targets, identity }
    }

    /// The positivity flags this learner uses.
    pub fn is_pos(&self) -> &[bool] {
        &self.is_pos
    }

    /// Algorithm 1: sequential covering over the training rows. Builds
    /// clauses until at most `min_pos_fraction` of the original positives
    /// remain uncovered (or no further clause clears `min_foil_gain`).
    pub fn find_clauses(&self, train_rows: &[Row]) -> Vec<Clause> {
        let obs = &self.params.obs;
        let _covering = obs.span("learner.sequential_covering");
        let mut remaining = TargetSet::from_rows(&self.is_pos, train_rows.iter().copied());
        let orig_pos = remaining.pos();
        let mut clauses = Vec::new();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        // One pool of per-worker buffers reused across every clause.
        let mut scratch = SearchScratch::for_params(self.db, self.params);

        while remaining.pos() as f64 > self.params.min_pos_fraction * orig_pos as f64
            && clauses.len() < self.params.max_clauses
        {
            let _clause = obs.span("learner.clause");
            // §6: down-sample negatives before building the clause.
            let full_neg = remaining.neg();
            let (build_set, sampled_neg) = if self.params.sampling {
                let _sampling = obs.span("learner.sampling");
                sample_negatives(&remaining, &self.is_pos, self.params, &mut rng)
            } else {
                (remaining.clone(), full_neg)
            };

            let Some((literals, covered)) = self.find_a_clause(build_set, &mut scratch) else {
                break;
            };
            let sup_pos = covered.pos();
            if sup_pos == 0 {
                break;
            }
            let sup_neg = if self.params.sampling && sampled_neg < full_neg {
                safe_negative_estimate(covered.neg(), sampled_neg, full_neg)
            } else {
                covered.neg() as f64
            };
            clauses.push(Clause::new(literals, self.label, sup_pos, sup_neg, self.num_classes));
            obs.add("learner.clauses_learned", 1);
            obs.add("learner.positives_covered", sup_pos as u64);
            // Remove the positive tuples the clause covers; negatives stay.
            for r in covered.iter() {
                if self.is_pos[r.0 as usize] {
                    remaining.remove(r.0, &self.is_pos);
                }
            }
        }
        clauses
    }

    /// Algorithm 2: grows one clause literal by literal until no literal
    /// clears `min_foil_gain` or the clause reaches `max_clause_length`.
    /// Returns the literals and the targets of `initial` that satisfy them.
    pub fn find_a_clause(
        &self,
        initial: TargetSet,
        scratch: &mut SearchScratch,
    ) -> Option<(Vec<ComplexLiteral>, TargetSet)> {
        let caching = self.params.stats_cache_budget_bytes > 0;
        let mut state = ClauseState::new(self.db, &self.is_pos, initial);
        let mut literals: Vec<ComplexLiteral> = Vec::new();
        while let Some(best) = self.find_best_literal(&state, scratch) {
            if best.score.gain < self.params.min_foil_gain {
                break;
            }
            let constrained = best.literal.constraint.rel;
            let old_epoch = state.epoch(constrained);
            state.apply_literal(&best.literal, scratch.stamp_mut());
            if caching {
                // The constrained relation's annotation was rebuilt, not
                // merely restricted: entries sourced from its old epoch can
                // no longer reproduce live counts. Everything else survives.
                self.params.stats.retire_source(state.state_id(), constrained, old_epoch);
            }
            literals.push(best.literal);
            if literals.len() >= self.params.max_clause_length {
                break;
            }
        }
        if caching {
            // The next clause gets a fresh state id (new covering set /
            // negative sample); identity-keyed entries carry over.
            self.params.stats.retire_state(state.state_id());
        }
        if literals.is_empty() {
            None
        } else {
            Some((literals, state.targets))
        }
    }

    /// Algorithm 3: scans (1) every active relation, (2) every relation
    /// joinable with an active one — propagating IDs across the edge — and
    /// (3) with look-one-ahead, every relation one more foreign key away.
    ///
    /// The scan is flattened into [`UnitGroup`]s and evaluated on up to
    /// `min(scratch.num_workers(), #groups)` scoped worker threads; with one
    /// worker everything runs inline on the calling thread. The result is
    /// identical either way (see [`better_than`]).
    pub fn find_best_literal(
        &self,
        state: &ClauseState<'_>,
        scratch: &mut SearchScratch,
    ) -> Option<ScoredLiteral> {
        let obs = &self.params.obs;
        let _search = obs.span("search.find_best_literal");
        let mut groups = self.enumerate_units(state);
        obs.add("search.unit_groups", groups.len() as u64);
        let num_workers = scratch.workers.len().min(groups.len()).max(1);
        let budget = self.params.stats_cache_budget_bytes;
        if budget > 0 {
            self.prepare(state, &mut groups);
        }

        let next = AtomicUsize::new(0);
        let work = |ws: &mut WorkerScratch| {
            let mut best = None;
            let mut pending = Vec::new();
            while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
                self.walk_group(state, group, ws, &mut best, &mut pending);
            }
            (best, pending)
        };
        let results: Vec<(Option<Candidate>, Vec<PendingInsert>)> = if num_workers == 1 {
            vec![work(&mut scratch.workers[0])]
        } else {
            let work = &work;
            std::thread::scope(|s| {
                let handles: Vec<_> = scratch
                    .workers
                    .iter_mut()
                    .take(num_workers)
                    .map(|ws| s.spawn(move || work(ws)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("literal-search worker panicked"))
                    .collect()
            })
        };
        let mut best = None;
        let mut pending = Vec::new();
        for (cand, worker_pending) in results {
            if let Some(cand) = cand {
                reduce(&mut best, cand);
            }
            pending.extend(worker_pending);
        }

        if budget > 0 {
            // Insert this round's fresh entries in unit order so store
            // contents (and eviction order) don't depend on scheduling.
            pending.sort_by_key(|p| p.unit);
            self.params.stats.insert_batch(pending.into_iter().map(|p| (p.key, p.entry)), budget);
            if obs.is_enabled() {
                let (hits, misses, evictions, bytes) = self.params.stats.drain_report();
                obs.add("stats.cache_hits", hits);
                obs.add("stats.cache_misses", misses);
                obs.add("stats.cache_evictions", evictions);
                obs.gauge_set("stats.cache_bytes", bytes as i64);
            }
        }

        // Drain the propagation counters every worker accumulated during
        // this search (cheap plain-u64 adds in the hot path) into the obs
        // registry. Skipped entirely on the no-op handle.
        if obs.is_enabled() {
            let mut stats = crate::propagation::PropStats::default();
            for ws in &mut scratch.workers {
                stats.merge(ws.hop1.take_stats());
                stats.merge(ws.hop2.take_stats());
            }
            obs.add("propagation.passes", stats.passes);
            obs.add("propagation.ids_propagated", stats.ids_propagated);
            obs.add("propagation.csr_capacity_hits", stats.capacity_hits);
        }

        best.map(|c| ScoredLiteral { literal: c.literal, score: c.score })
    }

    /// Flattens Algorithm 3's scan into independent unit groups, assigning
    /// each search unit its serial enumeration index.
    fn enumerate_units(&self, state: &ClauseState<'_>) -> Vec<UnitGroup> {
        let mut groups = Vec::new();
        let mut next_unit = 0usize;
        let mut unit = |rel: RelId, path: Vec<JoinEdge>| {
            next_unit += 1;
            let aggs =
                self.params.aggregation_literals && (!path.is_empty() || rel != state.target_rel());
            Unit { index: next_unit - 1, path, rel, aggs, prep: None }
        };
        for rel in state.active_relations() {
            let head = unit(rel, Vec::new());
            groups.push(UnitGroup { source: rel, head, lookahead: Vec::new() });
            for edge in self.graph.edges_from(rel) {
                let head = unit(edge.to, vec![*edge]);
                let mut lookahead = Vec::new();
                if self.params.look_one_ahead {
                    for edge2 in self.graph.edges_from(edge.to) {
                        if edge2.kind != JoinKind::FkToPk {
                            continue; // only "a foreign-key pointing to R̄'"
                        }
                        if edge2.from_attr == edge.to_attr {
                            continue; // k' ≠ k: don't reuse the arrival key
                        }
                        lookahead.push(unit(edge2.to, vec![*edge, *edge2]));
                    }
                }
                groups.push(UnitGroup { source: rel, head, lookahead });
            }
        }
        groups
    }

    /// Resolves every unit's count-store lookup in one locked pass (see
    /// [`crate::stats::StatsCache::prepare`]), in unit order.
    fn prepare(&self, state: &ClauseState<'_>, groups: &mut [UnitGroup]) {
        let units: Vec<(SourceSig, &mut Unit)> = groups
            .iter_mut()
            .flat_map(|g| {
                let source = self.source_sig(state, g.source);
                std::iter::once(&mut g.head).chain(&mut g.lookahead).map(move |u| (source, u))
            })
            .collect();
        let keys: Vec<PathKey> = units
            .iter()
            .map(|(source, unit)| PathKey { source: *source, path: unit.path.clone() })
            .collect();
        let entries = self.params.stats.prepare(self.db.cache_stamp(), &keys);
        for (((_, unit), key), entry) in units.into_iter().zip(keys).zip(entries) {
            unit.prep = Some(Prepared { key, entry });
        }
    }

    /// Algorithm 3 over one unit group with one worker's buffers: scores the
    /// head, skips the whole group when the head exceeds the fan-out bound
    /// (the serial loop `continue`s past the lookahead too), then scores
    /// each look-one-ahead hop propagated from the head's annotation.
    fn walk_group(
        &self,
        state: &ClauseState<'_>,
        group: &UnitGroup,
        ws: &mut WorkerScratch,
        best: &mut Option<Candidate>,
        pending: &mut Vec<PendingInsert>,
    ) {
        let obs = &self.params.obs;
        let _candidate = obs.span("search.candidate_relation");
        let WorkerScratch { stamp, hop1, hop2 } = ws;
        let origin = self.origin(state, group.source, group.head.prep.as_ref());
        let Some(head) = self.score_source(state, &group.head, origin, hop1, stamp, pending) else {
            return;
        };
        self.score_unit(state, &group.head, &head, stamp, best);
        let _lookahead = if group.lookahead.is_empty() {
            crossmine_obs::SpanGuard::disabled()
        } else {
            obs.add("search.lookahead_units", group.lookahead.len() as u64);
            obs.span("search.look_one_ahead")
        };
        for unit in &group.lookahead {
            if let Some(source) = self.score_source(state, unit, head.view(), hop2, stamp, pending)
            {
                self.score_unit(state, unit, &source, stamp, best);
            }
        }
    }

    /// Where `unit`'s counts come from, or `None` when the §4.3 fan-out
    /// bound skips it (local units are never skipped): its count-store hit;
    /// else the propagation of `origin` across the unit's last edge
    /// (through `scratch`), scored in place when the store is off, or built
    /// into a fresh entry queued for insert on a miss. `origin` is a
    /// superset of the live annotation on a miss, and propagation commutes
    /// with target restriction, so the entry is superset-valid too.
    ///
    /// Every source is tested against the live targets: an entry's fan-out
    /// filtered through them equals the live `avg_fanout`, so hits, fresh
    /// entries and live views skip alike. A fresh entry is tested once,
    /// before its tables are built.
    fn score_source<'s>(
        &self,
        state: &ClauseState<'_>,
        unit: &Unit,
        origin: AnnView<'s>,
        scratch: &'s mut PropagationScratch,
        stamp: &mut Stamp,
        pending: &mut Vec<PendingInsert>,
    ) -> Option<ScoreSource<'s>> {
        let limit = if unit.path.is_empty() { None } else { self.params.max_fanout };
        let targets = &state.targets;
        if let Some(Prepared { entry: Some(entry), .. }) = &unit.prep {
            return (!entry.fanout_exceeds(targets, limit))
                .then(|| ScoreSource::Entry(Arc::clone(entry)));
        }
        let view = match unit.path.last() {
            Some(edge) => {
                scratch.propagate_from(self.db, origin, edge);
                scratch.view()
            }
            None => origin,
        };
        let Some(prep) = &unit.prep else {
            let exceeded = fanout_exceeds(view, view.longest_row(), targets, limit);
            return (!exceeded).then_some(ScoreSource::Live(view));
        };
        // Tables are only worth building when this round will score them; a
        // fan-out-exceeded propagation caches just the CSR so the skip
        // itself replays for free.
        let mut entry = CachedEntry::new(view);
        let exceeded = entry.fanout_exceeds(targets, limit);
        if !exceeded {
            entry.build_tables(self.db, unit.rel, &self.all_targets, unit.aggs, stamp);
        }
        let entry = Arc::new(entry);
        pending.push(PendingInsert {
            unit: unit.index,
            key: prep.key.clone(),
            entry: Arc::clone(&entry),
        });
        (!exceeded).then_some(ScoreSource::Entry(entry))
    }

    /// Scores `unit` from `source` into `best`.
    fn score_unit(
        &self,
        state: &ClauseState<'_>,
        unit: &Unit,
        source: &ScoreSource<'_>,
        stamp: &mut Stamp,
        best: &mut Option<Candidate>,
    ) {
        if let Some(score) = source.score(self, unit, &state.targets, stamp) {
            let literal =
                ComplexLiteral { path: unit.path.clone(), constraint: score.constraint.clone() };
            reduce(best, Candidate { unit: unit.index, literal, score });
        }
    }

    /// The count-store source signature of active relation `rel` in `state`:
    /// the shareable [`SourceSig::Identity`] while the target relation is
    /// unconstrained, else this state's `(state_id, rel, epoch)`.
    fn source_sig(&self, state: &ClauseState<'_>, rel: RelId) -> SourceSig {
        if rel == state.target_rel() && state.epoch(rel) == 0 {
            SourceSig::Identity
        } else {
            SourceSig::State { state: state.state_id(), rel, epoch: state.epoch(rel) }
        }
    }

    /// The annotation a group's head propagates from: the full identity CSR
    /// for a [`SourceSig::Identity`] lookup (a superset of every target set
    /// the entry may later serve), else the live annotation of active
    /// relation `rel` (a superset of every later round at the same epoch).
    fn origin<'s>(
        &'s self,
        state: &'s ClauseState<'_>,
        rel: RelId,
        prep: Option<&Prepared>,
    ) -> AnnView<'s> {
        match prep.map(|p| p.key.source) {
            Some(SourceSig::Identity) => {
                let (offsets, ids) =
                    self.identity.as_ref().expect("identity CSR built when the store is enabled");
                AnnView::Csr { offsets, ids }
            }
            _ => state.annotation(rel).expect("search starts from an active relation").view(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::ConstraintKind;
    use crossmine_relational::{
        AttrId, AttrType, Attribute, DatabaseSchema, RelationSchema, Value,
    };

    /// Fig. 7-style database: Loan(target) -- Has_Loan -- Client, where
    /// Has_Loan carries no informative attribute and Client.age decides the
    /// class. Only look-one-ahead can find the Client literal in one step.
    fn fig7_like(n: usize) -> Database {
        let mut schema = DatabaseSchema::new();
        let mut loan = RelationSchema::new("Loan");
        loan.add_attribute(Attribute::new("loan_id", AttrType::PrimaryKey)).unwrap();
        let mut has = RelationSchema::new("Has_Loan");
        has.add_attribute(Attribute::new(
            "loan_id",
            AttrType::ForeignKey { target: "Loan".into() },
        ))
        .unwrap();
        has.add_attribute(Attribute::new(
            "client_id",
            AttrType::ForeignKey { target: "Client".into() },
        ))
        .unwrap();
        let mut client = RelationSchema::new("Client");
        client.add_attribute(Attribute::new("client_id", AttrType::PrimaryKey)).unwrap();
        client.add_attribute(Attribute::new("age", AttrType::Numerical)).unwrap();
        let t = schema.add_relation(loan).unwrap();
        let h = schema.add_relation(has).unwrap();
        let c = schema.add_relation(client).unwrap();
        schema.set_target(t);
        let mut db = Database::new(schema).unwrap();
        for i in 0..n as u64 {
            db.push_row(t, vec![Value::Key(i)]).unwrap();
            let pos = i % 2 == 0;
            db.push_label(if pos { ClassLabel::POS } else { ClassLabel::NEG });
            db.push_row(c, vec![Value::Key(i), Value::Num(if pos { 30.0 } else { 60.0 })]).unwrap();
            db.push_row_unchecked(h, vec![Value::Key(i), Value::Key(i)]);
        }
        db
    }

    #[test]
    fn look_one_ahead_reaches_through_relationship_relation() {
        let db = fig7_like(40);
        let graph = JoinGraph::build(&db.schema);
        let params = CrossMineParams::default();
        let learner = ClauseLearner::new(&db, &graph, &params, ClassLabel::POS, 2);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let clauses = learner.find_clauses(&rows);
        assert!(!clauses.is_empty(), "must find at least one clause");
        let c = &clauses[0];
        // The decisive literal constrains Client.age via a 2-edge path.
        let client = db.schema.rel_id("Client").unwrap();
        let lit = c
            .literals
            .iter()
            .find(|l| l.constraint.rel == client)
            .expect("clause should constrain Client");
        assert_eq!(lit.path.len(), 2, "look-one-ahead path has two edges");
        assert!(matches!(lit.constraint.kind, ConstraintKind::Num { attr: AttrId(1), .. }));
        assert_eq!(c.sup_pos, 20);
        assert_eq!(c.sup_neg, 0.0);
    }

    #[test]
    fn without_look_one_ahead_client_is_unreachable_in_one_literal() {
        let db = fig7_like(40);
        let graph = JoinGraph::build(&db.schema);
        let params = CrossMineParams::builder().look_one_ahead(false).build().unwrap();
        let learner = ClauseLearner::new(&db, &graph, &params, ClassLabel::POS, 2);
        let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
        let state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
        let mut scratch = SearchScratch::for_params(&db, &params);
        let best = learner.find_best_literal(&state, &mut scratch);
        // The only candidates are Has_Loan (no informative attrs beyond keys)
        // and the bare Loan relation; nothing reaches Client.age.
        if let Some(b) = best {
            let client = db.schema.rel_id("Client").unwrap();
            assert_ne!(b.literal.constraint.rel, client);
        }
    }

    #[test]
    fn sequential_covering_removes_covered_positives() {
        // Two disjoint positive groups distinguished by different literals:
        // covering must find both clauses.
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        let mut c = Attribute::new("c", AttrType::Categorical);
        c.intern("a");
        c.intern("b");
        c.intern("z");
        t.add_attribute(c).unwrap();
        let tid = schema.add_relation(t).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        // 20 pos with c=a, 20 pos with c=b, 40 neg with c=z.
        let mut id = 0u64;
        for (code, pos, count) in [(0u32, true, 20), (1, true, 20), (2, false, 40)] {
            for _ in 0..count {
                db.push_row(tid, vec![Value::Key(id), Value::Cat(code)]).unwrap();
                db.push_label(if pos { ClassLabel::POS } else { ClassLabel::NEG });
                id += 1;
            }
        }
        let graph = JoinGraph::build(&db.schema);
        let params = CrossMineParams::default();
        let learner = ClauseLearner::new(&db, &graph, &params, ClassLabel::POS, 2);
        let rows: Vec<Row> = db.relation(tid).iter_rows().collect();
        let clauses = learner.find_clauses(&rows);
        assert_eq!(clauses.len(), 2, "one clause per positive group");
        let covered: usize = clauses.iter().map(|c| c.sup_pos).sum();
        assert_eq!(covered, 40);
        assert!(clauses.iter().all(|c| c.sup_neg == 0.0));
    }

    #[test]
    fn min_gain_stops_learning_on_noise() {
        // Labels independent of attributes: no literal clears gain 2.5.
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        let mut c = Attribute::new("c", AttrType::Categorical);
        c.intern("a");
        c.intern("b");
        t.add_attribute(c).unwrap();
        let tid = schema.add_relation(t).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        for i in 0..40u64 {
            db.push_row(tid, vec![Value::Key(i), Value::Cat((i % 2) as u32)]).unwrap();
            // label correlates with nothing: alternate per pair
            db.push_label(if (i / 2) % 2 == 0 { ClassLabel::POS } else { ClassLabel::NEG });
        }
        let graph = JoinGraph::build(&db.schema);
        let params = CrossMineParams::default();
        let learner = ClauseLearner::new(&db, &graph, &params, ClassLabel::POS, 2);
        let rows: Vec<Row> = db.relation(tid).iter_rows().collect();
        let clauses = learner.find_clauses(&rows);
        assert!(clauses.is_empty(), "noise must produce no clauses, got {}", clauses.len());
    }

    #[test]
    fn sampling_estimates_fractional_negatives() {
        // Imbalanced data (10 pos, 200 neg) with a literal that covers all
        // positives and a fixed share of negatives.
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        let mut c = Attribute::new("c", AttrType::Categorical);
        c.intern("hit");
        c.intern("miss");
        t.add_attribute(c).unwrap();
        let tid = schema.add_relation(t).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        let mut id = 0u64;
        for _ in 0..10 {
            db.push_row(tid, vec![Value::Key(id), Value::Cat(0)]).unwrap();
            db.push_label(ClassLabel::POS);
            id += 1;
        }
        for i in 0..200u64 {
            // 5% of negatives also "hit".
            let code = if i % 20 == 0 { 0 } else { 1 };
            db.push_row(tid, vec![Value::Key(id), Value::Cat(code)]).unwrap();
            db.push_label(ClassLabel::NEG);
            id += 1;
        }
        let graph = JoinGraph::build(&db.schema);
        let params = CrossMineParams::with_sampling();
        let learner = ClauseLearner::new(&db, &graph, &params, ClassLabel::POS, 2);
        let rows: Vec<Row> = db.relation(tid).iter_rows().collect();
        let clauses = learner.find_clauses(&rows);
        assert!(!clauses.is_empty());
        let c0 = &clauses[0];
        assert_eq!(c0.sup_pos, 10);
        // The estimated negative support must be a safe (>= observed-scaled)
        // fraction of the full 200, not the tiny sampled count.
        assert!(c0.sup_neg > 0.0, "safe estimator should charge some negatives");
        assert!(c0.accuracy < 1.0);
    }

    #[test]
    fn max_clause_length_respected() {
        let db = fig7_like(40);
        let graph = JoinGraph::build(&db.schema);
        let params = CrossMineParams::builder().max_clause_length(1).build().unwrap();
        let learner = ClauseLearner::new(&db, &graph, &params, ClassLabel::POS, 2);
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        for c in learner.find_clauses(&rows) {
            assert!(c.len() <= 1);
        }
    }
}
