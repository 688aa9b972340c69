//! Set-up shared by the workloads: pinned databases, the stratified
//! split, fitting (plain and traced), spilling, delta generation, and
//! process memory.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crossmine_core::idset::TargetSet;
use crossmine_core::propagation::ClauseState;
use crossmine_core::{
    Clause, ClauseLearner, CrossMine, CrossMineModel, CrossMineParams, SearchScratch,
};
use crossmine_obs::ObsHandle;
use crossmine_relational::{
    AttrId, ClassLabel, Database, DeltaBatch, JoinGraph, RelId, Row, Value,
};
use crossmine_serve::{CompiledPlan, ServeScratch};
use crossmine_storage::DiskDatabase;
use crossmine_synth::{generate, GenParams};

/// SplitMix64: a small, seedable generator for schedules, splits and
/// deltas.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Deals items in a seeded order, reshuffling once a pass is used up, so
/// every item comes up equally often: a latency median then does not
/// depend on which items a seed happened to draw.
#[derive(Debug, Clone)]
pub struct Deck<T> {
    items: Vec<T>,
    next: usize,
    rng: SplitMix,
}

impl<T: Copy> Deck<T> {
    pub fn new(items: &[T], seed: u64) -> Deck<T> {
        Deck { items: items.to_vec(), next: items.len(), rng: SplitMix(seed) }
    }

    /// `k` distinct items (at most the deck's size).
    pub fn deal(&mut self, k: usize) -> Vec<T> {
        let k = k.min(self.items.len());
        if self.next + k > self.items.len() {
            for i in (1..self.items.len()).rev() {
                self.items.swap(i, self.rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += k;
        self.items[self.next - k..self.next].to_vec()
    }
}

/// A pinned database and how its model is trained.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    pub db: GenParams,
    /// Share of each class's target rows the model is fit on; the rest is
    /// the holdout.
    pub train_share: f64,
    /// Seed of the stratified split (pinned, so every run fits the same
    /// model and fit time varies only with the machine).
    pub split_seed: u64,
    /// Buffer-pool pages of the disk copy.
    pub pool_pages: usize,
}

/// The Table-1 synthetic R10.T2000.F3 database, fit on a stratified 80%
/// of its target rows. The seed is pinned to one whose fit takes about a
/// second: on other seeds the same fit takes 20 to 50 s, beyond any run's
/// budget.
pub fn r10_t2000() -> ModelSpec {
    ModelSpec {
        db: GenParams {
            num_relations: 10,
            expected_tuples: 2000,
            expected_foreign_keys: 3,
            seed: 6,
            ..Default::default()
        },
        train_share: 0.8,
        split_seed: 0x5eed,
        pool_pages: 16,
    }
}

/// The pinned R5.T200.F3 database of the regression suite, fit on a
/// stratified 80%.
pub fn r5_t200() -> ModelSpec {
    ModelSpec {
        db: GenParams {
            num_relations: 5,
            expected_tuples: 200,
            min_tuples: 60,
            expected_foreign_keys: 3,
            seed: 42,
            ..Default::default()
        },
        train_share: 0.8,
        split_seed: 0x5eed,
        pool_pages: 16,
    }
}

/// One set-up's products.
pub struct Prepared {
    pub db: Arc<Database>,
    /// Every target row, ascending (distinct by construction).
    pub rows: Vec<Row>,
    pub train: Vec<Row>,
    pub holdout: Vec<Row>,
    pub model: CrossMineModel,
    pub plan: CompiledPlan,
    /// Core `predict` over `rows`: the oracle every other path must match.
    pub reference: Vec<ClassLabel>,
    pub disk: DiskDatabase,
    pub generate_ms: f64,
    pub fit_ms: f64,
    pub compile_ms: f64,
    pub spill_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Generates, fits, compiles and spills. `spill_path` must not exist yet
/// or be disposable.
pub fn prepare(spec: &ModelSpec, spill_path: &Path) -> Result<Prepared, String> {
    let t = Instant::now();
    let db = generate(&spec.db);
    // Key and sorted indexes are built lazily on first use; build them
    // now so no measured call pays for them.
    db.build_all_indexes();
    let generate_ms = ms_since(t);
    let target = db.target().map_err(|e| e.to_string())?;
    let rows: Vec<Row> = db.relation(target).iter_rows().collect();
    let (train, holdout) = stratified_split(&db, &rows, spec.train_share, spec.split_seed);

    let t = Instant::now();
    let model = CrossMine::default().fit(&db, &train).map_err(|e| e.to_string())?;
    let fit_ms = ms_since(t);

    let t = Instant::now();
    let plan = CompiledPlan::compile(&model, &db.schema).map_err(|e| e.to_string())?;
    let compile_ms = ms_since(t);
    let reference = model.predict(&db, &rows).map_err(|e| e.to_string())?;

    let t = Instant::now();
    let disk = DiskDatabase::spill(&db, spill_path, spec.pool_pages)
        .map_err(|e| format!("spill to {}: {e:?}", spill_path.display()))?;
    let spill_ms = ms_since(t);
    Ok(Prepared {
        db: Arc::new(db),
        rows,
        train,
        holdout,
        model,
        plan,
        reference,
        disk,
        generate_ms,
        fit_ms,
        compile_ms,
        spill_ms,
    })
}

impl Prepared {
    /// Accuracy of the reference labels on the holdout rows.
    pub fn holdout_accuracy(&self) -> f64 {
        let right = self
            .holdout
            .iter()
            .filter(|&&r| self.reference[r.0 as usize] == self.db.label(r))
            .count();
        right as f64 / self.holdout.len().max(1) as f64
    }

    /// Target row ids as the wire carries them.
    pub fn row_ids(&self) -> Vec<u32> {
        self.rows.iter().map(|r| r.0).collect()
    }

    /// Scores a few batches on a throwaway scratch so lazily built state
    /// (allocator arenas, page cache) is warm before anything is timed.
    pub fn warm(&self) {
        let mut scratch = ServeScratch::new();
        for chunk in self.rows.chunks(64).take(4) {
            std::hint::black_box(crossmine_serve::evaluate_batch(
                &self.plan,
                &self.db,
                chunk,
                &mut scratch,
            ));
        }
    }
}

/// Per class, the first `share` of its rows in a seeded order; the rest
/// is the holdout. Both halves come back ascending.
pub fn stratified_split(
    db: &Database,
    rows: &[Row],
    share: f64,
    seed: u64,
) -> (Vec<Row>, Vec<Row>) {
    let mut classes: Vec<ClassLabel> = rows.iter().map(|&r| db.label(r)).collect();
    classes.sort_unstable();
    classes.dedup();
    let mut train = Vec::new();
    let mut holdout = Vec::new();
    for class in classes {
        let mut members: Vec<(u64, Row)> = rows
            .iter()
            .filter(|&&r| db.label(r) == class)
            .map(|&r| (SplitMix(seed ^ u64::from(r.0).wrapping_mul(0x2545_F491)).next_u64(), r))
            .collect();
        members.sort_unstable();
        let k = ((members.len() as f64) * share).ceil() as usize;
        train.extend(members[..k].iter().map(|&(_, r)| r));
        holdout.extend(members[k..].iter().map(|&(_, r)| r));
    }
    train.sort_unstable();
    holdout.sort_unstable();
    (train, holdout)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the benchmark keeps its disk copies: inside its own package
/// directory, so a run reads and writes only inside the checkout.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Generates delta batches against one base database: fresh-keyed inserts
/// (clones of existing rows, so every foreign key resolves) and cell
/// updates (a non-key cell set to the same column's value in another
/// row). Keys stay fresh across batches, since servers revalidate the
/// cumulative history.
pub struct DeltaGen {
    rng: SplitMix,
    /// Next fresh primary key per relation (`None`: no primary key).
    next_key: Vec<Option<u64>>,
    target: RelId,
}

impl DeltaGen {
    pub fn new(db: &Database, seed: u64) -> Result<DeltaGen, String> {
        let target = db.target().map_err(|e| e.to_string())?;
        let next_key = db
            .schema
            .iter_relations()
            .map(|(rid, rs)| {
                rs.primary_key.map(|pk| {
                    let rel = db.relation(rid);
                    rel.column(pk).iter().filter_map(|v| v.as_key()).max().unwrap_or(0) + 1
                })
            })
            .collect();
        Ok(DeltaGen { rng: SplitMix(seed), next_key, target })
    }

    /// One batch: `inserts` fresh-keyed rows (alternating between the
    /// target and other relations) and `updates` cell patches.
    pub fn batch(&mut self, db: &Database, inserts: usize, updates: usize) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        let keyed: Vec<RelId> = db
            .schema
            .iter_relations()
            .filter(|(rid, rs)| rs.primary_key.is_some() && !db.relation(*rid).is_empty())
            .map(|(rid, _)| rid)
            .collect();
        for i in 0..inserts {
            let rel = if i % 2 == 0 || keyed.len() < 2 {
                self.target
            } else {
                let others: Vec<RelId> =
                    keyed.iter().copied().filter(|&r| r != self.target).collect();
                others[self.rng.below(others.len())]
            };
            let src = Row(self.rng.below(db.relation(rel).len()) as u32);
            let mut tuple = db.relation(rel).tuple(src);
            let Some(pk) = db.schema.relation(rel).primary_key else { continue };
            let key = self.next_key[rel.0].as_mut().expect("keyed relation");
            tuple[pk.0] = Value::Key(*key);
            *key += 1;
            if rel == self.target {
                batch.insert_labeled(rel, tuple, db.label(src));
            } else {
                batch.insert(rel, tuple);
            }
        }
        let cells: Vec<(RelId, AttrId)> = db
            .schema
            .iter_relations()
            .filter(|(rid, _)| db.relation(*rid).len() > 1)
            .flat_map(|(rid, rs)| {
                rs.iter_attrs().filter(|(_, a)| !a.ty.is_key()).map(move |(aid, _)| (rid, aid))
            })
            .collect();
        for _ in 0..updates {
            if cells.is_empty() {
                break;
            }
            let (rel, attr) = cells[self.rng.below(cells.len())];
            let n = db.relation(rel).len();
            let row = Row(self.rng.below(n) as u32);
            let value = db.relation(rel).column(attr)[self.rng.below(n)];
            batch.update(rel, row, attr, value);
        }
        batch
    }
}

/// What the traced fit measured, from outside the learner.
#[derive(Debug, Clone, Default)]
pub struct FitTrace {
    pub find_best_literal_ms: f64,
    pub find_best_literal_calls: u64,
    pub apply_literal_ms: f64,
    pub literals_considered: u64,
    pub ids_propagated: u64,
    pub stats_hit_rate: f64,
    pub stats_peak_bytes: u64,
}

/// Refits `train` exactly as `CrossMine::fit` does with default params —
/// Algorithm 1 per class, Algorithm 2 per clause — but drives
/// `ClauseLearner::find_best_literal` and `ClauseState::apply_literal`
/// from here so each call can be timed, with an enabled obs handle for
/// the learner's counters. Returns the ranked clauses and the trace.
pub fn fit_traced(db: &Database, train: &[Row]) -> Result<(Vec<Clause>, FitTrace), String> {
    let mut params = CrossMineParams::default();
    params.obs = ObsHandle::enabled();
    if params.sampling {
        return Err("the traced fit replays the unsampled learner only".into());
    }
    let graph = JoinGraph::build(&db.schema);
    let mut classes: Vec<ClassLabel> = train.iter().map(|&r| db.label(r)).collect();
    classes.sort_unstable();
    classes.dedup();
    let caching = params.stats_cache_budget_bytes > 0;
    let mut trace = FitTrace::default();
    let mut clauses: Vec<Clause> = Vec::new();
    for &class in &classes {
        let learner = ClauseLearner::new(db, &graph, &params, class, classes.len());
        let is_pos = learner.is_pos();
        let mut remaining = TargetSet::from_rows(is_pos, train.iter().copied());
        let orig_pos = remaining.pos();
        let mut scratch = SearchScratch::for_params(db, &params);
        let mut learned = 0usize;
        while remaining.pos() as f64 > params.min_pos_fraction * orig_pos as f64
            && learned < params.max_clauses
        {
            let mut state = ClauseState::new(db, is_pos, remaining.clone());
            let mut literals = Vec::new();
            loop {
                let t = Instant::now();
                let best = learner.find_best_literal(&state, &mut scratch);
                trace.find_best_literal_ms += ms_since(t);
                trace.find_best_literal_calls += 1;
                let bytes = params.stats.stats().bytes as u64;
                trace.stats_peak_bytes = trace.stats_peak_bytes.max(bytes);
                let Some(best) = best else { break };
                if best.score.gain < params.min_foil_gain {
                    break;
                }
                let constrained = best.literal.constraint.rel;
                let old_epoch = state.epoch(constrained);
                let t = Instant::now();
                state.apply_literal(&best.literal, scratch.stamp_mut());
                trace.apply_literal_ms += ms_since(t);
                if caching {
                    params.stats.retire_source(state.state_id(), constrained, old_epoch);
                }
                literals.push(best.literal);
                if literals.len() >= params.max_clause_length {
                    break;
                }
            }
            if caching {
                params.stats.retire_state(state.state_id());
            }
            if literals.is_empty() {
                break;
            }
            let covered = state.targets;
            let sup_pos = covered.pos();
            if sup_pos == 0 {
                break;
            }
            clauses.push(Clause::new(
                literals,
                class,
                sup_pos,
                covered.neg() as f64,
                classes.len(),
            ));
            learned += 1;
            for r in covered.iter() {
                if is_pos[r.0 as usize] {
                    remaining.remove(r.0, is_pos);
                }
            }
        }
    }
    clauses
        .sort_by(|a, b| b.accuracy.partial_cmp(&a.accuracy).unwrap_or(std::cmp::Ordering::Equal));
    let counters = params.obs.registry().map(|r| r.counter_values()).unwrap_or_default();
    let counter = |name: &str| counters.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v);
    trace.literals_considered = counter("search.literals_considered");
    trace.ids_propagated = counter("propagation.ids_propagated");
    let cache = params.stats.stats();
    trace.stats_hit_rate = cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64;
    Ok((clauses, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GenParams {
        GenParams {
            num_relations: 4,
            expected_tuples: 80,
            min_tuples: 30,
            expected_foreign_keys: 2,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn deck_deals_every_item_once_per_pass() {
        let items: Vec<u32> = (0..10).collect();
        let mut deck = Deck::new(&items, 4);
        let mut pass: Vec<u32> = (0..5).flat_map(|_| deck.deal(2)).collect();
        pass.sort_unstable();
        assert_eq!(pass, items);
        // A deal that would straddle two passes starts a fresh one, so its
        // items stay distinct.
        deck.deal(7);
        let mut straddle = deck.deal(7);
        straddle.sort_unstable();
        straddle.dedup();
        assert_eq!(straddle.len(), 7);
        assert_eq!(deck.deal(50).len(), 10, "capped at the deck size");
    }

    #[test]
    fn split_is_stratified_disjoint_and_pinned() {
        let db = generate(&small());
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let (train, holdout) = stratified_split(&db, &rows, 0.8, 5);
        assert_eq!(train.len() + holdout.len(), rows.len());
        assert!(train.iter().all(|r| !holdout.contains(r)));
        for class in [ClassLabel::POS, ClassLabel::NEG] {
            let all = rows.iter().filter(|&&r| db.label(r) == class).count();
            let got = train.iter().filter(|&&r| db.label(r) == class).count();
            assert_eq!(got, (all as f64 * 0.8).ceil() as usize);
        }
        assert_eq!(stratified_split(&db, &rows, 0.8, 5).0, train);
    }

    #[test]
    fn traced_fit_learns_the_same_clauses_as_fit() {
        let db = generate(&small());
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model = CrossMine::default().fit(&db, &rows).unwrap();
        let (clauses, trace) = fit_traced(&db, &rows).unwrap();
        assert_eq!(format!("{:?}", clauses), format!("{:?}", model.clauses));
        assert!(trace.find_best_literal_calls > 0);
        assert!(trace.literals_considered > 0);
    }

    #[test]
    fn deltas_apply_cleanly_batch_after_batch() {
        let db = generate(&small());
        let mut gen = DeltaGen::new(&db, 11).unwrap();
        let mut merged = db.clone();
        let mut history = DeltaBatch::new();
        for _ in 0..5 {
            let batch = gen.batch(&db, 3, 4);
            assert_eq!(batch.len(), 7);
            merged.apply_delta(&batch).expect("each batch applies to the merged snapshot");
            history.extend(&batch);
            // What a server does: revalidate the whole history on the base.
            crossmine_relational::DeltaOverlay::build(&db, &history).expect("history validates");
        }
    }
}
