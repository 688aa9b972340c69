//! Parity oracle for the sufficient-statistics count store: a fit with the
//! store enabled must produce *byte-identical* clauses and scores to a
//! cache-disabled fit (`stats_cache_budget_bytes = 0`), serial and parallel,
//! with and without sampling, under eviction pressure, and across fits
//! sharing one store. Extends the determinism oracle in
//! `parallel_determinism.rs`.

use crossmine_core::idset::TargetSet;
use crossmine_core::learner::{ClauseLearner, SearchScratch};
use crossmine_core::propagation::ClauseState;
use crossmine_core::{CrossMineParams, SourceSig, StatsCache};
use crossmine_obs::ObsHandle;
use crossmine_relational::{ClassLabel, Database, JoinGraph, Row};
use crossmine_synth::{generate, GenParams};

fn synth_db(seed: u64) -> Database {
    let db = generate(&GenParams {
        num_relations: 8,
        expected_tuples: 300,
        min_tuples: 60,
        seed,
        ..Default::default()
    });
    db.build_all_indexes();
    db
}

/// The full learned model as an exact string (f64 `Debug` is shortest
/// round-trip, so equal strings mean bit-equal gains and supports).
fn model_fingerprint(db: &Database, params: &CrossMineParams) -> String {
    let graph = JoinGraph::build(&db.schema);
    let learner = ClauseLearner::new(db, &graph, params, ClassLabel::POS, 2);
    let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
    format!("{:?}", learner.find_clauses(&rows))
}

fn params_with_budget(budget: usize, threads: usize, sampling: bool) -> CrossMineParams {
    CrossMineParams::builder()
        .stats_cache_budget_bytes(budget)
        .num_threads(Some(threads))
        .sampling(sampling)
        .build()
        .unwrap()
}

#[test]
fn cached_fit_is_byte_identical_to_uncached() {
    for seed in [3u64, 11, 42] {
        let db = synth_db(seed);
        let uncached = model_fingerprint(&db, &params_with_budget(0, 1, false));
        assert_ne!(uncached, "[]", "seed {seed}: oracle is vacuous without clauses");
        for threads in [1usize, 4] {
            let params = params_with_budget(64 << 20, threads, false);
            let cached = model_fingerprint(&db, &params);
            assert_eq!(
                uncached, cached,
                "seed {seed}, {threads} workers: count store changed the model"
            );
            let stats = params.stats.stats();
            assert!(stats.misses > 0, "seed {seed}: the store was never filled");
        }
    }
}

#[test]
fn cached_fit_parity_holds_with_sampling() {
    let db = synth_db(7);
    let uncached = model_fingerprint(&db, &params_with_budget(0, 1, true));
    for threads in [1usize, 4] {
        let cached = model_fingerprint(&db, &params_with_budget(64 << 20, threads, true));
        assert_eq!(uncached, cached, "{threads} workers: sampling parity broke");
    }
}

#[test]
fn tiny_budget_evicts_without_returning_stale_tallies() {
    // A budget far below the working set forces constant LRU eviction; the
    // learned model must still be byte-identical (an entry is either present
    // and valid or recomputed — never stale).
    let db = synth_db(11);
    let uncached = model_fingerprint(&db, &params_with_budget(0, 1, false));
    let params = params_with_budget(16 << 10, 1, false);
    let cached = model_fingerprint(&db, &params);
    assert_eq!(uncached, cached, "eviction pressure changed the model");
    let stats = params.stats.stats();
    assert!(stats.evictions > 0, "16 KiB budget should evict, got {stats:?}");
    assert!(stats.bytes <= 16 << 10, "store exceeded its budget: {stats:?}");
}

#[test]
fn shared_store_reuses_statistics_across_fits() {
    // One params value (one store) across repeated fits over the same
    // database: identity-keyed entries survive, so fit 2 starts hot — and
    // still learns the identical model.
    let db = synth_db(3);
    let params = params_with_budget(64 << 20, 1, false);
    let first = model_fingerprint(&db, &params);
    let after_first = params.stats.stats();
    assert!(after_first.misses > 0);
    let second = model_fingerprint(&db, &params);
    let after_second = params.stats.stats();
    assert_eq!(first, second, "a warm store changed the model");
    assert!(
        after_second.hits > after_first.hits,
        "second fit should hit identity-keyed entries: {after_first:?} -> {after_second:?}"
    );
    // Identity entries are label-free: everything left in the store after
    // clause-state retirement is identity-keyed.
    assert!(params.stats.keys().iter().all(|k| k.source == SourceSig::Identity));
}

#[test]
fn multi_clause_fit_reports_cache_hits_through_obs() {
    // Acceptance criterion: obs exposes nonzero `stats.cache_hits` during a
    // multi-clause fit (round 1 of clause 2 reuses clause 1's identity
    // entries, and later rounds of each clause reuse unchanged sources).
    let db = synth_db(3);
    let obs = ObsHandle::enabled();
    let params = CrossMineParams::builder().num_threads(Some(1)).obs(obs.clone()).build().unwrap();
    let model = model_fingerprint(&db, &params);
    assert_ne!(model, "[]");
    let counters = obs.registry().unwrap().counter_values();
    let get = |name: &str| counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap_or(0);
    assert!(get("stats.cache_hits") > 0, "no cache hits reported: {counters:?}");
    assert!(get("stats.cache_misses") > 0, "no misses reported: {counters:?}");
}

#[test]
fn constraining_a_relation_invalidates_exactly_its_entries() {
    // Direct re-count comparison around an epoch bump: apply the best
    // literal (bumping the constrained relation's epoch and retiring that
    // source), then verify the next cached search equals a from-scratch
    // recount on the updated state.
    let db = synth_db(5);
    let graph = JoinGraph::build(&db.schema);
    let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();

    let cached_params = params_with_budget(64 << 20, 1, false);
    let uncached_params = params_with_budget(0, 1, false);
    let cached = ClauseLearner::new(&db, &graph, &cached_params, ClassLabel::POS, 2);
    let uncached = ClauseLearner::new(&db, &graph, &uncached_params, ClassLabel::POS, 2);

    let mut state_c = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
    let mut state_u = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
    let mut scratch_c = SearchScratch::for_params(&db, &cached_params);
    let mut scratch_u = SearchScratch::for_params(&db, &uncached_params);

    for round in 0..3 {
        let best_c = cached.find_best_literal(&state_c, &mut scratch_c);
        let best_u = uncached.find_best_literal(&state_u, &mut scratch_u);
        assert_eq!(
            format!("{best_c:?}"),
            format!("{best_u:?}"),
            "round {round}: cached search diverged from direct recount"
        );
        let (Some(bc), Some(bu)) = (best_c, best_u) else { break };
        let constrained = bc.literal.constraint.rel;
        let old_epoch = state_c.epoch(constrained);
        state_c.apply_literal(&bc.literal, scratch_c.stamp_mut());
        state_u.apply_literal(&bu.literal, scratch_u.stamp_mut());
        assert_eq!(state_c.epoch(constrained), old_epoch + 1, "epoch must bump on constrain");
        // Mirror the learner's invalidation, then check it dropped exactly
        // the stale source: no key of the bumped (rel, old epoch) survives,
        // and keys of other sources do.
        let before: Vec<_> = cached_params.stats.keys();
        cached_params.stats.retire_source(state_c.state_id(), constrained, old_epoch);
        let after: Vec<_> = cached_params.stats.keys();
        let stale = |k: &crossmine_core::PathKey| {
            k.source
                == SourceSig::State {
                    state: state_c.state_id(),
                    rel: constrained,
                    epoch: old_epoch,
                }
        };
        assert!(after.iter().all(|k| !stale(k)), "stale source survived retirement");
        let expected_survivors = before.iter().filter(|k| !stale(k)).count();
        assert_eq!(after.len(), expected_survivors, "retirement dropped a valid entry");
    }
}

#[test]
fn store_is_shareable_across_param_clones() {
    // classifier::fit clones params per class; all classes must feed one
    // store (the identity tables are label-free).
    let params = CrossMineParams::default();
    let clone = params.clone();
    let db = synth_db(3);
    let _ = model_fingerprint(&db, &clone);
    assert!(params.stats.stats().misses > 0, "clone did not share the store");
    // An explicitly shared handle behaves the same.
    let store = StatsCache::new();
    let p1 = CrossMineParams::builder().stats(store.clone()).build().unwrap();
    let _ = model_fingerprint(&db, &p1);
    assert!(store.stats().misses > 0);
}

/// Params for the walker-branch parity tests: the count-store budget and
/// worker count under test plus the search settings that pick the branch.
fn walker_params(
    budget: usize,
    threads: usize,
    max_fanout: Option<usize>,
    aggregation: bool,
    lookahead: bool,
) -> CrossMineParams {
    CrossMineParams::builder()
        .stats_cache_budget_bytes(budget)
        .num_threads(Some(threads))
        .max_fanout(max_fanout)
        .aggregation_literals(aggregation)
        .look_one_ahead(lookahead)
        .build()
        .unwrap()
}

#[test]
fn fanout_skips_keep_parity_under_every_search_setting() {
    // A fan-out bound of 1 skips every propagation that reaches a tuple
    // through more than one target on average: the head skip (which also
    // drops the group's look-one-ahead hops), the look-one-ahead skip, and
    // the count store's CSR-only entries. Each must decide the same way
    // whether the counts are live, a hit or a fresh entry; with no bound,
    // aggregation and look-one-ahead switched off must keep parity too.
    for seed in [11u64, 42] {
        let db = synth_db(seed);
        for aggregation in [true, false] {
            for lookahead in [true, false] {
                let mut references = Vec::new();
                for max_fanout in [Some(1), None] {
                    let setting = format!(
                        "seed {seed}, aggregation {aggregation}, lookahead {lookahead}, \
                         max_fanout {max_fanout:?}"
                    );
                    let params = |budget, threads| {
                        walker_params(budget, threads, max_fanout, aggregation, lookahead)
                    };
                    let reference = model_fingerprint(&db, &params(0, 1));
                    assert_ne!(reference, "[]", "{setting}: oracle is vacuous without clauses");
                    for (budget, threads) in [(0, 4), (64 << 20, 1), (64 << 20, 4)] {
                        assert_eq!(
                            reference,
                            model_fingerprint(&db, &params(budget, threads)),
                            "{setting}, budget {budget}, {threads} workers: the model changed"
                        );
                    }
                    references.push(reference);
                }
                assert_ne!(
                    references[0], references[1],
                    "seed {seed}, aggregation {aggregation}, lookahead {lookahead}: \
                     the fan-out bound never skipped"
                );
            }
        }
    }
}
