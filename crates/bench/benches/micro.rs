//! Microbenchmarks of CrossMine's hot paths: tuple-ID propagation, foil
//! gain, best-literal search, clause application, and the two physical join
//! strategies the baselines use.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use crossmine_core::idset::{Stamp, TargetSet};
use crossmine_core::learner::{ClauseLearner, SearchScratch};
use crossmine_core::propagation::{propagate, try_propagate, ClauseState, PropagationScratch};
use crossmine_core::search::best_constraint_in;
use crossmine_core::CrossMineParams;
use crossmine_relational::{BindingTable, ClassLabel, Database, JoinEdge, JoinGraph};
use crossmine_synth::{generate, GenParams};

fn test_db(tuples: usize) -> Database {
    generate(&GenParams {
        num_relations: 8,
        expected_tuples: tuples,
        min_tuples: tuples / 4,
        seed: 3,
        ..Default::default()
    })
}

fn target_edge(db: &Database, graph: &JoinGraph) -> JoinEdge {
    let target = db.target().unwrap();
    *graph.edges_from(target).next().expect("target has at least one join edge")
}

fn bench_propagation(c: &mut Criterion) {
    let mut group = c.benchmark_group("propagation");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    for tuples in [200usize, 1000, 5000] {
        let db = test_db(tuples);
        db.build_all_indexes();
        let graph = JoinGraph::build(&db.schema);
        let edge = target_edge(&db, &graph);
        let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
        let state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
        group.bench_with_input(BenchmarkId::new("one_edge", tuples), &tuples, |b, _| {
            b.iter(|| std::hint::black_box(state.propagate_edge(&edge)));
        });
    }
    group.finish();
}

fn bench_gain(c: &mut Criterion) {
    c.bench_function("foil_gain", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for p in 1..50usize {
                acc += crossmine_core::gain::foil_gain(
                    std::hint::black_box(50),
                    std::hint::black_box(50),
                    p,
                    50 - p,
                );
            }
            acc
        });
    });
}

fn bench_literal_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("literal_search");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    for tuples in [200usize, 1000] {
        let db = test_db(tuples);
        db.build_all_indexes();
        let graph = JoinGraph::build(&db.schema);
        let edge = target_edge(&db, &graph);
        let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
        let targets = TargetSet::all(&is_pos);
        let state = ClauseState::new(&db, &is_pos, targets.clone());
        let ann = state.propagate_edge(&edge);
        let params = CrossMineParams::default();
        group.bench_with_input(BenchmarkId::new("one_relation", tuples), &tuples, |b, _| {
            let mut stamp = Stamp::new(db.num_targets());
            b.iter(|| {
                std::hint::black_box(best_constraint_in(
                    &db, edge.to, &ann, &targets, &mut stamp, &params, true,
                ))
            });
        });
    }
    group.finish();
}

fn bench_joins(c: &mut Criterion) {
    let mut group = c.benchmark_group("physical_join");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    for tuples in [200usize, 1000] {
        let db = test_db(tuples);
        db.build_all_indexes();
        let graph = JoinGraph::build(&db.schema);
        let edge = target_edge(&db, &graph);
        let target = db.target().unwrap();
        let table = BindingTable::from_targets(target, db.relation(target).iter_rows());
        group.bench_with_input(BenchmarkId::new("indexed", tuples), &tuples, |b, _| {
            b.iter(|| std::hint::black_box(table.join(&db, 0, &edge)));
        });
        group.bench_with_input(BenchmarkId::new("nested_loop", tuples), &tuples, |b, _| {
            b.iter(|| std::hint::black_box(table.join_scan(&db, 0, &edge)));
        });
    }
    group.finish();
}

fn bench_disk_vs_memory_propagation(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk_vs_memory_propagation");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let db = test_db(2000);
    db.build_all_indexes();
    let graph = JoinGraph::build(&db.schema);
    let edge = target_edge(&db, &graph);
    let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
    let state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
    group.bench_function("in_memory", |b| {
        b.iter(|| std::hint::black_box(state.propagate_edge(&edge)));
    });
    let path = std::env::temp_dir().join("crossmine-bench-disk.pages");
    let mut disk = crossmine_storage::DiskDatabase::spill(&db, &path, 32).unwrap();
    let target = db.target().unwrap();
    group.bench_function("disk_resident", |b| {
        b.iter(|| {
            let source = crossmine_storage::DiskSource::new(&mut disk);
            std::hint::black_box(try_propagate(&source, state.annotation(target).unwrap(), &edge))
        });
    });
    std::fs::remove_file(&path).ok();
    group.finish();
}

/// Full Find-Best-Literal calls across worker counts on an R20.T500-class
/// database — the headline scaling number for the parallel search.
fn bench_threads_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("threads_scaling");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    let db = generate(&GenParams {
        num_relations: 20,
        expected_tuples: 500,
        min_tuples: 125,
        seed: 3,
        ..Default::default()
    });
    db.build_all_indexes();
    let graph = JoinGraph::build(&db.schema);
    let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
    for threads in [1usize, 2, 4, 8] {
        let params = CrossMineParams::builder().num_threads(Some(threads)).build().unwrap();
        let learner = ClauseLearner::new(&db, &graph, &params, ClassLabel::POS, 2);
        let state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
        group.bench_with_input(BenchmarkId::new("find_best_literal", threads), &threads, |b, _| {
            let mut scratch = SearchScratch::for_params(&db, &params);
            b.iter(|| std::hint::black_box(learner.find_best_literal(&state, &mut scratch)));
        });
    }
    group.finish();
}

/// Reused CSR scratch vs the allocating wrapper: the scratch path must not
/// grow the heap per call once its buffers reach steady state.
fn bench_propagation_alloc(c: &mut Criterion) {
    let mut group = c.benchmark_group("propagation_alloc");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    for tuples in [1000usize, 5000] {
        let db = test_db(tuples);
        db.build_all_indexes();
        let graph = JoinGraph::build(&db.schema);
        let edge = target_edge(&db, &graph);
        let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
        let state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
        let ann = state.annotation(edge.from).unwrap().clone();
        group.bench_with_input(BenchmarkId::new("allocating", tuples), &tuples, |b, _| {
            b.iter(|| std::hint::black_box(propagate(&db, &ann, &edge)));
        });
        group.bench_with_input(BenchmarkId::new("scratch_reuse", tuples), &tuples, |b, _| {
            let mut scratch = PropagationScratch::new();
            b.iter(|| {
                scratch.propagate_from(&db, ann.view(), &edge);
                std::hint::black_box(scratch.view().total_ids())
            });
        });
    }
    group.finish();
}

/// `CrossMineModel::predict` vs the compiled-plan batched evaluator at
/// serving batch sizes: the per-request win of `ServeScratch` reuse shows
/// up at batch 1; the propagation-amortisation win at 32 and 1024.
fn bench_serve_batch(c: &mut Criterion) {
    use crossmine_core::CrossMine;
    use crossmine_serve::{evaluate_batch, CompiledPlan, ServeScratch};

    let mut group = c.benchmark_group("serve_batch");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    let db = test_db(1500);
    db.build_all_indexes();
    let target = db.target().unwrap();
    let rows: Vec<_> = db.relation(target).iter_rows().collect();
    let model = CrossMine::default().fit(&db, &rows).unwrap();
    let plan = CompiledPlan::compile(&model, &db.schema).unwrap();
    for batch in [1usize, 32, 1024] {
        let batch = batch.min(rows.len());
        let chunk = &rows[..batch];
        group.bench_with_input(BenchmarkId::new("predict", batch), &batch, |b, _| {
            b.iter(|| std::hint::black_box(model.predict(&db, chunk).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("compiled_batched", batch), &batch, |b, _| {
            let mut scratch = ServeScratch::new();
            b.iter(|| std::hint::black_box(evaluate_batch(&plan, &db, chunk, &mut scratch)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_propagation,
    bench_gain,
    bench_literal_search,
    bench_joins,
    bench_disk_vs_memory_propagation,
    bench_threads_scaling,
    bench_propagation_alloc,
    bench_serve_batch
);
criterion_main!(benches);
