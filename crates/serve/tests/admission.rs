//! Admission-control contract tests: the server never blocks a submitter,
//! sheds typed `Overloaded` errors when full, expires queued deadlines,
//! closes admission on shutdown while draining everything it accepted, and
//! rejects nonsense configurations up front.
//!
//! Worker stalls are induced with [`ChaosConfig`] (stall on every batch) so
//! the queue deterministically backs up without racing on real load.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crossmine_core::classifier::{CrossMine, CrossMineModel};
use crossmine_relational::{ClassLabel, Database, Row};
use crossmine_serve::{
    ChaosConfig, CompiledPlan, ModelRegistry, PredictionHandle, PredictionServer, ServeError,
    ServeRequest, ServerConfig,
};
use crossmine_synth::{generate, GenParams};

struct Fixture {
    db: Arc<Database>,
    plan: CompiledPlan,
    rows: Vec<Row>,
    expected: Vec<ClassLabel>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = generate(&GenParams {
            num_relations: 4,
            expected_tuples: 60,
            min_tuples: 20,
            seed: 11,
            ..Default::default()
        });
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model: CrossMineModel = CrossMine::default().fit(&db, &rows).unwrap();
        let expected = model.predict(&db, &rows).unwrap();
        let plan = CompiledPlan::compile(&model, &db.schema).unwrap();
        Fixture { db: Arc::new(db), plan, rows, expected }
    })
}

/// A chaos config that stalls every batch for `ms` — no panics, no
/// oversizing — so workers are predictably slow.
fn stall_all(ms: u64) -> ChaosConfig {
    ChaosConfig { stall_every: 1, stall_for: Duration::from_millis(ms), ..ChaosConfig::off() }
}

fn start(f: &Fixture, config: ServerConfig) -> PredictionServer {
    let registry = Arc::new(ModelRegistry::new(f.plan.clone()));
    PredictionServer::start(Arc::clone(&f.db), registry, config).unwrap()
}

/// One-row submission through the unified [`ServeRequest`] surface.
fn submit_one(server: &PredictionServer, row: Row) -> Result<PredictionHandle, ServeError> {
    server.serve(ServeRequest::row(row)).map(|mut handles| handles.pop().expect("one handle"))
}

#[test]
fn invalid_configs_are_rejected_up_front() {
    for (broken, needle) in [
        (ServerConfig::builder().workers(0).build(), "workers"),
        (ServerConfig::builder().max_batch(0).build(), "max_batch"),
        (ServerConfig::builder().queue_capacity(0).build(), "queue_capacity"),
        (ServerConfig::builder().workers(100_000).build(), "workers"),
        (ServerConfig::builder().shards(0).build(), "shard.shards"),
        (ServerConfig::builder().shards(1_000).build(), "shard.shards"),
    ] {
        let err = broken.unwrap_err();
        let ServeError::InvalidConfig(reason) = &err else {
            panic!("expected InvalidConfig, got {err:?}");
        };
        assert!(reason.contains(needle), "{reason} should name {needle}");
        assert!(!err.is_retryable(), "a config error cannot be retried away");
    }
}

#[test]
fn multi_shard_config_is_rejected_by_a_single_server() {
    let f = fixture();
    let registry = Arc::new(ModelRegistry::new(f.plan.clone()));
    let config = ServerConfig::builder().shards(2).build().unwrap();
    let err = PredictionServer::start(Arc::clone(&f.db), registry, config).unwrap_err();
    let ServeError::InvalidConfig(reason) = &err else {
        panic!("expected InvalidConfig, got {err:?}");
    };
    assert!(reason.contains("ShardRouter"), "{reason} should point at ShardRouter");
}

#[test]
fn full_queue_sheds_with_typed_overloaded_and_submit_never_blocks() {
    let f = fixture();
    let server = start(
        f,
        ServerConfig::builder()
            .workers(1)
            .max_batch(1)
            .max_wait(Duration::from_micros(50))
            .queue_capacity(2)
            .chaos(stall_all(20))
            .build()
            .unwrap(),
    );

    // Flood far past capacity without ever waiting. With the single worker
    // stalled 20 ms per one-row batch, the 2-slot queue must fill.
    let mut admitted = Vec::new();
    let mut sheds = 0usize;
    for k in 0..200 {
        match submit_one(&server, f.rows[k % f.rows.len()]) {
            Ok(h) => admitted.push(h),
            Err(ServeError::Overloaded { queue_depth, capacity }) => {
                assert_eq!(capacity, 2);
                assert!(queue_depth >= capacity, "shed while not full: {queue_depth}");
                sheds += 1;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(sheds > 0, "200 instant submits against a stalled 2-slot queue must shed");
    assert!(!admitted.is_empty(), "some requests must also be admitted");

    // Drain guarantee: every admitted request is answered — correctly.
    let n_admitted = admitted.len();
    for h in admitted {
        let p = h.wait().expect("admitted requests are scored");
        let i = f.rows.iter().position(|&r| r == p.row).unwrap();
        assert_eq!(p.label, f.expected[i]);
    }
    let report = server.shutdown();
    assert_eq!(report.requests, n_admitted as u64);
    assert_eq!(report.shed, sheds as u64);
    assert_eq!(report.errors, 0);
}

#[test]
fn queued_past_deadline_is_answered_with_deadline_exceeded() {
    let f = fixture();
    let server = start(
        f,
        ServerConfig::builder()
            .workers(1)
            .max_batch(1)
            .max_wait(Duration::from_micros(50))
            .queue_capacity(64)
            .chaos(stall_all(10))
            .build()
            .unwrap(),
    );

    // Occupy the worker (its batch stalls 10 ms), then queue requests that
    // allow only 1 ms: they must expire before the worker reaches them.
    let occupier = submit_one(&server, f.rows[0]).unwrap();
    let tight: Vec<_> = (0..5)
        .map(|k| {
            let req =
                ServeRequest::row(f.rows[k % f.rows.len()]).deadline(Duration::from_millis(1));
            server.serve(req).unwrap().pop().expect("one handle")
        })
        .collect();

    occupier.wait().expect("the undeadlined occupier is scored");
    let mut expired = 0;
    for h in tight {
        match h.wait() {
            Err(ServeError::DeadlineExceeded { waited }) => {
                assert!(waited >= Duration::from_millis(1), "expired early after {waited:?}");
                expired += 1;
            }
            Ok(_) => {} // collected before its deadline — legal, just fast
            Err(e) => panic!("unexpected answer: {e}"),
        }
    }
    assert!(expired > 0, "a 1 ms deadline behind a 10 ms stall must expire");
    let report = server.shutdown();
    assert_eq!(report.deadline_expired, expired);
    assert_eq!(report.requests, 6, "expiry answers requests, it does not un-admit them");
}

#[test]
fn begin_shutdown_closes_admission_but_drains_admitted_requests() {
    let f = fixture();
    let server = start(
        f,
        ServerConfig::builder()
            .workers(2)
            .max_batch(8)
            .queue_capacity(64)
            .chaos(stall_all(2))
            .build()
            .unwrap(),
    );

    // A multi-row ServeRequest is all-or-nothing: one call, 20 handles.
    let rows: Vec<Row> = (0..20).map(|k| f.rows[k % f.rows.len()]).collect();
    let handles = server.serve(ServeRequest::new(rows)).unwrap();
    assert_eq!(handles.len(), 20, "one handle per row, in input order");
    server.begin_shutdown();

    // Admission is closed immediately...
    let err = submit_one(&server, f.rows[0]).unwrap_err();
    assert_eq!(err, ServeError::ShuttingDown);
    assert!(!err.is_retryable());

    // ...but everything admitted before is still scored and answered.
    for h in handles {
        let p = h.wait().expect("admitted before shutdown, must be answered");
        let i = f.rows.iter().position(|&r| r == p.row).unwrap();
        assert_eq!(p.label, f.expected[i]);
    }
    let report = server.shutdown();
    assert_eq!(report.requests, 20);
    assert_eq!(report.errors, 0);
}

#[test]
fn dropped_handles_do_not_wedge_the_server() {
    let f = fixture();
    let server = start(f, ServerConfig::builder().workers(1).build().unwrap());
    // The caller walks away; the request is still scored, the undeliverable
    // reply is counted, and the server keeps serving.
    drop(submit_one(&server, f.rows[0]).unwrap());
    let p = server.predict(f.rows[1]).unwrap();
    assert_eq!(p.label, f.expected[1]);
    let report = server.shutdown();
    assert_eq!(report.requests, 2);
    assert_eq!(report.errors, 1, "exactly the abandoned reply");
}
