//! # crossmine-serve
//!
//! The inference subsystem of the CrossMine reproduction: everything needed
//! to take a trained [`CrossMineModel`](crossmine_core::CrossMineModel)
//! and serve predictions under concurrent load.
//!
//! * [`plan`] — the **clause-plan compiler**: lowers a model against a
//!   schema into a [`CompiledPlan`], front-loading all validation (join
//!   edges, path chaining, the active-relation invariant, attribute types,
//!   dictionary codes) so evaluation is panic-free and revalidation-free.
//! * [`eval`] — the **batched evaluator**: scores N target rows with one
//!   tuple-ID-propagation pass per clause through per-worker
//!   [`ServeScratch`] buffers; core's single clause evaluator, so
//!   byte-identical to
//!   [`CrossMineModel::predict`](crossmine_core::CrossMineModel::predict),
//!   over the base database, base + a delta overlay
//!   ([`PredictionServer::apply_delta`]), or a
//!   [`DiskDatabase`](crossmine_storage::DiskDatabase) (paper §8).
//! * [`registry`] — **lock-free model hot-swap**: wait-free epoch-stamped
//!   snapshots; a batch is always scored under exactly one model.
//! * [`server`] — the **concurrent micro-batching server**: bounded
//!   admission queue, worker pool, flush on `max_batch`/`max_wait`,
//!   drain-based shutdown with zero dropped requests.
//! * [`metrics`] — lock-free counters and log₂ latency/batch-size
//!   histograms with a text report.
//! * [`error`] — the typed [`ServeError`] contract: overload shedding,
//!   per-request deadlines, worker restarts, drain-based shutdown — every
//!   degradation is a value, never a crash.
//! * [`chaos`] — runtime fault injection ([`ChaosConfig`]): stalls,
//!   scoring panics, oversized batches, exercised by `loadgen --chaos`
//!   and the chaos test suite.
//! * [`telemetry`] — the opt-in **live telemetry endpoint**
//!   ([`ServerConfig::telemetry_addr`]): `GET /metrics` in Prometheus
//!   text format, `GET /healthz` tracking the admission state machine,
//!   `GET /buildinfo`, served by one `std::net` thread with zero cost
//!   when disabled.
//! * [`net`] — the opt-in **wire front end** ([`ServerConfig::net`]):
//!   one TCP port speaking HTTP/1.1 (`POST /predict`) and
//!   length-prefixed binary frames (the `crossmine-net` crate), bridged
//!   onto the same admission path as in-process submitters, with the
//!   [`ServeError`] taxonomy pinned onto typed wire statuses
//!   ([`wire_status_for`]).
//! * [`request`] — the unified submission surface: one
//!   [`ServeRequest`] builder (rows, deadline, trace, shard hint)
//!   replaces the per-combination `submit*` methods.
//! * [`shard`] — **sharded, shared-nothing serving**: a [`ShardRouter`]
//!   hash-partitions the target relation across N full server shards,
//!   each with its own queue, workers, overlay slot, and registry slot,
//!   enabling zero-downtime *rolling* model installs
//!   ([`ShardRouter::rolling_install`]).
//!
//! [`PredictionServer::apply_delta`]: server::PredictionServer::apply_delta
//!
//! ```
//! use std::sync::Arc;
//! use crossmine_core::CrossMine;
//! use crossmine_relational::Row;
//! use crossmine_serve::{CompiledPlan, ModelRegistry, PredictionServer, ServerConfig};
//!
//! let db = crossmine_synth::generate(&crossmine_synth::GenParams {
//!     num_relations: 3, expected_tuples: 60, min_tuples: 20, ..Default::default()
//! });
//! let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
//! let model = CrossMine::default().fit(&db, &rows).unwrap();
//! let expected = model.predict(&db, &rows).unwrap();
//!
//! let plan = CompiledPlan::compile(&model, &db.schema).unwrap();
//! let registry = Arc::new(ModelRegistry::new(plan));
//! let server = PredictionServer::start(Arc::new(db), registry, ServerConfig::default())
//!     .expect("default config is valid");
//! for (i, &row) in rows.iter().enumerate() {
//!     assert_eq!(server.predict(row).unwrap().label, expected[i]);
//! }
//! let report = server.shutdown();
//! assert_eq!(report.requests, rows.len() as u64);
//! assert_eq!(report.errors, 0);
//! assert_eq!(report.shed + report.deadline_expired + report.worker_restarts, 0);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod error;
pub mod eval;
pub mod metrics;
pub mod net;
pub mod plan;
pub mod registry;
pub mod request;
pub mod server;
pub mod shard;
pub mod telemetry;

pub use chaos::{ChaosAction, ChaosConfig};
pub use crossmine_core::explain::{ClauseFire, LiteralMatch, RowExplanation};
pub use crossmine_net::{NetConfig, NetLimits, NetMetrics, WireStatus};
pub use crossmine_obs::{
    ObsHandle, ProfileConfig, Profiler, ServeReport, StoredTrace, TraceConfig, TraceCtx, TraceId,
    TraceStats, Tracer,
};
pub use error::ServeError;
pub use eval::{
    evaluate_batch, evaluate_batch_overlay, evaluate_batch_overlay_traced, evaluate_batch_traced,
    predict_disk, OverlayScratch, ServeScratch,
};
pub use metrics::{Histogram, MetricsSnapshot, ServeMetrics};
pub use net::{wire_status_for, ServeBackend};
pub use plan::{CompiledPlan, PlanError, PlanStats};
pub use registry::{ModelRegistry, ModelSnapshot};
pub use request::ServeRequest;
pub use server::{
    DeltaStats, ExplainedPrediction, Prediction, PredictionHandle, PredictionServer, ServerConfig,
    ServerConfigBuilder, MAX_SHARDS,
};
pub use shard::{shard_of_row, RouterStats, ShardConfig, ShardRouter, ShardStats};
pub use telemetry::{BuildInfo, HealthState};
