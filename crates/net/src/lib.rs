//! crossmine-net: the wire-protocol front end for the prediction
//! server.
//!
//! One TCP port, two protocols, zero external dependencies:
//!
//! * **HTTP/1.1** — `POST /predict` with a JSON batch body, keep-alive
//!   and pipelining supported, typed JSON error bodies.
//! * **Binary** — length-prefixed frames ([`frame`]) with batch decode
//!   straight into the relational [`Row`](crossmine_relational::Row)
//!   representation.
//!
//! The first byte of a connection picks the protocol ([`sniff`]). A
//! single nonblocking poll thread ([`listener`]) owns every socket and
//! sleeps in epoll until one of them, or the backend's [`Waker`], is
//! ready; per-connection protocol state is a pure state machine ([`conn`])
//! that is unit-tested without sockets. The serve crate plugs in as a
//! [`Backend`] and maps its error taxonomy onto [`WireStatus`] codes —
//! overload is a typed `429` answered from the admission check, never a
//! blocked accept loop.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "crossmine-net needs Linux: the poll thread blocks in epoll and wakes on an eventfd"
);

pub mod conn;
pub mod frame;
pub mod http;
pub mod json;
pub mod listener;
pub mod metrics;
// The epoll and eventfd bindings: the one module allowed `unsafe_code`.
#[allow(unsafe_code)]
mod poller;
pub mod sniff;
pub mod wire;

pub use conn::{Connection, NetLimits, Protocol, WireReject};
pub use listener::{Backend, NetConfig, NetListener};
pub use metrics::{NetCountersSnapshot, NetMetrics};
pub use poller::Waker;
pub use wire::{BatchReply, WireStatus};
