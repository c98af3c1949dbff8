#![warn(missing_docs)]

//! # recloud-server
//!
//! Placement-as-a-service: the reCloud assessment and search pipeline
//! behind a TCP daemon, so one warm engine serves many tenants instead of
//! every CLI invocation rebuilding topologies, fault models and sampler
//! state from scratch.
//!
//! The moving parts, bottom-up:
//!
//! * [`protocol`] — the RCS1 length-prefixed binary frame codec: every
//!   frame a field list in one kind table, from which encode, decode and
//!   the documented frame table derive, over the `recloud_sampling::wire` byte
//!   buffers;
//! * [`cache`] — an LRU result cache keyed by the 128-bit
//!   [`recloud_assess::assessment_key`] fingerprint of everything that
//!   determines an assessment;
//! * [`engine`] — per-worker pools of [`recloud_assess::Engine`]s, one
//!   per preset, kept warm across requests and reseeded in place — the
//!   engine the CLI builds, so answers are bit-identical to it;
//! * [`reactor`] — the readiness-polling substrate: hand-declared
//!   `epoll` FFI on Linux, a portable non-blocking scan fallback, and
//!   the armed socket-pair waker workers use to nudge the event loop;
//! * [`server`] — the daemon: one reactor thread plus a scoped worker
//!   pool around a bounded MPMC job queue, with drain-then-exit shutdown.
//!   The reactor is a thin driver over plain types — a sans-I/O machine
//!   per connection, one dispatch over the request kinds, and admission
//!   (per-tenant budgets, then the queue bound, `Busy` past either);
//! * [`client`] + [`loadgen`] — a blocking client, a latency/throughput
//!   load generator and the CI smoke sequence.
//!
//! Everything is `std`-only, like the rest of the workspace: threads are
//! scoped `std::thread`, channels are `std::sync::mpsc`, and no external
//! crate is involved anywhere.

mod admission;
pub mod cache;
pub mod client;
mod conn;
mod dispatch;
mod driver;
pub mod engine;
pub mod loadgen;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use cache::ResultCache;
pub use client::Client;
pub use engine::EnginePool;
pub use loadgen::{run_load, smoke, smoke_fleet, smoke_stream, LoadReport, LoadgenConfig};
pub use protocol::{Preset, Request, Response, TraceResponse, TraceSpan};
pub use reactor::PollerKind;
pub use server::{ServeSummary, Server, ServerConfig};
