//! # gcomm-serve — the persistent compile service
//!
//! Compiling one mini-HPF kernel is fast, but editor integrations, CI
//! loops, and parameter sweeps issue the *same* compiles over and over
//! with millisecond-scale process startup dwarfing the work. This crate
//! turns the gcomm pipeline into a long-lived service (DESIGN.md §12):
//!
//! * **Protocol** ([`protocol`]): one JSON object per request/response
//!   (`compile`, `stats`, `version`, `ping`, `sleep`, `shutdown`) over
//!   two transports — NDJSON lines on stdio, 4-byte length-delimited
//!   frames on TCP ([`frame`]). The parser ([`json`]) is hand-rolled on
//!   `std` only, depth- and size-limited, and never panics on garbage.
//! * **Content-addressed caching** ([`service`]): compile responses are
//!   keyed by the fingerprint of (source, strategy, budget, sim profile)
//!   with the full key stored against collisions, bounded by bytes with
//!   LRU eviction. A cache hit is **bit-identical** to a cold compile —
//!   the cache stores the rendered response payload itself.
//! * **One listener** ([`server`]): accept loop, frame reader, dispatch,
//!   response writer and drain exist once, calling the [`Service`]
//!   directly.
//! * **Batching & backpressure** ([`service`], [`server`]): requests feed
//!   a bounded queue in front of a `gcomm-par` worker pool
//!   (`--jobs`/`GCOMM_JOBS`); a full queue rejects with `overloaded`
//!   instead of buffering. Per-request budgets ride on `gcomm-guard`.
//! * **Observability**: a request ticks the `gcomm-obs` registry of the
//!   connection or pool job answering it — registries that outlive
//!   requests, summed per `stats` request — so the stable `stats` form is
//!   invariant under the worker count; latency histograms of the server's
//!   stops ride in the unstable form.
//! * **Graceful drain** ([`server::ShutdownFlag`]): a `shutdown` request
//!   or SIGTERM/SIGINT stops accepting, finishes every accepted job,
//!   flushes its response, and exits cleanly.
//! * **Crash-safe persistence** (`--persist`, DESIGN.md §15): cache
//!   inserts write through to a `gcomm-store` segmented log; a restarted
//!   service recovers it — truncating torn records, quarantining anything
//!   failing its checksum — and warms the in-memory cache before accepting
//!   its first request.
//!
//! Everything here is `std`-only, like the rest of the workspace.

pub mod cli;
pub mod client;
pub mod frame;
pub mod json;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::{compile_request, Client};
pub use frame::DEFAULT_MAX_FRAME;
pub use protocol::{CompileReq, Request, SimSpec, PROTOCOL};
pub use server::{serve_lines, spawn, ServerHandle, ShutdownFlag};
pub use service::{CacheKey, Service, ServiceConfig};

/// The single workspace-level version: every crate inherits
/// `workspace.package.version`, so this constant is the version of the
/// whole toolchain, not just this crate.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
