//! `cs-server` — the library behind `csqd`, the multi-tenant query
//! server. The `csqd` binary lives in the root package
//! (`src/bin/csqd.rs`), beside `csq`; this crate has no binary.
//!
//! Everything the paper's engine computes in-process, served over TCP:
//! N clients share one loaded graph (an mmap snapshot or generated
//! dataset), each connection gets its own [`Session`], and a global
//! admission-controlled scheduler shares a fixed number of execution
//! slots fairly across tenants. Each connection runs its own queries on
//! its two threads. The pieces:
//!
//! * [`proto`] — the `csq/1` length-prefixed binary protocol;
//! * [`scheduler`] — bounded, tenant-fair admission and execution slots;
//! * [`server`] — the accept and per-connection threading around them;
//! * [`client`] — the blocking client (`csq connect`, `csq
//!   bench-serve`, tests).
//!
//! Per-query **deadlines** and **cooperative cancellation** ride the
//! typed path in `cs-eql` ([`cs_eql::ExecOptions::deadline`] /
//! [`cs_eql::ExecOptions::cancel`]): the engines' search loops poll a
//! shared flag every 64 steps, so a timed-out or cancelled query stops
//! mid-search and its connection receives a typed error frame instead
//! of a result.
//!
//! **Live graphs**: the `mutate` opcode resolves a [`WireMutation`]
//! batch with [`cs_graph::MutationBatch`] (the rule `csq watch` scripts
//! use too) and applies it by *epoch swap* (clone the shared graph,
//! apply under one generation bump, swap the `Arc`), `subscribe`
//! registers a standing query, and `poll` re-emits its result delta —
//! with the watch's generation / label-footprint / reach-probe layers
//! deciding when nothing needs to re-run (reported as [`PollSkip`]).
//!
//! [`Session`]: cs_eql::Session

#![forbid(unsafe_code)]
// L002: library code reports failures as typed errors, never by
// panicking. A justified exception is a scoped
// `#[expect(clippy::…, reason = "…")]`; tests are exempt (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod client;
pub mod proto;
pub mod scheduler;
pub mod server;

pub use client::{Canceller, Client, ClientError};
pub use proto::{
    DeltaReply, ErrorCode, ErrorReply, MutateReply, PollSkip, QueryReply, RequestHeader,
    SubscribeReply, WireMutation,
};
pub use scheduler::{AdmitError, Scheduler, SchedulerConfig, SchedulerStats};
pub use server::{Server, ServerConfig};
