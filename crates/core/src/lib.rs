//! # cs-core — connecting tree pattern (CTP) evaluation
//!
//! The paper's primary contribution: computing set-based CTP results
//! `g(S_1, …, S_m, F)` — all minimal trees connecting one node from
//! each seed set, traversing edges in both directions — with the
//! algorithm family BFT / BFT-M / BFT-AM / GAM / ESP / MoESP / LESP /
//! **MoLESP**, CTP filters pushed into the search, score functions, and
//! the comparison baselines (DPBF group-Steiner, path enumeration and
//! stitching).
//!
//! A GAM-family search is stepped in one place, the pull-based
//! [`CtpStream`] ([`stream_ctp`]): each `next` advances the search just
//! far enough to yield one more result, and [`evaluate_ctp`] on a
//! GAM-family algorithm is that stream drained. Every search runs on
//! the calling thread; a query's CTP searches ([`CtpJob`]) run one
//! after another.
//!
//! ```
//! use cs_core::{evaluate_ctp, Algorithm, Filters, QueueOrder, SeedSets};
//! use cs_graph::generate::star;
//!
//! let w = star(4, 2);
//! let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
//! let out = evaluate_ctp(&w.graph, &seeds, Algorithm::MoLesp,
//!                        Filters::none(), QueueOrder::SmallestFirst);
//! assert_eq!(out.results.len(), 1);
//! ```

#![forbid(unsafe_code)]
// L002: library code reports failures as typed errors, never by
// panicking. A justified exception is a scoped
// `#[expect(clippy::…, reason = "…")]`; tests are exempt (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]

pub mod algo;
pub mod baseline;
mod config;
pub mod delta;
pub mod explain;
mod result;
pub mod score;
mod seedmask;
mod seeds;
pub mod tree;

pub use algo::{
    evaluate_ctp, evaluate_ctp_with_policy, stream_ctp, Algorithm, CtpJob, CtpStream, GamConfig,
};
pub use config::{CancelFlag, Filters, PriorityFn, QueueOrder, QueuePolicy};
pub use delta::{probe_delta, ProbeOutcome, DEFAULT_PROBE_BUDGET};
pub use result::{
    check_result_minimal, sat_of_nodes, ResultSet, ResultTree, SearchOutcome, SearchStats,
};
pub use seedmask::{SeedMask, MAX_SEED_SETS};
pub use seeds::{SeedError, SeedSets, SeedSpec};
