//! # connection-search
//!
//! A Rust reproduction of *Integrating Connection Search in Graph
//! Queries* (Anadiotis, Manolescu, Mohanty — ICDE 2023): an Extended
//! Query Language (EQL) combining Basic Graph Patterns with Connecting
//! Tree Patterns (CTPs), a family of connection-search algorithms
//! (BFT, GAM, ESP, MoESP, LESP, **MoLESP**), and an in-memory
//! conjunctive graph-query engine substrate.
//!
//! This crate re-exports the public APIs of the workspace crates:
//!
//! * [`graph`] — labelled multigraph model, predicates, generators
//! * [`engine`] — conjunctive (BGP) query engine
//! * [`core`] — CTP search algorithms and baselines
//! * [`eql`] — the extended query language: parser, planner, executor
//! * [`server`] — `csqd`, the multi-tenant query server and its client
//! * [`args`] — the flag parser shared by the `csq` and `csqd` binaries
//!
//! ## Quickstart
//!
//! Queries run through a [`Session`], which caches BGP plans across
//! queries (keyed by pattern shape) and supports prepared queries,
//! cross-query batching, and streaming results:
//!
//! ```
//! use connection_search::graph::figure1;
//! use connection_search::Session;
//!
//! let g = figure1();
//! let session = Session::new(&g);
//! let q = r#"
//!     SELECT x, y, z, w WHERE {
//!         (x : type = "entrepreneur", "citizenOf", "USA")
//!         (y : type = "entrepreneur", "citizenOf", "France")
//!         (z : type = "politician",  "citizenOf", "France")
//!         CONNECT(x, y, z -> w)
//!     }
//! "#;
//! let prepared = session.prepare(q).expect("valid query");
//! let result = session.execute(&prepared).expect("executes");
//! assert!(result.rows() > 0);
//! ```

// L002: library code never panics (see the library crates' roots).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod args;

pub use cs_bench as bench;
pub use cs_core as core;
pub use cs_engine as engine;
pub use cs_eql as eql;
pub use cs_graph as graph;
pub use cs_server as server;

pub use cs_eql::{PreparedQuery, ResultStream, Session};
