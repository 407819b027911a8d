//! # cs-eql — the Extended Query Language
//!
//! EQL (paper §2) combines Basic Graph Patterns with Connecting Tree
//! Patterns: `SELECT … WHERE { (s, e, d)… CONNECT(t1, …, tm -> w)
//! [filters] }`. This crate provides the lexer, parser, AST, and the
//! §3 evaluation strategy wiring `cs-engine` (BGPs, joins) to
//! `cs-core` (CTP search).
//!
//! Queries execute through a [`Session`], which owns the execution
//! options and a shape-keyed BGP plan cache, so a stream of
//! structurally similar queries amortises planning (Fig. 13):
//!
//! ```
//! use cs_eql::Session;
//! use cs_graph::figure1;
//!
//! let g = figure1();
//! let session = Session::new(&g);
//! let r = session.run(r#"
//!     SELECT x, w WHERE {
//!         (x : type = "entrepreneur", "citizenOf", "USA")
//!         CONNECT(x, "France" -> w) MAX 3 SCORE edgecount
//!     }
//! "#).unwrap();
//! assert!(r.rows() > 0);
//! ```
//!
//! Beyond one-shot [`Session::run`], a session offers
//! [`Session::prepare`] + [`Session::execute`] (parse once, execute
//! many), [`Session::execute_batch`] (CTP jobs of many queries in one
//! dispatch round), and [`Session::execute_streaming`] (a pull
//! iterator of connecting trees with TOP-k-style early termination).
//!
//! Owning sessions serve **live graphs**: [`Session::mutate`] applies
//! a [`cs_graph::Mutation`] batch and invalidates exactly the cached
//! plans and results the batch can affect, and [`Session::watch`]
//! registers a standing query whose [`Watch::poll`] emits result
//! deltas (see the [`watch`] module).

#![forbid(unsafe_code)]
// L002: library code reports failures as typed errors, never by
// panicking. A justified exception is a scoped
// `#[expect(clippy::…, reason = "…")]`; tests are exempt (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]

pub mod ast;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod result_cache;
pub mod session;
pub mod watch;

pub use ast::{CtpAst, CtpFiltersAst, EdgePatternAst, QueryAst, QueryForm, TermAst};
pub use exec::{explain_plan, EqlError, ExecOptions, ExecStats, QueryResult, SeedNarrowing};
pub use parser::{parse, ParseError};
pub use result_cache::{
    CacheCounters, CtpSignature, GraphToken, ResultCache, ResultCacheMode, SharedResultCache,
    DEFAULT_RESULT_CACHE_CAPACITY,
};
pub use session::{PreparedQuery, ResultStream, Session};
pub use watch::{Watch, WatchDelta, WatchSkip};
