//! # cs-graph — graph substrate for connection search
//!
//! The data-model layer of the *Integrating Connection Search in Graph
//! Queries* reproduction: an immutable labelled multigraph (paper
//! Def. 2.1) with bidirectional adjacency, the node/edge predicate
//! language (Def. 2.2), a triple-format loader, workload generators for
//! every synthetic benchmark in the paper's evaluation, and the Figure 1
//! running example.
//!
//! ```
//! use cs_graph::{figure1, Predicate, matching_nodes};
//! let g = figure1();
//! let pols = matching_nodes(&g, &Predicate::typed("politician"));
//! assert_eq!(pols.len(), 2); // Elon, Falcon
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
// L001: every unsafe block and impl carries a `// SAFETY:` comment.
#![deny(clippy::undocumented_unsafe_blocks)]
// L002: library code reports failures as typed errors, never by
// panicking. A justified exception is a scoped
// `#[expect(clippy::…, reason = "…")]`; tests are exempt (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]

pub mod binfmt;
mod builder;
pub mod figure1;
pub mod fxhash;
pub mod generate;
mod ids;
mod interner;
mod model;
pub mod mutate;
pub mod ntriples;
mod predicate;
pub mod resolve;
pub mod snapshot;
mod source;
pub mod stats;
mod storage;
pub mod subgraph;
mod value;

pub use builder::GraphBuilder;
pub use figure1::figure1;
pub use ids::{EdgeId, LabelId, NodeId};
pub use interner::Interner;
pub use model::{Adj, EdgeData, Graph, NodeRef};
pub use mutate::{Applied, Mutation, MutationRecord, DEFAULT_COMPACT_THRESHOLD};
pub use predicate::{glob_match, matching_nodes, CmpOp, Condition, Predicate, PropRef};
pub use resolve::MutationBatch;
pub use source::load_graph;
pub use stats::{Cardinalities, LabelCard};
pub use subgraph::extract_subgraph;
pub use value::Value;
