//! # cs-engine — conjunctive graph query engine substrate
//!
//! The paper delegates BGP evaluation and final joins to PostgreSQL
//! (§5.1); this crate is the equivalent in-memory substrate: binding
//! tables with relational operators (selection, projection, natural
//! hash join, distinct, sort, limit) over flat rows, and a BGP matcher
//! driven by a statistics-based planner — per-pattern [`AccessPath`]s
//! with cardinality estimates from the graph's cached
//! [`cs_graph::Cardinalities`] snapshot, ordered into a cost-based
//! left-deep plan ([`plan_bgp`], [`explain_plan`]) that runs as an
//! index nested-loop extension of the rows built so far.
//!
//! ```
//! use cs_engine::{Bgp, Term, eval_bgp};
//! use cs_graph::{figure1, Predicate};
//!
//! let g = figure1();
//! let mut bgp = Bgp::new();
//! bgp.push(
//!     Term::pred("x", Predicate::typed("entrepreneur")),
//!     Term::pred("e", Predicate::label("citizenOf")),
//!     Term::constant("France", 0),
//! );
//! let table = eval_bgp(&g, &bgp);
//! assert_eq!(table.len(), 2); // Alice, Doug
//! ```

#![forbid(unsafe_code)]
// L002: library code reports failures as typed errors, never by
// panicking. A justified exception is a scoped
// `#[expect(clippy::…, reason = "…")]`; tests are exempt (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]

mod bgp;
mod binding;
mod cache;
mod plan;
mod table;

pub use bgp::{
    eval_bgp, eval_bgp_with_plan, join_all, pattern_components, Bgp, Term, TriplePattern,
};
pub use binding::Binding;
pub use cache::{bgp_shape, PlanCache};
pub use plan::{choose_access, explain_plan, plan_bgp, AccessPath, BgpPlan, PatternPlan};
pub use table::Table;
