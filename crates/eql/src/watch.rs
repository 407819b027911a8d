//! Standing queries over a live graph: register a query with
//! [`Session::watch`], mutate the graph, and [`Watch::poll`] emits the
//! **result delta** — which answer rows appeared and which disappeared
//! — instead of making the caller re-run and re-diff by hand.
//!
//! A poll is layered so the expensive step (full re-evaluation) runs
//! only when the mutations could actually change the answer:
//!
//! 1. **Generation check** — the graph's
//!    [`generation`](cs_graph::Graph::generation) is unchanged since
//!    the last poll: nothing to do ([`WatchSkip::Unchanged`]).
//! 2. **Label footprint** — every label a mutation batch touched
//!    (edge labels, inserted-node labels and types, from the graph's
//!    [`mutation log`](cs_graph::Graph::mutations_since)) is disjoint
//!    from the labels the query can observe: the answer provably did
//!    not change ([`WatchSkip::LabelsDisjoint`]). Queries with an
//!    unconstrained traversal (a CTP without `LABEL`, a non-equality
//!    edge predicate) observe every label and never take this skip.
//! 3. **Reach probe** — for pattern-free queries, each CTP runs the
//!    [`cs_core::delta`] probe: a result tree can appear or disappear
//!    only if it contains a delta-touched node, so if some explicit
//!    seed set is unreachable from every touched node (within `MAX`,
//!    through `LABEL`-allowed edges), the delta is provably irrelevant
//!    ([`WatchSkip::DeltaUnreachable`]).
//! 4. **Re-evaluate and diff** — otherwise the query re-runs (plans
//!    and caches already invalidated by [`Session::mutate`]) and the
//!    canonical row renderings are diffed against the previous
//!    snapshot.
//!
//! Rows are rendered with node identities (`Alice(n0)`), so the diff
//! is stable across re-evaluations and graph compactions (node ids
//! survive [`compact`](cs_graph::Graph::compact); edge ids do not, and
//! are therefore never part of a rendering).
//!
//! ```
//! use cs_eql::Session;
//! use cs_graph::{figure1, matching_nodes, Predicate};
//!
//! let mut session = Session::from_graph(figure1());
//! let mut watch = session
//!     .watch(r#"SELECT x WHERE { (x, "citizenOf", "France") }"#)
//!     .unwrap();
//!
//! // An unrelated mutation is skipped without re-evaluating…
//! session.mutate(vec![cs_graph::Mutation::InsertNode {
//!     label: "Mars".into(),
//!     types: vec!["place".into()],
//! }]).unwrap();
//! let delta = watch.poll(&session).unwrap();
//! assert!(delta.skipped.is_some() && delta.is_empty());
//!
//! // …while a matching edge insert is reported as an added row.
//! let bob = matching_nodes(session.graph(), &Predicate::label("Bob"))[0];
//! let france = matching_nodes(session.graph(), &Predicate::label("France"))[0];
//! session.mutate(vec![cs_graph::Mutation::InsertEdge {
//!     src: bob,
//!     label: "citizenOf".into(),
//!     dst: france,
//! }]).unwrap();
//! let delta = watch.poll(&session).unwrap();
//! assert_eq!(delta.added.len(), 1);
//! assert!(delta.added[0].contains("Bob"));
//! ```

use crate::ast::{QueryAst, QueryForm, TermAst};
use crate::exec::{ctp_filters, seed_specs, EqlError, QueryResult};
use crate::session::{PreparedQuery, Session};
use cs_core::delta::{probe_delta, DEFAULT_PROBE_BUDGET};
use cs_core::SeedSets;
use cs_engine::Binding;
use cs_graph::{Graph, NodeId};

/// Why a [`Watch::poll`] proved re-evaluation unnecessary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchSkip {
    /// The graph generation is unchanged since the last poll.
    Unchanged,
    /// Every mutated label is outside the query's label footprint.
    LabelsDisjoint,
    /// The [`cs_core::delta`] reach probe proved no result tree
    /// through the delta can exist.
    DeltaUnreachable,
}

/// One poll's outcome: the rows that appeared and disappeared since
/// the previous poll (empty on a skip), and how the poll was decided.
#[derive(Debug)]
pub struct WatchDelta {
    /// The graph generation this delta is current as of.
    pub generation: u64,
    /// Rendered rows present now but not at the previous poll.
    pub added: Vec<String>,
    /// Rendered rows present at the previous poll but gone now.
    pub removed: Vec<String>,
    /// `Some` when a relevance layer proved re-evaluation unnecessary
    /// (`added`/`removed` are then empty by construction); `None` when
    /// the query actually re-ran.
    pub skipped: Option<WatchSkip>,
    /// Nodes the reach probe visited (0 unless layer 3 ran).
    pub probe_visited: usize,
}

impl WatchDelta {
    /// True if the answer did not change.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// A standing query created by [`Session::watch`]: holds the prepared
/// query, the last generation polled, and the canonical rendering of
/// the current answer rows.
///
/// A watch must be polled against the session it was created on (or a
/// successor over a clone of the same graph, as the server's epoch
/// swap produces — generations are preserved by [`Graph::clone`]).
pub struct Watch {
    prepared: PreparedQuery,
    generation: u64,
    /// Sorted canonical renderings of the current answer rows.
    rows: Vec<String>,
    /// Sorted label footprint of the query; meaningful only when
    /// `wildcard` is false.
    labels: Vec<String>,
    /// True if the query can observe edges/nodes of any label, so the
    /// footprint skip never applies.
    wildcard: bool,
}

impl Session<'_> {
    /// Registers a standing `SELECT` query: executes it once for the
    /// baseline answer and returns the [`Watch`] to poll after
    /// mutations. See the [module docs](crate::watch) for the
    /// relevance layers a poll goes through.
    pub fn watch(&self, text: &str) -> Result<Watch, EqlError> {
        let prepared = self.prepare(text)?;
        if prepared.ast().form != QueryForm::Select {
            return Err(EqlError::Validate(
                "watch requires a SELECT query (poll an ASK by re-running it)".into(),
            ));
        }
        let result = self.execute(&prepared)?;
        let rows = render_rows(self.graph(), &result);
        let (labels, wildcard) = label_footprint(prepared.ast());
        Ok(Watch {
            prepared,
            generation: self.graph().generation(),
            rows,
            labels,
            wildcard,
        })
    }
}

impl Watch {
    /// The generation the watch last synchronised with.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The current answer's rendered rows, sorted.
    pub fn rows(&self) -> &[String] {
        &self.rows
    }

    /// Brings the watch up to date with `session`'s graph and returns
    /// what changed. Skips re-evaluation when a relevance layer proves
    /// the mutations cannot affect the answer.
    pub fn poll(&mut self, session: &Session<'_>) -> Result<WatchDelta, EqlError> {
        let g = session.graph();
        let generation = g.generation();
        if generation == self.generation {
            return Ok(self.skip(generation, WatchSkip::Unchanged, 0));
        }
        // The mutation log tells us *what* changed since the last
        // poll; past the log horizon we must assume everything did.
        let (touched, batch_labels) = match g.mutations_since(self.generation) {
            None => return self.reevaluate(session, generation, 0),
            Some(recs) => {
                let mut touched: Vec<NodeId> = recs
                    .iter()
                    .flat_map(|r| r.touched_nodes.iter().copied())
                    .collect();
                touched.sort_unstable();
                touched.dedup();
                let mut labels: Vec<&str> = recs
                    .iter()
                    .flat_map(|r| r.labels.iter())
                    .map(|&l| g.resolve(l))
                    .collect();
                labels.sort_unstable();
                labels.dedup();
                let labels: Vec<String> = labels.into_iter().map(str::to_string).collect();
                (touched, labels)
            }
        };
        // Layer 2: label-footprint disjointness.
        if !self.wildcard
            && batch_labels
                .iter()
                .all(|l| self.labels.binary_search(l).is_err())
        {
            self.generation = generation;
            return Ok(self.skip(generation, WatchSkip::LabelsDisjoint, 0));
        }
        // Layer 3: the reach probe, for pattern-free queries (with
        // patterns, the seed sets themselves derive from mutable BGP
        // tables and the probe's targets would be stale).
        if self.prepared.ast().patterns.is_empty() {
            if let Some(visited) = self.probe(session, &touched) {
                self.generation = generation;
                return Ok(self.skip(generation, WatchSkip::DeltaUnreachable, visited));
            }
        }
        self.reevaluate(session, generation, 0)
    }

    /// Runs the reach probe for every CTP; `Some(visited)` when *all*
    /// of them prove the delta irrelevant, `None` when any CTP may be
    /// affected (or a probe could not be set up — conservative).
    fn probe(&self, session: &Session<'_>, touched: &[NodeId]) -> Option<usize> {
        let g = session.graph();
        let mut visited = 0usize;
        for ctp in &self.prepared.ast().ctps {
            let (specs, _) = seed_specs(g, ctp, &[]);
            let Ok(seeds) = SeedSets::new(specs) else {
                return None;
            };
            let filters = ctp_filters(ctp, session.options());
            let out = probe_delta(g, &seeds, &filters, touched, DEFAULT_PROBE_BUDGET);
            visited += out.visited;
            if out.relevant {
                return None;
            }
        }
        Some(visited)
    }

    fn skip(&self, generation: u64, why: WatchSkip, probe_visited: usize) -> WatchDelta {
        WatchDelta {
            generation,
            added: Vec::new(),
            removed: Vec::new(),
            skipped: Some(why),
            probe_visited,
        }
    }

    fn reevaluate(
        &mut self,
        session: &Session<'_>,
        generation: u64,
        probe_visited: usize,
    ) -> Result<WatchDelta, EqlError> {
        let result = session.execute(&self.prepared)?;
        let rows = render_rows(session.graph(), &result);
        let (added, removed) = diff_sorted(&self.rows, &rows);
        self.rows = rows;
        self.generation = generation;
        Ok(WatchDelta {
            generation,
            added,
            removed,
            skipped: None,
            probe_visited,
        })
    }
}

/// Renders every answer row into its canonical string form, sorted.
/// Node bindings render as `name(nID)`; tree bindings render their
/// edge sets by endpoint identities and label strings (edge ids are
/// not compaction-stable and never appear).
pub(crate) fn render_rows(g: &Graph, result: &QueryResult) -> Vec<String> {
    let vars = result.table.vars();
    let mut out: Vec<String> = result
        .table
        .rows()
        .map(|row| {
            row.iter()
                .zip(vars)
                .map(|(b, v)| format!("{v}={}", render_binding(g, result, v, *b)))
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

fn render_node(g: &Graph, n: NodeId) -> String {
    format!("{}(n{})", g.node_label(n), n.0)
}

fn render_binding(g: &Graph, result: &QueryResult, var: &str, b: Binding) -> String {
    match b {
        Binding::Node(n) => render_node(g, n),
        Binding::Edge(e) => {
            let d = g.edge(e);
            format!(
                "{}-{}-{}",
                render_node(g, d.src),
                g.resolve(d.label),
                render_node(g, d.dst)
            )
        }
        Binding::Tree(_) => match result.tree(var, b) {
            None => "t?".to_string(),
            Some(t) => {
                let mut edges: Vec<String> = t
                    .edges
                    .iter()
                    .map(|&e| {
                        let d = g.edge(e);
                        format!(
                            "{}-{}-{}",
                            render_node(g, d.src),
                            g.resolve(d.label),
                            render_node(g, d.dst)
                        )
                    })
                    .collect();
                edges.sort();
                if edges.is_empty() {
                    // A single-node tree (all seeds coincide).
                    t.nodes.iter().map(|&n| render_node(g, n)).collect()
                } else {
                    edges.join("+")
                }
            }
        },
    }
}

/// Set-diffs two sorted, deduplicated row lists: `(added, removed)`.
fn diff_sorted(old: &[String], new: &[String]) -> (Vec<String>, Vec<String>) {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(o), Some(n)) if o == n => {
                i += 1;
                j += 1;
            }
            (Some(o), Some(n)) if o < n => {
                removed.push(o.clone());
                i += 1;
            }
            (Some(_), Some(n)) => {
                added.push(n.clone());
                j += 1;
            }
            (Some(o), None) => {
                removed.push(o.clone());
                i += 1;
            }
            (None, Some(n)) => {
                added.push(n.clone());
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    (added, removed)
}

/// The label footprint of a query: every label/type string whose
/// mutation could change the answer, plus a `wildcard` flag set when
/// the query can observe *any* label (so the footprint skip is
/// unusable). Sound over-approximation:
///
/// * An edge pattern's rows change only through edges matching its
///   edge term — an `Eq`-label term gates on that label, anything else
///   (bare variable, glob, property test) observes every label.
///   Pattern *node* terms never force the wildcard: a new node joins a
///   pattern only via a new matching edge, which the edge term gates.
/// * A CTP traverses only `LABEL`-allowed edges; without a `LABEL`
///   filter it observes every label.
/// * A CTP seed term evaluated against the whole graph (a constant or
///   a predicate on an unbound variable) gains members from node
///   inserts: its `Eq` name/type constants join the footprint, and any
///   other shape is wildcard. Terms bound by pattern variables are
///   gated by the patterns' edge terms already.
fn label_footprint(ast: &QueryAst) -> (Vec<String>, bool) {
    let mut labels: Vec<String> = Vec::new();
    let mut wildcard = false;

    let pattern_vars: Vec<&str> = ast
        .patterns
        .iter()
        .flat_map(|p| [&p.src, &p.edge, &p.dst])
        .filter_map(|t| t.var.as_deref())
        .collect();

    for p in &ast.patterns {
        match p.edge.pred.eq_label() {
            Some(l) => labels.push(l.to_string()),
            None => wildcard = true,
        }
        for t in [&p.src, &p.dst] {
            if let Some(l) = t.pred.eq_label() {
                labels.push(l.to_string());
            } else if let Some(ty) = t.pred.eq_type() {
                labels.push(ty.to_string());
            }
        }
    }

    fn seed_term(t: &TermAst, bound: bool, labels: &mut Vec<String>, wildcard: &mut bool) {
        if bound {
            return; // gated by the binding patterns' edge terms
        }
        if let Some(l) = t.pred.eq_label() {
            labels.push(l.to_string());
        } else if let Some(ty) = t.pred.eq_type() {
            labels.push(ty.to_string());
        } else {
            // Bare unbound variable (the N seed set) or a non-Eq
            // predicate: node inserts of any label may join.
            *wildcard = true;
        }
    }
    for ctp in &ast.ctps {
        match &ctp.filters.labels {
            Some(ls) => labels.extend(ls.iter().cloned()),
            None => wildcard = true,
        }
        for t in &ctp.terms {
            let bound = t.var.as_deref().is_some_and(|v| pattern_vars.contains(&v));
            seed_term(t, bound, &mut labels, &mut wildcard);
        }
    }
    labels.sort();
    labels.dedup();
    (labels, wildcard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use cs_graph::{figure1, matching_nodes, Mutation, Predicate};

    fn node(g: &Graph, name: &str) -> NodeId {
        matching_nodes(g, &Predicate::label(name))[0]
    }

    const CITIZENS: &str = r#"SELECT x WHERE { (x, "citizenOf", "France") }"#;

    #[test]
    fn unchanged_generation_skips() {
        let session = Session::from_graph(figure1());
        let mut w = session.watch(CITIZENS).unwrap();
        let d = w.poll(&session).unwrap();
        assert_eq!(d.skipped, Some(WatchSkip::Unchanged));
        assert!(d.is_empty());
    }

    #[test]
    fn insert_reports_added_row_and_remove_reports_removed() {
        let mut session = Session::from_graph(figure1());
        let mut w = session.watch(CITIZENS).unwrap();
        let baseline = w.rows().len();
        let (bob, france) = (
            node(session.graph(), "Bob"),
            node(session.graph(), "France"),
        );
        let applied = session
            .mutate(vec![Mutation::InsertEdge {
                src: bob,
                label: "citizenOf".into(),
                dst: france,
            }])
            .unwrap();
        let d = w.poll(&session).unwrap();
        assert_eq!(d.skipped, None);
        assert_eq!(d.added.len(), 1, "Bob appears: {:?}", d.added);
        assert!(d.added[0].contains("Bob"));
        assert!(d.removed.is_empty());
        assert_eq!(w.rows().len(), baseline + 1);

        session
            .mutate(vec![Mutation::RemoveEdge {
                edge: applied.edges[0],
            }])
            .unwrap();
        let d = w.poll(&session).unwrap();
        assert_eq!(d.removed.len(), 1);
        assert!(d.removed[0].contains("Bob"));
        assert_eq!(w.rows().len(), baseline);
    }

    #[test]
    fn disjoint_labels_skip_without_reevaluation() {
        let mut session = Session::from_graph(figure1());
        let mut w = session.watch(CITIZENS).unwrap();
        let (a, b) = (node(session.graph(), "Alice"), node(session.graph(), "Bob"));
        session
            .mutate(vec![Mutation::InsertEdge {
                src: a,
                label: "emailedAboutGraphs".into(),
                dst: b,
            }])
            .unwrap();
        let d = w.poll(&session).unwrap();
        assert_eq!(d.skipped, Some(WatchSkip::LabelsDisjoint));
        // The watch is synchronised without re-running the query.
        assert_eq!(w.generation(), session.graph().generation());
        assert_eq!(
            w.poll(&session).unwrap().skipped,
            Some(WatchSkip::Unchanged)
        );
    }

    #[test]
    fn reach_probe_skips_far_delta_for_connect_query() {
        let mut session = Session::from_graph(figure1());
        // A labelled CONNECT between two fixed people: its footprint
        // contains citizenOf, so a citizenOf edge in a *disconnected*
        // region passes layer 2 but fails the reach probe.
        let mut w = session
            .watch(
                r#"SELECT w WHERE {
                    CONNECT("Alice", "Bob" -> w) LABEL "citizenOf" MAX 2
                }"#,
            )
            .unwrap();
        let islands = session
            .mutate(vec![
                Mutation::InsertNode {
                    label: "Island1".into(),
                    types: vec![],
                },
                Mutation::InsertNode {
                    label: "Island2".into(),
                    types: vec![],
                },
            ])
            .unwrap();
        session
            .mutate(vec![Mutation::InsertEdge {
                src: islands.nodes[0],
                label: "citizenOf".into(),
                dst: islands.nodes[1],
            }])
            .unwrap();
        let d = w.poll(&session).unwrap();
        assert_eq!(d.skipped, Some(WatchSkip::DeltaUnreachable));
        assert!(d.probe_visited > 0);
        assert!(d.is_empty());
    }

    #[test]
    fn connect_watch_reports_new_tree() {
        let mut session = Session::from_graph(figure1());
        let mut w = session
            .watch(r#"SELECT w WHERE { CONNECT("Doug", "France" -> w) MAX 1 }"#)
            .unwrap();
        let before = w.rows().len();
        let (doug, france) = (
            node(session.graph(), "Doug"),
            node(session.graph(), "France"),
        );
        session
            .mutate(vec![Mutation::InsertEdge {
                src: doug,
                label: "visited".into(),
                dst: france,
            }])
            .unwrap();
        let d = w.poll(&session).unwrap();
        assert_eq!(d.skipped, None, "wildcard CTP must re-evaluate");
        assert_eq!(d.added.len(), 1, "the direct edge is a new MAX-1 tree");
        assert!(d.added[0].contains("Doug") && d.added[0].contains("visited"));
        assert_eq!(w.rows().len(), before + 1);
    }

    #[test]
    fn footprint_classifies_queries() {
        let (labels, wildcard) = label_footprint(&parse(CITIZENS).unwrap());
        assert!(!wildcard);
        assert!(labels.iter().any(|l| l == "citizenOf"));
        assert!(labels.iter().any(|l| l == "France"));

        // A CTP without LABEL observes everything.
        let ast = parse(r#"SELECT w WHERE { CONNECT("Alice", "Bob" -> w) }"#).unwrap();
        let (_, wildcard) = label_footprint(&ast);
        assert!(wildcard);

        // A labelled CONNECT with constant seeds is closed.
        let ast =
            parse(r#"SELECT w WHERE { CONNECT("Alice", "Bob" -> w) LABEL "knows" }"#).unwrap();
        let (labels, wildcard) = label_footprint(&ast);
        assert!(!wildcard);
        assert_eq!(labels, ["Alice", "Bob", "knows"]);
    }

    #[test]
    fn stale_plan_and_result_caches_never_serve_old_answers() {
        let mut session = Session::from_graph(figure1());
        let mut w = session.watch(CITIZENS).unwrap();
        // Warm the result cache with a repeat run.
        let _ = session.run(CITIZENS).unwrap();
        let (bob, france) = (
            node(session.graph(), "Bob"),
            node(session.graph(), "France"),
        );
        session
            .mutate(vec![Mutation::InsertEdge {
                src: bob,
                label: "citizenOf".into(),
                dst: france,
            }])
            .unwrap();
        // The re-evaluation sees the new edge, not a cached answer.
        let d = w.poll(&session).unwrap();
        assert_eq!(d.added.len(), 1);
        let rerun = session.run(CITIZENS).unwrap();
        assert_eq!(render_rows(session.graph(), &rerun), w.rows());
    }
}
