//! Basic Graph Patterns (paper Defs. 2.3–2.4, 2.7) and their evaluation.
//!
//! A BGP is a connected set of edge patterns; evaluating it computes all
//! embeddings (Def. 2.7) into the graph, materialised as a [`Table`]
//! with one column per variable — step (A) of the paper's strategy (§3).

use crate::binding::Binding;
use crate::plan::{labelled_run, pinned_nodes, plan_bgp, AccessPath, BgpPlan, CheapestRuns};
use crate::table::Table;
use cs_graph::{CmpOp, Condition, EdgeId, Graph, LabelId, NodeId, Predicate, PropRef};
use std::sync::Arc;

/// One position of an edge pattern: a variable plus the predicate that
/// constrains what it may bind to. The paper's short syntax `"Alice"`
/// is `Term::constant("Alice")` — a fresh hidden variable with a
/// label-equality predicate.
#[derive(Debug, Clone)]
pub struct Term {
    /// The variable name.
    pub var: Arc<str>,
    /// The predicate constraining this variable.
    pub pred: Predicate,
}

impl Term {
    /// A plain variable with the empty predicate.
    pub fn var(name: &str) -> Self {
        Term {
            var: Arc::from(name),
            pred: Predicate::any(),
        }
    }

    /// A variable with a predicate.
    pub fn pred(name: &str, pred: Predicate) -> Self {
        Term {
            var: Arc::from(name),
            pred,
        }
    }

    /// The short syntax: a hidden variable constrained to a label
    /// constant. `hidden_id` must be unique within the query; the EQL
    /// parser manages the numbering.
    pub fn constant(label: &str, hidden_id: usize) -> Self {
        Term {
            var: Arc::from(format!("_c{hidden_id}")),
            pred: Predicate::label(label),
        }
    }
}

/// An edge pattern `(p1, p2, p3)`: source node, edge, target node.
#[derive(Debug, Clone)]
pub struct TriplePattern {
    /// Predicate/variable on the source node.
    pub src: Term,
    /// Predicate/variable on the edge.
    pub edge: Term,
    /// Predicate/variable on the target node.
    pub dst: Term,
}

/// A Basic Graph Pattern: a set of edge patterns that must be connected
/// through shared variables (Def. 2.4).
#[derive(Debug, Clone, Default)]
pub struct Bgp {
    /// The edge patterns.
    pub patterns: Vec<TriplePattern>,
}

impl Bgp {
    /// An empty BGP.
    pub fn new() -> Self {
        Bgp::default()
    }

    /// Adds an edge pattern.
    pub fn push(&mut self, src: Term, edge: Term, dst: Term) -> &mut Self {
        self.patterns.push(TriplePattern { src, edge, dst });
        self
    }

    /// All variable names, in order of first appearance.
    pub fn variables(&self) -> Vec<Arc<str>> {
        let mut vars: Vec<Arc<str>> = Vec::new();
        for p in &self.patterns {
            for t in [&p.src, &p.edge, &p.dst] {
                if !vars.iter().any(|v| v == &t.var) {
                    vars.push(t.var.clone());
                }
            }
        }
        vars
    }

    /// Checks Def. 2.4 connectivity: the variable-sharing graph over
    /// the patterns must form a single connected component.
    ///
    /// Note this is strictly stronger than requiring each pattern to
    /// share a variable with *some* other pattern — e.g. the patterns
    /// {(x,e1,y), (x,e2,z), (a,e3,b), (a,e4,c)} pass the pairwise
    /// check yet split into two components, and evaluating them as one
    /// BGP would silently compute a cross product.
    pub fn is_connected(&self) -> bool {
        pattern_components(&self.patterns).len() <= 1
    }
}

/// Groups pattern indices into maximal components connected through
/// shared variables (Def. 2.4) — union-find with path halving. Each
/// component is one BGP; a single component means the pattern set is
/// connected. Components are sorted by their smallest pattern index,
/// members ascending.
pub fn pattern_components(patterns: &[TriplePattern]) -> Vec<Vec<usize>> {
    let n = patterns.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let vars_of = |p: &TriplePattern| [p.src.var.clone(), p.edge.var.clone(), p.dst.var.clone()];
    for i in 0..n {
        for j in (i + 1)..n {
            let vi = vars_of(&patterns[i]);
            let shared = vars_of(&patterns[j]).iter().any(|v| vi.contains(v));
            if shared {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    let mut groups: cs_graph::fxhash::FxHashMap<usize, Vec<usize>> = Default::default();
    for i in 0..n {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort_by_key(|v| v[0]);
    out
}

/// A pattern predicate resolved against one graph, once per step:
/// label and type equalities become [`LabelId`] compares.
struct Resolved<'p> {
    checks: Vec<Check<'p>>,
}

/// One resolved condition.
enum Check<'p> {
    /// `l(v) = c`, with `c` interned as this id.
    Label(LabelId),
    /// `τ(v) = c`, with `c` interned as this id (nodes only).
    Type(LabelId),
    /// An equality on a label or type the graph does not hold.
    Never,
    /// Any other condition, checked as written.
    Other(&'p Condition),
}

impl<'p> Resolved<'p> {
    /// Resolves `pred` against `g`. A label-equality on `walked`, the
    /// edge label whose own runs supply the candidates, is dropped:
    /// every candidate carries it.
    fn new(g: &Graph, pred: &'p Predicate, walked: Option<LabelId>) -> Self {
        let checks = pred
            .conditions
            .iter()
            .filter_map(|c| {
                let id = || c.constant.as_str().map(|s| g.label_id(s));
                Some(match (&c.prop, c.op, id()) {
                    (PropRef::Label, CmpOp::Eq, Some(Some(l))) if Some(l) == walked => return None,
                    (PropRef::Label, CmpOp::Eq, Some(Some(l))) => Check::Label(l),
                    (PropRef::Type, CmpOp::Eq, Some(Some(t))) => Check::Type(t),
                    (PropRef::Label | PropRef::Type, CmpOp::Eq, Some(None)) => Check::Never,
                    _ => Check::Other(c),
                })
            })
            .collect();
        Resolved { checks }
    }

    #[inline]
    fn node(&self, g: &Graph, n: NodeId) -> bool {
        self.checks.iter().all(|c| match c {
            Check::Label(l) => g.node(n).label == *l,
            Check::Type(t) => g.node(n).types.contains(t),
            Check::Never => false,
            Check::Other(c) => c.matches_node(g, n),
        })
    }

    #[inline]
    fn edge(&self, g: &Graph, e: EdgeId) -> bool {
        self.checks.iter().all(|c| match c {
            Check::Label(l) => g.edge(e).label == *l,
            // Edges carry no types.
            Check::Type(_) | Check::Never => false,
            Check::Other(c) => c.matches_edge(g, e),
        })
    }
}

/// A node-position binding of an accumulated row: `Ok(None)` when the
/// position is unbound, `Err(())` when its variable is bound to an
/// edge (no node can match).
#[inline]
fn bound_node(row: &[Binding], col: Option<usize>) -> Result<Option<NodeId>, ()> {
    match col {
        None => Ok(None),
        Some(c) => row[c].as_node().map(Some).ok_or(()),
    }
}

/// Extends every row of `acc` by the embeddings of pattern `p`
/// compatible with it — one index nested-loop step. Rows come in
/// `acc`'s order, each row's extensions in the order its candidates
/// are generated:
///
/// - a bound edge variable is its own single candidate;
/// - a bound endpoint walks its labelled run of the pinned edge label
///   (the shorter of the two when both ends are bound), or, without a
///   label, its adjacency run filtered by direction;
/// - with nothing bound (the first step, from the unit row), the
///   planned access path is scanned ([`scan_candidates`]).
///
/// Runs list edges in ascending id, so a row's extensions do too.
/// Each candidate is checked against the bound values and the
/// pattern's predicates; the new columns are the pattern's unbound
/// variables, each once, in source, edge, target order.
fn extend(g: &Graph, p: &TriplePattern, access: &AccessPath, acc: &Table) -> Table {
    let mut vars = acc.vars().to_vec();
    for t in [&p.src, &p.edge, &p.dst] {
        if !vars.contains(&t.var) {
            vars.push(t.var.clone());
        }
    }
    let mut out = Table::new(vars);
    // A node and an edge are never equal bindings.
    if p.edge.var == p.src.var || p.edge.var == p.dst.var {
        return out;
    }
    let label = match p.edge.pred.eq_label() {
        Some(s) => match g.label_id(s) {
            Some(l) => Some(l),
            None => return out, // absent label => no rows
        },
        None => None,
    };
    let (src_col, edge_col, dst_col) = (
        acc.col(&p.src.var),
        acc.col(&p.edge.var),
        acc.col(&p.dst.var),
    );
    let self_loop = p.dst.var == p.src.var;
    let (push_src, push_edge) = (src_col.is_none(), edge_col.is_none());
    let push_dst = dst_col.is_none() && !self_loop;
    let src_pred = Resolved::new(g, &p.src.pred, None);
    let dst_pred = Resolved::new(g, &p.dst.pred, None);
    // Every walk but a bound edge's walks the label's own edges.
    let walked = if push_edge { label } else { None };
    let edge_pred = Resolved::new(g, &p.edge.pred, walked);

    for row in acc.rows() {
        let (Ok(s), Ok(d)) = (bound_node(row, src_col), bound_node(row, dst_col)) else {
            continue;
        };
        if s.is_some_and(|n| !src_pred.node(g, n)) || d.is_some_and(|n| !dst_pred.node(g, n)) {
            continue;
        }
        let mut emit = |e: EdgeId| {
            let ed = g.edge(e);
            let src_ok = s.map_or_else(|| src_pred.node(g, ed.src), |n| ed.src == n);
            let dst_ok = d.map_or_else(|| dst_pred.node(g, ed.dst), |n| ed.dst == n);
            if !src_ok || !dst_ok || (self_loop && ed.src != ed.dst) || !edge_pred.edge(g, e) {
                return;
            }
            let new = [
                (push_src, Binding::Node(ed.src)),
                (push_edge, Binding::Edge(e)),
                (push_dst, Binding::Node(ed.dst)),
            ];
            out.push_extended(
                row,
                new.into_iter().filter(|&(keep, _)| keep).map(|(_, b)| b),
            );
        };
        if let Some(c) = edge_col {
            if let Some(e) = row[c].as_edge() {
                emit(e);
            }
            continue;
        }
        match (s, d) {
            (None, None) => scan_candidates(g, p, access, emit),
            (Some(s), None) => walk_run(g, s, true, label, emit),
            (None, Some(d)) => walk_run(g, d, false, label, emit),
            (Some(s), Some(d)) => {
                if run_len(g, d, false, label) < run_len(g, s, true, label) {
                    walk_run(g, d, false, label, emit);
                } else {
                    walk_run(g, s, true, label, emit);
                }
            }
        }
    }
    out
}

/// The length of `n`'s run in one direction: its labelled run of
/// `label`, or without a label its whole adjacency run.
fn run_len(g: &Graph, n: NodeId, outgoing: bool, label: Option<LabelId>) -> usize {
    match label {
        Some(l) => labelled_run(g, n, l, outgoing).len(),
        None => g.degree(n),
    }
}

/// Feeds `emit` the edges leaving (`outgoing`) or entering `n`: its
/// labelled run of `label`, or without a label its adjacency entries
/// of that direction. Both are in ascending edge id.
fn walk_run(
    g: &Graph,
    n: NodeId,
    outgoing: bool,
    label: Option<LabelId>,
    mut emit: impl FnMut(EdgeId),
) {
    match label {
        Some(l) => labelled_run(g, n, l, outgoing)
            .iter()
            .for_each(|&e| emit(e)),
        None => {
            for a in g.adjacent(n) {
                if a.outgoing() == outgoing {
                    emit(a.edge());
                }
            }
        }
    }
}

/// Generates the candidate edges of a pattern with nothing bound under
/// its planned access path, and feeds each to `emit`: the label index,
/// the pinned side's labelled runs when they are shorter in total (one
/// [`CheapestRuns`] chooser, as the planner costed them), the pinned
/// nodes' adjacency runs filtered by direction, or every edge.
fn scan_candidates(
    g: &Graph,
    p: &TriplePattern,
    access: &AccessPath,
    mut emit: impl FnMut(EdgeId),
) {
    let pinned = |on_src: bool| {
        let term = if on_src { &p.src } else { &p.dst };
        pinned_nodes(g, &term.pred).map(|(_, nodes)| nodes)
    };
    match access {
        AccessPath::EdgeLabelIndex { label } | AccessPath::LabelledRun { label, .. } => {
            let Some(l) = g.label_id(label) else {
                return; // absent label => empty table
            };
            let index: &[EdgeId] = g.edges_with_label(l);
            let mut pick = CheapestRuns::new(g, l, index.len());
            if let AccessPath::LabelledRun { on_src, .. } = access {
                if let Some(nodes) = pinned(*on_src) {
                    pick.offer(nodes, *on_src);
                }
            }
            // Labelled runs list exactly the label's edges at each node,
            // in ascending edge-id order.
            let runs = pick.into_best().unwrap_or_else(|| vec![index]);
            for run in runs {
                run.iter().for_each(|&e| emit(e));
            }
        }
        // Without a label, the pinned nodes walk their adjacency runs
        // in the pattern's direction.
        AccessPath::NodeIndexScan { on_src, .. } => match pinned(*on_src) {
            Some(nodes) => {
                for &n in nodes {
                    walk_run(g, n, *on_src, None, &mut emit);
                }
            }
            None => g.edge_ids().for_each(emit),
        },
        AccessPath::FullScan => g.edge_ids().for_each(emit),
    }
}

/// Evaluates a whole BGP through the statistics-driven planner: a
/// cost-ordered left-deep plan is chosen first ([`plan_bgp`]), then
/// executed by [`eval_bgp_with_plan`].
pub fn eval_bgp(g: &Graph, bgp: &Bgp) -> Table {
    assert!(
        bgp.is_connected(),
        "BGP violates Def 2.4: patterns must be connected"
    );
    eval_bgp_with_plan(g, bgp, &plan_bgp(g, bgp))
}

/// Executes a BGP under an explicit [`BgpPlan`] (normally produced by
/// [`plan_bgp`]) as an index nested-loop extension over flat rows. The
/// plan must cover every pattern of `bgp` exactly once.
///
/// The first step scans its planned access path; every later step
/// extends each row built so far by the pattern's matching edges,
/// walked from the row's bound values (a connected BGP's later steps
/// always share a variable with the rows). No per-pattern table is
/// materialised and nothing is hash-joined.
///
/// Rows come in *plan order*: the first step's scan order, and each
/// row's extensions in ascending edge id. A one-pattern BGP therefore
/// lists its rows in access-path order.
pub fn eval_bgp_with_plan(g: &Graph, bgp: &Bgp, plan: &BgpPlan) -> Table {
    if bgp.patterns.is_empty() {
        return Table::new(Vec::new());
    }
    let mut acc = Table::unit();
    // An empty table stays empty, but its later steps still add their
    // variables to the schema.
    for step in &plan.steps {
        acc = extend(g, &bgp.patterns[step.pattern], &step.access, &acc);
    }
    // The table outlives this call: the query keeps it through its
    // CTP searches and the final join.
    acc.shrink_to_fit();
    acc
}

/// Greedy natural join of all tables: smallest first, preferring
/// join partners that share variables.
pub fn join_all(mut tables: Vec<Table>) -> Table {
    if tables.is_empty() {
        return Table::new(Vec::new());
    }
    #[expect(
        clippy::unwrap_used,
        reason = "the empty case returned above, so the minimum exists"
    )]
    let start = tables
        .iter()
        .enumerate()
        .min_by_key(|(_, t)| t.len())
        .map(|(i, _)| i)
        .unwrap();
    let mut acc = tables.swap_remove(start);
    while !tables.is_empty() {
        #[expect(
            clippy::unwrap_used,
            reason = "the while-guard keeps `tables` non-empty, so the unfiltered fallback always finds one"
        )]
        let pos = tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.vars().iter().any(|v| acc.col(v).is_some()))
            .min_by_key(|(_, t)| t.len())
            .map(|(i, _)| i)
            .or_else(|| {
                tables
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| t.len())
                    .map(|(i, _)| i)
            })
            .unwrap();
        let next = tables.swap_remove(pos);
        acc = acc.natural_join(&next);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_graph::figure1;

    /// The first BGP of the paper's Q1:
    /// (τ(x)=entrepreneur, "citizenOf", "USA").
    fn us_entrepreneurs() -> Bgp {
        let mut b = Bgp::new();
        b.push(
            Term::pred("x", Predicate::typed("entrepreneur")),
            Term::pred("_e0", Predicate::label("citizenOf")),
            Term::constant("USA", 0),
        );
        b
    }

    #[test]
    fn q1_first_bgp() {
        let g = figure1();
        let t = eval_bgp(&g, &us_entrepreneurs());
        assert_eq!(t.len(), 2); // Bob, Carole
        let xs = t.distinct_column("x");
        let labels: Vec<_> = xs
            .iter()
            .map(|b| g.node_label(b.as_node().unwrap()))
            .collect();
        assert!(labels.contains(&"Bob") && labels.contains(&"Carole"));
    }

    #[test]
    fn sample_bgp_b1() {
        // b1 = {(x, "citizenOf", "USA"), (x, "founded", "OrgB")}
        // matches only Bob.
        let g = figure1();
        let mut b = Bgp::new();
        b.push(
            Term::var("x"),
            Term::pred("_e0", Predicate::label("citizenOf")),
            Term::constant("USA", 0),
        );
        b.push(
            Term::var("x"),
            Term::pred("_e1", Predicate::label("founded")),
            Term::constant("OrgB", 1),
        );
        assert!(b.is_connected());
        let t = eval_bgp(&g, &b);
        assert_eq!(t.len(), 1);
        let x = t.distinct_column("x")[0].as_node().unwrap();
        assert_eq!(g.node_label(x), "Bob");
    }

    #[test]
    fn disconnected_bgp_detected() {
        let mut b = Bgp::new();
        b.push(Term::var("x"), Term::var("e1"), Term::var("y"));
        b.push(Term::var("z"), Term::var("e2"), Term::var("w"));
        assert!(!b.is_connected());
    }

    /// Regression: {(x,e1,y), (x,e2,z), (a,e3,b), (a,e4,c)} passes the
    /// naive pairwise-sharing check (every pattern shares a variable
    /// with *some* other pattern) but forms two components — the old
    /// `is_connected` accepted it and `eval_bgp` silently computed a
    /// cross product.
    #[test]
    fn pairwise_sharing_but_two_components_rejected() {
        let mut b = Bgp::new();
        b.push(Term::var("x"), Term::var("e1"), Term::var("y"));
        b.push(Term::var("x"), Term::var("e2"), Term::var("z"));
        b.push(Term::var("a"), Term::var("e3"), Term::var("b"));
        b.push(Term::var("a"), Term::var("e4"), Term::var("c"));
        assert!(
            !b.is_connected(),
            "two components must not count as connected"
        );
        assert_eq!(pattern_components(&b.patterns).len(), 2);
    }

    #[test]
    fn pattern_components_grouping() {
        let mut b = Bgp::new();
        b.push(Term::var("x"), Term::var("e1"), Term::var("y"));
        b.push(Term::var("a"), Term::var("e2"), Term::var("c"));
        b.push(Term::var("y"), Term::var("e3"), Term::var("z"));
        let comps = pattern_components(&b.patterns);
        assert_eq!(comps, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "Def 2.4")]
    fn eval_rejects_disconnected() {
        let g = figure1();
        let mut b = Bgp::new();
        b.push(Term::var("x"), Term::var("e1"), Term::var("y"));
        b.push(Term::var("z"), Term::var("e2"), Term::var("w"));
        eval_bgp(&g, &b);
    }

    #[test]
    fn unconstrained_pattern_matches_all_edges() {
        let g = figure1();
        let mut b = Bgp::new();
        b.push(Term::var("s"), Term::var("e"), Term::var("o"));
        let t = eval_bgp(&g, &b);
        assert_eq!(t.len(), g.edge_count());
    }

    #[test]
    fn repeated_variable_self_loop() {
        // (x, e, x) matches only self-loops — none in Figure 1.
        let g = figure1();
        let mut b = Bgp::new();
        b.push(Term::var("x"), Term::var("e"), Term::var("x"));
        let t = eval_bgp(&g, &b);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn empty_result_keeps_schema() {
        let g = figure1();
        let mut b = Bgp::new();
        b.push(
            Term::var("x"),
            Term::pred("_e0", Predicate::label("citizenOf")),
            Term::constant("Mars", 0),
        );
        b.push(Term::var("x"), Term::var("e2"), Term::var("y"));
        let t = eval_bgp(&g, &b);
        assert!(t.is_empty());
        assert!(t.col("y").is_some(), "schema preserved on empty result");
    }

    #[test]
    fn missing_label_yields_empty() {
        let g = figure1();
        let mut b = Bgp::new();
        b.push(
            Term::var("x"),
            Term::pred("_e0", Predicate::label("noSuchEdgeLabel")),
            Term::var("y"),
        );
        assert!(eval_bgp(&g, &b).is_empty());
    }

    #[test]
    fn variables_in_order() {
        let b = {
            let mut b = Bgp::new();
            b.push(Term::var("x"), Term::var("e"), Term::var("y"));
            b.push(Term::var("y"), Term::var("f"), Term::var("z"));
            b
        };
        let names: Vec<_> = b.variables().iter().map(|v| v.to_string()).collect();
        assert_eq!(names, ["x", "e", "y", "f", "z"]);
    }
}
