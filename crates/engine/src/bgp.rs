//! Basic Graph Patterns (paper Defs. 2.3–2.4, 2.7) and their evaluation.
//!
//! A BGP is a connected set of edge patterns; evaluating it computes all
//! embeddings (Def. 2.7) into the graph, materialised as a [`Table`]
//! with one column per variable — step (A) of the paper's strategy (§3).

use crate::binding::Binding;
use crate::plan::{labelled_run, pinned_nodes, plan_bgp, AccessPath, BgpPlan, CheapestRuns};
use crate::table::Table;
use cs_graph::fxhash::FxHashSet;
use cs_graph::{Graph, NodeId, Predicate};
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

/// The bindings the accumulated table already holds for a pattern's
/// variable positions — the semi-join pushdown sets. A position is
/// `None` when the variable is not yet bound.
#[derive(Debug, Default)]
struct BoundSets {
    src: Option<FxHashSet<Binding>>,
    edge: Option<FxHashSet<Binding>>,
    dst: Option<FxHashSet<Binding>>,
}

impl BoundSets {
    /// Collects the pushdown sets for `p` from the accumulated table,
    /// each straight from its column in one pass.
    fn from_table(acc: &Table, p: &TriplePattern) -> BoundSets {
        let get = |v: &Arc<str>| -> Option<FxHashSet<Binding>> {
            let c = acc.col(v)?;
            Some(acc.rows().map(|r| r[c]).collect())
        };
        BoundSets {
            src: get(&p.src.var),
            edge: get(&p.edge.var),
            dst: get(&p.dst.var),
        }
    }
}

/// Evaluates one triple pattern into a table under a planned access
/// path, with bound-variable pushdown.
///
/// The access path fixes the *static* candidate source (edge-label
/// index, pinned nodes' labelled runs, node-index scan, full scan);
/// when the accumulated table already binds one of the pattern's
/// variables, the evaluator may instead expand from the bound bindings
/// when that set is smaller — the semi-join-style pushdown that makes
/// cost-ordered plans prune.
/// Either way, bound sets are applied as membership filters, so the
/// produced table contains exactly the rows that can survive the join
/// with the accumulated table.
fn eval_pattern_access(
    g: &Graph,
    p: &TriplePattern,
    access: &AccessPath,
    bound: &BoundSets,
) -> Table {
    // Output schema: deduplicate repeated variables within the pattern.
    let mut cols: Vec<Arc<str>> = vec![p.src.var.clone()];
    let edge_dup = p.edge.var == p.src.var;
    if !edge_dup {
        cols.push(p.edge.var.clone());
    }
    let dst_dup_src = p.dst.var == p.src.var;
    let dst_dup_edge = p.dst.var == p.edge.var;
    if !dst_dup_src && !dst_dup_edge {
        cols.push(p.dst.var.clone());
    }
    let mut out = Table::new(cols);

    let dups = (edge_dup, dst_dup_src, dst_dup_edge);
    if bound.src.is_some() || bound.edge.is_some() || bound.dst.is_some() {
        scan_candidates(g, p, access, bound, |e| {
            // Semi-join pushdown: rows incompatible with the
            // accumulated table's bindings can never survive the join.
            let ed = g.edge(e);
            if bound
                .src
                .as_ref()
                .is_some_and(|s| !s.contains(&Binding::Node(ed.src)))
                || bound
                    .edge
                    .as_ref()
                    .is_some_and(|s| !s.contains(&Binding::Edge(e)))
                || bound
                    .dst
                    .as_ref()
                    .is_some_and(|s| !s.contains(&Binding::Node(ed.dst)))
            {
                return;
            }
            emit_row(g, p, e, dups, &mut out);
        });
    } else {
        // Monomorphised fast path: an unbound (first or standalone)
        // pattern pays no per-edge bound checks at all.
        scan_candidates(g, p, access, bound, |e| emit_row(g, p, e, dups, &mut out));
    }
    out
}

/// Applies the pattern predicates and repeated-variable constraints to
/// one candidate edge and appends the resulting row. `dups` is
/// (edge==src, dst==src, dst==edge) variable coincidence, precomputed
/// by the caller.
#[inline(always)]
fn emit_row(
    g: &Graph,
    p: &TriplePattern,
    e: cs_graph::EdgeId,
    (edge_dup, dst_dup_src, dst_dup_edge): (bool, bool, bool),
    out: &mut Table,
) {
    let ed = g.edge(e);
    if !p.src.pred.matches_node(g, ed.src)
        || !p.edge.pred.matches_edge(g, e)
        || !p.dst.pred.matches_node(g, ed.dst)
    {
        return;
    }
    // Repeated variables force equality between positions. A node
    // and an edge can never be equal bindings.
    if edge_dup || dst_dup_edge {
        return;
    }
    if dst_dup_src && ed.src != ed.dst {
        return;
    }
    let mut row = vec![Binding::Node(ed.src), Binding::Edge(e)];
    if !dst_dup_src {
        row.push(Binding::Node(ed.dst));
    } else {
        row.truncate(2);
    }
    out.push(row.into_boxed_slice());
}

/// Generates the candidate edges of a pattern under an access path and
/// feeds each to `emit` (which applies predicates, pushdown filters,
/// and row construction). Separated from the emission so the
/// no-pushdown path monomorphises without bound checks.
///
/// The access path fixes the static source: the label index, the
/// planned pinned side's runs, or a full scan. Bound endpoint sets and
/// the planned pinned side go through one [`CheapestRuns`] chooser,
/// bound source first, then bound target, then the pinned side; each
/// is costed in incident entries walked — exact labelled-run lengths
/// when the label is pinned, degree sums otherwise — and must be
/// strictly cheaper than the label index to replace it. The chosen runs
/// are walked exactly as they were costed. Without pushdown the
/// executed source is therefore the planned access path; with it, a
/// cheaper bound endpoint set overrides the static path, which the plan
/// documents in [`crate::PatternPlan::pushdown`].
fn scan_candidates(
    g: &Graph,
    p: &TriplePattern,
    access: &AccessPath,
    bound: &BoundSets,
    mut emit: impl FnMut(cs_graph::EdgeId),
) {
    // Bound edge bindings are exact candidates: nothing can beat them.
    if let Some(edges) = &bound.edge {
        for b in edges {
            if let Some(e) = b.as_edge() {
                emit(e);
            }
        }
        return;
    }

    // Offers the bound endpoint sets, then the planned pinned side.
    fn offer_endpoints<'g, T, R: Fn(NodeId, bool) -> &'g [T]>(
        g: &'g Graph,
        p: &TriplePattern,
        bound: &BoundSets,
        pinned_src: Option<bool>,
        pick: &mut CheapestRuns<'g, T, R>,
    ) {
        for (set, outgoing) in [(&bound.src, true), (&bound.dst, false)] {
            if let Some(s) = set {
                pick.offer(s.len(), s.iter().filter_map(|b| b.as_node()), outgoing);
            }
        }
        if let Some(on_src) = pinned_src {
            let term = if on_src { &p.src } else { &p.dst };
            if let Some((_, nodes)) = pinned_nodes(g, &term.pred) {
                pick.offer(nodes.len(), nodes.iter().copied(), on_src);
            }
        }
    }

    let pinned_src = match access {
        AccessPath::LabelledRun { on_src, .. } | AccessPath::NodeIndexScan { on_src, .. } => {
            Some(*on_src)
        }
        AccessPath::EdgeLabelIndex { .. } | AccessPath::FullScan => None,
    };
    match access {
        AccessPath::EdgeLabelIndex { label } | AccessPath::LabelledRun { label, .. } => {
            let Some(l) = g.label_id(label) else {
                return; // absent label => empty table
            };
            let index: &[cs_graph::EdgeId] = g.edges_with_label(l);
            let mut pick = CheapestRuns::new(index.len(), |n, out| labelled_run(g, n, l, out));
            offer_endpoints(g, p, bound, pinned_src, &mut pick);
            // Labelled runs list exactly the label's edges at each node,
            // in ascending edge-id order.
            let runs = pick
                .into_best()
                .map_or_else(|| vec![index], |(runs, _)| runs);
            for run in runs {
                for &e in run {
                    emit(e);
                }
            }
        }
        AccessPath::NodeIndexScan { .. } | AccessPath::FullScan => {
            // Without a label, a node set walks whole adjacency runs,
            // keeping the entries of its direction; any node set beats
            // the full scan.
            let mut pick = CheapestRuns::new(usize::MAX, |n, _| g.adjacent(n));
            offer_endpoints(g, p, bound, pinned_src, &mut pick);
            match pick.into_best() {
                Some((runs, outgoing)) => {
                    for run in runs {
                        for a in run.iter().filter(|a| a.outgoing() == outgoing) {
                            emit(a.edge());
                        }
                    }
                }
                None => {
                    for e in g.edge_ids() {
                        emit(e);
                    }
                }
            }
        }
    }
}

/// Evaluates a whole BGP through the statistics-driven planner: a
/// cost-ordered left-deep plan is chosen *before* any pattern table is
/// materialised ([`plan_bgp`]), then executed with bound-variable
/// pushdown — each step's pattern is evaluated against only the
/// bindings the accumulated table can still join with.
pub fn eval_bgp(g: &Graph, bgp: &Bgp) -> Table {
    assert!(
        bgp.is_connected(),
        "BGP violates Def 2.4: patterns must be connected"
    );
    eval_bgp_with_plan(g, bgp, &plan_bgp(g, bgp))
}

/// Executes a BGP under an explicit [`BgpPlan`] (normally produced by
/// [`plan_bgp`]). The plan must cover every pattern of `bgp` exactly
/// once.
pub fn eval_bgp_with_plan(g: &Graph, bgp: &Bgp, plan: &BgpPlan) -> Table {
    if bgp.patterns.is_empty() {
        return Table::new(Vec::new());
    }
    let mut acc: Option<Table> = None;
    for (si, step) in plan.steps.iter().enumerate() {
        let p = &bgp.patterns[step.pattern];
        let t = match &acc {
            None => eval_pattern_access(g, p, &step.access, &BoundSets::default()),
            Some(a) => eval_pattern_access(g, p, &step.access, &BoundSets::from_table(a, p)),
        };
        let next = match acc.take() {
            None => t,
            Some(a) => a.natural_join(&t),
        };
        if next.is_empty() {
            // Short-circuit: the join result can only stay empty, but
            // the schema must still include every pattern variable.
            let mut vars = next.vars().to_vec();
            for later in &plan.steps[si..] {
                let q = &bgp.patterns[later.pattern];
                for term in [&q.src, &q.edge, &q.dst] {
                    if !vars.contains(&term.var) {
                        vars.push(term.var.clone());
                    }
                }
            }
            return Table::new(vars);
        }
        acc = Some(next);
    }
    acc.unwrap_or_else(|| Table::new(Vec::new()))
}

/// Evaluates a BGP with the pre-planner strategy: materialise every
/// pattern table eagerly, then join them with [`join_all`].
/// Kept as the reference implementation the planner is property-tested
/// against, and as an A/B baseline for benchmarks.
pub fn eval_bgp_greedy(g: &Graph, bgp: &Bgp) -> Table {
    assert!(
        bgp.is_connected(),
        "BGP violates Def 2.4: patterns must be connected"
    );
    let tables: Vec<Table> = bgp
        .patterns
        .iter()
        .map(|p| {
            let (access, _) = crate::plan::choose_access(g, p);
            eval_pattern_access(g, p, &access, &BoundSets::default())
        })
        .collect();
    join_all(tables)
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
    fn planned_matches_greedy_on_fig1() {
        let g = figure1();
        let mut b = Bgp::new();
        b.push(
            Term::var("x"),
            Term::pred("_e0", Predicate::label("citizenOf")),
            Term::var("c"),
        );
        b.push(Term::var("x"), Term::var("e2"), Term::var("y"));
        let planned = eval_bgp(&g, &b);
        let greedy = eval_bgp_greedy(&g, &b);
        assert_eq!(planned.len(), greedy.len());
        let order: Vec<&str> = planned.vars().iter().map(|v| v.as_ref()).collect();
        let mut a: Vec<Vec<Binding>> = planned.rows().map(|r| r.to_vec()).collect();
        let mut c: Vec<Vec<Binding>> = greedy.project(&order).rows().map(|r| r.to_vec()).collect();
        a.sort();
        c.sort();
        assert_eq!(a, c);
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
