//! Statistics-driven BGP planning.
//!
//! The paper delegates BGP evaluation to an RDBMS (§5.1) and inherits
//! its optimiser; this module is the equivalent for the in-memory
//! substrate. Planning happens *before* any pattern table is
//! materialised: each triple pattern gets an [`AccessPath`] with an
//! estimated cardinality derived from the graph's cached
//! [`Cardinalities`] snapshot, and the patterns are ordered into a
//! left-deep join sequence so that high-selectivity patterns evaluate
//! first and later steps extend only the rows built so far, from the
//! variables those rows already bind.
//!
//! Plans see the query's constants, as an RDBMS optimiser does: a
//! pattern such as `(x, "citizenOf", "place3")` that pins an edge label
//! and an endpoint's node label or type is costed by the exact labelled
//! CSR runs of the pinned nodes, not by the whole label index, and
//! walks those runs when they are shorter ([`AccessPath::LabelledRun`]).
//!
//! Every estimate is an **upper bound** on the actual pattern table
//! size: residual predicates only remove rows.

use crate::bgp::{Bgp, TriplePattern};
use cs_graph::{EdgeId, Graph, LabelId, NodeId, Predicate};
use std::fmt;
use std::sync::Arc;

/// How the candidate edges of one triple pattern are generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// The edge term pins a label: scan the edge-label index. Chosen
    /// unless a pinned endpoint's labelled runs are shorter in total.
    EdgeLabelIndex {
        /// The pinned edge label.
        label: String,
    },
    /// The edge term pins a label and an endpoint term pins a node
    /// label or type: walk each pinned node's labelled CSR run
    /// (`out_edges_labelled` for the source, `in_edges_labelled` for
    /// the target) instead of the whole label index.
    LabelledRun {
        /// True if the pinned endpoint is the source, false for the
        /// target.
        on_src: bool,
        /// The pinned node label or type.
        key: String,
        /// The pinned edge label.
        label: String,
    },
    /// An endpoint term pins a node label or type: scan that
    /// endpoint's node-index candidates and their incident edges.
    NodeIndexScan {
        /// True if the indexed endpoint is the source (outgoing scan),
        /// false for the target (incoming scan).
        on_src: bool,
        /// The pinned node label or type.
        key: String,
    },
    /// No index applies: scan every edge.
    FullScan,
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPath::EdgeLabelIndex { label } => write!(f, "EdgeLabelIndex(\"{label}\")"),
            AccessPath::LabelledRun { on_src, key, label } => {
                let side = if *on_src { "src" } else { "dst" };
                write!(f, "LabelledRun({side}, \"{key}\", \"{label}\")")
            }
            AccessPath::NodeIndexScan { on_src, key } => {
                let side = if *on_src { "src" } else { "dst" };
                write!(f, "NodeIndexScan({side}, \"{key}\")")
            }
            AccessPath::FullScan => write!(f, "FullScan"),
        }
    }
}

/// One step of a [`BgpPlan`]: which pattern to evaluate, how, at what
/// estimated cost, and which of its variables the rows built by earlier
/// steps already bind (the variables it extends them from).
#[derive(Debug, Clone)]
pub struct PatternPlan {
    /// Index of the pattern in [`Bgp::patterns`].
    pub pattern: usize,
    /// The chosen access path.
    pub access: AccessPath,
    /// Upper bound on the pattern table size under `access`: the
    /// candidate edges the access path yields, exact for the label
    /// index (its length) and for labelled runs (their summed lengths).
    pub estimate: usize,
    /// Estimated rows of the accumulated join *after* this step, under
    /// the classic independence assumption: `|prefix| × estimate /
    /// Π V(col)` over the shared join columns, where `V` is the
    /// distinct-value count of the column in this pattern's table —
    /// [`cs_graph::LabelCard::distinct_src`]/[`cs_graph::LabelCard::distinct_dst`]
    /// for label-indexed patterns. This is the quantity the planner
    /// minimises when ordering the joins (the scan `estimate` breaks
    /// ties); unlike `estimate` it is *not* an upper bound — the
    /// independence assumption can err in both directions.
    pub join_rows: usize,
    /// Variables of this pattern bound by earlier steps. The evaluator
    /// extends from the bound rows: each row's bound edge, or its bound
    /// endpoint's labelled or adjacency run, supplies the candidates,
    /// so the static access path serves only a step with nothing bound.
    pub pushdown: Vec<Arc<str>>,
}

/// A cost-ordered left-deep evaluation plan for one BGP.
#[derive(Debug, Clone, Default)]
pub struct BgpPlan {
    /// The evaluation steps, in execution order.
    pub steps: Vec<PatternPlan>,
}

impl BgpPlan {
    /// Total estimated cardinality scanned across all steps.
    pub fn total_estimate(&self) -> usize {
        self.steps.iter().map(|s| s.estimate).sum()
    }
}

impl fmt::Display for BgpPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            write!(
                f,
                "step {}: pattern #{} via {} est {}",
                i + 1,
                s.pattern,
                s.access,
                s.estimate
            )?;
            if !s.pushdown.is_empty() {
                let vars: Vec<&str> = s.pushdown.iter().map(|v| v.as_ref()).collect();
                write!(f, " [pushdown: {}]", vars.join(", "))?;
            }
            write!(f, " → ~{} rows", s.join_rows)?;
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The key an endpoint predicate pins through the node-label or
/// node-type index (label conditions take precedence over type
/// conditions, mirroring `matching_nodes`) and the nodes under that
/// key (empty if the key is absent from the graph), or `None` when it
/// pins neither. The nodes are a superset of the matching ones:
/// residual conditions are checked per emitted row.
pub(crate) fn pinned_nodes<'g, 'p>(
    g: &'g Graph,
    pred: &'p Predicate,
) -> Option<(&'p str, &'g [NodeId])> {
    if let Some(key) = pred.eq_label() {
        let nodes = g.label_id(key).map_or(&[][..], |l| g.nodes_with_label(l));
        return Some((key, nodes));
    }
    let key = pred.eq_type()?;
    let nodes = g.label_id(key).map_or(&[][..], |l| g.nodes_with_type(l));
    Some((key, nodes))
}

/// Edges with label `l` leaving (`outgoing`) or entering `n`: one
/// binary search into the per-label endpoint-sorted CSR column.
pub(crate) fn labelled_run(g: &Graph, n: NodeId, l: LabelId, outgoing: bool) -> &[EdgeId] {
    if outgoing {
        g.out_edges_labelled(n, l)
    } else {
        g.in_edges_labelled(n, l)
    }
}

/// The cheapest labelled-run source of one pattern with edge label
/// `label`. Pinned node sets are offered in turn; each is costed by the
/// exact total length of its nodes' runs — the entries walking it
/// visits — and kept only when strictly cheaper than the best so far,
/// which starts at the label index length. Costing stays bounded: a set
/// is costed only when it holds fewer nodes than the best cost so far
/// (walking it pays one run lookup per node), and its costing stops as
/// soon as its running total reaches that cost. The winner keeps the
/// runs it was costed by, so the walk never looks them up again.
pub(crate) struct CheapestRuns<'g> {
    g: &'g Graph,
    label: LabelId,
    /// The best cost so far.
    cost: usize,
    /// The winning runs (empty runs dropped); `None` while no offer has
    /// beaten the initial cost.
    best: Option<Vec<&'g [EdgeId]>>,
}

impl<'g> CheapestRuns<'g> {
    /// A chooser over `label`'s runs whose offers must beat `cost`.
    pub fn new(g: &'g Graph, label: LabelId, cost: usize) -> Self {
        CheapestRuns {
            g,
            label,
            cost,
            best: None,
        }
    }

    /// Offers `nodes`, expanded in direction `outgoing`; returns true if
    /// they became the best source.
    pub fn offer(&mut self, nodes: &[NodeId], outgoing: bool) -> bool {
        if nodes.len() >= self.cost {
            return false;
        }
        let mut runs = Vec::new();
        let mut total = 0;
        for &n in nodes {
            let r = labelled_run(self.g, n, self.label, outgoing);
            total += r.len();
            if total >= self.cost {
                return false;
            }
            if !r.is_empty() {
                runs.push(r);
            }
        }
        self.cost = total;
        self.best = Some(runs);
        true
    }

    /// The best cost so far: the initial cost until an offer wins.
    pub fn cost(&self) -> usize {
        self.cost
    }

    /// The winning runs, if any offer won.
    pub fn into_best(self) -> Option<Vec<&'g [EdgeId]>> {
        self.best
    }
}

/// Upper-bound estimate of a node-index scan on one endpoint: the sum
/// of the candidate nodes' (combined) degrees — every emitted edge is
/// incident to a candidate, and incident-edge counts per direction are
/// bounded by the combined degree.
fn node_scan_estimate(g: &Graph, nodes: &[NodeId]) -> usize {
    nodes.iter().map(|&n| g.degree(n)).sum()
}

/// Chooses the access path and cardinality estimate of one pattern,
/// consulting the graph's [`cs_graph::Cardinalities`] snapshot.
///
/// A pinned edge label selects the label index, whose estimate is its
/// exact length — unless an endpoint also pins a node label or type
/// whose nodes' labelled runs are shorter in total: then the pattern
/// walks those runs ([`AccessPath::LabelledRun`]) and the estimate is
/// their exact summed length. Pinned sides are weighed source side
/// first (ties go to it), and a side is costed only while its node set
/// is smaller than the cheapest cost so far, so a pinned node set at
/// least as large as the label index never pays one run lookup per
/// node.
///
/// Without an edge label, the cheaper pinned endpoint by degree sum
/// gives a node-index scan; with no pin at all the pattern scans every
/// edge.
pub fn choose_access(g: &Graph, p: &TriplePattern) -> (AccessPath, usize) {
    let card = g.cardinalities();
    if let Some(label) = p.edge.pred.eq_label() {
        let Some(l) = g.label_id(label) else {
            let access = AccessPath::EdgeLabelIndex {
                label: label.to_string(),
            };
            return (access, 0);
        };
        let index_len = card.edge_label_count(l);
        let mut pick = CheapestRuns::new(g, l, index_len);
        let mut side = None;
        for (on_src, term) in [(true, &p.src), (false, &p.dst)] {
            if let Some((key, nodes)) = pinned_nodes(g, &term.pred) {
                if pick.offer(nodes, on_src) {
                    side = Some((on_src, key));
                }
            }
        }
        let label = label.to_string();
        return match side {
            Some((on_src, key)) => {
                let key = key.to_string();
                (AccessPath::LabelledRun { on_src, key, label }, pick.cost())
            }
            None => (AccessPath::EdgeLabelIndex { label }, index_len),
        };
    }
    // Endpoint indexes: pick the cheaper pinned side.
    let scan = |(key, nodes): (_, &[NodeId])| (key, node_scan_estimate(g, nodes));
    let src = pinned_nodes(g, &p.src.pred).map(scan);
    let dst = pinned_nodes(g, &p.dst.pred).map(scan);
    let side = match (src, dst) {
        (Some((sk, se)), Some((_, de))) if se <= de => Some((true, sk, se)),
        (Some(_) | None, Some((dk, de))) => Some((false, dk, de)),
        (Some((sk, se)), None) => Some((true, sk, se)),
        (None, None) => None,
    };
    match side {
        Some((on_src, key, est)) => (
            AccessPath::NodeIndexScan {
                on_src,
                key: key.to_string(),
            },
            est,
        ),
        None => (AccessPath::FullScan, card.edges),
    }
}

/// Distinct-value estimate of variable `var`'s column in the table of
/// pattern `p` under `access` — the `V(col)` denominator of the join
/// selectivity formula. Label-indexed patterns use the collected
/// [`cs_graph::LabelCard::distinct_src`]/[`cs_graph::LabelCard::distinct_dst`]
/// statistics; otherwise the count is bounded by the table size and,
/// for node-valued columns, the node count; every column is also
/// bounded by the table size, and a labelled-run pattern's pinned
/// column by the number of pinned nodes. A variable occupying several
/// positions of the pattern takes the tightest bound.
fn distinct_values(
    g: &Graph,
    p: &TriplePattern,
    access: &AccessPath,
    est: usize,
    var: &str,
) -> usize {
    let card = g.cardinalities();
    let label_card = match access {
        AccessPath::EdgeLabelIndex { label } | AccessPath::LabelledRun { label, .. } => {
            g.label_id(label).and_then(|l| card.edge_labels.get(&l))
        }
        _ => None,
    };
    // A node column holds at most one value per row.
    let column = |on_src: bool| {
        let d = label_card
            .map_or(card.nodes, |c| {
                if on_src {
                    c.distinct_src
                } else {
                    c.distinct_dst
                }
            })
            .min(est);
        match access {
            AccessPath::LabelledRun { on_src: pinned, .. } if *pinned == on_src => {
                let term = if on_src { &p.src } else { &p.dst };
                pinned_nodes(g, &term.pred).map_or(d, |(_, nodes)| d.min(nodes.len()))
            }
            _ => d,
        }
    };
    let mut best: Option<usize> = None;
    let mut tighten = |d: usize| best = Some(best.map_or(d, |b: usize| b.min(d)));
    if p.src.var.as_ref() == var {
        tighten(column(true));
    }
    if p.dst.var.as_ref() == var {
        tighten(column(false));
    }
    if p.edge.var.as_ref() == var {
        tighten(est); // every row carries a distinct edge
    }
    best.unwrap_or(est).max(1)
}

/// Plans a BGP: per-pattern access paths with estimates, ordered into a
/// cost-based left-deep sequence. The first step is the cheapest
/// pattern; each later step is the connected pattern minimising the
/// estimated rows of the accumulated join (`join_rows` — scan
/// `estimate` breaks ties), so a high-fanout join is deferred behind a
/// selective one even when their scan costs are equal. Disconnected
/// inputs (which [`crate::eval_bgp`] rejects anyway) fall back to the
/// global cheapest pattern.
pub fn plan_bgp(g: &Graph, bgp: &Bgp) -> BgpPlan {
    let n = bgp.patterns.len();
    let mut choices: Vec<(AccessPath, usize)> =
        bgp.patterns.iter().map(|p| choose_access(g, p)).collect();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut bound: Vec<Arc<str>> = Vec::new();
    let mut steps = Vec::with_capacity(n);
    // Estimated rows of the accumulated join so far.
    let mut prefix_rows: Option<f64> = None;
    while !remaining.is_empty() {
        let vars_of = |i: usize| -> Vec<Arc<str>> {
            let p = &bgp.patterns[i];
            vec![p.src.var.clone(), p.edge.var.clone(), p.dst.var.clone()]
        };
        let connected = |i: usize| vars_of(i).iter().any(|v| bound.contains(v));
        // Estimated rows after joining pattern `i` into the prefix:
        // |prefix| × estimate / Π V(shared column), independence
        // assumed; a cross join (no shared column) multiplies.
        let join_rows = |i: usize| -> usize {
            let (access, est) = &choices[i];
            match prefix_rows {
                None => *est,
                Some(r) => {
                    let mut shared: Vec<Arc<str>> = vars_of(i)
                        .into_iter()
                        .filter(|v| bound.contains(v))
                        .collect();
                    shared.sort();
                    shared.dedup();
                    let mut den = 1.0f64;
                    for v in &shared {
                        den *= distinct_values(g, &bgp.patterns[i], access, *est, v) as f64;
                    }
                    ((r * *est as f64) / den.max(1.0)).ceil() as usize
                }
            }
        };
        // Most selective connected pattern, else cheapest overall
        // (first step, or disconnected input).
        #[expect(
            clippy::unwrap_used,
            reason = "the while-guard keeps `remaining` non-empty, so the unfiltered fallback always finds one"
        )]
        let pick = remaining
            .iter()
            .copied()
            .filter(|&i| bound.is_empty() || connected(i))
            .min_by_key(|&i| (join_rows(i), choices[i].1, i))
            .or_else(|| remaining.iter().copied().min_by_key(|&i| (choices[i].1, i)))
            .unwrap();
        remaining.retain(|&i| i != pick);
        let rows = join_rows(pick);
        prefix_rows = Some(rows as f64);
        let (access, estimate) = std::mem::replace(
            &mut choices[pick],
            (AccessPath::FullScan, 0), // slot consumed
        );
        let pushdown: Vec<Arc<str>> = vars_of(pick)
            .into_iter()
            .filter(|v| bound.contains(v))
            .collect();
        for v in vars_of(pick) {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        steps.push(PatternPlan {
            pattern: pick,
            access,
            estimate,
            join_rows: rows,
            pushdown,
        });
    }
    BgpPlan { steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::Term;
    use cs_graph::{figure1, Predicate};

    #[test]
    fn fig1_query_prefers_labelled_run() {
        let g = figure1();
        let mut b = Bgp::new();
        b.push(
            Term::pred("x", Predicate::typed("entrepreneur")),
            Term::pred("e", Predicate::label("citizenOf")),
            Term::constant("USA", 0),
        );
        let plan = plan_bgp(&g, &b);
        assert_eq!(plan.steps.len(), 1);
        assert!(
            matches!(&plan.steps[0].access,
                AccessPath::LabelledRun { on_src: false, key, label }
                    if key == "USA" && label == "citizenOf"),
            "{plan}"
        );
        // USA's incoming citizenOf run (Bob, Carole), not the 5-edge
        // citizenOf index nor the 4 entrepreneurs' citizenOf runs.
        assert_eq!(plan.steps[0].estimate, 2);
    }

    #[test]
    fn cheapest_pattern_goes_first() {
        let g = figure1();
        let mut b = Bgp::new();
        // Unconstrained pattern (est = |E|) then a label-indexed one
        // (est = 2): the plan must flip the order.
        b.push(Term::var("x"), Term::var("e1"), Term::var("y"));
        b.push(
            Term::var("x"),
            Term::pred("e2", Predicate::label("founded")),
            Term::var("z"),
        );
        let plan = plan_bgp(&g, &b);
        assert_eq!(plan.steps[0].pattern, 1);
        assert!(plan.steps[0].estimate < plan.steps[1].estimate);
        // The second step sees x bound and can push it down.
        assert!(plan.steps[1].pushdown.iter().any(|v| v.as_ref() == "x"));
    }

    #[test]
    fn later_steps_stay_connected() {
        let g = figure1();
        let mut b = Bgp::new();
        b.push(
            Term::var("a"),
            Term::pred("e1", Predicate::label("citizenOf")),
            Term::var("b"),
        );
        b.push(
            Term::var("b"),
            Term::pred("e2", Predicate::label("locatedIn")),
            Term::var("c"),
        );
        b.push(
            Term::var("c"),
            Term::pred("e3", Predicate::label("founded")),
            Term::var("d"),
        );
        let plan = plan_bgp(&g, &b);
        // Whatever starts, each following step shares a variable with
        // the prefix.
        let mut bound: Vec<Arc<str>> = Vec::new();
        for (i, s) in plan.steps.iter().enumerate() {
            let p = &b.patterns[s.pattern];
            let vars = [&p.src.var, &p.edge.var, &p.dst.var];
            if i > 0 {
                assert!(
                    vars.iter().any(|v| bound.contains(v)),
                    "step {i} disconnected in {plan}"
                );
                assert!(!s.pushdown.is_empty());
            }
            bound.extend(vars.into_iter().cloned());
        }
    }

    /// A uniform-fanout graph on which the independence assumption is
    /// exact: 4 sources with 3 `p`-edges each (distinct_src = 4,
    /// 12 edges), every `p`-target carrying exactly one `q`-edge
    /// (distinct_src = 12). The `p ⋈ q` join estimate must equal the
    /// actual joined row count.
    fn uniform_join_graph() -> Graph {
        let mut b = cs_graph::GraphBuilder::new();
        for s in 0..4 {
            let src = b.add_node(&format!("s{s}"));
            for t in 0..3 {
                let mid = b.add_node(&format!("m{s}_{t}"));
                b.add_edge(src, "p", mid);
                let sink = b.add_node(&format!("z{s}_{t}"));
                b.add_edge(mid, "q", sink);
            }
        }
        b.freeze()
    }

    #[test]
    fn join_estimate_matches_actual_on_uniform_fanout() {
        let g = uniform_join_graph();
        let mut bgp = Bgp::new();
        bgp.push(
            Term::var("x"),
            Term::pred("e1", Predicate::label("p")),
            Term::var("y"),
        );
        bgp.push(
            Term::var("y"),
            Term::pred("e2", Predicate::label("q")),
            Term::var("z"),
        );
        let plan = plan_bgp(&g, &bgp);
        // Step 1: 12 p-rows. Step 2: 12 × 12 / distinct_src(q) = 12.
        assert_eq!(plan.steps[0].join_rows, 12, "{plan}");
        assert_eq!(plan.steps[1].join_rows, 12, "{plan}");
        let actual = crate::eval_bgp(&g, &bgp).len();
        assert_eq!(
            actual, plan.steps[1].join_rows,
            "estimate vs actual diverged on the uniform graph: {plan}"
        );
    }

    /// Two equal-cost candidate joins, one through a fan-out label
    /// (one distinct source feeding every edge), one through a 1:1
    /// label: the selectivity-aware planner must order the 1:1 join
    /// first even though the scan estimates tie.
    #[test]
    fn selective_join_ordered_before_fanout_join() {
        let mut b = cs_graph::GraphBuilder::new();
        let m0 = b.add_node("m0");
        let m1 = b.add_node("m1");
        for (i, m) in [m0, m1].iter().enumerate() {
            let s = b.add_node(&format!("s{i}"));
            b.add_edge(s, "a", *m);
        }
        // "fan": all 5 edges share the source m0 (distinct_src = 1).
        for i in 0..5 {
            let f = b.add_node(&format!("f{i}"));
            b.add_edge(m0, "fan", f);
        }
        // "uniq": 5 edges from 5 distinct sources (m0, m1, u2, u3, u4).
        for (i, src) in [m0, m1].into_iter().enumerate().take(2) {
            let u = b.add_node(&format!("ut{i}"));
            b.add_edge(src, "uniq", u);
        }
        for i in 2..5 {
            let s = b.add_node(&format!("us{i}"));
            let u = b.add_node(&format!("ut{i}"));
            b.add_edge(s, "uniq", u);
        }
        let g = b.freeze();

        let mut bgp = Bgp::new();
        bgp.push(
            Term::var("s"),
            Term::pred("e1", Predicate::label("a")),
            Term::var("y"),
        );
        bgp.push(
            Term::var("y"),
            Term::pred("e2", Predicate::label("fan")),
            Term::var("z"),
        );
        bgp.push(
            Term::var("y"),
            Term::pred("e3", Predicate::label("uniq")),
            Term::var("w"),
        );
        let plan = plan_bgp(&g, &bgp);
        assert_eq!(plan.steps[0].pattern, 0, "{plan}");
        assert_eq!(
            plan.steps[1].pattern, 2,
            "the uniq join (2 × 5 / 5 = 2 rows) must precede the fan \
             join (2 × 5 / 1 = 10 rows): {plan}"
        );
        assert_eq!(plan.steps[1].join_rows, 2, "{plan}");
        assert_eq!(plan.steps[2].join_rows, 10, "{plan}");
        // Estimate-vs-actual sanity: the uniq join's estimate is exact
        // (each `a`-target has exactly one uniq edge).
        let mut prefix = Bgp::new();
        prefix.push(
            Term::var("s"),
            Term::pred("e1", Predicate::label("a")),
            Term::var("y"),
        );
        prefix.push(
            Term::var("y"),
            Term::pred("e3", Predicate::label("uniq")),
            Term::var("w"),
        );
        assert_eq!(crate::eval_bgp(&g, &prefix).len(), 2);
    }

    #[test]
    fn missing_label_estimates_zero() {
        let g = figure1();
        let mut b = Bgp::new();
        b.push(
            Term::var("x"),
            Term::pred("e", Predicate::label("noSuchLabel")),
            Term::var("y"),
        );
        let plan = plan_bgp(&g, &b);
        assert_eq!(plan.steps[0].estimate, 0);
    }

    #[test]
    fn display_mentions_access_paths() {
        let g = figure1();
        let mut b = Bgp::new();
        b.push(
            Term::var("x"),
            Term::pred("e", Predicate::label("citizenOf")),
            Term::var("y"),
        );
        b.push(Term::var("y"), Term::var("f"), Term::var("z"));
        let s = plan_bgp(&g, &b).to_string();
        assert!(s.contains("EdgeLabelIndex(\"citizenOf\")"), "{s}");
        assert!(s.contains("FullScan"), "{s}");
        assert!(s.contains("pushdown: y"), "{s}");
    }
}
