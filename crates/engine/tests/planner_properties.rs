//! Property tests of the statistics-driven planner (vendored
//! proptest): plan-ordered `eval_bgp` must produce exactly the
//! embeddings (Def. 2.7) a brute-force enumerator finds on random
//! generated graphs, and `explain_plan` cardinality estimates must
//! upper-bound the actual pattern table sizes.
//!
//! The enumerator is the reference: it imports no evaluator code. It
//! tries every edge for every pattern and keeps the assignments that
//! bind each variable once and satisfy every term's predicate, as
//! `cs_graph::Predicate` evaluates it.

use cs_engine::{eval_bgp, eval_bgp_with_plan, plan_bgp, Bgp, Binding, Table, Term};
use cs_graph::generate::gnp;
use cs_graph::{figure1, Graph, GraphBuilder, NodeId, Predicate};
use proptest::prelude::*;
use std::sync::Arc;

/// Rows projected onto a fixed column order, sorted — the canonical
/// form two evaluations are compared in.
fn canonical(t: &Table, order: &[&str]) -> Vec<Vec<Binding>> {
    let p = t.project(order);
    let mut rows: Vec<Vec<Binding>> = p.rows().map(|r| r.to_vec()).collect();
    rows.sort();
    rows
}

/// Every embedding of `bgp` into `g` (Def. 2.7): a value per variable
/// of [`Bgp::variables`], in that column order, such that every
/// pattern `(s, e, d)` maps `e` to an edge from `s`'s node to `d`'s
/// node and every term's predicate holds. Sorted rows.
fn reference(g: &Graph, bgp: &Bgp) -> Vec<Vec<Binding>> {
    /// Extends `assigned` by every edge that fits pattern `i`, then
    /// recurses on the next pattern.
    fn go(
        g: &Graph,
        bgp: &Bgp,
        vars: &[Arc<str>],
        i: usize,
        assigned: &[Option<Binding>],
        rows: &mut Vec<Vec<Binding>>,
    ) {
        let Some(p) = bgp.patterns.get(i) else {
            rows.push(assigned.iter().map(|b| b.unwrap()).collect());
            return;
        };
        for e in g.edge_ids() {
            let ed = g.edge(e);
            let mut next = assigned.to_vec();
            let fits = [
                (&p.src, Binding::Node(ed.src)),
                (&p.edge, Binding::Edge(e)),
                (&p.dst, Binding::Node(ed.dst)),
            ]
            .into_iter()
            .all(|(t, b)| {
                let holds = match b {
                    Binding::Node(n) => t.pred.matches_node(g, n),
                    Binding::Edge(e) => t.pred.matches_edge(g, e),
                    Binding::Tree(_) => false,
                };
                let slot = &mut next[vars.iter().position(|v| *v == t.var).unwrap()];
                holds && *slot.get_or_insert(b) == b
            });
            if fits {
                go(g, bgp, vars, i + 1, &next, rows);
            }
        }
    }
    let vars = bgp.variables();
    let mut rows = Vec::new();
    if !bgp.patterns.is_empty() {
        go(g, bgp, &vars, 0, &vec![None; vars.len()], &mut rows);
    }
    rows.sort();
    rows
}

/// Every ordering of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in permutations(n - 1) {
        for at in 0..n {
            let mut p = shorter.clone();
            p.insert(at, n - 1);
            out.push(p);
        }
    }
    out
}

/// The planned evaluation equals the reference, and so does the plan's
/// steps run in every other order: whichever pattern comes first, each
/// later one extends the rows from whatever they bind.
fn assert_same_results(g: &Graph, bgp: &Bgp) {
    let want = reference(g, bgp);
    let vars = bgp.variables();
    let order: Vec<&str> = vars.iter().map(|v| v.as_ref()).collect();
    let planned = eval_bgp(g, bgp);
    assert_eq!(planned.vars().len(), order.len(), "one column per variable");
    assert_eq!(canonical(&planned, &order), want);
    let plan = plan_bgp(g, bgp);
    for steps in permutations(plan.steps.len()) {
        let mut reordered = plan.clone();
        reordered.steps = steps.iter().map(|&i| plan.steps[i].clone()).collect();
        let got = eval_bgp_with_plan(g, bgp, &reordered);
        assert_eq!(canonical(&got, &order), want, "steps in order {steps:?}");
    }
}

/// Every per-step estimate must upper-bound the actual size of that
/// pattern's table evaluated in isolation (no pushdown).
fn assert_estimates_are_upper_bounds(g: &cs_graph::Graph, bgp: &Bgp) {
    let plan = plan_bgp(g, bgp);
    for step in &plan.steps {
        let p = &bgp.patterns[step.pattern];
        let mut single = Bgp::new();
        single.push(p.src.clone(), p.edge.clone(), p.dst.clone());
        let actual = eval_bgp(g, &single).len();
        assert!(
            actual <= step.estimate,
            "pattern #{}: actual {} exceeds estimate {} in {plan}",
            step.pattern,
            actual,
            step.estimate
        );
    }
}

/// `gnp` with every node `n{i}` also typed `t{i % 3}`, so type pins
/// select something.
fn typed_gnp(n: usize, p: f64, seed: u64) -> Graph {
    let g = gnp(n, p, seed);
    let mut b = GraphBuilder::new();
    for v in g.node_ids() {
        b.add_typed_node(g.node_label(v), &[&format!("t{}", v.index() % 3)]);
    }
    for e in g.edge_ids() {
        let ed = g.edge(e);
        b.add_edge(ed.src, g.resolve(ed.label), ed.dst);
    }
    b.freeze()
}

/// An edge-labelled pattern whose source (`pin` 0–1) or target (2–3)
/// is pinned by node label `n{k}` (even `pin`) or type `t{k % 3}`
/// (odd), joined onward through a second labelled pattern: the
/// labelled-run access path whenever the pinned nodes' runs are
/// shorter than the label index.
fn pinned_labelled_bgp(pin: u8, k: usize) -> Bgp {
    let pred = if pin.is_multiple_of(2) {
        Predicate::label(&format!("n{k}"))
    } else {
        Predicate::typed(&format!("t{}", k % 3))
    };
    let (src, dst) = if pin < 2 {
        (Term::pred("x", pred), Term::var("y"))
    } else {
        (Term::var("x"), Term::pred("y", pred))
    };
    let mut bgp = Bgp::new();
    bgp.push(src, Term::pred("e1", Predicate::label("r0")), dst);
    bgp.push(
        Term::var("y"),
        Term::pred("e2", Predicate::label("r1")),
        Term::var("z"),
    );
    bgp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Triangle BGP with one label-indexed pattern: the closing step
    /// has both ends bound, unlabelled.
    #[test]
    fn planned_equals_reference_triangle(seed in any::<u64>(), p in 0.05f64..0.3) {
        let g = gnp(10, p, seed);
        let mut bgp = Bgp::new();
        bgp.push(
            Term::var("x"),
            Term::pred("e1", Predicate::label("r0")),
            Term::var("y"),
        );
        bgp.push(Term::var("y"), Term::var("e2"), Term::var("z"));
        bgp.push(Term::var("z"), Term::var("e3"), Term::var("x"));
        assert_same_results(&g, &bgp);
    }

    /// Path BGP anchored on a pinned node label: exercises the
    /// node-index scan access path and bound-variable pushdown.
    #[test]
    fn planned_equals_reference_pinned_path(seed in any::<u64>(), p in 0.05f64..0.35) {
        let g = gnp(10, p, seed);
        let mut bgp = Bgp::new();
        bgp.push(
            Term::pred("x", Predicate::label("n0")),
            Term::var("e1"),
            Term::var("y"),
        );
        bgp.push(Term::var("y"), Term::var("e2"), Term::var("z"));
        assert_same_results(&g, &bgp);
    }

    /// Edge label plus a node label or type pin on either endpoint:
    /// exercises the labelled-run access path, and pushdown into it.
    #[test]
    fn planned_equals_reference_pinned_labelled(
        seed in any::<u64>(),
        p in 0.05f64..0.35,
        pin in 0u8..4,
        k in 0usize..10,
    ) {
        let g = typed_gnp(10, p, seed);
        let bgp = pinned_labelled_bgp(pin, k);
        assert_same_results(&g, &bgp);
        // The pinned pattern alone yields exactly the edges a full scan
        // matches, whichever access path the planner picked for it.
        let t = &bgp.patterns[0];
        let mut single = Bgp::new();
        single.push(t.src.clone(), t.edge.clone(), t.dst.clone());
        let got: Vec<Vec<Binding>> = canonical(&eval_bgp(&g, &single), &["e1"]);
        let want: Vec<Vec<Binding>> = g
            .edge_ids()
            .filter(|&e| {
                let ed = g.edge(e);
                t.src.pred.matches_node(&g, ed.src)
                    && t.edge.pred.matches_edge(&g, e)
                    && t.dst.pred.matches_node(&g, ed.dst)
            })
            .map(|e| vec![Binding::Edge(e)])
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Star BGP (all patterns share the centre variable).
    #[test]
    fn planned_equals_reference_star(seed in any::<u64>(), p in 0.05f64..0.3) {
        let g = gnp(9, p, seed);
        let mut bgp = Bgp::new();
        bgp.push(
            Term::var("c"),
            Term::pred("e1", Predicate::label("r1")),
            Term::var("a"),
        );
        bgp.push(
            Term::var("c"),
            Term::pred("e2", Predicate::label("r2")),
            Term::var("b"),
        );
        bgp.push(Term::var("c"), Term::var("e3"), Term::var("d"));
        assert_same_results(&g, &bgp);
    }

    /// Estimates stay upper bounds on random graphs too, labelled-run
    /// estimates included.
    #[test]
    fn estimates_upper_bound_on_random_graphs(
        seed in any::<u64>(),
        p in 0.05f64..0.3,
        pin in 0u8..4,
        k in 0usize..10,
    ) {
        let g = gnp(10, p, seed);
        let mut bgp = Bgp::new();
        bgp.push(
            Term::var("x"),
            Term::pred("e1", Predicate::label("r0")),
            Term::var("y"),
        );
        bgp.push(Term::pred("y", Predicate::label("n3")), Term::var("e2"), Term::var("z"));
        assert_estimates_are_upper_bounds(&g, &bgp);
        assert_estimates_are_upper_bounds(&typed_gnp(10, p, seed), &pinned_labelled_bgp(pin, k));
    }
}

/// `explain_plan` estimates on the Figure 1 graph upper-bound the
/// actual pattern table sizes for the paper's Q1-style patterns.
#[test]
fn estimates_upper_bound_on_figure1() {
    let g = figure1();

    let mut q1 = Bgp::new();
    q1.push(
        Term::pred("x", Predicate::typed("entrepreneur")),
        Term::pred("_e0", Predicate::label("citizenOf")),
        Term::constant("USA", 0),
    );
    assert_estimates_are_upper_bounds(&g, &q1);

    let mut path = Bgp::new();
    path.push(
        Term::var("x"),
        Term::pred("_e0", Predicate::label("citizenOf")),
        Term::var("c"),
    );
    path.push(Term::var("x"), Term::var("e2"), Term::var("y"));
    path.push(
        Term::pred("y", Predicate::typed("organisation")),
        Term::var("e3"),
        Term::var("z"),
    );
    assert_estimates_are_upper_bounds(&g, &path);
}

/// A small multigraph from `(src, label, dst)` triples over seven
/// nodes `n0`..`n6`, node `n{i}` typed `t{i % 3}` (and `n6` untyped):
/// self-loops and parallel edges included.
fn multigraph(edges: &[(u32, u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..7)
        .map(|i| match i {
            6 => b.add_node("n6"),
            _ => b.add_typed_node(&format!("n{i}"), &[&format!("t{}", i % 3)]),
        })
        .collect();
    for &(s, l, d) in edges {
        b.add_edge(nodes[s as usize], &format!("r{l}"), nodes[d as usize]);
    }
    b.freeze()
}

fn bgp(patterns: &[(Term, Term, Term)]) -> Bgp {
    let mut b = Bgp::new();
    for (s, e, d) in patterns {
        b.push(s.clone(), e.clone(), d.clone());
    }
    b
}

fn v(name: &str) -> Term {
    Term::var(name)
}

fn lab(name: &str, label: &str) -> Term {
    Term::pred(name, Predicate::label(label))
}

fn typed(name: &str, ty: &str) -> Term {
    Term::pred(name, Predicate::typed(ty))
}

/// The shapes whose steps take each extension path: repeated
/// variables, a variable in node and edge positions, a shared edge
/// variable, unlabelled walks in both directions, closing steps with
/// both ends bound, absent labels and type pins.
fn edge_case_bgps() -> Vec<Bgp> {
    vec![
        // (x, e, x): self-loops only, first step and extension step.
        bgp(&[(v("x"), v("e"), v("x"))]),
        bgp(&[(v("x"), lab("e1", "r0"), v("y")), (v("y"), v("e2"), v("y"))]),
        bgp(&[
            (v("x"), lab("e1", "r1"), v("x")),
            (v("x"), lab("e2", "r0"), v("y")),
        ]),
        // A variable in node and edge positions never matches.
        bgp(&[(v("x"), v("e"), v("y")), (v("e"), v("f"), v("z"))]),
        bgp(&[(v("x"), lab("e", "r0"), v("y")), (v("y"), v("x"), v("z"))]),
        bgp(&[(v("x"), v("x"), v("y"))]),
        // An edge variable shared by two patterns, with and without a
        // label the bound edge must still pass.
        bgp(&[(v("x"), v("e"), v("y")), (v("u"), lab("e", "r1"), v("w"))]),
        bgp(&[(v("x"), lab("e", "r2"), v("y")), (v("y"), v("e"), v("x"))]),
        // Unlabelled extension in both directions from a bound node.
        bgp(&[
            (lab("x", "n0"), lab("e1", "r0"), v("y")),
            (v("z"), v("e2"), v("y")),
            (v("y"), v("e3"), v("w")),
        ]),
        // Labelled extension in both directions, then a labelled
        // closing step with both ends bound.
        bgp(&[
            (v("x"), lab("e1", "r0"), v("y")),
            (v("z"), lab("e2", "r1"), v("y")),
            (v("x"), lab("e3", "r2"), v("z")),
        ]),
        // Absent labels: an edge label, a node label, a type.
        bgp(&[
            (v("x"), lab("e1", "r0"), v("y")),
            (v("y"), lab("e2", "nope"), v("z")),
        ]),
        bgp(&[(v("x"), lab("e1", "r0"), lab("y", "nope"))]),
        bgp(&[
            (v("x"), v("e1"), v("y")),
            (v("y"), v("e2"), typed("z", "t9")),
        ]),
        // Type pins on bound and unbound endpoints.
        bgp(&[
            (typed("x", "t1"), lab("e1", "r1"), v("y")),
            (v("y"), v("e2"), typed("z", "t2")),
            (typed("y", "t0"), v("e3"), v("x")),
        ]),
        // Both ends bound, unlabelled, through parallel edges.
        bgp(&[(v("x"), lab("e1", "r0"), v("y")), (v("x"), v("e2"), v("y"))]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every edge-case shape equals the reference on random small
    /// multigraphs.
    #[test]
    fn planned_equals_reference_edge_cases(
        edges in collection::vec((0u32..7, 0u32..3, 0u32..7), 0..16),
    ) {
        let g = multigraph(&edges);
        for b in edge_case_bgps() {
            assert_same_results(&g, &b);
        }
    }
}

/// A labelled pattern joined to an unconstrained one on Figure 1.
#[test]
fn planned_equals_reference_on_figure1() {
    let g = figure1();
    let b = bgp(&[
        (v("x"), lab("_e0", "citizenOf"), v("c")),
        (v("x"), v("e2"), v("y")),
    ]);
    assert!(!eval_bgp(&g, &b).is_empty());
    assert_same_results(&g, &b);
}
