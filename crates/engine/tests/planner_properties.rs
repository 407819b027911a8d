//! Property tests of the statistics-driven planner (vendored
//! proptest): plan-ordered `eval_bgp` must produce the same canonical
//! result set as the greedy reference on random generated graphs, and
//! `explain_plan` cardinality estimates must upper-bound the actual
//! pattern table sizes.

use cs_engine::{eval_bgp, eval_bgp_greedy, plan_bgp, Bgp, Binding, Table, Term};
use cs_graph::generate::gnp;
use cs_graph::{figure1, Graph, GraphBuilder, Predicate};
use proptest::prelude::*;

/// Rows projected onto a fixed column order, sorted — the canonical
/// form two evaluations are compared in.
fn canonical(t: &Table, order: &[&str]) -> Vec<Vec<Binding>> {
    let p = t.project(order);
    let mut rows: Vec<Vec<Binding>> = p.rows().map(|r| r.to_vec()).collect();
    rows.sort();
    rows
}

fn assert_same_results(g: &cs_graph::Graph, bgp: &Bgp) {
    let planned = eval_bgp(g, bgp);
    let greedy = eval_bgp_greedy(g, bgp);
    assert_eq!(planned.len(), greedy.len());
    // Same variables (order may differ with the join order).
    let order: Vec<&str> = planned.vars().iter().map(|v| v.as_ref()).collect();
    for v in greedy.vars() {
        assert!(order.contains(&v.as_ref()), "missing column {v}");
    }
    assert_eq!(canonical(&planned, &order), canonical(&greedy, &order));
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

    /// Triangle BGP with one label-indexed pattern: join-order
    /// decisions differ between planner and greedy, results must not.
    #[test]
    fn planned_equals_greedy_triangle(seed in any::<u64>(), p in 0.05f64..0.3) {
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
    fn planned_equals_greedy_pinned_path(seed in any::<u64>(), p in 0.05f64..0.35) {
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
    fn planned_equals_greedy_pinned_labelled(
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
    fn planned_equals_greedy_star(seed in any::<u64>(), p in 0.05f64..0.3) {
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
