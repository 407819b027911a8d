//! Path-based baselines standing in for the systems of §5.5 (see
//! DESIGN.md §2): each implements exactly the *semantics class* of the
//! system it replaces, over the same in-memory graph.
//!
//! | paper system        | here                                    |
//! |---------------------|-----------------------------------------|
//! | Virtuoso SPARQL/SQL | [`check_reachable`] — check-only, uni   |
//! | JEDI                | [`enumerate_paths`] directed, returns   |
//! | Neo4j (Cypher)      | [`enumerate_paths`] undirected, returns |
//! | Postgres recursive  | [`PathTable`] — semi-naive iteration    |

use cs_graph::fxhash::FxHashSet;
use cs_graph::{EdgeId, Graph, LabelId, NodeId};
use std::collections::VecDeque;

/// Options shared by the path baselines.
#[derive(Debug, Clone, Default)]
pub struct PathOptions {
    /// Traverse edges only in their direction (the SPARQL 1.1 property
    /// path restriction the paper calls out).
    pub directed: bool,
    /// Restrict traversal to these edge labels (property-path regex
    /// stand-in; `None` = any label).
    pub labels: Option<Vec<String>>,
    /// Maximum path length in edges.
    pub max_len: usize,
    /// Stop after this many paths (safety valve; 0 = unlimited).
    pub max_paths: usize,
}

impl PathOptions {
    /// Directed traversal with a length bound.
    pub fn directed(max_len: usize) -> Self {
        PathOptions {
            directed: true,
            labels: None,
            max_len,
            max_paths: 0,
        }
    }

    /// Undirected traversal with a length bound.
    pub fn undirected(max_len: usize) -> Self {
        PathOptions {
            directed: false,
            labels: None,
            max_len,
            max_paths: 0,
        }
    }

    fn label_set(&self, g: &Graph) -> Option<FxHashSet<LabelId>> {
        self.labels
            .as_ref()
            .map(|ls| ls.iter().filter_map(|l| g.label_id(l)).collect())
    }
}

/// Check-only reachability (Virtuoso-like): is there a path from `from`
/// to `to` under the options? Returns as soon as one is found — no
/// paths are materialised, which is why this class is fastest in
/// Figs. 13/14 but answers a weaker question.
pub fn check_reachable(g: &Graph, from: NodeId, to: NodeId, opts: &PathOptions) -> bool {
    if from == to {
        return true;
    }
    let labels = opts.label_set(g);
    let mut seen = vec![false; g.node_count()];
    seen[from.index()] = true;
    let mut queue = VecDeque::from([(from, 0usize)]);
    while let Some((n, d)) = queue.pop_front() {
        if d >= opts.max_len {
            continue;
        }
        for a in g.adjacent(n) {
            if opts.directed && !a.outgoing() {
                continue;
            }
            if let Some(ls) = &labels {
                if !ls.contains(&g.edge(a.edge()).label) {
                    continue;
                }
            }
            if a.other() == to {
                return true;
            }
            if !seen[a.other().index()] {
                seen[a.other().index()] = true;
                queue.push_back((a.other(), d + 1));
            }
        }
    }
    false
}

/// Bounded BFS from `from` counting how many of `targets` are
/// reachable — the shared-closure form of check-only evaluation (one
/// traversal answers reachability to *all* targets, as a property-path
/// engine would).
pub fn reachable_targets(
    g: &Graph,
    from: NodeId,
    targets: &std::collections::HashSet<NodeId>,
    opts: &PathOptions,
) -> usize {
    let labels = opts.label_set(g);
    let mut seen = vec![false; g.node_count()];
    seen[from.index()] = true;
    let mut hit = usize::from(targets.contains(&from));
    let mut queue = VecDeque::from([(from, 0usize)]);
    while let Some((n, d)) = queue.pop_front() {
        if d >= opts.max_len {
            continue;
        }
        for a in g.adjacent(n) {
            if opts.directed && !a.outgoing() {
                continue;
            }
            if let Some(ls) = &labels {
                if !ls.contains(&g.edge(a.edge()).label) {
                    continue;
                }
            }
            if !seen[a.other().index()] {
                seen[a.other().index()] = true;
                if targets.contains(&a.other()) {
                    hit += 1;
                }
                queue.push_back((a.other(), d + 1));
            }
        }
    }
    hit
}

/// Enumerates all **simple** paths from `from` to `to` (JEDI-like when
/// directed, Cypher-like when undirected). Each path is its edge
/// sequence.
pub fn enumerate_paths(
    g: &Graph,
    from: NodeId,
    to: NodeId,
    opts: &PathOptions,
) -> Vec<Vec<EdgeId>> {
    let labels = opts.label_set(g);
    let mut out = Vec::new();
    let mut on_path = vec![false; g.node_count()];
    let mut path = Vec::new();
    on_path[from.index()] = true;
    dfs(
        g,
        from,
        to,
        opts,
        &labels,
        &mut on_path,
        &mut path,
        &mut out,
    );
    out
}

#[expect(
    clippy::too_many_arguments,
    reason = "the DFS carries its whole search state"
)]
fn dfs(
    g: &Graph,
    cur: NodeId,
    to: NodeId,
    opts: &PathOptions,
    labels: &Option<FxHashSet<LabelId>>,
    on_path: &mut [bool],
    path: &mut Vec<EdgeId>,
    out: &mut Vec<Vec<EdgeId>>,
) {
    if opts.max_paths != 0 && out.len() >= opts.max_paths {
        return;
    }
    if cur == to {
        out.push(path.clone());
        return;
    }
    if path.len() >= opts.max_len {
        return;
    }
    for a in g.adjacent(cur) {
        if opts.directed && !a.outgoing() {
            continue;
        }
        if on_path[a.other().index()] {
            continue;
        }
        if let Some(ls) = labels {
            if !ls.contains(&g.edge(a.edge()).label) {
                continue;
            }
        }
        on_path[a.other().index()] = true;
        path.push(a.edge());
        dfs(g, a.other(), to, opts, labels, on_path, path, out);
        path.pop();
        on_path[a.other().index()] = false;
    }
}

/// A materialised path relation built by semi-naive iteration — the
/// recursive-SQL baseline. Each round extends the frontier by one edge
/// (`path(s, x) ∧ edge(x, y) → path(s, y)`), with the cycle check
/// recursive SQL implements via a visited-node array.
#[derive(Debug, Default)]
pub struct PathTable {
    /// All discovered paths as `(start, end, edges)`.
    pub paths: Vec<(NodeId, NodeId, Vec<EdgeId>)>,
    /// Number of semi-naive rounds executed.
    pub rounds: usize,
}

/// Builds the path relation from every node of `sources`, up to
/// `opts.max_len`, and returns the paths ending in `targets`.
pub fn path_table(
    g: &Graph,
    sources: &[NodeId],
    targets: &[NodeId],
    opts: &PathOptions,
) -> PathTable {
    let labels = opts.label_set(g);
    let target_set: FxHashSet<NodeId> = targets.iter().copied().collect();
    let mut result = PathTable::default();

    // Delta = paths added last round, as (start, end, node-set, edges).
    let mut delta: Vec<(NodeId, NodeId, FxHashSet<NodeId>, Vec<EdgeId>)> = sources
        .iter()
        .map(|&s| (s, s, FxHashSet::from_iter([s]), Vec::new()))
        .collect();

    for round in 0..opts.max_len {
        let mut next = Vec::new();
        for (s, e, nodes, edges) in &delta {
            for a in g.adjacent(*e) {
                if opts.directed && !a.outgoing() {
                    continue;
                }
                if let Some(ls) = &labels {
                    if !ls.contains(&g.edge(a.edge()).label) {
                        continue;
                    }
                }
                if nodes.contains(&a.other()) {
                    continue; // simple paths only
                }
                let mut nn = nodes.clone();
                nn.insert(a.other());
                let mut ne = edges.clone();
                ne.push(a.edge());
                if target_set.contains(&a.other()) {
                    result.paths.push((*s, a.other(), ne.clone()));
                    if opts.max_paths != 0 && result.paths.len() >= opts.max_paths {
                        result.rounds = round + 1;
                        return result;
                    }
                }
                next.push((*s, a.other(), nn, ne));
            }
        }
        result.rounds = round + 1;
        if next.is_empty() {
            break;
        }
        delta = next;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_graph::generate::chain;
    use cs_graph::GraphBuilder;

    fn diamond() -> (cs_graph::Graph, NodeId, NodeId) {
        // a -> x -> b and a -> y -> b; plus a back-edge b -> a.
        let mut gb = GraphBuilder::new();
        let a = gb.add_node("a");
        let x = gb.add_node("x");
        let y = gb.add_node("y");
        let b = gb.add_node("b");
        gb.add_edge(a, "p", x);
        gb.add_edge(x, "p", b);
        gb.add_edge(a, "q", y);
        gb.add_edge(y, "q", b);
        gb.add_edge(b, "back", a);
        (gb.freeze(), a, b)
    }

    #[test]
    fn reachability_directed_vs_undirected() {
        let (g, a, b) = diamond();
        assert!(check_reachable(&g, a, b, &PathOptions::directed(5)));
        // Length bound matters.
        assert!(!check_reachable(&g, a, b, &PathOptions::directed(1)));
        assert!(check_reachable(&g, b, a, &PathOptions::directed(5))); // via back-edge
        assert!(check_reachable(&g, b, a, &PathOptions::undirected(2)));
        assert!(check_reachable(&g, a, a, &PathOptions::directed(0)));
    }

    #[test]
    fn label_constrained_reachability() {
        let (g, a, b) = diamond();
        let mut opts = PathOptions::directed(5);
        opts.labels = Some(vec!["p".into()]);
        assert!(check_reachable(&g, a, b, &opts));
        opts.labels = Some(vec!["back".into()]);
        assert!(!check_reachable(&g, a, b, &opts));
    }

    #[test]
    fn enumerate_directed_paths() {
        let (g, a, b) = diamond();
        let paths = enumerate_paths(&g, a, b, &PathOptions::directed(5));
        assert_eq!(paths.len(), 2); // via x and via y
        let undirected = enumerate_paths(&g, a, b, &PathOptions::undirected(5));
        assert_eq!(undirected.len(), 3); // + the back edge traversed against direction
    }

    #[test]
    fn enumerate_respects_caps() {
        let (g, a, b) = diamond();
        let mut opts = PathOptions::directed(5);
        opts.max_paths = 1;
        assert_eq!(enumerate_paths(&g, a, b, &opts).len(), 1);
        let short = enumerate_paths(&g, a, b, &PathOptions::directed(1));
        assert!(short.is_empty());
    }

    #[test]
    fn chain_path_counts() {
        // The Figure 2 chain has 2^N directed paths end-to-end.
        let w = chain(5);
        let paths = enumerate_paths(
            &w.graph,
            w.seeds[0][0],
            w.seeds[1][0],
            &PathOptions::directed(10),
        );
        assert_eq!(paths.len(), 32);
    }

    #[test]
    fn path_table_matches_enumeration() {
        let (g, a, b) = diamond();
        let pt = path_table(&g, &[a], &[b], &PathOptions::directed(5));
        let direct = enumerate_paths(&g, a, b, &PathOptions::directed(5));
        assert_eq!(pt.paths.len(), direct.len());
        assert!(pt.rounds >= 2);
        for (s, e, _) in &pt.paths {
            assert_eq!((*s, *e), (a, b));
        }
    }

    #[test]
    fn path_table_multi_source() {
        let (g, a, b) = diamond();
        let x = g.node_by_label("x").unwrap();
        let pt = path_table(&g, &[a, x], &[b], &PathOptions::directed(5));
        // Paths from a (2) plus from x (1).
        assert_eq!(pt.paths.len(), 3);
    }
}

#[cfg(test)]
mod reachable_targets_tests {
    use super::*;
    use cs_graph::GraphBuilder;
    use std::collections::HashSet;

    #[test]
    fn counts_reachable_subset() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_node("a");
        let x = gb.add_node("x");
        let b = gb.add_node("b");
        let c = gb.add_node("c");
        gb.add_edge(a, "r", x);
        gb.add_edge(x, "r", b);
        gb.add_edge(c, "r", x); // c unreachable FROM a (directed)
        let g = gb.freeze();
        let targets: HashSet<_> = [b, c].into_iter().collect();
        assert_eq!(
            reachable_targets(&g, a, &targets, &PathOptions::directed(5)),
            1
        );
        assert_eq!(
            reachable_targets(&g, a, &targets, &PathOptions::undirected(5)),
            2
        );
        // Source in targets counts immediately.
        let self_t: HashSet<_> = [a].into_iter().collect();
        assert_eq!(
            reachable_targets(&g, a, &self_t, &PathOptions::directed(0)),
            1
        );
    }
}
