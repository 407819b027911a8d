//! A greedy approximate group-Steiner baseline — the "heuristics
//! without guarantees but which have performed well" class the paper's
//! introduction describes (and the spirit of STAR / progressive GSTP
//! search).
//!
//! Strategy: start from the seed of the first group; repeatedly attach
//! the not-yet-covered group whose closest seed is nearest to the
//! current tree (multi-source BFS from the tree's nodes), then prune
//! non-seed leaves. Runs in O(m · (|N| + |E|)); the result is a valid
//! connecting tree but may be up to ~2× the optimum (classic
//! shortest-path-heuristic behaviour).

use crate::seeds::{SeedSets, SeedSpec};
use cs_graph::fxhash::FxHashSet;
use cs_graph::{EdgeId, Graph, NodeId};
use std::collections::VecDeque;

/// A tree found by the greedy heuristic.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxTree {
    /// Sorted tree edges.
    pub edges: Vec<EdgeId>,
    /// Edge count (unit cost).
    pub cost: usize,
}

/// Runs the greedy heuristic; `directed` restricts the BFS like the
/// UNI filter. Returns `None` when some group is unreachable. `All`
/// seed sets are ignored (they are satisfied by any node).
pub fn greedy_gstp(g: &Graph, seeds: &SeedSets, directed: bool) -> Option<ApproxTree> {
    let groups: Vec<&Vec<NodeId>> = seeds
        .specs()
        .iter()
        .filter_map(|s| match s {
            SeedSpec::Set(v) => Some(v),
            SeedSpec::All => None,
        })
        .collect();
    if groups.is_empty() {
        return None;
    }

    // Tree state: node set + edge set.
    let mut tree_nodes: FxHashSet<NodeId> = FxHashSet::default();
    let mut tree_edges: FxHashSet<EdgeId> = FxHashSet::default();
    tree_nodes.insert(groups[0][0]);
    let mut covered = vec![false; groups.len()];
    covered[0] = true;
    // Groups already touched by the initial node.
    for (gi, grp) in groups.iter().enumerate() {
        if grp.contains(&groups[0][0]) {
            covered[gi] = true;
        }
    }

    while covered.iter().any(|&c| !c) {
        // Multi-source BFS from the current tree.
        let mut parent_edge: Vec<Option<EdgeId>> = vec![None; g.node_count()];
        let mut dist: Vec<u32> = vec![u32::MAX; g.node_count()];
        let mut queue = VecDeque::new();
        for &n in &tree_nodes {
            dist[n.index()] = 0;
            queue.push_back(n);
        }
        // BFS until the nearest seed of an uncovered group is reached.
        let mut hit: Option<(usize, NodeId)> = None;
        'bfs: while let Some(n) = queue.pop_front() {
            for (gi, grp) in groups.iter().enumerate() {
                if !covered[gi] && grp.contains(&n) {
                    hit = Some((gi, n));
                    break 'bfs;
                }
            }
            for a in g.adjacent(n) {
                if directed && !a.outgoing() {
                    continue;
                }
                if dist[a.other().index()] == u32::MAX {
                    dist[a.other().index()] = dist[n.index()] + 1;
                    parent_edge[a.other().index()] = Some(a.edge());
                    queue.push_back(a.other());
                }
            }
        }
        let (gi, mut at) = hit?;
        covered[gi] = true;
        // Walk the BFS parents back to the tree, adding the path.
        while !tree_nodes.contains(&at) {
            #[expect(
                clippy::expect_used,
                reason = "`at` descends the BFS parent chain from `hit`, and every visited node recorded its parent"
            )]
            let e = parent_edge[at.index()].expect("path to tree exists");
            tree_edges.insert(e);
            tree_nodes.insert(at);
            at = g.other_endpoint(e, at);
        }
        // Newly attached nodes may cover further groups for free.
        for (gj, grp) in groups.iter().enumerate() {
            if !covered[gj] && grp.iter().any(|s| tree_nodes.contains(s)) {
                covered[gj] = true;
            }
        }
    }

    // Prune non-seed leaves (keep the tree minimal-ish).
    let mut edges: Vec<EdgeId> = tree_edges.into_iter().collect();
    edges.sort_unstable();
    let (edges, _) = crate::algo::minimize(g, &edges, seeds);
    let mut edges = edges.into_vec();
    edges.sort_unstable();
    let cost = edges.len();
    Some(ApproxTree { edges, cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::dpbf;
    use cs_graph::generate::{line, random_connected, star};
    use cs_graph::GraphBuilder;

    #[test]
    fn finds_line_tree() {
        let w = line(3, 2);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let t = greedy_gstp(&w.graph, &seeds, false).unwrap();
        assert_eq!(t.cost, w.graph.edge_count());
        assert!(crate::tree::is_tree(&w.graph, &t.edges));
    }

    #[test]
    fn finds_star_tree() {
        let w = star(5, 2);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let t = greedy_gstp(&w.graph, &seeds, false).unwrap();
        assert_eq!(t.cost, 10);
    }

    #[test]
    fn never_beats_dpbf_optimum() {
        for seed in 0..20u64 {
            let g = random_connected(15, 8, seed);
            let seeds = SeedSets::from_sets(vec![
                vec![cs_graph::NodeId(0)],
                vec![cs_graph::NodeId(7)],
                vec![cs_graph::NodeId(14)],
            ])
            .unwrap();
            let opt = dpbf(&g, &seeds, false).unwrap();
            let approx = greedy_gstp(&g, &seeds, false).unwrap();
            assert!(
                approx.cost >= opt.edges.len(),
                "seed {seed}: approx {} below optimum {}",
                approx.cost,
                opt.edges.len()
            );
            assert!(crate::tree::is_tree(&g, &approx.edges));
            // The greedy heuristic stays within a small factor here.
            assert!(approx.cost <= 3 * opt.edges.len().max(1));
        }
    }

    #[test]
    fn unreachable_group_returns_none() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        let d = b.add_node("d");
        b.add_edge(a, "r", c);
        let g = b.freeze();
        let seeds = SeedSets::from_sets(vec![vec![a], vec![d]]).unwrap();
        assert!(greedy_gstp(&g, &seeds, false).is_none());
    }

    #[test]
    fn directed_variant_respects_orientation() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        let x = b.add_node("x");
        let c = b.add_node("c");
        b.add_edge(a, "r", x);
        b.add_edge(c, "r", x);
        let g = b.freeze();
        let seeds = SeedSets::from_sets(vec![vec![a], vec![c]]).unwrap();
        assert!(greedy_gstp(&g, &seeds, false).is_some());
        // Directed: from a we can reach x but never c.
        assert!(greedy_gstp(&g, &seeds, true).is_none());
    }
}
