//! CTP results (paper Def. 2.8) and search outcome bookkeeping.

use crate::seedmask::SeedMask;
use crate::seeds::{SeedSets, SeedSpec};
use cs_graph::fxhash::FxHashSet;
use cs_graph::{EdgeId, Graph, NodeId};
use std::time::Duration;

/// One CTP result: the tuple `(s1, …, sm, t)` — a minimal tree `t`
/// containing exactly one node from each explicit seed set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultTree {
    /// The tree's edges, sorted (the canonical edge set).
    pub edges: Box<[EdgeId]>,
    /// The tree's nodes, sorted.
    pub nodes: Box<[NodeId]>,
    /// The seed bound to each set position: `seeds[i] ∈ S_i`. For an
    /// `All` (`N`) seed set, the reported node is the tree root at
    /// discovery time (any tree node matches such a set).
    pub seeds: Box<[NodeId]>,
}

impl ResultTree {
    /// Number of edges.
    pub fn size(&self) -> usize {
        self.edges.len()
    }

    /// Extracts the per-set seed tuple from a tree's sorted node array.
    pub fn from_tree(
        edges: Box<[EdgeId]>,
        nodes: Box<[NodeId]>,
        root: NodeId,
        seeds: &SeedSets,
    ) -> Self {
        let m = seeds.m();
        let mut chosen = vec![root; m];
        for &n in nodes.iter() {
            let mask = seeds.membership(n);
            for i in mask.iter() {
                chosen[i] = n;
            }
        }
        // `All` positions keep the root; explicit positions were
        // overwritten (a result has exactly one node per explicit set).
        for (i, spec) in seeds.specs().iter().enumerate() {
            if let SeedSpec::Set(_) = spec {
                debug_assert!(
                    nodes.iter().any(|&n| seeds.membership(n).contains(i)),
                    "result misses seed set {i}"
                );
            }
        }
        ResultTree {
            edges,
            nodes,
            seeds: chosen.into_boxed_slice(),
        }
    }

    /// The canonical total order over result trees: edge set, then
    /// nodes, then the bound seed tuple. This single definition backs
    /// the EQL layer's materialised ordering and its `SCORE` tie-break,
    /// so "canonical order" cannot silently diverge between them.
    pub fn canonical_cmp(&self, other: &ResultTree) -> std::cmp::Ordering {
        self.edges
            .cmp(&other.edges)
            .then_with(|| self.nodes.cmp(&other.nodes))
            .then_with(|| self.seeds.cmp(&other.seeds))
    }

    /// Pretty-prints the tree's edges via the graph's labels.
    pub fn describe(&self, g: &Graph) -> String {
        if self.edges.is_empty() {
            return format!("single node {}", g.node_label(self.nodes[0]));
        }
        self.edges
            .iter()
            .map(|&e| g.describe_edge(e))
            .collect::<Vec<_>>()
            .join(" ; ")
    }
}

/// The set of results found by a search, deduplicated by edge set
/// (results are edge sets; the root is meaningless in a result, §4.4).
#[derive(Debug, Default)]
pub struct ResultSet {
    trees: Vec<ResultTree>,
    /// Dedup index: (edge set, anchor node) of every kept tree.
    seen: FxHashSet<(Box<[EdgeId]>, NodeId)>,
}

impl ResultSet {
    /// Empty result set.
    pub fn new() -> Self {
        ResultSet::default()
    }

    /// Number of results.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True if no results were found.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The results, in discovery order.
    pub fn trees(&self) -> &[ResultTree] {
        &self.trees
    }

    /// Takes ownership of the results.
    pub fn into_trees(self) -> Vec<ResultTree> {
        self.trees
    }

    /// Inserts a result; returns false if an identical edge set (plus
    /// anchor node, for 0-edge results) was already present. The first
    /// insertion wins — discovery order, the sequential engine's
    /// contract.
    pub fn insert(&mut self, r: ResultTree) -> bool {
        let anchor = r.nodes.first().copied().unwrap_or(NodeId(0));
        if !self.seen.insert((r.edges.clone(), anchor)) {
            return false;
        }
        self.trees.push(r);
        true
    }

    /// Rebuilds a result set from trees (e.g. replayed from a result
    /// cache), restoring the dedup index. Insertion order is kept, so
    /// feeding canonically sorted trees yields a canonically sorted
    /// set.
    pub fn from_trees(trees: impl IntoIterator<Item = ResultTree>) -> Self {
        let mut rs = ResultSet::new();
        for t in trees {
            rs.insert(t);
        }
        rs
    }

    /// The results' canonical edge sets, sorted — convenient for
    /// comparing two algorithms' outputs in tests.
    pub fn canonical(&self) -> Vec<Vec<EdgeId>> {
        let mut v: Vec<Vec<EdgeId>> = self.trees.iter().map(|t| t.edges.to_vec()).collect();
        v.sort();
        v
    }
}

/// Counters describing one search run (Fig. 11 plots `provenances`).
///
/// `grows` and `merges` count constructions, not kept trees: each
/// passed Grow1–2 or Merge1–2 and the `MAX` bound, and then met the
/// history check, which kept it or counted it in `pruned`. So for a
/// search that ran to its end, `provenances` = Init trees + `grows` +
/// `merges` + `mo_copies` − `pruned`. Under `MAX`, a tree at the bound
/// gets no merge pass (its only partner within the bound would rebuild
/// it), so it adds nothing to `merges` or `pruned`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Provenances kept (passed the history check) — Init + Grow +
    /// Merge + Mo.
    pub provenances: u64,
    /// Grow constructions: queued (tree, edge) pairs popped and built.
    pub grows: u64,
    /// Merge constructions: pairs of trees rooted at one node that
    /// passed Merge1–2 and `MAX` and were built.
    pub merges: u64,
    /// MoESP copies created. They skip the history check (only an
    /// identical rooted tree stops one), so every copy is kept.
    pub mo_copies: u64,
    /// Constructions the history rejected (ESP, or GAM's rooted-tree
    /// dedup).
    pub pruned: u64,
    /// (tree, edge) pairs pushed to the queue.
    pub queue_pushes: u64,
    /// True if the wall-clock timeout fired.
    pub timed_out: bool,
    /// True if the provenance budget was exhausted.
    pub budget_exhausted: bool,
    /// True if the search stopped because its
    /// [`CancelFlag`](crate::CancelFlag) was raised.
    pub cancelled: bool,
}

/// One line, every counter, then a marker for each early stop:
/// `9 provenances, 7 grows, 2 merges, 0 mo copies, 1 pruned, 7 queue
/// pushes (TIMED OUT)`.
impl std::fmt::Display for SearchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} provenances, {} grows, {} merges, {} mo copies, {} pruned, {} queue pushes",
            self.provenances,
            self.grows,
            self.merges,
            self.mo_copies,
            self.pruned,
            self.queue_pushes
        )?;
        for (stopped, marker) in [
            (self.timed_out, "TIMED OUT"),
            (self.budget_exhausted, "BUDGET EXHAUSTED"),
            (self.cancelled, "CANCELLED"),
        ] {
            if stopped {
                write!(f, " ({marker})")?;
            }
        }
        Ok(())
    }
}

/// A search's outcome: results, statistics, duration.
#[derive(Debug)]
pub struct SearchOutcome {
    /// The results found.
    pub results: ResultSet,
    /// Search counters.
    pub stats: SearchStats,
    /// Wall-clock duration.
    pub duration: Duration,
}

impl SearchOutcome {
    /// True if the search ran to completion (no timeout / budget /
    /// cancellation stop).
    pub fn complete(&self) -> bool {
        !self.stats.timed_out && !self.stats.budget_exhausted && !self.stats.cancelled
    }
}

/// Verifies that a result is a minimal connecting tree per Def. 2.8:
/// it is a tree, every leaf is a seed, and it has exactly one node per
/// explicit seed set. Used by tests and debug assertions.
pub fn check_result_minimal(g: &Graph, r: &ResultTree, seeds: &SeedSets) -> Result<(), String> {
    if !crate::tree::is_tree(g, &r.edges) {
        return Err("edge set is not a tree".into());
    }
    // Count per-set occurrences.
    let mut per_set = vec![0usize; seeds.m()];
    for &n in r.nodes.iter() {
        for i in seeds.membership(n).iter() {
            per_set[i] += 1;
        }
    }
    for (i, spec) in seeds.specs().iter().enumerate() {
        match spec {
            SeedSpec::Set(_) => {
                if per_set[i] != 1 {
                    return Err(format!("set {i} has {} nodes, expected 1", per_set[i]));
                }
            }
            SeedSpec::All => {} // any number allowed
        }
    }
    // Every leaf must be a seed (Observation 1). With an `N` seed set
    // (§4.9) a non-seed leaf is admissible as that set's match — it is
    // reported in `r.seeds`.
    if !r.edges.is_empty() {
        use cs_graph::fxhash::FxHashMap;
        let has_all_set = !seeds.presatisfied().is_empty();
        let mut deg: FxHashMap<NodeId, usize> = FxHashMap::default();
        for &e in r.edges.iter() {
            let ed = g.edge(e);
            *deg.entry(ed.src).or_default() += 1;
            *deg.entry(ed.dst).or_default() += 1;
        }
        for (&n, &d) in &deg {
            if d == 1 && seeds.membership(n).is_empty() && !has_all_set {
                return Err(format!("leaf {n:?} is not a seed"));
            }
        }
    }
    Ok(())
}

/// Satisfaction mask of an arbitrary edge set (which explicit seed sets
/// have a node in it) — helper for baselines and tests.
pub fn sat_of_nodes(nodes: &[NodeId], seeds: &SeedSets) -> SeedMask {
    let mut m = SeedMask::EMPTY;
    for &n in nodes {
        m = m.union(seeds.membership(n));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_graph::GraphBuilder;

    fn path_graph() -> (Graph, Vec<NodeId>, Vec<EdgeId>) {
        let mut b = GraphBuilder::new();
        let ns: Vec<NodeId> = (0..4).map(|i| b.add_node(&format!("n{i}"))).collect();
        let es = vec![
            b.add_edge(ns[0], "r", ns[1]),
            b.add_edge(ns[1], "r", ns[2]),
            b.add_edge(ns[2], "r", ns[3]),
        ];
        (b.freeze(), ns, es)
    }

    #[test]
    fn result_set_dedup() {
        let (_, ns, es) = path_graph();
        let mut rs = ResultSet::new();
        let r = ResultTree {
            edges: es.clone().into_boxed_slice(),
            nodes: ns.clone().into_boxed_slice(),
            seeds: vec![ns[0], ns[3]].into_boxed_slice(),
        };
        assert!(rs.insert(r.clone()));
        assert!(!rs.insert(r));
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn from_trees_restores_dedup_index() {
        let (_, ns, es) = path_graph();
        let r = ResultTree {
            edges: es.clone().into_boxed_slice(),
            nodes: ns.clone().into_boxed_slice(),
            seeds: vec![ns[0], ns[3]].into_boxed_slice(),
        };
        let mut rs = ResultSet::from_trees(vec![r.clone()]);
        assert_eq!(rs.len(), 1);
        assert!(!rs.insert(r));
    }

    #[test]
    fn zero_edge_results_distinct_by_node() {
        let (_, ns, _) = path_graph();
        let mut rs = ResultSet::new();
        for &n in &ns[..2] {
            assert!(rs.insert(ResultTree {
                edges: Box::new([]),
                nodes: vec![n].into_boxed_slice(),
                seeds: vec![n].into_boxed_slice(),
            }));
        }
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn from_tree_extracts_seeds() {
        let (_, ns, es) = path_graph();
        let seeds = SeedSets::from_sets(vec![vec![ns[0]], vec![ns[3]]]).unwrap();
        let r = ResultTree::from_tree(
            es.clone().into_boxed_slice(),
            ns.clone().into_boxed_slice(),
            ns[3],
            &seeds,
        );
        assert_eq!(r.seeds.as_ref(), &[ns[0], ns[3]]);
    }

    #[test]
    fn minimality_checker() {
        let (g, ns, es) = path_graph();
        let seeds = SeedSets::from_sets(vec![vec![ns[0]], vec![ns[3]]]).unwrap();
        let good = ResultTree {
            edges: es.clone().into_boxed_slice(),
            nodes: ns.clone().into_boxed_slice(),
            seeds: vec![ns[0], ns[3]].into_boxed_slice(),
        };
        assert!(check_result_minimal(&g, &good, &seeds).is_ok());

        // A subtree ending in a non-seed leaf fails.
        let bad = ResultTree {
            edges: vec![es[0], es[1]].into_boxed_slice(),
            nodes: ns[..3].to_vec().into_boxed_slice(),
            seeds: vec![ns[0], ns[3]].into_boxed_slice(),
        };
        let err = check_result_minimal(&g, &bad, &seeds).unwrap_err();
        assert!(err.contains("set 1") || err.contains("leaf"), "{err}");
    }

    #[test]
    fn sat_helper() {
        let (_, ns, _) = path_graph();
        let seeds = SeedSets::from_sets(vec![vec![ns[0]], vec![ns[3]]]).unwrap();
        assert_eq!(sat_of_nodes(&[ns[0], ns[1]], &seeds), SeedMask::single(0));
        assert_eq!(sat_of_nodes(&ns, &seeds), SeedMask::full(2));
    }

    #[test]
    fn describe_result() {
        let (g, ns, es) = path_graph();
        let r = ResultTree {
            edges: vec![es[0]].into_boxed_slice(),
            nodes: ns[..2].to_vec().into_boxed_slice(),
            seeds: vec![ns[0], ns[1]].into_boxed_slice(),
        };
        assert_eq!(r.describe(&g), "n0 -r-> n1");
        let single = ResultTree {
            edges: Box::new([]),
            nodes: vec![ns[0]].into_boxed_slice(),
            seeds: vec![ns[0]].into_boxed_slice(),
        };
        assert!(single.describe(&g).contains("single node"));
    }

    #[test]
    fn stats_line_shows_every_counter_and_stop() {
        let mut s = SearchStats {
            provenances: 9,
            grows: 7,
            merges: 2,
            mo_copies: 1,
            pruned: 1,
            queue_pushes: 8,
            ..SearchStats::default()
        };
        assert_eq!(
            s.to_string(),
            "9 provenances, 7 grows, 2 merges, 1 mo copies, 1 pruned, 8 queue pushes"
        );
        s.timed_out = true;
        s.cancelled = true;
        assert!(s
            .to_string()
            .ends_with(" queue pushes (TIMED OUT) (CANCELLED)"));
    }
}
