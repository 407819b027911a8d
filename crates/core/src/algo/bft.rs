//! The breadth-first baseline algorithms (paper §4.1, §4.3): BFT,
//! BFT-M (single Merge pass), and BFT-AM (aggressive Merge).
//!
//! Unlike GAM, BFT views a tree as a bare edge set and grows it from
//! *any* of its nodes, generation by generation. A tree reaching full
//! `sat` must be **minimised** (stripping edges that do not lead to a
//! seed) before being reported — the per-result cost the paper blames
//! for BFT's poor performance (§5.4.1).

use crate::config::{Filters, QueueOrder};
use crate::result::{ResultSet, ResultTree, SearchOutcome, SearchStats};
use crate::seedmask::SeedMask;
use crate::seeds::SeedSets;
use crate::tree::nodes_intersect_only_at;
use cs_graph::fxhash::{FxHashMap, FxHashSet};
use cs_graph::{EdgeId, Graph, NodeId};
use std::time::Instant;

/// Merge behaviour of the BFT variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BftMerge {
    /// Plain BFT: Grow only.
    None,
    /// BFT-M: each grown tree merges once with all compatible partners,
    /// but merge results are not merged again in the same step.
    Single,
    /// BFT-AM: merge results merge again, exhaustively.
    Aggressive,
}

/// An unrooted tree (edge set) in the BFT search.
#[derive(Debug, Clone)]
struct UTree {
    edges: Box<[EdgeId]>,
    nodes: Box<[NodeId]>,
    sat: SeedMask,
}

/// The BFT-family search state.
struct BftEngine<'g> {
    g: &'g Graph,
    seeds: &'g SeedSets,
    merge: BftMerge,
    filters: Filters,
    label_filter: Option<FxHashSet<cs_graph::LabelId>>,
    /// Every tree ever built, for duplicate suppression ("any tree
    /// built during the search must be stored", §4.1). Keyed by edge
    /// set; the root is irrelevant here. Empty edge sets (Init trees)
    /// are distinguished by their single node.
    memory: FxHashSet<(Box<[EdgeId]>, NodeId)>,
    trees: Vec<UTree>,
    /// Node → tree indices containing it (merge-partner index).
    by_node: FxHashMap<NodeId, Vec<usize>>,
    results: ResultSet,
    stats: SearchStats,
    deadline: Option<Instant>,
    /// Units of work since the search began; the clock and the cancel
    /// flag are read every 64 (see [`BftEngine::tick`]).
    tick: u32,
    stop: bool,
}

impl<'g> BftEngine<'g> {
    fn anchor(t: &UTree) -> NodeId {
        t.nodes.first().copied().unwrap_or(NodeId(0))
    }

    /// Registers a tree if unseen; returns its index.
    fn register(&mut self, t: UTree) -> Option<usize> {
        if !self.memory.insert((t.edges.clone(), Self::anchor(&t))) {
            self.stats.pruned += 1;
            return None;
        }
        self.stats.provenances += 1;
        if let Some(maxp) = self.filters.max_provenances {
            if self.stats.provenances >= maxp {
                self.stats.budget_exhausted = true;
                self.stop = true;
            }
        }
        let full = t.sat.union(self.seeds.presatisfied()) == self.seeds.full();
        let idx = self.trees.len();
        self.trees.push(t);
        if full {
            self.report(idx);
            // A full-sat tree cannot gain new seeds (Grow2 forbids
            // seeds of covered sets), so any growth minimises back to
            // the same result: it is terminal — unless an `N` seed set
            // is present (§4.9), where supertrees are further results.
            if self.seeds.presatisfied().is_empty() {
                return None;
            }
        }
        for &n in self.trees[idx].nodes.iter() {
            self.by_node.entry(n).or_default().push(idx);
        }
        Some(idx)
    }

    /// Minimises a full-sat tree and inserts it into the results.
    fn report(&mut self, idx: usize) {
        let t = &self.trees[idx];
        // With an `N` seed set, non-seed leaves are the N-matches and
        // must not be stripped.
        let (edges, nodes) = if self.seeds.presatisfied().is_empty() {
            minimize(self.g, &t.edges, self.seeds)
        } else {
            (t.edges.clone(), t.nodes.clone())
        };
        let root = nodes.first().copied().unwrap_or(Self::anchor(t));
        let r = ResultTree::from_tree(edges, nodes, root, self.seeds);
        debug_assert!(
            crate::result::check_result_minimal(self.g, &r, self.seeds).is_ok(),
            "minimisation failed"
        );
        self.results.insert(r);
        if let Some(k) = self.filters.max_results {
            if self.results.len() >= k {
                self.stop = true;
            }
        }
    }

    /// All Grow extensions of tree `idx` (from any node).
    fn grow_all(&mut self, idx: usize) -> Vec<usize> {
        let mut new_ids = Vec::new();
        let t = self.trees[idx].clone();
        if let Some(maxe) = self.filters.max_edges {
            if t.edges.len() + 1 > maxe {
                return new_ids;
            }
        }
        for &n in t.nodes.iter() {
            for a in self.g.adjacent(n) {
                self.tick();
                if self.stop {
                    return new_ids;
                }
                // For an unrooted tree the UNI semantics cannot be
                // enforced incrementally; BFT is used as the
                // bidirectional reference algorithm only.
                if let Some(lf) = &self.label_filter {
                    if !lf.contains(&self.g.edge(a.edge()).label) {
                        continue;
                    }
                }
                if t.nodes.binary_search(&a.other()).is_ok() {
                    continue; // Grow1
                }
                if !self.seeds.membership(a.other()).disjoint(t.sat) {
                    continue; // Grow2
                }
                self.stats.grows += 1;
                let nt = UTree {
                    edges: sorted_insert(&t.edges, a.edge()),
                    nodes: sorted_insert(&t.nodes, a.other()),
                    sat: t.sat.union(self.seeds.membership(a.other())),
                };
                if let Some(id) = self.register(nt) {
                    new_ids.push(id);
                }
            }
        }
        new_ids
    }

    /// Merges tree `idx` with every compatible partner; returns newly
    /// created tree indices.
    fn merge_with_partners(&mut self, idx: usize) -> Vec<usize> {
        let mut created = Vec::new();
        let t = self.trees[idx].clone();
        // Candidate partners share at least one node.
        let mut cands: Vec<usize> = Vec::new();
        for &n in t.nodes.iter() {
            if let Some(v) = self.by_node.get(&n) {
                cands.extend_from_slice(v);
            }
        }
        cands.sort_unstable();
        cands.dedup();
        for p in cands {
            self.tick();
            if self.stop {
                break;
            }
            if p == idx {
                continue;
            }
            let other = &self.trees[p];
            // The shared node must be unique: find it.
            let Some(shared) = single_shared_node(&t.nodes, &other.nodes) else {
                continue;
            };
            // Seed sets covered by both trees are only admissible when
            // the witness is the shared node itself (same relaxation as
            // rooted Merge2 — see `TreeStore::make_merge`).
            let overlap = t.sat.intersect(other.sat);
            if !self.seeds.membership(shared).superset_of(overlap) {
                continue;
            }
            if !nodes_intersect_only_at(&t.nodes, &other.nodes, shared) {
                continue;
            }
            if let Some(maxe) = self.filters.max_edges {
                if t.edges.len() + other.edges.len() > maxe {
                    continue;
                }
            }
            self.stats.merges += 1;
            let nt = UTree {
                edges: sorted_union(&t.edges, &other.edges),
                nodes: sorted_union(&t.nodes, &other.nodes),
                sat: t.sat.union(other.sat),
            };
            if let Some(id) = self.register(nt) {
                created.push(id);
            }
        }
        created
    }

    /// Counts one unit of work — a Grow edge tried or a Merge partner
    /// tried — and checks the clock every 64 units, like the GAM
    /// engine's `check_time`, so a deadline or a cancel stops the
    /// search inside a generation and not only between generations.
    fn tick(&mut self) {
        self.tick = self.tick.wrapping_add(1);
        if self.tick.is_multiple_of(64) {
            self.check_time();
        }
    }

    /// Reads the clock and the cancel flag; either stops the search.
    fn check_time(&mut self) {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.stats.timed_out = true;
                self.stop = true;
            }
        }
        if self.filters.cancel_requested() {
            self.stats.cancelled = true;
            self.stop = true;
        }
    }

    fn run(mut self) -> SearchOutcome {
        let start = Instant::now();
        self.deadline = self.filters.timeout.map(|t| start + t);

        // Generation 0: Init trees.
        let mut generation: Vec<usize> = Vec::new();
        for n in self.seeds.all_seed_nodes() {
            let t = UTree {
                edges: Box::new([]),
                nodes: vec![n].into_boxed_slice(),
                sat: self.seeds.membership(n),
            };
            if let Some(id) = self.register(t) {
                generation.push(id);
            }
            if self.stop {
                break;
            }
        }

        while !generation.is_empty() && !self.stop {
            self.check_time();
            let mut next = Vec::new();
            for idx in generation {
                if self.stop {
                    break;
                }
                let grown = self.grow_all(idx);
                for gidx in grown {
                    next.push(gidx);
                    match self.merge {
                        BftMerge::None => {}
                        // Step (2a) only: merge the grown tree with all
                        // compatible partners, but leave the merge
                        // results un-merged (§4.3).
                        BftMerge::Single => {
                            next.extend(self.merge_with_partners(gidx));
                        }
                        // Steps (2a)+(2b): merge results merge again
                        // until closure.
                        BftMerge::Aggressive => {
                            let mut work = self.merge_with_partners(gidx);
                            while let Some(midx) = work.pop() {
                                next.push(midx);
                                if self.stop {
                                    break;
                                }
                                work.extend(self.merge_with_partners(midx));
                            }
                        }
                    }
                    if self.stop {
                        break;
                    }
                }
            }
            generation = next;
        }

        SearchOutcome {
            results: self.results,
            stats: self.stats,
            duration: start.elapsed(),
        }
    }
}

/// Returns the single shared node of two sorted node arrays, or `None`
/// if they share zero or two-plus nodes.
fn single_shared_node(a: &[NodeId], b: &[NodeId]) -> Option<NodeId> {
    let (mut i, mut j) = (0, 0);
    let mut found = None;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if found.is_some() {
                    return None;
                }
                found = Some(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    found
}

/// Minimises a connected full-sat edge set: repeatedly strips non-seed
/// leaves ("removing all edges that do not lead to a seed", §4.1).
/// Returns sorted `(edges, nodes)`.
pub fn minimize(g: &Graph, edges: &[EdgeId], seeds: &SeedSets) -> (Box<[EdgeId]>, Box<[NodeId]>) {
    let mut cur: Vec<EdgeId> = edges.to_vec();
    loop {
        // Degree count.
        let mut deg: FxHashMap<NodeId, u32> = FxHashMap::default();
        for &e in &cur {
            let ed = g.edge(e);
            *deg.entry(ed.src).or_default() += 1;
            *deg.entry(ed.dst).or_default() += 1;
        }
        let before = cur.len();
        cur.retain(|&e| {
            let ed = g.edge(e);
            let strip = |n: NodeId| deg[&n] == 1 && seeds.membership(n).is_empty();
            !(strip(ed.src) || strip(ed.dst))
        });
        if cur.len() == before {
            break;
        }
    }
    cur.sort_unstable();
    let mut nodes: Vec<NodeId> = Vec::new();
    for &e in &cur {
        let ed = g.edge(e);
        nodes.push(ed.src);
        nodes.push(ed.dst);
    }
    nodes.sort_unstable();
    nodes.dedup();
    if nodes.is_empty() {
        // 0-edge result: the minimal tree is one seed node; callers
        // handle that case before minimising.
    }
    (cur.into_boxed_slice(), nodes.into_boxed_slice())
}

/// Runs a BFT-family search.
pub fn run_bft(
    g: &Graph,
    seeds: &SeedSets,
    merge: BftMerge,
    filters: Filters,
    _order: QueueOrder,
) -> SearchOutcome {
    let label_filter = filters.resolve_labels(g);
    let engine = BftEngine {
        g,
        seeds,
        merge,
        filters,
        label_filter,
        memory: FxHashSet::default(),
        trees: Vec::new(),
        by_node: FxHashMap::default(),
        results: ResultSet::new(),
        stats: SearchStats::default(),
        deadline: None,
        tick: 0,
        stop: false,
    };
    engine.run()
}

/// Inserts `x` into a sorted slice, returning a new sorted boxed slice.
/// Duplicates are rejected by a debug assertion (trees never repeat an
/// edge or node).
fn sorted_insert<T: Ord + Copy>(slice: &[T], x: T) -> Box<[T]> {
    let pos = match slice.binary_search(&x) {
        Ok(_) => {
            debug_assert!(false, "duplicate insertion into tree set");
            return slice.to_vec().into_boxed_slice();
        }
        Err(p) => p,
    };
    let mut v = Vec::with_capacity(slice.len() + 1);
    v.extend_from_slice(&slice[..pos]);
    v.push(x);
    v.extend_from_slice(&slice[pos..]);
    v.into_boxed_slice()
}

/// Union of two sorted slices (assumed internally duplicate-free).
fn sorted_union<T: Ord + Copy>(a: &[T], b: &[T]) -> Box<[T]> {
    let mut v = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                v.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                v.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                v.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    v.extend_from_slice(&a[i..]);
    v.extend_from_slice(&b[j..]);
    v.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::gam::{run_gam_family, GamConfig};
    use cs_graph::generate::{chain, comb, line, star};

    fn bft_outcome(w: &cs_graph::generate::Workload, merge: BftMerge) -> SearchOutcome {
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        run_bft(
            &w.graph,
            &seeds,
            merge,
            Filters::none(),
            QueueOrder::SmallestFirst,
        )
    }

    #[test]
    fn bft_complete_on_line() {
        for merge in [BftMerge::None, BftMerge::Single, BftMerge::Aggressive] {
            let w = line(3, 1);
            let out = bft_outcome(&w, merge);
            assert_eq!(out.results.len(), 1, "{merge:?}");
        }
    }

    #[test]
    fn bft_matches_gam_on_chain() {
        // Both must find all 2^N results of the Figure 2 chain.
        for n in 1..=4 {
            let w = chain(n);
            let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
            let bft = run_bft(
                &w.graph,
                &seeds,
                BftMerge::None,
                Filters::none(),
                QueueOrder::SmallestFirst,
            );
            let gam = run_gam_family(
                &w.graph,
                &seeds,
                GamConfig::GAM,
                Filters::none(),
                QueueOrder::SmallestFirst,
            );
            assert_eq!(bft.results.canonical(), gam.results.canonical(), "n={n}");
        }
    }

    #[test]
    fn bft_matches_gam_on_star_and_comb() {
        let ws = [star(3, 2), comb(2, 1, 2, 1)];
        for w in &ws {
            let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
            let bft = run_bft(
                &w.graph,
                &seeds,
                BftMerge::Aggressive,
                Filters::none(),
                QueueOrder::SmallestFirst,
            );
            let gam = run_gam_family(
                &w.graph,
                &seeds,
                GamConfig::GAM,
                Filters::none(),
                QueueOrder::SmallestFirst,
            );
            assert_eq!(bft.results.canonical(), gam.results.canonical());
        }
    }

    #[test]
    fn bft_needs_minimisation() {
        // On a line with a side branch the BFT search builds trees with
        // useless edges which minimisation strips; the reported result
        // must be exactly the seed-to-seed path.
        use cs_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let x = b.add_node("x");
        let y = b.add_node("y"); // dead-end branch
        let c = b.add_node("C");
        let e0 = b.add_edge(a, "r", x);
        let _dead = b.add_edge(x, "r", y);
        let e2 = b.add_edge(x, "r", c);
        let g = b.freeze();
        let seeds = SeedSets::from_sets(vec![vec![a], vec![c]]).unwrap();
        let out = run_bft(
            &g,
            &seeds,
            BftMerge::None,
            Filters::none(),
            QueueOrder::SmallestFirst,
        );
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results.trees()[0].edges.as_ref(), &[e0, e2]);
    }

    #[test]
    fn minimize_strips_dead_branches() {
        use cs_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let x = b.add_node("x");
        let y = b.add_node("y");
        let z = b.add_node("z");
        let c = b.add_node("C");
        let e0 = b.add_edge(a, "r", x);
        let e1 = b.add_edge(x, "r", y);
        let e2 = b.add_edge(y, "r", z); // branch of length 2
        let e3 = b.add_edge(x, "r", c);
        let g = b.freeze();
        let seeds = SeedSets::from_sets(vec![vec![a], vec![c]]).unwrap();
        let (edges, nodes) = minimize(&g, &[e0, e1, e2, e3], &seeds);
        assert_eq!(edges.as_ref(), &[e0, e3]);
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn variants_build_different_amounts() {
        // BFT-AM merges more than BFT-M, which merges more than BFT
        // (counted as merge operations attempted).
        let w = star(3, 2);
        let none = bft_outcome(&w, BftMerge::None);
        let single = bft_outcome(&w, BftMerge::Single);
        let aggressive = bft_outcome(&w, BftMerge::Aggressive);
        assert_eq!(none.stats.merges, 0);
        assert!(single.stats.merges > 0);
        assert!(aggressive.stats.merges >= single.stats.merges);
        // All complete variants agree on the results.
        assert_eq!(none.results.canonical(), single.results.canonical());
        assert_eq!(none.results.canonical(), aggressive.results.canonical());
    }

    #[test]
    fn budget_and_limit_respected() {
        let w = chain(8);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let out = run_bft(
            &w.graph,
            &seeds,
            BftMerge::None,
            Filters::none().with_max_provenances(100),
            QueueOrder::SmallestFirst,
        );
        assert!(out.stats.budget_exhausted);
        let out = run_bft(
            &w.graph,
            &seeds,
            BftMerge::None,
            Filters::none().with_max_results(3),
            QueueOrder::SmallestFirst,
        );
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn single_shared_node_cases() {
        use cs_graph::NodeId;
        let n = |i| NodeId(i);
        assert_eq!(single_shared_node(&[n(1), n(2)], &[n(2), n(3)]), Some(n(2)));
        assert_eq!(single_shared_node(&[n(1)], &[n(2)]), None);
        assert_eq!(
            single_shared_node(&[n(1), n(2)], &[n(1), n(2)]),
            None,
            "two shared nodes"
        );
    }
}
