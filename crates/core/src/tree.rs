//! Rooted trees with provenance (paper Def. 4.1) and the arena storing
//! them during search.
//!
//! A tree is represented by its **sorted** edge-id array (so an *edge
//! set* — Def. 4.2 — is canonical and hashable), its sorted node array,
//! its root, and its `sat` mask. Sorted arrays make the Merge1 test
//! ("no node in common besides the root") a linear merge-scan, and
//! Grow/Merge produce sorted outputs by sorted insertion/union. The
//! arrays of every tree live in two pools owned by the [`TreeStore`].
//!
//! Tree ids and pool offsets are `u32`. They narrow from `usize` only
//! through `narrow`, and [`TreeStore::push`] refuses a tree past
//! [`MAX_TREES`] or [`MAX_POOL`], so a stored id or offset never wraps.

#![deny(clippy::cast_possible_truncation)]

use crate::seedmask::SeedMask;
use crate::seeds::SeedSets;
use cs_graph::{EdgeId, Graph, NodeId};
use std::ops::Range;

/// Most trees a [`TreeStore`] holds: ids run below `u32::MAX`, which the
/// search engine keeps free as the end of its chains.
pub const MAX_TREES: usize = u32::MAX as usize;

/// Longest either pool may grow, so every offset and length fits a `u32`.
pub const MAX_POOL: usize = u32::MAX as usize;

/// True if a store of `trees` trees whose pools are `edge_pool` and
/// `node_pool` ids long (the newest tree's sets included) may keep
/// that newest tree.
fn within_limits(trees: usize, edge_pool: usize, node_pool: usize) -> bool {
    trees < MAX_TREES && edge_pool <= MAX_POOL && node_pool <= MAX_POOL
}

/// `n` as a `u32` id, offset or length, saturating. A saturated value
/// is never stored: it can only come from pools past [`MAX_POOL`], and
/// [`TreeStore::push`] refuses the tree that took them there.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Identifier of a tree within a [`TreeStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeId(pub u32);

impl TreeId {
    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a tree was built (Def. 4.1, extended with the MoESP `Mo` form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// A one-node tree on a seed.
    Init(NodeId),
    /// Grown from `tree` with `edge` (rooted at the edge's far end).
    Grow(TreeId, EdgeId),
    /// Merge of two trees sharing exactly their root.
    Merge(TreeId, TreeId),
    /// MoESP copy of `tree`, re-rooted at a seed node (§4.5).
    Mo(TreeId, NodeId),
}

/// A rooted tree under construction: a 48-byte record whose edge and
/// node sets live in its [`TreeStore`]'s pools. Read them through
/// [`TreeStore::edges`], [`TreeStore::nodes`] or [`TreeStore::view`].
#[derive(Debug, Clone, Copy)]
pub struct TreeData {
    /// The distinguished root (GAM grows only from here).
    pub root: NodeId,
    /// Where the sorted edge ids start in the store's edge pool.
    edges_at: u32,
    /// Where the sorted node ids start in the store's node pool.
    nodes_at: u32,
    /// Number of edges; the tree has `len + 1` nodes.
    len: u32,
    /// Explicit seed sets having a seed in this tree (`sat(t)`).
    pub sat: SeedMask,
    /// True if the provenance includes `Mo` — Grow is disabled (§4.5).
    pub is_mo: bool,
    /// Non-empty iff this tree is an `(root, s)`-rooted path
    /// (Def. 4.4): the mask holds the sets of its unique seed `s`.
    /// Drives the seed-signature updates of LESP (§4.6).
    pub path_from: SeedMask,
    /// How this tree was built.
    pub provenance: Provenance,
}

impl TreeData {
    /// Number of edges.
    #[inline]
    pub fn size(&self) -> usize {
        self.len as usize
    }

    fn edge_range(&self) -> Range<usize> {
        let at = self.edges_at as usize;
        at..at + self.size()
    }

    fn node_range(&self) -> Range<usize> {
        let at = self.nodes_at as usize;
        at..at + self.size() + 1
    }
}

const _: () = assert!(std::mem::size_of::<TreeData>() == 48);

/// A tree's sets borrowed from its store: what a [`PriorityFn`]
/// sees of a Grow candidate's parent.
///
/// [`PriorityFn`]: crate::PriorityFn
#[derive(Debug, Clone, Copy)]
pub struct TreeView<'a> {
    /// The tree's root.
    pub root: NodeId,
    /// Sorted edge ids — the tree's edge set.
    pub edges: &'a [EdgeId],
    /// Sorted node ids.
    pub nodes: &'a [NodeId],
    /// Explicit seed sets having a seed in this tree (`sat(t)`).
    pub sat: SeedMask,
}

impl TreeView<'_> {
    /// Number of edges.
    #[inline]
    pub fn size(&self) -> usize {
        self.edges.len()
    }

    /// True if `n` occurs in the tree.
    #[inline]
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.nodes.binary_search(&n).is_ok()
    }
}

/// Arena of all trees built during one search, plus constructors
/// implementing Init / Grow / Merge / Mo.
///
/// Every tree's sorted edge and node ids live in two pools, so building
/// a tree allocates nothing of its own. A constructor writes the new
/// sets at the pools' tail and returns the record; [`TreeStore::push`]
/// keeps it and [`TreeStore::discard`] gives the tail back, so a
/// rejected candidate leaves no bytes behind. A Mo copy writes nothing:
/// it shares its parent's ranges.
#[derive(Debug, Default)]
pub struct TreeStore {
    trees: Vec<TreeData>,
    edge_pool: Vec<EdgeId>,
    node_pool: Vec<NodeId>,
}

impl TreeStore {
    /// Empty store.
    pub fn new() -> Self {
        TreeStore::default()
    }

    /// Number of trees (provenances) stored.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True if no trees were built.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Fetches a tree.
    #[inline]
    pub fn get(&self, t: TreeId) -> &TreeData {
        &self.trees[t.index()]
    }

    /// The sorted edge ids of a stored tree.
    #[inline]
    pub fn edges(&self, t: TreeId) -> &[EdgeId] {
        &self.edge_pool[self.get(t).edge_range()]
    }

    /// The sorted node ids of a stored tree.
    #[inline]
    pub fn nodes(&self, t: TreeId) -> &[NodeId] {
        &self.node_pool[self.get(t).node_range()]
    }

    /// Borrows the sets of `t`, stored or a candidate not yet pushed.
    #[inline]
    pub fn view(&self, t: &TreeData) -> TreeView<'_> {
        TreeView {
            root: t.root,
            edges: &self.edge_pool[t.edge_range()],
            nodes: &self.node_pool[t.node_range()],
            sat: t.sat,
        }
    }

    /// Lengths of the edge and node pools: the sets of every tree built
    /// and not discarded, Mo copies counted once with their parent.
    pub fn pool_lens(&self) -> (usize, usize) {
        (self.edge_pool.len(), self.node_pool.len())
    }

    /// Stores a tree, returning its id; `None` if the store is full: it
    /// already holds [`MAX_TREES`] trees, or the tree's sets end past
    /// [`MAX_POOL`]. A refused tree is still the newest one built, for
    /// the caller to [`TreeStore::discard`].
    pub fn push(&mut self, t: TreeData) -> Option<TreeId> {
        let (edges, nodes) = self.pool_lens();
        if !within_limits(self.trees.len(), edges, nodes) {
            return None;
        }
        let id = TreeId(narrow(self.trees.len()));
        self.trees.push(t);
        Some(id)
    }

    /// Gives back the pool space of a candidate that will not be
    /// stored. It must be the newest tree built. A Mo copy owns no pool
    /// space, so discarding it frees nothing.
    pub fn discard(&mut self, t: &TreeData) {
        if let Provenance::Mo(..) = t.provenance {
            return;
        }
        debug_assert_eq!(
            t.edge_range().end,
            self.edge_pool.len(),
            "not the newest tree"
        );
        debug_assert_eq!(
            t.node_range().end,
            self.node_pool.len(),
            "not the newest tree"
        );
        self.edge_pool.truncate(t.edges_at as usize);
        self.node_pool.truncate(t.nodes_at as usize);
    }

    /// Builds the `Init(n)` tree for a seed `n`.
    pub fn make_init(&mut self, n: NodeId, seeds: &SeedSets) -> TreeData {
        let membership = seeds.membership(n);
        let nodes_at = narrow(self.node_pool.len());
        self.node_pool.push(n);
        TreeData {
            root: n,
            edges_at: narrow(self.edge_pool.len()),
            nodes_at,
            len: 0,
            sat: membership,
            is_mo: false,
            path_from: membership,
            provenance: Provenance::Init(n),
        }
    }

    /// Builds `Grow(t, e)`: `e` goes between `t.root` and `new_root`
    /// (either direction); the result is rooted at `new_root`, whose
    /// seed-set membership is `membership`.
    ///
    /// The caller must have verified Grow1 (`new_root ∉ t`) and Grow2
    /// (`membership` is disjoint from `sat(t)`); debug assertions
    /// re-check them.
    pub fn make_grow(
        &mut self,
        t_id: TreeId,
        e: EdgeId,
        new_root: NodeId,
        membership: SeedMask,
    ) -> TreeData {
        let t = *self.get(t_id);
        debug_assert!(!self.view(&t).contains_node(new_root), "Grow1 violated");
        debug_assert!(membership.disjoint(t.sat), "Grow2 violated");
        debug_assert!(!t.is_mo, "Grow is disabled on Mo trees");
        TreeData {
            root: new_root,
            edges_at: insert_at_tail(&mut self.edge_pool, t.edge_range(), e),
            nodes_at: insert_at_tail(&mut self.node_pool, t.node_range(), new_root),
            len: narrow(t.size() + 1),
            sat: t.sat.union(membership),
            is_mo: false,
            // Still an (n, s)-rooted path iff the parent was one and the
            // new root is not itself a seed.
            path_from: if membership.is_empty() {
                t.path_from
            } else {
                SeedMask::EMPTY
            },
            provenance: Provenance::Grow(t_id, e),
        }
    }

    /// Builds `Merge(t1, t2)` if the Merge pre-conditions hold:
    /// Merge1 — same root and no other common node; Merge2 — no seed
    /// set covered by both trees, *except* through the shared root
    /// itself.
    ///
    /// The exception is required for merges at seed roots: in the
    /// paper's Figure 3 walkthrough, `A-1-2-B` (rooted at seed B, sat
    /// {S_A, S_B}) merges with `B-3-C` (sat {S_B, S_C}) into the
    /// result. Both trees cover S_B, but only via the root B, so the
    /// merged tree still has exactly one node per set. Since Merge1
    /// makes the root the unique shared node, and every tree holds at
    /// most one seed per set, `sat₁ ∩ sat₂ ⊆ membership(root)` is
    /// exactly the condition under which the union stays minimal.
    pub fn make_merge(
        &mut self,
        t1_id: TreeId,
        t2_id: TreeId,
        seeds: &SeedSets,
    ) -> Option<TreeData> {
        let (t1, t2) = (*self.get(t1_id), *self.get(t2_id));
        if t1.root != t2.root {
            return None;
        }
        let overlap = t1.sat.intersect(t2.sat);
        if !seeds.membership(t1.root).superset_of(overlap) {
            return None;
        }
        if !nodes_intersect_only_at(self.nodes(t1_id), self.nodes(t2_id), t1.root) {
            return None;
        }
        Some(TreeData {
            root: t1.root,
            edges_at: union_at_tail(&mut self.edge_pool, t1.edge_range(), t2.edge_range()),
            nodes_at: union_at_tail(&mut self.node_pool, t1.node_range(), t2.node_range()),
            len: narrow(t1.size() + t2.size()),
            sat: t1.sat.union(t2.sat),
            is_mo: t1.is_mo || t2.is_mo,
            path_from: SeedMask::EMPTY,
            provenance: Provenance::Merge(t1_id, t2_id),
        })
    }

    /// Builds `Mo(t, r)`: the same edge/node sets re-rooted at seed `r`.
    /// The copy shares `t`'s pool ranges.
    pub fn make_mo(&self, t_id: TreeId, r: NodeId) -> TreeData {
        let t = self.get(t_id);
        debug_assert!(self.view(t).contains_node(r), "Mo root must be in the tree");
        debug_assert_ne!(t.root, r, "Mo root must differ from the tree root");
        TreeData {
            root: r,
            is_mo: true,
            path_from: SeedMask::EMPTY,
            provenance: Provenance::Mo(t_id, r),
            ..*t
        }
    }

    /// Builds a tree over the given sorted sets, rooted at `root`, with
    /// an `Init(root)` provenance: a fixture for engine unit tests.
    #[cfg(test)]
    pub(crate) fn make_from_sets(
        &mut self,
        root: NodeId,
        edges: &[EdgeId],
        nodes: &[NodeId],
        sat: SeedMask,
    ) -> TreeData {
        debug_assert_eq!(nodes.len(), edges.len() + 1);
        let (edges_at, nodes_at) = self.pool_lens();
        self.edge_pool.extend_from_slice(edges);
        self.node_pool.extend_from_slice(nodes);
        TreeData {
            root,
            edges_at: narrow(edges_at),
            nodes_at: narrow(nodes_at),
            len: narrow(edges.len()),
            sat,
            is_mo: false,
            path_from: SeedMask::EMPTY,
            provenance: Provenance::Init(root),
        }
    }
}

/// Copies the sorted run `pool[run]` to the pool's tail with `x`
/// inserted in order; returns where the copy starts. Duplicates are
/// rejected by a debug assertion (trees never repeat an edge or node).
///
/// Tree sets are a few ids long, so the copy is an element loop: a
/// `memmove` call per part costs more than the ids it moves.
fn insert_at_tail<T: Ord + Copy>(pool: &mut Vec<T>, run: Range<usize>, x: T) -> u32 {
    let at = narrow(pool.len());
    pool.reserve(run.len() + 1);
    let mut i = run.start;
    while i < run.end && pool[i] < x {
        pool.push(pool[i]);
        i += 1;
    }
    debug_assert!(
        i == run.end || pool[i] != x,
        "duplicate insertion into tree set"
    );
    pool.push(x);
    while i < run.end {
        pool.push(pool[i]);
        i += 1;
    }
    at
}

/// Writes the union of the sorted runs `pool[a]` and `pool[b]` (each
/// duplicate-free) at the pool's tail; returns where it starts. Like
/// [`insert_at_tail`], it copies element by element.
fn union_at_tail<T: Ord + Copy>(pool: &mut Vec<T>, a: Range<usize>, b: Range<usize>) -> u32 {
    let at = narrow(pool.len());
    pool.reserve(a.len() + b.len());
    let (mut i, mut j) = (a.start, b.start);
    while i < a.end && j < b.end {
        let (x, y) = (pool[i], pool[j]);
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                pool.push(x);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                pool.push(y);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                pool.push(x);
                i += 1;
                j += 1;
            }
        }
    }
    for k in (i..a.end).chain(j..b.end) {
        pool.push(pool[k]);
    }
    at
}

/// True iff the sorted node arrays intersect in exactly `{root}`.
pub fn nodes_intersect_only_at(a: &[NodeId], b: &[NodeId], root: NodeId) -> bool {
    let (mut i, mut j) = (0, 0);
    let mut saw_root = false;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if a[i] != root {
                    return false;
                }
                saw_root = true;
                i += 1;
                j += 1;
            }
        }
    }
    saw_root
}

/// Checks that an edge set actually forms a tree over the graph
/// (connected, acyclic) — used by tests and debug assertions.
pub fn is_tree(g: &Graph, edges: &[EdgeId]) -> bool {
    if edges.is_empty() {
        return true;
    }
    use cs_graph::fxhash::{FxHashMap, FxHashSet};
    let mut adj: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
    for &e in edges {
        let ed = g.edge(e);
        adj.entry(ed.src).or_default().push(ed.dst);
        adj.entry(ed.dst).or_default().push(ed.src);
        nodes.insert(ed.src);
        nodes.insert(ed.dst);
    }
    // A connected graph with |N| = |E| + 1 is a tree.
    if nodes.len() != edges.len() + 1 {
        return false;
    }
    let Some(&start) = nodes.iter().next() else {
        return false; // unreachable: |N| = |E| + 1 > 0 was just checked
    };
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    let mut stack = vec![start];
    seen.insert(start);
    while let Some(n) = stack.pop() {
        for &m in adj.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
            if seen.insert(m) {
                stack.push(m);
            }
        }
    }
    seen.len() == nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_graph::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn e(i: u32) -> EdgeId {
        EdgeId(i)
    }

    /// Inserts `x` into a copy of `run` at a pool's tail; returns the copy.
    fn inserted<T: Ord + Copy>(run: &[T], x: T) -> Vec<T> {
        let mut pool = run.to_vec();
        let at = insert_at_tail(&mut pool, 0..run.len(), x);
        pool.split_off(at as usize)
    }

    #[test]
    fn sorted_insert_positions() {
        assert_eq!(inserted(&[e(1), e(3)], e(2)), &[e(1), e(2), e(3)]);
        assert_eq!(inserted(&[], e(5)), &[e(5)]);
        assert_eq!(inserted(&[e(1)], e(0)), &[e(0), e(1)]);
        assert_eq!(inserted(&[e(1), e(3)], e(4)), &[e(1), e(3), e(4)]);
    }

    #[test]
    fn sorted_union_merges() {
        let mut pool = vec![n(1), n(3), n(2), n(3), n(4)];
        let at = union_at_tail(&mut pool, 0..2, 2..5);
        assert_eq!(&pool[at as usize..], &[n(1), n(2), n(3), n(4)]);
    }

    #[test]
    fn intersect_only_at_root() {
        assert!(nodes_intersect_only_at(&[n(1), n(2)], &[n(2), n(3)], n(2)));
        assert!(!nodes_intersect_only_at(
            &[n(1), n(2), n(3)],
            &[n(2), n(3)],
            n(2)
        ));
        // Root must actually be shared.
        assert!(!nodes_intersect_only_at(&[n(1)], &[n(3)], n(2)));
    }

    #[test]
    fn init_grow_merge_pipeline() {
        // Path A --e0-- x --e1-- B; seeds {A}, {B}.
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let x = b.add_node("x");
        let bb = b.add_node("B");
        let e0 = b.add_edge(a, "r", x);
        let e1 = b.add_edge(x, "r", bb);
        let g = b.freeze();
        let seeds = SeedSets::from_sets(vec![vec![a], vec![bb]]).unwrap();

        let mut store = TreeStore::new();
        let ia = store.make_init(a, &seeds);
        assert_eq!(ia.sat, SeedMask::single(0));
        assert_eq!(ia.path_from, SeedMask::single(0));
        let ia_id = store.push(ia).unwrap();

        let ib = store.make_init(bb, &seeds);
        let ib_id = store.push(ib).unwrap();

        // Grow A to x.
        let t_ax = store.make_grow(ia_id, e0, x, seeds.membership(x));
        assert_eq!(t_ax.root, x);
        assert_eq!(t_ax.path_from, SeedMask::single(0), "still a rooted path");
        let ax_id = store.push(t_ax).unwrap();

        // Grow B to x.
        let t_bx = store.make_grow(ib_id, e1, x, seeds.membership(x));
        let bx_id = store.push(t_bx).unwrap();

        // Merge at x.
        let m = store.make_merge(ax_id, bx_id, &seeds).expect("mergeable");
        assert_eq!(m.sat, SeedMask::full(2));
        assert_eq!(store.view(&m).edges, &[e0, e1]);
        assert!(is_tree(&g, store.view(&m).edges));
        assert_eq!(m.path_from, SeedMask::EMPTY);
    }

    #[test]
    fn merge_rejects_shared_interior() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let x = b.add_node("x");
        let c = b.add_node("C");
        let e0 = b.add_edge(a, "r", x);
        let e1 = b.add_edge(x, "r", c);
        let _g = b.freeze();
        let seeds = SeedSets::from_sets(vec![vec![a], vec![c]]).unwrap();
        let mut store = TreeStore::new();
        let init = store.make_init(a, &seeds);
        let ia = store.push(init).unwrap();
        let t1 = store.make_grow(ia, e0, x, seeds.membership(x));
        let t1_id = store.push(t1).unwrap();
        let t2 = store.make_grow(t1_id, e1, c, seeds.membership(c));
        let t2_id = store.push(t2).unwrap();
        // t2 (rooted c) vs a different-rooted tree: Merge1 fails on root.
        assert!(store.make_merge(t2_id, ia, &seeds).is_none());
        // Same root but overlapping sat: build Init(a) again — sat not
        // disjoint with t1 (both contain set 0).
        let init = store.make_init(a, &seeds);
        let ia2 = store.push(init).unwrap();
        let t1b = store.make_grow(ia2, e0, x, seeds.membership(x));
        let t1b_id = store.push(t1b).unwrap();
        assert!(store.make_merge(t1_id, t1b_id, &seeds).is_none());
    }

    #[test]
    fn mo_copy_disables_grow() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let c = b.add_node("C");
        b.add_edge(a, "r", c);
        let _g = b.freeze();
        let seeds = SeedSets::from_sets(vec![vec![a], vec![c]]).unwrap();
        let mut store = TreeStore::new();
        let init = store.make_init(a, &seeds);
        let ia = store.push(init).unwrap();
        let grown = store.make_grow(ia, e(0), c, seeds.membership(c));
        let gid = store.push(grown).unwrap();
        let mo = store.make_mo(gid, a);
        assert!(mo.is_mo);
        assert_eq!(mo.root, a);
        assert_eq!(mo.sat, store.get(gid).sat);
    }

    #[test]
    fn grow_breaks_path_on_seed() {
        // A -- B -- extension: growing Init(A) onto seed B ends the
        // rooted-path property.
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let bb = b.add_node("B");
        let c = b.add_node("c");
        b.add_edge(a, "r", bb);
        b.add_edge(bb, "r", c);
        let _g = b.freeze();
        let seeds = SeedSets::from_sets(vec![vec![a], vec![bb]]).unwrap();
        let mut store = TreeStore::new();
        let init = store.make_init(a, &seeds);
        let ia = store.push(init).unwrap();
        let t = store.make_grow(ia, e(0), bb, seeds.membership(bb));
        assert_eq!(t.path_from, SeedMask::EMPTY);
        assert_eq!(t.sat, SeedMask::full(2));
    }

    #[test]
    fn discard_gives_back_the_tail_and_mo_shares() {
        // A --e0-- x; the Grow candidate is dropped, the Mo copy reuses
        // its parent's ranges.
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let x = b.add_node("x");
        b.add_edge(a, "r", x);
        let _g = b.freeze();
        let seeds = SeedSets::from_sets(vec![vec![a], vec![x]]).unwrap();
        let mut store = TreeStore::new();
        let init = store.make_init(a, &seeds);
        let ia = store.push(init).unwrap();
        assert_eq!(store.pool_lens(), (0, 1));
        let grown = store.make_grow(ia, e(0), x, seeds.membership(x));
        assert_eq!(store.pool_lens(), (1, 3));
        store.discard(&grown);
        assert_eq!(store.pool_lens(), (0, 1));
        let grown = store.make_grow(ia, e(0), x, seeds.membership(x));
        let gid = store.push(grown).unwrap();
        let mo = store.make_mo(gid, a);
        assert_eq!(store.view(&mo).edges, store.edges(gid));
        assert_eq!(store.view(&mo).nodes, store.nodes(gid));
        store.discard(&mo);
        assert_eq!(store.pool_lens(), (1, 3), "a Mo copy owns nothing");
    }

    #[test]
    fn store_refuses_trees_past_the_u32_limits() {
        // The last id below the chain sentinel is allowed, the sentinel
        // itself is not; pools may end exactly at `u32::MAX`.
        assert!(within_limits(MAX_TREES - 1, MAX_POOL, MAX_POOL));
        assert!(!within_limits(MAX_TREES, 0, 1));
        assert!(!within_limits(0, MAX_POOL + 1, MAX_POOL));
        assert!(!within_limits(0, 0, MAX_POOL + 1));
        assert_eq!(narrow(MAX_POOL), u32::MAX);
        assert_eq!(narrow(MAX_POOL + 1), u32::MAX, "saturates, never wraps");
    }

    #[test]
    fn is_tree_detects_cycles() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        let d = b.add_node("d");
        let e0 = b.add_edge(a, "r", c);
        let e1 = b.add_edge(c, "r", d);
        let e2 = b.add_edge(d, "r", a);
        let g = b.freeze();
        assert!(is_tree(&g, &[e0, e1]));
        assert!(!is_tree(&g, &[e0, e1, e2]));
        assert!(is_tree(&g, &[]));
    }
}
