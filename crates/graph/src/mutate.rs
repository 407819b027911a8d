//! Live-graph mutations on top of the frozen CSR columns.
//!
//! A frozen [`Graph`] keeps its base columns immutable — they may be
//! memory-mapped straight out of a CSG2 snapshot. Mutations land in a
//! copy-on-write *delta overlay*: the first write that touches a CSR
//! run (one node's adjacency, one label's edge partition, one label's
//! forward/reverse group) clones that run into an owned patched
//! vector; readers consult patched runs first and fall back to the
//! base column. A graph that was never mutated pays one `Option`
//! branch per accessor, and reads of untouched runs stay zero-copy
//! even after mutations elsewhere.
//!
//! Every effective mutation batch bumps the monotonic
//! [`Graph::generation`] counter — the single invalidation hook all
//! derived state keys on (planner cardinalities, result cache, watch
//! cursors). A bounded log records which nodes and labels each
//! generation touched so incremental consumers
//! ([`Graph::mutations_since`]) can re-derive only what the delta
//! reaches; past the log horizon they fall back to a full refresh.
//!
//! Cached [`Cardinalities`] are maintained *in place* by the delta
//! (counts adjusted per op; distinct-endpoint counts via lazily seeded
//! per-label endpoint multisets) rather than recomputed with a full
//! `O(|N| + |E|)` pass per batch.
//!
//! Once the overlay accumulates [`Graph::set_compaction_threshold`]
//! ops the graph *compacts*: columns are rebuilt through the same
//! counting-sort core the builder uses and the overlay resets. Node
//! ids are stable for the life of a graph (nodes are never removed);
//! edge ids are stable *between compactions*, and compaction
//! renumbers them densely in ascending-old-id order — a monotone map,
//! so lexicographic comparisons of edge-id sequences (the engine's
//! canonical result order) are preserved.
//!
//! ```
//! use cs_graph::figure1;
//! let mut g = figure1();
//! let gen0 = g.generation();
//! let paris = g.insert_node("Paris", &["city"]);
//! let alice = g.node_by_label("Alice").unwrap();
//! let e = g.insert_edge(alice, "visited", paris);
//! assert_eq!(g.generation(), gen0 + 2); // one bump per batch
//! assert_eq!(g.describe_edge(e), "Alice -visited-> Paris");
//! g.remove_edge(e);
//! let visited = g.label_id("visited").unwrap();
//! assert!(g.out_edges_labelled(alice, visited).is_empty());
//! ```

use crate::builder::{build_parts, EdgeBuild, NodeBuild};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{EdgeId, LabelId, NodeId};
use crate::model::{Adj, EdgeData, Graph};
use crate::stats::Cardinalities;

/// Default number of overlay ops after which [`Graph::apply`] compacts
/// the delta back into dense CSR columns.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 8192;

/// Mutation-log capacity: batches older than this fall off the horizon
/// and [`Graph::mutations_since`] reports the log as truncated.
const LOG_CAP: usize = 256;

/// One mutation of a live graph, applied in batches via
/// [`Graph::apply`] (labels are given as strings and interned on
/// apply, so a mutation can introduce new vocabulary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Add a node with a label and zero or more types.
    InsertNode {
        /// Node label (the paper's ε label if empty).
        label: String,
        /// RDF types / PG labels of the node.
        types: Vec<String>,
    },
    /// Add a labelled directed edge between existing nodes.
    InsertEdge {
        /// Source node (must already exist).
        src: NodeId,
        /// Edge label.
        label: String,
        /// Target node (must already exist).
        dst: NodeId,
    },
    /// Remove an edge by id. Removing an already-removed or unknown
    /// edge is a no-op (reported via [`Applied::removed`]).
    RemoveEdge {
        /// The edge to remove.
        edge: EdgeId,
    },
}

/// Outcome of one [`Graph::apply`] batch.
#[derive(Debug, Clone, Default)]
pub struct Applied {
    /// The graph generation after the batch (unchanged if the batch
    /// had no effect).
    pub generation: u64,
    /// Ids of the nodes inserted by the batch, in op order.
    pub nodes: Vec<NodeId>,
    /// Ids of the edges inserted by the batch, in op order.
    pub edges: Vec<EdgeId>,
    /// Number of edges actually removed (no-op removes not counted).
    pub removed: usize,
    /// True if the batch tripped the compaction threshold and the
    /// overlay was folded back into dense columns (edge ids
    /// renumbered).
    pub compacted: bool,
}

/// What one mutation batch touched — consumed by incremental
/// maintenance (watch re-evaluation seeds searches from
/// `touched_nodes`; caches invalidate entries whose footprint meets
/// `labels`).
#[derive(Debug, Clone)]
pub struct MutationRecord {
    /// The generation this batch produced.
    pub generation: u64,
    /// Every node incident to an inserted/removed edge, plus inserted
    /// nodes themselves (sorted, deduplicated).
    pub touched_nodes: Vec<NodeId>,
    /// Every label involved: edge labels of inserted/removed edges,
    /// labels and types of inserted nodes (sorted, deduplicated).
    pub labels: Vec<LabelId>,
}

/// A node added after the freeze — lives outside the base columns.
#[derive(Debug, Clone)]
pub(crate) struct ExtraNode {
    pub(crate) label: LabelId,
    pub(crate) types: Vec<LabelId>,
}

/// Per-label endpoint multisets backing exact incremental maintenance
/// of `distinct_src`/`distinct_dst`: seeded by one scan of the label's
/// run on first touch, then adjusted per op.
#[derive(Debug, Clone, Default)]
struct LabelEndpoints {
    src: FxHashMap<u32, u32>,
    dst: FxHashMap<u32, u32>,
}

/// The copy-on-write overlay holding everything that differs from the
/// frozen base columns. Patched runs are keyed by node id (adjacency)
/// or label id (partition runs) and *replace* the corresponding base
/// run entirely.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaState {
    /// Node-id space covered by the base columns.
    pub(crate) base_n: usize,
    /// Edge-id space covered by the base columns (including ids later
    /// removed — removal never reuses ids before compaction).
    pub(crate) base_m: usize,
    pub(crate) extra_nodes: Vec<ExtraNode>,
    pub(crate) extra_edges: Vec<EdgeData>,
    /// Removed edge ids (base or extra). Entries stay in
    /// `extra_edges` as tombstones so extra-edge indexing is stable.
    pub(crate) removed: FxHashSet<u32>,
    pub(crate) adj: FxHashMap<u32, Vec<Adj>>,
    pub(crate) elab: FxHashMap<u32, Vec<EdgeId>>,
    pub(crate) fwd: FxHashMap<u32, Vec<EdgeId>>,
    pub(crate) rev: FxHashMap<u32, Vec<EdgeId>>,
    pub(crate) nlab: FxHashMap<u32, Vec<NodeId>>,
    pub(crate) ntype: FxHashMap<u32, Vec<NodeId>>,
    endpoints: FxHashMap<u32, LabelEndpoints>,
    /// Effective ops applied since the last compaction.
    ops: usize,
}

impl DeltaState {
    fn fresh(base_n: usize, base_m: usize) -> DeltaState {
        DeltaState {
            base_n,
            base_m,
            ..DeltaState::default()
        }
    }
}

impl Graph {
    /// The monotonic mutation counter: 0 for a freshly built or loaded
    /// graph, bumped once per effective [`Graph::apply`] batch.
    /// Derived state (planner cardinalities, result cache, watch
    /// cursors) keys on this to detect staleness.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True if mutations are pending in the delta overlay (i.e. the
    /// graph differs from its base CSR columns).
    #[inline]
    pub fn has_delta(&self) -> bool {
        self.delta.is_some()
    }

    /// Number of effective mutation ops accumulated in the overlay
    /// since the last compaction.
    pub fn pending_delta_ops(&self) -> usize {
        self.delta.as_ref().map_or(0, |d| d.ops)
    }

    /// Sets the number of overlay ops after which [`Graph::apply`]
    /// compacts (default [`DEFAULT_COMPACT_THRESHOLD`]). Clamped to at
    /// least 1; tests use small values to force frequent compaction.
    pub fn set_compaction_threshold(&mut self, ops: usize) {
        self.compact_threshold = ops.max(1);
    }

    /// Inserts a node as a single-op batch. See [`Graph::apply`].
    pub fn insert_node(&mut self, label: &str, types: &[&str]) -> NodeId {
        let a = self.apply(vec![Mutation::InsertNode {
            label: label.to_string(),
            types: types.iter().map(|s| s.to_string()).collect(),
        }]);
        a.nodes[0]
    }

    /// Inserts an edge as a single-op batch. See [`Graph::apply`].
    ///
    /// # Panics
    /// Panics if either endpoint does not exist.
    pub fn insert_edge(&mut self, src: NodeId, label: &str, dst: NodeId) -> EdgeId {
        let a = self.apply(vec![Mutation::InsertEdge {
            src,
            label: label.to_string(),
            dst,
        }]);
        a.edges[0]
    }

    /// Removes an edge as a single-op batch; returns false (and leaves
    /// the generation untouched) if the edge was already gone. See
    /// [`Graph::apply`].
    pub fn remove_edge(&mut self, e: EdgeId) -> bool {
        self.apply(vec![Mutation::RemoveEdge { edge: e }]).removed == 1
    }

    /// Applies a batch of mutations atomically under one generation
    /// bump, maintains cached [`Cardinalities`] incrementally, records
    /// the batch in the mutation log, and compacts the overlay if it
    /// crossed the threshold. A batch with no effect (e.g. removing
    /// already-removed edges) leaves the generation untouched.
    ///
    /// ```
    /// use cs_graph::{figure1, Mutation};
    /// let mut g = figure1();
    /// let alice = g.node_by_label("Alice").unwrap();
    /// let bob = g.node_by_label("Bob").unwrap();
    /// let out = g.apply(vec![
    ///     Mutation::InsertEdge { src: alice, label: "knows".into(), dst: bob },
    ///     Mutation::InsertNode { label: "Zoe".into(), types: vec!["person".into()] },
    /// ]);
    /// assert_eq!(out.edges.len(), 1);
    /// assert_eq!(out.nodes.len(), 1);
    /// assert_eq!(g.generation(), out.generation);
    /// ```
    pub fn apply(&mut self, ops: Vec<Mutation>) -> Applied {
        let mut d = match self.delta.take() {
            Some(d) => d,
            None => Box::new(DeltaState::fresh(self.n, self.m)),
        };
        let mut cards = self.cardinalities.take();
        let mut rec = MutationRecord {
            generation: self.generation + 1,
            touched_nodes: Vec::new(),
            labels: Vec::new(),
        };
        let mut out = Applied::default();
        let ops_before = d.ops;
        for op in ops {
            match op {
                Mutation::InsertNode { label, types } => {
                    let id = self.do_insert_node(&mut d, cards.as_mut(), &label, &types, &mut rec);
                    out.nodes.push(id);
                }
                Mutation::InsertEdge { src, label, dst } => {
                    let id =
                        self.do_insert_edge(&mut d, cards.as_mut(), src, &label, dst, &mut rec);
                    out.edges.push(id);
                }
                Mutation::RemoveEdge { edge } => {
                    if self.do_remove_edge(&mut d, cards.as_mut(), edge, &mut rec) {
                        out.removed += 1;
                    }
                }
            }
        }
        if let Some(c) = cards {
            let _ = self.cardinalities.set(c);
        }
        let changed = d.ops > ops_before;
        if changed {
            self.generation += 1;
            rec.touched_nodes.sort_unstable();
            rec.touched_nodes.dedup();
            rec.labels.sort_unstable();
            rec.labels.dedup();
            self.log.push_back(rec);
            while self.log.len() > LOG_CAP {
                self.log.pop_front();
            }
        }
        let compact_now = d.ops >= self.compact_threshold;
        self.delta = if d.ops == 0 { None } else { Some(d) };
        if compact_now {
            self.compact();
            out.compacted = true;
        }
        out.generation = self.generation;
        out
    }

    /// The per-batch [`MutationRecord`]s strictly after generation
    /// `since`, oldest first — or `None` if `since` lies beyond the
    /// bounded log's horizon (or in the future), in which case the
    /// caller must fall back to a full refresh.
    pub fn mutations_since(&self, since: u64) -> Option<Vec<&MutationRecord>> {
        if since > self.generation {
            return None;
        }
        let expect = self.generation - since;
        let recs: Vec<&MutationRecord> = self.log.iter().filter(|r| r.generation > since).collect();
        (recs.len() as u64 == expect).then_some(recs)
    }

    /// Folds the delta overlay back into dense CSR columns by
    /// re-running the builder's counting-sort core over the live
    /// rows. Node ids are unchanged; edge ids are renumbered densely
    /// in ascending-old-id order (a monotone map, preserving the
    /// canonical result order). Cached cardinalities survive —
    /// renumbering changes no counts. A no-op without a delta.
    pub fn compact(&mut self) {
        if self.delta.is_none() {
            return;
        }
        let mut nodes = Vec::with_capacity(self.n);
        for nid in self.node_ids() {
            let nr = self.node(nid);
            nodes.push(NodeBuild {
                label: nr.label,
                types: nr.types.to_vec(),
                props: nr.props.to_vec(),
            });
        }
        let mut edges = Vec::with_capacity(self.m);
        for eid in self.edge_ids() {
            let ed = *self.edge(eid);
            edges.push(EdgeBuild {
                src: ed.src,
                dst: ed.dst,
                label: ed.label,
                props: self.edge_props(eid).to_vec(),
            });
        }
        let parts = build_parts(self.interner.clone(), nodes, edges);
        let cards = self.cardinalities.take();
        self.replace_columns(parts);
        if let Some(c) = cards {
            let _ = self.cardinalities.set(c);
        }
    }

    fn do_insert_node(
        &mut self,
        d: &mut DeltaState,
        cards: Option<&mut Cardinalities>,
        label: &str,
        types: &[String],
        rec: &mut MutationRecord,
    ) -> NodeId {
        let lid = self.interner.intern(label);
        let tids: Vec<LabelId> = types.iter().map(|t| self.interner.intern(t)).collect();
        let id = NodeId::new(self.n);
        d.extra_nodes.push(ExtraNode {
            label: lid,
            types: tids.clone(),
        });
        self.n += 1;
        // New node ids are maximal, so pushing keeps the per-label and
        // per-type node runs in ascending node-id order.
        self.patched_nlab(d, lid).push(id);
        for &t in &tids {
            self.patched_ntype(d, t).push(id);
        }
        if let Some(c) = cards {
            c.nodes += 1;
            *c.node_labels.entry(lid).or_default() += 1;
            for &t in &tids {
                *c.node_types.entry(t).or_default() += 1;
            }
        }
        d.ops += 1;
        rec.touched_nodes.push(id);
        rec.labels.push(lid);
        rec.labels.extend(tids);
        id
    }

    fn do_insert_edge(
        &mut self,
        d: &mut DeltaState,
        cards: Option<&mut Cardinalities>,
        src: NodeId,
        label: &str,
        dst: NodeId,
        rec: &mut MutationRecord,
    ) -> EdgeId {
        assert!(
            src.index() < self.n && dst.index() < self.n,
            "insert_edge: unknown endpoint"
        );
        let lid = self.interner.intern(label);
        let idx = d.base_m + d.extra_edges.len();
        assert!(idx < (1 << 31), "graphs are capped at 2^31 - 1 edges");
        let id = EdgeId::new(idx);
        // Seed the distinct-endpoint multiset from the pre-insert run.
        if cards.is_some() {
            self.ensure_endpoints(d, lid);
        }
        d.extra_edges.push(EdgeData {
            src,
            dst,
            label: lid,
        });
        // New edge ids are maximal: pushing keeps adjacency and label
        // runs in ascending edge-id order, with the outgoing entry
        // before the incoming one for self-loops — exactly the
        // builder's order.
        self.patched_adj(d, src).push(Adj::new(id, dst, true));
        self.patched_adj(d, dst).push(Adj::new(id, src, false));
        self.patched_elab(d, lid).push(id);
        // Forward/reverse runs stay sorted by (endpoint, id); the new
        // id lands at the end of its endpoint group.
        self.touch_fwd(d, lid);
        let pos = {
            let run = &d.fwd[&lid.0];
            run.partition_point(|e| self.edge_in(d, *e).src.0 <= src.0)
        };
        #[expect(clippy::expect_used, reason = "`touch_fwd` seeded this run just above")]
        d.fwd.get_mut(&lid.0).expect("touched").insert(pos, id);
        self.touch_rev(d, lid);
        let pos = {
            let run = &d.rev[&lid.0];
            run.partition_point(|e| self.edge_in(d, *e).dst.0 <= dst.0)
        };
        #[expect(clippy::expect_used, reason = "`touch_rev` seeded this run just above")]
        d.rev.get_mut(&lid.0).expect("touched").insert(pos, id);
        self.m += 1;
        if let Some(c) = cards {
            c.edges += 1;
            let lc = c.edge_labels.entry(lid).or_default();
            lc.edges += 1;
            #[expect(clippy::expect_used, reason = "`ensure_endpoints` ran before the push")]
            let ep = d.endpoints.get_mut(&lid.0).expect("seeded above");
            let s = ep.src.entry(src.0).or_insert(0);
            if *s == 0 {
                lc.distinct_src += 1;
            }
            *s += 1;
            let t = ep.dst.entry(dst.0).or_insert(0);
            if *t == 0 {
                lc.distinct_dst += 1;
            }
            *t += 1;
        }
        d.ops += 1;
        rec.touched_nodes.extend([src, dst]);
        rec.labels.push(lid);
        id
    }

    fn do_remove_edge(
        &mut self,
        d: &mut DeltaState,
        cards: Option<&mut Cardinalities>,
        e: EdgeId,
        rec: &mut MutationRecord,
    ) -> bool {
        if e.index() >= d.base_m + d.extra_edges.len() || d.removed.contains(&e.0) {
            return false;
        }
        let ed = *self.edge_in(d, e);
        if cards.is_some() {
            self.ensure_endpoints(d, ed.label);
        }
        self.patched_adj(d, ed.src).retain(|a| a.edge() != e);
        if ed.dst != ed.src {
            self.patched_adj(d, ed.dst).retain(|a| a.edge() != e);
        }
        self.patched_elab(d, ed.label).retain(|x| *x != e);
        self.touch_fwd(d, ed.label);
        #[expect(clippy::expect_used, reason = "`touch_fwd` seeded this run just above")]
        d.fwd
            .get_mut(&ed.label.0)
            .expect("touched")
            .retain(|x| *x != e);
        self.touch_rev(d, ed.label);
        #[expect(clippy::expect_used, reason = "`touch_rev` seeded this run just above")]
        d.rev
            .get_mut(&ed.label.0)
            .expect("touched")
            .retain(|x| *x != e);
        d.removed.insert(e.0);
        self.m -= 1;
        if let Some(c) = cards {
            c.edges -= 1;
            #[expect(
                clippy::expect_used,
                reason = "the removed edge was live, so its label has a per-label count"
            )]
            let lc = c.edge_labels.get_mut(&ed.label).expect("label had edges");
            lc.edges -= 1;
            #[expect(
                clippy::expect_used,
                reason = "`ensure_endpoints` ran before the removal"
            )]
            let ep = d.endpoints.get_mut(&ed.label.0).expect("seeded above");
            #[expect(
                clippy::expect_used,
                reason = "the live edge's endpoints are in the seeded multiset by construction"
            )]
            let s = ep.src.get_mut(&ed.src.0).expect("endpoint counted");
            *s -= 1;
            if *s == 0 {
                ep.src.remove(&ed.src.0);
                lc.distinct_src -= 1;
            }
            #[expect(
                clippy::expect_used,
                reason = "the live edge's endpoints are in the seeded multiset by construction"
            )]
            let t = ep.dst.get_mut(&ed.dst.0).expect("endpoint counted");
            *t -= 1;
            if *t == 0 {
                ep.dst.remove(&ed.dst.0);
                lc.distinct_dst -= 1;
            }
            if lc.edges == 0 {
                c.edge_labels.remove(&ed.label);
            }
        }
        d.ops += 1;
        rec.touched_nodes.extend([ed.src, ed.dst]);
        rec.labels.push(ed.label);
        true
    }

    /// Edge payload lookup that works while the delta is detached from
    /// the graph (`self.delta` is `None` for the duration of a batch).
    fn edge_in<'a>(&'a self, d: &'a DeltaState, e: EdgeId) -> &'a EdgeData {
        debug_assert!(
            self.delta.is_none(),
            "delta must be detached during mutation"
        );
        if e.index() >= d.base_m {
            &d.extra_edges[e.index() - d.base_m]
        } else {
            self.edge(e)
        }
    }

    fn patched_adj<'a>(&self, d: &'a mut DeltaState, n: NodeId) -> &'a mut Vec<Adj> {
        debug_assert!(
            self.delta.is_none(),
            "delta must be detached during mutation"
        );
        let base_n = d.base_n;
        d.adj.entry(n.0).or_insert_with(|| {
            if n.index() < base_n {
                self.adjacent(n).to_vec()
            } else {
                Vec::new()
            }
        })
    }

    fn patched_elab<'a>(&self, d: &'a mut DeltaState, l: LabelId) -> &'a mut Vec<EdgeId> {
        debug_assert!(
            self.delta.is_none(),
            "delta must be detached during mutation"
        );
        d.elab
            .entry(l.0)
            .or_insert_with(|| self.edges_with_label(l).to_vec())
    }

    fn patched_nlab<'a>(&self, d: &'a mut DeltaState, l: LabelId) -> &'a mut Vec<NodeId> {
        debug_assert!(
            self.delta.is_none(),
            "delta must be detached during mutation"
        );
        d.nlab
            .entry(l.0)
            .or_insert_with(|| self.nodes_with_label(l).to_vec())
    }

    fn patched_ntype<'a>(&self, d: &'a mut DeltaState, t: LabelId) -> &'a mut Vec<NodeId> {
        debug_assert!(
            self.delta.is_none(),
            "delta must be detached during mutation"
        );
        d.ntype
            .entry(t.0)
            .or_insert_with(|| self.nodes_with_type(t).to_vec())
    }

    fn touch_fwd(&self, d: &mut DeltaState, l: LabelId) {
        d.fwd
            .entry(l.0)
            .or_insert_with(|| self.base_fwd_run(l).to_vec());
    }

    fn touch_rev(&self, d: &mut DeltaState, l: LabelId) {
        d.rev
            .entry(l.0)
            .or_insert_with(|| self.base_rev_run(l).to_vec());
    }

    /// Seeds the per-label endpoint multiset from the label's current
    /// run — one scan, amortised over all subsequent ops on the label.
    fn ensure_endpoints(&self, d: &mut DeltaState, l: LabelId) {
        if d.endpoints.contains_key(&l.0) {
            return;
        }
        let run: Vec<EdgeId> = match d.elab.get(&l.0) {
            Some(v) => v.clone(),
            None => self.edges_with_label(l).to_vec(),
        };
        let mut ep = LabelEndpoints::default();
        for e in run {
            let ed = self.edge_in(d, e);
            *ep.src.entry(ed.src.0).or_insert(0) += 1;
            *ep.dst.entry(ed.dst.0).or_insert(0) += 1;
        }
        d.endpoints.insert(l.0, ep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::figure1::figure1;

    fn assert_same_answers(mutated: &Graph, rebuilt: &Graph) {
        assert_eq!(mutated.node_count(), rebuilt.node_count());
        assert_eq!(mutated.edge_count(), rebuilt.edge_count());
        // Edge multiset by (src-label, edge-label, dst-label).
        let key = |g: &Graph, e: EdgeId| g.describe_edge(e);
        let mut a: Vec<String> = mutated.edge_ids().map(|e| key(mutated, e)).collect();
        let mut b: Vec<String> = rebuilt.edge_ids().map(|e| key(rebuilt, e)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Relative edge-id order is identical: live edges enumerate in
        // the same (src, label, dst) sequence.
        let a: Vec<String> = mutated.edge_ids().map(|e| key(mutated, e)).collect();
        let b: Vec<String> = rebuilt.edge_ids().map(|e| key(rebuilt, e)).collect();
        assert_eq!(a, b);
        // Per-node adjacency agrees (node ids are stable).
        for n in mutated.node_ids() {
            let an: Vec<_> = mutated
                .adjacent(n)
                .iter()
                .map(|x| (x.other(), x.outgoing(), key(mutated, x.edge())))
                .collect();
            let bn: Vec<_> = rebuilt
                .adjacent(n)
                .iter()
                .map(|x| (x.other(), x.outgoing(), key(rebuilt, x.edge())))
                .collect();
            assert_eq!(an, bn, "adjacency of {n:?} diverged");
        }
        // Cardinalities agree exactly (keyed by label string — the
        // two graphs intern in different orders).
        let by_name = |g: &Graph| {
            let c = Cardinalities::of(g);
            let mut edge: Vec<_> = c
                .edge_labels
                .iter()
                .map(|(l, card)| (g.resolve(*l).to_string(), *card))
                .collect();
            edge.sort_by(|a, b| a.0.cmp(&b.0));
            let mut types: Vec<_> = c
                .node_types
                .iter()
                .map(|(l, k)| (g.resolve(*l).to_string(), *k))
                .collect();
            types.sort();
            (edge, types)
        };
        assert_eq!(
            by_name(mutated),
            by_name(rebuilt),
            "recomputed cardinalities diverged"
        );
    }

    #[test]
    fn insert_edge_visible_everywhere() {
        let mut g = figure1();
        let alice = g.node_by_label("Alice").unwrap();
        let bob = g.node_by_label("Bob").unwrap();
        let before = g.edge_count();
        let e = g.insert_edge(alice, "mentors", bob);
        assert_eq!(g.edge_count(), before + 1);
        assert_eq!(g.describe_edge(e), "Alice -mentors-> Bob");
        let l = g.label_id("mentors").unwrap();
        assert_eq!(g.edges_with_label(l), &[e]);
        assert_eq!(g.out_edges_labelled(alice, l), &[e]);
        assert_eq!(g.in_edges_labelled(bob, l), &[e]);
        assert!(g
            .adjacent(alice)
            .iter()
            .any(|a| a.edge() == e && a.outgoing()));
        assert!(g
            .adjacent(bob)
            .iter()
            .any(|a| a.edge() == e && !a.outgoing()));
        assert!(g.edge_ids().any(|x| x == e));
    }

    #[test]
    fn remove_edge_disappears_everywhere() {
        let mut g = figure1();
        let l = g.label_id("citizenOf").unwrap();
        let e = g.edges_with_label(l)[0];
        let ed = *g.edge(e);
        assert!(g.remove_edge(e));
        assert!(!g.remove_edge(e), "double-remove is a no-op");
        assert!(!g.edges_with_label(l).contains(&e));
        assert!(!g.out_edges_labelled(ed.src, l).contains(&e));
        assert!(!g.in_edges_labelled(ed.dst, l).contains(&e));
        assert!(g.adjacent(ed.src).iter().all(|a| a.edge() != e));
        assert!(g.edge_ids().all(|x| x != e));
    }

    #[test]
    fn insert_node_indexed_by_label_and_type() {
        let mut g = figure1();
        let n = g.insert_node("Zoe", &["person", "entrepreneur"]);
        assert_eq!(g.node_label(n), "Zoe");
        assert_eq!(
            g.node_types(n).collect::<Vec<_>>(),
            ["person", "entrepreneur"]
        );
        let ent = g.label_id("entrepreneur").unwrap();
        assert!(g.nodes_with_type(ent).contains(&n));
        assert_eq!(g.node_by_label("Zoe"), Some(n));
        // Edges can attach to the new node.
        let alice = g.node_by_label("Alice").unwrap();
        let e = g.insert_edge(n, "knows", alice);
        assert_eq!(g.other_endpoint(e, n), alice);
        assert_eq!(g.degree(n), 1);
    }

    #[test]
    fn generation_bumps_per_effective_batch() {
        let mut g = figure1();
        assert_eq!(g.generation(), 0);
        let alice = g.node_by_label("Alice").unwrap();
        let bob = g.node_by_label("Bob").unwrap();
        let out = g.apply(vec![
            Mutation::InsertEdge {
                src: alice,
                label: "a".into(),
                dst: bob,
            },
            Mutation::InsertEdge {
                src: bob,
                label: "b".into(),
                dst: alice,
            },
        ]);
        assert_eq!(out.generation, 1);
        assert_eq!(g.generation(), 1);
        // A no-op batch does not bump.
        let e = out.edges[0];
        g.remove_edge(e);
        assert_eq!(g.generation(), 2);
        let out = g.apply(vec![Mutation::RemoveEdge { edge: e }]);
        assert_eq!(out.removed, 0);
        assert_eq!(g.generation(), 2);
    }

    #[test]
    fn mutation_log_tracks_touched_state() {
        let mut g = figure1();
        let alice = g.node_by_label("Alice").unwrap();
        let bob = g.node_by_label("Bob").unwrap();
        g.insert_edge(alice, "mentors", bob);
        let recs = g.mutations_since(0).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].generation, 1);
        assert!(recs[0].touched_nodes.contains(&alice));
        assert!(recs[0].touched_nodes.contains(&bob));
        assert!(recs[0].labels.contains(&g.label_id("mentors").unwrap()));
        assert_eq!(g.mutations_since(1).unwrap().len(), 0);
        assert!(g.mutations_since(7).is_none(), "future generation");
    }

    #[test]
    fn log_horizon_is_bounded() {
        let mut g = GraphBuilder::new().freeze();
        let a = g.insert_node("a", &[]);
        let b = g.insert_node("b", &[]);
        for _ in 0..(LOG_CAP + 10) {
            let e = g.insert_edge(a, "x", b);
            g.remove_edge(e);
        }
        assert!(g.mutations_since(0).is_none(), "horizon exceeded");
        assert!(g.mutations_since(g.generation() - 5).is_some());
    }

    #[test]
    fn incremental_cardinalities_match_recompute() {
        let mut g = figure1();
        let _ = g.cardinalities(); // warm, so mutations maintain in place
        let alice = g.node_by_label("Alice").unwrap();
        let usa = g.node_by_label("USA").unwrap();
        let france = g.node_by_label("France").unwrap();
        // Alice already a citizenOf-source: distinct_src must not grow.
        g.insert_edge(alice, "citizenOf", usa);
        g.insert_node("Zoe", &["politician"]);
        let l = g.label_id("citizenOf").unwrap();
        let e = g.out_edges_labelled(alice, l).to_vec();
        for x in e {
            g.remove_edge(x);
        }
        g.insert_edge(usa, "alliedWith", france);
        let maintained = g.cardinalities().clone();
        assert_eq!(maintained, Cardinalities::of(&g));
    }

    #[test]
    fn mutated_equals_rebuilt_after_edit_script() {
        let mut g = figure1();
        let _ = g.cardinalities(); // warm, so mutations maintain in place
        let alice = g.node_by_label("Alice").unwrap();
        let bob = g.node_by_label("Bob").unwrap();
        let zoe = g.insert_node("Zoe", &["person"]);
        g.insert_edge(zoe, "knows", alice);
        g.insert_edge(bob, "knows", zoe);
        let l = g.label_id("citizenOf").unwrap();
        let victims = g.edges_with_label(l)[..2].to_vec();
        for e in victims {
            g.remove_edge(e);
        }
        // Rebuild the same final state from scratch, inserting live
        // edges in the mutated graph's enumeration order.
        let rebuilt = rebuild(&g);
        assert_same_answers(&g, &rebuilt);
        // And the compacted graph is equivalent too.
        let mut compacted = g.clone();
        compacted.compact();
        assert!(!compacted.has_delta());
        assert_same_answers(&compacted, &rebuilt);
        assert_eq!(compacted.generation(), g.generation());
    }

    #[test]
    fn threshold_triggers_auto_compaction() {
        let mut g = figure1();
        g.set_compaction_threshold(4);
        let alice = g.node_by_label("Alice").unwrap();
        let bob = g.node_by_label("Bob").unwrap();
        let mut compactions = 0;
        for _ in 0..6 {
            if g.apply(vec![Mutation::InsertEdge {
                src: alice,
                label: "ping".into(),
                dst: bob,
            }])
            .compacted
            {
                compactions += 1;
            }
        }
        assert!(compactions >= 1);
        assert!(g.pending_delta_ops() < 4);
        let l = g.label_id("ping").unwrap();
        assert_eq!(g.edges_with_label(l).len(), 6);
    }

    #[test]
    fn self_loop_ordering_preserved() {
        let mut g = figure1();
        let alice = g.node_by_label("Alice").unwrap();
        let e = g.insert_edge(alice, "self", alice);
        let entries: Vec<_> = g
            .adjacent(alice)
            .iter()
            .filter(|a| a.edge() == e)
            .map(|a| a.outgoing())
            .collect();
        assert_eq!(entries, [true, false], "out entry precedes in entry");
        let rebuilt = rebuild(&g);
        assert_same_answers(&g, &rebuilt);
    }

    /// Reconstructs the live state of `g` through the builder.
    fn rebuild(g: &Graph) -> Graph {
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for n in g.node_ids() {
            let types: Vec<&str> = g.node_types(n).collect();
            ids.push(b.add_typed_node(g.node_label(n), &types));
        }
        for e in g.edge_ids() {
            let ed = g.edge(e);
            b.add_edge(
                ids[ed.src.index()],
                g.resolve(ed.label),
                ids[ed.dst.index()],
            );
        }
        b.freeze()
    }
}
