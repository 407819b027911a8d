//! Mutable construction of [`Graph`]s.

use crate::ids::{EdgeId, LabelId, NodeId};
use crate::interner::Interner;
use crate::model::{Adj, Graph, GraphParts, PropTable};
use crate::storage::Storage;
use crate::value::Value;

/// Accumulates nodes and edges, then freezes into an immutable [`Graph`]
/// with adjacency lists and label/type indexes.
///
/// ```
/// use cs_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// let alice = b.add_typed_node("Alice", &["entrepreneur"]);
/// let fr = b.add_typed_node("France", &["country"]);
/// b.add_edge(alice, "citizenOf", fr);
/// let g = b.freeze();
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    interner: Interner,
    nodes: Vec<NodeBuild>,
    edges: Vec<EdgeBuild>,
}

#[derive(Debug)]
pub(crate) struct NodeBuild {
    pub(crate) label: LabelId,
    pub(crate) types: Vec<LabelId>,
    pub(crate) props: Vec<(LabelId, Value)>,
}

#[derive(Debug)]
pub(crate) struct EdgeBuild {
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) label: LabelId,
    pub(crate) props: Vec<(LabelId, Value)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder {
            interner: Interner::new(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Creates a builder with node/edge capacity hints.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            interner: Interner::new(),
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node with the given label and no types.
    pub fn add_node(&mut self, label: &str) -> NodeId {
        self.add_typed_node(label, &[])
    }

    /// Adds a node with label and types.
    pub fn add_typed_node(&mut self, label: &str, types: &[&str]) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        let label = self.interner.intern(label);
        let types = types.iter().map(|t| self.interner.intern(t)).collect();
        self.nodes.push(NodeBuild {
            label,
            types,
            props: Vec::new(),
        });
        id
    }

    /// Adds a labelled directed edge.
    pub fn add_edge(&mut self, src: NodeId, label: &str, dst: NodeId) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "unknown source node");
        assert!(dst.index() < self.nodes.len(), "unknown target node");
        let id = EdgeId::new(self.edges.len());
        let label = self.interner.intern(label);
        self.edges.push(EdgeBuild {
            src,
            dst,
            label,
            props: Vec::new(),
        });
        id
    }

    /// Attaches an extra type to an existing node.
    pub fn add_type(&mut self, n: NodeId, ty: &str) {
        let t = self.interner.intern(ty);
        let types = &mut self.nodes[n.index()].types;
        if !types.contains(&t) {
            types.push(t);
        }
    }

    /// Sets a node property (overwrites an existing value for the key).
    pub fn set_node_prop(&mut self, n: NodeId, key: &str, value: impl Into<Value>) {
        let k = self.interner.intern(key);
        set_prop(&mut self.nodes[n.index()].props, k, value.into());
    }

    /// Sets an edge property (overwrites an existing value for the key).
    pub fn set_edge_prop(&mut self, e: EdgeId, key: &str, value: impl Into<Value>) {
        let k = self.interner.intern(key);
        set_prop(&mut self.edges[e.index()].props, k, value.into());
    }

    /// Interns a label eagerly (useful when generating predicates that
    /// must share the graph's vocabulary).
    pub fn intern(&mut self, s: &str) -> LabelId {
        self.interner.intern(s)
    }

    /// Freezes into an immutable [`Graph`], building the CSR columns
    /// (adjacency runs, per-label edge/node partitions, forward and
    /// reverse label CSRs) in counting-sort passes.
    pub fn freeze(self) -> Graph {
        build_parts(self.interner, self.nodes, self.edges).into_graph()
    }
}

/// The column-construction core shared by [`GraphBuilder::freeze`] and
/// delta compaction ([`crate::mutate`]): turns flat node/edge rows into
/// the full CSR column set.
pub(crate) fn build_parts(
    interner: Interner,
    mut nodes: Vec<NodeBuild>,
    mut edges: Vec<EdgeBuild>,
) -> GraphParts {
    let n = nodes.len();
    let m = edges.len();
    assert!(m < (1 << 31), "graphs are capped at 2^31 - 1 edges");
    let l = interner.len();

    // Node columns: label, and per-node type runs in insertion order.
    let mut node_label = Vec::with_capacity(n);
    let mut type_offsets = Vec::with_capacity(n + 1);
    let mut type_ids = Vec::new();
    type_offsets.push(0u32);
    for nd in &nodes {
        node_label.push(nd.label.0);
        type_ids.extend(nd.types.iter().map(|t| t.0));
        type_offsets.push(type_ids.len() as u32);
    }

    // Edge triple column: interleaved (src, dst, label).
    let mut edge_ndl = Vec::with_capacity(3 * m);
    for e in &edges {
        edge_ndl.extend([e.src.0, e.dst.0, e.label.0]);
    }

    // Adjacency CSR: count, prefix-sum, fill. Iterating edges in id
    // order (outgoing entry before the incoming one) reproduces the
    // exact per-node order queue-order-sensitive traversals rely on:
    // ascending edge id, out before in for self-loops.
    let mut adj_offsets = vec![0u32; n + 1];
    for e in &edges {
        adj_offsets[e.src.index() + 1] += 1;
        adj_offsets[e.dst.index() + 1] += 1;
    }
    for i in 0..n {
        adj_offsets[i + 1] += adj_offsets[i];
    }
    let mut cursor: Vec<u32> = adj_offsets[..n].to_vec();
    let mut adj_pairs = vec![0u32; 4 * m];
    for (i, e) in edges.iter().enumerate() {
        let id = EdgeId::new(i);
        let entries = [
            (e.src, Adj::new(id, e.dst, true)),
            (e.dst, Adj::new(id, e.src, false)),
        ];
        for (node, adj) in entries {
            let slot = cursor[node.index()] as usize;
            cursor[node.index()] += 1;
            adj_pairs[2 * slot..2 * slot + 2].copy_from_slice(&adj.words());
        }
    }

    // Per-label edge partitions, ascending edge id within each run.
    let mut elab_offsets = vec![0u32; l + 1];
    for e in &edges {
        elab_offsets[e.label.index() + 1] += 1;
    }
    for i in 0..l {
        elab_offsets[i + 1] += elab_offsets[i];
    }
    let mut ecur: Vec<u32> = elab_offsets[..l].to_vec();
    let mut elab_edges = vec![0u32; m];
    for (i, e) in edges.iter().enumerate() {
        let slot = ecur[e.label.index()] as usize;
        ecur[e.label.index()] += 1;
        elab_edges[slot] = i as u32;
    }
    // Forward/reverse label CSRs: each label run re-sorted by
    // endpoint (stable, so ties keep ascending edge-id order).
    let mut fwd_edges = elab_edges.clone();
    let mut rev_edges = elab_edges.clone();
    for li in 0..l {
        let r = elab_offsets[li] as usize..elab_offsets[li + 1] as usize;
        fwd_edges[r.clone()].sort_by_key(|&e| edges[e as usize].src.0);
        rev_edges[r].sort_by_key(|&e| edges[e as usize].dst.0);
    }

    // Per-label and per-type node partitions, ascending node id.
    let mut nlab_offsets = vec![0u32; l + 1];
    let mut ntype_offsets = vec![0u32; l + 1];
    for nd in &nodes {
        nlab_offsets[nd.label.index() + 1] += 1;
        for t in &nd.types {
            ntype_offsets[t.index() + 1] += 1;
        }
    }
    for i in 0..l {
        nlab_offsets[i + 1] += nlab_offsets[i];
        ntype_offsets[i + 1] += ntype_offsets[i];
    }
    let mut lcur: Vec<u32> = nlab_offsets[..l].to_vec();
    let mut tcur: Vec<u32> = ntype_offsets[..l].to_vec();
    let mut nlab_nodes = vec![0u32; n];
    let mut ntype_nodes = vec![0u32; type_ids.len()];
    for (i, nd) in nodes.iter().enumerate() {
        let slot = lcur[nd.label.index()] as usize;
        lcur[nd.label.index()] += 1;
        nlab_nodes[slot] = i as u32;
        for t in &nd.types {
            let slot = tcur[t.index()] as usize;
            tcur[t.index()] += 1;
            ntype_nodes[slot] = i as u32;
        }
    }

    // Sparse property side tables, sorted by entity id then key.
    let collect_props = |items: &mut dyn Iterator<Item = (usize, Vec<(LabelId, Value)>)>| {
        items
            .filter(|(_, p)| !p.is_empty())
            .map(|(i, mut p)| {
                p.sort_by_key(|(k, _)| *k);
                (i as u32, p.into_boxed_slice())
            })
            .collect::<Vec<_>>()
            .into_boxed_slice()
    };
    let node_props: PropTable = collect_props(
        &mut nodes
            .iter_mut()
            .map(|nb| std::mem::take(&mut nb.props))
            .enumerate(),
    );
    let edge_props: PropTable = collect_props(
        &mut edges
            .iter_mut()
            .map(|eb| std::mem::take(&mut eb.props))
            .enumerate(),
    );

    GraphParts {
        interner,
        n,
        m,
        node_label: Storage::from_vec(node_label),
        type_offsets: Storage::from_vec(type_offsets),
        type_ids: Storage::from_vec(type_ids),
        edge_ndl: Storage::from_vec(edge_ndl),
        adj_offsets: Storage::from_vec(adj_offsets),
        adj_pairs: Storage::from_vec(adj_pairs),
        elab_offsets: Storage::from_vec(elab_offsets),
        elab_edges: Storage::from_vec(elab_edges),
        fwd_edges: Storage::from_vec(fwd_edges),
        rev_edges: Storage::from_vec(rev_edges),
        nlab_offsets: Storage::from_vec(nlab_offsets),
        nlab_nodes: Storage::from_vec(nlab_nodes),
        ntype_offsets: Storage::from_vec(ntype_offsets),
        ntype_nodes: Storage::from_vec(ntype_nodes),
        node_props,
        edge_props,
    }
}

fn set_prop(props: &mut Vec<(LabelId, Value)>, key: LabelId, value: Value) {
    match props.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = value,
        None => props.push((key, value)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_with_types_and_props() {
        let mut b = GraphBuilder::new();
        let a = b.add_typed_node("Alice", &["entrepreneur"]);
        let f = b.add_typed_node("France", &["country"]);
        let e = b.add_edge(a, "citizenOf", f);
        b.set_node_prop(a, "age", 41i64);
        b.set_edge_prop(e, "since", 1999i64);
        b.add_type(a, "person");
        b.add_type(a, "person"); // idempotent
        let g = b.freeze();

        assert_eq!(
            g.node_types(a).collect::<Vec<_>>(),
            ["entrepreneur", "person"]
        );
        assert_eq!(g.node_prop(a, "age"), Some(&Value::Int(41)));
        assert_eq!(g.edge_prop(e, "since"), Some(&Value::Int(1999)));
        assert_eq!(g.node_prop(a, "missing"), None);
    }

    #[test]
    fn prop_overwrite() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        b.set_node_prop(a, "w", 1i64);
        b.set_node_prop(a, "w", 2i64);
        let g = b.freeze();
        assert_eq!(g.node_prop(a, "w"), Some(&Value::Int(2)));
    }

    #[test]
    fn type_index() {
        let mut b = GraphBuilder::new();
        let a = b.add_typed_node("a", &["t1"]);
        let c = b.add_typed_node("c", &["t1", "t2"]);
        let g = b.freeze();
        let t1 = g.label_id("t1").unwrap();
        let t2 = g.label_id("t2").unwrap();
        assert_eq!(g.nodes_with_type(t1), &[a, c]);
        assert_eq!(g.nodes_with_type(t2), &[c]);
    }

    #[test]
    #[should_panic(expected = "unknown source node")]
    fn edge_requires_existing_nodes() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        b.add_edge(NodeId(99), "x", a);
    }
}
