//! The immutable labelled multigraph (paper Def. 2.1) in a
//! label-partitioned CSR (compressed sparse row) layout.
//!
//! A graph `G(N, E)` has labelled nodes and labelled directed edges;
//! the CTP semantics traverse edges in *both* directions (requirement
//! R3). Instead of per-node heap allocations and hash-map label
//! indexes, every structure is a pair of contiguous `u32` columns —
//! an offsets array partitioning a values array:
//!
//! ```text
//! node_label    [n]    label of each node
//! type_offsets  [n+1]  ─┐ per-node type-id runs (insertion order)
//! type_ids      [t]    ─┘
//! edge_ndl      [3m]   interleaved (src, dst, label) per edge — the
//!                      words of the public `EdgeData` POD
//! adj_offsets   [n+1]  ─┐ per-node bidirectional adjacency runs of
//! adj_pairs     [4m]   ─┘ (edge|dir, other) pairs — `Adj` PODs, in
//!                         ascending edge-id order per node
//! elab_offsets  [L+1]  ─┐ per-edge-label edge runs in ascending
//! elab_edges    [m]    ─┘ edge-id order (`edges_with_label`)
//! fwd_edges     [m]    per-label runs re-sorted by (src, id): the
//!                      forward CSR — `out_edges_labelled` binary
//!                      searches a source node's contiguous group
//! rev_edges     [m]    same, sorted by (dst, id): the reverse CSR
//! nlab_offsets  [L+1]  ─┐ per-label node runs, ascending node id
//! nlab_nodes    [n]    ─┘ (`nodes_with_label`)
//! ntype_offsets [L+1]  ─┐ per-type node runs, ascending node id
//! ntype_nodes   [t]    ─┘ (`nodes_with_type`)
//! ```
//!
//! Neighbour expansion (Grow) walks one cache-friendly linear run;
//! `AccessPath::EdgeLabelIndex` is a slice iteration and
//! `AccessPath::LabelledRun` one binary search per pinned node; and because the
//! columns are plain little-endian `u32` arrays, a CSG2 snapshot can
//! serialise them verbatim and [`crate::snapshot::load_from`] can back
//! them by a memory-mapped file with zero copying (see
//! [`crate::storage`]). Sparse node/edge properties stay in owned
//! side tables sorted by entity id.
//!
//! Construct with [`crate::GraphBuilder`]; once frozen, a `Graph` is
//! `Send + Sync` and safely shared across search threads. Edge count
//! is capped at `2^31 - 1` because the adjacency word keeps the
//! direction flag in the top bit.

use crate::ids::{EdgeId, LabelId, NodeId};
use crate::interner::Interner;
use crate::mutate::{DeltaState, MutationRecord};
use crate::stats::Cardinalities;
use crate::storage::Storage;
use crate::value::Value;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// A node's payload, viewed against the columnar storage: label, zero
/// or more types, sparse properties.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'g> {
    /// The node label (ε if unlabelled).
    pub label: LabelId,
    /// RDF types / PG labels of the node (paper: "an RDF node may have
    /// 0 or more types"), in insertion order.
    pub types: &'g [LabelId],
    /// Additional properties, sorted by key.
    pub props: &'g [(LabelId, Value)],
}

/// Per-edge payload: endpoints and label.
///
/// Stored as three consecutive `u32` words per edge, so the edge table
/// is a single contiguous column (possibly a mapped snapshot region).
/// Edge properties live in a side table — see [`Graph::edge_props`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct EdgeData {
    /// Source node.
    pub src: NodeId,
    /// Target node.
    pub dst: NodeId,
    /// Edge label (ε if unlabelled).
    pub label: LabelId,
}

/// One entry of a node's combined (bidirectional) adjacency list:
/// two `u32` words — the edge id with the direction flag in the top
/// bit, and the far endpoint.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Adj {
    word: u32,
    other: u32,
}

const DIR_BIT: u32 = 1 << 31;

impl Adj {
    #[inline]
    pub(crate) fn new(edge: EdgeId, other: NodeId, outgoing: bool) -> Adj {
        debug_assert!(edge.0 < DIR_BIT, "edge id overflows the direction bit");
        Adj {
            word: edge.0 | if outgoing { DIR_BIT } else { 0 },
            other: other.0,
        }
    }

    /// The incident edge.
    #[inline]
    pub fn edge(&self) -> EdgeId {
        EdgeId(self.word & !DIR_BIT)
    }

    /// The endpoint on the far side (equals the node itself for loops).
    #[inline]
    pub fn other(&self) -> NodeId {
        NodeId(self.other)
    }

    /// True if the edge leaves this node (`src == this`), false if it
    /// enters it. A self-loop appears twice, once per direction.
    #[inline]
    pub fn outgoing(&self) -> bool {
        self.word & DIR_BIT != 0
    }

    /// The entry's two storage words, in column order.
    #[inline]
    pub(crate) fn words(self) -> [u32; 2] {
        [self.word, self.other]
    }
}

impl std::fmt::Debug for Adj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Adj({:?} {} {:?})",
            self.edge(),
            if self.outgoing() { "->" } else { "<-" },
            self.other()
        )
    }
}

/// Sparse property side table: `(entity id, sorted props)` entries,
/// sorted by entity id.
pub(crate) type PropTable = Box<[(u32, Box<[(LabelId, Value)]>)]>;

/// The graph's raw CSR columns in serialisation order (see the
/// [module docs](self)), plus the header counts `n`/`m`/`t`/`l`.
pub(crate) struct CsrColumns<'g> {
    pub n: u32,
    pub m: u32,
    pub t: u32,
    pub l: u32,
    pub arrays: [&'g [u32]; 14],
}

/// Everything needed to assemble a [`Graph`] — produced by the builder
/// (owned columns) and by the snapshot decoder (owned or mapped
/// columns).
#[derive(Debug, Clone)]
pub(crate) struct GraphParts {
    pub interner: Interner,
    pub n: usize,
    pub m: usize,
    pub node_label: Storage,
    pub type_offsets: Storage,
    pub type_ids: Storage,
    pub edge_ndl: Storage,
    pub adj_offsets: Storage,
    pub adj_pairs: Storage,
    pub elab_offsets: Storage,
    pub elab_edges: Storage,
    pub fwd_edges: Storage,
    pub rev_edges: Storage,
    pub nlab_offsets: Storage,
    pub nlab_nodes: Storage,
    pub ntype_offsets: Storage,
    pub ntype_nodes: Storage,
    pub node_props: PropTable,
    pub edge_props: PropTable,
}

impl GraphParts {
    pub(crate) fn into_graph(self) -> Graph {
        Graph {
            interner: self.interner,
            n: self.n,
            m: self.m,
            node_label: self.node_label,
            type_offsets: self.type_offsets,
            type_ids: self.type_ids,
            edge_ndl: self.edge_ndl,
            adj_offsets: self.adj_offsets,
            adj_pairs: self.adj_pairs,
            elab_offsets: self.elab_offsets,
            elab_edges: self.elab_edges,
            fwd_edges: self.fwd_edges,
            rev_edges: self.rev_edges,
            nlab_offsets: self.nlab_offsets,
            nlab_nodes: self.nlab_nodes,
            ntype_offsets: self.ntype_offsets,
            ntype_nodes: self.ntype_nodes,
            node_props: self.node_props,
            edge_props: self.edge_props,
            cardinalities: OnceLock::new(),
            delta: None,
            generation: 0,
            log: VecDeque::new(),
            compact_threshold: crate::mutate::DEFAULT_COMPACT_THRESHOLD,
        }
    }
}

/// An immutable labelled multigraph in label-partitioned CSR form —
/// see the `model` module docs for the column layout.
///
/// Construct with [`crate::GraphBuilder`] or load from a snapshot
/// ([`crate::snapshot`]); a `Graph` is `Send + Sync` and safely shared
/// across search threads.
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) interner: Interner,
    pub(crate) n: usize,
    pub(crate) m: usize,
    node_label: Storage,
    type_offsets: Storage,
    type_ids: Storage,
    edge_ndl: Storage,
    adj_offsets: Storage,
    adj_pairs: Storage,
    elab_offsets: Storage,
    elab_edges: Storage,
    fwd_edges: Storage,
    rev_edges: Storage,
    nlab_offsets: Storage,
    nlab_nodes: Storage,
    ntype_offsets: Storage,
    ntype_nodes: Storage,
    node_props: PropTable,
    edge_props: PropTable,
    pub(crate) cardinalities: OnceLock<Cardinalities>,
    /// Copy-on-write mutation overlay; `None` while the graph matches
    /// its base columns (see [`crate::mutate`]).
    pub(crate) delta: Option<Box<DeltaState>>,
    /// Monotonic mutation counter, bumped once per effective batch.
    pub(crate) generation: u64,
    /// Bounded per-batch mutation log (what each generation touched).
    pub(crate) log: VecDeque<MutationRecord>,
    /// Overlay-op count that triggers compaction in `apply`.
    pub(crate) compact_threshold: usize,
}

/// Casts a `u32` column to a slice of a `u32`-word POD (`EdgeId`,
/// `NodeId`, `LabelId` are `repr(transparent)`; `Adj`/`EdgeData` are
/// `repr(C)` tuples of those), which is sound for any bit pattern.
macro_rules! cast_words {
    ($slice:expr, $ty:ty, $words:expr) => {{
        let s: &[u32] = $slice;
        // `allow`, not `expect`: the lint fires only where $words is 1.
        #[allow(clippy::modulo_one, reason = "$words is 1 for single-word ids")]
        {
            debug_assert_eq!(s.len() % $words, 0);
        }
        debug_assert_eq!(std::mem::size_of::<$ty>(), 4 * $words);
        debug_assert_eq!(std::mem::align_of::<$ty>(), 4);
        // SAFETY: $ty is a POD of $words u32 words with align 4, and
        // every bit pattern is a valid value.
        unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<$ty>(), s.len() / $words) }
    }};
}

/// The half-open value range of partition `i` in an offsets column.
#[inline(always)]
fn run(offsets: &[u32], i: usize) -> std::ops::Range<usize> {
    offsets[i] as usize..offsets[i + 1] as usize
}

#[inline]
fn side_props(table: &PropTable, id: u32) -> &[(LabelId, Value)] {
    match table.binary_search_by_key(&id, |(k, _)| *k) {
        Ok(i) => &table[i].1,
        Err(_) => &[],
    }
}

impl Graph {
    /// Number of nodes |N|.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges |E|.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId::new)
    }

    /// Iterates over all live edge ids, ascending. Before compaction a
    /// mutated graph's edge-id space may be sparse (removed ids are
    /// skipped, inserted ids extend past the base columns).
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        let space = match &self.delta {
            Some(d) => d.base_m + d.extra_edges.len(),
            None => self.m,
        };
        (0..space)
            .map(EdgeId::new)
            .filter(move |e| match &self.delta {
                Some(d) => !d.removed.contains(&e.0),
                None => true,
            })
    }

    /// Node payload (label, types, properties).
    #[inline]
    pub fn node(&self, n: NodeId) -> NodeRef<'_> {
        if let Some(d) = &self.delta {
            if n.index() >= d.base_n {
                let x = &d.extra_nodes[n.index() - d.base_n];
                return NodeRef {
                    label: x.label,
                    types: &x.types,
                    props: &[],
                };
            }
        }
        let label = LabelId(self.node_label.as_slice()[n.index()]);
        let types_raw = &self.type_ids.as_slice()[run(self.type_offsets.as_slice(), n.index())];
        NodeRef {
            label,
            types: cast_words!(types_raw, LabelId, 1),
            props: side_props(&self.node_props, n.0),
        }
    }

    /// Edge payload (endpoints and label). The id must be live: data
    /// for a removed edge is unspecified (base rows linger as
    /// tombstones until compaction).
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &EdgeData {
        if let Some(d) = &self.delta {
            if e.index() >= d.base_m {
                return &d.extra_edges[e.index() - d.base_m];
            }
        }
        &cast_words!(self.edge_ndl.as_slice(), EdgeData, 3)[e.index()]
    }

    /// The combined (both-direction) adjacency list of `n` — one
    /// contiguous run of the CSR adjacency column (or its patched
    /// overlay copy), in ascending edge-id order.
    #[inline]
    pub fn adjacent(&self, n: NodeId) -> &[Adj] {
        if let Some(d) = &self.delta {
            if let Some(v) = d.adj.get(&n.0) {
                return v;
            }
            if n.index() >= d.base_n {
                return &[];
            }
        }
        let r = run(self.adj_offsets.as_slice(), n.index());
        &cast_words!(self.adj_pairs.as_slice(), Adj, 2)[r]
    }

    /// The number of incident edges `d_n` (paper §4.6); loops count twice.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        if self.delta.is_some() {
            return self.adjacent(n).len();
        }
        let r = run(self.adj_offsets.as_slice(), n.index());
        r.end - r.start
    }

    /// Outgoing incident entries only.
    pub fn outgoing(&self, n: NodeId) -> impl Iterator<Item = &Adj> {
        self.adjacent(n).iter().filter(|a| a.outgoing())
    }

    /// Incoming incident entries only.
    pub fn incoming(&self, n: NodeId) -> impl Iterator<Item = &Adj> {
        self.adjacent(n).iter().filter(|a| !a.outgoing())
    }

    /// Given an edge and one of its endpoints, returns the other endpoint.
    ///
    /// # Panics
    /// Panics in debug builds if `n` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, n: NodeId) -> NodeId {
        let ed = self.edge(e);
        debug_assert!(ed.src == n || ed.dst == n, "{n:?} not an endpoint of {e:?}");
        if ed.src == n {
            ed.dst
        } else {
            ed.src
        }
    }

    /// The label string of a node.
    pub fn node_label(&self, n: NodeId) -> &str {
        self.interner.resolve(self.node(n).label)
    }

    /// The label string of an edge.
    pub fn edge_label(&self, e: EdgeId) -> &str {
        self.interner.resolve(self.edge(e).label)
    }

    /// The type strings of a node.
    pub fn node_types(&self, n: NodeId) -> impl Iterator<Item = &str> {
        self.node(n).types.iter().map(|&t| self.interner.resolve(t))
    }

    /// A node's sparse properties, sorted by key (empty for most nodes).
    pub fn node_props(&self, n: NodeId) -> &[(LabelId, Value)] {
        side_props(&self.node_props, n.0)
    }

    /// An edge's sparse properties, sorted by key (empty for most edges).
    pub fn edge_props(&self, e: EdgeId) -> &[(LabelId, Value)] {
        side_props(&self.edge_props, e.0)
    }

    /// Looks up an interned label id without inserting.
    pub fn label_id(&self, s: &str) -> Option<LabelId> {
        self.interner.get(s)
    }

    /// Resolves a label id to its string.
    pub fn resolve(&self, l: LabelId) -> &str {
        self.interner.resolve(l)
    }

    /// The shared interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The half-open range of label `l`'s partition in a per-label
    /// offsets column, empty for out-of-universe ids.
    #[inline]
    fn label_run(&self, offsets: &Storage, l: LabelId) -> std::ops::Range<usize> {
        let offsets = offsets.as_slice();
        if l.index() + 1 >= offsets.len() {
            return 0..0;
        }
        run(offsets, l.index())
    }

    /// All edges carrying label `l` (empty slice if none), in ascending
    /// edge-id order.
    pub fn edges_with_label(&self, l: LabelId) -> &[EdgeId] {
        if let Some(d) = &self.delta {
            if let Some(v) = d.elab.get(&l.0) {
                return v;
            }
        }
        let r = self.label_run(&self.elab_offsets, l);
        cast_words!(&self.elab_edges.as_slice()[r], EdgeId, 1)
    }

    /// Edges with label `l` leaving node `n`, in ascending edge-id
    /// order — a binary-searched sub-run of the forward label CSR.
    pub fn out_edges_labelled(&self, n: NodeId, l: LabelId) -> &[EdgeId] {
        if let Some(d) = &self.delta {
            if let Some(run) = d.fwd.get(&l.0) {
                return self.endpoint_group(run, n, false);
            }
        }
        self.labelled_endpoint_run(&self.fwd_edges, l, n, 0)
    }

    /// Edges with label `l` entering node `n`, in ascending edge-id
    /// order — a binary-searched sub-run of the reverse label CSR.
    pub fn in_edges_labelled(&self, n: NodeId, l: LabelId) -> &[EdgeId] {
        if let Some(d) = &self.delta {
            if let Some(run) = d.rev.get(&l.0) {
                return self.endpoint_group(run, n, true);
            }
        }
        self.labelled_endpoint_run(&self.rev_edges, l, n, 1)
    }

    /// Binary search over a patched forward/reverse run (sorted by
    /// endpoint then id) for node `n`'s group; edge payloads may live
    /// in the overlay, so keys go through [`Graph::edge`].
    fn endpoint_group<'a>(&'a self, run: &'a [EdgeId], n: NodeId, use_dst: bool) -> &'a [EdgeId] {
        let key = |e: &EdgeId| {
            let ed = self.edge(*e);
            if use_dst {
                ed.dst.0
            } else {
                ed.src.0
            }
        };
        let lo = run.partition_point(|e| key(e) < n.0);
        let hi = lo + run[lo..].partition_point(|e| key(e) == n.0);
        &run[lo..hi]
    }

    /// The base forward-CSR run of label `l`, ignoring any overlay —
    /// used by the overlay itself to seed patched runs.
    pub(crate) fn base_fwd_run(&self, l: LabelId) -> &[EdgeId] {
        let r = self.label_run(&self.elab_offsets, l);
        cast_words!(&self.fwd_edges.as_slice()[r], EdgeId, 1)
    }

    /// The base reverse-CSR run of label `l`, ignoring any overlay.
    pub(crate) fn base_rev_run(&self, l: LabelId) -> &[EdgeId] {
        let r = self.label_run(&self.elab_offsets, l);
        cast_words!(&self.rev_edges.as_slice()[r], EdgeId, 1)
    }

    /// The group of edges within label `l`'s run of `column` whose
    /// endpoint word (`0` = src, `1` = dst) equals `n`.
    fn labelled_endpoint_run(
        &self,
        column: &Storage,
        l: LabelId,
        n: NodeId,
        endpoint: usize,
    ) -> &[EdgeId] {
        let run = &column.as_slice()[self.label_run(&self.elab_offsets, l)];
        let ndl = self.edge_ndl.as_slice();
        let key = |e: &u32| ndl[*e as usize * 3 + endpoint];
        let lo = run.partition_point(|e| key(e) < n.0);
        let hi = lo + run[lo..].partition_point(|e| key(e) == n.0);
        cast_words!(&run[lo..hi], EdgeId, 1)
    }

    /// All nodes carrying label `l` (empty slice if none), ascending.
    pub fn nodes_with_label(&self, l: LabelId) -> &[NodeId] {
        if let Some(d) = &self.delta {
            if let Some(v) = d.nlab.get(&l.0) {
                return v;
            }
        }
        let r = self.label_run(&self.nlab_offsets, l);
        cast_words!(&self.nlab_nodes.as_slice()[r], NodeId, 1)
    }

    /// All nodes having type `t` (empty slice if none), ascending.
    pub fn nodes_with_type(&self, t: LabelId) -> &[NodeId] {
        if let Some(d) = &self.delta {
            if let Some(v) = d.ntype.get(&t.0) {
                return v;
            }
        }
        let r = self.label_run(&self.ntype_offsets, t);
        cast_words!(&self.ntype_nodes.as_slice()[r], NodeId, 1)
    }

    /// Finds a node by its exact label string — convenient in tests and
    /// examples where labels are unique.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        let l = self.interner.get(label)?;
        self.nodes_with_label(l).first().copied()
    }

    /// Looks up a node property value by key string.
    pub fn node_prop(&self, n: NodeId, key: &str) -> Option<&Value> {
        let k = self.interner.get(key)?;
        lookup_prop(self.node_props(n), k)
    }

    /// Looks up an edge property value by key string.
    pub fn edge_prop(&self, e: EdgeId, key: &str) -> Option<&Value> {
        let k = self.interner.get(key)?;
        lookup_prop(self.edge_props(e), k)
    }

    /// True if the columnar storage is backed by a memory-mapped
    /// snapshot file rather than owned heap buffers.
    pub fn is_memory_mapped(&self) -> bool {
        self.adj_offsets.is_mapped()
    }

    /// The raw CSR columns in serialisation order, with the header
    /// counts — the exact words `binfmt`'s CSR section persists.
    /// Callers must compact first: the columns do not include the
    /// mutation overlay.
    pub(crate) fn csr_columns(&self) -> CsrColumns<'_> {
        debug_assert!(
            self.delta.is_none(),
            "csr_columns on a graph with a pending delta — compact first"
        );
        CsrColumns {
            n: self.n as u32,
            m: self.m as u32,
            t: self.type_ids.as_slice().len() as u32,
            l: self.interner.len() as u32,
            arrays: [
                self.node_label.as_slice(),
                self.type_offsets.as_slice(),
                self.type_ids.as_slice(),
                self.edge_ndl.as_slice(),
                self.adj_offsets.as_slice(),
                self.adj_pairs.as_slice(),
                self.elab_offsets.as_slice(),
                self.elab_edges.as_slice(),
                self.fwd_edges.as_slice(),
                self.rev_edges.as_slice(),
                self.nlab_offsets.as_slice(),
                self.nlab_nodes.as_slice(),
                self.ntype_offsets.as_slice(),
                self.ntype_nodes.as_slice(),
            ],
        }
    }

    /// Swaps in freshly built columns (delta compaction), clearing the
    /// overlay. Generation, log, and threshold are preserved; the
    /// cardinality cache resets (the caller re-seeds it when the
    /// counts are known to be unchanged).
    pub(crate) fn replace_columns(&mut self, parts: GraphParts) {
        self.interner = parts.interner;
        self.n = parts.n;
        self.m = parts.m;
        self.node_label = parts.node_label;
        self.type_offsets = parts.type_offsets;
        self.type_ids = parts.type_ids;
        self.edge_ndl = parts.edge_ndl;
        self.adj_offsets = parts.adj_offsets;
        self.adj_pairs = parts.adj_pairs;
        self.elab_offsets = parts.elab_offsets;
        self.elab_edges = parts.elab_edges;
        self.fwd_edges = parts.fwd_edges;
        self.rev_edges = parts.rev_edges;
        self.nlab_offsets = parts.nlab_offsets;
        self.nlab_nodes = parts.nlab_nodes;
        self.ntype_offsets = parts.ntype_offsets;
        self.ntype_nodes = parts.ntype_nodes;
        self.node_props = parts.node_props;
        self.edge_props = parts.edge_props;
        self.cardinalities = OnceLock::new();
        self.delta = None;
    }

    /// The sparse node-property side table (sorted by node id).
    pub(crate) fn node_prop_table(&self) -> &PropTable {
        &self.node_props
    }

    /// The sparse edge-property side table (sorted by edge id).
    pub(crate) fn edge_prop_table(&self) -> &PropTable {
        &self.edge_props
    }

    /// The cardinality snapshot of this graph, computed on first use
    /// and cached. Consumed by the BGP planner's cost model. Live
    /// graphs keep the snapshot fresh incrementally: each mutation
    /// batch adjusts the cached counts in place instead of recomputing
    /// (see [`crate::mutate`]).
    pub fn cardinalities(&self) -> &Cardinalities {
        self.cardinalities.get_or_init(|| Cardinalities::of(self))
    }

    /// The cached cardinality snapshot, if one has been computed (or
    /// seeded from a snapshot's statistics section) — `None` means the
    /// next [`Graph::cardinalities`] call will pay the full stats pass.
    pub fn cardinalities_if_computed(&self) -> Option<&Cardinalities> {
        self.cardinalities.get()
    }

    /// Seeds the cardinality cache from an externally decoded snapshot
    /// (`cs_graph::binfmt`'s statistics section). A no-op if the
    /// snapshot was already computed.
    pub(crate) fn warm_cardinalities(&self, c: Cardinalities) {
        let _ = self.cardinalities.set(c);
    }

    /// Renders an edge as `src -label-> dst` using node labels; meant for
    /// debugging and example output.
    pub fn describe_edge(&self, e: EdgeId) -> String {
        let ed = self.edge(e);
        format!(
            "{} -{}-> {}",
            self.node_label(ed.src),
            self.resolve(ed.label),
            self.node_label(ed.dst)
        )
    }
}

#[inline]
fn lookup_prop(props: &[(LabelId, Value)], key: LabelId) -> Option<&Value> {
    props
        .binary_search_by_key(&key, |(k, _)| *k)
        .ok()
        .map(|i| &props[i].1)
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::ids::{LabelId, NodeId};

    fn tiny() -> crate::Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let c = b.add_node("C");
        b.add_edge(a, "knows", c);
        b.add_edge(c, "likes", a);
        b.add_edge(a, "self", a);
        b.freeze()
    }

    #[test]
    fn counts() {
        let g = tiny();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn adjacency_is_bidirectional() {
        let g = tiny();
        let a = g.node_by_label("A").unwrap();
        let c = g.node_by_label("C").unwrap();
        // A: out "knows", in "likes", loop twice.
        assert_eq!(g.degree(a), 4);
        assert_eq!(g.degree(c), 2);
        assert_eq!(g.outgoing(a).count(), 2); // knows + loop-out
        assert_eq!(g.incoming(a).count(), 2); // likes + loop-in
    }

    #[test]
    fn adjacency_runs_ascend_by_edge_id() {
        let g = tiny();
        for n in g.node_ids() {
            let ids: Vec<_> = g.adjacent(n).iter().map(|a| a.edge().0).collect();
            let mut sorted = ids.clone();
            sorted.sort();
            assert_eq!(ids, sorted, "adjacency of {n:?} not in edge-id order");
        }
    }

    #[test]
    fn other_endpoint() {
        let g = tiny();
        let a = g.node_by_label("A").unwrap();
        let c = g.node_by_label("C").unwrap();
        let e = g
            .adjacent(a)
            .iter()
            .find(|x| x.other() == c)
            .unwrap()
            .edge();
        assert_eq!(g.other_endpoint(e, a), c);
        assert_eq!(g.other_endpoint(e, c), a);
    }

    #[test]
    fn label_indexes() {
        let g = tiny();
        let knows = g.label_id("knows").unwrap();
        assert_eq!(g.edges_with_label(knows).len(), 1);
        assert_eq!(g.nodes_with_label(g.label_id("A").unwrap()), &[NodeId(0)]);
        assert!(g.label_id("absent").is_none());
        // Out-of-universe ids yield empty slices, not panics.
        assert!(g.edges_with_label(LabelId(9999)).is_empty());
        assert!(g.nodes_with_type(LabelId(9999)).is_empty());
    }

    #[test]
    fn labelled_directed_runs() {
        let g = tiny();
        let a = g.node_by_label("A").unwrap();
        let c = g.node_by_label("C").unwrap();
        let knows = g.label_id("knows").unwrap();
        let likes = g.label_id("likes").unwrap();
        let selfl = g.label_id("self").unwrap();
        assert_eq!(g.out_edges_labelled(a, knows).len(), 1);
        assert!(g.out_edges_labelled(c, knows).is_empty());
        assert_eq!(
            g.in_edges_labelled(c, knows),
            g.out_edges_labelled(a, knows)
        );
        assert_eq!(g.in_edges_labelled(a, likes).len(), 1);
        // A self-loop is one edge in both directions of its label run.
        assert_eq!(
            g.out_edges_labelled(a, selfl),
            g.in_edges_labelled(a, selfl)
        );
        assert!(g.out_edges_labelled(a, LabelId(9999)).is_empty());
    }

    #[test]
    fn describe_edge() {
        let g = tiny();
        let knows = g.label_id("knows").unwrap();
        let e = g.edges_with_label(knows)[0];
        assert_eq!(g.describe_edge(e), "A -knows-> C");
    }

    #[test]
    fn builder_graphs_are_owned() {
        assert!(!tiny().is_memory_mapped());
    }
}
