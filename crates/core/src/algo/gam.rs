//! The GAM family of CTP search algorithms (paper §4.2–§4.7,
//! Algorithms 1–5).
//!
//! One engine implements GAM, ESP, MoESP, LESP and MoLESP; the paper's
//! refinements are configuration flags:
//!
//! * [`GamConfig::esp`] — edge-set pruning (Def. 4.3): discard any
//!   provenance whose (non-empty) edge set was already built.
//! * [`GamConfig::mo`] — merge-oriented extra trees (§4.5): when a
//!   provenance gains seeds over its children, inject copies re-rooted
//!   at each seed node; Grow is disabled on them.
//! * [`GamConfig::lesp`] — limited edge-set pruning (§4.6): a tree
//!   rooted at `n` with `Σ(ss_n) ≥ 3` and `d_n ≥ 3` is spared from ESP
//!   unless an identical *rooted* tree exists.
//!
//! `MoLESP = esp + mo + lesp` — complete for `m ≤ 3` (Property 8) and
//! for all results decomposing into `(u, n)`-rooted merges (Property 9).

use crate::config::{Filters, QueueOrder, QueuePolicy};
use crate::result::{ResultSet, ResultTree, SearchOutcome, SearchStats};
use crate::seedmask::SeedMask;
use crate::seeds::SeedSets;
use crate::tree::{Provenance, TreeData, TreeId, TreeStore, MAX_TREES};
use cs_graph::fxhash::{FxHashMap, FxHashSet};
use cs_graph::{EdgeId, Graph, LabelId, NodeId};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Which refinements are active on top of plain GAM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GamConfig {
    /// Edge-set pruning (§4.4).
    pub esp: bool,
    /// Merge-oriented tree injection (§4.5).
    pub mo: bool,
    /// Limited edge-set pruning (§4.6).
    pub lesp: bool,
}

impl GamConfig {
    /// Plain GAM (§4.2).
    pub const GAM: GamConfig = GamConfig {
        esp: false,
        mo: false,
        lesp: false,
    };
    /// ESP (§4.4).
    pub const ESP: GamConfig = GamConfig {
        esp: true,
        mo: false,
        lesp: false,
    };
    /// MoESP (§4.5).
    pub const MOESP: GamConfig = GamConfig {
        esp: true,
        mo: true,
        lesp: false,
    };
    /// LESP (§4.6).
    pub const LESP: GamConfig = GamConfig {
        esp: true,
        mo: false,
        lesp: true,
    };
    /// MoLESP (§4.7) — the paper's headline algorithm.
    pub const MOLESP: GamConfig = GamConfig {
        esp: true,
        mo: true,
        lesp: true,
    };
}

/// The engine's seed sets: borrowed for the classic entry points, owned
/// for pull-based streaming ([`GamEngine::into_stream`]), where the
/// stream must carry the seeds along with the engine.
enum SeedsRef<'g> {
    /// Seeds borrowed from the caller.
    Borrowed(&'g SeedSets),
    /// Seeds owned by the engine.
    Owned(Box<SeedSets>),
}

impl SeedsRef<'_> {
    fn get(&self) -> &SeedSets {
        match self {
            SeedsRef::Borrowed(s) => s,
            SeedsRef::Owned(b) => b,
        }
    }
}

/// A queued Grow opportunity without its tree: grow along `edge` to
/// `node`, the edge's far end from the tree's root, whose seed-set
/// membership is `membership`. [`GamEngine::queue_grows`] has both at
/// hand when it admits the pair, so a pop reads neither the graph nor
/// the seed map. A tree's pairs sit side by side in [`Queues::log`];
/// a [`Run`] names the tree once for a stretch of them.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pair {
    edge: EdgeId,
    node: NodeId,
    membership: SeedMask,
}

/// One tree's pairs `log[next..end]` that share a priority key and are
/// still queued: a maximal stretch of the pairs it admitted in one
/// [`Queues::push_tree`].
#[derive(Debug, Clone, Copy)]
struct Run {
    tree: TreeId,
    next: u32,
    end: u32,
}

const _: () = assert!(std::mem::size_of::<Pair>() == 16);
const _: () = assert!(std::mem::size_of::<Run>() == 12);

/// Grow opportunities in FIFO buckets of runs keyed by priority. `pop`
/// takes the next pair of the oldest run of the highest key. A run's
/// pairs were admitted one after another, so that is the order of a
/// max-heap on the key with ties broken by insertion, without a
/// sequence number, a sift, or a bucket entry per pair.
#[derive(Default)]
struct Buckets {
    by_key: BTreeMap<i64, VecDeque<Run>>,
    /// Pairs queued, not runs: the size §4.9's `Balanced` pick compares.
    len: usize,
}

impl Buckets {
    fn push(&mut self, key: i64, run: Run) {
        self.len += (run.end - run.next) as usize;
        self.by_key.entry(key).or_default().push_back(run);
    }

    /// The tree and log position of the next pair.
    fn pop(&mut self) -> Option<(TreeId, u32)> {
        let mut top = self.by_key.last_entry()?;
        let runs = top.get_mut();
        let run = runs.front_mut()?;
        let popped = (run.tree, run.next);
        run.next += 1;
        if run.next == run.end {
            runs.pop_front();
            if runs.is_empty() {
                top.remove();
            }
        }
        self.len -= 1;
        Some(popped)
    }
}

/// Single or per-`sat`-mask balanced queues (§4.9) over one log of the
/// pairs ever queued.
///
/// The log is never compacted: a popped pair keeps its 16 bytes until
/// the search ends, so its size follows the search's queue pushes, not
/// the most pairs queued at once. A pop whose tree Hist keeps adds
/// about 120 bytes to the store for as long, so where most pops keep
/// their tree the log is a fraction of the store. `search_alloc.rs`
/// holds a search that drains its queue to a peak-heap budget.
struct Queues {
    policy: QueuePolicy,
    single: Buckets,
    per: FxHashMap<SeedMask, Buckets>,
    /// Every pair queued in this search, in admission order.
    log: Vec<Pair>,
}

impl Queues {
    fn new(policy: QueuePolicy) -> Self {
        Queues {
            policy,
            single: Buckets::default(),
            per: FxHashMap::default(),
            log: Vec::new(),
        }
    }

    /// True if the log can take `n` more pairs: positions are `u32`.
    fn has_room(&self, n: usize) -> bool {
        self.log.len() + n <= u32::MAX as usize
    }

    /// Queues the pairs that tree `tree` (of seed mask `mask`) admits,
    /// each with its priority key, in admission order: one run per
    /// maximal stretch of equal keys. Returns how many pairs it queued.
    /// The caller has checked [`Queues::has_room`] for all of them.
    fn push_tree(
        &mut self,
        mask: SeedMask,
        tree: TreeId,
        pairs: impl IntoIterator<Item = (i64, Pair)>,
    ) -> u64 {
        let first = self.log.len();
        // The open run: its key and where its pairs start in the log.
        let mut open: Option<(i64, u32)> = None;
        for (key, pair) in pairs {
            // This pair's position, where an open run of another key ends.
            let end = self.log.len() as u32;
            if let Some((k, next)) = open.filter(|&(k, _)| k != key) {
                self.push_run(mask, k, Run { tree, next, end });
                open = None;
            }
            open.get_or_insert((key, end));
            self.log.push(pair);
        }
        if let Some((k, next)) = open {
            let end = self.log.len() as u32;
            self.push_run(mask, k, Run { tree, next, end });
        }
        (self.log.len() - first) as u64
    }

    fn push_run(&mut self, mask: SeedMask, key: i64, run: Run) {
        match self.policy {
            QueuePolicy::Single => self.single.push(key, run),
            QueuePolicy::Balanced => self.per.entry(mask).or_default().push(key, run),
        }
    }

    fn pop(&mut self) -> Option<(TreeId, Pair)> {
        let (tree, at) = match self.policy {
            QueuePolicy::Single => self.single.pop(),
            QueuePolicy::Balanced => {
                // Grow from the queue currently holding the fewest
                // pairs, so small seed sets' neighbourhoods expand
                // first (§4.9).
                self.per
                    .values_mut()
                    .filter(|q| q.len > 0)
                    .min_by_key(|q| q.len)?
                    .pop()
            }
        }?;
        Some((tree, self.log[at as usize]))
    }
}

/// Ends a chain through the tree arena. No tree has this id: a
/// [`TreeStore`] holds ids below [`MAX_TREES`].
const NIL: u32 = u32::MAX;

const _: () = assert!(NIL as usize == MAX_TREES);

/// One tree's Hist key and its links in the engine's two chains through
/// the tree arena, indexed by [`TreeId`].
struct Links {
    /// The tree's edge-set key ([`edge_set_key`]).
    key: u32,
    /// The next older tree in the same Hist bucket.
    hist: u32,
    /// The next newer tree recorded for merging at the same root
    /// (TreesRootedIn).
    rooted: u32,
}

/// Hist buckets a search starts with; the table doubles from there.
const HIST_BUCKETS: usize = 64;

/// The bucket of `key` in a Hist table of `buckets` heads, a power of
/// two.
#[inline]
fn bucket(key: u32, buckets: usize) -> usize {
    key as usize & (buckets - 1)
}

/// One edge's share of an edge-set key: the edge id plus one through
/// murmur3's 32-bit finaliser, so that sums of shares spread over every
/// bit. The finaliser is a bijection that maps 0 to 0; the added one
/// gives that zero share to id `u32::MAX`, the last a graph can hold,
/// rather than to edge 0, which would otherwise leave its trees' keys
/// unchanged.
#[inline]
fn edge_key(e: EdgeId) -> u32 {
    let mut h = e.0.wrapping_add(1);
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^ (h >> 16)
}

/// The Hist key of an edge set: the wrapping sum of its edges'
/// [`edge_key`]s. It is additive: the key of a tree follows from its
/// provenance without reading its edges (see [`GamEngine::key_of`]).
/// Equal keys do not imply equal edge sets: every lookup compares the
/// edge slices along the chain, so a collision costs a comparison and
/// never changes an answer.
fn edge_set_key(edges: &[EdgeId]) -> u32 {
    edges
        .iter()
        .fold(0, |k: u32, &e| k.wrapping_add(edge_key(e)))
}

/// The GAM-family search engine. Construct with [`GamEngine::new`],
/// run with [`GamEngine::run`] — or pull results incrementally through
/// [`GamEngine::into_stream`].
pub struct GamEngine<'g> {
    g: &'g Graph,
    seeds: SeedsRef<'g>,
    cfg: GamConfig,
    filters: Filters,
    label_filter: Option<FxHashSet<LabelId>>,
    order: QueueOrder,
    store: TreeStore,
    queue: Queues,
    /// Hist of Algorithm 1: a power-of-two table of bucket heads, each
    /// the newest stored tree whose key ([`Links::key`]) falls in that
    /// bucket; [`Links::hist`] chains each tree to the next older one
    /// in its bucket. Every stored tree is in it, so it answers both
    /// GAM's rooted-tree dedup and ESP's edge-set history.
    hist: Vec<u32>,
    /// TreesRootedIn of Algorithm 3: root → (oldest, newest) tree
    /// recorded for merging there; [`Links::rooted`] chains them in
    /// insertion order. Result trees are excluded — they can never
    /// merge, their `sat` overlaps everything — and so are trees at the
    /// `MAX` bound (see [`GamEngine::at_max`]).
    trees_rooted_in: FxHashMap<NodeId, (u32, u32)>,
    /// Per-tree chain links, aligned with `store`.
    links: Vec<Links>,
    /// Seed signatures ss_n (§4.6), indexed by node. Only LESP reads
    /// them, and only where `Σ(ss_n) ≥ 3`; each ss_n is a subset of the
    /// explicit seed sets, so with fewer than three the array is empty
    /// and never written.
    ss: Vec<SeedMask>,
    /// Aggressive-merge worklist.
    pending_merge: Vec<TreeId>,
    /// Arena ids of reported results (aligned with `results` order).
    result_ids: Vec<TreeId>,
    results: ResultSet,
    stats: SearchStats,
    deadline: Option<Instant>,
    tick: u32,
    stop: bool,
    /// Init trees not yet processed — fed by [`GamEngine::begin`],
    /// drained before the Grow loop (Algorithm 1 lines 3–7). Holding
    /// them as engine state (rather than a local loop) is what makes
    /// the search resumable one [`GamEngine::step`] at a time.
    init_pending: VecDeque<NodeId>,
}

impl<'g> GamEngine<'g> {
    /// Prepares a search over `g` with the given seed sets and
    /// configuration.
    pub fn new(
        g: &'g Graph,
        seeds: &'g SeedSets,
        cfg: GamConfig,
        filters: Filters,
        order: QueueOrder,
        policy: QueuePolicy,
    ) -> Self {
        Self::with_seeds(g, SeedsRef::Borrowed(seeds), cfg, filters, order, policy)
    }

    /// Like [`GamEngine::new`], but the engine takes ownership of the
    /// seed sets — required by [`GamEngine::into_stream`], where the
    /// returned stream must carry the seeds along with the engine.
    pub fn with_owned_seeds(
        g: &'g Graph,
        seeds: SeedSets,
        cfg: GamConfig,
        filters: Filters,
        order: QueueOrder,
        policy: QueuePolicy,
    ) -> Self {
        Self::with_seeds(
            g,
            SeedsRef::Owned(Box::new(seeds)),
            cfg,
            filters,
            order,
            policy,
        )
    }

    fn with_seeds(
        g: &'g Graph,
        seeds: SeedsRef<'g>,
        cfg: GamConfig,
        filters: Filters,
        order: QueueOrder,
        policy: QueuePolicy,
    ) -> Self {
        let label_filter = filters.resolve_labels(g);
        // Initialise ss_n: seeds start with their membership mask,
        // other nodes with 0 (§4.6).
        let s = seeds.get();
        let explicit = s.m() - s.presatisfied().count() as usize;
        let mut ss = Vec::new();
        if cfg.lesp && explicit >= 3 {
            ss = vec![SeedMask::EMPTY; g.node_count()];
            for n in s.all_seed_nodes() {
                ss[n.index()] = s.membership(n);
            }
        }
        GamEngine {
            g,
            seeds,
            cfg,
            filters,
            label_filter,
            order,
            store: TreeStore::new(),
            queue: Queues::new(policy),
            hist: vec![NIL; HIST_BUCKETS],
            trees_rooted_in: FxHashMap::default(),
            links: Vec::new(),
            ss,
            pending_merge: Vec::new(),
            result_ids: Vec::new(),
            results: ResultSet::new(),
            stats: SearchStats::default(),
            deadline: None,
            tick: 0,
            stop: false,
            init_pending: VecDeque::new(),
        }
    }

    /// Runs the search to completion (or until a filter/limit stops it)
    /// — draining the engine's [`CtpStream`].
    pub fn run(self) -> SearchOutcome {
        self.into_stream().into_outcome()
    }

    /// Like [`GamEngine::run`], but also returns the tree arena and the
    /// arena ids of the reported results, enabling provenance
    /// inspection (Def. 4.1) via [`crate::explain`].
    pub fn run_traced(self) -> crate::explain::TracedOutcome {
        let mut stream = self.into_stream();
        let outcome = stream.drain();
        crate::explain::TracedOutcome {
            outcome,
            store: stream.engine.store,
            result_ids: stream.engine.result_ids,
        }
    }

    /// Arms the deadline and queues the Init trees (Algorithm 1 lines
    /// 3–7). Must be called exactly once, before the first
    /// [`GamEngine::step`].
    fn begin(&mut self, start: Instant) {
        self.deadline = self.filters.timeout.map(|t| start + t);
        self.init_pending = self.seeds.get().all_seed_nodes().into();
    }

    /// Advances the search by one unit of work: processing one Init
    /// tree while any is pending, then one Grow opportunity per call
    /// (Algorithm 1 lines 8–11). Returns `false` once the search is
    /// exhausted or stopped (filters, timeout, cancellation) — the
    /// resumption point [`CtpStream`] pulls on.
    fn step(&mut self) -> bool {
        if self.stop {
            return false;
        }
        if let Some(n) = self.init_pending.pop_front() {
            let t = self.store.make_init(n, self.seeds.get());
            self.process_tree(t);
            self.drain_merges();
            return !self.stop;
        }
        let Some((tree, pair)) = self.queue.pop() else {
            return false;
        };
        self.check_time();
        if self.stop {
            return false;
        }
        debug_assert_eq!(
            pair.node,
            self.g.other_endpoint(pair.edge, self.store.get(tree).root),
            "queued far node"
        );
        debug_assert_eq!(
            pair.membership,
            self.seeds.get().membership(pair.node),
            "queued membership"
        );
        let grown = self
            .store
            .make_grow(tree, pair.edge, pair.node, pair.membership);
        self.stats.grows += 1;
        // Algorithm 1 line 10: update ss_root(t') before processing.
        if !grown.path_from.is_empty() {
            if let Some(slot) = self.ss.get_mut(grown.root.index()) {
                *slot = slot.union(grown.path_from);
            }
        }
        self.process_tree(grown);
        self.drain_merges();
        !self.stop
    }

    /// Converts the engine into a pull-based stream over its results.
    /// Each [`Iterator::next`] call advances the search just far enough
    /// to discover the next result, so consumers pay only for what they
    /// pull — dropping the stream after `k` results is the TOP-k-style
    /// early termination of the paper's "as many results as possible,
    /// as fast as possible" contract (Observation 2), in pull form.
    pub fn into_stream(mut self) -> CtpStream<'g> {
        let start = Instant::now();
        self.begin(start);
        CtpStream {
            engine: self,
            start,
            emitted: 0,
            exhausted: false,
        }
    }

    /// Stored trees whose Hist key is `key`, newest first: the bucket's
    /// chain without the trees of other keys.
    fn hist_chain(&self, key: u32) -> impl Iterator<Item = TreeId> + '_ {
        let mut cur = self.hist[bucket(key, self.hist.len())];
        std::iter::from_fn(move || {
            while cur != NIL {
                let t = cur;
                let l = &self.links[t as usize];
                cur = l.hist;
                if l.key == key {
                    return Some(TreeId(t));
                }
            }
            None
        })
    }

    /// True if a tree over `edges` (of Hist key `key`) rooted at `root`
    /// has been built.
    fn has_rooted(&self, key: u32, edges: &[EdgeId], root: NodeId) -> bool {
        self.hist_chain(key)
            .any(|o| self.store.get(o).root == root && self.store.edges(o) == edges)
    }

    /// Algorithm 4 `isNew`: the history check with LESP's sparing rule;
    /// `key` is the Hist key of `t`'s edge set.
    fn is_new(&self, t: &TreeData, key: u32) -> bool {
        let edges = self.store.view(t).edges;
        if !self.hist_chain(key).any(|o| self.store.edges(o) == edges) {
            return true;
        }
        if self.cfg.esp && !edges.is_empty() {
            // The edge set exists. LESP spares a tree whose root is
            // well-connected to seeds, unless the identical rooted tree
            // exists (Algorithm 4 lines 4–8). `ss` is empty wherever
            // `Σ(ss_n) ≥ 3` cannot hold.
            if let Some(ssr) = self.ss.get(t.root.index()) {
                if ssr.count() >= 3 && self.g.degree(t.root) >= 3 {
                    return !self.has_rooted(key, edges, t.root);
                }
            }
            false
        } else {
            // GAM keeps only the first provenance per *rooted* tree;
            // Init trees (empty edge set) dedup by root under every
            // configuration.
            !self.has_rooted(key, edges, t.root)
        }
    }

    /// The Hist key of a candidate, from its provenance and the keys of
    /// the trees it was built from: Init has no edges, Grow adds one
    /// edge, Merge1 makes a merge's parts edge-disjoint, and a Mo copy
    /// keeps its parent's edges.
    fn key_of(&self, t: &TreeData) -> u32 {
        let key = |id: TreeId| self.links[id.index()].key;
        match t.provenance {
            Provenance::Init(_) => 0,
            Provenance::Grow(parent, e) => key(parent).wrapping_add(edge_key(e)),
            Provenance::Merge(a, b) => key(a).wrapping_add(key(b)),
            Provenance::Mo(parent, _) => key(parent),
        }
    }

    /// Stores `t` and registers it in Hist under `key`, its edge-set
    /// key. A full store refuses it: the candidate's pool space is given
    /// back and the search stops as it does at the provenance budget.
    fn store_tree(&mut self, t: TreeData, key: u32) -> Option<TreeId> {
        let Some(id) = self.store.push(t) else {
            self.store.discard(&t);
            self.stats.budget_exhausted = true;
            self.stop = true;
            return None;
        };
        let b = bucket(key, self.hist.len());
        let head = &mut self.hist[b];
        self.links.push(Links {
            key,
            hist: *head,
            rooted: NIL,
        });
        *head = id.0;
        if self.links.len() > self.hist.len() / 2 {
            self.grow_hist();
        }
        Some(id)
    }

    /// Doubles the Hist table and re-threads every chain in one pass
    /// over the trees, oldest to newest, so each chain still runs
    /// newest first.
    fn grow_hist(&mut self) {
        let buckets = self.hist.len() * 2;
        // A new table rather than a resized one: growing in place would
        // copy the old heads only to overwrite them.
        self.hist = vec![NIL; buckets];
        for (id, l) in (0..).zip(self.links.iter_mut()) {
            let head = &mut self.hist[bucket(l.key, buckets)];
            l.hist = *head;
            *head = id;
        }
    }

    /// recordForMerging (Algorithm 3 line 1): appends `id` to
    /// TreesRootedIn at `root` and schedules its merges — unless the
    /// tree is at the `MAX` bound, where no merge can build a new tree.
    fn record_for_merging(&mut self, id: TreeId, root: NodeId) {
        if self.at_max(self.store.get(id).size()) {
            return;
        }
        match self.trees_rooted_in.entry(root) {
            Entry::Occupied(mut o) => {
                let (_, newest) = o.get_mut();
                self.links[*newest as usize].rooted = id.0;
                *newest = id.0;
            }
            Entry::Vacant(v) => {
                v.insert((id.0, id.0));
            }
        }
        self.pending_merge.push(id);
    }

    /// True if a tree of `size` edges has reached the `MAX` bound
    /// (§4.8). Such a tree is never offered for Grow, and it is not
    /// recorded for merging: within the bound its only partner is
    /// `Init(root)`, whose union rebuilds the same rooted tree, which
    /// the history rejects under every configuration. All Init trees
    /// are processed before any other tree exists, so no later tree
    /// needs it as a partner either.
    fn at_max(&self, size: usize) -> bool {
        self.filters.max_edges.is_some_and(|maxe| size >= maxe)
    }

    /// Counts one more kept provenance; reaching the provenance budget
    /// stops the search.
    fn count_provenance(&mut self) {
        self.stats.provenances += 1;
        if let Some(maxp) = self.filters.max_provenances {
            if self.stats.provenances >= maxp {
                self.stats.budget_exhausted = true;
                self.stop = true;
            }
        }
    }

    /// Algorithm 2 `processTree`: history registration, result
    /// reporting, merge recording, Mo injection, queue feeding. A
    /// candidate it rejects gives its pool space back to the store.
    fn process_tree(&mut self, t: TreeData) -> Option<TreeId> {
        if self.stop {
            self.store.discard(&t);
            return None;
        }
        let key = self.key_of(&t);
        debug_assert_eq!(
            key,
            edge_set_key(self.store.view(&t).edges),
            "additive Hist key"
        );
        if !self.is_new(&t, key) {
            self.stats.pruned += 1;
            self.store.discard(&t);
            return None;
        }
        let id = self.store_tree(t, key)?;
        self.count_provenance();

        let sat_total = t.sat.union(self.seeds.get().presatisfied());
        let is_result = sat_total == self.seeds.get().full();
        let is_mo = t.is_mo;
        let root = t.root;
        let seeds_increased = match t.provenance {
            Provenance::Grow(parent, _) => t.sat != self.store.get(parent).sat,
            Provenance::Merge(_, _) => true,
            Provenance::Init(_) | Provenance::Mo(_, _) => false,
        };

        if is_result {
            let r = ResultTree::from_tree(
                self.store.edges(id).into(),
                self.store.nodes(id).into(),
                root,
                self.seeds.get(),
            );
            debug_assert!(
                crate::result::check_result_minimal(self.g, &r, self.seeds.get()).is_ok(),
                "GAM produced a non-minimal result (Property 2 violated)"
            );
            if self.results.insert(r) {
                self.result_ids.push(id);
            }
            if let Some(k) = self.filters.max_results {
                if self.results.len() >= k {
                    self.stop = true;
                }
            }
            // With explicit seed sets only, a result is terminal: its
            // `sat` overlaps every candidate partner, and growing it
            // cannot reach new seeds (Grow2). With an `N` seed set
            // (§4.9), every supertree is a further result (a different
            // N-match), so the tree stays active.
            if self.seeds.get().presatisfied().is_empty() {
                return Some(id);
            }
        }

        self.record_for_merging(id, root);

        // MoESP injection (Algorithm 3 lines 2–5, restricted per §4.5
        // to provenances that gained seeds; disabled under UNI, where
        // re-rooting at a seed breaks direction consistency).
        if self.cfg.mo && seeds_increased && !self.filters.uni {
            self.inject_mo(id, key);
        }

        // Queue Grow opportunities (Algorithm 2 lines 8–14); Grow is
        // disabled on Mo trees.
        if !is_mo {
            self.queue_grows(id);
        }
        Some(id)
    }

    /// Creates the MoESP copies of tree `id` (Hist key `key`),
    /// re-rooted at each of its seed nodes (other than its root), and
    /// schedules them for merging. Each copy is a provenance: the search
    /// stops at the provenance budget like [`GamEngine::process_tree`].
    fn inject_mo(&mut self, id: TreeId, key: u32) {
        for i in 0..self.store.nodes(id).len() {
            if self.stop {
                return;
            }
            let r = self.store.nodes(id)[i];
            if r == self.store.get(id).root || !self.seeds.get().is_seed(r) {
                continue;
            }
            // Skip if the identical rooted tree already exists; Mo
            // bypasses edge-set pruning by design, but exact duplicates
            // are useless.
            if self.has_rooted(key, self.store.edges(id), r) {
                continue;
            }
            let mo = self.store.make_mo(id, r);
            let Some(mo_id) = self.store_tree(mo, key) else {
                return;
            };
            self.stats.mo_copies += 1;
            self.count_provenance();
            self.record_for_merging(mo_id, r);
        }
    }

    /// Queues every admissible (tree, edge) Grow pair for tree `id`.
    fn queue_grows(&mut self, id: TreeId) {
        let td = self.store.view(self.store.get(id));
        // MAX n (§4.8): a Grow adds one edge whichever edge it takes, so
        // a tree at the bound has no admissible pair.
        if self.at_max(td.size()) {
            return;
        }
        let adjacent = self.g.adjacent(td.root);
        if !self.queue.has_room(adjacent.len()) {
            // The pair log is full: stop as at the provenance budget.
            self.stats.budget_exhausted = true;
            self.stop = true;
            return;
        }
        let (g, seeds, order) = (self.g, self.seeds.get(), &self.order);
        let (uni, label_filter) = (self.filters.uni, &self.label_filter);
        let admitted = adjacent.iter().filter_map(|a| {
            // UNI (§4.8): to keep "root reaches all seeds via directed
            // paths" invariant, grow only along edges *entering* the
            // current root (the new root points at the old one).
            if uni && a.outgoing() {
                return None;
            }
            if let Some(lf) = label_filter {
                if !lf.contains(&g.edge(a.edge()).label) {
                    return None;
                }
            }
            // Grow1: no repeated node (also rejects self-loops).
            if td.contains_node(a.other()) {
                return None;
            }
            // Grow2: the new node is no seed of an already-covered set.
            let membership = seeds.membership(a.other());
            if !membership.disjoint(td.sat) {
                return None;
            }
            let pair = Pair {
                edge: a.edge(),
                node: a.other(),
                membership,
            };
            Some((order.priority(g, td, a.edge()), pair))
        });
        self.stats.queue_pushes += self.queue.push_tree(td.sat, id, admitted);
    }

    /// Algorithm 5 `MergeAll`, iteratively: drain the worklist of trees
    /// whose merge partners have not been tried yet.
    fn drain_merges(&mut self) {
        while let Some(cur) = self.pending_merge.pop() {
            if self.stop {
                self.pending_merge.clear();
                return;
            }
            self.check_time();
            let root = self.store.get(cur).root;
            let Some(&(oldest, newest)) = self.trees_rooted_in.get(&root) else {
                continue;
            };
            // Partners are the trees recorded at `root` when this pass
            // begins, oldest first. Merges built during the pass share
            // the root and are appended after `newest`; each gets its
            // own pass from the worklist.
            let mut p = oldest;
            loop {
                if self.stop {
                    break;
                }
                if p != cur.0 {
                    let (a, b) = (self.store.get(cur), self.store.get(TreeId(p)));
                    let within_max = self
                        .filters
                        .max_edges
                        .is_none_or(|maxe| a.size() + b.size() <= maxe);
                    if within_max {
                        if let Some(m) = self.store.make_merge(cur, TreeId(p), self.seeds.get()) {
                            self.stats.merges += 1;
                            self.process_tree(m);
                        }
                    }
                }
                if p == newest {
                    break;
                }
                p = self.links[p as usize].rooted;
            }
        }
    }

    /// Periodic wall-clock + cooperative-cancellation check. Runs every
    /// 64 ticks, counting both Grow pops and merge passes, so a cancelled
    /// or past-deadline search stops mid-search (the resumable `step` loop observes `stop` on its
    /// next call) instead of running to completion.
    fn check_time(&mut self) {
        self.tick = self.tick.wrapping_add(1);
        if !self.tick.is_multiple_of(64) {
            return;
        }
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
}

/// Convenience: runs a GAM-family search with a single queue.
pub fn run_gam_family(
    g: &Graph,
    seeds: &SeedSets,
    cfg: GamConfig,
    filters: Filters,
    order: QueueOrder,
) -> SearchOutcome {
    GamEngine::new(g, seeds, cfg, filters, order, QueuePolicy::Single).run()
}

/// A pull-based stream over a GAM-family search's results, created by
/// [`GamEngine::into_stream`].
///
/// Each [`Iterator::next`] call advances the underlying search only
/// until the next result is discovered, so the caller pays exactly for
/// the results it consumes: `stream.take(k)` is a true TOP-k-style
/// early termination. It is the only loop that steps the engine:
/// materialising a search ([`GamEngine::run`],
/// [`CtpStream::into_outcome`]) is draining the stream. All of the
/// engine's filters (`MAX`, `LIMIT`, timeout, labels, `UNI`) apply
/// unchanged; when a filter stops the search the stream simply ends.
pub struct CtpStream<'g> {
    engine: GamEngine<'g>,
    start: Instant,
    /// Results already handed out (`engine.results` is append-only).
    emitted: usize,
    exhausted: bool,
}

impl CtpStream<'_> {
    /// The search statistics accumulated so far (they keep growing
    /// while the stream is pulled).
    pub fn stats(&self) -> &SearchStats {
        &self.engine.stats
    }

    /// Wall-clock time since the stream was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Drains the rest of the search and returns the complete
    /// [`SearchOutcome`] (all results, including the already-streamed
    /// prefix, in discovery order).
    pub fn into_outcome(mut self) -> SearchOutcome {
        self.drain()
    }

    /// Steps the search to its end and takes its outcome — the one
    /// stepping loop behind [`CtpStream::into_outcome`],
    /// [`GamEngine::run`] and [`GamEngine::run_traced`].
    fn drain(&mut self) -> SearchOutcome {
        while self.engine.step() {}
        SearchOutcome {
            results: std::mem::take(&mut self.engine.results),
            stats: self.engine.stats.clone(),
            duration: self.start.elapsed(),
        }
    }
}

impl Iterator for CtpStream<'_> {
    type Item = ResultTree;

    fn next(&mut self) -> Option<ResultTree> {
        while !self.exhausted && self.engine.results.len() <= self.emitted {
            if !self.engine.step() {
                self.exhausted = true;
            }
        }
        let tree = self.engine.results.trees().get(self.emitted)?.clone();
        self.emitted += 1;
        Some(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeds::SeedSpec;
    use cs_graph::generate::{chain, line, star};
    use cs_graph::{figure1, GraphBuilder};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn outcome(w: &cs_graph::generate::Workload, cfg: GamConfig) -> SearchOutcome {
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        run_gam_family(
            &w.graph,
            &seeds,
            cfg,
            Filters::none(),
            QueueOrder::SmallestFirst,
        )
    }

    #[test]
    fn gam_finds_line_result() {
        let w = line(3, 2);
        for cfg in [GamConfig::GAM, GamConfig::MOESP, GamConfig::MOLESP] {
            let out = outcome(&w, cfg);
            assert_eq!(out.results.len(), 1, "{cfg:?}");
            assert_eq!(out.results.trees()[0].size(), w.graph.edge_count());
        }
    }

    #[test]
    fn star_result_is_rooted_merge() {
        let w = star(4, 2);
        for cfg in [GamConfig::GAM, GamConfig::LESP, GamConfig::MOLESP] {
            let out = outcome(&w, cfg);
            assert_eq!(out.results.len(), 1, "{cfg:?}");
            assert_eq!(out.results.trees()[0].size(), 8);
        }
    }

    #[test]
    fn chain_has_exponential_results() {
        // Figure 2: 2^N results.
        for n in 1..=6 {
            let w = chain(n);
            let out = outcome(&w, GamConfig::MOLESP);
            assert_eq!(out.results.len(), 1 << n, "chain({n})");
            let gam = outcome(&w, GamConfig::GAM);
            assert_eq!(gam.results.len(), 1 << n, "GAM chain({n})");
        }
    }

    #[test]
    fn figure1_talpha_and_tbeta_found() {
        // Section 2: g1(S1,S2,S3) includes (n4,n6,n9,t_alpha) with
        // t_alpha = {e10,e9,e11} and (n2,n3,n9,t_beta) with
        // t_beta = {e1,e2,e17,e16}.
        let g = figure1();
        let s1 = vec![NodeId(1), NodeId(3)]; // Bob, Carole
        let s2 = vec![NodeId(2), NodeId(5)]; // Alice, Doug
        let s3 = vec![NodeId(8)]; // Elon
        let seeds = SeedSets::from_sets(vec![s1, s2, s3]).unwrap();
        let out = run_gam_family(
            &g,
            &seeds,
            GamConfig::MOLESP,
            Filters::none(),
            QueueOrder::SmallestFirst,
        );
        let canon = out.results.canonical();
        let t_alpha = vec![EdgeId(8), EdgeId(9), EdgeId(10)];
        let t_beta = vec![EdgeId(0), EdgeId(1), EdgeId(15), EdgeId(16)];
        assert!(canon.contains(&t_alpha), "t_alpha missing: {canon:?}");
        assert!(
            canon.contains(&t_beta),
            "t_beta missing (requires bidirectional traversal)"
        );
    }

    #[test]
    fn esp_prunes_but_two_seeds_complete() {
        // Property 3: with 2 seed sets, ESP = GAM results.
        let w = line(2, 4);
        let gam = outcome(&w, GamConfig::GAM);
        let esp = outcome(&w, GamConfig::ESP);
        assert_eq!(gam.results.canonical(), esp.results.canonical());
        assert!(
            esp.stats.provenances <= gam.stats.provenances,
            "ESP should not build more provenances"
        );
    }

    #[test]
    fn max_edges_filter() {
        let w = chain(4); // results of size 4 each
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let out = run_gam_family(
            &w.graph,
            &seeds,
            GamConfig::MOLESP,
            Filters::none().with_max_edges(3),
            QueueOrder::SmallestFirst,
        );
        assert_eq!(out.results.len(), 0);
        let out = run_gam_family(
            &w.graph,
            &seeds,
            GamConfig::MOLESP,
            Filters::none().with_max_edges(4),
            QueueOrder::SmallestFirst,
        );
        assert_eq!(out.results.len(), 16);
    }

    #[test]
    fn label_filter_restricts_results() {
        // On the chain, allowing only label "a" leaves exactly 1 result.
        let w = chain(3);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let out = run_gam_family(
            &w.graph,
            &seeds,
            GamConfig::MOLESP,
            Filters::none().with_labels(["a"]),
            QueueOrder::SmallestFirst,
        );
        assert_eq!(out.results.len(), 1);
    }

    #[test]
    fn limit_stops_early() {
        let w = chain(8); // 256 results in total
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let out = run_gam_family(
            &w.graph,
            &seeds,
            GamConfig::MOLESP,
            Filters::none().with_max_results(5),
            QueueOrder::SmallestFirst,
        );
        assert_eq!(out.results.len(), 5);
    }

    #[test]
    fn provenance_budget_stops() {
        let w = chain(10);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let out = run_gam_family(
            &w.graph,
            &seeds,
            GamConfig::GAM,
            Filters::none().with_max_provenances(50),
            QueueOrder::SmallestFirst,
        );
        assert!(out.stats.budget_exhausted);
        assert!(out.stats.provenances <= 50);
    }

    #[test]
    fn mo_injection_respects_provenance_budget() {
        // Mo copies are provenances: the budget caps them too, so no
        // search ends above its budget.
        for n in [4, 6, 10] {
            let w = star(n, 2);
            let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
            for cfg in [GamConfig::MOESP, GamConfig::MOLESP] {
                for budget in 1..200 {
                    let out = run_gam_family(
                        &w.graph,
                        &seeds,
                        cfg,
                        Filters::none().with_max_provenances(budget),
                        QueueOrder::SmallestFirst,
                    );
                    assert!(
                        out.stats.provenances <= budget,
                        "star({n},2) {cfg:?} budget {budget}: {} provenances",
                        out.stats.provenances
                    );
                }
            }
        }
    }

    /// A tree over `edges` rooted at `root`, built in the engine's
    /// store, with `sat` = the sets of its seed nodes.
    fn tree(e: &mut GamEngine<'_>, root: NodeId, edges: &[EdgeId]) -> TreeData {
        let g = e.g;
        let mut nodes: Vec<NodeId> = edges
            .iter()
            .flat_map(|&e| [g.edge(e).src, g.edge(e).dst])
            .collect();
        nodes.sort();
        nodes.dedup();
        let seeds = e.seeds.get();
        let sat = nodes
            .iter()
            .fold(SeedMask::EMPTY, |s, &n| s.union(seeds.membership(n)));
        e.store.make_from_sets(root, edges, &nodes, sat)
    }

    /// `isNew` of a candidate tree, which is then discarded.
    fn candidate_is_new(e: &mut GamEngine<'_>, root: NodeId, edges: &[EdgeId], h: u32) -> bool {
        let t = tree(e, root, edges);
        let new = e.is_new(&t, h);
        e.store.discard(&t);
        new
    }

    #[test]
    fn history_chain_tells_colliding_edge_sets_apart() {
        // Hub h with seeds a, b, c and a fourth neighbour (degree 4).
        let mut gb = GraphBuilder::new();
        let h = gb.add_node("h");
        let a = gb.add_node("a");
        let b = gb.add_node("b");
        let c = gb.add_node("c");
        let d = gb.add_node("d");
        let ea = gb.add_edge(h, "r", a);
        let eb = gb.add_edge(h, "r", b);
        let ec = gb.add_edge(h, "r", c);
        gb.add_edge(h, "r", d);
        let g = gb.freeze();
        let seeds = SeedSets::from_sets(vec![vec![a], vec![b], vec![c]]).unwrap();
        // Every tree below is registered under this one hash.
        const H: u32 = 7;
        let ab = [ea, eb];
        let ac = [ea, ec];
        let bc = [eb, ec];
        let engine = |cfg| {
            let mut e = GamEngine::new(
                &g,
                &seeds,
                cfg,
                Filters::none(),
                QueueOrder::SmallestFirst,
                QueuePolicy::Single,
            );
            // h reaches all three seed sets: LESP's sparing applies
            // there. Engines without LESP keep no signatures.
            if let Some(ss) = e.ss.get_mut(h.index()) {
                *ss = SeedMask::full(3);
            }
            let t = tree(&mut e, a, &ab);
            e.store_tree(t, H).unwrap();
            let t = tree(&mut e, h, &ac);
            e.store_tree(t, H).unwrap();
            e
        };

        // ESP: {ea, eb} exists (rooted at a); {eb, ec} is new despite
        // sharing the hash.
        let mut esp = engine(GamConfig::ESP);
        assert!(!candidate_is_new(&mut esp, h, &ab, H));
        assert!(candidate_is_new(&mut esp, h, &bc, H));

        // LESP spares {ea, eb} rooted at h: the tree at root h under the
        // same hash is {ea, ec}, not the identical rooted tree.
        let mut lesp = engine(GamConfig::LESP);
        assert!(candidate_is_new(&mut lesp, h, &ab, H));
        assert!(!candidate_is_new(&mut lesp, h, &ac, H));
        assert!(!candidate_is_new(&mut lesp, a, &ab, H));

        // Mo duplicate check: ({ea, ec}, h) re-rooted at seeds a and c.
        // ({ea, eb}, a) shares root and hash but not edges, so both
        // copies are built; a second injection finds both and adds none.
        let mut mo = engine(GamConfig::MOLESP);
        assert!(mo.has_rooted(H, &ab, a));
        assert!(!mo.has_rooted(H, &ac, a));
        mo.inject_mo(TreeId(1), H);
        assert_eq!(mo.stats.mo_copies, 2);
        assert!(mo.has_rooted(H, &ac, a) && mo.has_rooted(H, &ac, c));
        mo.inject_mo(TreeId(1), H);
        assert_eq!(mo.stats.mo_copies, 2);
    }

    #[test]
    fn hist_finds_every_tree_across_doublings() {
        // A hub with 200 leaves; the trees are its single edges and 100
        // pairs of them, all rooted at the hub.
        let mut gb = GraphBuilder::new();
        let hub = gb.add_node("hub");
        let leaves: Vec<NodeId> = (0..200).map(|i| gb.add_node(&format!("l{i}"))).collect();
        let es: Vec<EdgeId> = leaves.iter().map(|&l| gb.add_edge(hub, "r", l)).collect();
        let g = gb.freeze();
        let seeds = SeedSets::from_sets(vec![vec![leaves[0]], vec![leaves[1]]]).unwrap();
        let sets: Vec<Vec<EdgeId>> = es
            .iter()
            .map(|&e| vec![e])
            .chain(es.windows(2).take(100).map(<[EdgeId]>::to_vec))
            .collect();
        // A third of the trees share one key, a third have distinct keys
        // that fall in bucket 0 of every table size reached here, and
        // the rest have their edge sets' keys.
        const SHARED: u32 = 7;
        let key = |i: usize| match i % 3 {
            0 => SHARED,
            1 => (i as u32) << 12,
            _ => edge_set_key(&sets[i]),
        };
        let mut e = GamEngine::new(
            &g,
            &seeds,
            GamConfig::GAM,
            Filters::none(),
            QueueOrder::SmallestFirst,
            QueuePolicy::Single,
        );
        let mut doublings = 0;
        for i in 0..sets.len() {
            let buckets = e.hist.len();
            let t = tree(&mut e, hub, &sets[i]);
            e.store_tree(t, key(i)).unwrap();
            if e.hist.len() == buckets {
                continue;
            }
            doublings += 1;
            for (j, set) in sets[..=i].iter().enumerate() {
                assert!(e.has_rooted(key(j), set, hub), "tree {j} after {i}");
                assert!(!candidate_is_new(&mut e, hub, set, key(j)));
                let chain: Vec<u32> = e.hist_chain(key(j)).map(|t| t.0).collect();
                assert!(chain.contains(&(j as u32)), "tree {j} after {i}");
                assert!(chain.windows(2).all(|w| w[0] > w[1]), "newest first");
            }
            let shared: Vec<u32> = e.hist_chain(SHARED).map(|t| t.0).collect();
            let expected: Vec<u32> = (0..=i as u32).rev().filter(|j| j % 3 == 0).collect();
            assert_eq!(shared, expected);
            // Every bucket's chain, other keys included, runs newest
            // first.
            for &head in &e.hist {
                let mut cur = head;
                while cur != NIL {
                    let next = e.links[cur as usize].hist;
                    assert!(next == NIL || next < cur);
                    cur = next;
                }
            }
        }
        assert!(doublings >= 3, "{doublings} doublings");
    }

    #[test]
    fn every_edge_adds_to_the_key() {
        // The finaliser maps 0 to 0; only the last possible id may have
        // that share, never edge 0.
        assert_ne!(edge_key(EdgeId(0)), 0);
        assert_eq!(edge_key(EdgeId(u32::MAX)), 0);
        assert_ne!(edge_set_key(&[EdgeId(0)]), edge_set_key(&[]));
    }

    /// A queued pair named by `i`.
    fn pair(i: u32) -> Pair {
        Pair {
            edge: EdgeId(i),
            node: NodeId(i),
            membership: SeedMask::EMPTY,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run queue pops in the order of a max-heap on
        /// `(key, -insertion seq)`, under any interleaving of pushes and
        /// pops, with keys that may change within one tree's pairs.
        #[test]
        fn run_queue_pops_in_heap_order(
            ops in collection::vec((0u8..3, collection::vec(-2i64..3, 0..6)), 0..60)
        ) {
            let mut q = Queues::new(QueuePolicy::Single);
            let mut heap = BinaryHeap::new();
            let mut seq = 0u32;
            for (tree, (op, keys)) in (0u32..).zip(ops) {
                if op == 0 {
                    let want = heap.pop().map(|(_, Reverse(s), t)| (TreeId(t), pair(s)));
                    prop_assert_eq!(q.pop(), want);
                } else {
                    let (n, mut pairs) = (keys.len(), Vec::new());
                    for k in keys {
                        heap.push((k, Reverse(seq), tree));
                        pairs.push((k, pair(seq)));
                        seq += 1;
                    }
                    let queued = q.push_tree(SeedMask::EMPTY, TreeId(tree), pairs);
                    prop_assert_eq!(queued, n as u64);
                }
                prop_assert_eq!(q.single.len, heap.len());
            }
            while let Some((_, Reverse(s), t)) = heap.pop() {
                prop_assert_eq!(q.pop(), Some((TreeId(t), pair(s))));
            }
            prop_assert!(q.pop().is_none());
        }
    }

    #[test]
    fn balanced_pick_counts_pairs_not_runs() {
        let mut q = Queues::new(QueuePolicy::Balanced);
        let (a, b) = (SeedMask::single(0), SeedMask::single(1));
        // Mask a holds one run of three pairs, mask b two runs of one.
        assert_eq!(q.push_tree(a, TreeId(0), (0..3).map(|i| (0, pair(i)))), 3);
        assert_eq!(q.push_tree(b, TreeId(1), [(0, pair(3))]), 1);
        assert_eq!(q.push_tree(b, TreeId(2), [(0, pair(4))]), 1);
        assert_eq!(q.per[&a].by_key[&0].len(), 1);
        assert_eq!(q.per[&b].by_key[&0].len(), 2);
        // b has more runs but fewer pairs, so it is picked until it is
        // empty.
        assert_eq!(q.pop(), Some((TreeId(1), pair(3))));
        assert_eq!(q.pop(), Some((TreeId(2), pair(4))));
        for i in 0..3 {
            assert_eq!(q.pop(), Some((TreeId(0), pair(i))));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn seed_signatures_exist_only_where_lesp_can_spare() {
        let g = figure1();
        let (bob, alice, elon) = (NodeId(1), NodeId(2), NodeId(8));
        let cases = [
            (vec![SeedSpec::one(bob), SeedSpec::one(alice)], false),
            (
                vec![SeedSpec::one(bob), SeedSpec::one(alice), SeedSpec::All],
                false,
            ),
            (
                vec![
                    SeedSpec::one(bob),
                    SeedSpec::one(alice),
                    SeedSpec::one(elon),
                ],
                true,
            ),
        ];
        for (specs, three_explicit) in cases {
            let seeds = SeedSets::new(specs).unwrap();
            for cfg in [
                GamConfig::GAM,
                GamConfig::ESP,
                GamConfig::MOESP,
                GamConfig::LESP,
                GamConfig::MOLESP,
            ] {
                let keeps = cfg.lesp && three_explicit;
                let mut e = GamEngine::new(
                    &g,
                    &seeds,
                    cfg,
                    Filters::none().with_max_edges(4),
                    QueueOrder::SmallestFirst,
                    QueuePolicy::Single,
                );
                assert_eq!(e.ss.len(), if keeps { g.node_count() } else { 0 });
                e.begin(Instant::now());
                while e.step() {}
                assert!(e.stats.provenances > 0);
                assert_eq!(
                    e.ss.len(),
                    if keeps { g.node_count() } else { 0 },
                    "{cfg:?} three explicit: {three_explicit}"
                );
            }
        }
    }

    #[test]
    fn pools_hold_exactly_the_stored_trees() {
        // Complete searches that prune candidates and inject Mo copies:
        // a pruned candidate leaves nothing in the pools, and a Mo copy
        // adds nothing to them.
        let g = figure1();
        let fig1 = vec![
            vec![NodeId(1), NodeId(3)],
            vec![NodeId(2), NodeId(5)],
            vec![NodeId(8)],
        ];
        let st = star(4, 2);
        let cases = [(&g, fig1), (&st.graph, st.seeds.clone())];
        for (g, sets) in cases {
            let seeds = SeedSets::from_sets(sets).unwrap();
            let traced = GamEngine::new(
                g,
                &seeds,
                GamConfig::MOLESP,
                Filters::none(),
                QueueOrder::SmallestFirst,
                QueuePolicy::Single,
            )
            .run_traced();
            let stats = &traced.outcome.stats;
            assert!(stats.pruned > 0 && stats.mo_copies > 0, "{stats}");
            let store = &traced.store;
            let (mut edges, mut nodes) = (0, 0);
            for i in 0..store.len() {
                let t = TreeId(i as u32);
                match store.get(t).provenance {
                    Provenance::Mo(parent, _) => {
                        assert_eq!(store.edges(t), store.edges(parent));
                        assert_eq!(store.nodes(t), store.nodes(parent));
                    }
                    _ => {
                        edges += store.get(t).size();
                        nodes += store.get(t).size() + 1;
                    }
                }
            }
            assert_eq!(store.pool_lens(), (edges, nodes), "{stats}");
        }
    }

    #[test]
    fn pre_raised_cancel_stops_sequential_search() {
        let w = chain(10);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let flag = crate::CancelFlag::new();
        flag.cancel();
        let out = run_gam_family(
            &w.graph,
            &seeds,
            GamConfig::GAM,
            Filters::none().with_cancel(flag),
            QueueOrder::SmallestFirst,
        );
        assert!(out.stats.cancelled);
        assert!(!out.stats.timed_out, "cancellation is not a timeout");
        // A full chain(10) run yields 1024 results; a cancel observed on
        // the first 64-tick check leaves the search far from complete.
        assert!(out.results.len() < 1024);
    }

    #[test]
    fn uni_filter_directional() {
        // a -> x -> b : unidirectional tree rooted at a reaches b? No —
        // a reaches b along directed path a->x->b, so the UNI result
        // exists with root a.
        let mut gb = GraphBuilder::new();
        let a = gb.add_node("a");
        let x = gb.add_node("x");
        let bb = gb.add_node("b");
        gb.add_edge(a, "r", x);
        gb.add_edge(x, "r", bb);
        let g = gb.freeze();
        let seeds = SeedSets::from_sets(vec![vec![a], vec![bb]]).unwrap();
        let out = run_gam_family(
            &g,
            &seeds,
            GamConfig::MOLESP,
            Filters::none().uni(),
            QueueOrder::SmallestFirst,
        );
        assert_eq!(out.results.len(), 1);

        // b -> x <- a has no root reaching both a and b: a reaches x
        // but not b; there is no common ancestor. Actually a -> x and
        // b -> x: the UNI tree must be rooted at a node with directed
        // paths to both seeds; no such node exists.
        let mut gb = GraphBuilder::new();
        let a = gb.add_node("a");
        let x = gb.add_node("x");
        let bb = gb.add_node("b");
        gb.add_edge(a, "r", x);
        gb.add_edge(bb, "r", x);
        let g = gb.freeze();
        let seeds = SeedSets::from_sets(vec![vec![a], vec![bb]]).unwrap();
        let out = run_gam_family(
            &g,
            &seeds,
            GamConfig::MOLESP,
            Filters::none().uni(),
            QueueOrder::SmallestFirst,
        );
        assert_eq!(out.results.len(), 0, "no dominating root exists");
        // Without UNI the connection is found.
        let out = run_gam_family(
            &g,
            &seeds,
            GamConfig::MOLESP,
            Filters::none(),
            QueueOrder::SmallestFirst,
        );
        assert_eq!(out.results.len(), 1);
    }

    #[test]
    fn single_node_result_when_seed_in_all_sets() {
        let g = figure1();
        let alice = NodeId(2);
        let seeds =
            SeedSets::from_sets(vec![vec![alice, NodeId(1)], vec![alice, NodeId(3)]]).unwrap();
        let out = run_gam_family(
            &g,
            &seeds,
            GamConfig::MOLESP,
            Filters::none(),
            QueueOrder::SmallestFirst,
        );
        assert!(
            out.results.trees().iter().any(|t| t.edges.is_empty()),
            "Alice alone satisfies both sets"
        );
    }

    #[test]
    fn results_identical_across_orders_for_molesp() {
        // MoLESP's completeness is order-independent (m = 3).
        let w = star(3, 2);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let mut canons = Vec::new();
        for order in [
            QueueOrder::SmallestFirst,
            QueueOrder::LargestFirst,
            QueueOrder::Fifo,
        ] {
            let out = run_gam_family(&w.graph, &seeds, GamConfig::MOLESP, Filters::none(), order);
            canons.push(out.results.canonical());
        }
        assert_eq!(canons[0], canons[1]);
        assert_eq!(canons[1], canons[2]);
    }

    #[test]
    fn balanced_queue_policy_finds_results() {
        let w = line(3, 3);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let out = GamEngine::new(
            &w.graph,
            &seeds,
            GamConfig::MOLESP,
            Filters::none(),
            QueueOrder::SmallestFirst,
            QueuePolicy::Balanced,
        )
        .run();
        assert_eq!(out.results.len(), 1);
    }

    use cs_graph::NodeId;
}
