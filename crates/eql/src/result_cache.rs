//! Cross-query CTP **result caching** with subsumption: cache the
//! *results* of a connection search keyed by a canonical
//! [`CtpSignature`], so a repetitive query stream (the production shape
//! `csqd` serves) skips the graph search entirely.
//!
//! Two ways a probe is answered with zero graph work:
//!
//! * **Exact hit** — the probe's signature (graph identity, algorithm,
//!   `UNI`/`LABEL`/`MAX`/`LIMIT` bounds, normalised per-position seed
//!   fingerprints) equals a cached entry's: the stored trees are
//!   replayed as-is, in canonical order.
//! * **Subsumption hit** — a cached entry *dominates* the probe: same
//!   seed sets (or supersets whose surplus seeds provably cannot
//!   interfere, see below), no `LIMIT` on the entry, and entry bounds
//!   at least as loose (`MAX` ≥, `LABEL` ⊇). The answer is the entry's
//!   trees filtered by the probe's per-tree constraints
//!   (seed-membership, size, labels), which preserves the canonical
//!   order.
//!
//! ## Why seed-superset subsumption is restricted
//!
//! A CTP result (paper Def. 2.8) contains **exactly one node from each
//! explicit seed set** — so shrinking a seed set does not shrink the
//! result set, it *changes* it: nodes removed from the set are freed to
//! appear as internal tree nodes, producing results the superset
//! search excluded. Concretely, with the path `a – x – b` and sets
//! `S₁ = {a, x}`, `S₂ = {b}`, the probe `S₁′ = {a}` has the result
//! `a–x–b`, which the cached superset search rejected (two `S₁`
//! nodes). Filtering a superset entry is therefore *sound but
//! incomplete* in general. The cache serves a dominated probe only
//! when every surplus seed (in the entry's set but not the probe's)
//! has graph degree ≤ 1 and belongs to no probe seed set — such a node
//! can never be an internal node or a leaf of any probe result, so
//! filtering is provably exact. Equal seed sets (the common case for
//! repeated and bound-dominated queries) trivially satisfy this.
//!
//! Entries whose configuration is not complete for their `m`
//! ([`Algorithm::complete_for`]), whose search was capped by `LIMIT`,
//! or that contain an `N` (`All`) seed position — all cases where the
//! stored result set is interleaving- or engine-dependent — are served
//! as **exact-signature hits only**, never by subsumption.
//!
//! ## Live graphs
//!
//! Entries are keyed by a [`GraphToken`] carrying the graph's
//! **mutation generation** ([`cs_graph::Graph::generation`]) alongside
//! its address and node/edge counts. A mutation batch bumps the
//! generation, so every entry inserted before the batch misses
//! wholesale — no stale tree can ever be replayed. The dead entries
//! are garbage, not a hazard; [`ResultCache::purge_stale`] evicts them
//! eagerly (which [`Session::mutate`](crate::Session::mutate) does
//! after every effective batch).

use cs_core::{Algorithm, CtpJob, ResultSet, ResultTree, SearchOutcome, SearchStats, SeedSpec};
use cs_graph::{Graph, NodeId};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default capacity (entries) of a result cache.
pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 64;

/// Best-effort identity of the graph **state** a cached result belongs
/// to: the graph's address, its node/edge counts, and its mutation
/// generation.
///
/// The address plus the counts pin an entry to one loaded graph; the
/// generation pins it to one point in that graph's mutation history,
/// so entries inserted before a [`Graph::apply`](cs_graph::Graph::apply)
/// batch stop matching the moment the batch lands. A
/// [`SharedResultCache`] must only be attached to sessions over the
/// same graph; the token turns an accidental mismatch into misses
/// rather than wrong answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphToken {
    addr: usize,
    nodes: usize,
    edges: usize,
    generation: u64,
}

impl GraphToken {
    /// The token of a loaded graph at its current generation.
    pub fn of(g: &Graph) -> GraphToken {
        GraphToken {
            addr: g as *const Graph as usize,
            nodes: g.node_count(),
            edges: g.edge_count(),
            generation: g.generation(),
        }
    }
}

/// Normalised fingerprint of one seed-set position: the sorted,
/// deduplicated node set, or the `N` (`All`) marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedFingerprint {
    /// An explicit seed set, sorted and deduplicated.
    Set(Vec<NodeId>),
    /// The whole node set `N` (§4.9).
    All,
}

/// The canonical cache key of one CTP search: graph identity,
/// algorithm, the filters that shape the result set, and the
/// normalised seed fingerprints.
///
/// Deliberately *excluded*: timeouts, deadlines, and cancel flags
/// (searches stopped by them are never inserted, and a cached complete
/// result is always a valid answer for a time-budgeted probe) and the
/// exploration order/queue policy (the EQL executor always uses
/// smallest-first, and a complete search's result *set* is
/// order-independent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtpSignature {
    graph: GraphToken,
    algorithm: Algorithm,
    uni: bool,
    labels: Option<Vec<String>>,
    max_edges: Option<usize>,
    max_results: Option<usize>,
    seeds: Vec<SeedFingerprint>,
}

impl CtpSignature {
    /// Builds the signature of a CTP job over `g`, or `None` when the
    /// job is uncacheable (a provenance-budgeted search returns
    /// deliberately truncated, budget-dependent results).
    pub fn of(g: &Graph, job: &CtpJob) -> Option<CtpSignature> {
        if job.filters.max_provenances.is_some() {
            return None;
        }
        let seeds = job
            .seeds
            .specs()
            .iter()
            .map(|s| match s {
                SeedSpec::Set(nodes) => {
                    let mut v = nodes.clone();
                    v.sort_unstable();
                    v.dedup();
                    SeedFingerprint::Set(v)
                }
                SeedSpec::All => SeedFingerprint::All,
            })
            .collect();
        let labels = job.filters.labels.as_ref().map(|ls| {
            let mut ls = ls.clone();
            ls.sort();
            ls.dedup();
            ls
        });
        Some(CtpSignature {
            graph: GraphToken::of(g),
            algorithm: job.algorithm,
            uni: job.filters.uni,
            labels,
            max_edges: job.filters.max_edges,
            max_results: job.filters.max_results,
            seeds,
        })
    }

    /// Number of seed sets.
    pub fn m(&self) -> usize {
        self.seeds.len()
    }

    /// True if any position is the `N` seed set.
    fn has_all(&self) -> bool {
        self.seeds.iter().any(|s| matches!(s, SeedFingerprint::All))
    }

    /// True if this probe may be answered by a dominating entry at all:
    /// its configuration must be complete for its `m` (an incomplete
    /// config's result set is interleaving-dependent — the direct
    /// search must run) and every position must be explicit.
    fn subsumption_eligible(&self) -> bool {
        self.algorithm.complete_for(self.m()) && !self.has_all()
    }

    /// True if `self` (a cached, subsumable entry) dominates `probe`:
    /// filtering `self`'s trees by `probe`'s per-tree constraints
    /// provably reproduces the probe's complete result set.
    fn dominates(&self, probe: &CtpSignature, g: &Graph) -> bool {
        if self.graph != probe.graph || self.uni != probe.uni || self.m() != probe.m() {
            return false;
        }
        // Label domination: the entry searched all labels, or a
        // superset of the probe's.
        match (&self.labels, &probe.labels) {
            (None, _) => {}
            (Some(_), None) => return false,
            (Some(e), Some(p)) => {
                if !p.iter().all(|l| e.binary_search(l).is_ok()) {
                    return false;
                }
            }
        }
        // Size-bound domination.
        match (self.max_edges, probe.max_edges) {
            (None, _) => {}
            (Some(_), None) => return false,
            (Some(e), Some(p)) => {
                if p > e {
                    return false;
                }
            }
        }
        // Seed domination: per position, the probe set is contained in
        // the entry set, and every surplus seed is provably inert
        // (degree ≤ 1 and in no probe set): Def. 2.8's
        // exactly-one-node-per-set constraint makes unrestricted
        // superset filtering incomplete — see the module docs.
        for (es, ps) in self.seeds.iter().zip(&probe.seeds) {
            let (SeedFingerprint::Set(e), SeedFingerprint::Set(p)) = (es, ps) else {
                return false;
            };
            if !is_subset(p, e) {
                return false;
            }
            if p.len() != e.len() {
                let surplus_ok = e.iter().all(|n| {
                    p.binary_search(n).is_ok()
                        || (g.degree(*n) <= 1
                            && probe.seeds.iter().all(|other| match other {
                                SeedFingerprint::Set(o) => o.binary_search(n).is_err(),
                                SeedFingerprint::All => false,
                            }))
                });
                if !surplus_ok {
                    return false;
                }
            }
        }
        true
    }

    /// True if a dominating entry's tree satisfies this probe's
    /// per-tree constraints: its bound seeds lie in the probe's sets,
    /// its size respects `MAX`, and its edges respect `LABEL`.
    fn admits(&self, t: &ResultTree, g: &Graph) -> bool {
        if self.max_edges.is_some_and(|k| t.size() > k) {
            return false;
        }
        for (i, fp) in self.seeds.iter().enumerate() {
            let SeedFingerprint::Set(p) = fp else {
                return false;
            };
            if p.binary_search(&t.seeds[i]).is_err() {
                return false;
            }
        }
        if let Some(labels) = &self.labels {
            if !t.edges.iter().all(|&e| {
                labels
                    .binary_search_by(|l| l.as_str().cmp(g.edge_label(e)))
                    .is_ok()
            }) {
                return false;
            }
        }
        true
    }
}

/// `a ⊆ b` over sorted, deduplicated slices (merge walk).
fn is_subset(a: &[NodeId], b: &[NodeId]) -> bool {
    let mut bi = 0usize;
    for x in a {
        while bi < b.len() && b[bi] < *x {
            bi += 1;
        }
        if bi >= b.len() || b[bi] != *x {
            return false;
        }
        bi += 1;
    }
    true
}

/// One cached search.
struct CacheEntry {
    sig: CtpSignature,
    /// The result trees, canonically sorted
    /// ([`ResultTree::canonical_cmp`]).
    trees: Arc<[ResultTree]>,
    /// Counters of the search that produced the entry (replayed on
    /// hits, so `--stats` attributes the original search cost).
    stats: SearchStats,
    duration: Duration,
    /// May this entry answer dominated probes by filtering?
    subsumable: bool,
}

impl CacheEntry {
    fn replay(&self) -> SearchOutcome {
        SearchOutcome {
            results: ResultSet::from_trees(self.trees.iter().cloned()),
            stats: self.stats.clone(),
            duration: self.duration,
        }
    }
}

/// How a cache probe was answered.
pub enum CacheLookup {
    /// Exact signature hit: the stored outcome, replayed.
    Exact(SearchOutcome),
    /// A dominating entry answered the probe by filtering; the outcome
    /// keeps canonical order, `filtered_out` counts the dropped trees.
    Subsumed {
        /// The filtered outcome.
        outcome: SearchOutcome,
        /// Cached trees the probe's constraints rejected.
        filtered_out: u64,
    },
    /// No usable entry; the search must run.
    Miss,
}

/// Monotonic counters of one result cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Exact-signature hits.
    pub hits: u64,
    /// Probes no entry could answer.
    pub misses: u64,
    /// Probes answered by filtering a dominating entry.
    pub subsumed: u64,
    /// Cached trees rejected while answering subsumption hits.
    pub trees_filtered: u64,
}

/// An LRU cache of CTP search results, keyed by [`CtpSignature`], with
/// a subsumption lookup (see the module docs for the exactness rules).
///
/// The store is a small vector in LRU order — the subsumption lookup
/// scans anyway, and capacities are tens of entries. `capacity == 0`
/// disables the cache (every probe misses, nothing is stored).
pub struct ResultCache {
    entries: Vec<CacheEntry>,
    capacity: usize,
    counters: CacheCounters,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new(DEFAULT_RESULT_CACHE_CAPACITY)
    }
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries (0 disables).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            entries: Vec::new(),
            capacity,
            counters: CacheCounters::default(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cache's monotonic hit/miss counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Evicts every entry whose [`GraphToken`] differs from `current`
    /// — the post-mutation hygiene pass. Correctness never needs this
    /// (a stale token can only miss), but a mutating workload would
    /// otherwise fill the LRU with dead generations. Returns the
    /// number of entries dropped.
    pub fn purge_stale(&mut self, current: GraphToken) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.sig.graph == current);
        before - self.entries.len()
    }

    /// Answers a probe: exact hit, subsumption hit, or miss. Hits
    /// refresh the entry's LRU position.
    pub fn lookup(&mut self, g: &Graph, probe: &CtpSignature) -> CacheLookup {
        if self.capacity == 0 {
            return CacheLookup::Miss;
        }
        if let Some(pos) = self.entries.iter().rposition(|e| e.sig == *probe) {
            self.counters.hits += 1;
            let entry = self.entries.remove(pos);
            let outcome = entry.replay();
            self.entries.push(entry);
            return CacheLookup::Exact(outcome);
        }
        if probe.subsumption_eligible() {
            if let Some(pos) = self
                .entries
                .iter()
                .rposition(|e| e.subsumable && e.sig.dominates(probe, g))
            {
                let entry = &self.entries[pos];
                let mut kept: Vec<ResultTree> = Vec::new();
                let mut filtered_out = 0u64;
                for t in entry.trees.iter() {
                    if probe.admits(t, g) {
                        kept.push(t.clone());
                    } else {
                        filtered_out += 1;
                    }
                }
                // A capped probe is served only when the cap provably
                // never binds — otherwise the uncached search would
                // return a (scheduling-dependent) subset the filter
                // cannot reproduce, so the real search runs.
                if probe.max_results.is_none_or(|k| kept.len() <= k) {
                    self.counters.subsumed += 1;
                    self.counters.trees_filtered += filtered_out;
                    let outcome = SearchOutcome {
                        results: ResultSet::from_trees(kept),
                        stats: self.entries[pos].stats.clone(),
                        duration: self.entries[pos].duration,
                    };
                    let entry = self.entries.remove(pos);
                    self.entries.push(entry);
                    return CacheLookup::Subsumed {
                        outcome,
                        filtered_out,
                    };
                }
            }
        }
        self.counters.misses += 1;
        CacheLookup::Miss
    }

    /// Inserts a finished search under its signature. Incomplete
    /// outcomes (timeout / budget / cancel) are never cached; an
    /// existing entry with the same signature is refreshed instead of
    /// duplicated. The stored trees are canonically sorted.
    pub fn insert(&mut self, sig: CtpSignature, outcome: &SearchOutcome) {
        if self.capacity == 0 || !outcome.complete() {
            return;
        }
        let mut trees: Vec<ResultTree> = outcome.results.trees().to_vec();
        trees.sort_by(ResultTree::canonical_cmp);
        // Subsumable entries must hold the *complete, deterministic*
        // result set of their signature: a complete-config algorithm,
        // no LIMIT cap (a capped subset is scheduling-dependent), and
        // no `N` position (its bindings are roots at discovery time —
        // engine-dependent). Everything else still serves exact hits.
        let subsumable =
            sig.algorithm.complete_for(sig.m()) && sig.max_results.is_none() && !sig.has_all();
        if let Some(pos) = self.entries.iter().position(|e| e.sig == sig) {
            self.entries.remove(pos);
        }
        self.entries.push(CacheEntry {
            sig,
            trees: trees.into(),
            stats: outcome.stats.clone(),
            duration: outcome.duration,
            subsumable,
        });
        while self.entries.len() > self.capacity {
            self.entries.remove(0);
        }
    }
}

/// A result cache shared across sessions (and threads): the handle
/// `csqd` clones into every connection's [`ExecOptions`](crate::ExecOptions),
/// so all tenants of one served graph reuse each other's searches.
///
/// All sessions sharing the handle must query the **same graph**; the
/// per-entry [`GraphToken`] demotes an accidental mismatch to misses.
#[derive(Clone, Default)]
pub struct SharedResultCache(Arc<Mutex<ResultCache>>);

impl SharedResultCache {
    /// A shared cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> SharedResultCache {
        SharedResultCache(Arc::new(Mutex::new(ResultCache::new(capacity))))
    }

    /// Runs `f` with the cache locked. A poisoned lock is recovered:
    /// the cache holds only derived data, so the worst a panicking
    /// holder can leave behind is a stale LRU order.
    pub fn with<R>(&self, f: impl FnOnce(&mut ResultCache) -> R) -> R {
        let mut guard = match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    /// The shared cache's monotonic counters.
    pub fn counters(&self) -> CacheCounters {
        self.with(|c| c.counters())
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.with(|c| c.len())
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for SharedResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (len, counters) = self.with(|c| (c.len(), c.counters()));
        f.debug_struct("SharedResultCache")
            .field("len", &len)
            .field("counters", &counters)
            .finish()
    }
}

/// Where a session's CTP result cache lives.
#[derive(Clone, Default)]
pub enum ResultCacheMode {
    /// No result caching: every CTP dispatch searches the graph.
    Off,
    /// A private per-session cache of
    /// [`ExecOptions::result_cache_capacity`](crate::ExecOptions::result_cache_capacity)
    /// entries (the default).
    #[default]
    On,
    /// A [`SharedResultCache`] handle — one cache across many sessions
    /// over the same graph (the `csqd` connection-sharing mode).
    Shared(SharedResultCache),
}

impl std::fmt::Debug for ResultCacheMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResultCacheMode::Off => write!(f, "Off"),
            ResultCacheMode::On => write!(f, "On"),
            ResultCacheMode::Shared(_) => write!(f, "Shared(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_core::{Filters, QueueOrder, QueuePolicy, SeedSets};
    use cs_graph::GraphBuilder;

    fn job(seeds: Vec<Vec<NodeId>>, algorithm: Algorithm, filters: Filters) -> CtpJob {
        CtpJob {
            seeds: SeedSets::from_sets(seeds).unwrap(),
            algorithm,
            filters,
            order: QueueOrder::SmallestFirst,
            policy: QueuePolicy::Single,
        }
    }

    /// `a – x – b`, plus a pendant node `p` hanging off `b`.
    fn path_with_pendant() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        let x = b.add_node("x");
        let bb = b.add_node("b");
        let p = b.add_node("p");
        b.add_edge(a, "r", x);
        b.add_edge(x, "r", bb);
        b.add_edge(bb, "r", p);
        (b.freeze(), vec![a, x, bb, p])
    }

    #[test]
    fn exact_hit_replays_identical_trees() {
        let (g, ns) = path_with_pendant();
        let j = job(
            vec![vec![ns[0]], vec![ns[2]]],
            Algorithm::MoLesp,
            Filters::none(),
        );
        let out = j.run(&g);
        let sig = CtpSignature::of(&g, &j).unwrap();
        let mut cache = ResultCache::new(8);
        assert!(matches!(cache.lookup(&g, &sig), CacheLookup::Miss));
        cache.insert(sig.clone(), &out);
        let CacheLookup::Exact(replayed) = cache.lookup(&g, &sig) else {
            panic!("expected an exact hit");
        };
        assert_eq!(replayed.results.canonical(), out.results.canonical());
        assert_eq!(cache.counters().hits, 1);
        assert_eq!(cache.counters().misses, 1);
    }

    #[test]
    fn bound_dominated_probe_is_subsumed_exactly() {
        let (g, ns) = path_with_pendant();
        let wide = job(
            vec![vec![ns[0]], vec![ns[2]]],
            Algorithm::MoLesp,
            Filters::none(),
        );
        let narrow = job(
            vec![vec![ns[0]], vec![ns[2]]],
            Algorithm::MoLesp,
            Filters::none().with_max_edges(2),
        );
        let mut cache = ResultCache::new(8);
        cache.insert(CtpSignature::of(&g, &wide).unwrap(), &wide.run(&g));
        let probe = CtpSignature::of(&g, &narrow).unwrap();
        let CacheLookup::Subsumed { outcome, .. } = cache.lookup(&g, &probe) else {
            panic!("expected a subsumption hit");
        };
        let direct = narrow.run(&g);
        assert_eq!(outcome.results.canonical(), direct.results.canonical());
        assert_eq!(cache.counters().subsumed, 1);
    }

    /// The Def. 2.8 counterexample from the module docs: filtering a
    /// seed-superset entry would *miss* `a–x–b` (the superset search
    /// rejected it: two `S₁` nodes), and `x` has degree 2, so the
    /// cache must refuse to subsume and run the direct search.
    #[test]
    fn interfering_seed_superset_is_not_subsumed() {
        let (g, ns) = path_with_pendant();
        let (a, x, b) = (ns[0], ns[1], ns[2]);
        let sup = job(
            vec![vec![a, x], vec![b]],
            Algorithm::MoLesp,
            Filters::none(),
        );
        let sub = job(vec![vec![a], vec![b]], Algorithm::MoLesp, Filters::none());
        let sup_out = sup.run(&g);
        // The superset search indeed lacks a–x–b…
        assert!(sup_out.results.trees().iter().all(|t| t.size() < 2));
        let mut cache = ResultCache::new(8);
        cache.insert(CtpSignature::of(&g, &sup).unwrap(), &sup_out);
        // …so the dominated probe must MISS (x interferes: degree 2).
        assert!(matches!(
            cache.lookup(&g, &CtpSignature::of(&g, &sub).unwrap()),
            CacheLookup::Miss
        ));
        // And the direct search finds the 2-edge connection.
        assert!(sub.run(&g).results.trees().iter().any(|t| t.size() == 2));
    }

    /// A surplus seed of degree ≤ 1 outside every probe set cannot
    /// appear in any probe result, so the superset entry answers
    /// exactly.
    #[test]
    fn inert_seed_superset_is_subsumed_exactly() {
        let (g, ns) = path_with_pendant();
        let (a, b, p) = (ns[0], ns[2], ns[3]);
        // p is pendant (degree 1): {a, p} ⊇ {a} is inert surplus.
        let sup = job(
            vec![vec![a, p], vec![b]],
            Algorithm::MoLesp,
            Filters::none(),
        );
        let sub = job(vec![vec![a], vec![b]], Algorithm::MoLesp, Filters::none());
        let mut cache = ResultCache::new(8);
        cache.insert(CtpSignature::of(&g, &sup).unwrap(), &sup.run(&g));
        let CacheLookup::Subsumed { outcome, .. } =
            cache.lookup(&g, &CtpSignature::of(&g, &sub).unwrap())
        else {
            panic!("expected a subsumption hit (pendant surplus is inert)");
        };
        assert_eq!(outcome.results.canonical(), sub.run(&g).results.canonical());
    }

    #[test]
    fn incomplete_config_entry_serves_exact_hits_only() {
        let (g, ns) = path_with_pendant();
        // MoESP with m = 3 is an incomplete configuration.
        let e = job(
            vec![vec![ns[0]], vec![ns[2]], vec![ns[3]]],
            Algorithm::MoEsp,
            Filters::none(),
        );
        let out = e.run(&g);
        let sig = CtpSignature::of(&g, &e).unwrap();
        let mut cache = ResultCache::new(8);
        cache.insert(sig.clone(), &out);
        assert!(matches!(cache.lookup(&g, &sig), CacheLookup::Exact(_)));
        // A bound-dominated probe of the same incomplete config misses.
        let probe_job = job(
            vec![vec![ns[0]], vec![ns[2]], vec![ns[3]]],
            Algorithm::MoEsp,
            Filters::none().with_max_edges(2),
        );
        let probe = CtpSignature::of(&g, &probe_job).unwrap();
        assert!(matches!(cache.lookup(&g, &probe), CacheLookup::Miss));
    }

    #[test]
    fn capped_probe_falls_through_when_cap_would_bind() {
        let (g, ns) = path_with_pendant();
        let wide = job(
            vec![vec![ns[0]], vec![ns[3]]],
            Algorithm::MoLesp,
            Filters::none(),
        );
        let out = wide.run(&g);
        let found = out.results.len();
        assert!(found >= 1);
        let mut cache = ResultCache::new(8);
        cache.insert(CtpSignature::of(&g, &wide).unwrap(), &out);
        // Cap below the filtered count: the cache must not serve a
        // "first k" subset the real search might not return.
        if found > 1 {
            let tight = job(
                vec![vec![ns[0]], vec![ns[3]]],
                Algorithm::MoLesp,
                Filters::none().with_max_results(1),
            );
            assert!(matches!(
                cache.lookup(&g, &CtpSignature::of(&g, &tight).unwrap()),
                CacheLookup::Miss
            ));
        }
        // Cap at/above the count can never bind: served by filtering.
        let loose = job(
            vec![vec![ns[0]], vec![ns[3]]],
            Algorithm::MoLesp,
            Filters::none().with_max_results(found),
        );
        assert!(matches!(
            cache.lookup(&g, &CtpSignature::of(&g, &loose).unwrap()),
            CacheLookup::Subsumed { .. }
        ));
    }

    #[test]
    fn incomplete_outcomes_and_budgeted_jobs_are_not_cached() {
        let (g, ns) = path_with_pendant();
        let j = job(
            vec![vec![ns[0]], vec![ns[2]]],
            Algorithm::MoLesp,
            Filters::none(),
        );
        let mut out = j.run(&g);
        out.stats.timed_out = true;
        let mut cache = ResultCache::new(8);
        cache.insert(CtpSignature::of(&g, &j).unwrap(), &out);
        assert!(cache.is_empty(), "incomplete outcomes must not be cached");
        let budgeted = job(
            vec![vec![ns[0]], vec![ns[2]]],
            Algorithm::MoLesp,
            Filters::none().with_max_provenances(10),
        );
        assert!(CtpSignature::of(&g, &budgeted).is_none());
    }

    #[test]
    fn lru_evicts_oldest_and_capacity_zero_disables() {
        let (g, ns) = path_with_pendant();
        let mk = |max: usize| {
            job(
                vec![vec![ns[0]], vec![ns[2]]],
                Algorithm::MoLesp,
                Filters::none().with_max_edges(max),
            )
        };
        let mut cache = ResultCache::new(2);
        for max in [2usize, 3, 4] {
            let j = mk(max);
            cache.insert(CtpSignature::of(&g, &j).unwrap(), &j.run(&g));
        }
        assert_eq!(cache.len(), 2);
        // The max=2 entry was evicted; max=4 and max=3 remain.
        assert!(matches!(
            cache.lookup(&g, &CtpSignature::of(&g, &mk(4)).unwrap()),
            CacheLookup::Exact(_)
        ));
        let mut disabled = ResultCache::new(0);
        let j = mk(2);
        disabled.insert(CtpSignature::of(&g, &j).unwrap(), &j.run(&g));
        assert!(disabled.is_empty());
        assert!(matches!(
            disabled.lookup(&g, &CtpSignature::of(&g, &j).unwrap()),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn label_dominated_probe_filters_by_edge_label() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        let u = b.add_node("u");
        b.add_edge(s, "good", t);
        b.add_edge(s, "bad", u);
        b.add_edge(u, "bad", t);
        let g = b.freeze();
        let wide = job(vec![vec![s], vec![t]], Algorithm::MoLesp, Filters::none());
        let narrow = job(
            vec![vec![s], vec![t]],
            Algorithm::MoLesp,
            Filters::none().with_labels(["good"]),
        );
        let mut cache = ResultCache::new(8);
        cache.insert(CtpSignature::of(&g, &wide).unwrap(), &wide.run(&g));
        let CacheLookup::Subsumed {
            outcome,
            filtered_out,
        } = cache.lookup(&g, &CtpSignature::of(&g, &narrow).unwrap())
        else {
            panic!("expected a subsumption hit");
        };
        assert!(filtered_out >= 1, "the bad-labelled tree is filtered");
        assert_eq!(
            outcome.results.canonical(),
            narrow.run(&g).results.canonical()
        );
    }

    #[test]
    fn shared_cache_is_cloneable_and_poison_safe() {
        let shared = SharedResultCache::new(4);
        let clone = shared.clone();
        let (g, ns) = path_with_pendant();
        let j = job(
            vec![vec![ns[0]], vec![ns[2]]],
            Algorithm::MoLesp,
            Filters::none(),
        );
        let sig = CtpSignature::of(&g, &j).unwrap();
        shared.with(|c| c.insert(sig.clone(), &j.run(&g)));
        assert_eq!(clone.len(), 1);
        assert!(clone.with(|c| matches!(c.lookup(&g, &sig), CacheLookup::Exact(_))));
        assert_eq!(clone.counters().hits, 1);
        assert!(format!("{shared:?}").contains("len"));
        assert!(format!("{:?}", ResultCacheMode::Shared(shared)).contains("Shared"));
    }

    /// A mutation bumps the graph's generation, so every pre-batch
    /// entry stops matching — and `purge_stale` evicts the corpses.
    #[test]
    fn mutation_invalidates_by_generation() {
        let (mut g, ns) = path_with_pendant();
        let j = job(
            vec![vec![ns[0]], vec![ns[2]]],
            Algorithm::MoLesp,
            Filters::none(),
        );
        let mut cache = ResultCache::new(8);
        cache.insert(CtpSignature::of(&g, &j).unwrap(), &j.run(&g));
        assert!(matches!(
            cache.lookup(&g, &CtpSignature::of(&g, &j).unwrap()),
            CacheLookup::Exact(_)
        ));
        g.insert_edge(ns[0], "r", ns[3]);
        // Same address, new generation: the old entry misses wholesale
        // (exact *and* subsumption paths are both token-gated).
        assert!(matches!(
            cache.lookup(&g, &CtpSignature::of(&g, &j).unwrap()),
            CacheLookup::Miss
        ));
        assert_eq!(cache.purge_stale(GraphToken::of(&g)), 1);
        assert!(cache.is_empty());
        // Post-mutation entries serve the live overlay's results.
        let out = j.run(&g);
        cache.insert(CtpSignature::of(&g, &j).unwrap(), &out);
        let CacheLookup::Exact(replayed) = cache.lookup(&g, &CtpSignature::of(&g, &j).unwrap())
        else {
            panic!("expected an exact hit on the new generation");
        };
        assert_eq!(replayed.results.canonical(), out.results.canonical());
        assert_eq!(cache.purge_stale(GraphToken::of(&g)), 0);
    }

    #[test]
    fn graph_token_separates_graphs() {
        let (g1, ns) = path_with_pendant();
        let (g2, _) = path_with_pendant();
        let j = job(
            vec![vec![ns[0]], vec![ns[2]]],
            Algorithm::MoLesp,
            Filters::none(),
        );
        let mut cache = ResultCache::new(8);
        cache.insert(CtpSignature::of(&g1, &j).unwrap(), &j.run(&g1));
        assert!(matches!(
            cache.lookup(&g2, &CtpSignature::of(&g2, &j).unwrap()),
            CacheLookup::Miss
        ));
    }
}
