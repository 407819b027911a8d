//! Cross-query CTP **result caching**: cache the *results* of a
//! connection search keyed by a canonical `CtpSignature`, so a
//! repetitive query stream (the production shape `csqd` serves) skips
//! the graph search entirely.
//!
//! A probe is answered only by an **exact hit**: its signature (graph
//! identity, algorithm, `UNI`/`LABEL`/`MAX`/`LIMIT` bounds, normalised
//! per-position seed fingerprints) equals a cached entry's, and the
//! stored trees are replayed as-is, in canonical order. Any other probe
//! misses and runs the search.
//!
//! ## Live graphs
//!
//! Entries are keyed by a `GraphToken` carrying the graph's
//! **mutation generation** ([`cs_graph::Graph::generation`]) alongside
//! its address and node/edge counts. A mutation batch bumps the
//! generation, so every entry inserted before the batch misses
//! wholesale — no stale tree can ever be replayed. The dead entries
//! are garbage, not a hazard; `ResultCache::purge_stale` evicts them
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
pub(crate) struct GraphToken {
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
pub(crate) enum SeedFingerprint {
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
pub(crate) struct CtpSignature {
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

/// Monotonic counters of one result cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Exact-signature hits.
    pub hits: u64,
    /// Probes no entry could answer.
    pub misses: u64,
}

/// An LRU cache of CTP search results, keyed by [`CtpSignature`].
///
/// The store is a small vector in LRU order: capacities are tens of
/// entries, so a linear scan is as fast as a hash probe.
pub(crate) struct ResultCache {
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
    /// An empty cache holding at most `capacity` entries.
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

    /// The cache's monotonic hit/miss counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
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

    /// Answers a probe: the stored outcome of an entry with an equal
    /// signature, or `None` on a miss. A hit refreshes the entry's LRU
    /// position.
    pub fn lookup(&mut self, probe: &CtpSignature) -> Option<SearchOutcome> {
        let Some(pos) = self.entries.iter().rposition(|e| e.sig == *probe) else {
            self.counters.misses += 1;
            return None;
        };
        self.counters.hits += 1;
        let entry = self.entries.remove(pos);
        let outcome = entry.replay();
        self.entries.push(entry);
        Some(outcome)
    }

    /// Inserts a finished search under its signature. Incomplete
    /// outcomes (timeout / budget / cancel) are never cached; an
    /// existing entry with the same signature is refreshed instead of
    /// duplicated. The stored trees are canonically sorted.
    pub fn insert(&mut self, sig: CtpSignature, outcome: &SearchOutcome) {
        if !outcome.complete() {
            return;
        }
        let mut trees: Vec<ResultTree> = outcome.results.trees().to_vec();
        trees.sort_by(ResultTree::canonical_cmp);
        if let Some(pos) = self.entries.iter().position(|e| e.sig == sig) {
            self.entries.remove(pos);
        }
        self.entries.push(CacheEntry {
            sig,
            trees: trees.into(),
            stats: outcome.stats.clone(),
            duration: outcome.duration,
        });
        while self.entries.len() > self.capacity {
            self.entries.remove(0);
        }
    }
}

/// A result cache that sessions (and threads) can share. Every session
/// holds its cache through this handle: a [`ResultCacheMode::On`]
/// session gets a fresh one, and `csqd` clones one server-wide handle
/// into every connection's [`ExecOptions`](crate::ExecOptions), so all
/// tenants of one served graph reuse each other's searches.
///
/// All sessions sharing the handle must query the **same graph**; the
/// per-entry `GraphToken` demotes an accidental mismatch to misses.
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
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut ResultCache) -> R) -> R {
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
    /// A private cache of [`DEFAULT_RESULT_CACHE_CAPACITY`] entries,
    /// created fresh for each session built from these options (the
    /// default).
    #[default]
    On,
    /// A [`SharedResultCache`] handle — one cache across many sessions
    /// over the same graph (the `csqd` connection-sharing mode), or a
    /// private cache of another capacity.
    Shared(SharedResultCache),
}

impl ResultCacheMode {
    /// The cache handle a new session holds: `None` when caching is
    /// off.
    pub(crate) fn handle(&self) -> Option<SharedResultCache> {
        match self {
            ResultCacheMode::Off => None,
            ResultCacheMode::On => Some(SharedResultCache::default()),
            ResultCacheMode::Shared(h) => Some(h.clone()),
        }
    }
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
        assert!(cache.lookup(&sig).is_none());
        cache.insert(sig.clone(), &out);
        let Some(replayed) = cache.lookup(&sig) else {
            panic!("expected an exact hit");
        };
        assert_eq!(replayed.results.canonical(), out.results.canonical());
        assert_eq!(cache.counters().hits, 1);
        assert_eq!(cache.counters().misses, 1);
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
        assert!(cache.lookup(&sig).is_some());
        // A probe of the same config with a tighter MAX misses.
        let probe_job = job(
            vec![vec![ns[0]], vec![ns[2]], vec![ns[3]]],
            Algorithm::MoEsp,
            Filters::none().with_max_edges(2),
        );
        let probe = CtpSignature::of(&g, &probe_job).unwrap();
        assert!(cache.lookup(&probe).is_none());
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
        assert_eq!(cache.len(), 0, "incomplete outcomes must not be cached");
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
        assert!(cache
            .lookup(&CtpSignature::of(&g, &mk(4)).unwrap())
            .is_some());
        // A zero-capacity cache evicts every entry it is given.
        let mut disabled = ResultCache::new(0);
        let j = mk(2);
        disabled.insert(CtpSignature::of(&g, &j).unwrap(), &j.run(&g));
        assert_eq!(disabled.len(), 0);
        assert!(disabled
            .lookup(&CtpSignature::of(&g, &j).unwrap())
            .is_none());
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
        assert!(clone.with(|c| c.lookup(&sig).is_some()));
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
        assert!(cache.lookup(&CtpSignature::of(&g, &j).unwrap()).is_some());
        g.insert_edge(ns[0], "r", ns[3]);
        // Same address, new generation: the old entry misses wholesale.
        assert!(cache.lookup(&CtpSignature::of(&g, &j).unwrap()).is_none());
        assert_eq!(cache.purge_stale(GraphToken::of(&g)), 1);
        assert_eq!(cache.len(), 0);
        // Post-mutation entries serve the live overlay's results.
        let out = j.run(&g);
        cache.insert(CtpSignature::of(&g, &j).unwrap(), &out);
        let Some(replayed) = cache.lookup(&CtpSignature::of(&g, &j).unwrap()) else {
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
        assert!(cache.lookup(&CtpSignature::of(&g2, &j).unwrap()).is_none());
    }
}
