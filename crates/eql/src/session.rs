//! The session-based execution API: prepare once, execute many,
//! batch across queries, stream results.
//!
//! The free functions of [`crate::exec`] parse, plan, and execute from
//! scratch on every call, so nothing survives between queries. A
//! [`Session`] is the stateful counterpart: it owns the graph
//! reference, the [`ExecOptions`], and an LRU [`cs_engine::PlanCache`]
//! keyed by BGP *shape* (labels/types with variable names
//! canonicalised), so structurally identical BGPs across a query
//! stream reuse plans — the paper's Fig. 13 per-label plan-cache idea
//! generalised to whole patterns.
//!
//! Every query runs through one pipeline: stage it (step A, then its
//! CTP jobs), dispatch the jobs of every staged query in one round
//! through the result cache, then finish each query on its own (step
//! B's classification, materialisation and ASK deepening, then the
//! step C join). A round runs its jobs one after another on the
//! calling thread. [`Session::execute`] is that pipeline over one
//! query, and on top of it the session offers two scale levers:
//!
//! * [`Session::execute_batch`] runs the pipeline over *many* queries,
//!   so their CTP jobs share one dispatch round and a batch repeating
//!   a CTP pays for its search once;
//! * [`Session::execute_streaming`] stages one query the same way but
//!   hands its CTP job to a pull-based [`ResultStream`] that advances
//!   the search only as far as the results the caller consumes
//!   (TOP-k-style early termination).
//!
//! ```
//! use cs_eql::Session;
//! use cs_graph::figure1;
//!
//! let g = figure1();
//! let session = Session::new(&g);
//! let prepared = session
//!     .prepare(r#"SELECT x, w WHERE {
//!         (x : type = "entrepreneur", "citizenOf", "USA")
//!         CONNECT(x, "France" -> w) MAX 3
//!     }"#)
//!     .unwrap();
//! // Execute the prepared query as often as you like — parsing,
//! // validation, and component grouping happened once.
//! let first = session.execute(&prepared).unwrap();
//! let again = session.execute(&prepared).unwrap();
//! assert_eq!(first.rows(), again.rows());
//! // The second execution reused the cached plan.
//! assert!(again.stats.plan_cache_hits > 0);
//! ```

use crate::ast::{QueryAst, QueryForm};
use crate::exec::{
    ask_truncated, build_ctp_jobs, enforce_exclusions, grow_ask_limits, materialise_ctps,
    query_bgps, CtpMaterialisation, EqlError, ExecOptions, ExecStats, QueryControl, QueryResult,
};
use crate::parser::parse;
use crate::result_cache::{
    CacheCounters, CacheLookup, CtpSignature, GraphToken, ResultCache, ResultCacheMode,
    SharedResultCache,
};
use cs_core::{stream_ctp, Algorithm, CtpJob, CtpStream, ResultTree, SearchOutcome, SearchStats};
use cs_engine::{eval_bgp_with_plan, join_all, Bgp, PlanCache, Table};
use cs_graph::{Applied, Graph, Mutation, NodeId};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Capacity of each session's BGP plan cache (plans keyed by pattern
/// shape, the Fig. 13 per-label plan-cache idea).
const PLAN_CACHE_CAPACITY: usize = 128;

/// A stateful query-execution context over one graph.
///
/// Sessions are cheap to create but meant to be held: the plan cache
/// only pays off across queries. A session is single-threaded by
/// design (`!Sync` — the plan cache sits behind a [`RefCell`]), and
/// every CTP search of a query or batch runs on the calling thread.
/// Use one session per thread.
///
/// A session either borrows its graph ([`Session::new`]), owns it
/// ([`Session::from_graph`], [`Session::open_snapshot`]), or shares it
/// ([`Session::from_shared`]) — the owning and sharing forms are
/// `Session<'static>`, so a file-backed dataset can be served without
/// keeping a graph binding alive elsewhere. The shared form is what a
/// server uses: N connections hold one `Arc<Graph>` (one mmap-loaded
/// snapshot), each with its own session and plan cache.
pub struct Session<'g> {
    graph: GraphHandle<'g>,
    opts: ExecOptions,
    cache: RefCell<PlanCache>,
    results: ResultCacheHandle,
}

/// The three ways a session holds its graph.
enum GraphHandle<'g> {
    Borrowed(&'g Graph),
    Owned(Box<Graph>),
    Shared(std::sync::Arc<Graph>),
}

impl GraphHandle<'_> {
    fn get(&self) -> &Graph {
        match self {
            GraphHandle::Borrowed(g) => g,
            GraphHandle::Owned(g) => g,
            GraphHandle::Shared(g) => g,
        }
    }
}

/// Where this session's CTP result cache lives, resolved once from
/// [`ExecOptions::result_cache`] at construction.
enum ResultCacheHandle {
    Off,
    Local(RefCell<ResultCache>),
    Shared(SharedResultCache),
}

impl ResultCacheHandle {
    fn from_opts(opts: &ExecOptions) -> ResultCacheHandle {
        match &opts.result_cache {
            ResultCacheMode::Off => ResultCacheHandle::Off,
            ResultCacheMode::On if opts.result_cache_capacity == 0 => ResultCacheHandle::Off,
            ResultCacheMode::On => {
                ResultCacheHandle::Local(RefCell::new(ResultCache::new(opts.result_cache_capacity)))
            }
            ResultCacheMode::Shared(h) => ResultCacheHandle::Shared(h.clone()),
        }
    }

    /// Runs `f` with the cache, or returns `None` when caching is off.
    fn with<R>(&self, f: impl FnOnce(&mut ResultCache) -> R) -> Option<R> {
        match self {
            ResultCacheHandle::Off => None,
            ResultCacheHandle::Local(c) => Some(f(&mut c.borrow_mut())),
            ResultCacheHandle::Shared(s) => Some(s.with(f)),
        }
    }
}

/// How the result cache answered one CTP job of a dispatch round —
/// the per-job attribution [`ExecStats`] counters are folded from.
pub(crate) enum CacheEvent {
    /// Exact signature hit.
    Hit,
    /// Subsumption hit; carries the number of trees filtered out.
    Subsumed(u64),
    /// No usable entry: the search ran.
    Miss,
    /// The job bypassed the cache (caching off or uncacheable job).
    Bypass,
}

/// Folds a dispatch round's per-job cache events into a query's stats.
pub(crate) fn fold_cache_events(stats: &mut ExecStats, events: &[CacheEvent]) {
    for e in events {
        match e {
            CacheEvent::Hit => stats.result_cache_hits += 1,
            CacheEvent::Subsumed(filtered) => {
                stats.result_cache_subsumed += 1;
                stats.result_cache_trees_filtered += filtered;
            }
            CacheEvent::Miss => stats.result_cache_misses += 1,
            CacheEvent::Bypass => {}
        }
    }
}

/// A parsed, validated, component-grouped query, produced by
/// [`Session::prepare`] and executable any number of times via
/// [`Session::execute`] without re-parsing.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    ast: QueryAst,
    /// The BGP components (Def. 2.4) of the query's edge patterns,
    /// grouped once at prepare time.
    bgps: Vec<Bgp>,
}

impl PreparedQuery {
    /// The parsed query.
    pub fn ast(&self) -> &QueryAst {
        &self.ast
    }

    /// The query form (`SELECT` or `ASK`).
    pub fn form(&self) -> QueryForm {
        self.ast.form
    }

    /// Executes this query on `session` — sugar for
    /// [`Session::execute`].
    pub fn execute(&self, session: &Session<'_>) -> Result<QueryResult, EqlError> {
        session.execute(self)
    }
}

impl Session<'static> {
    /// A session that *owns* its graph — the constructor behind every
    /// file- or generator-backed dataset, where no caller holds the
    /// graph binding.
    pub fn from_graph(graph: Graph) -> Session<'static> {
        Session::from_graph_with(graph, ExecOptions::default())
    }

    /// An owning session with explicit options.
    pub fn from_graph_with(graph: Graph, opts: ExecOptions) -> Session<'static> {
        Session::with_handle(GraphHandle::Owned(Box::new(graph)), opts)
    }

    /// Opens a session over a `.csg` snapshot file
    /// ([`cs_graph::snapshot::load_from`]): the session owns the loaded
    /// graph, and when the snapshot carries a statistics section the
    /// BGP planner starts warm — no first-query stats pass.
    pub fn open_snapshot(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Session<'static>, cs_graph::snapshot::SnapshotError> {
        Session::open_snapshot_with(path, ExecOptions::default())
    }

    /// A session over a shared, reference-counted graph. Many sessions
    /// (one per connection, one per thread — sessions are `!Sync`) can
    /// hold the same `Arc<Graph>`, so a server keeps a single graph in
    /// memory regardless of how many clients it serves.
    pub fn from_shared(graph: std::sync::Arc<Graph>) -> Session<'static> {
        Session::from_shared_with(graph, ExecOptions::default())
    }

    /// [`Session::from_shared`] with explicit options. This is the
    /// server constructor: passing
    /// [`ResultCacheMode::Shared`] in the options makes
    /// every connection's session probe and feed one cross-session
    /// result cache over the shared graph.
    pub fn from_shared_with(graph: std::sync::Arc<Graph>, opts: ExecOptions) -> Session<'static> {
        Session::with_handle(GraphHandle::Shared(graph), opts)
    }

    /// [`Session::open_snapshot`] with explicit options.
    pub fn open_snapshot_with(
        path: impl AsRef<std::path::Path>,
        opts: ExecOptions,
    ) -> Result<Session<'static>, cs_graph::snapshot::SnapshotError> {
        let graph = cs_graph::snapshot::load_from(path)?;
        Ok(Session::from_graph_with(graph, opts))
    }
}

impl<'g> Session<'g> {
    /// The constructor behind the borrowed, owned and shared forms.
    fn with_handle(graph: GraphHandle<'g>, opts: ExecOptions) -> Self {
        Session {
            graph,
            cache: RefCell::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
            results: ResultCacheHandle::from_opts(&opts),
            opts,
        }
    }

    /// A session over `g` with default [`ExecOptions`].
    pub fn new(graph: &'g Graph) -> Self {
        Session::with_options(graph, ExecOptions::default())
    }

    /// A session over `g` with explicit options.
    pub fn with_options(graph: &'g Graph, opts: ExecOptions) -> Self {
        Session::with_handle(GraphHandle::Borrowed(graph), opts)
    }

    /// The graph this session queries.
    pub fn graph(&self) -> &Graph {
        self.graph.get()
    }

    /// The session's execution options.
    pub fn options(&self) -> &ExecOptions {
        &self.opts
    }

    /// Mutable access to the options (e.g. to change the deadline
    /// between queries). The plan cache is kept.
    pub fn options_mut(&mut self) -> &mut ExecOptions {
        &mut self.opts
    }

    /// Plans served from the session's shape-keyed cache so far.
    pub fn plan_cache_hits(&self) -> u64 {
        self.cache.borrow().hits()
    }

    /// Plans built from scratch so far.
    pub fn plan_cache_misses(&self) -> u64 {
        self.cache.borrow().misses()
    }

    /// Number of plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    /// The result cache's counters. For a session on a
    /// [`ResultCacheMode::Shared`] cache these are the
    /// *shared* totals across every attached session; all zero when
    /// caching is off.
    pub fn result_cache_counters(&self) -> CacheCounters {
        self.results.with(|c| c.counters()).unwrap_or_default()
    }

    /// CTP searches answered by an exact result-cache hit.
    pub fn result_cache_hits(&self) -> u64 {
        self.result_cache_counters().hits
    }

    /// CTP searches the result cache could not answer.
    pub fn result_cache_misses(&self) -> u64 {
        self.result_cache_counters().misses
    }

    /// Number of entries in the result cache.
    pub fn result_cache_len(&self) -> usize {
        self.results.with(|c| c.len()).unwrap_or(0)
    }

    /// Runs a round of CTP jobs one after another on this thread,
    /// through the result cache. Each job is probed under the cache
    /// lock; on a miss the lock is released, the job is armed with what
    /// is left of the query's budget and searched, and its outcome is
    /// inserted under the lock again. A job repeating an earlier job of
    /// the round is therefore a plain hit. Returns the outcomes in job
    /// order plus the per-job cache events for stats attribution.
    fn dispatch_cached(
        &self,
        jobs: &mut [CtpJob],
        control: &QueryControl,
    ) -> (Vec<SearchOutcome>, Vec<CacheEvent>) {
        let g = self.graph();
        let caching = !matches!(self.results, ResultCacheHandle::Off);
        jobs.iter_mut()
            .map(|job| {
                let sig = caching.then(|| CtpSignature::of(g, job)).flatten();
                let probe = sig
                    .as_ref()
                    .and_then(|s| self.results.with(|c| c.lookup(g, s)));
                match probe {
                    Some(CacheLookup::Exact(outcome)) => (outcome, CacheEvent::Hit),
                    Some(CacheLookup::Subsumed {
                        outcome,
                        filtered_out,
                    }) => (outcome, CacheEvent::Subsumed(filtered_out)),
                    Some(CacheLookup::Miss) | None => {
                        control.arm(job);
                        let outcome = job.run(g);
                        let event = match sig {
                            Some(s) => {
                                self.results.with(|c| c.insert(s, &outcome));
                                CacheEvent::Miss
                            }
                            None => CacheEvent::Bypass,
                        };
                        (outcome, event)
                    }
                }
            })
            .unzip()
    }

    /// Applies a batch of graph mutations through the session — the
    /// live-graph entry point that keeps every cache honest:
    ///
    /// * the batch lands atomically via [`cs_graph::Graph::apply`],
    ///   bumping the graph's generation;
    /// * plans whose label footprint intersects the batch's labels are
    ///   dropped from the plan cache (label-free shapes survive);
    /// * stale result-cache entries — already unreachable, since the
    ///   [`GraphToken`] they are keyed by carries the old generation —
    ///   are purged eagerly.
    ///
    /// Only sessions that *own* their graph can mutate: borrowed
    /// sessions ([`Session::new`]) and shared sessions with other live
    /// `Arc` holders return [`EqlError::Mutate`] (a server mutates by
    /// cloning, mutating the clone, and swapping the `Arc` — see
    /// `csqd`).
    ///
    /// ```
    /// use cs_eql::Session;
    /// use cs_graph::{figure1, matching_nodes, Mutation, Predicate};
    ///
    /// let mut session = Session::from_graph(figure1());
    /// let doug = matching_nodes(session.graph(), &Predicate::label("Doug"))[0];
    /// let mars = session.mutate(vec![Mutation::InsertNode {
    ///     label: "Mars".into(),
    ///     types: vec!["place".into()],
    /// }]).unwrap().nodes[0];
    /// session.mutate(vec![Mutation::InsertEdge {
    ///     src: doug,
    ///     label: "migratedTo".into(),
    ///     dst: mars,
    /// }]).unwrap();
    /// assert!(session
    ///     .ask(r#"ASK WHERE { ("Doug", "migratedTo", "Mars") }"#)
    ///     .unwrap());
    /// ```
    pub fn mutate(&mut self, ops: Vec<Mutation>) -> Result<Applied, EqlError> {
        // Pre-validate endpoints: `Graph::apply` treats a dangling
        // endpoint as a programming error (it panics), but mutations
        // arriving through a session are data, not code. An edge may
        // reference nodes inserted earlier in the same batch — their
        // ids are assigned sequentially from the current node count.
        {
            let mut count = self.graph.get().node_count();
            for op in &ops {
                match op {
                    Mutation::InsertNode { .. } => count += 1,
                    Mutation::InsertEdge { src, dst, .. } => {
                        for n in [src, dst] {
                            if n.index() >= count {
                                return Err(EqlError::Mutate(format!(
                                    "edge endpoint n{} does not exist \
                                     (graph has {count} nodes at this point in the batch)",
                                    n.0,
                                )));
                            }
                        }
                    }
                    Mutation::RemoveEdge { .. } => {}
                }
            }
        }
        let before = self.graph.get().generation();
        let g = match &mut self.graph {
            GraphHandle::Owned(g) => g.as_mut(),
            GraphHandle::Shared(arc) => std::sync::Arc::get_mut(arc).ok_or_else(|| {
                EqlError::Mutate(
                    "cannot mutate a shared graph while other references are live; \
                     clone, mutate, and swap the Arc instead (the csqd epoch swap)"
                        .into(),
                )
            })?,
            GraphHandle::Borrowed(_) => {
                return Err(EqlError::Mutate(
                    "cannot mutate a borrowed graph: use an owning session \
                     (Session::from_graph / Session::open_snapshot)"
                        .into(),
                ))
            }
        };
        let applied = g.apply(ops);
        if applied.generation == before {
            return Ok(applied); // no-op batch: nothing to invalidate
        }
        let g = self.graph.get();
        match g.mutations_since(before) {
            Some(recs) => {
                let mut labels: Vec<&str> = recs
                    .iter()
                    .flat_map(|r| r.labels.iter())
                    .map(|&l| g.resolve(l))
                    .collect();
                labels.sort_unstable();
                labels.dedup();
                self.cache
                    .borrow_mut()
                    .invalidate_labels(labels.iter().copied());
            }
            // Past the log horizon (can't happen for one batch, but
            // stay defensive): drop everything.
            None => self.cache.borrow_mut().clear(),
        }
        self.results.with(|c| c.purge_stale(GraphToken::of(g)));
        Ok(applied)
    }

    /// Parses, validates, and component-groups a query. The returned
    /// [`PreparedQuery`] can be executed repeatedly without paying for
    /// parsing again.
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery, EqlError> {
        let ast = parse(text)?;
        self.prepare_ast(ast)
    }

    /// Prepares a programmatically built AST: re-checks the invariants
    /// the parser enforces (duplicate CTP output variables) and groups
    /// the edge patterns into BGP components.
    pub fn prepare_ast(&self, ast: QueryAst) -> Result<PreparedQuery, EqlError> {
        if let Some(v) = ast.duplicate_out_var() {
            return Err(EqlError::Validate(crate::ast::duplicate_out_var_message(v)));
        }
        let bgps = query_bgps(&ast);
        Ok(PreparedQuery { ast, bgps })
    }

    /// Parses and executes a query in one call: [`Session::prepare`]
    /// followed by [`Session::execute`].
    pub fn run(&self, text: &str) -> Result<QueryResult, EqlError> {
        let prepared = self.prepare(text)?;
        self.execute(&prepared)
    }

    /// Executes a prepared query — steps (A)–(C) of the paper's
    /// evaluation strategy (§3), with step (A) plans served from the
    /// session's shape-keyed cache.
    ///
    /// This is the batch pipeline of [`Session::execute_batch`] run over
    /// one query, so a query answers the same alone and inside a batch.
    /// `stats.total_time` is the wall clock of the whole execution;
    /// `stats.ctp_time` covers building the CTP jobs, their dispatch,
    /// and finishing them (classification, materialisation and, for
    /// `ASK`, any deepening rounds).
    pub fn execute(&self, q: &PreparedQuery) -> Result<QueryResult, EqlError> {
        #[expect(
            clippy::expect_used,
            reason = "the pipeline returns exactly one result per query it was given"
        )]
        let result = self
            .execute_staged(std::iter::once(Ok(q)))
            .pop()
            .expect("one result per staged query");
        result
    }

    /// Parses and executes an `ASK` query, returning its boolean
    /// answer — [`Session::run`]'s `boolean`. A CTP that shares no
    /// variable with another table searches under an implicit
    /// `LIMIT 1`, so the search stops at its first witness; one that
    /// joins starts from a small result cap that grows only while the
    /// join stays empty.
    ///
    /// ```
    /// use cs_eql::Session;
    /// use cs_graph::figure1;
    /// let g = figure1();
    /// let session = Session::new(&g);
    /// assert!(session
    ///     .ask(r#"ASK WHERE { CONNECT("Bob", "Elon" -> w) }"#)
    ///     .unwrap());
    /// assert!(!session
    ///     .ask(r#"ASK WHERE { (x, "founded", "France") }"#)
    ///     .unwrap());
    /// ```
    pub fn ask(&self, text: &str) -> Result<bool, EqlError> {
        let res = self.run(text)?;
        Ok(res.boolean.unwrap_or(res.rows() > 0))
    }

    /// Executes a batch of queries with the CTP jobs of *all* queries
    /// collected into one dispatch round through the result cache, so
    /// a batch repeating a CTP pays for its search once. The hard
    /// deadline ([`ExecOptions::deadline`]) is one budget for the whole
    /// batch: its clock starts with the batch, and each search gets
    /// only what the searches before it left.
    ///
    /// It runs the same pipeline as [`Session::execute`]; results are
    /// returned in input order, and a query that fails to parse, seed,
    /// or finish reports its error without aborting the rest of the
    /// batch. Each result's `ctp_time` counts its own job building and
    /// finishing plus the shared dispatch round, and — for a batch of
    /// more than one query — `total_time` is the sum of the per-step
    /// times (a per-query wall clock would mostly measure the other
    /// queries). ASK queries whose join probe stays empty continue
    /// deepening on their own from grown result caps: the batch
    /// dispatch was their first round.
    pub fn execute_batch(&self, queries: &[&str]) -> Vec<Result<QueryResult, EqlError>> {
        self.execute_staged(queries.iter().map(|text| self.prepare(text)))
    }

    /// The one query pipeline behind [`Session::execute`] and
    /// [`Session::execute_batch`]: stage every query (step A, then its
    /// CTP jobs), run one [`Session::dispatch_cached`] round over all
    /// their jobs, then finish each query on its own (step B's
    /// [`Session::finish_ctps`], then step C). One [`QueryControl`]
    /// covers the whole run.
    fn execute_staged<Q: Borrow<PreparedQuery>>(
        &self,
        queries: impl IntoIterator<Item = Result<Q, EqlError>>,
    ) -> Vec<Result<QueryResult, EqlError>> {
        let control = QueryControl::begin(&self.opts);
        let mut all_jobs: Vec<CtpJob> = Vec::new();
        let staged: Vec<Result<Staged<Q>, EqlError>> = queries
            .into_iter()
            .map(|q| {
                let (st, jobs) = self.stage(q?, &control)?;
                all_jobs.extend(jobs);
                Ok(st)
            })
            .collect();
        let wall_clock = staged.len() == 1;

        let t = Instant::now();
        let (outcomes, events) = self.dispatch_cached(&mut all_jobs, &control);
        let dispatch_time = t.elapsed();

        let mut outcomes = outcomes.into_iter();
        let mut jobs = all_jobs.as_mut_slice();
        let mut base = 0usize;
        staged
            .into_iter()
            .map(|st| {
                let mut st = st?;
                let n = st.job_cols.len();
                let (mine, rest) = std::mem::take(&mut jobs).split_at_mut(n);
                jobs = rest;
                fold_cache_events(&mut st.stats, &events[base..base + n]);
                base += n;
                let outs: Vec<SearchOutcome> = outcomes.by_ref().take(n).collect();
                let t = Instant::now();
                let materialised = self.finish_ctps(&mut st, mine, outs, &control)?;
                st.stats.ctp_time += dispatch_time + t.elapsed();
                Ok(assemble(
                    &st.query.borrow().ast,
                    st.bgp_tables,
                    materialised,
                    st.stats,
                    wall_clock.then_some(st.start),
                ))
            })
            .collect()
    }

    /// Stages one query for the pipeline: step (A) through the plan
    /// cache, then its CTP jobs ([`build_ctp_jobs`]). The jobs are
    /// armed with the query control only when they run. `stats.ctp_time`
    /// starts with the job-building time.
    fn stage<Q: Borrow<PreparedQuery>>(
        &self,
        query: Q,
        control: &QueryControl,
    ) -> Result<(Staged<Q>, Vec<CtpJob>), EqlError> {
        let start = Instant::now();
        let g = self.graph();
        let q = query.borrow();
        let mut stats = ExecStats {
            graph_generation: g.generation(),
            ..ExecStats::default()
        };
        let bgp_tables = self.eval_bgps(&q.bgps, &mut stats);
        stats.bgp_time = start.elapsed();
        control.check()?;

        let t = Instant::now();
        let built = build_ctp_jobs(g, &q.ast, &bgp_tables, &self.opts)?;
        stats.seed_narrowings = built.narrowings;
        stats.ctp_time = t.elapsed();
        let staged = Staged {
            query,
            stats,
            bgp_tables,
            job_cols: built.job_cols,
            deepenable: built.deepenable,
            exclusions: built.exclusions,
            start,
        };
        Ok((staged, built.jobs))
    }

    /// Finishes step (B) for one staged query from the outcomes of its
    /// jobs' first dispatch round: classifies them against the query
    /// control, re-imposes the narrowing exclusions, and materialises
    /// the CTP tables. For `ASK`, while the join probe stays empty and
    /// a truncated search might still produce the joining tree, it
    /// raises the deepenable result caps and dispatches again. Each
    /// round replaces the previous round's per-CTP stats.
    fn finish_ctps<Q: Borrow<PreparedQuery>>(
        &self,
        st: &mut Staged<Q>,
        jobs: &mut [CtpJob],
        mut outcomes: Vec<SearchOutcome>,
        control: &QueryControl,
    ) -> Result<CtpMaterialisation, EqlError> {
        let ast = &st.query.borrow().ast;
        loop {
            // A cancelled or past-deadline round fails this query only;
            // batch members whose searches finished keep their results.
            control.classify(&outcomes)?;
            st.stats.ctp_stats.clear();
            // Deepening decisions read the *raw* outcomes (a cap-hit
            // must stay visible); the exclusivity re-check of narrowed
            // jobs runs after, and after the raw outcome was cached.
            let truncated = ask_truncated(jobs, &outcomes, &st.deepenable);
            let timed_out = outcomes.iter().any(|o| o.stats.timed_out);
            enforce_exclusions(&mut outcomes, &st.exclusions);

            let materialised =
                materialise_ctps(self.graph(), ast, outcomes, &st.job_cols, &mut st.stats);

            // SELECT returns everything found; ASK stops as soon as
            // the join is witnessed, or no truncated search can change
            // it.
            if ast.form == QueryForm::Select || !truncated || timed_out {
                return Ok(materialised);
            }
            let mut probe = st.bgp_tables.clone();
            probe.extend(materialised.0.iter().cloned());
            if !join_all(probe).is_empty() {
                return Ok(materialised);
            }
            grow_ask_limits(jobs, &st.deepenable);
            let (next, events) = self.dispatch_cached(jobs, control);
            fold_cache_events(&mut st.stats, &events);
            outcomes = next;
        }
    }

    /// Opens a pull-based stream over a query's connecting trees: the
    /// CTP search advances only as far as the results the caller
    /// consumes, so `stream.take(k)` is TOP-k-style early termination.
    ///
    /// Streaming requires a `SELECT` query with exactly one CTP, a
    /// GAM-family algorithm (BFT is batch-only), and no `SCORE`
    /// clause (ranking needs the materialised result set). Edge
    /// patterns are allowed: the query is staged as in
    /// [`Session::execute`] — step (A) runs eagerly (through the plan
    /// cache) to derive the CTP's seed sets, and the CTP's one search
    /// job — seeds, policy and filters exactly as `execute` would
    /// dispatch them — is handed to [`cs_core::stream_ctp`] instead. The stream yields the CTP's trees
    /// in discovery order — per-seed bindings travel on each
    /// [`ResultTree::seeds`].
    pub fn execute_streaming(&self, q: &PreparedQuery) -> Result<ResultStream<'_>, EqlError> {
        let ast = &q.ast;
        if ast.form != QueryForm::Select {
            return Err(EqlError::Validate(
                "streaming execution requires a SELECT query (use `ask` for ASK)".into(),
            ));
        }
        if ast.ctps.len() != 1 {
            return Err(EqlError::Validate(format!(
                "streaming execution requires exactly one CTP, query has {}",
                ast.ctps.len()
            )));
        }
        let ctp = &ast.ctps[0];
        if ctp.filters.score.is_some() {
            return Err(EqlError::Validate(
                "SCORE/TOP ranks the full result set and cannot stream; \
                 drop the clause or use `execute`"
                    .into(),
            ));
        }
        let algorithm = ctp.algorithm.unwrap_or(self.opts.default_algorithm);
        if !Algorithm::GAM_FAMILY.contains(&algorithm) {
            return Err(EqlError::Validate(format!(
                "streaming execution requires a GAM-family algorithm, got {algorithm}"
            )));
        }

        // The armed job stops the pulled stream early when the
        // flag is raised or the budget elapses (visible as
        // `stats().cancelled` / `stats().timed_out`). A lone CTP has
        // pairwise-distinct variables and no join partner, so nothing
        // was narrowed and the job needs no exclusion pass.
        let control = QueryControl::begin(&self.opts);
        let (staged, mut jobs) = self.stage(q, &control)?;
        #[expect(
            clippy::expect_used,
            reason = "the query was checked above to hold exactly one CTP, and `build_ctp_jobs` builds one job per CTP"
        )]
        let mut job = jobs.pop().expect("one job for the one CTP");
        control.arm(&mut job);
        Ok(ResultStream {
            stream: stream_ctp(
                self.graph(),
                job.seeds,
                job.algorithm,
                job.filters,
                job.order,
                job.policy,
            ),
            out_var: ctp.out_var.clone(),
            exec_stats: staged.stats,
        })
    }

    /// Step (A): plan every BGP component through the session cache
    /// and evaluate the plans, recording plans and cache-hit deltas in
    /// `stats`.
    fn eval_bgps(&self, bgps: &[Bgp], stats: &mut ExecStats) -> Vec<Table> {
        let mut cache = self.cache.borrow_mut();
        let (h0, m0) = (cache.hits(), cache.misses());
        let tables = bgps
            .iter()
            .map(|bgp| {
                let plan = cache.plan(self.graph(), bgp);
                let table = eval_bgp_with_plan(self.graph(), bgp, &plan);
                stats.plans.push(plan);
                table
            })
            .collect();
        stats.plan_cache_hits += cache.hits() - h0;
        stats.plan_cache_misses += cache.misses() - m0;
        tables
    }
}

/// One query between the stages of [`Session::execute_staged`]: step
/// (A) done, its CTP jobs handed to the shared dispatch round, and the
/// per-CTP state [`Session::finish_ctps`] needs to turn the round's
/// outcomes into tables.
struct Staged<Q> {
    query: Q,
    stats: ExecStats,
    bgp_tables: Vec<Table>,
    /// Per CTP, the table column of each seed position.
    job_cols: Vec<Vec<Option<String>>>,
    /// Per CTP, whether ASK deepening may raise its result cap.
    deepenable: Vec<bool>,
    /// Per CTP, the seeds magic-set narrowing removed.
    exclusions: Vec<Vec<NodeId>>,
    /// When staging began — the start of a lone query's wall clock.
    start: Instant,
}

/// Step (C): join the BGP and CTP tables, project the head, and wrap
/// everything into a [`QueryResult`].
fn assemble(
    ast: &QueryAst,
    bgp_tables: Vec<Table>,
    materialised: CtpMaterialisation,
    mut stats: ExecStats,
    t_total: Option<Instant>,
) -> QueryResult {
    let (ctp_tables, trees, scores) = materialised;
    let t2 = Instant::now();
    let mut tables: Vec<Table> = bgp_tables;
    tables.extend(ctp_tables);
    let joined = join_all(tables);
    let head_refs: Vec<&str> = ast.head.iter().map(String::as_str).collect();
    let table = joined.project(&head_refs).distinct();
    stats.join_time = t2.elapsed();

    let boolean = match ast.form {
        QueryForm::Ask => Some(!joined.is_empty()),
        QueryForm::Select => None,
    };
    // Batched executions interleave several queries on one clock, so
    // their per-query total is the sum of this query's step times.
    stats.total_time = match t_total {
        Some(t) => t.elapsed(),
        None => stats.bgp_time + stats.ctp_time + stats.join_time,
    };

    QueryResult {
        table,
        trees,
        scores,
        stats,
        boolean,
    }
}

/// A pull-based stream over one query's connecting trees, created by
/// [`Session::execute_streaming`].
///
/// Dropping the stream abandons the remaining search — consuming `k`
/// trees costs roughly what a `LIMIT k` execution would, without
/// having to know `k` up front.
pub struct ResultStream<'g> {
    stream: CtpStream<'g>,
    out_var: String,
    exec_stats: ExecStats,
}

impl ResultStream<'_> {
    /// The CTP output variable the streamed trees bind.
    pub fn out_var(&self) -> &str {
        &self.out_var
    }

    /// Staging statistics: BGP time, plans, plan-cache counters, and the
    /// job-building time in `ctp_time` (CTP search counters accumulate
    /// in [`ResultStream::stats`]).
    pub fn exec_stats(&self) -> &ExecStats {
        &self.exec_stats
    }

    /// The search statistics accumulated so far (they keep growing
    /// while the stream is pulled).
    pub fn stats(&self) -> &SearchStats {
        self.stream.stats()
    }

    /// Wall-clock time since the stream was opened.
    pub fn elapsed(&self) -> Duration {
        self.stream.elapsed()
    }
}

impl Iterator for ResultStream<'_> {
    type Item = ResultTree;

    fn next(&mut self) -> Option<ResultTree> {
        self.stream.next()
    }
}
