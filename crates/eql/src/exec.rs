//! EQL query execution — the paper's evaluation strategy (§3):
//!
//! * **(A)** evaluate each BGP into a binding table `B_i` (delegated to
//!   `cs-engine`, the conjunctive-engine substrate);
//! * **(B)** derive each CTP's seed sets from the `B_i` (or from the
//!   predicate over all graph nodes), then compute the set-based CTP
//!   result with the filters pushed into the search (`cs-core`);
//! * **(C)** natural-join all tables and project on the head.

use crate::ast::{CtpAst, QueryAst, QueryForm, TermAst};
use crate::parser::ParseError;
use crate::result_cache::ResultCacheMode;
use cs_core::score::{by_name, rank};
use cs_core::{
    Algorithm, CtpJob, Filters, QueueOrder, QueuePolicy, ResultTree, SearchOutcome, SearchStats,
    SeedError, SeedSets, SeedSpec,
};
use cs_engine::{pattern_components, plan_bgp, Bgp, BgpPlan, Binding, Table, Term, TriplePattern};
use cs_graph::fxhash::FxHashMap;
use cs_graph::{matching_nodes, Graph, NodeId};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors from parsing or executing an EQL query.
#[derive(Debug)]
pub enum EqlError {
    /// Syntax or static-validation error.
    Parse(ParseError),
    /// Invalid seed sets (e.g. > 64 groups).
    Seed(SeedError),
    /// A structurally invalid query reached the executor (possible when
    /// the AST is constructed programmatically, bypassing the parser).
    Validate(String),
    /// The query's wall-clock budget ([`ExecOptions::deadline`])
    /// elapsed; the search was stopped cooperatively mid-flight.
    DeadlineExceeded,
    /// The query's [`CancelFlag`](cs_core::CancelFlag)
    /// ([`ExecOptions::cancel`]) was raised; the search was stopped
    /// cooperatively mid-flight.
    Cancelled,
    /// A [`Session::mutate`](crate::Session::mutate) call could not be
    /// applied (e.g. the session does not own its graph, or an edge
    /// endpoint does not exist).
    Mutate(String),
}

impl fmt::Display for EqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EqlError::Parse(e) => write!(f, "{e}"),
            EqlError::Seed(e) => write!(f, "{e}"),
            EqlError::Validate(m) => write!(f, "{m}"),
            EqlError::DeadlineExceeded => write!(f, "deadline exceeded"),
            EqlError::Cancelled => write!(f, "cancelled"),
            EqlError::Mutate(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for EqlError {}

impl From<ParseError> for EqlError {
    fn from(e: ParseError) -> Self {
        EqlError::Parse(e)
    }
}

impl From<SeedError> for EqlError {
    fn from(e: SeedError) -> Self {
        EqlError::Seed(e)
    }
}

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Algorithm for CTPs without an `ALGORITHM` clause.
    pub default_algorithm: Algorithm,
    /// Timeout applied to CTPs without a `TIMEOUT` clause.
    pub default_timeout: Option<Duration>,
    /// Hard per-query wall-clock budget. Unlike
    /// [`ExecOptions::default_timeout`] (the per-CTP soft `TIMEOUT`
    /// clause, which returns the partial results found in time), an
    /// exceeded deadline fails the whole query with
    /// [`EqlError::DeadlineExceeded`] — the typed path `csqd` turns
    /// into an error frame. The clock starts when execution starts.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation: when raised (e.g. by a server's cancel
    /// registry from another thread), the running searches stop at
    /// their next check and the query fails with
    /// [`EqlError::Cancelled`].
    pub cancel: Option<cs_core::CancelFlag>,
    /// Where the CTP result cache lives: per-session
    /// ([`ResultCacheMode::On`], the default), disabled, or a
    /// [`SharedResultCache`](crate::SharedResultCache) handle shared
    /// across sessions over the same graph (or sized other than
    /// [`DEFAULT_RESULT_CACHE_CAPACITY`](crate::DEFAULT_RESULT_CACHE_CAPACITY)).
    pub result_cache: ResultCacheMode,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            default_algorithm: Algorithm::MoLesp,
            default_timeout: None,
            deadline: None,
            cancel: None,
            result_cache: ResultCacheMode::On,
        }
    }
}

/// One magic-set seed narrowing step (B.1½): a CTP seed set was
/// intersected with the other tables binding the same variable before
/// dispatch, shrinking the search frontier. Recorded in
/// [`ExecStats::seed_narrowings`] so `--explain` can show the seeded
/// vs. unseeded cardinalities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedNarrowing {
    /// Output variable of the narrowed CTP.
    pub ctp: String,
    /// The shared seed variable whose set was narrowed.
    pub var: String,
    /// Seed-set cardinality before narrowing.
    pub from: usize,
    /// Seed-set cardinality after narrowing (the intersection).
    pub to: usize,
}

/// Timing and search statistics of one query execution.
#[derive(Debug, Default)]
pub struct ExecStats {
    /// End-to-end execution time (planning + steps A–C), so the
    /// overhead around the per-step times is visible. For a member of
    /// a batch of several queries it is the sum of the step times.
    pub total_time: Duration,
    /// Time evaluating BGPs (step A).
    pub bgp_time: Duration,
    /// Time evaluating CTPs (step B): building this query's jobs, the
    /// dispatch round they ran in (shared by every member of a batch),
    /// and finishing them — classification, materialisation, and any
    /// `ASK` deepening rounds.
    pub ctp_time: Duration,
    /// Time joining and projecting (step C).
    pub join_time: Duration,
    /// Per-CTP search statistics, keyed by output variable.
    pub ctp_stats: Vec<(String, SearchStats, Duration)>,
    /// The access-path plan of each BGP component, in component order —
    /// the `EXPLAIN` surface of step (A).
    pub plans: Vec<BgpPlan>,
    /// Always 0: every BGP is planned fresh. Kept only because
    /// perfbench reads it; it goes when perfbench stops reading it.
    pub plan_cache_hits: u64,
    /// The BGPs this execution planned (one per component). Kept only
    /// because perfbench reads it; it goes when perfbench stops
    /// reading it.
    pub plan_cache_misses: u64,
    /// CTP searches answered by an exact result-cache hit.
    pub result_cache_hits: u64,
    /// CTP searches the result cache could not answer.
    pub result_cache_misses: u64,
    /// Always 0: the result cache answers exact repeats only. Kept
    /// only because perfbench reads it; it goes when perfbench stops
    /// reading it.
    pub result_cache_subsumed: u64,
    /// Always 0, as [`ExecStats::result_cache_subsumed`]. Kept only
    /// because perfbench reads it; it goes when perfbench stops
    /// reading it.
    pub result_cache_trees_filtered: u64,
    /// Magic-set seed narrowings applied before dispatch.
    pub seed_narrowings: Vec<SeedNarrowing>,
    /// The graph generation ([`cs_graph::Graph::generation`]) the query
    /// executed against — ties a result to a point in a live graph's
    /// mutation history.
    pub graph_generation: u64,
}

/// The result of an EQL query.
#[derive(Debug)]
pub struct QueryResult {
    /// The head projection; tree variables hold [`Binding::Tree`]
    /// indices into [`QueryResult::trees`].
    pub table: Table,
    /// Connecting trees per CTP output variable.
    pub trees: FxHashMap<String, Vec<ResultTree>>,
    /// Scores per CTP output variable (aligned with `trees`), present
    /// when the CTP had a `SCORE` clause.
    pub scores: FxHashMap<String, Vec<f64>>,
    /// Execution statistics.
    pub stats: ExecStats,
    /// For `ASK` queries: whether at least one answer exists.
    pub boolean: Option<bool>,
}

impl QueryResult {
    /// Number of answer rows.
    pub fn rows(&self) -> usize {
        self.table.len()
    }

    /// Resolves a tree binding to its [`ResultTree`].
    pub fn tree(&self, var: &str, b: Binding) -> Option<&ResultTree> {
        let idx = b.as_tree()? as usize;
        self.trees.get(var)?.get(idx)
    }

    /// Renders the result as a tab-separated table, with tree bindings
    /// expanded into their edge descriptions.
    pub fn render(&self, g: &Graph) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let vars = self.table.vars().to_vec();
        let _ = writeln!(
            out,
            "{}",
            vars.iter()
                .map(|v| v.as_ref())
                .collect::<Vec<_>>()
                .join("\t")
        );
        for row in self.table.rows() {
            let cells: Vec<String> = row
                .iter()
                .zip(vars.iter())
                .map(|(b, v)| match b {
                    Binding::Node(n) => g.node_label(*n).to_string(),
                    Binding::Edge(e) => g.edge_label(*e).to_string(),
                    Binding::Tree(_) => self
                        .tree(v.as_ref(), *b)
                        .map(|t| format!("[{}]", t.describe(g)))
                        .unwrap_or_else(|| "?".into()),
                })
                .collect();
            let _ = writeln!(out, "{}", cells.join("\t"));
        }
        out
    }
}

/// First result cap for variable-sharing ASK CTPs; grown by
/// [`ASK_LIMIT_GROWTH`] each deepening round while the join probe stays
/// empty and a search was truncated by its cap.
pub(crate) const ASK_INITIAL_LIMIT: usize = 4;
/// Growth factor of the ASK deepening loop.
pub(crate) const ASK_LIMIT_GROWTH: usize = 8;

/// Per-execution control state derived from [`ExecOptions`] when a
/// query starts: the absolute deadline and the shared cancel flag.
///
/// The control is threaded two ways: [`QueryControl::check`] fails
/// fast *between* execution steps, and [`QueryControl::arm`] pushes
/// the flag/deadline *into* a job's [`Filters`] just before the job
/// runs, so the engines' cooperative checks (every 64 Grow steps of
/// the `step` loop) stop a running search mid-flight.
/// [`QueryControl::classify`] then turns the stop reason into the
/// typed [`EqlError::Cancelled`] / [`EqlError::DeadlineExceeded`]
/// errors.
pub(crate) struct QueryControl {
    deadline: Option<Instant>,
    cancel: Option<cs_core::CancelFlag>,
}

impl QueryControl {
    /// Starts the per-query clock.
    pub(crate) fn begin(opts: &ExecOptions) -> Self {
        QueryControl {
            deadline: opts.deadline.map(|d| Instant::now() + d),
            cancel: opts.cancel.clone(),
        }
    }

    /// Fails fast between execution steps (cancellation wins over the
    /// deadline when both apply).
    pub(crate) fn check(&self) -> Result<(), EqlError> {
        if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            return Err(EqlError::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(EqlError::DeadlineExceeded);
        }
        Ok(())
    }

    /// Pushes the control into a job's filters just before the job
    /// runs: the cancel flag is attached as-is, and the budget left
    /// until the absolute deadline tightens the CTP timeout (the
    /// engines stop on the tighter of the two, counted from their own
    /// start). Jobs run one after another, so arming each as it starts
    /// makes the deadline one budget for the whole query or batch:
    /// a later job gets only what the earlier ones left.
    pub(crate) fn arm(&self, job: &mut CtpJob) {
        let f = &mut job.filters;
        if let Some(c) = &self.cancel {
            f.cancel = Some(c.clone());
        }
        if let Some(d) = self.deadline {
            let r = d.saturating_duration_since(Instant::now());
            f.timeout = Some(f.timeout.map_or(r, |t| t.min(r)));
        }
    }

    /// Classifies a finished dispatch round: a cancelled search fails
    /// the query; a timed-out search fails it only when the hard
    /// deadline has actually passed — a per-CTP soft `TIMEOUT` clause
    /// keeps its partial results, as before.
    pub(crate) fn classify(&self, outcomes: &[SearchOutcome]) -> Result<(), EqlError> {
        if outcomes.iter().any(|o| o.stats.cancelled) {
            return Err(EqlError::Cancelled);
        }
        if outcomes.iter().any(|o| o.stats.timed_out)
            && self.deadline.is_some_and(|d| Instant::now() >= d)
        {
            return Err(EqlError::DeadlineExceeded);
        }
        Ok(())
    }
}

/// The step (B) job list: per CTP, the job, the table columns of its
/// seed positions (`None` for hidden constants), whether the ASK
/// deepening loop may raise its result cap, and the surplus seeds the
/// magic-set narrowing removed (so [`enforce_exclusions`] can re-impose
/// the original seed-set exclusivity after dispatch).
pub(crate) struct BuiltJobs {
    /// One search job per CTP, in query order.
    pub(crate) jobs: Vec<CtpJob>,
    /// Per CTP, the table column of each seed position.
    pub(crate) job_cols: Vec<Vec<Option<String>>>,
    /// Per CTP, whether ASK deepening may raise its result cap.
    pub(crate) deepenable: Vec<bool>,
    /// Per CTP, the sorted union of seeds removed by narrowing (empty
    /// when the CTP was not narrowed).
    pub(crate) exclusions: Vec<Vec<NodeId>>,
    /// The narrowing steps applied, for [`ExecStats::seed_narrowings`].
    pub(crate) narrowings: Vec<SeedNarrowing>,
}

/// Lowers a CTP's filter clauses into search [`Filters`] — everything
/// except the result cap (`LIMIT`, plus the implicit ASK caps), which
/// [`build_ctp_jobs`] layers on. The single lowering point keeps the
/// searches of every query path (execute, batch and stream all build
/// their jobs through [`build_ctp_jobs`]) and the watch layer's delta
/// probe honouring exactly the same clauses.
pub(crate) fn ctp_filters(ctp: &CtpAst, opts: &ExecOptions) -> Filters {
    let mut filters = Filters::none();
    filters.uni = ctp.filters.uni;
    filters.labels = ctp.filters.labels.clone();
    filters.max_edges = ctp.filters.max_edges;
    filters.timeout = ctp.filters.timeout.or(opts.default_timeout);
    filters
}

/// Builds the [`CtpJob`]s of step (B) from a query's CTPs and the step
/// (A) binding tables.
pub(crate) fn build_ctp_jobs(
    g: &Graph,
    q: &QueryAst,
    bgp_tables: &[Table],
    opts: &ExecOptions,
) -> Result<BuiltJobs, EqlError> {
    let mut per_ctp: Vec<(Vec<SeedSpec>, Vec<Option<String>>)> = q
        .ctps
        .iter()
        .map(|ctp| seed_specs(g, ctp, bgp_tables))
        .collect();
    let (exclusions, narrowings) = narrow_shared_seed_sets(q, &mut per_ctp);

    let mut jobs: Vec<CtpJob> = Vec::with_capacity(q.ctps.len());
    let mut job_cols: Vec<Vec<Option<String>>> = Vec::with_capacity(q.ctps.len());
    let mut deepenable: Vec<bool> = Vec::with_capacity(q.ctps.len());
    for (ci, (ctp, (specs, col_vars))) in q.ctps.iter().zip(per_ctp).enumerate() {
        let seeds = SeedSets::new(specs)?;

        let mut filters = ctp_filters(ctp, opts);
        // ASK only needs existence, so a CTP can stop after its first
        // result (implicit LIMIT 1) — but only when the CTP shares no
        // variables with other tables: if its seed columns participate
        // in a join, the single kept tree may not be the one that
        // joins, yielding a false negative. Variable-sharing ASK CTPs
        // without an explicit LIMIT instead start from a small result
        // cap that the deepening loop raises only while the join stays
        // empty and some search was truncated.
        let deepen = q.form == QueryForm::Ask
            && ctp.filters.limit.is_none()
            && ctp_shares_variables(q, ci, bgp_tables);
        filters.max_results = ctp.filters.limit.or(match q.form {
            QueryForm::Ask if deepen => Some(ASK_INITIAL_LIMIT),
            QueryForm::Ask => Some(1),
            QueryForm::Select => None,
        });

        let algorithm = ctp.algorithm.unwrap_or(opts.default_algorithm);
        let policy = pick_policy(&seeds);
        jobs.push(CtpJob {
            seeds,
            algorithm,
            filters,
            order: QueueOrder::SmallestFirst,
            policy,
        });
        job_cols.push(col_vars);
        deepenable.push(deepen);
    }
    Ok(BuiltJobs {
        jobs,
        job_cols,
        deepenable,
        exclusions,
        narrowings,
    })
}

/// Magic-set seed narrowing (step B.1½): when several tables bind the
/// same variable — two CTPs sharing a seed variable, possibly already
/// restricted by a BGP — only nodes in the *intersection* of the seed
/// sets can survive the step (C) natural join, so each eligible CTP
/// searches from the intersection instead of its full set, shrinking
/// the frontier before any graph work.
///
/// Narrowing alone is not semantics-preserving: Def. 2.8 admits
/// *exactly one* node per seed set, so removing a node from a set frees
/// it to appear as an internal tree node, producing trees the original
/// query excludes. The returned per-CTP surplus lists let
/// [`enforce_exclusions`] drop those trees after dispatch; the
/// combination provably returns exactly the original trees whose seed
/// lies in the intersection — and all other trees produce no join rows.
///
/// Ineligible (left unnarrowed): CTPs with a `SCORE` clause (TOP-k is
/// computed before the join, so pre-shrinking the scored set changes
/// which trees fill the k slots), an explicit `LIMIT` (the kept subset
/// is user-visible), or an `N` seed position (All-position results are
/// discovery-order-dependent). Empty intersections also skip narrowing:
/// the join produces the empty answer either way, and seed-set
/// validation keeps its usual error surface.
///
/// Row answers are invariant under narrowing — a tree whose bound seed
/// lies outside the intersection cannot equi-join with the other
/// tables binding the variable. The [`QueryResult::trees`] map of a
/// narrowed CTP, however, only lists the trees the narrowed search
/// discovered: results that could never contribute a join row are
/// omitted rather than computed and discarded.
pub(crate) fn narrow_shared_seed_sets(
    q: &QueryAst,
    per_ctp: &mut [(Vec<SeedSpec>, Vec<Option<String>>)],
) -> (Vec<Vec<NodeId>>, Vec<SeedNarrowing>) {
    let mut exclusions: Vec<Vec<NodeId>> = vec![Vec::new(); per_ctp.len()];
    let mut narrowings: Vec<SeedNarrowing> = Vec::new();
    // Explicit-set positions per variable, in deterministic order.
    let mut by_var: std::collections::BTreeMap<String, Vec<(usize, usize)>> = Default::default();
    for (ci, (specs, cols)) in per_ctp.iter().enumerate() {
        for (pos, col) in cols.iter().enumerate() {
            if let (Some(v), SeedSpec::Set(_)) = (col.as_deref(), &specs[pos]) {
                by_var.entry(v.to_string()).or_default().push((ci, pos));
            }
        }
    }
    let eligible: Vec<bool> = q
        .ctps
        .iter()
        .zip(per_ctp.iter())
        .map(|(ctp, (specs, _))| {
            ctp.filters.score.is_none()
                && ctp.filters.limit.is_none()
                && specs.iter().all(|s| matches!(s, SeedSpec::Set(_)))
        })
        .collect();
    for (var, positions) in &by_var {
        if positions.len() < 2 {
            continue;
        }
        let mut inter: Option<Vec<NodeId>> = None;
        for &(ci, pos) in positions {
            let SeedSpec::Set(s) = &per_ctp[ci].0[pos] else {
                continue;
            };
            let mut s = s.clone();
            s.sort_unstable();
            s.dedup();
            inter = Some(match inter {
                None => s,
                Some(prev) => prev
                    .into_iter()
                    .filter(|n| s.binary_search(n).is_ok())
                    .collect(),
            });
        }
        let Some(inter) = inter else { continue };
        if inter.is_empty() {
            continue;
        }
        for &(ci, pos) in positions {
            if !eligible[ci] {
                continue;
            }
            let SeedSpec::Set(orig) = &mut per_ctp[ci].0[pos] else {
                continue;
            };
            let mut sorted = orig.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let surplus: Vec<NodeId> = sorted
                .iter()
                .copied()
                .filter(|n| inter.binary_search(n).is_err())
                .collect();
            if surplus.is_empty() {
                continue;
            }
            narrowings.push(SeedNarrowing {
                ctp: q.ctps[ci].out_var.clone(),
                var: var.clone(),
                from: sorted.len(),
                to: inter.len(),
            });
            let excl = &mut exclusions[ci];
            excl.extend(surplus);
            excl.sort_unstable();
            excl.dedup();
            *orig = inter.clone();
        }
    }
    (exclusions, narrowings)
}

/// Re-imposes the original seed-set exclusivity on narrowed jobs'
/// outcomes: a tree containing *any* node the narrowing removed would
/// hold two nodes of that original seed set (its seed plus the
/// surplus), which Def. 2.8 forbids — the narrowed search admits it
/// only because the surplus node left the set. Runs after
/// [`ask_truncated`] (which must see the raw result count against the
/// cap) and after cache insertion (the cache stores the raw outcome of
/// the narrowed signature).
pub(crate) fn enforce_exclusions(outcomes: &mut [SearchOutcome], exclusions: &[Vec<NodeId>]) {
    for (o, excl) in outcomes.iter_mut().zip(exclusions) {
        if excl.is_empty() {
            continue;
        }
        let trees = std::mem::take(&mut o.results).into_trees();
        o.results = cs_core::ResultSet::from_trees(
            trees
                .into_iter()
                .filter(|t| !t.nodes.iter().any(|n| excl.binary_search(n).is_ok())),
        );
    }
}

/// True if some deepenable ASK CTP's search was truncated by its
/// result cap (or is otherwise incomplete), so raising the cap could
/// still produce the joining tree.
pub(crate) fn ask_truncated(
    jobs: &[CtpJob],
    outcomes: &[SearchOutcome],
    deepenable: &[bool],
) -> bool {
    jobs.iter()
        .zip(outcomes)
        .zip(deepenable)
        .any(|((j, o), &d)| {
            d && (!o.complete() || j.filters.max_results.is_some_and(|k| o.results.len() >= k))
        })
}

/// Raises the result caps of the deepenable jobs for the next ASK
/// deepening round.
pub(crate) fn grow_ask_limits(jobs: &mut [CtpJob], deepenable: &[bool]) {
    for (j, &d) in jobs.iter_mut().zip(deepenable) {
        if d {
            let k = j.filters.max_results.unwrap_or(ASK_INITIAL_LIMIT);
            j.filters.max_results = Some(k.saturating_mul(ASK_LIMIT_GROWTH));
        }
    }
}

/// The join tables, result-tree bindings, and scores one evaluation
/// round produces.
pub(crate) type CtpMaterialisation = (
    Vec<Table>,
    FxHashMap<String, Vec<ResultTree>>,
    FxHashMap<String, Vec<f64>>,
);

/// Turns each CTP's search outcome into its join table `CTP_j`,
/// applying `SCORE σ [TOP k]` (§4.8), and records per-CTP statistics.
pub(crate) fn materialise_ctps(
    g: &Graph,
    q: &QueryAst,
    outcomes: Vec<cs_core::SearchOutcome>,
    job_cols: &[Vec<Option<String>>],
    stats: &mut ExecStats,
) -> CtpMaterialisation {
    let mut ctp_tables: Vec<Table> = Vec::new();
    let mut trees: FxHashMap<String, Vec<ResultTree>> = FxHashMap::default();
    let mut scores: FxHashMap<String, Vec<f64>> = FxHashMap::default();
    for ((ctp, outcome), col_vars) in q.ctps.iter().zip(outcomes).zip(job_cols) {
        stats
            .ctp_stats
            .push((ctp.out_var.clone(), outcome.stats.clone(), outcome.duration));

        let mut result_trees = outcome.results.into_trees();

        // Canonical materialised order (`ResultTree::canonical_cmp`):
        // the engine yields discovery order — normalising here makes
        // materialised answers (row order, tree indices, TOP-k
        // tie-breaks) independent of it, so a result replayed from the
        // cache or found under another queue order renders
        // identically. Streaming execution keeps discovery order; it
        // never passes through this function.
        result_trees.sort_by(ResultTree::canonical_cmp);

        // SCORE σ [TOP k] (§4.8): score each result and keep the k
        // best, ranked by `cs_core::score::rank` — a total order, so
        // TOP-k is a function of the result *set* alone.
        if let Some((sigma_name, top)) = &ctp.filters.score {
            #[expect(
                clippy::expect_used,
                reason = "the parser already rejected queries naming an unknown scorer, so lookup succeeds"
            )]
            let sigma = by_name(sigma_name).expect("validated by the parser");
            let scored = rank(g, result_trees, sigma.as_ref(), *top);
            scores.insert(
                ctp.out_var.clone(),
                scored.iter().map(|(s, _)| *s).collect(),
            );
            result_trees = scored.into_iter().map(|(_, t)| t).collect();
        }

        // Materialise the CTP_j table: one column per explicit seed
        // variable plus the tree variable.
        let mut columns: Vec<&str> = col_vars.iter().filter_map(|v| v.as_deref()).collect();
        columns.push(&ctp.out_var);
        let mut table = Table::with_columns(&columns);
        let mut row: Vec<Binding> = Vec::with_capacity(columns.len());
        for (ti, t) in result_trees.iter().enumerate() {
            row.clear();
            for (i, v) in col_vars.iter().enumerate() {
                if v.is_some() {
                    row.push(Binding::Node(t.seeds[i]));
                }
            }
            row.push(Binding::Tree(ti as u32));
            table.push_row(&row);
        }
        ctp_tables.push(table);
        trees.insert(ctp.out_var.clone(), result_trees);
    }
    (ctp_tables, trees, scores)
}

/// Lowers edge patterns, assigning hidden variable names to constants.
pub(crate) fn lower_patterns(q: &QueryAst) -> Vec<TriplePattern> {
    let mut hidden = 0usize;
    let mut lower = |t: &TermAst| -> Term {
        match &t.var {
            Some(v) => Term::pred(v, t.pred.clone()),
            None => {
                let name = format!("_c{hidden}");
                hidden += 1;
                Term::pred(&name, t.pred.clone())
            }
        }
    };
    q.patterns
        .iter()
        .map(|p| TriplePattern {
            src: lower(&p.src),
            edge: lower(&p.edge),
            dst: lower(&p.dst),
        })
        .collect()
}

/// Lowers a query's edge patterns and groups them into their BGP
/// components (Def. 2.4), in first-pattern order.
pub(crate) fn query_bgps(q: &QueryAst) -> Vec<Bgp> {
    let lowered = lower_patterns(q);
    pattern_components(&lowered)
        .into_iter()
        .map(|comp| {
            let mut bgp = Bgp::new();
            for idx in comp {
                let p = &lowered[idx];
                bgp.push(p.src.clone(), p.edge.clone(), p.dst.clone());
            }
            bgp
        })
        .collect()
}

/// The access-path plans step (A) would run for a query, without
/// executing anything — one [`BgpPlan`] per BGP component. This is the
/// `EXPLAIN` entry point; the same plans are recorded in
/// [`ExecStats::plans`] when the query actually runs.
pub fn explain_plan(g: &Graph, q: &QueryAst) -> Vec<BgpPlan> {
    query_bgps(q).iter().map(|b| plan_bgp(g, b)).collect()
}

/// True if CTP `ci`'s explicit seed variables occur in any BGP table
/// or in another CTP — i.e. the CTP's table participates in a join on
/// those columns, so keeping only its first result (the ASK implicit
/// `LIMIT 1`) could discard exactly the tree that joins.
pub(crate) fn ctp_shares_variables(q: &QueryAst, ci: usize, bgp_tables: &[Table]) -> bool {
    q.ctps[ci]
        .terms
        .iter()
        .filter_map(|t| t.var.as_deref())
        .any(|v| {
            bgp_tables.iter().any(|t| t.col(v).is_some())
                || q.ctps.iter().enumerate().any(|(cj, c2)| {
                    cj != ci && c2.terms.iter().any(|t2| t2.var.as_deref() == Some(v))
                })
        })
}

/// Computes the seed specs of one CTP (step B.1 of §3). Returns the
/// specs plus, per position, the variable that becomes a column of the
/// CTP table (`None` for hidden constants).
pub(crate) fn seed_specs(
    g: &Graph,
    ctp: &CtpAst,
    bgp_tables: &[Table],
) -> (Vec<SeedSpec>, Vec<Option<String>>) {
    let mut specs = Vec::with_capacity(ctp.terms.len());
    let mut cols = Vec::with_capacity(ctp.terms.len());
    for term in &ctp.terms {
        match &term.var {
            Some(v) => {
                cols.push(Some(v.clone()));
                // If v is bound by a BGP, the seed set is π_v(B_i),
                // further restricted by the predicate if present.
                let from_bgp = bgp_tables.iter().find(|t| t.col(v).is_some());
                if let Some(table) = from_bgp {
                    let mut nodes: Vec<NodeId> = table
                        .distinct_column(v)
                        .into_iter()
                        .filter_map(Binding::as_node)
                        .collect();
                    if !term.pred.is_any() {
                        nodes.retain(|&n| term.pred.matches_node(g, n));
                    }
                    specs.push(SeedSpec::Set(nodes));
                } else if term.pred.is_any() {
                    // Unbound and unconstrained: the N seed set (§4.9).
                    specs.push(SeedSpec::All);
                } else {
                    specs.push(SeedSpec::Set(matching_nodes(g, &term.pred)));
                }
            }
            None => {
                cols.push(None);
                specs.push(SeedSpec::Set(matching_nodes(g, &term.pred)));
            }
        }
    }
    (specs, cols)
}

/// The seed-set skew at which a CTP switches to the balanced
/// multi-queue policy (§4.9): the largest explicit seed set holds at
/// least this many times the nodes of the smallest.
const BALANCE_RATIO: usize = 64;

/// Chooses the queue policy (§4.9): balance when an `N` set is present
/// or explicit set sizes are skewed by [`BALANCE_RATIO`] or more.
pub(crate) fn pick_policy(seeds: &SeedSets) -> QueuePolicy {
    if !seeds.presatisfied().is_empty() {
        return QueuePolicy::Balanced;
    }
    let sizes: Vec<usize> = seeds
        .specs()
        .iter()
        .filter_map(|s| match s {
            SeedSpec::Set(v) => Some(v.len()),
            SeedSpec::All => None,
        })
        .collect();
    let (min, max) = (
        sizes.iter().copied().min().unwrap_or(1).max(1),
        sizes.iter().copied().max().unwrap_or(1),
    );
    if max / min >= BALANCE_RATIO {
        QueuePolicy::Balanced
    } else {
        QueuePolicy::Single
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::Session;
    use cs_graph::figure1;

    const Q1: &str = r#"
        SELECT x, y, z, w WHERE {
            (x : type = "entrepreneur", "citizenOf", "USA")
            (y : type = "entrepreneur", "citizenOf", "France")
            (z : type = "politician",  "citizenOf", "France")
            CONNECT(x, y, z -> w)
        }
    "#;

    #[test]
    fn pick_policy_balances_n_sets_and_64x_skew() {
        let set = |n: u32| SeedSpec::Set((0..n).map(NodeId).collect());
        let policy = |specs| pick_policy(&SeedSets::new(specs).unwrap());
        assert_eq!(policy(vec![set(1), SeedSpec::All]), QueuePolicy::Balanced);
        assert_eq!(policy(vec![set(1), set(64)]), QueuePolicy::Balanced);
        assert_eq!(policy(vec![set(1), set(63)]), QueuePolicy::Single);
    }

    #[test]
    fn q1_runs_on_figure1() {
        let g = figure1();
        let r = Session::new(&g).run(Q1).unwrap();
        assert!(r.rows() > 0, "Q1 must have answers");
        // Every row binds x to a US entrepreneur.
        let xcol = r.table.col("x").unwrap();
        for row in r.table.rows() {
            let n = row[xcol].as_node().unwrap();
            let label = g.node_label(n);
            assert!(label == "Bob" || label == "Carole", "{label}");
        }
        // The t_alpha answer (Carole, Doug, Elon) must be present.
        let (x, y, z) = (
            r.table.col("x").unwrap(),
            r.table.col("y").unwrap(),
            r.table.col("z").unwrap(),
        );
        let found = r.table.rows().any(|row| {
            g.node_label(row[x].as_node().unwrap()) == "Carole"
                && g.node_label(row[y].as_node().unwrap()) == "Doug"
                && g.node_label(row[z].as_node().unwrap()) == "Elon"
        });
        assert!(found, "t_alpha row missing");
        let rendered = r.render(&g);
        assert!(rendered.contains("Carole"));
    }

    #[test]
    fn bgp_only_query() {
        let g = figure1();
        let r = Session::new(&g)
            .run(r#"SELECT x WHERE { (x : type = "entrepreneur", "citizenOf", "USA") }"#)
            .unwrap();
        assert_eq!(r.rows(), 2); // Bob, Carole
    }

    #[test]
    fn ctp_only_query_with_constants() {
        let g = figure1();
        let r = Session::new(&g)
            .run(r#"SELECT w WHERE { CONNECT("Bob", "Carole" -> w) }"#)
            .unwrap();
        assert!(r.rows() > 0);
        // Shortest connection: Bob -citizenOf-> USA <-citizenOf- Carole
        // (2 edges).
        let trees = &r.trees["w"];
        assert!(trees.iter().any(|t| t.size() == 2));
    }

    #[test]
    fn seed_sets_from_bgp_are_restricted() {
        let g = figure1();
        // y bound by BGP to French entrepreneurs; CTP reuses y.
        let r = Session::new(&g)
            .run(
                r#"SELECT y, w WHERE {
                (y : type = "entrepreneur", "citizenOf", "France")
                CONNECT(y, "USA" -> w) LIMIT 5
            }"#,
            )
            .unwrap();
        let ycol = r.table.col("y").unwrap();
        for row in r.table.rows() {
            let label = g.node_label(row[ycol].as_node().unwrap());
            assert!(label == "Alice" || label == "Doug");
        }
    }

    #[test]
    fn score_top_k() {
        let g = figure1();
        let r = Session::new(&g)
            .run(
                r#"SELECT w WHERE {
                CONNECT("Bob", "Alice" -> w) SCORE edgecount TOP 2
            }"#,
            )
            .unwrap();
        assert!(r.rows() <= 2);
        let s = &r.scores["w"];
        assert!(s.len() <= 2);
        // Scores are sorted descending (edgecount: fewer edges first).
        assert!(s.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn max_and_limit_filters() {
        let g = figure1();
        let r = Session::new(&g)
            .run(r#"SELECT w WHERE { CONNECT("Bob", "Elon" -> w) MAX 3 LIMIT 2 }"#)
            .unwrap();
        assert!(r.rows() <= 2);
        for t in &r.trees["w"] {
            assert!(t.size() <= 3);
        }
    }

    #[test]
    fn uni_filter_via_syntax() {
        let g = figure1();
        // Bob -> USA <- Carole is NOT unidirectional (no root reaches
        // both): check UNI prunes relative to the bidirectional run.
        let bi = Session::new(&g)
            .run(r#"SELECT w WHERE { CONNECT("Bob", "USA" -> w) MAX 1 }"#)
            .unwrap();
        let uni = Session::new(&g)
            .run(r#"SELECT w WHERE { CONNECT("Bob", "USA" -> w) MAX 1 UNI }"#)
            .unwrap();
        // Bob -citizenOf-> USA is a directed path: both find it.
        assert!(bi.rows() >= 1);
        assert!(uni.rows() >= 1);
    }

    #[test]
    fn n_seed_set_query() {
        // J3-style query: one explicit set, one N set.
        let g = figure1();
        let r = Session::new(&g)
            .run(r#"SELECT w WHERE { CONNECT("Alice", anything -> w) MAX 1 }"#)
            .unwrap();
        // All 1-edge trees touching Alice (3 incident edges).
        assert_eq!(r.trees["w"].iter().filter(|t| t.size() == 1).count(), 3);
    }

    #[test]
    fn two_ctps_join_on_shared_variable() {
        let g = figure1();
        let r = Session::new(&g)
            .run(
                r#"SELECT x, w1, w2 WHERE {
                (x : type = "entrepreneur", "citizenOf", "USA")
                CONNECT(x, "France" -> w1) LIMIT 20
                CONNECT(x, "Elon" -> w2) LIMIT 20
            }"#,
            )
            .unwrap();
        assert!(r.rows() > 0);
        assert!(r.trees.contains_key("w1") && r.trees.contains_key("w2"));
    }

    #[test]
    fn empty_bgp_result_gives_empty_answer() {
        let g = figure1();
        let r = Session::new(&g).run(
            r#"SELECT x, w WHERE {
                (x : type = "robot", "citizenOf", "USA")
                CONNECT(x, "France" -> w)
            }"#,
        );
        // Empty seed set is a SeedError (the CTP can have no result).
        assert!(matches!(r, Err(EqlError::Seed(_))) || r.unwrap().rows() == 0);
    }

    #[test]
    fn components_grouping() {
        let q = parse(
            r#"SELECT x WHERE {
                (x, "r", y) (y, "s", z)
                (a, "t", b)
            }"#,
        )
        .unwrap();
        let lowered = lower_patterns(&q);
        let comps = pattern_components(&lowered);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1]);
        assert_eq!(comps[1], vec![2]);
    }
}

#[cfg(test)]
mod ask_tests {
    use super::*;
    use crate::Session;
    use cs_graph::figure1;

    #[test]
    fn ask_true_and_false() {
        let g = figure1();
        assert!(Session::new(&g)
            .ask(r#"ASK WHERE { CONNECT("Bob", "Carole" -> w) }"#)
            .unwrap());
        assert!(
            !Session::new(&g)
                .ask(r#"ASK WHERE { CONNECT("Bob", "Carole" -> w) LABEL "founded" }"#)
                .unwrap(),
            "no founded-only connection exists"
        );
        assert!(Session::new(&g)
            .ask(r#"ASK WHERE { (x, "founded", "OrgB") }"#)
            .unwrap());
    }

    #[test]
    fn ask_applies_limit_one_by_default() {
        // The CTP shares no variables with anything else, so the
        // implicit LIMIT 1 is safe and applied.
        let g = figure1();
        let res = Session::with_options(&g, ExecOptions::default())
            .run(r#"ASK WHERE { CONNECT("Bob", "Elon" -> w) }"#)
            .unwrap();
        assert_eq!(res.boolean, Some(true));
        // Only one tree computed thanks to the implicit LIMIT 1.
        assert_eq!(res.trees["w"].len(), 1);
    }

    /// Regression (ASK false negative): the implicit per-CTP `LIMIT 1`
    /// used to apply even when a CTP's seed columns join against other
    /// tables. Here both CTPs constrain `x`; each kept a single tree,
    /// and those trees bound `x` to different entrepreneurs, so the
    /// join on `x` came out empty and ASK answered false although
    /// common-`x` answers exist. The limit is now suppressed for
    /// variable-sharing CTPs.
    #[test]
    fn ask_no_false_negative_when_ctps_share_variables() {
        let g = figure1();
        let ask = r#"ASK WHERE {
            CONNECT(x : type = "entrepreneur", "USA" -> w1) MAX 2
            CONNECT(x, "France" -> w2) MAX 2
        }"#;
        // The SELECT form proves common-x answers exist…
        let sel = r#"SELECT x WHERE {
            CONNECT(x : type = "entrepreneur", "USA" -> w1) MAX 2
            CONNECT(x, "France" -> w2) MAX 2
        }"#;
        assert!(Session::new(&g).run(sel).unwrap().rows() > 0);
        // …so ASK must agree.
        assert!(Session::new(&g).ask(ask).unwrap());
    }

    /// The implicit limit is also suppressed when a CTP's seeds come
    /// from a BGP: the CTP table joins the BGP table on those columns.
    #[test]
    fn ask_with_bgp_bound_ctp_computes_all_trees() {
        let g = figure1();
        let res = Session::with_options(&g, ExecOptions::default())
            .run(
                r#"ASK WHERE {
                (x : type = "entrepreneur", "citizenOf", "USA")
                CONNECT(x, "Elon" -> w) MAX 3
            }"#,
            )
            .unwrap();
        assert_eq!(res.boolean, Some(true));
        assert!(
            res.trees["w"].len() > 1,
            "x is join-shared: no implicit LIMIT 1"
        );
    }

    #[test]
    fn ask_with_bgp_join() {
        let g = figure1();
        // Is any US entrepreneur connected to Elon within 3 edges?
        assert!(Session::new(&g)
            .ask(
                r#"ASK WHERE {
                (x : type = "entrepreneur", "citizenOf", "USA")
                CONNECT(x, "Elon" -> w) MAX 3
            }"#
            )
            .unwrap());
        // ... within 1 edge? No.
        assert!(!Session::new(&g)
            .ask(
                r#"ASK WHERE {
                (x : type = "entrepreneur", "citizenOf", "USA")
                CONNECT(x, "Elon" -> w) MAX 1
            }"#
            )
            .unwrap());
    }

    /// `SCORE … TOP 0` keeps no tree, so ASK answers false — the
    /// SELECT form has no row — although a witness exists.
    #[test]
    fn ask_honours_top_zero() {
        let g = figure1();
        let s = Session::new(&g);
        let body = r#"WHERE { CONNECT("Bob", "Elon" -> w) SCORE edgecount TOP 0 }"#;
        assert_eq!(s.run(&format!("SELECT w {body}")).unwrap().rows(), 0);
        assert!(!s.ask(&format!("ASK {body}")).unwrap());
        assert!(s
            .ask(r#"ASK WHERE { CONNECT("Bob", "Elon" -> w) SCORE edgecount TOP 1 }"#)
            .unwrap());
    }

    #[test]
    fn select_has_no_boolean() {
        let g = figure1();
        let r = Session::new(&g)
            .run(r#"SELECT x WHERE { (x, "founded", y) }"#)
            .unwrap();
        assert_eq!(r.boolean, None);
    }
}

#[cfg(test)]
mod planner_and_batching_tests {
    use super::*;
    use crate::parser::parse;
    use crate::Session;
    use cs_engine::AccessPath;
    use cs_graph::figure1;

    const Q1: &str = r#"
        SELECT x, y, z, w WHERE {
            (x : type = "entrepreneur", "citizenOf", "USA")
            (y : type = "entrepreneur", "citizenOf", "France")
            (z : type = "politician",  "citizenOf", "France")
            CONNECT(x, y, z -> w)
        }
    "#;

    #[test]
    fn explain_plan_picks_labelled_runs_on_q1() {
        let g = figure1();
        let q = parse(Q1).unwrap();
        let plans = explain_plan(&g, &q);
        assert_eq!(plans.len(), 3, "three BGP components");
        // The exact citizenOf runs of the cheaper pinned side: USA's 2,
        // France's 3, and the politician type pin's 1.
        let expected = [
            (false, "USA", 2),
            (false, "France", 3),
            (true, "politician", 1),
        ];
        for (p, (side, pin, est)) in plans.iter().zip(expected) {
            assert!(
                matches!(&p.steps[0].access,
                    AccessPath::LabelledRun { on_src, key, label }
                        if *on_src == side && key == pin && label == "citizenOf"),
                "expected the {pin} citizenOf run, got {p}"
            );
            assert_eq!(p.steps[0].estimate, est);
        }
    }

    #[test]
    fn exec_stats_record_the_plans() {
        let g = figure1();
        let r = Session::with_options(&g, ExecOptions::default())
            .run(Q1)
            .unwrap();
        assert_eq!(r.stats.plans.len(), 3);
        let rendered = r.stats.plans[0].to_string();
        assert!(rendered.contains("LabelledRun"), "{rendered}");
    }

    #[test]
    fn execute_rejects_duplicate_out_vars() {
        let g = figure1();
        let mk = || CtpAst {
            terms: vec![TermAst::constant("Bob"), TermAst::constant("Elon")],
            out_var: "w".into(),
            filters: Default::default(),
            algorithm: None,
        };
        let q = QueryAst {
            form: QueryForm::Select,
            head: vec!["w".into()],
            patterns: Vec::new(),
            ctps: vec![mk(), mk()],
        };
        let err = Session::with_options(&g, ExecOptions::default())
            .prepare_ast(q)
            .unwrap_err();
        assert!(matches!(err, EqlError::Validate(_)));
        assert!(
            err.to_string().contains("duplicate CTP output variable"),
            "{err}"
        );
    }
}
