//! One in-process read — `Session::prepare`, `Session::execute`,
//! `QueryResult::render` — with its spans and the counters the public
//! API returns (`ExecStats`, `SearchStats`).

use crate::check::Digest;
use crate::trace::Tracer;
use cs_eql::{explain_plan, ExecStats, QueryResult, Session};
use std::time::Duration;

/// Counters summed over the reads of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ReadCounters {
    /// Reads executed.
    pub ops: u64,
    /// Provenances kept by the searches.
    pub provenances: u64,
    /// (tree, edge) pairs pushed to the search queues.
    pub queue_pushes: u64,
    /// Candidates the search history discarded.
    pub pruned: u64,
    /// Connecting trees returned.
    pub results: u64,
    /// Reads with a timed-out, budget-exhausted or cancelled search.
    pub incomplete: u64,
    /// Rows the BGP plans expected to scan (`BgpPlan::total_estimate`).
    pub bgp_rows: u64,
    /// Plans served from the session's plan cache.
    pub plan_hits: u64,
    /// Plans built from scratch.
    pub plan_misses: u64,
    /// CTP searches answered by an exact result-cache hit.
    pub rc_hits: u64,
    /// CTP searches the result cache could not answer.
    pub rc_misses: u64,
    /// CTP searches answered by subsumption.
    pub rc_subsumed: u64,
    /// Cached trees filtered out by subsumption hits.
    pub rc_filtered: u64,
    /// Seed-set sizes before magic-set narrowing.
    pub narrow_from: u64,
    /// Seed-set sizes after narrowing.
    pub narrow_to: u64,
    /// Time in step A (BGP evaluation), as `ExecStats` reports it.
    pub bgp: Duration,
    /// Step B time (CTP search).
    pub search: Duration,
    /// Step C time (join and projection).
    pub join: Duration,
}

impl ReadCounters {
    fn add(&mut self, r: &QueryResult) {
        let s: &ExecStats = &r.stats;
        self.ops += 1;
        for (_, st, _) in &s.ctp_stats {
            self.provenances += st.provenances;
            self.queue_pushes += st.queue_pushes;
            self.pruned += st.pruned;
        }
        self.results += r.trees.values().map(|t| t.len() as u64).sum::<u64>();
        self.bgp_rows += s
            .plans
            .iter()
            .map(|p| p.total_estimate() as u64)
            .sum::<u64>();
        self.plan_hits += s.plan_cache_hits;
        self.plan_misses += s.plan_cache_misses;
        self.rc_hits += s.result_cache_hits;
        self.rc_misses += s.result_cache_misses;
        self.rc_subsumed += s.result_cache_subsumed;
        self.rc_filtered += s.result_cache_trees_filtered;
        for n in &s.seed_narrowings {
            self.narrow_from += n.from as u64;
            self.narrow_to += n.to as u64;
        }
        self.bgp += s.bgp_time;
        self.search += s.ctp_time;
        self.join += s.join_time;
    }

    /// The counts that must repeat exactly for one seed, divided by ops.
    pub fn exact(&self) -> (f64, f64) {
        let ops = self.ops.max(1) as f64;
        (self.provenances as f64 / ops, self.bgp_rows as f64 / ops)
    }
}

/// True if any search of `r` stopped early.
fn incomplete(r: &QueryResult) -> bool {
    r.stats
        .ctp_stats
        .iter()
        .any(|(_, s, _)| s.timed_out || s.budget_exhausted || s.cancelled)
}

/// Runs one read and returns the digest of its rendered answer. An
/// incomplete search is an error.
pub fn read(
    session: &Session<'_>,
    text: &str,
    tr: &mut Tracer,
    acc: &mut ReadCounters,
) -> Result<Digest, String> {
    let op = tr.begin_op();
    let s = tr.enter("prepare", op);
    let prepared = session.prepare(text).map_err(|e| e.to_string())?;
    tr.exit(s);
    if tr.is_on() {
        // Planning alone, through the EXPLAIN entry point; traced runs only.
        let s = tr.enter("plan", op);
        std::hint::black_box(explain_plan(session.graph(), prepared.ast()));
        tr.exit(s);
    }
    let s = tr.enter("execute", op);
    let r = session.execute(&prepared).map_err(|e| e.to_string())?;
    tr.exit(s);
    tr.child(s, "bgp", r.stats.bgp_time);
    tr.child(s, "search", r.stats.ctp_time);
    tr.child(s, "join", r.stats.join_time);
    let s = tr.enter("render", op);
    let text = r.render(session.graph());
    tr.exit(s);
    tr.exit(op);
    acc.add(&r);
    if incomplete(&r) {
        acc.incomplete += 1;
        return Err("search stopped before completing".into());
    }
    Ok(Digest::of(r.rows() as u64, &text))
}

/// Runs one read outside any measurement and returns its digest and
/// provenance count — the set-up side of the output check.
pub fn expect(session: &Session<'_>, text: &str) -> Result<(Digest, u64), String> {
    let r = session.run(text).map_err(|e| format!("{e}: {text}"))?;
    if incomplete(&r) {
        return Err(format!("search stopped before completing: {text}"));
    }
    let prov = r
        .stats
        .ctp_stats
        .iter()
        .map(|(_, s, _)| s.provenances)
        .sum();
    Ok((
        Digest::of(r.rows() as u64, &r.render(session.graph())),
        prov,
    ))
}
