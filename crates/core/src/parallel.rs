//! Parallel CTP evaluation across independent searches.
//!
//! The paper notes (§6) that a multi-threaded C++ version of GAM gains
//! up to 100×. Here parallelism is **per CTP**: independent CTP jobs
//! (a multi-CTP query, a cross-query batch, a benchmark workload) are
//! distributed over a [`std::thread::scope`] with an atomic cursor.
//! Each job runs on the sequential GAM-family engine, so jobs share
//! the graph and nothing else — no history, no queue.

use crate::algo::{evaluate_ctp_with_policy, Algorithm};
use crate::config::{Filters, QueueOrder, QueuePolicy};
use crate::result::SearchOutcome;
use crate::seeds::SeedSets;
use cs_graph::Graph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One independent CTP evaluation job.
#[derive(Clone)]
pub struct CtpJob {
    /// The seed sets.
    pub seeds: SeedSets,
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// The CTP filters.
    pub filters: Filters,
    /// Exploration order.
    pub order: QueueOrder,
    /// Queue policy.
    pub policy: QueuePolicy,
}

impl CtpJob {
    /// A MoLESP job with default order/policy.
    pub fn molesp(seeds: SeedSets, filters: Filters) -> Self {
        CtpJob {
            seeds,
            algorithm: Algorithm::MoLesp,
            filters,
            order: QueueOrder::SmallestFirst,
            policy: QueuePolicy::Single,
        }
    }
}

/// Resolves a `0 = auto` thread count to the available parallelism.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Evaluates one CTP job on the sequential engine — the single
/// engine-routing point shared by every dispatch path (pooled or
/// inline).
pub fn evaluate_job(g: &Graph, job: &CtpJob) -> SearchOutcome {
    evaluate_ctp_with_policy(
        g,
        &job.seeds,
        job.algorithm,
        job.filters.clone(),
        job.order.clone(),
        job.policy,
    )
}

/// Evaluates independent CTP jobs over one shared graph on up to
/// `threads` worker threads (0 = available parallelism). Outcomes are
/// returned in job order, each in the sequential engine's discovery
/// order. When that resolves to a single worker — one thread, or at
/// most one job — the jobs run in-line on the calling thread, so a
/// single-CPU host or a one-CTP query pays for no worker thread.
pub fn evaluate_ctps_parallel(g: &Graph, jobs: &[CtpJob], threads: usize) -> Vec<SearchOutcome> {
    let workers = resolve_threads(threads).min(jobs.len());
    if workers <= 1 {
        return jobs.iter().map(|j| evaluate_job(g, j)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SearchOutcome>>> =
        (0..jobs.len()).map(|_| Mutex::new(None)).collect();

    #[expect(
        clippy::disallowed_methods,
        reason = "L004: cs_core::parallel is one of the two modules that spawn threads"
    )]
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // ORDERING: ticket dispenser; the atomic RMW alone
                // guarantees each job index is claimed exactly once,
                // and slot writes are published by the scope join.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let outcome = evaluate_job(g, &jobs[i]);
                #[expect(
                    clippy::unwrap_used,
                    reason = "one writer per slot, so the lock is never poisoned; a panic here aborts the run"
                )]
                let mut slot = slots[i].lock().unwrap();
                *slot = Some(outcome);
            });
        }
    });

    #[expect(
        clippy::unwrap_used,
        clippy::expect_used,
        reason = "a worker panic already propagated via the scope join, so every slot is unpoisoned and filled here"
    )]
    let outcomes = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("job completed"))
        .collect();
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::evaluate_ctp;
    use cs_graph::generate::{chain, line, star};

    #[test]
    fn parallel_matches_sequential() {
        let ws = [line(3, 2), star(4, 2), chain(5), line(2, 5)];
        let g = &ws[0].graph; // jobs share a graph: reuse the first
        let jobs: Vec<CtpJob> = (0..8)
            .map(|i| {
                CtpJob::molesp(
                    SeedSets::from_sets(ws[0].seeds.clone()).unwrap(),
                    Filters::none().with_max_edges(4 + i % 3),
                )
            })
            .collect();
        let outs = evaluate_ctps_parallel(g, &jobs, 4);
        assert_eq!(outs.len(), 8);
        for (job, out) in jobs.iter().zip(&outs) {
            let seq = evaluate_ctp(
                g,
                &job.seeds,
                job.algorithm,
                job.filters.clone(),
                QueueOrder::SmallestFirst,
            );
            assert_eq!(out.results.canonical(), seq.results.canonical());
        }
    }

    #[test]
    fn zero_threads_means_auto() {
        let w = star(3, 2);
        let jobs = vec![CtpJob::molesp(
            SeedSets::from_sets(w.seeds.clone()).unwrap(),
            Filters::none(),
        )];
        let outs = evaluate_ctps_parallel(&w.graph, &jobs, 0);
        assert_eq!(outs[0].results.len(), 1);
    }

    #[test]
    fn more_threads_than_jobs() {
        let w = line(3, 1);
        let jobs = vec![CtpJob::molesp(
            SeedSets::from_sets(w.seeds.clone()).unwrap(),
            Filters::none(),
        )];
        let outs = evaluate_ctps_parallel(&w.graph, &jobs, 16);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].results.len(), 1);
    }

    #[test]
    fn empty_job_list() {
        let w = line(2, 1);
        let outs = evaluate_ctps_parallel(&w.graph, &[], 4);
        assert!(outs.is_empty());
    }
}
