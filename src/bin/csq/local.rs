//! Local mode: `csq <graph-source> <query|@query-file> [flags]` runs
//! queries in-process through one [`Session`], so every query (and
//! every `--batch` member) shares its plan and result caches.
//!
//! The README's `csq` flags list describes `--explain`, `--stats`,
//! `--batch`, `--graph` and `--stream`. `--result-cache off`
//! disables the cross-query result cache and `--result-cache-capacity
//! N` sizes its LRU; `--stats` then reports its hit / miss / subsumed /
//! trees-filtered counters per query, and `--explain` prints one
//! `magic seeds:` line per seed set narrowed by shared-variable
//! intersection. `--timeout-ms N` is the *hard* per-query deadline
//! ([`ExecOptions::deadline`]): unlike the per-CTP soft `--timeout`,
//! which keeps the partial results found in time, an exceeded deadline
//! fails the query with a one-line `error: deadline exceeded`.

use crate::{report_query_error, split_queries, target_and_query};
use connection_search::args::{exec_flag, Args, CliError, Flag, NUMBER};
use connection_search::core::SearchStats;
use connection_search::eql::{ExecOptions, ExecStats, QueryResult};
use connection_search::graph::{load_graph, Graph};
use connection_search::Session;
use std::process::ExitCode;
use std::time::Duration;

const FLAGS: &[Flag] = &[
    Flag::Positional("--demo"),
    Flag::Value("--graph", "a file path"),
    Flag::Value("--algorithm", "a name"),
    Flag::Value("--timeout", NUMBER),
    Flag::Value("--timeout-ms", NUMBER),
    Flag::Value("--result-cache", "on|off"),
    Flag::Value("--result-cache-capacity", NUMBER),
    Flag::Switch("--stats"),
    Flag::Switch("--explain"),
    Flag::Switch("--batch"),
    Flag::Switch("--stream"),
];

/// Runs local mode. The graph source is the first positional argument
/// or the value of `--graph`.
pub fn run(argv: &[String]) -> Result<ExitCode, CliError> {
    if argv.len() < 2 {
        return Err(CliError::Usage);
    }
    let mut args = Args::new(argv, FLAGS, 2);
    let mut opts = ExecOptions::default();
    let (mut show_stats, mut show_plan, mut batch, mut stream) = (false, false, false, false);
    while let Some(arg) = args.next_flag()? {
        match arg.flag {
            "--graph" if !args.positionals.is_empty() => {
                return Err("graph source given twice (positional and --graph)".into())
            }
            "--graph" => args.push_positional(arg.value)?,
            "--stats" => show_stats = true,
            "--explain" => show_plan = true,
            "--batch" => batch = true,
            "--stream" => stream = true,
            _ => exec_flag(&mut opts, &arg)?,
        }
    }
    if batch && stream {
        return Err("--stream streams a single query and cannot be combined with --batch".into());
    }
    let (source, query) = target_and_query(&args)?;

    let session = Session::from_graph_with(load_graph(source)?, opts);
    let graph = session.graph();

    if stream {
        let started = session
            .prepare(&query)
            .and_then(|prepared| session.execute_streaming(&prepared));
        let mut result_stream = match started {
            Ok(s) => s,
            Err(e) => {
                report_query_error(&e);
                return Ok(ExitCode::FAILURE);
            }
        };
        if show_plan {
            report_plans(result_stream.exec_stats());
        }
        println!("{}", result_stream.out_var());
        let mut n = 0usize;
        for tree in result_stream.by_ref() {
            println!("[{}]", tree.describe(graph));
            n += 1;
        }
        eprintln!("{n} tree(s) streamed");
        if show_stats {
            report_ctp_stats(
                result_stream.out_var(),
                result_stream.stats(),
                result_stream.elapsed(),
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    // A single query is a batch of one, without the batch's headers.
    let queries = match batch {
        true => split_queries(&query),
        false => vec![query.as_str()],
    };
    if queries.is_empty() {
        return Err("--batch input contains no queries".into());
    }
    let results = session.execute_batch(&queries);
    let mut failed = false;
    for (qi, (text, result)) in queries.iter().zip(&results).enumerate() {
        if batch {
            eprintln!("-- query {} of {} --", qi + 1, results.len());
        }
        match result {
            Ok(r) => report(graph, r, show_plan, show_stats),
            Err(e) => {
                report_query_error(e);
                if batch {
                    eprintln!("  in: {}", text.trim());
                }
                failed = true;
            }
        }
    }
    if batch && (show_stats || show_plan) {
        eprintln!(
            "session plan cache: {} hit(s), {} miss(es), {} cached plan(s)",
            session.plan_cache_hits(),
            session.plan_cache_misses(),
            session.plan_cache_len()
        );
        let rc = session.result_cache_counters();
        eprintln!(
            "session result cache: {} hit(s), {} miss(es), {} subsumed, \
             {} tree(s) filtered, {} cached result(s)",
            rc.hits,
            rc.misses,
            rc.subsumed,
            rc.trees_filtered,
            session.result_cache_len()
        );
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Prints a query's step-(A) plans and plan-cache counters to stderr
/// (the `--explain` view, shared by the materialised and stream
/// paths).
fn report_plans(stats: &ExecStats) {
    for (i, plan) in stats.plans.iter().enumerate() {
        let cached = if plan.cached { ", cached" } else { "" };
        eprintln!(
            "BGP {i} plan (est {} rows scanned{cached}):",
            plan.total_estimate()
        );
        eprint!("{plan}");
    }
    eprintln!(
        "plan cache: {} hit(s), {} miss(es)",
        stats.plan_cache_hits, stats.plan_cache_misses
    );
    for n in &stats.seed_narrowings {
        eprintln!(
            "magic seeds: CTP {} seed {} narrowed {} -> {} node(s)",
            n.ctp, n.var, n.from, n.to
        );
    }
}

/// Prints one CTP search's stats line to stderr — the same line for a
/// materialised query and a `--stream` run.
fn report_ctp_stats(var: &str, stats: &SearchStats, took: Duration) {
    eprintln!("CTP {var} ({took:?}): {stats}");
}

/// Prints one query's result (and optional plan/stats views) to
/// stdout/stderr.
fn report(graph: &Graph, result: &QueryResult, show_plan: bool, show_stats: bool) {
    if show_plan {
        report_plans(&result.stats);
    }
    print!("{}", result.render(graph));
    eprintln!("{} row(s)", result.rows());
    if show_stats {
        eprintln!(
            "total {:?} | bgp {:?} | ctp {:?} | join {:?}",
            result.stats.total_time,
            result.stats.bgp_time,
            result.stats.ctp_time,
            result.stats.join_time
        );
        eprintln!(
            "result cache: {} hit(s), {} miss(es), {} subsumed, {} tree(s) filtered",
            result.stats.result_cache_hits,
            result.stats.result_cache_misses,
            result.stats.result_cache_subsumed,
            result.stats.result_cache_trees_filtered
        );
        for (var, s, d) in &result.stats.ctp_stats {
            report_ctp_stats(var, s, *d);
        }
    }
}
