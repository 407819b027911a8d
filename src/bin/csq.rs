//! `csq` — the connection-search query CLI.
//!
//! ```text
//! csq <graph-source> <query-or-@file> [--algorithm NAME] [--timeout MS]
//!     [--timeout-ms N] [--threads N] [--result-cache on|off]
//!     [--result-cache-capacity N] [--stats] [--explain] [--batch] [--stream]
//! csq --graph <file.csg> <query-or-@file> [...]   # same, source as a flag
//! csq snapshot save <gen-spec|graph-file> <out.csg>
//! csq snapshot inspect <file.csg>
//! csq connect <addr> <query-or-@file> [--tenant T] [--timeout-ms N]
//!     [--batch] [--cancel-after-ms N] [--stats]
//! csq bench-serve <addr> <query-or-@file> [--qps N] [--duration-ms N]
//!     [--connections K] [--tenant T] [--timeout-ms N]
//! csq watch <graph-source> <query-or-@file> [--script FILE] [--stats]
//!     [--threads N] [--result-cache on|off]
//! ```
//!
//! A *graph source* is `--demo` (the Figure 1 graph), a CSG2 binary
//! snapshot (`cs_graph::snapshot`; a `.csg` file, or any file with the
//! snapshot magic), a generator spec
//! (`gen:scale_free:nodes=2000,seed=7`, see
//! `cs_graph::generate::from_spec`), or a tab-separated triples file
//! (`cs_graph::ntriples`), resolved by `cs_graph::load_graph`.
//! Snapshots are memory-mapped where the host allows and carry their
//! statistics section, so the BGP planner starts warm — no first-query
//! stats pass.
//!
//! The dataset workflow: `csq snapshot save` materialises a generator
//! spec or parsed graph file as a CSG2 snapshot (statistics sidecar
//! included); `csq snapshot inspect` prints its sections, counts, and
//! whether statistics are present; `--graph file.csg` then serves
//! queries from the pinned dataset.
//!
//! `--threads N` sets the worker budget for evaluating independent
//! CTPs in parallel (0 = available parallelism; each search itself
//! runs sequentially); `--explain` prints the access-path plan of each
//! BGP (with plan-cache hits) before the results; `--batch` treats the query input as several
//! `;`-separated queries, executed through one [`Session`] so
//! structurally identical BGPs share cached plans and all CTP jobs go
//! through a single parallel dispatch; `--stream` pulls a single-CTP
//! SELECT through [`Session::execute_streaming`], printing each
//! connecting tree as the search produces it.
//!
//! `--result-cache off` disables the session's cross-query result
//! cache (`cs_eql::result_cache`); `--result-cache-capacity N` sets
//! how many CTP result sets the LRU retains (default
//! `DEFAULT_RESULT_CACHE_CAPACITY`). `--stats` then reports the hit
//! / miss / subsumed / trees-filtered counters per query, and
//! `--explain` additionally prints one `magic seeds:` line per seed
//! set narrowed by shared-variable (magic-set) intersection.
//!
//! `--timeout-ms N` is the *hard* per-query deadline
//! ([`ExecOptions::deadline`]): unlike the per-CTP soft `--timeout`
//! (which keeps the partial results found in time), an exceeded
//! deadline fails the query with a typed `DeadlineExceeded` — a
//! one-line `error: deadline exceeded` and a non-zero exit.
//!
//! `csq watch` registers one or more standing `SELECT` queries
//! (`;`-separated, like `--batch`) over a live graph and drives it
//! with a mutation script (`--script FILE`, or stdin). Script lines —
//! `node <label> [type…]`, `edge <src> <label> <dst>`,
//! `del <src> <label> <dst>`, and `commit` — accumulate into batches;
//! each `commit` applies the batch through [`Session::mutate`] (one
//! generation bump), polls every watch, and prints the per-watch
//! result deltas as `watch I + row` / `watch I - row` lines. Node
//! references are exact node labels or raw `n<ID>` ids; an `edge` may
//! reference nodes introduced by earlier `node` lines of the *same*
//! batch, while `del` resolves against the last committed state.
//! `--stats` additionally reports on stderr how each unchanged poll
//! was decided (generation check, label footprint, delta reach probe
//! — see `cs_eql::watch`).
//!
//! `csq connect` runs the same query loop against a `csqd` server
//! (`cs_server::Client`), printing results identically to local mode;
//! `--cancel-after-ms N` fires a cooperative cancel frame mid-query
//! from a second socket handle. `csq bench-serve` is an open-loop
//! load generator: it schedules requests at a target QPS across K
//! connections, collects a latency histogram, and reports p50/p95/p99
//! and achieved QPS.
//!
//! The exit code is non-zero when the graph cannot be loaded, a
//! snapshot cannot be saved or read, a query fails to parse, or
//! execution errors — including any query of a batch. I/O and decode
//! failures are one-line `error:` messages, never panics.

use connection_search::core::Algorithm;
use connection_search::eql::{EqlError, ExecOptions, QueryResult, ResultCacheMode, WatchSkip};
use connection_search::graph::{load_graph, snapshot, Graph, Mutation, NodeId};
use connection_search::server::{Client, ClientError, ErrorCode, LatencyHistogram, RequestHeader};
use connection_search::Session;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage: csq <graph-source|--demo> <query|@query-file> \
         [--algorithm NAME] [--timeout MS] [--timeout-ms N] [--threads N] \
         [--result-cache on|off] [--result-cache-capacity N] [--stats] \
         [--explain] [--batch] [--stream]\n       \
         csq --graph <file.csg> <query|@query-file> [...]\n       \
         csq snapshot save <gen-spec|graph-file> <out.csg>\n       \
         csq snapshot inspect <file.csg>\n       \
         csq connect <host:port> <query|@query-file> [--tenant T] \
         [--timeout-ms N] [--batch] [--cancel-after-ms N] [--stats]\n       \
         csq bench-serve <host:port> <query|@query-file> [--qps N] \
         [--duration-ms N] [--connections K] [--tenant T] [--timeout-ms N]\n       \
         csq watch <graph-source> <query|@query-file> [--script FILE] \
         [--stats] [--threads N] [--result-cache on|off]\n\
         graph sources: --demo | file.csg | gen:<family:key=value,...> | triples file"
    );
    ExitCode::from(2)
}

/// Prints a one-line error and returns the failure exit code.
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

/// Prints a query-execution failure: the typed control errors
/// (deadline, cancellation) are plain one-line `error:` messages; real
/// query errors keep the `query error:` prefix.
fn report_query_error(e: &EqlError) {
    match e {
        EqlError::DeadlineExceeded | EqlError::Cancelled => eprintln!("error: {e}"),
        other => eprintln!("query error: {other}"),
    }
}

/// Reads `<query|@query-file>` input.
fn read_query_arg(arg: &str) -> Result<String, String> {
    match arg.strip_prefix('@') {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read query file {path}: {e}"))
        }
        None => Ok(arg.to_string()),
    }
}

/// Parses the numeric value of `flag` at `args[i + 1]`. Missing or
/// non-numeric values are a clear one-line error, not a usage dump (or
/// worse, a panic).
fn numeric_flag<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, String> {
    let Some(raw) = args.get(i + 1) else {
        return Err(format!("{flag} expects a number, but none was given"));
    };
    raw.parse::<T>()
        .map_err(|_| format!("{flag} expects a number, got {raw:?}"))
}

/// The `csq snapshot <save|inspect> ...` subcommand.
fn snapshot_command(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("save") => {
            let (Some(input), Some(out)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            if args.len() > 3 {
                return usage();
            }
            let graph = match load_graph(input) {
                Ok(g) => g,
                Err(e) => return fail(e),
            };
            match snapshot::save_to(&graph, out) {
                Ok(info) => {
                    print!("wrote {out}: {info}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        Some("inspect") => {
            let Some(file) = args.get(1) else {
                return usage();
            };
            if args.len() > 2 {
                return usage();
            }
            match snapshot::inspect(file) {
                Ok(info) => {
                    print!("{file}: {info}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        _ => usage(),
    }
}

/// One un-committed mutation batch of the `csq watch` script loop.
#[derive(Default)]
struct PendingBatch {
    ops: Vec<Mutation>,
    /// Labels of nodes inserted by this batch, mapped to the ids
    /// `Graph::apply` will assign them (sequential from the committed
    /// node count), so later `edge` lines of the batch can reference
    /// them by name.
    names: std::collections::HashMap<String, NodeId>,
    /// Nodes inserted so far in this batch.
    inserted: usize,
    /// Edges already claimed by `del` lines of this batch, so two
    /// identical `del` lines remove two parallel edges, not one twice.
    deleted: std::collections::HashSet<connection_search::graph::EdgeId>,
}

/// Resolves a script node reference: a label introduced by a pending
/// `node` line, a raw `n<ID>` id, or an exact committed node label.
fn resolve_script_node(g: &Graph, batch: &PendingBatch, tok: &str) -> Result<NodeId, String> {
    if let Some(&n) = batch.names.get(tok) {
        return Ok(n);
    }
    if let Some(raw) = tok.strip_prefix('n') {
        if let Ok(idx) = raw.parse::<u32>() {
            if (idx as usize) < g.node_count() + batch.inserted {
                return Ok(NodeId(idx));
            }
            return Err(format!(
                "node id n{idx} out of range (graph has {} nodes)",
                g.node_count() + batch.inserted
            ));
        }
    }
    g.node_by_label(tok)
        .ok_or_else(|| format!("no node labelled {tok:?} (and not an n<ID> reference)"))
}

/// Finds one live committed edge `src -label-> dst` not already
/// claimed by this batch.
fn resolve_script_edge(
    g: &Graph,
    batch: &PendingBatch,
    src: NodeId,
    label: &str,
    dst: NodeId,
) -> Result<connection_search::graph::EdgeId, String> {
    let describe = || format!("{} -{label}-> {}", g.node_label(src), g.node_label(dst));
    let Some(lid) = g.label_id(label) else {
        return Err(format!("no committed edge {}", describe()));
    };
    g.outgoing(src)
        .map(|a| a.edge())
        .find(|&e| {
            let ed = g.edge(e);
            ed.label == lid && ed.dst == dst && !batch.deleted.contains(&e)
        })
        .ok_or_else(|| format!("no committed edge {}", describe()))
}

/// The `csq watch` subcommand: registers standing queries over a live
/// graph and applies a mutation script, printing per-generation result
/// deltas after every `commit`.
fn watch_command(args: &[String]) -> ExitCode {
    let mut source: Option<&str> = None;
    let mut query_arg: Option<&str> = None;
    let mut script_path: Option<&str> = None;
    let mut opts = ExecOptions::default();
    let mut show_stats = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--script" => {
                let Some(path) = args.get(i + 1) else {
                    return fail("--script expects a file path (or -), but none was given");
                };
                script_path = Some(path);
                i += 2;
            }
            "--threads" => {
                match numeric_flag::<usize>(args, i, "--threads") {
                    Ok(n) => opts.threads = n,
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--result-cache" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("on") => opts.result_cache = ResultCacheMode::On,
                    Some("off") => opts.result_cache = ResultCacheMode::Off,
                    Some(other) => {
                        return fail(format!("--result-cache expects on|off, got {other:?}"))
                    }
                    None => return fail("--result-cache expects on|off, but none was given"),
                }
                i += 2;
            }
            "--stats" => {
                show_stats = true;
                i += 1;
            }
            other => {
                if other.starts_with("--") && other != "--demo" {
                    return usage();
                }
                if source.is_none() {
                    source = Some(other);
                } else if query_arg.is_none() {
                    query_arg = Some(other);
                } else {
                    return usage();
                }
                i += 1;
            }
        }
    }
    let (Some(source), Some(query_arg)) = (source, query_arg) else {
        return usage();
    };
    let query = match read_query_arg(query_arg) {
        Ok(q) => q,
        Err(e) => return fail(e),
    };

    // Watching mutates the graph, so the session must own it. A
    // snapshot source stays memory-mapped: mutations go to the graph's
    // copy-on-write overlay, and the statistics sidecar rides along.
    let mut session = match load_graph(source) {
        Ok(g) => connection_search::Session::from_graph_with(g, opts),
        Err(e) => return fail(e),
    };

    let queries = split_queries(&query);
    if queries.is_empty() {
        return fail("watch input contains no queries");
    }
    let mut watches = Vec::with_capacity(queries.len());
    for (wi, text) in queries.iter().enumerate() {
        match session.watch(text) {
            Ok(w) => {
                eprintln!(
                    "watch {wi}: {} baseline row(s) at generation {}",
                    w.rows().len(),
                    w.generation()
                );
                watches.push(w);
            }
            Err(e) => {
                report_query_error(&e);
                eprintln!("  in: {}", text.trim());
                return ExitCode::FAILURE;
            }
        }
    }

    let reader: Box<dyn std::io::BufRead> = match script_path {
        None | Some("-") => Box::new(std::io::stdin().lock()),
        Some(path) => match std::fs::File::open(path) {
            Ok(f) => Box::new(std::io::BufReader::new(f)),
            Err(e) => return fail(format!("cannot read script {path}: {e}")),
        },
    };

    let mut batch = PendingBatch::default();
    for (lineno, line) in std::io::BufRead::lines(reader).enumerate() {
        let lineno = lineno + 1;
        let line = match line {
            Ok(l) => l,
            Err(e) => return fail(format!("script read error: {e}")),
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let bad = |msg: String| format!("script line {lineno}: {msg}");
        match toks[0] {
            "node" => {
                let Some(label) = toks.get(1) else {
                    return fail(bad("node expects: node <label> [type ...]".into()));
                };
                let id = NodeId::new(session.graph().node_count() + batch.inserted);
                batch.names.insert((*label).to_string(), id);
                batch.inserted += 1;
                batch.ops.push(Mutation::InsertNode {
                    label: (*label).to_string(),
                    types: toks[2..].iter().map(|s| s.to_string()).collect(),
                });
            }
            "edge" | "del" => {
                let [_, s, l, d] = toks[..] else {
                    return fail(bad(format!(
                        "{} expects: {} <src> <label> <dst>",
                        toks[0], toks[0]
                    )));
                };
                let g = session.graph();
                let (src, dst) = match (
                    resolve_script_node(g, &batch, s),
                    resolve_script_node(g, &batch, d),
                ) {
                    (Ok(src), Ok(dst)) => (src, dst),
                    (Err(e), _) | (_, Err(e)) => return fail(bad(e)),
                };
                if toks[0] == "edge" {
                    batch.ops.push(Mutation::InsertEdge {
                        src,
                        label: l.to_string(),
                        dst,
                    });
                } else {
                    match resolve_script_edge(g, &batch, src, l, dst) {
                        Ok(e) => {
                            batch.deleted.insert(e);
                            batch.ops.push(Mutation::RemoveEdge { edge: e });
                        }
                        Err(e) => return fail(bad(e)),
                    }
                }
            }
            "commit" => {
                if toks.len() > 1 {
                    return fail(bad("commit takes no arguments".into()));
                }
                if let Err(e) = commit_and_poll(&mut session, &mut batch, &mut watches, show_stats)
                {
                    return fail(bad(e));
                }
            }
            other => {
                return fail(bad(format!(
                    "unknown op {other:?} (expected node, edge, del, or commit)"
                )))
            }
        }
    }
    // A trailing un-committed batch commits implicitly at EOF.
    if !batch.ops.is_empty() {
        if let Err(e) = commit_and_poll(&mut session, &mut batch, &mut watches, show_stats) {
            return fail(e);
        }
    }
    ExitCode::SUCCESS
}

/// Applies the pending batch through the session and polls every
/// watch, printing `watch I + row` / `watch I - row` delta lines to
/// stdout (and, with `--stats`, how unchanged polls were decided to
/// stderr).
fn commit_and_poll(
    session: &mut connection_search::Session<'_>,
    batch: &mut PendingBatch,
    watches: &mut [connection_search::eql::Watch],
    show_stats: bool,
) -> Result<(), String> {
    let ops = std::mem::take(&mut batch.ops);
    *batch = PendingBatch::default();
    if ops.is_empty() {
        eprintln!("commit: empty batch, nothing to apply");
        return Ok(());
    }
    let applied = session.mutate(ops).map_err(|e| e.to_string())?;
    println!(
        "-- generation {} (+{} node(s), +{} edge(s), -{} edge(s)){} --",
        applied.generation,
        applied.nodes.len(),
        applied.edges.len(),
        applied.removed,
        if applied.compacted { ", compacted" } else { "" }
    );
    for (wi, w) in watches.iter_mut().enumerate() {
        let delta = w.poll(session).map_err(|e| e.to_string())?;
        for row in &delta.added {
            println!("watch {wi} + {row}");
        }
        for row in &delta.removed {
            println!("watch {wi} - {row}");
        }
        if delta.is_empty() && show_stats {
            let how = match delta.skipped {
                Some(WatchSkip::Unchanged) => "generation unchanged".to_string(),
                Some(WatchSkip::LabelsDisjoint) => "mutated labels disjoint".to_string(),
                Some(WatchSkip::DeltaUnreachable) => {
                    format!("delta unreachable, probe visited {}", delta.probe_visited)
                }
                None => "re-evaluated, answer unchanged".to_string(),
            };
            eprintln!("watch {wi}: no change ({how})");
        }
    }
    Ok(())
}

/// Splits batch input on `;` separators outside double-quoted strings,
/// dropping empty segments.
fn split_queries(input: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in input.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            ';' if !in_string => {
                out.push(&input[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&input[start..]);
    out.retain(|q| !q.trim().is_empty());
    out
}

/// Prints a query's step-(A) plans and plan-cache counters to stderr
/// (the `--explain` view, shared by the materialised and stream
/// paths).
fn report_plans(stats: &connection_search::eql::ExecStats) {
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
            eprintln!(
                "CTP {var}: {} provenances, {} grows, {} merges, {} pruned, {:?}{}",
                s.provenances,
                s.grows,
                s.merges,
                s.pruned,
                d,
                if s.timed_out { " (TIMED OUT)" } else { "" }
            );
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("snapshot") => return snapshot_command(&args[1..]),
        Some("connect") => return connect_command(&args[1..]),
        Some("bench-serve") => return bench_serve_command(&args[1..]),
        Some("watch") => return watch_command(&args[1..]),
        _ => {}
    }
    if args.len() < 2 {
        return usage();
    }

    // Separate the graph source, the query, and the flags. The source
    // is the first positional argument or the value of `--graph`.
    let mut source: Option<&str> = None;
    let mut query_arg: Option<&str> = None;
    let mut opts = ExecOptions::default();
    let mut show_stats = false;
    let mut show_plan = false;
    let mut batch = false;
    let mut stream = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--graph" => {
                let Some(path) = args.get(i + 1) else {
                    return fail("--graph expects a file path, but none was given");
                };
                if source.is_some() {
                    return fail("graph source given twice (positional and --graph)");
                }
                source = Some(path);
                i += 2;
            }
            "--algorithm" => {
                let Some(name) = args.get(i + 1) else {
                    return usage();
                };
                match name.parse::<Algorithm>() {
                    Ok(a) => opts.default_algorithm = a,
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--timeout" => {
                match numeric_flag::<u64>(&args, i, "--timeout") {
                    Ok(ms) => opts.default_timeout = Some(Duration::from_millis(ms)),
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--timeout-ms" => {
                match numeric_flag::<u64>(&args, i, "--timeout-ms") {
                    Ok(ms) => opts.deadline = Some(Duration::from_millis(ms)),
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--threads" => {
                match numeric_flag::<usize>(&args, i, "--threads") {
                    Ok(n) => opts.threads = n,
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--result-cache" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("on") => opts.result_cache = ResultCacheMode::On,
                    Some("off") => opts.result_cache = ResultCacheMode::Off,
                    Some(other) => {
                        return fail(format!("--result-cache expects on|off, got {other:?}"))
                    }
                    None => return fail("--result-cache expects on|off, but none was given"),
                }
                i += 2;
            }
            "--result-cache-capacity" => {
                match numeric_flag::<usize>(&args, i, "--result-cache-capacity") {
                    Ok(n) => opts.result_cache_capacity = n,
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--stats" => {
                show_stats = true;
                i += 1;
            }
            "--explain" => {
                show_plan = true;
                i += 1;
            }
            "--batch" => {
                batch = true;
                i += 1;
            }
            "--stream" => {
                stream = true;
                i += 1;
            }
            other => {
                if other.starts_with("--") && other != "--demo" {
                    return usage();
                }
                if source.is_none() && query_arg.is_none() {
                    source = Some(other);
                } else if query_arg.is_none() {
                    query_arg = Some(other);
                } else {
                    return usage();
                }
                i += 1;
            }
        }
    }

    if batch && stream {
        return fail("--stream streams a single query and cannot be combined with --batch");
    }

    let (Some(source), Some(query_arg)) = (source, query_arg) else {
        return usage();
    };
    let query = if let Some(path) = query_arg.strip_prefix('@') {
        match std::fs::read_to_string(path) {
            Ok(q) => q,
            Err(e) => return fail(format!("cannot read query file {path}: {e}")),
        }
    } else {
        query_arg.to_string()
    };

    // One session for the whole invocation: every query (and every
    // batch member) shares the plan cache.
    let session = match load_graph(source) {
        Ok(g) => Session::from_graph_with(g, opts),
        Err(e) => return fail(e),
    };
    let graph = session.graph();

    if batch {
        let queries = split_queries(&query);
        if queries.is_empty() {
            return fail("--batch input contains no queries");
        }
        let results = session.execute_batch(&queries);
        let mut failed = false;
        for (qi, (text, result)) in queries.iter().zip(&results).enumerate() {
            eprintln!("-- query {} of {} --", qi + 1, results.len());
            match result {
                Ok(r) => report(graph, r, show_plan, show_stats),
                Err(e) => {
                    report_query_error(e);
                    eprintln!("  in: {}", text.trim());
                    failed = true;
                }
            }
        }
        if show_stats || show_plan {
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
        if failed {
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if stream {
        let prepared = match session.prepare(&query) {
            Ok(p) => p,
            Err(e) => {
                report_query_error(&e);
                return ExitCode::FAILURE;
            }
        };
        let mut result_stream = match session.execute_streaming(&prepared) {
            Ok(s) => s,
            Err(e) => {
                report_query_error(&e);
                return ExitCode::FAILURE;
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
            let s = result_stream.stats();
            eprintln!(
                "stream {:?} | {} provenances, {} grows, {} merges, {} pruned",
                result_stream.elapsed(),
                s.provenances,
                s.grows,
                s.merges,
                s.pruned
            );
        }
        return ExitCode::SUCCESS;
    }

    match session.run(&query) {
        Ok(result) => {
            report(graph, &result, show_plan, show_stats);
            ExitCode::SUCCESS
        }
        Err(e) => {
            report_query_error(&e);
            ExitCode::FAILURE
        }
    }
}

/// Prints a server-side failure the way local mode would: typed
/// control rejections (cancelled, deadline, admission) are one-line
/// `error:` messages; query errors keep the `query error:` prefix.
fn report_client_error(e: &ClientError) -> ExitCode {
    match e {
        ClientError::Server(reply) => match reply.code {
            ErrorCode::Query => {
                eprintln!("query error: {}", reply.message);
            }
            _ => {
                eprintln!("error: {}", reply.message);
            }
        },
        other => {
            eprintln!("error: {other}");
        }
    }
    ExitCode::FAILURE
}

/// The `csq connect <addr> <query|@file> ...` subcommand: runs queries
/// against a `csqd` server, printing results identically to local
/// mode.
fn connect_command(args: &[String]) -> ExitCode {
    let mut addr: Option<&str> = None;
    let mut query_arg: Option<&str> = None;
    let mut header = RequestHeader::default();
    let mut batch = false;
    let mut show_stats = false;
    let mut cancel_after_ms: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => {
                show_stats = true;
                i += 1;
            }
            "--tenant" => {
                let Some(t) = args.get(i + 1) else {
                    return fail("--tenant expects a name, but none was given");
                };
                header.tenant = t.clone();
                i += 2;
            }
            "--timeout-ms" => {
                match numeric_flag::<u32>(args, i, "--timeout-ms") {
                    Ok(ms) => header.deadline_ms = ms,
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--cancel-after-ms" => {
                match numeric_flag::<u64>(args, i, "--cancel-after-ms") {
                    Ok(ms) => cancel_after_ms = Some(ms),
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--batch" => {
                batch = true;
                i += 1;
            }
            other => {
                if other.starts_with("--") {
                    return usage();
                }
                if addr.is_none() {
                    addr = Some(other);
                } else if query_arg.is_none() {
                    query_arg = Some(other);
                } else {
                    return usage();
                }
                i += 1;
            }
        }
    }
    let (Some(addr), Some(query_arg)) = (addr, query_arg) else {
        return usage();
    };
    let query = match read_query_arg(query_arg) {
        Ok(q) => q,
        Err(e) => return fail(e),
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return fail(format!("cannot connect to {addr}: {e}")),
    };

    let reply = if batch {
        let queries = split_queries(&query);
        if queries.is_empty() {
            return fail("--batch input contains no queries");
        }
        client.batch(&queries, &header)
    } else if let Some(ms) = cancel_after_ms {
        // Two-phase: send, arm the canceller against the id, wait.
        match client.send_query(&query, &header) {
            Ok(id) => {
                let mut canceller = match client.canceller() {
                    Ok(c) => c,
                    Err(e) => return fail(e),
                };
                let handle = std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(ms));
                    let _ = canceller.cancel(id);
                });
                let r = client.wait_query(id);
                let _ = handle.join();
                r
            }
            Err(e) => Err(e),
        }
    } else {
        client.query(&query, &header)
    };

    match reply {
        Ok(r) => {
            print!("{}", r.text);
            eprintln!("{} row(s)", r.rows);
            if show_stats {
                // The server-side view: scheduler occupancy, served
                // counters, and the shared result-cache counters.
                match client.stats() {
                    Ok(text) => eprint!("{text}"),
                    Err(e) => return report_client_error(&e),
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => report_client_error(&e),
    }
}

/// The `csq bench-serve` subcommand: an open-loop load generator. One
/// request is *scheduled* every `1/qps` seconds across K connections
/// regardless of completions (an overloaded server shows up as rising
/// latency, not a lower request rate), and per-request latency goes
/// into an exact histogram.
fn bench_serve_command(args: &[String]) -> ExitCode {
    let mut addr: Option<&str> = None;
    let mut query_arg: Option<&str> = None;
    let mut header = RequestHeader::default();
    let mut qps: u64 = 50;
    let mut duration_ms: u64 = 2_000;
    let mut connections: usize = 4;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tenant" => {
                let Some(t) = args.get(i + 1) else {
                    return fail("--tenant expects a name, but none was given");
                };
                header.tenant = t.clone();
                i += 2;
            }
            "--timeout-ms" => {
                match numeric_flag::<u32>(args, i, "--timeout-ms") {
                    Ok(ms) => header.deadline_ms = ms,
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--qps" => {
                match numeric_flag::<u64>(args, i, "--qps") {
                    Ok(n) if n > 0 => qps = n,
                    Ok(_) => return fail("--qps must be positive"),
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--duration-ms" => {
                match numeric_flag::<u64>(args, i, "--duration-ms") {
                    Ok(n) if n > 0 => duration_ms = n,
                    Ok(_) => return fail("--duration-ms must be positive"),
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--connections" => {
                match numeric_flag::<usize>(args, i, "--connections") {
                    Ok(n) if n > 0 => connections = n,
                    Ok(_) => return fail("--connections must be positive"),
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            other => {
                if other.starts_with("--") {
                    return usage();
                }
                if addr.is_none() {
                    addr = Some(other);
                } else if query_arg.is_none() {
                    query_arg = Some(other);
                } else {
                    return usage();
                }
                i += 1;
            }
        }
    }
    let (Some(addr), Some(query_arg)) = (addr, query_arg) else {
        return usage();
    };
    let query = match read_query_arg(query_arg) {
        Ok(q) => q,
        Err(e) => return fail(e),
    };

    let Some(total) = qps
        .checked_mul(duration_ms)
        .and_then(|n| usize::try_from((n / 1_000).max(1)).ok())
    else {
        return fail("--qps × --duration-ms is too large");
    };
    let interval = Duration::from_secs_f64(1.0 / qps as f64);
    // Grown as connections succeed: `--connections` is user input, so
    // it must not size an allocation up front.
    let mut clients = Vec::new();
    for _ in 0..connections {
        match Client::connect(addr) {
            Ok(c) => clients.push(c),
            Err(e) => return fail(format!("cannot connect to {addr}: {e}")),
        }
    }

    // Request k fires at t0 + k·interval on connection k mod K. Each
    // connection thread owns the requests assigned to it; a slow reply
    // delays only that connection's later sends (open-loop per lane).
    struct LaneResult {
        hist: LatencyHistogram,
        ok: usize,
        deadline_exceeded: usize,
        rejected: usize,
        failed: usize,
    }
    let t0 = Instant::now();
    let lanes: Vec<LaneResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(lane, mut client)| {
                let header = header.clone();
                let query = query.as_str();
                scope.spawn(move || {
                    let mut r = LaneResult {
                        hist: LatencyHistogram::new(),
                        ok: 0,
                        deadline_exceeded: 0,
                        rejected: 0,
                        failed: 0,
                    };
                    let mut k = lane;
                    while k < total {
                        let target = t0 + interval * k as u32;
                        let now = Instant::now();
                        if now < target {
                            std::thread::sleep(target - now);
                        }
                        let sent = Instant::now();
                        match client.query(query, &header) {
                            Ok(_) => {
                                r.ok += 1;
                                r.hist.record(sent.elapsed().as_nanos() as u64);
                            }
                            Err(ClientError::Server(e)) => match e.code {
                                ErrorCode::DeadlineExceeded | ErrorCode::Cancelled => {
                                    r.deadline_exceeded += 1;
                                }
                                ErrorCode::Overloaded | ErrorCode::ShuttingDown => {
                                    r.rejected += 1;
                                }
                                _ => r.failed += 1,
                            },
                            Err(_) => {
                                // Transport failure: this lane is dead.
                                r.failed += lane_remaining(total, k, connections);
                                break;
                            }
                        }
                        k += connections;
                    }
                    r
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let elapsed = t0.elapsed();

    let mut hist = LatencyHistogram::new();
    let (mut ok, mut deadline_exceeded, mut rejected, mut failed) =
        (0usize, 0usize, 0usize, 0usize);
    for lane in lanes {
        ok += lane.ok;
        deadline_exceeded += lane.deadline_exceeded;
        rejected += lane.rejected;
        failed += lane.failed;
        hist.merge(&lane.hist);
    }

    if ok == 0 {
        return fail("bench-serve: no request succeeded");
    }
    let achieved_qps = ok as f64 / elapsed.as_secs_f64();
    let (p50, p95, p99) = (
        hist.percentile(50.0),
        hist.percentile(95.0),
        hist.percentile(99.0),
    );
    println!(
        "bench-serve: {total} scheduled @ {qps} qps over {connections} connection(s)\n\
         completed {ok} ok ({achieved_qps:.1} qps), {deadline_exceeded} deadline/cancel, \
         {rejected} rejected, {failed} failed in {elapsed:.2?}\n\
         latency p50 {} p95 {} p99 {} mean {}",
        fmt_ns(p50),
        fmt_ns(p95),
        fmt_ns(p99),
        fmt_ns(hist.mean()),
    );

    ExitCode::SUCCESS
}

/// Requests still scheduled on a lane that sends request `k` next:
/// the lane owns `k, k + lanes, k + 2·lanes, …` below `total`.
fn lane_remaining(total: usize, k: usize, lanes: usize) -> usize {
    total.saturating_sub(k).div_ceil(lanes.max(1))
}

/// Formats a nanosecond latency human-readably.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::lane_remaining;

    #[test]
    fn dead_lanes_fail_exactly_their_remaining_requests() {
        // 8 requests over 4 lanes: a lane that dies at request 4 had
        // only request 4 left.
        assert_eq!(lane_remaining(8, 4, 4), 1);
        for total in 1..40 {
            for lanes in 1..9 {
                for dead_at in 0..total {
                    // Every lane runs clean up to `dead_at`, then dies
                    // at its next request: sent + failed must be the
                    // scheduled count.
                    let mut accounted = 0;
                    for lane in 0..lanes {
                        let mut k = lane;
                        while k < total && k < dead_at {
                            accounted += 1;
                            k += lanes;
                        }
                        accounted += lane_remaining(total, k, lanes);
                    }
                    assert_eq!(accounted, total, "total {total}, lanes {lanes}");
                }
            }
        }
    }
}
