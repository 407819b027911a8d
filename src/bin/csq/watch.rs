//! `csq watch` registers one or more standing `SELECT` queries
//! (`;`-separated, like `--batch`) over a live graph and drives it
//! with a mutation script (`--script FILE`, or stdin). Script lines —
//! `node <label> [type…]`, `edge <src> <label> <dst>`,
//! `del <src> <label> <dst>`, and `commit` — accumulate into batches;
//! each `commit` applies the batch through [`Session::mutate`] (one
//! generation bump), polls every watch, and prints the per-watch
//! result deltas as `watch I + row` / `watch I - row` lines. References
//! resolve line by line as csqd's `mutate` resolves its ops
//! ([`MutationBatch`]): a node is a label introduced earlier in the
//! batch, a raw `n<ID>` id, or an exact node label, and a `del` removes
//! one live edge of the last committed state. `--stats` additionally
//! reports on stderr how each unchanged poll was decided (generation
//! check, label footprint, delta reach probe — see `cs_eql::watch`).

use crate::{report_query_error, split_queries, target_and_query};
use connection_search::args::{exec_flag, Args, CliError, Flag};
use connection_search::eql::{ExecOptions, Watch, WatchSkip};
use connection_search::graph::{load_graph, Mutation, MutationBatch};
use connection_search::Session;
use std::io::BufRead;
use std::process::ExitCode;

const FLAGS: &[Flag] = &[
    Flag::Positional("--demo"),
    Flag::Value("--script", "a file path (or -)"),
    Flag::Value("--result-cache", "on|off"),
    Flag::Switch("--stats"),
];

/// Registers standing queries over a live graph and applies a mutation
/// script, printing per-generation result deltas after every `commit`.
pub fn run(argv: &[String]) -> Result<ExitCode, CliError> {
    let mut args = Args::new(argv, FLAGS, 2);
    let mut script_path = None;
    let mut opts = ExecOptions::default();
    let mut show_stats = false;
    while let Some(arg) = args.next_flag()? {
        match arg.flag {
            "--script" => script_path = Some(arg.value),
            "--stats" => show_stats = true,
            _ => exec_flag(&mut opts, &arg)?,
        }
    }
    let (source, query) = target_and_query(&args)?;

    // Watching mutates the graph, so the session must own it. A
    // snapshot source stays memory-mapped: mutations go to the graph's
    // copy-on-write overlay, and the statistics sidecar rides along.
    let mut session = Session::from_graph_with(load_graph(source)?, opts);

    let queries = split_queries(&query);
    if queries.is_empty() {
        return Err("watch input contains no queries".into());
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
                return Ok(ExitCode::FAILURE);
            }
        }
    }

    let reader: Box<dyn BufRead> = match script_path {
        None | Some("-") => Box::new(std::io::stdin().lock()),
        Some(path) => match std::fs::File::open(path) {
            Ok(f) => Box::new(std::io::BufReader::new(f)),
            Err(e) => return Err(format!("cannot read script {path}: {e}").into()),
        },
    };

    // Script lines accumulate into one batch, resolved line by line
    // against the last committed state.
    let mut batch = MutationBatch::new(session.graph());
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("script read error: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let done = match toks[..] {
            ["node", label, ref types @ ..] => {
                batch.insert_node(label, types.iter().map(|t| t.to_string()).collect());
                Ok(())
            }
            ["node"] => Err("node expects: node <label> [type ...]".to_string()),
            ["edge", s, l, d] => batch.insert_edge(s, l, d),
            ["del", s, l, d] => batch.remove_edge(s, l, d),
            [op @ ("edge" | "del"), ..] => Err(format!("{op} expects: {op} <src> <label> <dst>")),
            ["commit"] => {
                let ops = batch.into_ops();
                let done = commit_and_poll(&mut session, ops, &mut watches, show_stats);
                batch = MutationBatch::new(session.graph());
                done
            }
            ["commit", ..] => Err("commit takes no arguments".to_string()),
            [op, ..] => Err(format!(
                "unknown op {op:?} (expected node, edge, del, or commit)"
            )),
            [] => Ok(()),
        };
        done.map_err(|msg| format!("script line {}: {msg}", lineno + 1))?;
    }
    // A trailing un-committed batch commits implicitly at EOF.
    let ops = batch.into_ops();
    if !ops.is_empty() {
        commit_and_poll(&mut session, ops, &mut watches, show_stats)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Applies one batch through the session and polls every watch,
/// printing `watch I + row` / `watch I - row` delta lines to stdout
/// (and, with `--stats`, how unchanged polls were decided to stderr).
fn commit_and_poll(
    session: &mut Session<'_>,
    ops: Vec<Mutation>,
    watches: &mut [Watch],
    show_stats: bool,
) -> Result<(), String> {
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
