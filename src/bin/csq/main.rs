//! `csq` — the connection-search query CLI. Run it without arguments
//! for the synopsis of every subcommand ([`USAGE`]): local queries
//! (`local`), `snapshot save|inspect`, `watch`, `connect` and
//! `bench-serve`, one module each. All of them parse their flags with
//! `connection_search::args`, the parser `csqd` shares.
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
//! The exit code is non-zero when the graph cannot be loaded, a
//! snapshot cannot be saved or read, a query fails to parse, or
//! execution errors — including any query of a batch. I/O and decode
//! failures are one-line `error:` messages, never panics; bad usage
//! prints the synopsis and exits 2.

mod bench_serve;
mod connect;
mod local;
mod watch;

use connection_search::args::{self, Arg, Args, CliError};
use connection_search::eql::EqlError;
use connection_search::graph::{load_graph, snapshot};
use connection_search::server::RequestHeader;
use std::process::ExitCode;

const USAGE: &str = "usage: csq <graph-source|--demo> <query|@query-file> \
     [--algorithm NAME] [--timeout MS] [--timeout-ms N] \
     [--result-cache on|off] [--stats] \
     [--explain] [--batch] [--stream]\n       \
     csq --graph <file.csg> <query|@query-file> [...]\n       \
     csq snapshot save <gen-spec|graph-file> <out.csg>\n       \
     csq snapshot inspect <file.csg>\n       \
     csq connect <host:port> <query|@query-file> [--tenant T] \
     [--timeout-ms N] [--batch] [--cancel-after-ms N] [--stats]\n       \
     csq bench-serve <host:port> <query|@query-file> [--qps N] \
     [--duration-ms N] [--connections K] [--tenant T] [--timeout-ms N]\n       \
     csq watch <graph-source> <query|@query-file> [--script FILE] \
     [--stats] [--result-cache on|off]\n\
     graph sources: --demo | file.csg | gen:<family:key=value,...> | triples file";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("snapshot") => snapshot_command(&argv[1..]),
        Some("connect") => connect::run(&argv[1..]),
        Some("bench-serve") => bench_serve::run(&argv[1..]),
        Some("watch") => watch::run(&argv[1..]),
        _ => local::run(&argv),
    };
    args::exit(outcome, USAGE)
}

/// The `csq snapshot <save|inspect> ...` subcommand.
fn snapshot_command(argv: &[String]) -> Result<ExitCode, CliError> {
    match argv.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["save", input, out] => {
            let info = snapshot::save_to(&load_graph(input)?, out)?;
            print!("wrote {out}: {info}");
        }
        ["inspect", file] => print!("{file}: {}", snapshot::inspect(file)?),
        _ => return Err(CliError::Usage),
    }
    Ok(ExitCode::SUCCESS)
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

/// The two positionals of every subcommand but `snapshot`: the target
/// (a graph source or a server address) and the query text, read from
/// the file named after an `@`.
fn target_and_query<'a>(args: &Args<'a>) -> Result<(&'a str, String), CliError> {
    let [target, query] = args.positionals[..] else {
        return Err(CliError::Usage);
    };
    let query = match query.strip_prefix('@') {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read query file {path}: {e}"))?,
        None => query.to_string(),
    };
    Ok((target, query))
}

/// Applies a request-header flag of `connect` and `bench-serve`.
fn header_flag(header: &mut RequestHeader, arg: &Arg<'_>) -> Result<(), CliError> {
    match arg.flag {
        "--tenant" => header.tenant = arg.value.to_string(),
        "--timeout-ms" => header.deadline_ms = arg.number()?,
        _ => return Err(CliError::Usage),
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
        match c {
            _ if escaped => escaped = false,
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
