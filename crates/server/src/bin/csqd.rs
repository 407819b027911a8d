//! `csqd` — the connection-search query daemon.
//!
//! ```text
//! csqd <graph-source> [--addr HOST:PORT] [--workers N] [--threads N]
//!      [--queue N] [--tenant-inflight N] [--default-deadline-ms N]
//!      [--result-cache off|on|shared] [--result-cache-capacity N]
//! ```
//!
//! A *graph source* is the same as `csq`'s: `--demo`, a `.csg`
//! snapshot, a generator spec (`gen:scale_free:nodes=2000,seed=7`), or
//! a tab-separated triples file, resolved by [`cs_graph::load_graph`].
//! The graph is loaded once and shared by every connection.
//!
//! Each connection runs its queries on its own two threads;
//! `--workers N` caps the concurrent executions across all connections
//! (default 2), and `--tenant-inflight N` caps them per tenant.
//!
//! The cross-query result cache defaults to one cache shared by every
//! connection (`Server::bind` upgrades the session-local `on` mode to
//! `shared`, so `on` and `shared` are equivalent here); `--result-cache
//! off` disables it. Its hit/miss/subsumed counters appear in the
//! `stats` opcode's reply.
//!
//! The server prints `csqd listening on <addr>` once ready (the line
//! test harnesses and the CI serve-smoke lane wait for) and runs until
//! a client sends a `shutdown` frame.

use cs_eql::{ExecOptions, ResultCacheMode};
use cs_graph::load_graph;
use cs_server::{Server, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: csqd <graph-source|--demo> [--addr HOST:PORT] [--workers N] \
         [--threads N] [--queue N] [--tenant-inflight N] \
         [--default-deadline-ms N] [--result-cache off|on|shared] \
         [--result-cache-capacity N]\n\
         graph sources: --demo | file.csg | gen:<family:key=value,...> | triples file\n\
         --workers N: concurrent executions across all connections (default 2)"
    );
    ExitCode::from(2)
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

/// Parses the numeric value of `flag` at `args[i + 1]`.
fn numeric_flag<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, String> {
    let Some(raw) = args.get(i + 1) else {
        return Err(format!("{flag} expects a number, but none was given"));
    };
    raw.parse::<T>()
        .map_err(|_| format!("{flag} expects a number, got {raw:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut source: Option<&str> = None;
    let mut addr = "127.0.0.1:7687".to_string();
    let mut cfg = ServerConfig {
        exec: ExecOptions::default(),
        ..ServerConfig::default()
    };

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                let Some(a) = args.get(i + 1) else {
                    return fail("--addr expects HOST:PORT, but none was given");
                };
                addr = a.clone();
                i += 2;
            }
            "--workers" => {
                match numeric_flag::<usize>(&args, i, "--workers") {
                    Ok(n) => cfg.workers = n,
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--threads" => {
                match numeric_flag::<usize>(&args, i, "--threads") {
                    Ok(n) => cfg.exec.threads = n,
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--queue" => {
                match numeric_flag::<usize>(&args, i, "--queue") {
                    Ok(n) => cfg.scheduler.queue_capacity = n,
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--tenant-inflight" => {
                match numeric_flag::<usize>(&args, i, "--tenant-inflight") {
                    Ok(n) => cfg.scheduler.tenant_inflight = n,
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--default-deadline-ms" => {
                match numeric_flag::<u64>(&args, i, "--default-deadline-ms") {
                    Ok(ms) => cfg.default_deadline = Some(Duration::from_millis(ms)),
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            "--result-cache" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("off") => cfg.exec.result_cache = ResultCacheMode::Off,
                    // `on` and `shared` are both one server-wide cache:
                    // `Server::bind` upgrades `On` to `Shared` (with
                    // the final `--result-cache-capacity`, whichever
                    // flag order was used).
                    Some("on" | "shared") => cfg.exec.result_cache = ResultCacheMode::On,
                    Some(other) => {
                        return fail(format!(
                            "--result-cache expects off|on|shared, got {other:?}"
                        ))
                    }
                    None => {
                        return fail("--result-cache expects off|on|shared, but none was given")
                    }
                }
                i += 2;
            }
            "--result-cache-capacity" => {
                match numeric_flag::<usize>(&args, i, "--result-cache-capacity") {
                    Ok(n) => cfg.exec.result_cache_capacity = n,
                    Err(e) => return fail(e),
                }
                i += 2;
            }
            other => {
                if other.starts_with("--") && other != "--demo" {
                    return usage();
                }
                if source.is_some() {
                    return usage();
                }
                source = Some(other);
                i += 1;
            }
        }
    }

    let Some(source) = source else {
        return usage();
    };
    let graph = match load_graph(source) {
        Ok(g) => Arc::new(g),
        Err(e) => return fail(e),
    };
    eprintln!(
        "csqd: loaded {source}: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    let server = match Server::bind(&addr, graph, cfg) {
        Ok(s) => s,
        Err(e) => return fail(format!("cannot bind {addr}: {e}")),
    };
    let bound = match server.local_addr() {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    // The readiness line harnesses wait for — flushed via println's
    // line buffering before the serve loop starts blocking.
    println!("csqd listening on {bound}");
    match server.run() {
        Ok(()) => {
            eprintln!("csqd: shut down");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}
