//! `csqd` — the connection-search query daemon, over the `cs-server`
//! library. Run it without arguments for its synopsis ([`USAGE`]).
//!
//! The graph source (as for `csq`, resolved by
//! [`cs_graph::load_graph`]) is loaded once and shared by every
//! connection. The result cache is one cache shared by every connection
//! unless `--result-cache off`. The daemon prints `csqd listening on
//! <addr>` once ready (the line test harnesses and the CI serve-smoke
//! lane wait for) and runs until a client sends a `shutdown` frame.

use connection_search::args::{self, exec_flag, Args, CliError, Flag, NUMBER};
use connection_search::graph::load_graph;
use connection_search::server::{Server, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: csqd <graph-source|--demo> [--addr HOST:PORT] [--workers N] \
     [--queue N] [--tenant-inflight N] \
     [--default-deadline-ms N] [--result-cache off|on|shared] \
     [--result-cache-capacity N]\n\
     graph sources: --demo | file.csg | gen:<family:key=value,...> | triples file\n\
     --workers N: concurrent executions across all connections (default 2)";

const FLAGS: &[Flag] = &[
    Flag::Positional("--demo"),
    Flag::Value("--addr", "HOST:PORT"),
    Flag::Value("--workers", NUMBER),
    Flag::Value("--queue", NUMBER),
    Flag::Value("--tenant-inflight", NUMBER),
    Flag::Value("--default-deadline-ms", NUMBER),
    // `on` and `shared` are both one server-wide cache: `Server::bind`
    // upgrades `On` to `Shared` (with the final
    // `--result-cache-capacity`, whichever flag order was used).
    Flag::Value("--result-cache", "off|on|shared"),
    Flag::Value("--result-cache-capacity", NUMBER),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    args::exit(run(&argv), USAGE)
}

fn run(argv: &[String]) -> Result<ExitCode, CliError> {
    let mut args = Args::new(argv, FLAGS, 1);
    let mut addr = "127.0.0.1:7687";
    let mut cfg = ServerConfig::default();
    while let Some(arg) = args.next_flag()? {
        match arg.flag {
            "--addr" => addr = arg.value,
            "--workers" => cfg.workers = arg.number()?,
            "--queue" => cfg.scheduler.queue_capacity = arg.number()?,
            "--tenant-inflight" => cfg.scheduler.tenant_inflight = arg.number()?,
            "--default-deadline-ms" => {
                cfg.default_deadline = Some(Duration::from_millis(arg.number()?));
            }
            _ => exec_flag(&mut cfg.exec, &arg)?,
        }
    }
    let [source] = args.positionals[..] else {
        return Err(CliError::Usage);
    };
    let graph = Arc::new(load_graph(source)?);
    eprintln!(
        "csqd: loaded {source}: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    let server = Server::bind(addr, graph, cfg).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = server.local_addr()?;
    // The readiness line harnesses wait for — flushed via println's
    // line buffering before the serve loop starts blocking.
    println!("csqd listening on {bound}");
    server.run()?;
    eprintln!("csqd: shut down");
    Ok(ExitCode::SUCCESS)
}
