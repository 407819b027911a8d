//! `csq connect <addr> <query|@query-file>` runs queries against a
//! `csqd` server ([`Client`]), printing results identically to local
//! mode; `--cancel-after-ms N` fires a cooperative cancel frame
//! mid-query from a second socket handle.

use crate::{header_flag, split_queries, target_and_query};
use connection_search::args::{Args, CliError, Flag, NUMBER};
use connection_search::server::{Client, ClientError, ErrorCode, RequestHeader};
use std::process::ExitCode;
use std::time::Duration;

const FLAGS: &[Flag] = &[
    Flag::Value("--tenant", "a name"),
    Flag::Value("--timeout-ms", NUMBER),
    Flag::Value("--cancel-after-ms", NUMBER),
    Flag::Switch("--batch"),
    Flag::Switch("--stats"),
];

/// Runs `csq connect`.
pub fn run(argv: &[String]) -> Result<ExitCode, CliError> {
    let mut args = Args::new(argv, FLAGS, 2);
    let mut header = RequestHeader::default();
    let (mut batch, mut show_stats) = (false, false);
    let mut cancel_after_ms: Option<u64> = None;
    while let Some(arg) = args.next_flag()? {
        match arg.flag {
            "--cancel-after-ms" => cancel_after_ms = Some(arg.number()?),
            "--batch" => batch = true,
            "--stats" => show_stats = true,
            _ => header_flag(&mut header, &arg)?,
        }
    }
    let (addr, query) = target_and_query(&args)?;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    let reply = if batch {
        let queries = split_queries(&query);
        if queries.is_empty() {
            return Err("--batch input contains no queries".into());
        }
        client.batch(&queries, &header)
    } else if let Some(ms) = cancel_after_ms {
        // Two-phase: send, arm the canceller against the id, wait.
        client.send_query(&query, &header).and_then(|id| {
            let mut canceller = client.canceller()?;
            #[expect(
                clippy::disallowed_methods,
                reason = "--cancel-after-ms fires the cancel frame from a timer thread"
            )]
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(ms));
                let _ = canceller.cancel(id);
            });
            let reply = client.wait_query(id);
            let _ = handle.join();
            reply
        })
    } else {
        client.query(&query, &header)
    };

    let shown = reply.and_then(|r| {
        print!("{}", r.text);
        eprintln!("{} row(s)", r.rows);
        if show_stats {
            // The server-side view: scheduler occupancy, served
            // counters, and the shared result-cache counters.
            eprint!("{}", client.stats()?);
        }
        Ok(())
    });
    Ok(match shown {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => report_client_error(&e),
    })
}

/// Prints a server-side failure the way local mode would: typed
/// control rejections (cancelled, deadline, admission) are one-line
/// `error:` messages; query errors keep the `query error:` prefix.
fn report_client_error(e: &ClientError) -> ExitCode {
    match e {
        ClientError::Server(reply) if reply.code == ErrorCode::Query => {
            eprintln!("query error: {}", reply.message);
        }
        ClientError::Server(reply) => eprintln!("error: {}", reply.message),
        other => eprintln!("error: {other}"),
    }
    ExitCode::FAILURE
}
