//! `csq bench-serve <addr> <query|@query-file>`: an open-loop load
//! generator. One request is *scheduled* every `1/qps` seconds across K
//! connections regardless of completions (an overloaded server shows
//! up as rising latency, not a lower request rate), and every request's
//! latency is kept, so the reported percentiles are exact.

use crate::{header_flag, target_and_query};
use connection_search::args::{Arg, Args, CliError, Flag, NUMBER};
use connection_search::server::{Client, ClientError, ErrorCode, RequestHeader};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const FLAGS: &[Flag] = &[
    Flag::Value("--tenant", "a name"),
    Flag::Value("--timeout-ms", NUMBER),
    Flag::Value("--qps", NUMBER),
    Flag::Value("--duration-ms", NUMBER),
    Flag::Value("--connections", NUMBER),
];

/// The value of a count flag that must be at least 1.
fn positive<T: std::str::FromStr + Default + PartialEq>(arg: &Arg<'_>) -> Result<T, CliError> {
    match arg.number()? {
        n if n == T::default() => Err(format!("{} must be positive", arg.flag).into()),
        n => Ok(n),
    }
}

/// Runs `csq bench-serve`.
pub fn run(argv: &[String]) -> Result<ExitCode, CliError> {
    let mut args = Args::new(argv, FLAGS, 2);
    let mut header = RequestHeader::default();
    let mut qps: u64 = 50;
    let mut duration_ms: u64 = 2_000;
    let mut connections: usize = 4;
    while let Some(arg) = args.next_flag()? {
        match arg.flag {
            "--qps" => qps = positive(&arg)?,
            "--duration-ms" => duration_ms = positive(&arg)?,
            "--connections" => connections = positive(&arg)?,
            _ => header_flag(&mut header, &arg)?,
        }
    }
    let (addr, query) = target_and_query(&args)?;

    let Some(total) = qps
        .checked_mul(duration_ms)
        .and_then(|n| usize::try_from((n / 1_000).max(1)).ok())
    else {
        return Err("--qps × --duration-ms is too large".into());
    };
    let interval = Duration::from_secs_f64(1.0 / qps as f64);
    // Grown as connections succeed: `--connections` is user input, so
    // it must not size an allocation up front.
    let mut clients = Vec::new();
    for _ in 0..connections {
        clients.push(Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?);
    }

    // Request k fires at t0 + k·interval on connection k mod K. Each
    // connection thread owns the requests assigned to it; a slow reply
    // delays only that connection's later sends (open-loop per lane).
    #[derive(Default)]
    struct LaneResult {
        /// Latencies of the successful requests, in nanoseconds.
        latencies: Vec<u64>,
        deadline_exceeded: usize,
        rejected: usize,
        failed: usize,
    }
    let t0 = Instant::now();
    #[expect(
        clippy::disallowed_methods,
        reason = "bench-serve drives one load lane per client connection"
    )]
    let lanes: Vec<LaneResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(lane, mut client)| {
                let header = header.clone();
                let query = query.as_str();
                scope.spawn(move || {
                    let mut r = LaneResult::default();
                    let mut k = lane;
                    while k < total {
                        let target = t0 + interval * k as u32;
                        let now = Instant::now();
                        if now < target {
                            std::thread::sleep(target - now);
                        }
                        let sent = Instant::now();
                        match client.query(query, &header) {
                            Ok(_) => r.latencies.push(sent.elapsed().as_nanos() as u64),
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

    let sum = |count: fn(&LaneResult) -> usize| lanes.iter().map(count).sum::<usize>();
    let deadline_exceeded = sum(|lane| lane.deadline_exceeded);
    let (rejected, failed) = (sum(|lane| lane.rejected), sum(|lane| lane.failed));
    let mut latencies: Vec<u64> = lanes.into_iter().flat_map(|lane| lane.latencies).collect();

    let ok = latencies.len();
    if ok == 0 {
        return Err("bench-serve: no request succeeded".into());
    }
    latencies.sort_unstable();
    let achieved_qps = ok as f64 / elapsed.as_secs_f64();
    println!(
        "bench-serve: {total} scheduled @ {qps} qps over {connections} connection(s)\n\
         completed {ok} ok ({achieved_qps:.1} qps), {deadline_exceeded} deadline/cancel, \
         {rejected} rejected, {failed} failed in {elapsed:.2?}\n\
         latency p50 {} p95 {} p99 {} mean {}",
        fmt_ns(percentile(&latencies, 50.0)),
        fmt_ns(percentile(&latencies, 95.0)),
        fmt_ns(percentile(&latencies, 99.0)),
        fmt_ns(mean(&latencies)),
    );

    Ok(ExitCode::SUCCESS)
}

/// Requests still scheduled on a lane that sends request `k` next:
/// the lane owns `k, k + lanes, k + 2·lanes, …` below `total`.
fn lane_remaining(total: usize, k: usize, lanes: usize) -> usize {
    total.saturating_sub(k).div_ceil(lanes.max(1))
}

/// The `p`-th percentile (nearest rank, `p` in `0.0..=100.0`) of the
/// ascending `sorted` samples; 0 when there are none.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    // Nearest rank: ceil(p/100 · n), 1-based; p = 0 maps to the minimum.
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    let last = sorted.len().saturating_sub(1);
    sorted
        .get(rank.saturating_sub(1).min(last))
        .map_or(0, |&s| s)
}

/// The mean of `samples`; 0 when there are none.
fn mean(samples: &[u64]) -> u64 {
    let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
    sum.checked_div(samples.len() as u128)
        .map_or(0, |m| m as u64)
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
    use super::*;

    #[test]
    fn percentiles_over_known_samples() {
        let mut samples = vec![5u64, 1, 4, 2, 3];
        samples.sort_unstable();
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&samples, 50.0), 3);
        assert_eq!(percentile(&samples, 90.0), 5);
        assert_eq!(percentile(&samples, 100.0), 5);
        assert_eq!(mean(&samples), 3);
    }

    #[test]
    fn no_samples_is_all_zero() {
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(mean(&[]), 0);
    }

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
