//! `perfbench` — the engine's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <ctp_search|bgp_join|served_hot|live_mixed>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a header record, then (traced runs) the per-layer table, and
//! as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` beside this file.

mod check;
mod data;
mod inproc;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{Config, Report};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// End-to-end metrics, printed by untraced runs.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics, printed by traced runs. A layer a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("graph.build_s", "s"),
    ("snapshot.save_s", "s"),
    ("snapshot.load_s", "s"),
    ("mutate.us_per_batch", "us"),
    ("mutate.compactions", "count"),
    ("mutate.compact_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p90_ms", "ms"),
    ("parse.us_per_op", "us"),
    ("plan.us_per_op", "us"),
    ("plan_cache.hit_ratio", "ratio"),
    ("bgp.ms_per_op", "ms"),
    ("bgp.rows_per_op", "count"),
    ("search.ms_per_op", "ms"),
    ("search.provenances_per_op", "count"),
    ("search.queue_pushes_per_op", "count"),
    ("search.results_per_op", "count"),
    ("search.pruned_ratio", "ratio"),
    ("search.incomplete_ops", "count"),
    ("join.ms_per_op", "ms"),
    ("seed.narrowing_ratio", "ratio"),
    ("exec.ms_per_op", "ms"),
    ("exec.other_ms_per_op", "ms"),
    ("result_cache.hit_ratio", "ratio"),
    ("result_cache.subsumed_ratio", "ratio"),
    ("result_cache.trees_filtered_per_op", "count"),
    ("render.us_per_op", "us"),
    ("watch.poll_ms_per_round", "ms"),
    ("watch.skip.unchanged", "count"),
    ("watch.skip.labels_disjoint", "count"),
    ("watch.skip.delta_unreachable", "count"),
    ("watch.reeval", "count"),
    ("server.rtt_us_p50", "us"),
    ("server.inproc_us_p50", "us"),
    ("server.overhead_us_per_op", "us"),
    ("server.rejected", "count"),
    ("server.failed", "count"),
    ("alloc.count_per_op", "count"),
    ("alloc.kb_per_op", "kB"),
    ("proc.cpu_ms_per_op", "ms"),
    ("proc.peak_rss_mb", "MiB"),
    ("host.steal_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("determinism.diffs", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Formats a finite number for JSON (non-finite values read 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(r: &Report, metrics: &[(&str, f64, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            r#"{sep}"{name}": {{"value": {}, "unit": "{unit}"}}"#,
            num(*value)
        );
    }
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
        r.tally.failed == 0 && r.tally.attempted > 0,
        r.tally.attempted,
        r.tally.failed
    )
}

/// Compares this run's exact counts with the previous traced run of the
/// same workload, seed and length on the same code (`digest`, see
/// [`sys::Source`]), then records them for the next one. Returns the
/// number of counts that differ; the first such run has nothing to
/// compare with and returns 0.
fn compare_exact(args: &Args, digest: u64, exact: &[(&str, f64)]) -> u64 {
    let path = std::path::Path::new(".perfbench").join(format!(
        "counts-{}-seed{}-{}s-{digest:016x}.txt",
        args.workload, args.seed, args.seconds
    ));
    let previous: BTreeMap<String, String> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut diffs = 0;
    let mut out = String::new();
    for (name, value) in exact {
        let v = num(*value);
        if let Some(old) = previous.get(*name) {
            if *old != v {
                eprintln!(
                    "perfbench: {name} changed since the last run of this seed: {old} -> {v}"
                );
                diffs += 1;
            }
        }
        let _ = writeln!(out, "{name} {v}");
    }
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("perfbench: cannot record counts in {}: {e}", path.display());
    }
    diffs
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let run = match args.workload.as_str() {
        "ctp_search" => workloads::ctp_search,
        "bgp_join" => workloads::bgp_join,
        "served_hot" => workloads::served_hot,
        "live_mixed" => workloads::live_mixed,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let source = sys::source();
    let nproc = sys::nproc();
    let cpu_ms = sys::cpu_ms();
    let steal_ms = sys::steal_ms();
    println!(
        r#"{{"header": {{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "nproc": {nproc}, "rust_loc": {}, "crates": {}, "source_digest": "{:016x}", "cpu_ms": {}, "host_steal_ms": {}, "read_samples": {}}}}}"#,
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        source.rust_loc,
        source.crates,
        source.digest,
        num(cpu_ms),
        num(steal_ms),
        report.samples
    );
    let attempted = report.tally.attempted.max(1) as f64;
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let diffs = compare_exact(&args, source.digest, &report.exact) as f64;
        let l = &mut report.layers;
        *l.entry("determinism.diffs").or_insert(0.0) += diffs;
        l.insert("proc.peak_rss_mb", sys::peak_rss_mib());
        if let Some(tr) = &report.tracer {
            trace::print_table(&tr.layers());
            let path = std::path::Path::new(".perfbench")
                .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
            if let Err(e) = tr.write_jsonl(&path) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, report.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let values = [
            report.setup_s,
            report.ops_per_s,
            report.op_p50_ms,
            report.op_p90_ms,
            (attempted - report.tally.failed as f64) / attempted,
            sys::peak_heap_mib(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    println!("{}", result_line(&report, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units here are the ones `BENCHMARK.json`
    /// declares.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return; // the benchmark package checked out on its own
        };
        let declared = |name: &str, unit: &str| {
            json.contains(&format!(r#""name": "{name}", "unit": "{unit}""#))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                declared(name, unit),
                "{name} ({unit}) is not declared in BENCHMARK.json"
            );
        }
        let count = json.matches(r#""name": ""#).count();
        let workloads = json.matches(r#""why": ""#).count();
        assert_eq!(count - workloads, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_required_keys() {
        let mut r = Report::default();
        r.tally.attempted = 3;
        let line = result_line(&r, &[("setup_s", 0.5, "s"), ("ops_per_s", f64::NAN, "1/s")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "ops_per_s": {"value": 0, "unit": "1/s"}}}"#
        );
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(
            [
                "--workload",
                "bgp_join",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("bgp_join", 7, 3, true)
        );
        assert!(parse_args(["--seed", "x"].into_iter().map(String::from)).is_err());
        assert!(parse_args(["--bogus", "1"].into_iter().map(String::from)).is_err());
    }
}
