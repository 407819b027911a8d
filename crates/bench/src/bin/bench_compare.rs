//! Regression gate between two machine-readable bench reports
//! (`BENCH_N.json`, schema `cs-bench/1`).
//!
//! ```text
//! bench_compare <new.json> <baseline.json>
//! ```
//!
//! Only the *stable* benches are gated, each family at a tolerance
//! informed by its measured run-to-run variance:
//!
//! * pure CPU kernels (`sorted_union/*`, `history_insert_lookup/*`)
//!   gate at 1.30× — their spread is a few percent;
//! * the `eql_*` end-to-end figures gate at 1.60× — four back-to-back
//!   runs on the build container put their worst spread at 1.16×, and
//!   the wider bound absorbs shared-runner noise on top of that.
//!
//! The remaining end-to-end benches (long searches, bench-serve
//! latencies) are reported for the trajectory but never gated: their
//! runtime depends on thread scheduling and socket timing, so any
//! tolerance tight enough to matter would make the lane flaky.

use cs_bench::report::BenchRecord;
use std::collections::HashMap;
use std::process::ExitCode;

/// Prefixes of benches stable enough to gate hard, with the maximum
/// tolerated mean-time ratio (new / baseline) for each family.
const STABLE_PREFIXES: &[(&str, f64)] = &[
    ("sorted_union/", 1.30),
    ("history_insert_lookup/", 1.30),
    ("eql_", 1.60),
];

fn parse_report(text: &str) -> HashMap<String, u64> {
    text.lines()
        .filter_map(BenchRecord::from_json_line)
        .map(|r| (r.name, r.mean_ns))
        .collect()
}

/// Compares the stable microbenches of `new` against `baseline`.
/// Returns human-readable failure descriptions (empty = gate green).
fn gate_stable(new: &HashMap<String, u64>, baseline: &HashMap<String, u64>) -> Vec<String> {
    let mut failures = Vec::new();
    let mut gated = 0usize;
    for (name, &base_ns) in baseline {
        let Some(&(_, tolerance)) = STABLE_PREFIXES.iter().find(|(p, _)| name.starts_with(p))
        else {
            continue;
        };
        gated += 1;
        match new.get(name) {
            None => failures.push(format!(
                "{name}: present in baseline but missing from new report"
            )),
            Some(&new_ns) => {
                let ratio = new_ns as f64 / (base_ns as f64).max(1.0);
                let verdict = if ratio > tolerance { "FAIL" } else { "ok" };
                println!("  {name}: {base_ns} ns -> {new_ns} ns ({ratio:.2}x) {verdict}");
                if ratio > tolerance {
                    failures.push(format!(
                        "{name}: {new_ns} ns vs baseline {base_ns} ns ({ratio:.2}x > {tolerance:.2}x)"
                    ));
                }
            }
        }
    }
    if gated == 0 {
        failures.push("baseline contains no stable microbenches to gate".to_string());
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(new_path), Some(base_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: bench_compare <new.json> <baseline.json>");
        return ExitCode::from(2);
    };

    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => {
            let report = parse_report(&s);
            if report.is_empty() {
                eprintln!("error: {path} contains no parseable bench records");
                None
            } else {
                Some(report)
            }
        }
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            None
        }
    };
    let (Some(new), Some(baseline)) = (read(new_path), read(base_path)) else {
        return ExitCode::FAILURE;
    };

    println!("bench gate: {new_path} vs baseline {base_path}");
    let failures = gate_stable(&new, &baseline);

    if failures.is_empty() {
        println!("bench gate green ({} benches in new report)", new.len());
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("regression: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, u64)]) -> HashMap<String, u64> {
        entries.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn within_tolerance_passes() {
        let base = report(&[("sorted_union/8", 100), ("history_insert_lookup/8", 200)]);
        let new = report(&[("sorted_union/8", 125), ("history_insert_lookup/8", 190)]);
        assert!(gate_stable(&new, &base).is_empty());
    }

    #[test]
    fn regression_fails() {
        let base = report(&[("sorted_union/64", 100)]);
        let new = report(&[("sorted_union/64", 140)]);
        let failures = gate_stable(&new, &base);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("sorted_union/64"));
    }

    #[test]
    fn unstable_benches_are_not_gated() {
        let base = report(&[("sorted_union/8", 100), ("random64_molesp_max5/seq", 100)]);
        let new = report(&[("sorted_union/8", 100), ("random64_molesp_max5/seq", 900)]);
        assert!(gate_stable(&new, &base).is_empty());
    }

    #[test]
    fn eql_figures_gate_at_their_own_tolerance() {
        // 1.50x passes the 1.60x eql tier but would fail the 1.30x
        // microbench tier — the per-family tolerance must apply.
        let base = report(&[("eql_cdf_m2_full_pipeline", 100)]);
        let ok = report(&[("eql_cdf_m2_full_pipeline", 150)]);
        assert!(gate_stable(&ok, &base).is_empty());
        let slow = report(&[("eql_cdf_m2_full_pipeline", 170)]);
        let failures = gate_stable(&slow, &base);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("1.60x"), "{}", failures[0]);
    }

    #[test]
    fn bench_serve_latencies_are_reported_not_gated() {
        let base = report(&[("sorted_union/8", 100), ("bench_serve/p50", 100)]);
        let new = report(&[("sorted_union/8", 100), ("bench_serve/p50", 900)]);
        assert!(gate_stable(&new, &base).is_empty());
    }

    #[test]
    fn missing_stable_bench_fails() {
        let base = report(&[("sorted_union/8", 100)]);
        let new = report(&[("history_insert_lookup/8", 90)]);
        assert_eq!(gate_stable(&new, &base).len(), 1);
    }

    #[test]
    fn empty_gate_set_fails() {
        let base = report(&[("something_else", 1)]);
        assert!(!gate_stable(&base.clone(), &base).is_empty());
    }

    #[test]
    fn parses_committed_report_format() {
        let doc = r#"{
  "schema": "cs-bench/1",
  "benchmarks": [
    {"name":"sorted_union/8","mean_ns":66,"iters":600000},
    {"name":"history_insert_lookup/8","mean_ns":92,"iters":487804}
  ]
}"#;
        let parsed = parse_report(doc);
        assert_eq!(parsed.get("sorted_union/8"), Some(&66));
        assert_eq!(parsed.len(), 2);
    }
}
