//! The `csqd` binary's argument errors. Every case here fails while
//! parsing, before the graph is loaded or a socket is bound: a bad flag
//! value is one `error:` line and exit 1, and an unknown flag or a
//! missing graph source prints the usage and exits 2.

use std::process::{Command, Output};

fn csqd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_csqd"))
        .args(args)
        .output()
        .expect("csqd runs")
}

fn assert_one_line_error(args: &[&str], needle: &str) {
    let out = csqd(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(needle),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must not start serving");
}

#[test]
fn numeric_flags_reject_garbage_and_missing_values() {
    for flag in [
        "--workers",
        "--queue",
        "--tenant-inflight",
        "--default-deadline-ms",
        "--result-cache-capacity",
    ] {
        assert_one_line_error(
            &["--demo", flag, "many"],
            &format!("{flag} expects a number, got"),
        );
        assert_one_line_error(
            &["--demo", flag],
            &format!("{flag} expects a number, but none"),
        );
    }
}

#[test]
fn result_cache_rejects_unknown_mode() {
    assert_one_line_error(
        &["--demo", "--result-cache", "bogus"],
        "--result-cache expects off|on|shared, got \"bogus\"",
    );
}

#[test]
fn unknown_flag_or_missing_source_prints_usage() {
    for args in [&["--demo", "--bogus"][..], &[], &["--workers", "2"]] {
        let out = csqd(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: csqd"), "{args:?}: {stderr}");
    }
}
