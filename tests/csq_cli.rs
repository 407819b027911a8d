//! Integration tests of the `csq` binary: exit codes must reflect
//! parse/execution failures (single-query and batch), `--batch` must
//! execute `;`-separated queries through one session, and the dataset
//! workflow (`snapshot save` / `snapshot inspect` / `--graph`) must
//! round-trip — with one-line errors (never panics) on missing,
//! corrupt, or unwritable paths.

use std::process::{Command, Output};

fn csq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_csq"))
        .args(args)
        .output()
        .expect("csq runs")
}

/// A per-test temp path that is cleaned up on drop.
struct TmpFile(std::path::PathBuf);

impl TmpFile {
    fn new(name: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("csq-cli-test-{}-{name}", std::process::id()));
        TmpFile(p)
    }

    fn as_str(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TmpFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
fn ok_query_exits_zero() {
    let out = csq(&["--demo", r#"SELECT x WHERE { (x, "founded", y) }"#]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Bob"), "{stdout}");
}

#[test]
fn parse_error_exits_nonzero() {
    let out = csq(&["--demo", "SELECT nonsense ("]);
    assert!(!out.status.success(), "parse errors must fail the process");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("query error"), "{stderr}");
}

#[test]
fn execution_error_exits_nonzero() {
    // Valid syntax, but the CTP seed set is empty (no such label), so
    // execution fails with a seed error.
    let out = csq(&[
        "--demo",
        r#"SELECT w WHERE { CONNECT("NoSuchNode", "Bob" -> w) }"#,
    ]);
    assert!(
        !out.status.success(),
        "execution errors must fail the process"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("query error"), "{stderr}");
}

#[test]
fn batch_executes_all_queries() {
    let out = csq(&[
        "--demo",
        r#"SELECT x WHERE { (x, "founded", y) } ;
           SELECT w WHERE { CONNECT("Bob", "Carole" -> w) MAX 3 }"#,
        "--batch",
        "--explain",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("query 1 of 2"), "{stderr}");
    assert!(stderr.contains("query 2 of 2"), "{stderr}");
    assert!(stderr.contains("plan cache"), "{stderr}");
}

#[test]
fn batch_with_failing_member_exits_nonzero() {
    let out = csq(&[
        "--demo",
        r#"SELECT x WHERE { (x, "founded", y) } ; SELECT broken ("#,
        "--batch",
    ]);
    assert!(
        !out.status.success(),
        "a failing batch member must fail the process"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("query error"), "{stderr}");
}

#[test]
fn batch_separator_ignores_semicolons_in_strings() {
    // The ";" inside the quoted label must not split the query.
    let out = csq(&[
        "--demo",
        r#"SELECT w WHERE { CONNECT("no;such;node", "Bob" -> w) }"#,
        "--batch",
    ]);
    // One query, which fails on the empty seed set — but as ONE query.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("query 1 of 1"), "{stderr}");
    assert!(!out.status.success());
}

const DEMO_CTP: &str = r#"SELECT w WHERE { CONNECT("Bob", "Elon" -> w) MAX 4 }"#;

#[test]
fn numeric_flags_reject_garbage_with_one_line_error() {
    for flag in ["--threads", "--timeout", "--timeout-ms"] {
        let out = csq(&["--demo", DEMO_CTP, flag, "abc"]);
        assert!(!out.status.success(), "{flag} abc must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("expects a number"),
            "{flag}: unclear error: {stderr}"
        );
        assert!(
            !stderr.contains("usage:"),
            "{flag}: a bad value is an error, not a usage dump: {stderr}"
        );
    }
}

#[test]
fn numeric_flags_reject_missing_value() {
    for flag in ["--threads", "--timeout", "--timeout-ms"] {
        let out = csq(&["--demo", DEMO_CTP, flag]);
        assert!(!out.status.success(), "bare {flag} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("none was given"),
            "{flag}: unclear error: {stderr}"
        );
    }
}

#[test]
fn usage_lists_every_flag() {
    // No query at all → usage. Every parsed flag must appear there, so
    // the usage string cannot drift from the flag list.
    let out = csq(&["--demo"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for flag in [
        "--algorithm",
        "--timeout",
        "--timeout-ms",
        "--threads",
        "--stats",
        "--explain",
        "--batch",
        "--stream",
        "--graph",
        "snapshot save",
        "snapshot inspect",
        "connect",
        "bench-serve",
        "--tenant",
        "--cancel-after-ms",
        "--qps",
        "--duration-ms",
        "--connections",
    ] {
        assert!(stderr.contains(flag), "usage misses {flag}: {stderr}");
    }
}

// ---------------------------------------------------------------------------
// The hard per-query deadline (`--timeout-ms`): a typed DeadlineExceeded,
// reported as a one-line `error:` with a non-zero exit — unlike the soft
// per-CTP `--timeout`, which keeps the partial results found in time.

/// A search long enough that a 20 ms deadline trips mid-flight (the
/// `random64_molesp_max5` workload class).
const LONG_GRAPH: &str = "gen:random_connected:n=64,extra=192,seed=42";
const LONG_QUERY: &str = r#"SELECT w WHERE { CONNECT("n0", "n63" -> w) MAX 5 }"#;

#[test]
fn timeout_ms_reports_typed_deadline_exceeded() {
    let out = csq(&[LONG_GRAPH, LONG_QUERY, "--timeout-ms", "20"]);
    assert_one_line_error(&out, "--timeout-ms deadline");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.trim_end(), "error: deadline exceeded", "{stderr}");
}

#[test]
fn generous_timeout_ms_changes_nothing() {
    let plain = csq(&["--demo", DEMO_CTP]);
    let guarded = csq(&["--demo", DEMO_CTP, "--timeout-ms", "600000"]);
    assert!(plain.status.success() && guarded.status.success());
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&guarded.stdout),
        "an unreached deadline must not change output"
    );
}

#[test]
fn soft_timeout_still_keeps_partial_results() {
    // The soft per-CTP timeout truncates but succeeds — the contract
    // split the hard deadline must not regress.
    let out = csq(&[LONG_GRAPH, LONG_QUERY, "--timeout", "1", "--stats"]);
    assert!(
        out.status.success(),
        "soft timeout is not an error: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("TIMED OUT"), "{stderr}");
}

// ---------------------------------------------------------------------------
// The dataset workflow: snapshot save / inspect / --graph / --stream.

const BGP_CTP: &str = r#"SELECT x, w WHERE { (x : type = "entrepreneur", "citizenOf", "USA") CONNECT(x, "France" -> w) MAX 3 }"#;

#[test]
fn snapshot_save_inspect_query_roundtrip() {
    let file = TmpFile::new("roundtrip.csg");

    let out = csq(&["snapshot", "save", "gen:figure1", file.as_str()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("12 nodes"), "{stdout}");
    assert!(stdout.contains("stats present"), "{stdout}");

    let out = csq(&["snapshot", "inspect", file.as_str()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CSG2 snapshot"), "{stdout}");
    assert!(stdout.contains("section 4 (stats)"), "{stdout}");

    // The file-backed query must print exactly what the in-memory demo
    // graph prints.
    let from_file = csq(&["--graph", file.as_str(), BGP_CTP]);
    let in_memory = csq(&["--demo", BGP_CTP]);
    assert!(from_file.status.success(), "{from_file:?}");
    assert_eq!(
        String::from_utf8_lossy(&from_file.stdout),
        String::from_utf8_lossy(&in_memory.stdout),
        "snapshot-backed output must equal in-memory output"
    );
}

#[test]
fn removed_snapshot_flags_are_usage_errors() {
    // The `--snapshot` conversion alias and `snapshot save --no-stats`
    // are gone: both fail with the usage text and write nothing.
    let file = TmpFile::new("removed-flags.csg");
    for args in [
        &["--demo", "--snapshot", file.as_str()][..],
        &["snapshot", "save", "figure1", file.as_str(), "--no-stats"],
    ] {
        let out = csq(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!file.0.exists(), "{args:?} wrote {}", file.as_str());
    }
}

#[test]
fn snapshot_save_from_triples_file() {
    let triples = TmpFile::new("in.triples");
    std::fs::write(&triples.0, "A\tknows\tB\nB\tknows\tC\nA\ta\tperson\n").unwrap();
    let file = TmpFile::new("fromtriples.csg");
    let out = csq(&["snapshot", "save", triples.as_str(), file.as_str()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 nodes"), "{stdout}");

    let out = csq(&[
        "--graph",
        file.as_str(),
        r#"SELECT x WHERE { (x, "knows", y) }"#,
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains('A'));
}

#[test]
fn stream_mode_prints_trees() {
    let out = csq(&[
        "--demo",
        r#"SELECT w WHERE { CONNECT("Bob", "Elon" -> w) MAX 4 }"#,
        "--stream",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("w\n"), "{stdout}");
    assert!(stdout.contains("Bob"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tree(s) streamed"), "{stderr}");
}

#[test]
fn stream_and_batch_conflict_is_one_line_error() {
    let out = csq(&["--demo", DEMO_CTP, "--stream", "--batch"]);
    assert_one_line_error(&out, "--stream with --batch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--batch"), "{stderr}");
}

#[test]
fn stream_mode_rejects_multi_ctp_with_query_error() {
    let out = csq(&[
        "--demo",
        r#"SELECT v, w WHERE { CONNECT("Bob", "Elon" -> w) CONNECT("Alice", "Doug" -> v) }"#,
        "--stream",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("query error"), "{stderr}");
}

// ---------------------------------------------------------------------------
// I/O failure modes: one-line error, non-zero exit, no panic/Debug dump.

fn assert_one_line_error(out: &Output, what: &str) {
    assert!(!out.status.success(), "{what}: must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "{what}: {stderr}");
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{what}: want one line, got: {stderr}"
    );
    for marker in ["panicked", "RUST_BACKTRACE", "Err("] {
        assert!(!stderr.contains(marker), "{what}: {stderr}");
    }
}

#[test]
fn missing_snapshot_is_one_line_error() {
    let out = csq(&["--graph", "/no/such/dir/missing.csg", BGP_CTP]);
    assert_one_line_error(&out, "missing --graph file");
    let out = csq(&["/no/such/dir/missing.csg", BGP_CTP]);
    assert_one_line_error(&out, "missing positional graph file");
    let out = csq(&["snapshot", "inspect", "/no/such/dir/missing.csg"]);
    assert_one_line_error(&out, "inspect of missing file");
}

#[test]
fn corrupt_snapshot_is_one_line_error() {
    let file = TmpFile::new("corrupt.csg");
    // A valid header with a flipped payload byte: framing parses, the
    // checksum must reject it.
    let good = TmpFile::new("good.csg");
    assert!(csq(&["snapshot", "save", "figure1", good.as_str()])
        .status
        .success());
    let mut bytes = std::fs::read(&good.0).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&file.0, &bytes).unwrap();

    let out = csq(&["--graph", file.as_str(), BGP_CTP]);
    assert_one_line_error(&out, "corrupt snapshot query");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checksum") || stderr.contains("truncated") || stderr.contains("snapshot"),
        "{stderr}"
    );
}

#[test]
fn unwritable_save_target_is_one_line_error() {
    let out = csq(&["snapshot", "save", "figure1", "/no/such/dir/out.csg"]);
    assert_one_line_error(&out, "unwritable save target");
}

#[test]
fn bad_gen_spec_is_one_line_error() {
    let out = csq(&["gen:nope:n=1", BGP_CTP]);
    assert_one_line_error(&out, "unknown generator family");
    let out = csq(&["snapshot", "save", "gen:chain:banana=1", "/tmp/x.csg"]);
    assert_one_line_error(&out, "unknown generator key");
}

#[test]
fn removed_intra_search_flag_is_a_usage_error() {
    // Old scripts passing the removed flag fail loudly instead of
    // silently running the sequential engine.
    let out = csq(&["--demo", DEMO_CTP, "--search-threads", "2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn removed_bench_serve_label_flag_is_a_usage_error() {
    // `--label` only named records for a metrics sink that is gone.
    let out = csq(&["bench-serve", "127.0.0.1:1", DEMO_CTP, "--label", "x"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!stderr.contains("--label"), "{stderr}");
}

#[test]
fn bench_serve_oversized_arguments_are_one_line_errors() {
    // Neither the connection count nor the scheduled total may size an
    // allocation or overflow before the first connection is made.
    let out = csq(&[
        "bench-serve",
        "127.0.0.1:1",
        DEMO_CTP,
        "--connections",
        "1000000000000000",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_one_line_error(&out, "huge --connections");
    let out = csq(&[
        "bench-serve",
        "127.0.0.1:1",
        DEMO_CTP,
        "--qps",
        "18446744073709551615",
        "--duration-ms",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_one_line_error(&out, "--qps × --duration-ms overflow");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("too large"), "{stderr}");
}
