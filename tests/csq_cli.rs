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
    assert!(stderr.contains("BGP 0 plan"), "{stderr}");
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
    for flag in ["--timeout", "--timeout-ms"] {
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
    // `--algorithm` takes a name, not a number, but fails the same way.
    for flag in ["--timeout", "--timeout-ms", "--algorithm"] {
        let out = csq(&["--demo", DEMO_CTP, flag]);
        assert_eq!(out.status.code(), Some(1), "bare {flag} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().count(),
            1,
            "{flag}: one line, not usage: {stderr}"
        );
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
        "--result-cache",
        "--script",
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

/// The `CTP w (<duration>): <stats>` line of a `--stats` run, with the
/// duration cut out.
fn ctp_stats_line(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.starts_with("CTP w ("))
        .unwrap_or_else(|| panic!("no CTP stats line: {stderr}"));
    let (_, stats) = line.split_once("): ").expect("duration, then stats");
    format!("CTP w: {stats}")
}

#[test]
fn stream_and_materialised_runs_print_one_stats_line() {
    // One formatter serves both paths: the same search prints the same
    // counters, Mo copies and queue pushes included.
    let materialised = csq(&["--demo", BGP_CTP, "--stats"]);
    let streamed = csq(&["--demo", BGP_CTP, "--stats", "--stream"]);
    assert!(materialised.status.success(), "{materialised:?}");
    assert!(streamed.status.success(), "{streamed:?}");
    let line = ctp_stats_line(&materialised);
    assert_eq!(line, ctp_stats_line(&streamed));
    for field in [
        " provenances, ",
        " grows, ",
        " merges, ",
        " mo copies, ",
        " pruned, ",
        " queue pushes",
    ] {
        assert!(line.contains(field), "{field:?} missing: {line}");
    }

    // The stream path keeps the early-stop marker too.
    let out = csq(&[
        LONG_GRAPH,
        LONG_QUERY,
        "--timeout",
        "1",
        "--stats",
        "--stream",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(ctp_stats_line(&out).ends_with(" (TIMED OUT)"), "{out:?}");
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
    // Old scripts passing a removed thread flag fail loudly instead of
    // silently running the searches one after another.
    for flag in ["--search-threads", "--threads"] {
        for args in [
            &["--demo", DEMO_CTP, flag, "2"][..],
            &["watch", "--demo", DEMO_CTP, flag, "2"],
        ] {
            let out = csq(args);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.starts_with("usage: csq"), "{args:?}: {stderr}");
        }
    }
    let out = Command::new(env!("CARGO_BIN_EXE_csqd"))
        .args(["--demo", "--threads", "2"])
        .output()
        .expect("csqd runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage: csqd"), "{stderr}");
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

// ---------------------------------------------------------------------------
// The flags of `watch`, `connect` and `bench-serve`. Every case fails
// while parsing, before a graph loads or a socket connects: a missing or
// garbage value is one `error:` line and exit 1, an unknown flag prints
// the usage and exits 2, and of two bad flags the first in argv order is
// the one reported.

const WATCH: &[&str] = &["watch", "--demo", DEMO_CTP];
const CONNECT: &[&str] = &["connect", "127.0.0.1:1", DEMO_CTP];
const BENCH_SERVE: &[&str] = &["bench-serve", "127.0.0.1:1", DEMO_CTP];

/// Runs `csq` on `prefix` then `flags`, which must stop while parsing:
/// its exit code and stderr.
fn parse_stop(prefix: &[&str], flags: &[&str]) -> (Option<i32>, String) {
    let out = csq(&[prefix, flags].concat());
    assert!(out.stdout.is_empty(), "{flags:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

/// Asserts exactly the line `error: {want}` and exit 1.
fn assert_flag_error(prefix: &[&str], flags: &[&str], want: &str) {
    let want = (Some(1), format!("error: {want}\n"));
    assert_eq!(parse_stop(prefix, flags), want, "{prefix:?} {flags:?}");
}

/// Asserts the usage and exit 2.
fn assert_usage(prefix: &[&str], flags: &[&str]) {
    let (code, stderr) = parse_stop(prefix, flags);
    assert_eq!(code, Some(2), "{prefix:?} {flags:?}: {stderr}");
    assert!(stderr.starts_with("usage: csq"), "{flags:?}: {stderr}");
}

#[test]
fn subcommand_flags_reject_missing_and_garbage_values() {
    // (argv prefix, flag, noun in the error, whether any value is
    // garbage — every tenant name and script path parses).
    for (prefix, flag, noun, has_garbage) in [
        (WATCH, "--script", "a file path (or -)", false),
        (WATCH, "--result-cache", "on|off", true),
        (CONNECT, "--tenant", "a name", false),
        (CONNECT, "--timeout-ms", "a number", true),
        (CONNECT, "--cancel-after-ms", "a number", true),
        (BENCH_SERVE, "--qps", "a number", true),
        (BENCH_SERVE, "--duration-ms", "a number", true),
        (BENCH_SERVE, "--connections", "a number", true),
        (BENCH_SERVE, "--timeout-ms", "a number", true),
        (BENCH_SERVE, "--tenant", "a name", false),
    ] {
        let missing = format!("{flag} expects {noun}, but none was given");
        assert_flag_error(prefix, &[flag], &missing);
        if has_garbage {
            let garbage = format!("{flag} expects {noun}, got \"x1\"");
            assert_flag_error(prefix, &[flag, "x1"], &garbage);
        }
    }
    // A deadline travels as a 32-bit millisecond count on the wire.
    let too_big = "--timeout-ms expects a number, got \"4294967296\"";
    for prefix in [CONNECT, BENCH_SERVE] {
        assert_flag_error(prefix, &["--timeout-ms", "4294967296"], too_big);
    }
    for flag in ["--qps", "--duration-ms", "--connections"] {
        let want = format!("{flag} must be positive");
        assert_flag_error(BENCH_SERVE, &[flag, "0"], &want);
    }
}

#[test]
fn subcommand_usage_errors() {
    for prefix in [WATCH, CONNECT, BENCH_SERVE] {
        assert_usage(prefix, &["--bogus"]);
        assert_usage(prefix, &["a-third-positional"]);
    }
    // `--demo` names a graph source, so it is no flag for the commands
    // that take an address. Too few positionals are a usage error too.
    assert_usage(&["connect", "--demo", DEMO_CTP], &[]);
    assert_usage(&["bench-serve", "--demo", DEMO_CTP], &[]);
    assert_usage(&["watch", "--demo"], &[]);
    assert_usage(&["connect", "127.0.0.1:1"], &[]);
    assert_usage(&["bench-serve"], &[]);
}

#[test]
fn subcommand_reports_the_first_bad_flag_in_argv_order() {
    let bad = |flag: &str, noun: &str| format!("{flag} expects {noun}, got \"x\"");
    for (prefix, [a, a_noun], [b, b_noun]) in [
        (
            CONNECT,
            ["--timeout-ms", "a number"],
            ["--cancel-after-ms", "a number"],
        ),
        (
            BENCH_SERVE,
            ["--connections", "a number"],
            ["--duration-ms", "a number"],
        ),
    ] {
        let (a_err, b_err) = (bad(a, a_noun), bad(b, b_noun));
        assert_flag_error(prefix, &[a, "x", b, "x"], &a_err);
        assert_flag_error(prefix, &[b, "x", a, "x"], &b_err);
        assert_flag_error(prefix, &[a, "x", "--bogus"], &a_err);
        assert_usage(prefix, &["--bogus", a, "x"]);
    }
    // `watch` has one flag that can take a garbage value; a bare
    // `--script` is its other bad flag, and only fits last in argv.
    let cache = bad("--result-cache", "on|off");
    assert_flag_error(WATCH, &["--result-cache", "x", "--script"], &cache);
    assert_flag_error(WATCH, &["--result-cache", "x", "--bogus"], &cache);
    assert_usage(WATCH, &["--bogus", "--result-cache", "x"]);
    // A value check that is no parse error keeps its place in the order.
    let qps = "--qps must be positive";
    assert_flag_error(BENCH_SERVE, &["--qps", "0", "--duration-ms", "x"], qps);
}

#[test]
fn watch_script_prints_deltas_and_names_the_bad_line() {
    let script = TmpFile::new("watch-script.txt");
    std::fs::write(
        &script.0,
        "# a new citizen of France\n\
         node Zed person\n\
         edge Zed citizenOf France\n\
         commit\n\
         del Bob citizenOf France\n",
    )
    .unwrap();
    let out = csq(&[
        "watch",
        "--demo",
        r#"SELECT x WHERE { (x, "citizenOf", "France") }"#,
        "--script",
        script.as_str(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "-- generation 1 (+1 node(s), +1 edge(s), -0 edge(s)) --\n\
         watch 0 + x=Zed(n12)\n"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "watch 0: 3 baseline row(s) at generation 0\n\
         error: script line 5: no live edge Bob -citizenOf-> France\n"
    );
}
