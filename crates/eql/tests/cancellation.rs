//! Typed deadline / cancellation behaviour of the session layer: a
//! query over its [`ExecOptions::deadline`] budget fails with
//! [`EqlError::DeadlineExceeded`], a raised [`CancelFlag`] fails it
//! with [`EqlError::Cancelled`], and both stop the search *mid-flight*
//! through the engines' cooperative checks — "well before the untimed
//! runtime", per the acceptance bar. The per-CTP soft `TIMEOUT` clause
//! keeps its partial-result semantics.

use cs_core::CancelFlag;
use cs_eql::{EqlError, ExecOptions, Session};
use cs_graph::generate::random_connected;
use cs_graph::Graph;
use std::time::{Duration, Instant};

/// The `random64_molesp_max5` workload (the ROADMAP's long-search
/// bench case): a dense 64-node random graph, searched under `MAX 5`.
fn long_graph() -> Graph {
    random_connected(64, 192, 42)
}

const LONG_QUERY: &str = r#"SELECT w WHERE { CONNECT("n0", "n63" -> w) MAX 5 }"#;

/// The same search one edge deeper: about a second untimed in an
/// optimised build, where `LONG_QUERY` takes tens of milliseconds —
/// no longer than a deadline stop. The "well before the untimed
/// runtime" assertions run on this one, so they hold in every profile.
const SLOW_QUERY: &str = r#"SELECT w WHERE { CONNECT("n0", "n63" -> w) MAX 6 }"#;

/// Untimed runtime of the slow query, measured once per test so the
/// "well before" assertions are calibrated to this machine.
fn untimed_runtime(g: &Graph) -> Duration {
    let t0 = Instant::now();
    let full = Session::new(g).run(SLOW_QUERY).expect("untimed run");
    assert!(full.rows() > 0, "the long query must have results");
    t0.elapsed()
}

#[test]
fn deadline_exceeded_well_before_untimed_runtime() {
    let g = long_graph();
    let untimed = untimed_runtime(&g);

    let s = Session::with_options(
        &g,
        ExecOptions {
            deadline: Some(Duration::from_millis(20)),
            ..ExecOptions::default()
        },
    );
    let t = Instant::now();
    let err = s.run(SLOW_QUERY).expect_err("deadline must fail the query");
    let elapsed = t.elapsed();
    assert!(matches!(err, EqlError::DeadlineExceeded), "{err}");
    assert_eq!(err.to_string(), "deadline exceeded");
    // The engines poll every 64 steps, so the stop lands within a
    // small multiple of the 20 ms budget — far from the full runtime.
    assert!(
        elapsed < untimed / 3,
        "deadline stop took {elapsed:?}, untimed runtime {untimed:?}"
    );
}

#[test]
fn cancel_mid_search_returns_cancelled() {
    let g = long_graph();
    let untimed = untimed_runtime(&g);

    let flag = CancelFlag::new();
    let s = Session::with_options(
        &g,
        ExecOptions {
            cancel: Some(flag.clone()),
            ..ExecOptions::default()
        },
    );
    let t = Instant::now();
    #[expect(
        clippy::disallowed_methods,
        reason = "the flag is raised from a second thread while the search runs"
    )]
    let err = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(15));
            flag.cancel();
        });
        s.run(SLOW_QUERY).expect_err("cancel must fail the query")
    });
    let elapsed = t.elapsed();
    assert!(matches!(err, EqlError::Cancelled), "{err}");
    assert_eq!(err.to_string(), "cancelled");
    assert!(
        elapsed < untimed / 3,
        "cancel stop took {elapsed:?}, untimed runtime {untimed:?}"
    );
}

#[test]
fn pre_cancelled_query_fails_without_searching() {
    let g = long_graph();
    let flag = CancelFlag::new();
    flag.cancel();
    let s = Session::with_options(
        &g,
        ExecOptions {
            cancel: Some(flag),
            ..ExecOptions::default()
        },
    );
    let t = Instant::now();
    let err = s.run(LONG_QUERY).expect_err("pre-raised flag");
    assert!(matches!(err, EqlError::Cancelled), "{err}");
    assert!(t.elapsed() < Duration::from_millis(200));
}

#[test]
fn cancel_fails_ask_and_batch() {
    let g = long_graph();
    let flag = CancelFlag::new();
    flag.cancel();
    let s = Session::with_options(
        &g,
        ExecOptions {
            cancel: Some(flag),
            ..ExecOptions::default()
        },
    );
    // A pattern-free single-CTP ASK (implicit `LIMIT 1`).
    let err = s
        .ask(r#"ASK WHERE { CONNECT("n0", "n63" -> w) MAX 5 }"#)
        .expect_err("ask under a raised flag");
    assert!(matches!(err, EqlError::Cancelled), "{err}");
    // Every query of a batch reports the cancellation.
    for r in s.execute_batch(&[LONG_QUERY, LONG_QUERY]) {
        assert!(matches!(r, Err(EqlError::Cancelled)));
    }
}

/// Regression: the per-CTP soft `TIMEOUT` clause still returns the
/// partial results found in time instead of the typed error — only the
/// hard [`ExecOptions::deadline`] fails the query.
#[test]
fn soft_ctp_timeout_keeps_partial_results() {
    let g = long_graph();
    let r = Session::new(&g)
        .run(r#"SELECT w WHERE { CONNECT("n0", "n63" -> w) MAX 5 TIMEOUT 1 }"#)
        .expect("soft timeout is not an error");
    let (_, stats, _) = &r.stats.ctp_stats[0];
    assert!(stats.timed_out, "1 ms must truncate the long search");
    assert!(!stats.cancelled);
}

/// A deadline generous enough for the whole query changes nothing.
#[test]
fn unreached_deadline_is_invisible() {
    let g = long_graph();
    let plain = Session::new(&g).run(LONG_QUERY).expect("plain");
    let s = Session::with_options(
        &g,
        ExecOptions {
            deadline: Some(Duration::from_secs(600)),
            cancel: Some(CancelFlag::new()),
            ..ExecOptions::default()
        },
    );
    let guarded = s.run(LONG_QUERY).expect("deadline not reached");
    assert_eq!(plain.rows(), guarded.rows());
    assert_eq!(plain.trees["w"].len(), guarded.trees["w"].len());
}

/// The `i`-th slow CTP: `MAX 6` between `n{i}` and `n{63 - i}`, bound
/// to `w{i}`.
fn slow_ctp(i: usize) -> String {
    format!(r#"CONNECT("n{i}", "n{}" -> w{i}) MAX 6"#, 63 - i)
}

/// Asserts that slow CTP `i`, run alone without a deadline, searches
/// longer than `budget`: a soft `TIMEOUT` of that length truncates it.
fn assert_outlasts(g: &Graph, i: usize, budget: Duration) {
    let q = format!(
        "SELECT w{i} WHERE {{ {} TIMEOUT {} }}",
        slow_ctp(i),
        budget.as_millis()
    );
    let r = Session::new(g)
        .run(&q)
        .expect("soft timeout is not an error");
    let (_, stats, _) = &r.stats.ctp_stats[0];
    assert!(stats.timed_out, "CTP {i} finished within {budget:?}");
}

/// The hard deadline is one budget for the whole query: its CTPs run
/// one after another, and each gets only what the earlier ones left —
/// not the whole budget again.
#[test]
fn deadline_bounds_a_query_of_several_slow_ctps() {
    let g = long_graph();
    let deadline = Duration::from_millis(100);
    for i in 0..4 {
        assert_outlasts(&g, i, deadline);
    }
    let ctps: Vec<String> = (0..4).map(slow_ctp).collect();
    let q = format!("SELECT w0, w1, w2, w3 WHERE {{ {} }}", ctps.join(" "));
    let s = Session::with_options(
        &g,
        ExecOptions {
            deadline: Some(deadline),
            ..ExecOptions::default()
        },
    );
    let t = Instant::now();
    let err = s.run(&q).expect_err("deadline must fail the query");
    let elapsed = t.elapsed();
    assert!(matches!(err, EqlError::DeadlineExceeded), "{err}");
    assert!(
        elapsed < 2 * deadline,
        "four CTPs under a {deadline:?} deadline took {elapsed:?}"
    );
}

/// The same for a batch: the deadline's clock starts with the batch,
/// and every member whose search the budget cut off fails.
#[test]
fn deadline_bounds_a_batch_of_slow_queries() {
    let g = long_graph();
    let deadline = Duration::from_millis(50);
    for i in 0..3 {
        assert_outlasts(&g, i, deadline);
    }
    let queries: Vec<String> = (0..3)
        .map(|i| format!("SELECT w{i} WHERE {{ {} }}", slow_ctp(i)))
        .collect();
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
    let s = Session::with_options(
        &g,
        ExecOptions {
            deadline: Some(deadline),
            ..ExecOptions::default()
        },
    );
    let t = Instant::now();
    let results = s.execute_batch(&texts);
    let elapsed = t.elapsed();
    for r in &results {
        assert!(matches!(r, Err(EqlError::DeadlineExceeded)), "{r:?}");
    }
    assert!(
        elapsed < 2 * deadline,
        "a batch of three under a {deadline:?} deadline took {elapsed:?}"
    );
}
