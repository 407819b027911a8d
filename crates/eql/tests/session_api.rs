//! Session API integration tests: `prepare`+`execute` (cache cold and
//! warm) and `execute_batch` must return exactly what the one-shot
//! path returns, on fixed and random graphs/queries (vendored
//! proptest); `execute_streaming` must yield the same trees as
//! materialised execution.

use cs_eql::{parse, EqlError, ExecOptions, QueryResult, Session};
use cs_graph::generate::gnp;
use cs_graph::{figure1, EdgeId, Graph, Mutation, NodeId};
use proptest::prelude::*;

/// The comparable content of a query result: sorted projected rows
/// (rendered through labels so tree indices don't leak) plus the
/// canonical edge sets per CTP variable.
type Canonical = (Vec<String>, Vec<(String, Vec<Vec<EdgeId>>)>);

fn canonical(g: &Graph, r: &QueryResult) -> Canonical {
    let mut rows: Vec<String> = r.render(g).lines().skip(1).map(str::to_string).collect();
    rows.sort();
    let mut trees: Vec<(String, Vec<Vec<EdgeId>>)> = r
        .trees
        .iter()
        .map(|(var, ts)| {
            let mut edges: Vec<Vec<EdgeId>> = ts.iter().map(|t| t.edges.to_vec()).collect();
            edges.sort();
            (var.clone(), edges)
        })
        .collect();
    trees.sort();
    (rows, trees)
}

/// Asserts two execution outcomes agree: both fail the same way, or
/// both succeed with identical canonical content.
fn assert_same_outcome(
    g: &Graph,
    a: &Result<QueryResult, EqlError>,
    b: &Result<QueryResult, EqlError>,
    label: &str,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(canonical(g, x), canonical(g, y), "{label}");
            assert_eq!(x.boolean, y.boolean, "{label}");
        }
        (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string(), "{label}"),
        (x, y) => panic!("{label}: outcomes diverge: {x:?} vs {y:?}"),
    }
}

/// A family of random star-join queries over the `gnp` label
/// vocabulary (`r0..r3` edge labels): same BGP shape throughout, with
/// per-case variable names.
fn star_query(vars: (&str, &str, &str), lbl: usize, limit: usize) -> String {
    let (x, y, z) = vars;
    format!(
        r#"SELECT {x}, w WHERE {{
            ({x}, "r{lbl}", {y})
            ({x}, "r{}", {z})
            CONNECT({y}, {z} -> w) MAX 2 LIMIT {limit}
        }}"#,
        (lbl + 1) % 4
    )
}

/// The reference path: a cold session built for this one query.
fn one_shot(g: &Graph, q: &str, opts: &ExecOptions) -> Result<QueryResult, EqlError> {
    Session::with_options(g, opts.clone()).run(q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold session, warm session, and batch all agree with the
    /// one-shot path on random graphs and star-join queries.
    #[test]
    fn session_paths_match_one_shot(seed in any::<u64>(), lbl in 0usize..4, limit in 1usize..6) {
        let g = gnp(9, 0.18, seed);
        let opts = ExecOptions::default();
        let q1 = star_query(("x", "y", "z"), lbl, limit);
        // Same shape, different variable names: a warm session must
        // answer it as a cold one does.
        let q2 = star_query(("a", "b", "c"), lbl, limit);

        let reference1 = one_shot(&g, &q1, &opts);
        let reference2 = one_shot(&g, &q2, &opts);

        // Cold path: fresh session per query.
        assert_same_outcome(&g, &Session::new(&g).run(&q1), &reference1, "cold q1");

        // Warm path: one session, q1 runs before q2.
        let session = Session::new(&g);
        assert_same_outcome(&g, &session.run(&q1), &reference1, "warm q1");
        let warm = session.run(&q2);
        assert_same_outcome(&g, &warm, &reference2, "warm q2");

        // Batch path: both queries through one dispatch.
        let batched = Session::with_options(&g, opts.clone()).execute_batch(&[&q1, &q2]);
        prop_assert_eq!(batched.len(), 2);
        assert_same_outcome(&g, &batched[0], &reference1, "batch q1");
        assert_same_outcome(&g, &batched[1], &reference2, "batch q2");
    }

    /// Prepared queries stay reusable: executing the same
    /// `PreparedQuery` twice gives identical results.
    #[test]
    fn prepared_reexecution_is_stable(seed in any::<u64>(), lbl in 0usize..4) {
        let g = gnp(8, 0.2, seed);
        let session = Session::new(&g);
        let Ok(prepared) = session.prepare(&star_query(("x", "y", "z"), lbl, 4)) else {
            unreachable!("star queries always parse");
        };
        let first = session.execute(&prepared);
        let second = session.execute(&prepared);
        assert_same_outcome(&g, &first, &second, "re-execution");
    }
}

#[test]
fn warm_session_reports_cache_hits_and_total_time() {
    let g = figure1();
    let session = Session::new(&g);
    let q = r#"SELECT x, w WHERE {
        (x : type = "entrepreneur", "citizenOf", "USA")
        CONNECT(x, "France" -> w) MAX 3
    }"#;
    let cold = session.run(q).unwrap();
    assert_eq!(cold.stats.result_cache_hits, 0);
    assert_eq!(cold.stats.plans.len(), 1);
    assert!(cold.stats.total_time >= cold.stats.bgp_time);

    // Same search, renamed variable: result-cache hit, fresh plan.
    let warm = session
        .run(
            r#"SELECT who, w WHERE {
                (who : type = "entrepreneur", "citizenOf", "USA")
                CONNECT(who, "France" -> w) MAX 3
            }"#,
        )
        .unwrap();
    assert_eq!(warm.stats.result_cache_hits, 1);
    assert_eq!(warm.stats.plans.len(), 1);
    assert_eq!(warm.rows(), cold.rows());
    assert_eq!(
        (session.result_cache_hits(), session.result_cache_misses()),
        (1, 1)
    );
}

#[test]
fn batch_reports_per_query_errors_without_aborting() {
    let g = figure1();
    let session = Session::new(&g);
    let results = session.execute_batch(&[
        r#"SELECT x WHERE { (x, "founded", y) }"#,
        "SELECT syntax error (",
        r#"ASK WHERE { CONNECT("Bob", "Elon" -> w) }"#,
    ]);
    assert_eq!(results.len(), 3);
    assert!(results[0].as_ref().unwrap().rows() > 0);
    assert!(matches!(results[1], Err(EqlError::Parse(_))));
    assert_eq!(results[2].as_ref().unwrap().boolean, Some(true));
}

#[test]
fn batch_matches_sequential_on_multi_ctp_queries() {
    let g = figure1();
    let queries = [
        r#"SELECT x, w1, w2 WHERE {
            (x : type = "entrepreneur", "citizenOf", "USA")
            CONNECT(x, "France" -> w1) LIMIT 20
            CONNECT(x, "Elon" -> w2) LIMIT 20
        }"#,
        r#"SELECT w WHERE { CONNECT("Bob", "Carole" -> w) MAX 3 }"#,
        r#"ASK WHERE {
            CONNECT(x : type = "entrepreneur", "USA" -> w1) MAX 2
            CONNECT(x, "France" -> w2) MAX 2
        }"#,
    ];
    let session = Session::new(&g);
    let refs: Vec<_> = queries.iter().map(|q| session.run(q)).collect();
    let batch = session.execute_batch(&queries);
    for ((r, b), q) in refs.iter().zip(&batch).zip(&queries) {
        assert_same_outcome(&g, r, b, q);
    }
}

#[test]
fn streaming_yields_same_trees_as_materialised() {
    let g = figure1();
    let session = Session::new(&g);
    let q = r#"SELECT x, w WHERE {
        (x : type = "entrepreneur", "citizenOf", "USA")
        CONNECT(x, "France" -> w) MAX 3
    }"#;
    let prepared = session.prepare(q).unwrap();
    let materialised = session.execute(&prepared).unwrap();
    let stream = session.execute_streaming(&prepared).unwrap();
    assert_eq!(stream.out_var(), "w");
    let streamed: Vec<_> = stream.collect();

    let mut a: Vec<Vec<EdgeId>> = streamed.iter().map(|t| t.edges.to_vec()).collect();
    let mut b: Vec<Vec<EdgeId>> = materialised.trees["w"]
        .iter()
        .map(|t| t.edges.to_vec())
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "streamed trees must equal materialised trees");
}

#[test]
fn streaming_take_is_early_termination() {
    let g = figure1();
    let session = Session::new(&g);
    let prepared = session
        .prepare(r#"SELECT w WHERE { CONNECT("Bob", "Elon" -> w) MAX 5 }"#)
        .unwrap();
    let full = session.execute(&prepared).unwrap();
    let total = full.trees["w"].len();
    assert!(total > 2, "need several results for the take() test");

    let mut stream = session.execute_streaming(&prepared).unwrap();
    let first_two: Vec<_> = stream.by_ref().take(2).collect();
    assert_eq!(first_two.len(), 2);
    let (_, full_stats, _) = &full.stats.ctp_stats[0];
    assert!(
        stream.stats().provenances < full_stats.provenances,
        "early-terminated stream must do less work ({} vs {} provenances)",
        stream.stats().provenances,
        full_stats.provenances
    );
}

#[test]
fn streaming_rejects_unstreamable_queries() {
    let g = figure1();
    let session = Session::new(&g);
    let cases = [
        (r#"ASK WHERE { CONNECT("Bob", "Elon" -> w) }"#, "SELECT"),
        (r#"SELECT x WHERE { (x, "founded", y) }"#, "exactly one CTP"),
        (
            r#"SELECT w1, w2 WHERE {
                CONNECT("Bob", "Elon" -> w1)
                CONNECT("Bob", "Carole" -> w2)
            }"#,
            "exactly one CTP",
        ),
        (
            r#"SELECT w WHERE { CONNECT("Bob", "Elon" -> w) SCORE edgecount TOP 2 }"#,
            "SCORE",
        ),
        (
            r#"SELECT w WHERE { CONNECT("Bob", "Elon" -> w) ALGORITHM bft }"#,
            "GAM-family",
        ),
    ];
    for (q, needle) in cases {
        let prepared = session.prepare(q).unwrap();
        match session.execute_streaming(&prepared) {
            Err(EqlError::Validate(msg)) => {
                assert!(
                    msg.contains(needle),
                    "{q}: {msg:?} should mention {needle:?}"
                )
            }
            Err(other) => panic!("{q}: unexpected error {other}"),
            Ok(_) => panic!("{q}: must not stream"),
        }
    }
}

#[test]
fn streaming_respects_limit_filter() {
    let g = figure1();
    let session = Session::new(&g);
    let prepared = session
        .prepare(r#"SELECT w WHERE { CONNECT("Bob", "Elon" -> w) MAX 5 LIMIT 3 }"#)
        .unwrap();
    let streamed: Vec<_> = session.execute_streaming(&prepared).unwrap().collect();
    assert_eq!(streamed.len(), 3);
}

// ---------------------------------------------------------------------------
// Owned-graph sessions and the snapshot store.

#[test]
fn owned_session_matches_borrowed_session() {
    let g = figure1();
    let q = r#"SELECT x, w WHERE {
        (x : type = "entrepreneur", "citizenOf", "USA")
        CONNECT(x, "France" -> w) MAX 3
    }"#;
    let borrowed = Session::new(&g).run(q).unwrap();
    let owned_session = Session::from_graph(figure1());
    let owned = owned_session.run(q).unwrap();
    assert_eq!(
        canonical(&g, &borrowed),
        canonical(owned_session.graph(), &owned)
    );
}

/// A session holds its result cache behind a mutex, so one session
/// can be shared across threads.
#[test]
fn session_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session<'static>>();
}

#[test]
fn plans_are_fresh_after_a_mutation() {
    let q = r#"SELECT x, y WHERE { (x, e, y) (y, f, z) }"#;
    let mut session = Session::from_graph(figure1());
    session.run(q).unwrap();
    session
        .mutate(vec![Mutation::InsertEdge {
            src: NodeId(0),
            label: "brandNewLabel".into(),
            dst: NodeId(1),
        }])
        .unwrap();
    let after = session.run(q).unwrap();
    let fresh = cs_eql::explain_plan(session.graph(), &parse(q).unwrap());
    let render =
        |plans: &[cs_engine::BgpPlan]| plans.iter().map(|p| p.to_string()).collect::<Vec<_>>();
    assert_eq!(render(&after.stats.plans), render(&fresh));
}

#[test]
fn open_snapshot_runs_identical_queries_with_warm_plans() {
    let g = figure1();
    let mut path = std::env::temp_dir();
    path.push(format!("cs-eql-session-{}.csg", std::process::id()));
    cs_graph::snapshot::save_to(&g, &path).unwrap();

    let session = Session::open_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // The statistics arrived through the snapshot sidecar: warm before
    // the first query, and equal to a fresh computation — the planner
    // never pays a stats pass.
    let warm = session
        .graph()
        .cardinalities_if_computed()
        .expect("snapshot-backed session must start with warm statistics");
    assert_eq!(warm, g.cardinalities());

    let q = r#"SELECT x, w WHERE {
        (x : type = "entrepreneur", "citizenOf", "USA")
        CONNECT(x, "France" -> w) MAX 3
    }"#;
    let from_file = session.run(q).unwrap();
    let in_memory = Session::new(&g).run(q).unwrap();
    assert_eq!(
        canonical(session.graph(), &from_file),
        canonical(&g, &in_memory),
        "file-backed session must answer exactly like the in-memory one"
    );
    // Same plans, too: the warm statistics must produce the access
    // paths the in-memory planner picks.
    let render = |r: &QueryResult| {
        r.stats
            .plans
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&from_file), render(&in_memory));

    // Streaming works from an owned graph (the stream borrows the
    // session).
    let prepared = session.prepare(q).unwrap();
    let streamed: Vec<_> = session.execute_streaming(&prepared).unwrap().collect();
    assert_eq!(streamed.len(), from_file.trees["w"].len());
}

#[test]
fn open_snapshot_missing_file_errors() {
    match Session::open_snapshot("/no/such/dir/missing.csg") {
        Ok(_) => panic!("opening a missing snapshot must fail"),
        Err(e) => assert!(e.to_string().contains("missing.csg")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The ISSUE-5 round-trip property: for random generated graphs,
    /// save → load yields identical query results under the same EQL
    /// query, with the same plans, and with the planner statistics
    /// warm on load (snapshot equality against a fresh computation —
    /// no recomputation happened).
    #[test]
    fn snapshot_roundtrip_preserves_query_results(seed in any::<u64>(), lbl in 0usize..4, limit in 1usize..6) {
        let g = gnp(9, 0.18, seed);
        let mut path = std::env::temp_dir();
        path.push(format!("cs-eql-roundtrip-{}-{seed}-{lbl}-{limit}.csg", std::process::id()));
        cs_graph::snapshot::save_to(&g, &path).unwrap();
        let session = Session::open_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // Warm statistics, equal to a fresh pass over the original.
        let warm = session.graph().cardinalities_if_computed().expect("warm stats");
        prop_assert_eq!(warm, g.cardinalities());

        let q = star_query(("x", "y", "z"), lbl, limit);
        let from_file = session.run(&q);
        let in_memory = Session::new(&g).run(&q);
        assert_same_outcome(&g, &in_memory, &from_file, &q);
        if let (Ok(a), Ok(b)) = (&in_memory, &from_file) {
            let plans = |r: &QueryResult| {
                r.stats.plans.iter().map(|p| p.to_string()).collect::<Vec<_>>()
            };
            prop_assert_eq!(plans(a), plans(b), "plans must match");
        }
    }
}
