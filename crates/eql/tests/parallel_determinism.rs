//! Parallel result-ordering determinism: `threads` must never change a query's materialised output — row order, tree
//! indices, scores, and especially `SCORE … TOP k` — because
//! materialised CTP results are canonically ordered and the score sort
//! tie-breaks on the canonical edge set.

use cs_eql::{ExecOptions, QueryResult, Session};
use cs_graph::figure1;

fn run(threads: usize, q: &str) -> QueryResult {
    let g = figure1();
    let session = Session::with_options(
        &g,
        ExecOptions {
            threads,
            ..ExecOptions::default()
        },
    );
    session.run(q).expect("query executes")
}

/// The full materialised fingerprint of a result: projected rows plus
/// every CTP's trees (as edge-id vectors) and scores.
fn fingerprint(r: &QueryResult) -> String {
    let mut out = String::new();
    for row in r.table.rows() {
        out.push_str(&format!("{row:?}\n"));
    }
    let mut vars: Vec<&String> = r.trees.keys().collect();
    vars.sort();
    for v in vars {
        out.push_str(&format!(
            "{v}: {:?}\n",
            r.trees[v]
                .iter()
                .map(|t| t.edges.to_vec())
                .collect::<Vec<_>>()
        ));
        if let Some(s) = r.scores.get(v) {
            out.push_str(&format!("{v} scores: {s:?}\n"));
        }
    }
    out
}

const TOPK: &str = r#"SELECT w WHERE {
    CONNECT("Bob", "Alice" -> w) MAX 4 SCORE edgecount TOP 3
}"#;

const MULTI_CTP: &str = r#"SELECT x, w1, w2 WHERE {
    (x : type = "entrepreneur", "citizenOf", "USA")
    CONNECT(x, "France" -> w1) MAX 3
    CONNECT(x, "Elon" -> w2) MAX 3
}"#;

#[test]
fn topk_is_thread_invariant() {
    let reference = fingerprint(&run(1, TOPK));
    for t in [2, 4, 0] {
        let got = fingerprint(&run(t, TOPK));
        assert_eq!(reference, got, "TOP-k output changed under threads={t}");
    }
}

#[test]
fn multi_ctp_output_is_thread_invariant() {
    let reference = fingerprint(&run(1, MULTI_CTP));
    for t in [2, 4, 0] {
        let got = fingerprint(&run(t, MULTI_CTP));
        assert_eq!(
            reference, got,
            "materialised output changed under threads={t}"
        );
    }
}

#[test]
fn batch_execution_is_thread_invariant() {
    let g = figure1();
    let queries = [TOPK, MULTI_CTP];
    let reference: Vec<String> = Session::new(&g)
        .execute_batch(&queries)
        .into_iter()
        .map(|r| fingerprint(&r.expect("batch member executes")))
        .collect();
    for t in [2, 4, 0] {
        let session = Session::with_options(
            &g,
            ExecOptions {
                threads: t,
                ..ExecOptions::default()
            },
        );
        let got: Vec<String> = session
            .execute_batch(&queries)
            .into_iter()
            .map(|r| fingerprint(&r.expect("batch member executes")))
            .collect();
        assert_eq!(reference, got, "batch output changed under threads={t}");
    }
}
