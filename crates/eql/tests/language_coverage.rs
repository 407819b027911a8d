//! Integration coverage of the EQL language surface: every construct
//! combination parsed AND executed, error reporting, and cross-checks
//! between per-CTP `ALGORITHM` overrides.

use cs_eql::{parse, EqlError, ExecOptions, Session};
use cs_graph::generate::gnp;
use cs_graph::{figure1, Graph};
use proptest::prelude::*;

#[test]
fn all_score_functions_run() {
    let g = figure1();
    for sigma in ["edgecount", "specificity", "labelrarity", "edgeweight"] {
        let q = format!(
            r#"SELECT w WHERE {{ CONNECT("Bob", "Alice" -> w) MAX 4 SCORE {sigma} TOP 3 }}"#
        );
        let r = Session::new(&g)
            .run(&q)
            .unwrap_or_else(|e| panic!("{sigma}: {e}"));
        assert!(r.rows() >= 1, "{sigma}");
        assert!(r.scores["w"].len() <= 3);
    }
}

#[test]
fn algorithm_overrides_agree() {
    let g = figure1();
    let mut canon: Vec<Vec<Vec<cs_graph::EdgeId>>> = Vec::new();
    for algo in ["bft", "bftm", "bftam", "gam", "moesp", "molesp"] {
        let q = format!(
            r#"SELECT w WHERE {{ CONNECT("Carole", "Falcon" -> w) MAX 4 ALGORITHM {algo} }}"#
        );
        let r = Session::new(&g).run(&q).unwrap();
        let mut c: Vec<_> = r.trees["w"].iter().map(|t| t.edges.to_vec()).collect();
        c.sort();
        canon.push(c);
    }
    for pair in canon.windows(2) {
        assert_eq!(pair[0], pair[1]);
    }
}

#[test]
fn filters_compose() {
    let g = figure1();
    let r = Session::new(&g)
        .run(
            r#"SELECT w WHERE {
            CONNECT("Bob", "Elon" -> w)
                LABEL "citizenOf", "affiliation", "funds", "founded", "investsIn", "parentOf"
                MAX 5 SCORE edgecount TOP 4 LIMIT 10 TIMEOUT 2000
        }"#,
        )
        .unwrap();
    assert!(r.rows() <= 4);
    for t in &r.trees["w"] {
        assert!(t.size() <= 5);
        for &e in t.edges.iter() {
            assert_ne!(g.edge_label(e), "CEO", "CEO label was filtered out");
        }
    }
}

#[test]
fn whitespace_comments_and_case_insensitivity() {
    let g = figure1();
    let r = Session::new(&g)
        .run("select x where {\n  # comment line\n  (x, \"founded\", y)  }")
        .unwrap();
    assert_eq!(r.rows(), 2); // distinct founders: Bob, Carole
}

#[test]
fn error_messages_are_actionable() {
    let g = figure1();
    let cases = [
        ("SELECT WHERE { (x, \"r\", y) }", "WHERE"),
        ("SELECT x WHERE { (x, \"r\") }", "expected"),
        ("SELECT x WHERE { (x, \"r\", y) } trailing", "end of input"),
        ("SELECT w WHERE { CONNECT(\"A\" -> w) }", "at least 2"),
    ];
    for (q, needle) in cases {
        match Session::new(&g).run(q) {
            Err(EqlError::Parse(e)) => {
                assert!(
                    e.message.to_lowercase().contains(&needle.to_lowercase()),
                    "query {q:?}: message {:?} should mention {needle:?}",
                    e.message
                );
            }
            other => panic!("{q:?} should fail to parse, got {other:?}"),
        }
    }
}

/// `ask` ≡ `SELECT … rows > 0` ≡ the `boolean` of the ASK member of
/// a batch, each on a fresh session; `None` when the query fails.
fn ask_answers(g: &Graph, opts: &ExecOptions, body: &str) -> [Option<bool>; 3] {
    let session = || Session::with_options(g, opts.clone());
    let ask_text = format!("ASK {body}");
    let select_text = format!("SELECT w {body}");
    let ask = session().ask(&ask_text).ok();
    let select = session().run(&select_text).ok().map(|r| r.rows() > 0);
    let batch = session().execute_batch(&[&select_text, &ask_text]);
    let batched = batch[1].as_ref().ok().and_then(|r| r.boolean);
    [ask, select, batched]
}

#[test]
fn ask_and_select_consistency_on_figure1() {
    let g = figure1();
    let queries = [
        r#"WHERE { CONNECT("Bob", "Doug" -> w) MAX 3 }"#,
        r#"WHERE { (x : type = "politician", "citizenOf", "France") CONNECT(x, "USA" -> w) MAX 4 }"#,
        r#"WHERE { CONNECT("OrgB", "Falcon" -> w) MAX 2 }"#,
    ];
    for body in queries {
        let [ask, select, batched] = ask_answers(&g, &ExecOptions::default(), body);
        assert!(ask.is_some(), "{body}");
        assert_eq!(ask, select, "{body}");
        assert_eq!(ask, batched, "{body}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random graphs, every pattern-free single-CTP shape (two or
    /// three constant seeds, each GAM-family algorithm, with and
    /// without `LABEL`/`MAX`/`LIMIT`) and a BGP-bound one answer ASK
    /// exactly as the SELECT form and the batch member do — under the
    /// single-queue policy and, with an extra `N` seed position (an
    /// unbound variable `z`), the balanced one.
    #[test]
    fn ask_and_select_consistency(
        seed in any::<u64>(),
        (shape, balanced) in (0usize..3, 0usize..2),
        (a, b, c) in (0usize..7, 0usize..7, 0usize..7),
        (label, max, limit, algo) in (0usize..5, 0usize..5, 0usize..4, 0usize..6),
    ) {
        let g = gnp(7, 0.25, seed);
        let n_set = if balanced == 1 { ", z" } else { "" };
        let mut body = match shape {
            0 => format!(r#"WHERE {{ CONNECT("n{a}", "n{b}"{n_set} -> w)"#),
            1 => format!(r#"WHERE {{ CONNECT("n{a}", "n{b}", "n{c}"{n_set} -> w)"#),
            _ => format!(r#"WHERE {{ (x, "r{}", y) CONNECT(x, "n{b}"{n_set} -> w)"#, c % 4),
        };
        // Each clause is absent at the top of its range.
        if label < 4 {
            body += &format!(r#" LABEL "r{label}""#);
        }
        if max < 4 {
            body += &format!(" MAX {}", max + 1);
        }
        if limit < 3 {
            body += &format!(" LIMIT {}", limit + 1);
        }
        if let Some(name) = ["gam", "esp", "moesp", "lesp", "molesp"].get(algo) {
            body += &format!(" ALGORITHM {name}");
        }
        body += " }";
        let [ask, select, batched] = ask_answers(&g, &ExecOptions::default(), &body);
        if shape < 2 {
            prop_assert!(ask.is_some(), "constant seeds always execute: {}", body);
        }
        prop_assert_eq!(ask, select, "{}", body);
        prop_assert_eq!(ask, batched, "{}", body);
    }
}

#[test]
fn default_algorithm_option_is_used() {
    let g = figure1();
    for algo in [
        cs_core::Algorithm::Gam,
        cs_core::Algorithm::MoLesp,
        cs_core::Algorithm::Bft,
    ] {
        let opts = ExecOptions {
            default_algorithm: algo,
            ..ExecOptions::default()
        };
        let r = Session::with_options(&g, opts)
            .run(r#"SELECT w WHERE { CONNECT("Alice", "Elon" -> w) MAX 3 }"#)
            .unwrap();
        assert!(r.rows() > 0, "{algo}");
    }
}

#[test]
fn multi_bgp_multi_ctp_query() {
    let g = figure1();
    let r = Session::new(&g)
        .run(
            r#"SELECT x, y, w1, w2 WHERE {
            (x, "founded", o1)
            (y, "investsIn", o2)
            CONNECT(x, y -> w1) MAX 3 LIMIT 50
            CONNECT(o1, o2 -> w2) MAX 3 LIMIT 50
        }"#,
        )
        .unwrap();
    // Joins over four shared variables; check schema integrity.
    for col in ["x", "y", "w1", "w2"] {
        assert!(r.table.col(col).is_some(), "missing column {col}");
    }
}

#[test]
fn parse_is_stable_under_reformat() {
    let a = parse(r#"SELECT x,w WHERE{(x,"r",y)CONNECT(x,y->w)MAX 3}"#).unwrap();
    let b = parse(
        r#"SELECT x , w
           WHERE {
             ( x , "r" , y )
             CONNECT( x , y -> w ) MAX 3
           }"#,
    )
    .unwrap();
    assert_eq!(a, b);
}
