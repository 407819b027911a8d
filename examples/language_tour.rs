//! A tour of the EQL surface language: predicates, constants, CTP
//! filters, scoring, algorithm selection, and N seed sets — each query
//! parsed, executed on the Figure 1 graph, and printed.
//!
//! Run with: `cargo run --example language_tour`

use connection_search::eql::parse;
use connection_search::graph::figure1;
use connection_search::Session;

fn main() {
    let g = figure1();
    // One session for the whole tour: structurally similar queries
    // reuse cached BGP plans.
    let session = Session::new(&g);
    let queries: &[(&str, &str)] = &[
        (
            "plain BGP — who founded what?",
            r#"SELECT x, y WHERE { (x, "founded", y) }"#,
        ),
        (
            "predicate conjunction and glob matching (Def. 2.2)",
            r#"SELECT x WHERE { (x : label ~ "*lice" AND type = "entrepreneur", "citizenOf", y) }"#,
        ),
        (
            "path CTP (m = 2) with MAX",
            r#"SELECT w WHERE { CONNECT("Bob", "Alice" -> w) MAX 4 }"#,
        ),
        (
            "label-constrained connection",
            r#"SELECT w WHERE { CONNECT("Bob", "Carole" -> w) LABEL "citizenOf" MAX 2 }"#,
        ),
        (
            "unidirectional trees only (UNI)",
            r#"SELECT w WHERE { CONNECT("Carole", "USA" -> w) UNI MAX 2 }"#,
        ),
        (
            "scored and truncated (SCORE … TOP k)",
            r#"SELECT w WHERE { CONNECT("Bob", "Elon" -> w) MAX 5 SCORE labelrarity TOP 2 }"#,
        ),
        (
            "explicit algorithm choice per CTP",
            r#"SELECT w WHERE { CONNECT("OrgA", "OrgC" -> w) MAX 3 ALGORITHM gam }"#,
        ),
        (
            "an N seed set: everything within 1 hop of Falcon (§4.9)",
            r#"SELECT w WHERE { CONNECT("Falcon", anything -> w) MAX 1 }"#,
        ),
        (
            "BGP ⋈ CTP: connections between BGP-bound bindings",
            r#"SELECT x, y, w WHERE {
                 (x, "founded", "OrgC")
                 (y, "affiliation", "\"National Liberal Party\"")
                 CONNECT(x, y -> w) MAX 4 LIMIT 3
               }"#,
        ),
    ];

    // ASK: the boolean, check-only form.
    for (title, q) in [
        (
            "ASK — is Bob connected to Elon at all?",
            r#"ASK WHERE { CONNECT("Bob", "Elon" -> w) }"#,
        ),
        (
            "ASK with an impossible constraint",
            r#"ASK WHERE { CONNECT("Bob", "Elon" -> w) LABEL "funds" }"#,
        ),
    ] {
        let answer = session.ask(q).expect("valid ASK");
        println!(
            "### {title}
{q}
=> {answer}
"
        );
    }

    for (title, q) in queries {
        println!("### {title}\n{q}\n");
        let ast = parse(q).expect("example queries are valid");
        println!(
            "parsed: {} edge pattern(s), {} CTP(s)",
            ast.patterns.len(),
            ast.ctps.len()
        );
        match session.run(q) {
            Ok(res) => {
                println!("{} row(s):", res.rows());
                print!("{}", res.render(&g));
                for (var, stats, dur) in &res.stats.ctp_stats {
                    println!("  [CTP {var} ({dur:?}): {stats}]");
                }
            }
            Err(e) => println!("error: {e}"),
        }
        println!();
    }
}
