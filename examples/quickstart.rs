//! Quickstart: the paper's running example, through the Session API.
//!
//! Builds the Figure 1 graph, opens a [`Session`], and runs query Q1 —
//! "what are the connections between some American entrepreneur x,
//! some French entrepreneur y, and some French politician z?" — then
//! runs the same connection search ranked by specificity. The second
//! query's search is answered from the session's result cache.
//!
//! Run with: `cargo run --example quickstart`

use connection_search::graph::figure1;
use connection_search::Session;

fn main() {
    let g = figure1();
    println!(
        "Figure 1 graph: {} nodes, {} edges\n",
        g.node_count(),
        g.edge_count()
    );

    let session = Session::new(&g);

    let q1 = r#"
        SELECT x, y, z, w WHERE {
            (x : type = "entrepreneur", "citizenOf", "USA")
            (y : type = "entrepreneur", "citizenOf", "France")
            (z : type = "politician",  "citizenOf", "France")
            CONNECT(x, y, z -> w)
        }
    "#;
    println!("Q1:{q1}");

    // Parse + validate + component-group once; execute as often as
    // needed.
    let prepared = session.prepare(q1).expect("Q1 is valid EQL");
    let result = session.execute(&prepared).expect("Q1 executes");
    println!("{} answers:\n", result.rows());
    print!("{}", result.render(&g));

    // The same CTP, now ranked by specificity (hub-avoiding) and
    // limited to the top answer — requirement R2: any score function.
    // Ranking happens after the search, so the search itself is the
    // one Q1 already ran and cached.
    let ranked = session
        .run(
            r#"
        SELECT x, y, z, w WHERE {
            (x : type = "entrepreneur", "citizenOf", "USA")
            (y : type = "entrepreneur", "citizenOf", "France")
            (z : type = "politician",  "citizenOf", "France")
            CONNECT(x, y, z -> w) SCORE specificity TOP 1
        }
    "#,
        )
        .expect("valid EQL");
    println!("\nTop answer by specificity:");
    print!("{}", ranked.render(&g));
    println!(
        "\nresult cache: {} hit(s), {} miss(es) this query",
        ranked.stats.result_cache_hits, ranked.stats.result_cache_misses
    );
}
