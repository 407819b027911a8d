//! Investigative-journalism scenario (the paper's motivating use case):
//! "find all connections between Mr. Shady, bank company ABC, and the
//! tax office of the DEF republic".
//!
//! Builds an offshore-leaks-style graph — persons, shell companies,
//! accounts, banks, jurisdictions — where the *small* connection goes
//! through a country hub (uninteresting) and a larger one goes through
//! a chain of accounts (the story). Scoring by specificity surfaces
//! the interesting tree first, exactly the paper's Introduction
//! argument for score-function orthogonality (R2).
//!
//! Run with: `cargo run --example investigation`

use connection_search::core::score::{rank, EdgeCount, ScoreFn, Specificity};
use connection_search::core::{evaluate_ctp, Algorithm, Filters, QueueOrder, SeedSets};
use connection_search::graph::{Graph, GraphBuilder, NodeId};
use connection_search::Session;

fn build_case() -> (Graph, NodeId, NodeId, NodeId) {
    let mut b = GraphBuilder::new();

    let shady = b.add_typed_node("MrShady", &["person"]);
    let abc = b.add_typed_node("BankABC", &["bank"]);
    let tax_def = b.add_typed_node("TaxOfficeDEF", &["authority"]);
    let def = b.add_typed_node("DEF", &["country"]);
    let ghi = b.add_typed_node("GHI", &["country"]);

    // The boring connection: everyone relates to the DEF country hub.
    b.add_edge(shady, "citizenOf", def);
    b.add_edge(abc, "hasOfficeIn", def);
    b.add_edge(tax_def, "authorityOf", def);

    // Lots of unrelated entities also hang off the hub, making it
    // high-degree (low specificity).
    for i in 0..30 {
        let p = b.add_typed_node(&format!("citizen{i}"), &["person"]);
        b.add_edge(p, "citizenOf", def);
    }

    // The interesting connection: three ABC accounts route money from
    // a DEF shell company to Mr. Shady in GHI, and the tax office
    // audited the shell.
    let shell = b.add_typed_node("ShellCoDEF", &["company"]);
    let acct1 = b.add_typed_node("acct1", &["account"]);
    let acct2 = b.add_typed_node("acct2", &["account"]);
    let acct3 = b.add_typed_node("acct3", &["account"]);
    b.add_edge(shell, "holds", acct1);
    b.add_edge(acct1, "transfersTo", acct2);
    b.add_edge(acct2, "transfersTo", acct3);
    // Note the direction: the account *belongs to* Mr. Shady — the
    // search must traverse it backwards (requirement R3).
    b.add_edge(acct3, "belongsTo", shady);
    b.add_edge(abc, "operates", acct2);
    b.add_edge(tax_def, "audited", shell);
    b.add_edge(shady, "residesIn", ghi);

    (b.freeze(), shady, abc, tax_def)
}

fn main() {
    let (g, shady, abc, tax) = build_case();
    println!(
        "case graph: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    );

    let seeds = SeedSets::from_sets(vec![vec![shady], vec![abc], vec![tax]]).unwrap();
    let out = evaluate_ctp(
        &g,
        &seeds,
        Algorithm::MoLesp,
        Filters::none().with_max_edges(8),
        QueueOrder::SmallestFirst,
    );
    println!(
        "\nCONNECT(MrShady, BankABC, TaxOfficeDEF): {} connecting trees (≤ 8 edges)",
        out.results.len()
    );

    for (name, sigma) in [
        ("edgecount (smallest first)", &EdgeCount as &dyn ScoreFn),
        ("specificity (hub-avoiding)", &Specificity as &dyn ScoreFn),
    ] {
        let ranked = rank(&g, out.results.trees().to_vec(), sigma, Some(2));
        println!("\n-- ranked by {name} --");
        for (score, tree) in &ranked {
            println!("  score {score:>6.3}:  {}", tree.describe(&g));
        }
    }

    println!(
        "\nThe country-hub tree wins on size, but the account-chain tree wins \
         on specificity — the score function is the analyst's choice (R2)."
    );

    // The same investigation in EQL, through a prepared query: the
    // analyst typically re-runs the case query as the graph view
    // evolves, so parse + validate + plan happen once on the session.
    let session = Session::new(&g);
    let prepared = session
        .prepare(
            r#"SELECT w WHERE {
                 CONNECT("MrShady", "BankABC", "TaxOfficeDEF" -> w)
                 MAX 8 SCORE specificity TOP 2
               }"#,
        )
        .expect("valid EQL");
    let eql_result = session.execute(&prepared).expect("case query executes");
    println!(
        "\nEQL (prepared, specificity TOP 2): {} answers",
        eql_result.rows()
    );
    for (score, tree) in eql_result.scores["w"]
        .iter()
        .zip(eql_result.trees["w"].iter())
    {
        println!("  score {score:>6.3}:  {}", tree.describe(&g));
    }

    // Export the evidence subgraph: the union of all found connecting
    // trees, as shareable triples.
    let all_edges: Vec<_> = out
        .results
        .trees()
        .iter()
        .flat_map(|t| t.edges.iter().copied())
        .collect();
    let (evidence, _) = connection_search::graph::extract_subgraph(&g, &all_edges, &[]);
    println!(
        "\nevidence subgraph: {} nodes, {} edges — exported triples:\n{}",
        evidence.node_count(),
        evidence.edge_count(),
        connection_search::graph::ntriples::write_triples(&evidence)
    );
}
