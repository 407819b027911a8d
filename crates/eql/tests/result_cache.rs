//! Cross-query result-cache integration tests: a cached session must
//! be *observably identical* to an uncached one — same rows, same
//! canonical tree order, same TOP-k tie-breaks — whether a query is
//! served cold, from an exact-signature replay, or by filtering a
//! dominating (subsumption) entry. Incomplete algorithm configurations
//! (e.g. MoESP at m = 3) may only be served as exact-signature hits.
//! Magic-set seed narrowing must not change SELECT semantics either.

use cs_eql::{EqlError, ExecOptions, QueryResult, ResultCacheMode, Session};
use cs_graph::generate::gnp;
use cs_graph::{figure1, Graph, GraphBuilder};
use proptest::prelude::*;

/// Options with the result cache disabled — the reference executions.
fn off() -> ExecOptions {
    ExecOptions {
        result_cache: ResultCacheMode::Off,
        ..ExecOptions::default()
    }
}

/// Order-sensitive observable outcome: the exact rendered text (row
/// order and tree indices included) or the error message. Cached
/// replays must reproduce this byte for byte, not merely as a set.
fn observed(g: &Graph, r: &Result<QueryResult, EqlError>) -> Result<String, String> {
    match r {
        Ok(q) => Ok(q.render(g)),
        Err(e) => Err(e.to_string()),
    }
}

/// Algorithms in a complete configuration at m = 2 (all of them).
const M2_ALGOS: [&str; 8] = [
    "bft", "bftm", "bftam", "gam", "esp", "moesp", "lesp", "molesp",
];
/// Algorithms in a complete configuration at m = 3.
const M3_ALGOS: [&str; 5] = ["bft", "bftm", "bftam", "gam", "molesp"];

fn m2_query(a: usize, k: usize, algo: &str) -> String {
    format!(r#"SELECT w WHERE {{ CONNECT("n0", "n{a}" -> w) MAX {k} ALGORITHM {algo} }}"#)
}

fn m3_query(a: usize, b: usize, k: usize, algo: &str) -> String {
    format!(r#"SELECT w WHERE {{ CONNECT("n0", "n{a}", "n{b}" -> w) MAX {k} ALGORITHM {algo} }}"#)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exact-signature replay ≡ fresh search, across every algorithm
    /// at m = 2, on random graphs: cold run, warm (replayed) run, and
    /// an uncached session render identically, and the warm run is one
    /// cache hit with zero misses.
    #[test]
    fn m2_replay_equals_fresh_search(seed in any::<u64>(), a in 1usize..9, k in 1usize..4) {
        let g = gnp(9, 0.2, seed);
        for algo in M2_ALGOS {
            let q = m2_query(a, k, algo);
            let reference = Session::with_options(&g, off()).run(&q);
            let session = Session::new(&g);
            let cold = session.run(&q);
            let warm = session.run(&q);
            prop_assert_eq!(observed(&g, &reference), observed(&g, &cold), "{} cold", algo);
            prop_assert_eq!(observed(&g, &cold), observed(&g, &warm), "{} warm", algo);
            if let Ok(w) = &warm {
                prop_assert_eq!(w.stats.result_cache_hits, 1, "{} must replay", algo);
                prop_assert_eq!(w.stats.result_cache_misses, 0);
            }
        }
    }

    /// The same replay property at m = 3 for the complete-config
    /// algorithms (and, as an exact-signature hit, even for the
    /// incomplete MoESP — exact hits replay whatever the configuration
    /// computed, complete or not).
    #[test]
    fn m3_replay_equals_fresh_search(seed in any::<u64>(), a in 1usize..5, b in 5usize..9, k in 2usize..5) {
        let g = gnp(9, 0.25, seed);
        for algo in M3_ALGOS.iter().chain(&["moesp"]) {
            let q = m3_query(a, b, k, algo);
            let reference = Session::with_options(&g, off()).run(&q);
            let session = Session::new(&g);
            let cold = session.run(&q);
            let warm = session.run(&q);
            prop_assert_eq!(observed(&g, &reference), observed(&g, &cold), "{} cold", algo);
            prop_assert_eq!(observed(&g, &cold), observed(&g, &warm), "{} warm", algo);
            if let Ok(w) = &warm {
                prop_assert_eq!(w.stats.result_cache_hits, 1, "{} must replay", algo);
            }
        }
    }

    /// Subsumption ≡ direct search: a probe whose MAX bound (or LABEL
    /// set) is dominated by a cached complete entry is answered by
    /// filtering that entry — and must render exactly like an uncached
    /// direct search, canonical order included.
    #[test]
    fn subsumed_probe_equals_direct_search(seed in any::<u64>(), a in 1usize..9, k in 1usize..3) {
        let g = gnp(9, 0.25, seed);
        let wide = m2_query(a, 3, "bft");
        let narrow = m2_query(a, k, "bft");
        let labelled = format!(
            r#"SELECT w WHERE {{ CONNECT("n0", "n{a}" -> w) LABEL "r0", "r1" MAX 3 ALGORITHM bft }}"#
        );

        let session = Session::new(&g);
        let warmup = session.run(&wide);
        prop_assert_eq!(
            observed(&g, &Session::with_options(&g, off()).run(&wide)),
            observed(&g, &warmup)
        );

        let probe = session.run(&narrow);
        prop_assert_eq!(
            observed(&g, &Session::with_options(&g, off()).run(&narrow)),
            observed(&g, &probe),
            "bound-dominated probe"
        );
        if let Ok(p) = &probe {
            prop_assert_eq!(p.stats.result_cache_subsumed, 1, "must be subsumption-served");
            prop_assert_eq!(p.stats.result_cache_misses, 0);
        }

        let by_label = session.run(&labelled);
        prop_assert_eq!(
            observed(&g, &Session::with_options(&g, off()).run(&labelled)),
            observed(&g, &by_label),
            "label-dominated probe"
        );
        if let Ok(p) = &by_label {
            prop_assert_eq!(p.stats.result_cache_subsumed, 1);
        }
    }

    /// TOP-k tie-breaks survive replay: SCORE … TOP k selects from the
    /// replayed canonical order exactly what it selects from a fresh
    /// search, so ties at the k-th slot break identically.
    #[test]
    fn top_k_tiebreaks_replay_identically(seed in any::<u64>(), a in 1usize..9, k in 1usize..4) {
        let g = gnp(9, 0.25, seed);
        let q = format!(
            r#"SELECT w WHERE {{ CONNECT("n0", "n{a}" -> w) MAX 3 SCORE edgecount TOP {k} ALGORITHM gam }}"#
        );
        let reference = Session::with_options(&g, off()).run(&q);
        let session = Session::new(&g);
        let cold = session.run(&q);
        let warm = session.run(&q);
        prop_assert_eq!(observed(&g, &reference), observed(&g, &cold));
        prop_assert_eq!(observed(&g, &cold), observed(&g, &warm));
        if let Ok(w) = &warm {
            prop_assert_eq!(w.stats.result_cache_hits, 1);
        }
    }

    /// An incomplete configuration (MoESP at m = 3 computes only the
    /// 2-provenance-set results) is never subsumption-served: its
    /// entries answer exact-signature repeats only, and a dominated
    /// probe runs a real search — matching the uncached session.
    #[test]
    fn incomplete_config_is_never_subsumption_served(seed in any::<u64>(), a in 1usize..5, b in 5usize..9) {
        let g = gnp(9, 0.25, seed);
        let wide = m3_query(a, b, 4, "moesp");
        let narrow = m3_query(a, b, 3, "moesp");

        let session = Session::new(&g);
        let first = session.run(&wide);
        let probe = session.run(&narrow);
        prop_assert_eq!(
            observed(&g, &Session::with_options(&g, off()).run(&narrow)),
            observed(&g, &probe)
        );
        if let Ok(p) = &probe {
            prop_assert_eq!(p.stats.result_cache_subsumed, 0, "incomplete entry must not subsume");
            prop_assert_eq!(p.stats.result_cache_misses, 1);
        }

        // The exact signature still replays.
        let repeat = session.run(&wide);
        prop_assert_eq!(observed(&g, &first), observed(&g, &repeat));
        if let Ok(r) = &repeat {
            prop_assert_eq!(r.stats.result_cache_hits, 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Magic-set seed narrowing.

/// Order-insensitive row answer, for comparing *different* query texts
/// with equal semantics (join row order may legitimately differ
/// between them). Rows are the query's answer; the `trees` map of a
/// narrowed query may omit CTP results that cannot contribute any join
/// row — `narrowed_trees_are_a_subset` below pins that relation.
fn rows_of(g: &Graph, r: &Result<QueryResult, EqlError>) -> Result<Vec<String>, String> {
    match r {
        Ok(q) => {
            let mut rows: Vec<String> = q.render(g).lines().skip(1).map(str::to_string).collect();
            rows.sort();
            Ok(rows)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Asserts the narrowed run's per-variable trees are a subset of the
/// unnarrowed run's: narrowing may only drop trees, never invent them.
fn assert_trees_subset(g: &Graph, narrowed: &QueryResult, unnarrowed: &QueryResult) {
    for (var, ts) in &narrowed.trees {
        let full: Vec<String> = unnarrowed.trees[var]
            .iter()
            .map(|t| t.describe(g))
            .collect();
        for t in ts.iter() {
            assert!(
                full.contains(&t.describe(g)),
                "narrowed {var} tree [{}] absent from the unnarrowed run",
                t.describe(g)
            );
        }
    }
}

/// A random graph with node labels `n0..`, a random subset typed `"t"`,
/// and edges over the `r0..r3` vocabulary — gnp plus types, so CTP
/// terms with a `type = "t"` condition select a proper subset.
fn typed_graph(n: usize, typed: &[bool], edges: &[(usize, usize, u8)]) -> Graph {
    let mut b = GraphBuilder::new();
    let nodes: Vec<_> = (0..n)
        .map(|i| {
            if typed[i % typed.len()] {
                b.add_typed_node(&format!("n{i}"), &["t"])
            } else {
                b.add_node(&format!("n{i}"))
            }
        })
        .collect();
    for &(s, d, l) in edges {
        let (s, d) = (s % n, d % n);
        if s != d {
            b.add_edge(nodes[s], &format!("r{}", l % 4), nodes[d]);
        }
    }
    b.freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Magic-set narrowing preserves SELECT semantics. The same query
    /// is executed twice: once narrowable, and once with a
    /// never-binding LIMIT on the shared-variable CTP, which makes
    /// that CTP ineligible for narrowing without changing its answer.
    /// Both must produce identical rows and trees.
    #[test]
    fn narrowing_preserves_select_semantics(
        typed in collection::vec(any::<bool>(), 1..8),
        edges in collection::vec((0usize..8, 0usize..8, 0u8..4), 6..24),
    ) {
        let g = typed_graph(8, &typed, &edges);
        let body = |suffix: &str| format!(
            r#"SELECT x, w1, w2 WHERE {{
                (x, "r0", y)
                CONNECT(x : type = "t", "n0" -> w1) MAX 3
                CONNECT(x, "n1" -> w2) MAX 3{suffix}
            }}"#
        );
        // LIMIT 500 can never bind on an 8-node graph with MAX 3, so
        // the two queries are semantically identical — but only the
        // first is eligible for magic-set narrowing.
        let narrowed = Session::with_options(&g, off()).run(&body(""));
        let unnarrowed = Session::with_options(&g, off()).run(&body(" LIMIT 500"));
        prop_assert_eq!(rows_of(&g, &narrowed), rows_of(&g, &unnarrowed));
        if let (Ok(n), Ok(u)) = (&narrowed, &unnarrowed) {
            assert_trees_subset(&g, n, u);
        }
    }
}

#[test]
fn narrowing_fires_and_is_recorded_on_figure1() {
    let g = figure1();
    let q = r#"SELECT x, w1, w2 WHERE {
        (x, "citizenOf", y)
        CONNECT(x : type = "entrepreneur", "France" -> w1) MAX 3
        CONNECT(x, "OrgB" -> w2) MAX 3
    }"#;
    // The BGP binds x to all five citizens; the typed CTP term keeps
    // the four entrepreneurs, so the plain-x CTP narrows 5 → 4.
    let r = Session::with_options(&g, off()).run(q).unwrap();
    assert_eq!(r.stats.seed_narrowings.len(), 1);
    let n = &r.stats.seed_narrowings[0];
    assert_eq!((n.ctp.as_str(), n.var.as_str()), ("w2", "x"));
    assert_eq!((n.from, n.to), (5, 4));

    // Semantics check against the ineligible (LIMIT-guarded) twin.
    let twin = Session::with_options(&g, off())
        .run(&q.replace("-> w2) MAX 3", "-> w2) MAX 3 LIMIT 500"))
        .unwrap();
    assert_eq!(twin.stats.seed_narrowings.len(), 0);
    assert_trees_subset(&g, &r, &twin);
    assert_eq!(
        rows_of(&g, &Ok(r)),
        rows_of(&g, &Ok(twin)),
        "narrowed row answers must equal the unnarrowed twin's"
    );
}

// ---------------------------------------------------------------------------
// Session-level cache behaviour.

#[test]
fn capacity_zero_bypasses_the_cache() {
    let g = figure1();
    let session = Session::with_options(
        &g,
        ExecOptions {
            result_cache_capacity: 0,
            ..ExecOptions::default()
        },
    );
    let q = r#"SELECT w WHERE { CONNECT("Bob", "Carole" -> w) MAX 3 }"#;
    let a = session.run(q).unwrap();
    let b = session.run(q).unwrap();
    assert_eq!(a.render(&g), b.render(&g));
    for r in [&a, &b] {
        assert_eq!(r.stats.result_cache_hits, 0);
        assert_eq!(r.stats.result_cache_misses, 0);
        assert_eq!(r.stats.result_cache_subsumed, 0);
    }
    assert_eq!(session.result_cache_len(), 0);
}

#[test]
fn batch_deduplicates_identical_ctp_jobs() {
    let g = figure1();
    let q = r#"SELECT w WHERE { CONNECT("Bob", "Carole" -> w) MAX 3 }"#;
    let session = Session::new(&g);
    let results = session.execute_batch(&[q, q, q]);
    assert_eq!(results.len(), 3);
    let rendered: Vec<String> = results
        .iter()
        .map(|r| r.as_ref().unwrap().render(&g))
        .collect();
    assert_eq!(rendered[0], rendered[1]);
    assert_eq!(rendered[1], rendered[2]);
    // One real search; the two duplicates replay it.
    assert_eq!(results[0].as_ref().unwrap().stats.result_cache_misses, 1);
    for r in &results[1..] {
        assert_eq!(r.as_ref().unwrap().stats.result_cache_hits, 1);
    }
    assert_eq!(session.result_cache_len(), 1);
    assert_eq!(session.result_cache_hits(), 2);
    assert_eq!(session.result_cache_misses(), 1);
}

/// Batch dedup needs no room beyond one entry: each duplicate is
/// probed right after the search it repeats, before later searches of
/// the batch can evict it from a cache smaller than the batch.
#[test]
fn batch_deduplicates_beyond_the_cache_capacity() {
    let g = figure1();
    let q1 = r#"SELECT w WHERE { CONNECT("Bob", "Carole" -> w) MAX 3 }"#;
    let q2 = r#"SELECT w WHERE { CONNECT("Bob", "Elon" -> w) MAX 3 }"#;
    let q3 = r#"SELECT w WHERE { CONNECT("Alice", "Elon" -> w) MAX 3 }"#;
    let session = Session::with_options(
        &g,
        ExecOptions {
            result_cache_capacity: 2,
            ..ExecOptions::default()
        },
    );
    let results = session.execute_batch(&[q1, q1, q2, q2, q3, q3]);
    for pair in results.chunks(2) {
        let (first, dup) = (pair[0].as_ref().unwrap(), pair[1].as_ref().unwrap());
        assert_eq!(first.render(&g), dup.render(&g));
        assert_eq!(first.stats.result_cache_misses, 1);
        assert_eq!(dup.stats.result_cache_hits, 1, "every duplicate is a hit");
    }
    assert_eq!(session.result_cache_misses(), 3);
    assert_eq!(session.result_cache_hits(), 3);
    assert_eq!(session.result_cache_len(), 2);
}

#[test]
fn shared_cache_serves_a_sibling_session() {
    let shared = cs_eql::SharedResultCache::new(16);
    let opts = ExecOptions {
        result_cache: ResultCacheMode::Shared(shared.clone()),
        ..ExecOptions::default()
    };
    let g = std::sync::Arc::new(figure1());
    let a = Session::from_shared_with(g.clone(), opts.clone());
    let b = Session::from_shared_with(g.clone(), opts);
    let q = r#"SELECT w WHERE { CONNECT("Bob", "Elon" -> w) MAX 3 }"#;
    let first = a.run(q).unwrap();
    let second = b.run(q).unwrap();
    assert_eq!(first.render(a.graph()), second.render(b.graph()));
    assert_eq!(second.stats.result_cache_hits, 1);
    assert_eq!(shared.counters().hits, 1);
    assert_eq!(shared.counters().misses, 1);
    assert_eq!(shared.len(), 1);
}
