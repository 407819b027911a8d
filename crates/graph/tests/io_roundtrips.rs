//! Property-based round-trip tests for the two serialisation layers
//! (triples text and binary snapshot) and for the glob matcher.

use cs_graph::generate::{gnp, random_connected};
use cs_graph::{binfmt, glob_match, ntriples, Graph};
use proptest::prelude::*;

/// Structural equality up to renumbering: counts, label multisets,
/// degree sequences.
fn structurally_equal(a: &Graph, b: &Graph) -> bool {
    if a.node_count() != b.node_count() || a.edge_count() != b.edge_count() {
        return false;
    }
    let mut da: Vec<usize> = a.node_ids().map(|n| a.degree(n)).collect();
    let mut db: Vec<usize> = b.node_ids().map(|n| b.degree(n)).collect();
    da.sort_unstable();
    db.sort_unstable();
    if da != db {
        return false;
    }
    let mut la: Vec<String> = a.edge_ids().map(|e| a.edge_label(e).to_string()).collect();
    let mut lb: Vec<String> = b.edge_ids().map(|e| b.edge_label(e).to_string()).collect();
    la.sort();
    lb.sort();
    la == lb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn binfmt_roundtrip_random(n in 2usize..40, extra in 0usize..20, seed in any::<u64>()) {
        let g = random_connected(n, extra, seed);
        let g2 = binfmt::decode_graph(&binfmt::encode_graph(&g)).unwrap();
        // Binary snapshots preserve ids exactly.
        prop_assert_eq!(g2.node_count(), g.node_count());
        prop_assert_eq!(g2.edge_count(), g.edge_count());
        for e in g.edge_ids() {
            prop_assert_eq!(g2.describe_edge(e), g.describe_edge(e));
        }
    }

    #[test]
    fn triples_roundtrip_random(n in 2usize..30, p in 0.02f64..0.3, seed in any::<u64>()) {
        let g = gnp(n, p, seed);
        let text = ntriples::write_triples(&g);
        let g2 = ntriples::parse_triples(&text).unwrap();
        // Text round-trips preserve structure up to renumbering (and
        // drop isolated nodes, so compare via a second round-trip).
        let text2 = ntriples::write_triples(&g2);
        let g3 = ntriples::parse_triples(&text2).unwrap();
        prop_assert!(structurally_equal(&g2, &g3));
    }

    #[test]
    fn binfmt_never_panics_on_corrupt_input(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Arbitrary bytes must decode to Err, never panic.
        let _ = binfmt::decode_graph(&bytes);
        // Also put the snapshot magic, and the retired CSG1 one, onto
        // garbage.
        for magic in [b"CSG1".as_slice(), b"CSG2".as_slice()] {
            let mut with_magic = magic.to_vec();
            with_magic.extend_from_slice(&bytes);
            prop_assert!(binfmt::decode_graph(&with_magic).is_err());
        }
    }

    #[test]
    fn glob_star_matches_everything(s in "[a-zA-Z0-9]{0,12}") {
        let star_prefix = format!("*{s}");
        let star_suffix = format!("{s}*");
        prop_assert!(glob_match("*", &s));
        prop_assert!(glob_match(&star_prefix, &s));
        prop_assert!(glob_match(&star_suffix, &s));
        prop_assert!(glob_match(&s, &s), "every string matches itself");
    }

    #[test]
    fn glob_question_mark_arity(s in "[a-z]{1,10}") {
        let pattern = "?".repeat(s.chars().count());
        let longer = format!("{pattern}?");
        prop_assert!(glob_match(&pattern, &s));
        prop_assert!(!glob_match(&longer, &s));
    }
}
