//! Property-based tests of the disk-backed snapshot store (CSG2):
//! decode robustness (corrupt input must error, never panic), and full
//! save → load equivalence including warm planner statistics.

use cs_graph::generate::{from_spec, random_connected};
use cs_graph::{binfmt, snapshot, Graph, GraphBuilder, Value};
use proptest::prelude::*;

/// Exact equivalence: ids, labels, types, props, interner contents,
/// adjacency — everything observable must match.
fn assert_identical(a: &Graph, b: &Graph) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    assert_eq!(a.interner().len(), b.interner().len());
    for (id, s) in a.interner().iter() {
        assert_eq!(b.resolve(id), s, "interner drift at {id:?}");
    }
    for n in a.node_ids() {
        assert_eq!(a.node_label(n), b.node_label(n));
        assert_eq!(
            a.node_types(n).collect::<Vec<_>>(),
            b.node_types(n).collect::<Vec<_>>()
        );
        assert_eq!(a.node(n).props, b.node(n).props);
        assert_eq!(a.adjacent(n), b.adjacent(n));
    }
    for e in a.edge_ids() {
        assert_eq!(a.describe_edge(e), b.describe_edge(e));
        assert_eq!(a.edge_props(e), b.edge_props(e));
    }
}

/// A small graph with every value type and multi-type nodes, so the
/// round-trip covers the whole surface.
fn rich_graph(n: usize, extra: usize, seed: u64) -> Graph {
    let base = random_connected(n, extra, seed);
    let mut b = GraphBuilder::new();
    let nodes: Vec<_> = base
        .node_ids()
        .map(|v| b.add_typed_node(base.node_label(v), &["t0"]))
        .collect();
    for e in base.edge_ids() {
        let ed = base.edge(e);
        let id = b.add_edge(
            nodes[ed.src.index()],
            base.edge_label(e),
            nodes[ed.dst.index()],
        );
        if e.index() % 3 == 0 {
            b.set_edge_prop(id, "w", (e.index() as i64) - 2);
        }
    }
    for (i, &v) in nodes.iter().enumerate() {
        if i % 2 == 0 {
            b.set_node_prop(v, "score", i as f64 * 0.5);
        }
        if i % 5 == 0 {
            b.set_node_prop(v, "name", format!("node-{i}"));
            b.add_type(v, "t1");
        }
    }
    b.freeze()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cs-snapshot-test-{}-{name}", std::process::id()));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// save → load yields an identical graph — nodes, edges, props,
    /// interner — with the planner statistics warm on load and equal
    /// to the freshly computed ones.
    #[test]
    fn save_load_identical_with_warm_stats(n in 2usize..30, extra in 0usize..15, seed in any::<u64>()) {
        let g = rich_graph(n, extra, seed);
        let path = tmp(&format!("prop-{n}-{extra}-{seed}.csg"));
        snapshot::save_to(&g, &path).unwrap();
        let g2 = snapshot::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_identical(&g, &g2);
        // Warm statistics: present before any query touches them, and
        // byte-equal to a recomputation.
        let warm = g2.cardinalities_if_computed().expect("stats must be warm");
        prop_assert_eq!(warm, g.cardinalities());
    }

    /// Truncation at every prefix length errors, never panics.
    #[test]
    fn truncation_never_panics(cut_permille in 0usize..1000) {
        let g = rich_graph(12, 6, 99);
        let bytes = binfmt::encode_graph(&g);
        let cut = bytes.len() * cut_permille / 1000;
        if cut < bytes.len() {
            prop_assert!(binfmt::decode_graph(&bytes[..cut]).is_err());
        }
    }

    /// A single flipped byte anywhere in the file never panics. Almost
    /// every flip is an error (payloads are checksummed; framing flips
    /// derail cleanly); the one benign case is a flip in a section-id
    /// header byte that turns the *optional* stats section into an
    /// unknown id — decode then succeeds with the identical graph,
    /// just a cold planner. A flip must never produce a *different*
    /// graph.
    #[test]
    fn bit_flip_never_panics(pos_permille in 0usize..1000, mask in 1u8..=255) {
        let g = rich_graph(10, 5, 7);
        let mut bytes = binfmt::encode_graph(&g).to_vec();
        let pos = (bytes.len() * pos_permille / 1000).min(bytes.len() - 1);
        bytes[pos] ^= mask;
        if let Ok(g2) = binfmt::decode_graph(&bytes) {
            assert_identical(&g, &g2);
        }
    }

    /// Arbitrary bytes under either magic never panic.
    #[test]
    fn garbage_never_panics(mut body in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = binfmt::decode_graph(&body);
        for magic in [b"CSG1".as_slice(), b"CSG2".as_slice()] {
            let mut with_magic = magic.to_vec();
            with_magic.append(&mut body.clone());
            prop_assert!(binfmt::decode_graph(&with_magic).is_err());
        }
        let _ = body.pop();
    }
}

#[test]
fn wrong_magic_is_bad_magic() {
    assert_eq!(
        binfmt::decode_graph(b"PNG\x89 not a graph").unwrap_err(),
        binfmt::DecodeError::BadMagic
    );
}

/// The retired CSG1 format is no longer read: a file with its magic is
/// rejected as not a snapshot, by the decoder and the file-level API.
#[test]
fn csg1_magic_is_bad_magic() {
    let mut bytes = binfmt::encode_graph(&rich_graph(8, 4, 1)).to_vec();
    bytes[..4].copy_from_slice(b"CSG1");
    assert_eq!(
        binfmt::decode_graph(&bytes).unwrap_err(),
        binfmt::DecodeError::BadMagic
    );
    let path = tmp("csg1-magic.csg");
    std::fs::write(&path, &bytes).unwrap();
    let load = snapshot::load_from(&path).map(|_| ());
    let inspect = snapshot::inspect(&path).map(|_| ());
    std::fs::remove_file(&path).ok();
    for err in [load.unwrap_err(), inspect.unwrap_err()] {
        assert!(
            matches!(
                err,
                snapshot::SnapshotError::Decode {
                    source: binfmt::DecodeError::BadMagic,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().ends_with("not a CSG2 snapshot"), "{err}");
    }
}

#[test]
fn spec_graph_roundtrips_through_file() {
    let g = from_spec("yago_like:persons=200,works=50").unwrap();
    let path = tmp("spec.csg");
    let info = snapshot::save_to(&g, &path).unwrap();
    assert_eq!(info.nodes as usize, g.node_count());
    assert!(info.has_stats);

    let inspected = snapshot::inspect(&path).unwrap();
    assert_eq!(inspected.nodes as usize, g.node_count());
    assert_eq!(inspected.edges as usize, g.edge_count());
    assert!(inspected.has_stats);

    let g2 = snapshot::load_from(&path).unwrap();
    assert_identical(&g, &g2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn property_values_roundtrip_exactly() {
    let mut b = GraphBuilder::new();
    let a = b.add_node("a");
    let c = b.add_node("c");
    let e = b.add_edge(a, "r", c);
    b.set_node_prop(a, "int", i64::MIN);
    b.set_node_prop(a, "float", f64::MAX);
    b.set_node_prop(c, "neg", -0.0f64);
    b.set_node_prop(c, "text", "unicode: ∀x∈G");
    b.set_edge_prop(e, "empty", "");
    let g = b.freeze();

    let path = tmp("values.csg");
    snapshot::save_to(&g, &path).unwrap();
    let g2 = snapshot::load_from(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(g2.node_prop(a, "int"), Some(&Value::Int(i64::MIN)));
    assert_eq!(g2.node_prop(a, "float"), Some(&Value::Float(f64::MAX)));
    assert_eq!(g2.node_prop(c, "text"), Some(&Value::str("unicode: ∀x∈G")));
    assert_eq!(g2.edge_prop(e, "empty"), Some(&Value::str("")));
}
