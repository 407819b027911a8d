//! Equivalence of the three ways a CSR graph can exist in memory:
//! built by the [`GraphBuilder`], decoded from an owned CSG2 buffer,
//! and loaded zero-copy from a memory-mapped snapshot. Every public
//! accessor — structure, adjacency, the label/type index runs, the
//! labelled endpoint runs, properties, statistics — must agree across
//! all three, and corrupt CSR sections must error (never panic) on
//! both the owned and the mapped load path.

use cs_graph::generate::random_connected;
use cs_graph::{binfmt, snapshot, Graph, GraphBuilder, LabelId, NodeId};
use proptest::prelude::*;

/// Builds a property-rich multi-label graph with self-loops and
/// parallel edges — the shapes most likely to disturb CSR ordering.
fn rich_graph(n: usize, extra: usize, seed: u64) -> Graph {
    let base = random_connected(n, extra, seed);
    let mut b = GraphBuilder::new();
    let nodes: Vec<_> = base
        .node_ids()
        .map(|v| {
            let id = b.add_node(base.node_label(v));
            if v.index() % 3 == 0 {
                b.add_type(id, "even_ish");
            }
            if v.index() % 4 == 0 {
                b.add_type(id, "quarter");
            }
            id
        })
        .collect();
    for e in base.edge_ids() {
        let ed = base.edge(e);
        let id = b.add_edge(
            nodes[ed.src.index()],
            base.edge_label(e),
            nodes[ed.dst.index()],
        );
        if e.index() % 5 == 0 {
            b.set_edge_prop(id, "w", e.index() as i64);
        }
    }
    // A self-loop and a parallel edge exercise the out-before-in
    // adjacency invariant and duplicate endpoint runs.
    b.add_edge(nodes[0], "selfish", nodes[0]);
    if nodes.len() > 1 {
        b.add_edge(nodes[0], "dup", nodes[1]);
        b.add_edge(nodes[0], "dup", nodes[1]);
    }
    b.set_node_prop(nodes[0], "score", 1.5f64);
    b.freeze()
}

/// Every observable accessor of `b` must equal `a`'s.
fn assert_equivalent(a: &Graph, b: &Graph) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    assert_eq!(a.interner().len(), b.interner().len());
    for n in a.node_ids() {
        assert_eq!(a.node_label(n), b.node_label(n));
        assert_eq!(
            a.node_types(n).collect::<Vec<_>>(),
            b.node_types(n).collect::<Vec<_>>()
        );
        assert_eq!(a.node_props(n), b.node_props(n));
        assert_eq!(a.adjacent(n), b.adjacent(n));
        assert_eq!(a.degree(n), b.degree(n));
        assert_eq!(
            a.outgoing(n).collect::<Vec<_>>(),
            b.outgoing(n).collect::<Vec<_>>()
        );
        assert_eq!(
            a.incoming(n).collect::<Vec<_>>(),
            b.incoming(n).collect::<Vec<_>>()
        );
    }
    for e in a.edge_ids() {
        assert_eq!(a.describe_edge(e), b.describe_edge(e));
        assert_eq!(a.edge_props(e), b.edge_props(e));
    }
    // The whole label universe: index runs and labelled endpoint runs.
    for l in (0..a.interner().len()).map(LabelId::new) {
        assert_eq!(a.edges_with_label(l), b.edges_with_label(l));
        assert_eq!(a.nodes_with_label(l), b.nodes_with_label(l));
        assert_eq!(a.nodes_with_type(l), b.nodes_with_type(l));
        assert_eq!(a.node_by_label(a.resolve(l)), b.node_by_label(b.resolve(l)));
        for n in a.node_ids() {
            assert_eq!(
                a.out_edges_labelled(n, l),
                b.out_edges_labelled(n, l),
                "out run drift at {n:?} {l:?}"
            );
            assert_eq!(a.in_edges_labelled(n, l), b.in_edges_labelled(n, l));
        }
    }
    // Statistics parity (recomputed, not sidecar-seeded).
    assert_eq!(a.cardinalities(), b.cardinalities());
}

/// The labelled endpoint runs must agree with a plain adjacency filter.
fn assert_runs_match_adjacency(g: &Graph) {
    for n in g.node_ids() {
        for l in (0..g.interner().len()).map(LabelId::new) {
            let out: Vec<_> = g
                .outgoing(n)
                .filter(|a| g.edge(a.edge()).label == l)
                .map(|a| a.edge())
                .collect();
            assert_eq!(g.out_edges_labelled(n, l), &out[..]);
            let inc: Vec<_> = g
                .incoming(n)
                .filter(|a| g.edge(a.edge()).label == l)
                .map(|a| a.edge())
                .collect();
            assert_eq!(g.in_edges_labelled(n, l), &inc[..]);
        }
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cs-csr-equiv-{}-{name}", std::process::id()));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Built ≡ owned-decoded ≡ mmap-loaded, for every accessor.
    #[test]
    fn three_backings_agree(n in 2usize..24, extra in 0usize..12, seed in any::<u64>()) {
        let built = rich_graph(n, extra, seed);
        let owned = binfmt::decode_graph(&binfmt::encode_graph(&built)).unwrap();
        assert!(!owned.is_memory_mapped());
        assert_equivalent(&built, &owned);
        assert_runs_match_adjacency(&owned);

        let path = tmp(&format!("tri-{n}-{extra}-{seed}.csg"));
        snapshot::save_to(&built, &path).unwrap();
        let loaded = snapshot::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        #[cfg(all(unix, target_endian = "little"))]
        assert!(loaded.is_memory_mapped());
        assert_equivalent(&built, &loaded);
        assert_runs_match_adjacency(&loaded);
    }

    /// Truncating the file at any point errors on the mapped path too,
    /// never panics, and never yields a different graph.
    #[test]
    fn truncated_snapshot_never_panics(cut_permille in 0usize..1000) {
        let g = rich_graph(10, 6, 42);
        let bytes = binfmt::encode_graph(&g);
        let cut = bytes.len() * cut_permille / 1000;
        if cut < bytes.len() {
            let path = tmp(&format!("trunc-{cut_permille}.csg"));
            std::fs::write(&path, &bytes[..cut]).unwrap();
            prop_assert!(snapshot::load_from(&path).is_err());
            prop_assert!(snapshot::load_from_mmap(&path).is_err());
            std::fs::remove_file(&path).ok();
        }
    }

    /// A flipped byte anywhere in a CSR snapshot never panics on the
    /// mapped load path; when it decodes anyway the graph is intact.
    #[test]
    fn bit_flip_never_panics_mapped(pos_permille in 0usize..1000, mask in 1u8..=255) {
        let g = rich_graph(8, 5, 7);
        let mut bytes = binfmt::encode_graph(&g).to_vec();
        let pos = (bytes.len() * pos_permille / 1000).min(bytes.len() - 1);
        bytes[pos] ^= mask;
        let path = tmp(&format!("flip-{pos_permille}-{mask}.csg"));
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(g2) = snapshot::load_from(&path) {
            assert_equivalent(&g, &g2);
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Misaligned CSR payloads must fall back to owned columns rather than
/// reinterpreting unaligned memory. A custom frame with a 1-byte dummy
/// section before the CSR section shifts every payload off the natural
/// 8-byte alignment.
#[test]
fn misaligned_csr_section_falls_back_to_owned() {
    let g = rich_graph(8, 4, 3);
    let sections = binfmt::encode_sections(&g);
    let mut reordered: Vec<(u32, Vec<u8>)> = vec![(999, vec![0u8])];
    reordered.extend(sections.iter().map(|(id, p)| (*id, p.to_vec())));

    let mut buf = Vec::new();
    buf.extend_from_slice(b"CSG2");
    buf.extend_from_slice(&(reordered.len() as u32).to_le_bytes());
    for (id, payload) in &reordered {
        buf.extend_from_slice(&binfmt::section_header(*id, payload));
        buf.extend_from_slice(payload);
    }
    let path = tmp("misaligned.csg");
    std::fs::write(&path, &buf).unwrap();

    let loaded = snapshot::load_from(&path).unwrap();
    std::fs::remove_file(&path).ok();
    // The graph is correct either way; the columns just can't alias
    // the map.
    assert!(!loaded.is_memory_mapped(), "unaligned columns must copy");
    assert_equivalent(&g, &loaded);
}

/// A CSR section whose offsets are monotone but whose ids point out of
/// range must be rejected by validation (the checksum is recomputed, so
/// it can't catch a *crafted* file).
#[test]
fn crafted_out_of_range_ids_are_rejected() {
    let g = rich_graph(6, 3, 9);
    let sections = binfmt::encode_sections(&g);
    let csr = sections
        .iter()
        .find(|(id, _)| *id == binfmt::SECTION_CSR_GRAPH)
        .unwrap();
    // Corrupt the first edge triple's src (file offset 32 + node_label
    // + type_offsets + type_ids words) to an impossible node id, then
    // re-frame with a *fresh* checksum so only validation can object.
    let n = g.node_count();
    let t: usize = g.node_ids().map(|v| g.node_types(v).count()).sum();
    let edge_ndl_start = 32 + 4 * (n + (n + 1) + t);
    let mut payload = csr.1.to_vec();
    payload[edge_ndl_start..edge_ndl_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());

    let mut buf = Vec::new();
    buf.extend_from_slice(b"CSG2");
    buf.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (id, original) in &sections {
        let p: &[u8] = if *id == binfmt::SECTION_CSR_GRAPH {
            &payload
        } else {
            original
        };
        buf.extend_from_slice(&binfmt::section_header(*id, p));
        buf.extend_from_slice(p);
    }
    assert_eq!(
        binfmt::decode_graph(&buf).unwrap_err(),
        binfmt::DecodeError::BadReference
    );
}

/// `node_by_label` keeps returning the first node in id order after a
/// round trip (the CLI's seed resolution depends on it).
#[test]
fn node_by_label_first_in_id_order() {
    let mut b = GraphBuilder::new();
    let n0 = b.add_node("dup");
    let _n1 = b.add_node("dup");
    let g = b.freeze();
    let g2 = binfmt::decode_graph(&binfmt::encode_graph(&g)).unwrap();
    assert_eq!(g2.node_by_label("dup"), Some(n0));
    assert_eq!(g2.node_by_label("missing"), None);
    assert_eq!(NodeId::new(0), n0);
}
