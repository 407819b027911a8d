//! End-to-end storage-backing parity: the same EQL queries through
//! [`Session`]s over an in-memory graph, an owned snapshot load, and a
//! zero-copy mmap load must produce identical results, identical
//! chosen plans, and identical search statistics (node/edge work
//! counts — not timings). The planner starts warm on both loaded
//! backings (the snapshot carries the statistics sidecar).

use cs_eql::{QueryResult, Session};
use cs_graph::generate::{scale_free, ScaleFreeParams};
use cs_graph::{snapshot, EdgeId, Graph};

fn dataset() -> Graph {
    scale_free(&ScaleFreeParams {
        nodes: 800,
        edges_per_node: 3,
        labels: 12,
        types: 6,
        seed: 0xC5C5,
    })
}

const QUERIES: &[&str] = &[
    r#"SELECT x, w WHERE { (x, "rel0", y) CONNECT(x, y -> w) MAX 2 LIMIT 5 }"#,
    r#"SELECT x, y WHERE { (x, "rel1", y) (y, "rel0", z) }"#,
    r#"ASK WHERE { (x : type = "type0", "rel2", y) }"#,
];

/// Everything comparable about one run: rendered rows, tree edge sets,
/// plan descriptions, and the deterministic part of the search stats.
fn observe(g: &Graph, r: &QueryResult) -> (Vec<String>, Vec<Vec<EdgeId>>, Vec<String>, String) {
    let rows: Vec<String> = r.render(g).lines().map(str::to_string).collect();
    let trees: Vec<Vec<EdgeId>> = r
        .trees
        .values()
        .flat_map(|ts| ts.iter().map(|t| t.edges.to_vec()))
        .collect();
    let plans: Vec<String> = r.stats.plans.iter().map(|p| format!("{p:?}")).collect();
    let search: String = r
        .stats
        .ctp_stats
        .iter()
        .map(|(var, s, _)| format!("{var}: {s:?}\n"))
        .collect();
    (rows, trees, plans, search)
}

#[test]
fn sessions_agree_across_storage_backings() {
    let g_mem = dataset();
    let mut path = std::env::temp_dir();
    path.push(format!("cs-eql-parity-{}.csg", std::process::id()));
    snapshot::save_to(&g_mem, &path).unwrap();

    let g_owned = snapshot::load_from_owned(&path).unwrap();
    assert!(!g_owned.is_memory_mapped());
    assert!(
        g_owned.cardinalities_if_computed().is_some(),
        "planner must start warm from the sidecar"
    );

    let backings: Vec<(&str, &Graph)> = {
        let mut v = vec![("memory", &g_mem), ("owned", &g_owned)];
        // Zero-copy only exists on little-endian unix; the two-way
        // comparison still runs elsewhere.
        if cfg!(all(unix, target_endian = "little")) {
            v.reserve(1);
        }
        v
    };
    let g_mapped;
    let mut backings = backings;
    #[cfg(all(unix, target_endian = "little"))]
    {
        g_mapped = snapshot::load_from_mmap(&path).unwrap();
        assert!(g_mapped.is_memory_mapped());
        assert!(g_mapped.cardinalities_if_computed().is_some());
        backings.push(("mmap", &g_mapped));
    }
    #[cfg(not(all(unix, target_endian = "little")))]
    {
        g_mapped = ();
        let _ = &g_mapped;
    }

    for q in QUERIES {
        let mut reference: Option<(String, _)> = None;
        for (name, g) in &backings {
            let session = Session::new(g);
            let result = session
                .run(q)
                .unwrap_or_else(|e| panic!("{name}: {q}: {e}"));
            assert_eq!(result.stats.plans.len(), 1, "{name}: one BGP, one plan");
            let seen = observe(g, &result);
            match &reference {
                None => reference = Some((name.to_string(), seen)),
                Some((ref_name, expected)) => {
                    assert_eq!(
                        expected, &seen,
                        "query {q:?}: {name} diverges from {ref_name}"
                    );
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
