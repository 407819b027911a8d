//! The GAM-family search, pinned exactly: for every configuration,
//! with and without `MAX`, under both queue policies, on small seeded
//! random graphs, the full `SearchStats` and the results' edge sets
//! in discovery order must match the figures recorded here.
//!
//! Result *sets* are checked by the property suites; this file guards
//! the *order* in which the engine builds provenances. Any change to
//! the history, the merge partner order or the Grow queue's tie-break
//! shows up here as a different count or a reordered result list.
//!
//! Each case renders as one line:
//! `graph algo max policy | provenances grows merges mo_copies pruned
//! queue_pushes arena | results`, where `arena` fingerprints every kept
//! provenance (root and edge set) in build order, and results are
//! `.`-joined edge ids, `,`-separated in discovery order.

use cs_core::algo::GamEngine;
use cs_core::tree::TreeId;
use cs_core::{Filters, GamConfig, QueueOrder, QueuePolicy, SeedSets};
use cs_graph::fxhash::fx_hash_one;
use cs_graph::generate::random_connected;
use cs_graph::{Graph, NodeId};

/// `(name, nodes, extra edges, rng seed, seed sets)`.
type GraphCase = (&'static str, usize, usize, u64, &'static [&'static [u32]]);

const GRAPHS: &[GraphCase] = &[
    ("g2a", 10, 5, 1, &[&[0, 6], &[9]]),
    ("g3a", 10, 5, 2, &[&[0], &[4, 7], &[9]]),
    ("g3b", 12, 6, 3, &[&[1, 11], &[5], &[8, 2]]),
];

fn render(
    name: &str,
    g: &Graph,
    sets: &[&[u32]],
    (algo, cfg): (&str, GamConfig),
    max: Option<usize>,
    policy: QueuePolicy,
) -> String {
    let seeds = SeedSets::from_sets(
        sets.iter()
            .map(|s| s.iter().map(|&n| NodeId(n)).collect())
            .collect(),
    )
    .unwrap();
    let filters = match max {
        Some(n) => Filters::none().with_max_edges(n),
        None => Filters::none(),
    };
    let traced =
        GamEngine::new(g, &seeds, cfg, filters, QueueOrder::SmallestFirst, policy).run_traced();
    // Every provenance the search kept, in build order.
    let arena: Vec<(u32, Vec<u32>)> = (0..traced.store.len() as u32)
        .map(|i| {
            let t = traced.store.get(TreeId(i));
            (t.root.0, t.edges.iter().map(|e| e.0).collect())
        })
        .collect();
    let out = traced.outcome;
    let s = &out.stats;
    assert!(!s.timed_out && !s.budget_exhausted && !s.cancelled);
    let results: Vec<String> = out
        .results
        .trees()
        .iter()
        .map(|t| {
            t.edges
                .iter()
                .map(|e| e.0.to_string())
                .collect::<Vec<_>>()
                .join(".")
        })
        .collect();
    format!(
        "{name} {algo} {} {:?} | {} {} {} {} {} {} {:016x} | {}",
        max.map_or("-".to_string(), |n| n.to_string()),
        policy,
        s.provenances,
        s.grows,
        s.merges,
        s.mo_copies,
        s.pruned,
        s.queue_pushes,
        fx_hash_one(&arena),
        results.join(",")
    )
}

const CONFIGS: [(&str, GamConfig); 5] = [
    ("GAM", GamConfig::GAM),
    ("ESP", GamConfig::ESP),
    ("MoESP", GamConfig::MOESP),
    ("LESP", GamConfig::LESP),
    ("MoLESP", GamConfig::MOLESP),
];

fn observed() -> Vec<String> {
    let mut lines = Vec::new();
    for &(name, n, extra, seed, sets) in GRAPHS {
        let g = random_connected(n, extra, seed);
        for algo in CONFIGS {
            for max in [None, Some(3)] {
                for policy in [QueuePolicy::Single, QueuePolicy::Balanced] {
                    lines.push(render(name, &g, sets, algo, max, policy));
                }
            }
        }
    }
    lines
}

const PINNED: &[&str] = &[
    "g2a GAM - Single | 68 50 15 0 0 50 d6e29894848a024f | 10,3.11,0.4.6.8,4.5.6.8,0.6.7.8.9,5.6.7.8.9",
    "g2a GAM - Balanced | 68 50 15 0 0 50 4c7fc2f30eef134f | 10,3.11,0.4.6.8,4.5.6.8,0.6.7.8.9,5.6.7.8.9",
    "g2a GAM 3 Single | 34 30 1 0 0 30 8f85fc78c5f363d1 | 10,3.11",
    "g2a GAM 3 Balanced | 34 30 1 0 0 30 426982abe89391f4 | 10,3.11",
    "g2a ESP - Single | 47 50 15 0 21 50 aa189285b806321a | 10,3.11,0.4.6.8,4.5.6.8,0.6.7.8.9,5.6.7.8.9",
    "g2a ESP - Balanced | 47 50 15 0 21 50 421a3bedd3823884 | 10,3.11,0.4.6.8,4.5.6.8,0.6.7.8.9,5.6.7.8.9",
    "g2a ESP 3 Single | 31 30 1 0 3 30 f64a73ae959df40e | 10,3.11",
    "g2a ESP 3 Balanced | 31 30 1 0 3 30 ed990269cd47615b | 10,3.11",
    "g2a MoESP - Single | 47 50 15 0 21 50 aa189285b806321a | 10,3.11,0.4.6.8,4.5.6.8,0.6.7.8.9,5.6.7.8.9",
    "g2a MoESP - Balanced | 47 50 15 0 21 50 421a3bedd3823884 | 10,3.11,0.4.6.8,4.5.6.8,0.6.7.8.9,5.6.7.8.9",
    "g2a MoESP 3 Single | 31 30 1 0 3 30 f64a73ae959df40e | 10,3.11",
    "g2a MoESP 3 Balanced | 31 30 1 0 3 30 ed990269cd47615b | 10,3.11",
    "g2a LESP - Single | 47 50 15 0 21 50 aa189285b806321a | 10,3.11,0.4.6.8,4.5.6.8,0.6.7.8.9,5.6.7.8.9",
    "g2a LESP - Balanced | 47 50 15 0 21 50 421a3bedd3823884 | 10,3.11,0.4.6.8,4.5.6.8,0.6.7.8.9,5.6.7.8.9",
    "g2a LESP 3 Single | 31 30 1 0 3 30 f64a73ae959df40e | 10,3.11",
    "g2a LESP 3 Balanced | 31 30 1 0 3 30 ed990269cd47615b | 10,3.11",
    "g2a MoLESP - Single | 47 50 15 0 21 50 aa189285b806321a | 10,3.11,0.4.6.8,4.5.6.8,0.6.7.8.9,5.6.7.8.9",
    "g2a MoLESP - Balanced | 47 50 15 0 21 50 421a3bedd3823884 | 10,3.11,0.4.6.8,4.5.6.8,0.6.7.8.9,5.6.7.8.9",
    "g2a MoLESP 3 Single | 31 30 1 0 3 30 f64a73ae959df40e | 10,3.11",
    "g2a MoLESP 3 Balanced | 31 30 1 0 3 30 ed990269cd47615b | 10,3.11",
    "g3a GAM - Single | 242 195 81 0 38 195 95a35d74edc4c68e | 0.1.3.10,0.3.9.10,0.1.3.8,0.3.8.9,0.3.8.10,0.4.6.8,0.1.4.6.10,0.4.6.9.10",
    "g3a GAM - Balanced | 242 195 81 0 38 195 2e90a90152e176d6 | 0.1.3.8,0.4.6.8,0.3.8.9,0.1.3.10,0.3.9.10,0.3.8.10,0.1.4.6.10,0.4.6.9.10",
    "g3a GAM 3 Single | 99 77 38 0 20 77 e508e48e63fcd4f5 | ",
    "g3a GAM 3 Balanced | 99 77 38 0 20 77 d5416366f653fa84 | ",
    "g3a ESP - Single | 131 146 43 0 62 146 7b33a854b8d249a3 | 0.1.3.10,0.3.9.10,0.1.3.8,0.3.8.9,0.4.6.8,0.1.4.6.10,0.4.6.9.10",
    "g3a ESP - Balanced | 130 144 42 0 60 144 d10f393d351a65e9 | 0.1.3.8,0.4.6.8,0.3.8.9,0.1.3.10,0.3.9.10,0.4.6.9.10,0.1.4.6.10",
    "g3a ESP 3 Single | 69 75 18 0 28 75 2181b7673e0fc75f | ",
    "g3a ESP 3 Balanced | 69 75 18 0 28 75 7deaf8fc1a35921b | ",
    "g3a MoESP - Single | 156 146 68 24 86 146 f1c3dd198d8b9f1d | 0.3.8.10,0.1.3.10,0.3.9.10,0.1.3.8,0.3.8.9,0.4.6.8,0.1.4.6.10,0.4.6.9.10",
    "g3a MoESP - Balanced | 155 144 67 24 84 144 5156e9b7ed7b20b2 | 0.1.3.8,0.4.6.8,0.3.8.9,0.1.3.10,0.3.8.10,0.3.9.10,0.4.6.9.10,0.1.4.6.10",
    "g3a MoESP 3 Single | 89 75 38 20 48 75 208b463221885b30 | ",
    "g3a MoESP 3 Balanced | 89 75 38 20 48 75 072e784ef77104df | ",
    "g3a LESP - Single | 177 184 54 0 65 184 fef54295b39d41bf | 0.1.3.10,0.3.9.10,0.1.3.8,0.3.8.9,0.4.6.8,0.1.4.6.10,0.4.6.9.10",
    "g3a LESP - Balanced | 179 183 53 0 61 183 c13f5073be880eaa | 0.1.3.8,0.4.6.8,0.3.8.9,0.1.3.10,0.3.9.10,0.1.4.6.10,0.4.6.9.10",
    "g3a LESP 3 Single | 76 75 18 0 21 75 5ad36b500293185a | ",
    "g3a LESP 3 Balanced | 76 75 18 0 21 75 130d74e8dc63f6c3 | ",
    "g3a MoLESP - Single | 202 184 79 24 89 184 57f2c63ba4aff3a5 | 0.3.8.10,0.1.3.10,0.3.9.10,0.1.3.8,0.3.8.9,0.4.6.8,0.1.4.6.10,0.4.6.9.10",
    "g3a MoLESP - Balanced | 204 183 78 24 85 183 e16ab78e3b9b0c42 | 0.1.3.8,0.4.6.8,0.3.8.9,0.1.3.10,0.3.8.10,0.3.9.10,0.1.4.6.10,0.4.6.9.10",
    "g3a MoLESP 3 Single | 96 75 38 20 41 75 c63c55fa91a8c832 | ",
    "g3a MoLESP 3 Balanced | 96 75 38 20 41 75 e4ce4a44933a6af4 | ",
    "g3b GAM - Single | 621 470 200 0 54 470 64586f61bfbc89e6 | 4.15,0.1.4,4.7.13,2.4.5.13,0.4.6.12,0.2.4.9.11,0.4.9.12.16,0.4.5.7.9.11,1.4.5.9.11.13,0.2.4.6.11.16,4.5.11.12.13.16,0.4.5.6.7.11.16,1.4.5.6.11.13.16,4.5.6.9.11.12.13",
    "g3b GAM - Balanced | 621 470 200 0 54 470 6e576fa9a197ad97 | 0.1.4,4.7.13,4.15,0.4.6.12,2.4.5.13,0.2.4.9.11,0.2.4.6.11.16,0.4.5.7.9.11,0.4.9.12.16,1.4.5.9.11.13,0.4.5.6.7.11.16,1.4.5.6.11.13.16,4.5.11.12.13.16,4.5.6.9.11.12.13",
    "g3b GAM 3 Single | 116 96 31 0 16 96 f4166c7471a3b84b | 4.15,0.1.4,4.7.13",
    "g3b GAM 3 Balanced | 116 96 31 0 16 96 58333c7174efea3c | 0.1.4,4.7.13,4.15",
    "g3b ESP - Single | 230 252 91 0 118 252 4802d2116937215a | ",
    "g3b ESP - Balanced | 270 292 134 0 161 292 9e36e10679820a4e | 0.1.4,4.7.13,4.15,0.4.6.12,2.4.5.13,0.2.4.9.11,0.2.4.6.11.16,0.4.5.7.9.11,0.4.9.12.16,1.4.5.9.11.13,0.4.5.6.7.11.16,1.4.5.6.11.13.16,4.5.11.12.13.16,4.5.6.9.11.12.13",
    "g3b ESP 3 Single | 71 74 12 0 20 74 dec3db6300265117 | ",
    "g3b ESP 3 Balanced | 80 83 14 0 22 83 ec9dd7a9e0c50a65 | 0.1.4,4.7.13,4.15",
    "g3b MoESP - Single | 296 252 157 52 170 252 3f11924b377d6fdc | 4.15,4.7.13,0.1.4,0.4.6.12,2.4.5.13,0.2.4.9.11,0.4.9.12.16,0.2.4.6.11.16,0.4.5.7.9.11,4.5.11.12.13.16,1.4.5.9.11.13,0.4.5.6.7.11.16,1.4.5.6.11.13.16,4.5.6.9.11.12.13",
    "g3b MoESP - Balanced | 322 292 200 52 227 292 a0a85b0c82d11b93 | 0.1.4,4.7.13,4.15,0.4.6.12,2.4.5.13,0.2.4.9.11,0.2.4.6.11.16,0.4.5.7.9.11,0.4.9.12.16,1.4.5.9.11.13,0.4.5.6.7.11.16,1.4.5.6.11.13.16,4.5.11.12.13.16,4.5.6.9.11.12.13",
    "g3b MoESP 3 Single | 88 74 29 14 34 74 d999420d2d9778f0 | 4.15,4.7.13,0.1.4",
    "g3b MoESP 3 Balanced | 94 83 31 14 39 83 3d8ed6e976e53e50 | 0.1.4,4.7.13,4.15",
    "g3b LESP - Single | 230 252 91 0 118 252 4802d2116937215a | ",
    "g3b LESP - Balanced | 270 292 134 0 161 292 9e36e10679820a4e | 0.1.4,4.7.13,4.15,0.4.6.12,2.4.5.13,0.2.4.9.11,0.2.4.6.11.16,0.4.5.7.9.11,0.4.9.12.16,1.4.5.9.11.13,0.4.5.6.7.11.16,1.4.5.6.11.13.16,4.5.11.12.13.16,4.5.6.9.11.12.13",
    "g3b LESP 3 Single | 71 74 12 0 20 74 dec3db6300265117 | ",
    "g3b LESP 3 Balanced | 80 83 14 0 22 83 ec9dd7a9e0c50a65 | 0.1.4,4.7.13,4.15",
    "g3b MoLESP - Single | 296 252 157 52 170 252 3f11924b377d6fdc | 4.15,4.7.13,0.1.4,0.4.6.12,2.4.5.13,0.2.4.9.11,0.4.9.12.16,0.2.4.6.11.16,0.4.5.7.9.11,4.5.11.12.13.16,1.4.5.9.11.13,0.4.5.6.7.11.16,1.4.5.6.11.13.16,4.5.6.9.11.12.13",
    "g3b MoLESP - Balanced | 322 292 200 52 227 292 a0a85b0c82d11b93 | 0.1.4,4.7.13,4.15,0.4.6.12,2.4.5.13,0.2.4.9.11,0.2.4.6.11.16,0.4.5.7.9.11,0.4.9.12.16,1.4.5.9.11.13,0.4.5.6.7.11.16,1.4.5.6.11.13.16,4.5.11.12.13.16,4.5.6.9.11.12.13",
    "g3b MoLESP 3 Single | 88 74 29 14 34 74 d999420d2d9778f0 | 4.15,4.7.13,0.1.4",
    "g3b MoLESP 3 Balanced | 94 83 31 14 39 83 3d8ed6e976e53e50 | 0.1.4,4.7.13,4.15",
];

#[test]
fn gam_family_search_is_pinned() {
    let got = observed();
    assert_eq!(got.len(), PINNED.len(), "case count");
    let mut diffs = Vec::new();
    for (g, p) in got.iter().zip(PINNED) {
        if g != p {
            diffs.push(format!("expected {p}\n     got {g}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} case(s) moved:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
