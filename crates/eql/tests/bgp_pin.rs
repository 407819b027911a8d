//! BGP evaluation, pinned exactly: for every query below, on a small
//! YAGO-like graph and on the same graph carrying an uncompacted
//! mutation overlay, the row count and the sorted multiset of rendered
//! rows must match the figures recorded here.
//!
//! The planner may reorder joins and pick other access paths; it must
//! never change *which* rows a BGP answers, so each case pins the
//! sorted rows. Row order follows the plan (the first step's scan
//! order, then each row's extensions in ascending edge id), so a
//! multi-pattern case also pins the rows in the order they render: a
//! change of plan or of evaluation order shows there first.
//!
//! Each case renders as one line: `graph #query | rows digest`, where
//! `digest` fingerprints the sorted rendered rows, followed by
//! `ordered <digest>` of the unsorted rows for a multi-pattern query.

use cs_eql::{ExecOptions, ResultCacheMode, Session};
use cs_graph::fxhash::fx_hash_one;
use cs_graph::generate::{yago_like, YagoLikeParams};
use cs_graph::{Graph, Mutation};

/// 2000 persons, 3 of the 30 places act as countries (`place0`..`place2`).
fn base() -> Graph {
    yago_like(&YagoLikeParams {
        persons: 2000,
        organisations: 40,
        places: 30,
        works: 200,
        seed: 0xB69,
    })
}

/// The base graph plus one batch of inserts and removals touching every
/// label the queries use, left as a delta overlay (no compaction).
fn mutated() -> Graph {
    let mut g = base();
    let n = |g: &Graph, label: &str| g.node_by_label(label).unwrap();
    let mut ops = vec![
        Mutation::InsertNode {
            label: "newcomer0".into(),
            types: vec!["person".into()],
        },
        Mutation::InsertNode {
            label: "newcomer1".into(),
            types: vec!["person".into()],
        },
    ];
    let (p0, p1) = (
        cs_graph::NodeId(g.node_count() as u32),
        cs_graph::NodeId(g.node_count() as u32 + 1),
    );
    let edge = |src, label: &str, dst| Mutation::InsertEdge {
        src,
        label: label.into(),
        dst,
    };
    ops.extend([
        edge(p0, "citizenOf", n(&g, "place1")),
        edge(p0, "bornIn", n(&g, "place7")),
        edge(p0, "livesIn", n(&g, "place7")),
        edge(p0, "worksFor", n(&g, "org3")),
        edge(p0, "knows", p1),
        edge(p1, "citizenOf", n(&g, "place3")),
        edge(p1, "worksFor", n(&g, "org3")),
        edge(p1, "marriedTo", p0),
        edge(n(&g, "person7"), "citizenOf", n(&g, "place3")),
        edge(n(&g, "person7"), "knows", n(&g, "person3")),
        edge(n(&g, "person11"), "created", n(&g, "work5")),
        edge(n(&g, "work5"), "about", n(&g, "place12")),
        edge(n(&g, "org3"), "locatedIn", n(&g, "place12")),
    ]);
    // Take back every fifth edge of a few labels.
    for label in ["citizenOf", "knows", "worksFor", "locatedIn", "livesIn"] {
        let l = g.label_id(label).unwrap();
        for &e in g.edges_with_label(l).iter().step_by(5) {
            ops.push(Mutation::RemoveEdge { edge: e });
        }
    }
    g.apply(ops);
    assert!(g.has_delta(), "the overlay must stay uncompacted");
    g
}

/// The four `bgp_join` shapes and the `worksFor`/`locatedIn`/`livesIn`
/// shape with several constants, plus label and type pins under an
/// edge label on either endpoint.
fn queries() -> Vec<String> {
    let mut q = Vec::new();
    for c in [0, 1, 2] {
        q.push(format!(
            r#"SELECT x, o WHERE {{ (x, "citizenOf", "place{c}") (x, "bornIn", p) (x, "worksFor", o) (o, "locatedIn", p) }}"#
        ));
        q.push(format!(
            r#"SELECT x, w WHERE {{ (x, "citizenOf", "place{c}") (x, "created", w) (w, "about", p) (x, "livesIn", p) }}"#
        ));
        q.push(format!(
            r#"SELECT x, y WHERE {{ (x, "marriedTo", y) (x, "citizenOf", "place{c}") (y, "citizenOf", "place{}") (x, "livesIn", p) (y, "livesIn", p) }}"#,
            (c + 1) % 3
        ));
        q.push(format!(
            r#"SELECT x, y WHERE {{ (x, "marriedTo", y) (x, "citizenOf", "place{c}") (y, "citizenOf", "place{}") }}"#,
            (c + 2) % 3
        ));
        q.push(format!(
            r#"SELECT x, y, o WHERE {{ (x, "knows", y) (x, "worksFor", o) (y, "worksFor", o) (o, "locatedIn", p) (y, "citizenOf", "place{c}") }}"#
        ));
    }
    for place in [1, 3, 12, 20, 29] {
        q.push(format!(
            r#"SELECT x, o, p WHERE {{ (x, "worksFor", o) (o, "locatedIn", "place{place}") (x, "livesIn", p) }}"#
        ));
    }
    for person in [7, 11, 500, 1000, 1500, 1999] {
        q.push(format!(
            r#"SELECT y, z WHERE {{ ("person{person}", "knows", y) (y, "citizenOf", z) }}"#
        ));
        q.push(format!(
            r#"SELECT w, p WHERE {{ ("person{person}", "created", w) (w, "about", p) }}"#
        ));
    }
    q.push(
        r#"SELECT x, o WHERE { (x : type = "person", "worksFor", o) (o, "locatedIn", "place3") }"#
            .into(),
    );
    q.push(r#"SELECT o, p WHERE { (o : type = "organisation", "locatedIn", p) }"#.into());
    q.push(
        r#"SELECT x, p WHERE { (x, "bornIn", p : type = "place") (x, "citizenOf", "place1") }"#
            .into(),
    );
    q.push(r#"SELECT x, y WHERE { (x : type = "person", "knows", y : type = "person") (y, "citizenOf", "place2") }"#.into());
    q.push(r#"SELECT x WHERE { (x : type = "person", "citizenOf", "place0") }"#.into());
    q.push(r#"SELECT x WHERE { (x, "citizenOf", p : type = "place") }"#.into());
    q
}

fn observed() -> Vec<String> {
    let opts = ExecOptions {
        result_cache: ResultCacheMode::Off,
        ..ExecOptions::default()
    };
    let mut lines = Vec::new();
    for (name, g) in [("base", base()), ("mutated", mutated())] {
        let session = Session::with_options(&g, opts.clone());
        for (i, q) in queries().iter().enumerate() {
            let r = session.run(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            let text = r.render(&g);
            let mut rows: Vec<&str> = text.lines().skip(1).collect();
            assert_eq!(rows.len(), r.rows(), "{q}");
            let patterns: usize = r.stats.plans.iter().map(|p| p.steps.len()).sum();
            let ordered = match patterns {
                1 => String::new(),
                _ => format!(" ordered {:016x}", fx_hash_one(&rows)),
            };
            rows.sort_unstable();
            lines.push(format!(
                "{name} #{i} | {} {:016x}{ordered}",
                r.rows(),
                fx_hash_one(&rows)
            ));
        }
    }
    lines
}

const PINNED: &[&str] = &[
    "base #0 | 15 80d3dd3b9a7aa1e8 ordered 81347cd003593824",
    "base #1 | 3 ed5e34dcebb1aa69 ordered ed5e34dcebb1aa69",
    "base #2 | 0 0000000000000000 ordered 0000000000000000",
    "base #3 | 44 689df61dc50c8f20 ordered 7b646a17e4f352ea",
    "base #4 | 7 2818d0e53eede841 ordered 500cbb7fc353c84f",
    "base #5 | 16 24f5296d0bf4730c ordered b1604adc40fb5470",
    "base #6 | 2 c51d1a925d9a7874 ordered c51d1a925d9a7874",
    "base #7 | 0 0000000000000000 ordered 0000000000000000",
    "base #8 | 54 cc155f4064568b25 ordered 50cafc15bb2cab4a",
    "base #9 | 10 b43c2ea8d2188fd9 ordered 5636556fca7ba888",
    "base #10 | 23 eaef16c24771ccc2 ordered 6800909d012e90a7",
    "base #11 | 2 f5c63fc3d2990147 ordered f5c63fc3d2990147",
    "base #12 | 1 87422cfb6da4a57b ordered 87422cfb6da4a57b",
    "base #13 | 39 13c4219dd212a045 ordered d07a6d85e2a7cf14",
    "base #14 | 7 75e712e00d6aa887 ordered 926bed2f6804aed8",
    "base #15 | 75 089e9557adf9e72b ordered 86a489bb44936b59",
    "base #16 | 36 beb0da19d6c8d82e ordered 797988c1910bc2b0",
    "base #17 | 0 0000000000000000 ordered 0000000000000000",
    "base #18 | 0 0000000000000000 ordered 0000000000000000",
    "base #19 | 68 1cb78164c6dc3a66 ordered b3fc2a7441da67c8",
    "base #20 | 2 ce52b4616339a2c5 ordered 1968a8d86dd7a4e5",
    "base #21 | 0 0000000000000000 ordered 0000000000000000",
    "base #22 | 1 e3703cec36aa444b ordered e3703cec36aa444b",
    "base #23 | 0 0000000000000000 ordered 0000000000000000",
    "base #24 | 1 20ab7f51fcda073e ordered 20ab7f51fcda073e",
    "base #25 | 0 0000000000000000 ordered 0000000000000000",
    "base #26 | 0 0000000000000000 ordered 0000000000000000",
    "base #27 | 1 ebc1d6cad72b547c ordered ebc1d6cad72b547c",
    "base #28 | 2 cece2aa1176443f3 ordered cece2aa1176443f3",
    "base #29 | 0 0000000000000000 ordered 0000000000000000",
    "base #30 | 0 0000000000000000 ordered 0000000000000000",
    "base #31 | 0 0000000000000000 ordered 0000000000000000",
    "base #32 | 46 7b52d1efa7a4d04a ordered 13147a1461b53f9b",
    "base #33 | 40 14422696a0f96c74",
    "base #34 | 672 ce188ad65d3730c5 ordered 75d670114e6b8588",
    "base #35 | 659 8f5415288eef13d5 ordered 63ca282f34b6f164",
    "base #36 | 660 40c481404d59d76f",
    "base #37 | 2000 2de8ff95f24c1e3f",
    "mutated #0 | 10 b5d7151d371037dd ordered f3de4c9e9fb2bfd2",
    "mutated #1 | 1 6c3a0181ee3d69f3 ordered 6c3a0181ee3d69f3",
    "mutated #2 | 0 0000000000000000 ordered 0000000000000000",
    "mutated #3 | 21 8a9d455d9836b4af ordered 78b9d264dbc99d65",
    "mutated #4 | 2 646ad1d574221f69 ordered 646ad1d574221f69",
    "mutated #5 | 9 d5cd2c65e70584f5 ordered 70998db0cf61018b",
    "mutated #6 | 1 ceb2d1fc25173fa7 ordered ceb2d1fc25173fa7",
    "mutated #7 | 0 0000000000000000 ordered 0000000000000000",
    "mutated #8 | 35 1169b8ff9ccc14ab ordered c4a1b6f2436df5c5",
    "mutated #9 | 5 5b5a01f9c7b37169 ordered 0acc452436fb4961",
    "mutated #10 | 13 9be1490541ddfb7b ordered 7c151b4bf8be05fb",
    "mutated #11 | 1 da4ceeed50f3b224 ordered da4ceeed50f3b224",
    "mutated #12 | 1 87422cfb6da4a57b ordered 87422cfb6da4a57b",
    "mutated #13 | 26 a22930236ca2480c ordered 213bcba1d31de877",
    "mutated #14 | 3 e4ea9f14d378ea1a ordered f1e973d69ae4e361",
    "mutated #15 | 53 a698f837d6747fb6 ordered ac9ffc8777e4a76b",
    "mutated #16 | 23 0666968c384b175e ordered c60808060c1dfac5",
    "mutated #17 | 19 b17309c0b4cc6e64 ordered 9de8d546213919a8",
    "mutated #18 | 0 0000000000000000 ordered 0000000000000000",
    "mutated #19 | 22 fdc1127a63d52237 ordered 0c61dc0a7bedab66",
    "mutated #20 | 1 aca03637b241b304 ordered aca03637b241b304",
    "mutated #21 | 0 0000000000000000 ordered 0000000000000000",
    "mutated #22 | 0 0000000000000000 ordered 0000000000000000",
    "mutated #23 | 2 4b14078eb2fbe509 ordered 3f68adbe3ad578ff",
    "mutated #24 | 1 20ab7f51fcda073e ordered 20ab7f51fcda073e",
    "mutated #25 | 0 0000000000000000 ordered 0000000000000000",
    "mutated #26 | 0 0000000000000000 ordered 0000000000000000",
    "mutated #27 | 1 ebc1d6cad72b547c ordered ebc1d6cad72b547c",
    "mutated #28 | 2 cece2aa1176443f3 ordered cece2aa1176443f3",
    "mutated #29 | 0 0000000000000000 ordered 0000000000000000",
    "mutated #30 | 0 0000000000000000 ordered 0000000000000000",
    "mutated #31 | 0 0000000000000000 ordered 0000000000000000",
    "mutated #32 | 37 880811c746721f06 ordered 7fa0e70e8e89efff",
    "mutated #33 | 33 60fc321c1bac6c94",
    "mutated #34 | 551 d4dc9374469ab95b ordered 0ab788f9e277906f",
    "mutated #35 | 411 2c962dd117ed7471 ordered 7460f5ba62c67352",
    "mutated #36 | 516 1e79815f618cf9b9",
    "mutated #37 | 1602 6fe9b62c56d5ae02",
];

#[test]
fn bgp_rows_are_pinned() {
    let got = observed();
    assert_eq!(
        got.len(),
        PINNED.len(),
        "case count; observed:\n{}",
        got.join("\n")
    );
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
