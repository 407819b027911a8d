//! Keeping a standing query current must be cheaper than recomputing
//! it: across a mutation the query cannot observe, `Watch::poll`
//! decides "unchanged" from the batch's labels alone, while the naive
//! alternative re-runs the whole CTP search. A mutation inside the
//! query's footprint must still force a re-evaluation.
//!
//! The timing assertion compares 20-run means on one host in one
//! process; the margin is two orders of magnitude (a label comparison
//! against a `MAX 3` search), so it is not sensitive to host noise.

use cs_eql::{ExecOptions, ResultCacheMode, Session, WatchSkip};
use cs_graph::generate::random_connected;
use cs_graph::{Graph, Mutation, NodeId};
use std::time::{Duration, Instant};

/// The serving workload graph (`gen:random_connected:n=64,extra=192,seed=42`).
fn workload() -> Graph {
    random_connected(64, 192, 42)
}

/// A LABEL filter closes the query's footprint (`r0..r3`), so a
/// mutation under a foreign label is provably irrelevant to it.
const STANDING: &str =
    r#"SELECT w WHERE { CONNECT("n0", "n63" -> w) LABEL "r0", "r1", "r2", "r3" MAX 3 }"#;

/// Inserts an edge the standing query cannot observe, then removes it
/// again: two generation bumps that leave the graph unchanged.
fn churn(session: &mut Session<'static>) {
    let applied = session
        .mutate(vec![Mutation::InsertEdge {
            src: NodeId::new(5),
            label: "zz".to_string(),
            dst: NodeId::new(9),
        }])
        .expect("insert applies");
    session
        .mutate(vec![Mutation::RemoveEdge {
            edge: applied.edges[0],
        }])
        .expect("remove applies");
}

/// Mean wall time of `runs` back-to-back executions of `f`.
fn mean_time(runs: u32, mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..runs {
        f();
    }
    t0.elapsed() / runs
}

#[test]
fn maintenance_beats_full_recompute() {
    let mut maintain = Session::from_graph_with(workload(), ExecOptions::default());
    let mut watch = maintain.watch(STANDING).expect("baseline");
    let mut recompute = Session::from_graph_with(
        workload(),
        ExecOptions {
            result_cache: ResultCacheMode::Off,
            ..ExecOptions::default()
        },
    );
    recompute.run(STANDING).expect("warm-up run");
    let maintain_mean = mean_time(20, || {
        churn(&mut maintain);
        let delta = watch.poll(&maintain).expect("poll");
        assert_eq!(delta.skipped, Some(WatchSkip::LabelsDisjoint));
    });
    let recompute_mean = mean_time(20, || {
        churn(&mut recompute);
        recompute.run(STANDING).expect("full re-run");
    });
    assert!(
        maintain_mean < recompute_mean,
        "delta maintenance ({maintain_mean:?}) must beat full recompute ({recompute_mean:?})"
    );
}

#[test]
fn in_footprint_edge_at_a_seed_forces_reevaluation() {
    let mut session = Session::from_graph_with(workload(), ExecOptions::default());
    let mut watch = session.watch(STANDING).expect("baseline");
    let baseline = watch.rows().to_vec();
    let applied = session
        .mutate(vec![Mutation::InsertEdge {
            src: NodeId::new(0),
            label: "r0".to_string(),
            dst: NodeId::new(17),
        }])
        .expect("insert applies");
    let first = watch.poll(&session).expect("poll");
    assert_eq!(first.skipped, None, "an r0 edge must force a re-run");
    session
        .mutate(vec![Mutation::RemoveEdge {
            edge: applied.edges[0],
        }])
        .expect("remove applies");
    let second = watch.poll(&session).expect("poll");
    assert_eq!(second.skipped, None, "removing it must force a re-run too");
    assert_eq!(
        watch.rows(),
        &baseline[..],
        "the round trip restores the answer"
    );
}
