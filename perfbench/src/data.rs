//! Datasets, set-up, and the seeded operation streams.
//!
//! Everything here is a pure function of the workload seed: the graph
//! parameters, the query texts, and the mutation script. The engine
//! only ever receives the generated inputs.

use cs_graph::generate::{
    sample_ctp_seeds, scale_free, yago_like, ScaleFreeParams, YagoLikeParams,
};
use cs_graph::{snapshot, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The two datasets: the DBPedia-like scale-free graph (Fig. 12) and
/// the YAGO-like typed entity graph (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Barabási–Albert graph, 20 k nodes, Zipf labels.
    ScaleFree,
    /// Persons/organisations/places/works, 24 k nodes.
    YagoLike,
}

/// A per-purpose RNG derived from the workload seed.
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// Builds `ds`. The datasets are fixed — the workload seed draws the
/// query streams and the mutation script, not the graph — because the
/// cost of a search per provenance differs from one generated graph to
/// the next by more than the benchmark's bounds.
pub fn build(ds: Dataset) -> Graph {
    match ds {
        Dataset::ScaleFree => scale_free(&ScaleFreeParams {
            nodes: 20_000,
            edges_per_node: 3,
            labels: 20,
            types: 10,
            seed: 0xDB9ED1A,
        }),
        Dataset::YagoLike => yago_like(&YagoLikeParams::default()),
    }
}

/// A private scratch directory under `.perfbench/` in the working
/// directory, removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `.perfbench/tmp-<pid>`.
    pub fn new() -> Result<Scratch, String> {
        let dir = Path::new(".perfbench").join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Durations of one set-up, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Generate the graph from the seed.
    pub build_s: f64,
    /// Write it as a CSG2 snapshot.
    pub save_s: f64,
    /// Open the snapshot the way `csq`/`csqd` do (`snapshot::load_from`).
    pub load_s: f64,
    /// Start the session or server over it.
    pub start_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.save_s + self.load_s + self.start_s
    }
}

/// Builds the dataset, writes it to a fresh snapshot file `name` in
/// `scratch`, and loads it back (memory-mapped, as the CLI and daemon
/// do). `start_s` is left for the caller.
pub fn materialise(
    ds: Dataset,
    scratch: &Scratch,
    name: &str,
) -> Result<(Graph, SetupTimes), String> {
    let path = scratch.path(name);
    let t = Instant::now();
    let built = build(ds);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    snapshot::save_to(&built, &path).map_err(|e| e.to_string())?;
    let save_s = t.elapsed().as_secs_f64();
    drop(built);
    let t = Instant::now();
    let g = snapshot::load_from(&path).map_err(|e| e.to_string())?;
    let load_s = t.elapsed().as_secs_f64();
    Ok((
        g,
        SetupTimes {
            build_s,
            save_s,
            load_s,
            start_s: 0.0,
        },
    ))
}

/// Candidate `CONNECT` queries for `ctp_search`, in stream order:
/// keyword-style singleton seeds (m = 2, 2, 3) and, every fourth, a
/// set-based CTP whose first seed set is bound by a one-pattern BGP.
/// No `TIMEOUT`: a clock-truncated search does host-dependent work.
pub struct CtpQueries {
    rng: StdRng,
    i: usize,
}

impl CtpQueries {
    /// The candidate stream of `seed`.
    pub fn new(seed: u64) -> CtpQueries {
        CtpQueries {
            rng: rng(seed, 0xC7),
            i: 0,
        }
    }

    /// The next candidate (`None` when a draw found no usable seeds;
    /// callers simply draw again).
    pub fn next(&mut self, g: &Graph) -> Option<String> {
        self.i += 1;
        match self.i % 4 {
            0 => self.set_based(g),
            k => {
                let m = if k == 3 { 3 } else { 2 };
                let w = sample_ctp_seeds(g, m, 2, &mut self.rng)?;
                let seeds: Vec<String> = w
                    .seeds
                    .iter()
                    .map(|s| format!("\"{}\"", g.node_label(s[0])))
                    .collect();
                Some(format!(
                    "SELECT w WHERE {{ CONNECT({} -> w) MAX 3 }}",
                    seeds.join(", ")
                ))
            }
        }
    }

    fn set_based(&mut self, g: &Graph) -> Option<String> {
        let a = NodeId::new(self.rng.gen_range(0..g.node_count()));
        let incoming: Vec<_> = g.incoming(a).map(|adj| adj.edge()).collect();
        if incoming.is_empty() {
            return None;
        }
        let l = g
            .edge(incoming[self.rng.gen_range(0..incoming.len())])
            .label;
        let xs = g.in_edges_labelled(a, l);
        if !(2..=6).contains(&xs.len()) {
            return None;
        }
        let b = sample_ctp_seeds(g, 2, 2, &mut self.rng)?.seeds[1][0];
        if b == a || xs.iter().any(|&e| g.edge(e).src == b) {
            return None;
        }
        Some(format!(
            "SELECT x, w WHERE {{ (x, \"{}\", \"{}\") CONNECT(x, \"{}\" -> w) MAX 3 }}",
            g.resolve(l),
            g.node_label(a),
            g.node_label(b)
        ))
    }
}

/// Candidate joins for `bgp_join` on the YAGO-like graph: four 4–5
/// pattern shapes whose constants vary per query (so shapes repeat and
/// the plan cache hits), and every fourth query a J1-shaped pair of
/// small bounded CTPs sharing the BGP-bound `x`, whose label-filtered
/// seed term makes magic-set narrowing fire.
pub struct BgpQueries {
    rng: StdRng,
    i: usize,
}

impl BgpQueries {
    /// The candidate stream of `seed`.
    pub fn new(seed: u64) -> BgpQueries {
        BgpQueries {
            rng: rng(seed, 0xB6),
            i: 0,
        }
    }

    /// The next candidate.
    pub fn next(&mut self) -> String {
        let r = &mut self.rng;
        // Countries are the first 10% of the 300 places.
        let country = r.gen_range(0..30);
        let place = r.gen_range(0..300);
        self.i += 1;
        match self.i % 8 {
            1 | 6 => format!(
                r#"SELECT x, o WHERE {{ (x, "citizenOf", "place{country}") (x, "bornIn", p) (x, "worksFor", o) (o, "locatedIn", p) }}"#
            ),
            2 | 7 => format!(
                r#"SELECT x, w WHERE {{ (x, "citizenOf", "place{country}") (x, "created", w) (w, "about", p) (x, "livesIn", p) }}"#
            ),
            3 => {
                let other = r.gen_range(0..30);
                format!(
                    r#"SELECT x, y WHERE {{ (x, "marriedTo", y) (x, "citizenOf", "place{country}") (y, "citizenOf", "place{other}") (x, "livesIn", p) (y, "livesIn", p) }}"#
                )
            }
            5 => format!(
                r#"SELECT x, y, o WHERE {{ (x, "knows", y) (x, "worksFor", o) (y, "worksFor", o) (o, "locatedIn", p) (y, "citizenOf", "place{country}") }}"#
            ),
            _ => {
                let digit = r.gen_range(1..10);
                format!(
                    r#"SELECT x, w1, w2 WHERE {{ (x, "worksFor", o) (o, "locatedIn", "place{place}") (x, "livesIn", p) CONNECT(x : label ~ "person{digit}*", "place{place}" -> w1) LABEL "worksFor", "locatedIn" MAX 2 CONNECT(x, "place{place}" -> w2) LABEL "worksFor", "locatedIn", "livesIn", "bornIn" MAX 2 }}"#
                )
            }
        }
    }
}

/// The `served_hot` pool: `wide` two-seed `CONNECT`s and, for each, a
/// narrower probe (smaller `MAX`, a label filter) that the shared
/// result cache answers by subsumption. 2 × `wide` ≤ 64 entries fit in
/// the server's default cache.
pub fn served_pool(g: &Graph, seed: u64, wide: usize) -> Vec<String> {
    let mut r = rng(seed, 0x5E);
    let mut out = Vec::with_capacity(2 * wide);
    while out.len() < 2 * wide {
        let Some(w) = sample_ctp_seeds(g, 2, 2, &mut r) else {
            continue;
        };
        let (a, b) = (g.node_label(w.seeds[0][0]), g.node_label(w.seeds[1][0]));
        out.push(format!(
            r#"SELECT w WHERE {{ CONNECT("{a}", "{b}" -> w) MAX 3 }}"#
        ));
        out.push(format!(
            r#"SELECT w WHERE {{ CONNECT("{a}", "{b}" -> w) LABEL "rel0", "rel1", "rel2" MAX 2 }}"#
        ));
    }
    out
}

/// Labels the `live_mixed` standing queries observe.
pub const LIVE_LABELS: [&str; 2] = ["live0", "live1"];
/// Labels no label-restricted standing query observes.
pub const QUIET_LABELS: [&str; 2] = ["quiet0", "quiet1"];

/// One edge of the mutation script, by endpoints (edge ids are renumbered
/// by compaction, so removals are resolved against the graph at apply
/// time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptEdge {
    /// Source node.
    pub src: NodeId,
    /// Edge label.
    pub label: &'static str,
    /// Target node.
    pub dst: NodeId,
}

/// One `Session::mutate` batch of the script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// True when the batch touches a label the standing queries observe.
    pub live: bool,
    /// Labels of the nodes the batch inserts (inserted first).
    pub new_nodes: Vec<String>,
    /// Edges inserted.
    pub insert: Vec<ScriptEdge>,
    /// Edges removed (each inserted by an earlier round).
    pub remove: Vec<ScriptEdge>,
}

/// Every `LIVE_EVERY`-th round touches observed labels; the rest touch
/// only quiet labels. The share is fixed so that the freshness
/// percentiles each fall inside one class of round.
pub const LIVE_EVERY: usize = 4;
/// Edges each batch attaches to the graph. As many older ones are taken
/// back, so a batch is about 2 × `LIVE_ATTACH` + `LIVE_NEW` = 66
/// overlay ops, and the engine's default compaction threshold (8 192
/// ops) is crossed about every 125 batches.
pub const LIVE_ATTACH: usize = 32;
/// Fresh nodes each batch inserts. The other attachments reuse script
/// nodes whose edge an earlier batch removed.
pub const LIVE_NEW: usize = 2;
/// Script edges kept alive under observed and under quiet labels; past
/// these the oldest are removed.
const LIVE_KEEP: usize = 8;
const QUIET_KEEP: usize = 128;

/// The seeded mutation script for `live_mixed`.
///
/// A script node has at most one edge at a time, to a node of the
/// original graph (`hot` holds the read queries' seeds, so reads
/// traverse the overlay adjacency). A degree-1 node that is not a seed
/// can only be a leaf, and a minimal connecting tree has only seeds as
/// leaves, so the reads' answers are unchanged by the script — which
/// is what lets every read be checked against its set-up digest.
/// Removals take back earlier insertions, oldest first, so the overlay
/// stays live without growing without bound, and a script node whose
/// edge was removed is attached again by a later batch.
pub fn mutation_script(seed: u64, base_nodes: usize, hot: &[NodeId], rounds: usize) -> Vec<Round> {
    use std::collections::VecDeque;
    let mut r = rng(seed, 0x3A);
    let mut next_node = base_nodes;
    // Script edges alive, oldest first, each with its script node.
    let mut live_edges: VecDeque<(ScriptEdge, NodeId)> = VecDeque::new();
    let mut quiet_edges: VecDeque<(ScriptEdge, NodeId)> = VecDeque::new();
    // Script nodes without an edge.
    let mut free: VecDeque<NodeId> = VecDeque::new();
    let mut out = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let live = i % LIVE_EVERY == 0;
        let mut round = Round {
            live,
            new_nodes: Vec::new(),
            insert: Vec::new(),
            remove: Vec::new(),
        };
        for k in 0..LIVE_ATTACH {
            let reused = if k < LIVE_NEW { None } else { free.pop_front() };
            let leaf = reused.unwrap_or_else(|| {
                let fresh = NodeId::new(next_node);
                next_node += 1;
                round.new_nodes.push(format!("nv{}", fresh.0));
                fresh
            });
            let anchor = if r.gen_bool(0.5) && !hot.is_empty() {
                hot[r.gen_range(0..hot.len())]
            } else {
                NodeId::new(r.gen_range(0..base_nodes))
            };
            let (label, queue) = if live && k == 0 {
                (LIVE_LABELS[r.gen_range(0..2usize)], &mut live_edges)
            } else {
                (QUIET_LABELS[r.gen_range(0..2usize)], &mut quiet_edges)
            };
            let e = if r.gen_bool(0.5) {
                ScriptEdge {
                    src: anchor,
                    label,
                    dst: leaf,
                }
            } else {
                ScriptEdge {
                    src: leaf,
                    label,
                    dst: anchor,
                }
            };
            round.insert.push(e.clone());
            queue.push_back((e, leaf));
        }
        // Observed edges only exceed their quota right after a live
        // round's insertion, so quiet rounds never remove one.
        for (queue, keep) in [(&mut live_edges, LIVE_KEEP), (&mut quiet_edges, QUIET_KEEP)] {
            while queue.len() > keep {
                let (e, leaf) = queue.pop_front().expect("queue longer than its quota");
                round.remove.push(e);
                free.push_back(leaf);
            }
        }
        out.push(round);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> Graph {
        scale_free(&ScaleFreeParams {
            nodes: 500,
            edges_per_node: 3,
            labels: 10,
            types: 5,
            seed: 3,
        })
    }

    fn ctp_stream(g: &Graph, seed: u64, n: usize) -> Vec<String> {
        let mut gen = CtpQueries::new(seed);
        let mut out = Vec::new();
        while out.len() < n {
            out.extend(gen.next(g));
        }
        out
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let g = small_graph();
        assert_eq!(ctp_stream(&g, 1, 20), ctp_stream(&g, 1, 20));
        assert_ne!(ctp_stream(&g, 1, 20), ctp_stream(&g, 2, 20));

        let bgp = |seed| {
            let mut b = BgpQueries::new(seed);
            (0..16).map(|_| b.next()).collect::<Vec<_>>()
        };
        assert_eq!(bgp(5), bgp(5));
        assert_ne!(bgp(5), bgp(6));

        assert_eq!(served_pool(&g, 9, 4), served_pool(&g, 9, 4));
        assert_ne!(served_pool(&g, 9, 4), served_pool(&g, 10, 4));

        let hot = [NodeId::new(1), NodeId::new(2)];
        assert_eq!(
            mutation_script(4, 500, &hot, 30),
            mutation_script(4, 500, &hot, 30)
        );
        assert_ne!(
            mutation_script(4, 500, &hot, 30),
            mutation_script(8, 500, &hot, 30)
        );
    }

    #[test]
    fn datasets_repeat() {
        let a = build(Dataset::ScaleFree);
        let b = build(Dataset::ScaleFree);
        assert_eq!(a.edge_count(), b.edge_count());
        let pairs = |g: &Graph| -> Vec<(u32, u32)> {
            g.edge_ids()
                .take(500)
                .map(|e| (g.edge(e).src.0, g.edge(e).dst.0))
                .collect()
        };
        assert_eq!(pairs(&a), pairs(&b));
    }

    #[test]
    fn script_keeps_script_nodes_leaves_and_quiet_rounds_quiet() {
        let base = 1000;
        let script = mutation_script(7, base, &[NodeId::new(3)], 200);
        let mut alive: Vec<ScriptEdge> = Vec::new();
        let mut nodes = base;
        for round in &script {
            nodes += round.new_nodes.len();
            alive.extend(round.insert.iter().cloned());
            for e in &round.remove {
                let at = alive.iter().position(|a| a == e);
                let at = at.expect("removal of an edge that is not alive");
                assert!(
                    !round.insert.contains(e),
                    "removal of an edge the same batch inserts"
                );
                alive.swap_remove(at);
                assert!(
                    round.live || !LIVE_LABELS.contains(&e.label),
                    "a quiet round touched an observed label"
                );
            }
            // Every script node is a leaf: at most one edge, never to
            // another script node.
            for n in base..nodes {
                let n = NodeId::new(n);
                let degree = alive.iter().filter(|e| e.src == n || e.dst == n).count();
                assert!(degree <= 1, "script node {n:?} has {degree} edges");
            }
            assert!(alive
                .iter()
                .all(|e| e.src.0 < base as u32 || e.dst.0 < base as u32));
            let live_inserts = round
                .insert
                .iter()
                .filter(|e| LIVE_LABELS.contains(&e.label));
            assert_eq!(live_inserts.count(), usize::from(round.live));
            assert_eq!(round.insert.len(), LIVE_ATTACH);
        }
        assert_eq!(script.iter().filter(|r| r.live).count(), 200 / LIVE_EVERY);
        // Script nodes whose edge was removed are attached again, so
        // the graph grows by little more than the fresh nodes of each batch.
        assert!(nodes - base <= 200 * LIVE_NEW + LIVE_ATTACH + LIVE_KEEP + QUIET_KEEP);
    }
}
