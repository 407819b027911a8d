//! Score functions over CTP results (paper requirement R2, §4.8
//! `SCORE σ [TOP k]`).
//!
//! The search algorithms are deliberately orthogonal to scoring: any
//! [`ScoreFn`] can rank any result set, and [`TopK`] keeps the k best
//! results as they stream out of the search ("the simplest
//! implementation calls σ on each new result").

use crate::result::ResultTree;
use cs_graph::Graph;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A score function σ: assigns each result tree a real number — the
/// higher, the better.
pub trait ScoreFn: Send + Sync {
    /// Scores one result tree.
    fn score(&self, g: &Graph, t: &ResultTree) -> f64;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// σ = −|edges|: smaller trees score higher (the classic GSTP cost).
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeCount;

impl ScoreFn for EdgeCount {
    fn score(&self, _g: &Graph, t: &ResultTree) -> f64 {
        -(t.size() as f64)
    }

    fn name(&self) -> &'static str {
        "edgecount"
    }
}

/// Specificity: σ = Σ 1/degree(n) over tree nodes. Trees through hubs
/// (like the "country" node in the paper's Introduction example, which
/// connects everyone but interests no journalist) score low; trees
/// through specific nodes score high.
#[derive(Debug, Clone, Copy, Default)]
pub struct Specificity;

impl ScoreFn for Specificity {
    fn score(&self, g: &Graph, t: &ResultTree) -> f64 {
        t.nodes
            .iter()
            .map(|&n| 1.0 / g.degree(n).max(1) as f64)
            .sum()
    }

    fn name(&self) -> &'static str {
        "specificity"
    }
}

/// Label rarity: σ = Σ 1/freq(label(e)) — results using rare edge
/// labels rank higher.
#[derive(Debug, Clone, Copy, Default)]
pub struct LabelRarity;

impl ScoreFn for LabelRarity {
    fn score(&self, g: &Graph, t: &ResultTree) -> f64 {
        t.edges
            .iter()
            .map(|&e| {
                let l = g.edge(e).label;
                1.0 / g.edges_with_label(l).len().max(1) as f64
            })
            .sum()
    }

    fn name(&self) -> &'static str {
        "labelrarity"
    }
}

/// σ = −Σ weight(e), reading a numeric `weight` edge property
/// (defaulting to 1 per edge) — the vertex/edge-weighted GSTP cost used
/// by LANCET-style systems.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeWeight;

impl ScoreFn for EdgeWeight {
    fn score(&self, g: &Graph, t: &ResultTree) -> f64 {
        -t.edges
            .iter()
            .map(|&e| {
                g.edge_prop(e, "weight")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(1.0)
            })
            .sum::<f64>()
    }

    fn name(&self) -> &'static str {
        "edgeweight"
    }
}

/// Parses a score-function name (used by the EQL surface syntax).
pub fn by_name(name: &str) -> Option<Box<dyn ScoreFn>> {
    match name.to_ascii_lowercase().as_str() {
        "edgecount" => Some(Box::new(EdgeCount)),
        "specificity" => Some(Box::new(Specificity)),
        "labelrarity" => Some(Box::new(LabelRarity)),
        "edgeweight" => Some(Box::new(EdgeWeight)),
        _ => None,
    }
}

/// An entry of the top-k heap.
struct Scored {
    score: f64,
    index: usize,
}

impl PartialEq for Scored {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl Eq for Scored {}
impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on score (lowest score at the top, evicted first);
        // NaN sorts last so it is evicted first.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
    }
}

/// Streaming top-k accumulator over scored results.
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Scored>,
    kept: Vec<(f64, ResultTree)>,
}

impl TopK {
    /// Keeps the `k` highest-scoring results.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            kept: Vec::new(),
        }
    }

    /// Offers a result; it is retained if it ranks in the current top k.
    pub fn offer(&mut self, score: f64, tree: ResultTree) {
        if self.k == 0 {
            return;
        }
        let index = self.kept.len();
        self.kept.push((score, tree));
        self.heap.push(Scored { score, index });
        if self.heap.len() > self.k {
            self.heap.pop(); // evict the lowest score
        }
    }

    /// Finalises: the kept results, best first.
    pub fn into_sorted(self) -> Vec<(f64, ResultTree)> {
        let mut keep_idx: Vec<usize> = self.heap.into_iter().map(|s| s.index).collect();
        keep_idx.sort_unstable();
        let mut out: Vec<(f64, ResultTree)> = self
            .kept
            .into_iter()
            .enumerate()
            .filter(|(i, _)| keep_idx.binary_search(i).is_ok())
            .map(|(_, st)| st)
            .collect();
        out.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal));
        out
    }
}

/// Scores and ranks a whole result list, best first (`SCORE σ` without
/// `TOP k`).
pub fn rank_all(g: &Graph, results: &[ResultTree], sigma: &dyn ScoreFn) -> Vec<(f64, ResultTree)> {
    let mut scored: Vec<(f64, ResultTree)> = results
        .iter()
        .map(|t| (sigma.score(g, t), t.clone()))
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal));
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{evaluate_ctp, Algorithm};
    use crate::config::{Filters, QueueOrder};
    use crate::seeds::SeedSets;
    use cs_graph::generate::chain;

    fn chain_results() -> (cs_graph::Graph, Vec<ResultTree>) {
        let w = chain(3);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let out = evaluate_ctp(
            &w.graph,
            &seeds,
            Algorithm::MoLesp,
            Filters::none(),
            QueueOrder::SmallestFirst,
        );
        (w.graph.clone(), out.results.into_trees())
    }

    #[test]
    fn edge_count_prefers_small() {
        let (g, rs) = chain_results();
        let ranked = rank_all(&g, &rs, &EdgeCount);
        // All chain results have 3 edges — scores all equal.
        assert!(ranked.windows(2).all(|w| w[0].0 >= w[1].0));
        assert_eq!(ranked[0].0, -3.0);
    }

    #[test]
    fn specificity_counts_degrees() {
        let (g, rs) = chain_results();
        let s = Specificity.score(&g, &rs[0]);
        assert!(s > 0.0 && s <= rs[0].nodes.len() as f64);
    }

    #[test]
    fn label_rarity_discriminates() {
        // On the chain all "a" edges are as frequent as "b"; a tree with
        // rarer labels would win. Verify the sum structure instead.
        let (g, rs) = chain_results();
        for r in &rs {
            let score = LabelRarity.score(&g, r);
            assert!(score > 0.0);
        }
    }

    #[test]
    fn edge_weight_defaults_to_one() {
        let (g, rs) = chain_results();
        assert_eq!(EdgeWeight.score(&g, &rs[0]), -(rs[0].size() as f64));
    }

    #[test]
    fn top_k_keeps_best() {
        let (g, rs) = chain_results();
        assert_eq!(rs.len(), 8);
        let mut tk = TopK::new(3);
        for (i, r) in rs.iter().enumerate() {
            tk.offer(i as f64, r.clone()); // score = discovery index
        }
        let top = tk.into_sorted();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, 7.0);
        assert_eq!(top[2].0, 5.0);
        let _ = g;
    }

    #[test]
    fn top_k_zero_and_small_input() {
        let (_, rs) = chain_results();
        let mut tk = TopK::new(0);
        tk.offer(1.0, rs[0].clone());
        assert!(tk.into_sorted().is_empty());

        let mut tk = TopK::new(10);
        tk.offer(1.0, rs[0].clone());
        assert_eq!(tk.into_sorted().len(), 1);
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("EdgeCount").is_some());
        assert!(by_name("specificity").is_some());
        assert!(by_name("unknown").is_none());
        assert_eq!(by_name("labelrarity").unwrap().name(), "labelrarity");
    }
}

/// Builds a score-guided exploration order (§4.8: "a smarter
/// implementation may favor the early production of higher-score
/// results by appropriately choosing the priority queue order").
///
/// Partial trees are scored by σ (over their current edge/node sets)
/// with a small penalty per edge so that small promising trees expand
/// first. Because MoLESP's completeness is order-independent, any
/// σ-guided order still finds the same result set; it only changes
/// *when* each result appears — pair it with `LIMIT`/`TOP k` to stop
/// early.
pub fn guided_order(sigma: std::sync::Arc<dyn ScoreFn>) -> crate::config::QueueOrder {
    crate::config::QueueOrder::Custom(std::sync::Arc::new(move |g, tree, _edge| {
        let partial = ResultTree {
            edges: tree.edges.into(),
            nodes: tree.nodes.into(),
            seeds: Box::new([]),
        };
        // Scale to keep ordering resolution; subtract size so ties
        // favour smaller trees.
        (sigma.score(g, &partial) * 1024.0) as i64 - tree.size() as i64
    }))
}

#[cfg(test)]
mod guided_tests {
    use super::*;
    use crate::algo::{evaluate_ctp, Algorithm};
    use crate::config::{Filters, QueueOrder};
    use crate::seeds::SeedSets;
    use cs_graph::generate::chain;
    use std::sync::Arc;

    #[test]
    fn guided_order_preserves_molesp_completeness() {
        let w = chain(5); // 32 results
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let baseline = evaluate_ctp(
            &w.graph,
            &seeds,
            Algorithm::MoLesp,
            Filters::none(),
            QueueOrder::SmallestFirst,
        );
        let guided = evaluate_ctp(
            &w.graph,
            &seeds,
            Algorithm::MoLesp,
            Filters::none(),
            guided_order(Arc::new(LabelRarity)),
        );
        assert_eq!(baseline.results.canonical(), guided.results.canonical());
    }

    #[test]
    fn guided_order_with_limit_finds_sound_results() {
        let w = chain(6);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let all = evaluate_ctp(
            &w.graph,
            &seeds,
            Algorithm::MoLesp,
            Filters::none(),
            QueueOrder::SmallestFirst,
        )
        .results
        .canonical();
        let early = evaluate_ctp(
            &w.graph,
            &seeds,
            Algorithm::MoLesp,
            Filters::none().with_max_results(4),
            guided_order(Arc::new(Specificity)),
        );
        assert_eq!(early.results.len(), 4);
        for t in early.results.canonical() {
            assert!(all.contains(&t));
        }
    }
}
