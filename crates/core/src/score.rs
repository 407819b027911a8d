//! Score functions over CTP results (paper requirement R2, §4.8
//! `SCORE σ [TOP k]`).
//!
//! The search algorithms are deliberately orthogonal to scoring: any
//! [`ScoreFn`] can rank any result set, and [`rank`] orders a set best
//! first and keeps the k best.

use crate::result::ResultTree;
use cs_graph::Graph;

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

/// Scores `trees` by σ and ranks them best first (`SCORE σ [TOP k]`),
/// keeping the `top` best when a bound is given.
///
/// Scores sort descending under [`f64::total_cmp`], a total order: a
/// NaN-producing scorer ranks deterministically (positive NaN sorts
/// above +∞, i.e. first). Equal scores tie-break on
/// [`ResultTree::canonical_cmp`], so the ranking — and with it `TOP k`
/// — is a function of the result *set* alone, whatever order the
/// search produced it in.
pub fn rank(
    g: &Graph,
    trees: Vec<ResultTree>,
    sigma: &dyn ScoreFn,
    top: Option<usize>,
) -> Vec<(f64, ResultTree)> {
    let mut scored: Vec<(f64, ResultTree)> =
        trees.into_iter().map(|t| (sigma.score(g, &t), t)).collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.canonical_cmp(&b.1)));
    if let Some(k) = top {
        scored.truncate(k);
    }
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
        let ranked = rank(&g, rs, &EdgeCount, None);
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

    /// Scores each tree by its index in the held list (later is better).
    struct ByPosition(Vec<ResultTree>);

    impl ScoreFn for ByPosition {
        fn score(&self, _g: &Graph, t: &ResultTree) -> f64 {
            self.0.iter().position(|o| o == t).unwrap_or(0) as f64
        }
    }

    #[test]
    fn top_k_keeps_best() {
        let (g, rs) = chain_results();
        assert_eq!(rs.len(), 8);
        let top = rank(&g, rs.clone(), &ByPosition(rs), Some(3));
        let scores: Vec<f64> = top.iter().map(|(s, _)| *s).collect();
        assert_eq!(scores, [7.0, 6.0, 5.0]);
    }

    #[test]
    fn top_k_zero_and_small_input() {
        let (g, rs) = chain_results();
        assert!(rank(&g, rs.clone(), &EdgeCount, Some(0)).is_empty());
        assert_eq!(rank(&g, rs[..1].to_vec(), &EdgeCount, Some(10)).len(), 1);
    }

    /// Scores NaN for the trees that use the chain's first edge, and 1
    /// for every other tree.
    struct NanOnFirstEdge;

    impl ScoreFn for NanOnFirstEdge {
        fn score(&self, _g: &Graph, t: &ResultTree) -> f64 {
            if t.edges.iter().any(|e| e.index() == 0) {
                f64::NAN
            } else {
                1.0
            }
        }
    }

    #[test]
    fn rank_orders_nan_first_ties_canonically_and_truncates() {
        let (g, rs) = chain_results();
        let trees = |r: &[(f64, ResultTree)]| r.iter().map(|(_, t)| t.clone()).collect::<Vec<_>>();
        let mut reversed = rs.clone();
        reversed.reverse();
        let ranked = rank(&g, rs, &NanOnFirstEdge, None);
        // Positive NaN sorts above every number under `total_cmp`: the
        // four trees through the first edge come first.
        assert!(ranked[..4].iter().all(|(s, _)| s.is_nan()));
        assert!(ranked[4..].iter().all(|(s, _)| *s == 1.0));
        // Equal scores tie-break canonically, whatever the input order.
        for tied in [&ranked[..4], &ranked[4..]] {
            assert!(tied
                .windows(2)
                .all(|w| w[0].1.canonical_cmp(&w[1].1).is_lt()));
        }
        let again = rank(&g, reversed.clone(), &NanOnFirstEdge, None);
        assert_eq!(trees(&again), trees(&ranked));
        // `top` keeps a prefix of the full ranking.
        let top3 = rank(&g, reversed, &NanOnFirstEdge, Some(3));
        assert_eq!(trees(&top3), trees(&ranked[..3]));
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
