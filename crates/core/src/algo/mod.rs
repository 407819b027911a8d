//! The CTP evaluation algorithms (paper §4) behind one entry point.

pub mod bft;
pub mod gam;

pub use bft::{minimize, run_bft, BftMerge};
pub use gam::{run_gam_family, CtpStream, GamConfig, GamEngine};

use crate::config::{Filters, QueueOrder, QueuePolicy};
use crate::result::SearchOutcome;
use crate::seeds::SeedSets;
use cs_graph::Graph;

/// Every CTP evaluation algorithm studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Simple breadth-first search over trees (§4.1).
    Bft,
    /// BFT with single-pass Merge (§4.3).
    BftM,
    /// BFT with aggressive Merge (§4.3).
    BftAm,
    /// Grow and Aggressive Merge (§4.2).
    Gam,
    /// GAM + edge-set pruning (§4.4).
    Esp,
    /// Merge-oriented ESP (§4.5).
    MoEsp,
    /// Limited edge-set pruning (§4.6).
    Lesp,
    /// The headline algorithm (§4.7): complete for m ≤ 3.
    MoLesp,
}

impl Algorithm {
    /// All algorithms, in the paper's presentation order.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Bft,
        Algorithm::BftM,
        Algorithm::BftAm,
        Algorithm::Gam,
        Algorithm::Esp,
        Algorithm::MoEsp,
        Algorithm::Lesp,
        Algorithm::MoLesp,
    ];

    /// The GAM-family variants compared in Figure 11.
    pub const GAM_FAMILY: [Algorithm; 5] = [
        Algorithm::Gam,
        Algorithm::Esp,
        Algorithm::MoEsp,
        Algorithm::Lesp,
        Algorithm::MoLesp,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Bft => "BFT",
            Algorithm::BftM => "BFT-M",
            Algorithm::BftAm => "BFT-AM",
            Algorithm::Gam => "GAM",
            Algorithm::Esp => "ESP",
            Algorithm::MoEsp => "MoESP",
            Algorithm::Lesp => "LESP",
            Algorithm::MoLesp => "MoLESP",
        }
    }

    /// True for the algorithms with unconditional completeness
    /// guarantees for arbitrary m (given enough time and memory).
    pub fn complete_for_any_m(self) -> bool {
        matches!(
            self,
            Algorithm::Bft | Algorithm::BftM | Algorithm::BftAm | Algorithm::Gam
        )
    }

    /// True if the algorithm is complete for CTPs with `m` seed sets
    /// under any execution order (Properties 1, 3, 8).
    pub fn complete_for(self, m: usize) -> bool {
        match self {
            _ if self.complete_for_any_m() => true,
            Algorithm::Esp => m <= 2,
            Algorithm::MoEsp => m <= 2, // all 2ps results; complete iff m ≤ 2
            Algorithm::Lesp => m <= 2,
            Algorithm::MoLesp => m <= 3,
            _ => unreachable!(),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "bft" => Ok(Algorithm::Bft),
            "bft-m" | "bftm" => Ok(Algorithm::BftM),
            "bft-am" | "bftam" => Ok(Algorithm::BftAm),
            "gam" => Ok(Algorithm::Gam),
            "esp" => Ok(Algorithm::Esp),
            "moesp" => Ok(Algorithm::MoEsp),
            "lesp" => Ok(Algorithm::Lesp),
            "molesp" => Ok(Algorithm::MoLesp),
            other => Err(format!("unknown algorithm {other:?}")),
        }
    }
}

/// Evaluates a CTP with the chosen algorithm: computes the set-based
/// result `g(S_1, …, S_m, F)` of paper Def. 2.8 with the filters pushed
/// into the search (§4.8).
pub fn evaluate_ctp(
    g: &Graph,
    seeds: &SeedSets,
    algo: Algorithm,
    filters: Filters,
    order: QueueOrder,
) -> SearchOutcome {
    evaluate_ctp_with_policy(g, seeds, algo, filters, order, QueuePolicy::Single)
}

/// [`evaluate_ctp`] with an explicit queue policy (§4.9; the GAM family
/// only — BFT has no priority queue).
pub fn evaluate_ctp_with_policy(
    g: &Graph,
    seeds: &SeedSets,
    algo: Algorithm,
    filters: Filters,
    order: QueueOrder,
    policy: QueuePolicy,
) -> SearchOutcome {
    match algo {
        Algorithm::Bft => run_bft(g, seeds, BftMerge::None, filters, order),
        Algorithm::BftM => run_bft(g, seeds, BftMerge::Single, filters, order),
        Algorithm::BftAm => run_bft(g, seeds, BftMerge::Aggressive, filters, order),
        gam => GamEngine::new(g, seeds, gam_config(gam), filters, order, policy).run(),
    }
}

/// One CTP search, as the EQL executor builds it per CTP of a query:
/// seed sets, algorithm, filters, exploration order and queue policy.
pub struct CtpJob {
    /// The seed sets.
    pub seeds: SeedSets,
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// The CTP filters.
    pub filters: Filters,
    /// Exploration order.
    pub order: QueueOrder,
    /// Queue policy.
    pub policy: QueuePolicy,
}

impl CtpJob {
    /// Runs the search on the calling thread — the single
    /// engine-routing point of every job the executor dispatches.
    pub fn run(&self, g: &Graph) -> SearchOutcome {
        evaluate_ctp_with_policy(
            g,
            &self.seeds,
            self.algorithm,
            self.filters.clone(),
            self.order.clone(),
            self.policy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_graph::generate::line;

    #[test]
    fn names_and_parse_roundtrip() {
        for a in Algorithm::ALL {
            let parsed: Algorithm = a.name().parse().unwrap();
            assert_eq!(parsed, a);
        }
        assert!("nope".parse::<Algorithm>().is_err());
        assert_eq!(Algorithm::MoLesp.to_string(), "MoLESP");
    }

    #[test]
    fn completeness_matrix() {
        assert!(Algorithm::Gam.complete_for(10));
        assert!(Algorithm::Esp.complete_for(2));
        assert!(!Algorithm::Esp.complete_for(3));
        assert!(Algorithm::MoLesp.complete_for(3));
        assert!(!Algorithm::MoLesp.complete_for(4));
    }

    #[test]
    fn all_algorithms_agree_on_small_line() {
        let w = line(3, 1);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let reference = evaluate_ctp(
            &w.graph,
            &seeds,
            Algorithm::Bft,
            Filters::none(),
            QueueOrder::SmallestFirst,
        )
        .results
        .canonical();
        for a in Algorithm::ALL {
            let out = evaluate_ctp(
                &w.graph,
                &seeds,
                a,
                Filters::none(),
                QueueOrder::SmallestFirst,
            );
            // Line results are 2ps: all algorithms with Mo find them;
            // plain ESP/LESP may prune (the paper's Fig. 11 shows their
            // curves missing on Line) — so only check the complete ones
            // plus MoESP/MoLESP here.
            if !matches!(a, Algorithm::Esp | Algorithm::Lesp) {
                assert_eq!(out.results.canonical(), reference, "{a}");
            }
        }
    }

    #[test]
    fn ctp_job_run_matches_evaluate_ctp() {
        let w = line(3, 2);
        for (i, algorithm) in [Algorithm::MoLesp, Algorithm::Gam, Algorithm::BftM]
            .into_iter()
            .enumerate()
        {
            let job = CtpJob {
                seeds: SeedSets::from_sets(w.seeds.clone()).unwrap(),
                algorithm,
                filters: Filters::none().with_max_edges(6 + i),
                order: QueueOrder::SmallestFirst,
                policy: QueuePolicy::Single,
            };
            let direct = evaluate_ctp(
                &w.graph,
                &job.seeds,
                algorithm,
                job.filters.clone(),
                QueueOrder::SmallestFirst,
            );
            let run = job.run(&w.graph);
            assert_eq!(run.results.canonical(), direct.results.canonical());
            assert_eq!(run.results.len(), 1, "{algorithm}");
        }
    }
}

/// The [`GamConfig`] of a GAM-family algorithm.
///
/// # Panics
/// Panics on the BFT variants (batch-only reference algorithms).
fn gam_config(algo: Algorithm) -> GamConfig {
    match algo {
        Algorithm::Gam => GamConfig::GAM,
        Algorithm::Esp => GamConfig::ESP,
        Algorithm::MoEsp => GamConfig::MOESP,
        Algorithm::Lesp => GamConfig::LESP,
        Algorithm::MoLesp => GamConfig::MOLESP,
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` contract: the batch-only BFT variants have no streaming configuration"
        )]
        other => panic!("streaming evaluation requires a GAM-family algorithm, got {other}"),
    }
}

/// Opens a pull-based [`CtpStream`] over a GAM-family CTP search: the
/// search advances only as far as the results the caller consumes
/// (`stream.take(k)` is TOP-k-style early termination). The stream
/// owns the seed sets, so it can outlive the caller's locals; only the
/// graph stays borrowed. This is the one incremental shape of the GAM
/// family: [`evaluate_ctp`] on a GAM-family algorithm drains the same
/// stream.
///
/// # Panics
/// Panics if `algo` is a BFT variant (batch-only reference algorithms).
pub fn stream_ctp(
    g: &Graph,
    seeds: SeedSets,
    algo: Algorithm,
    filters: Filters,
    order: QueueOrder,
    policy: QueuePolicy,
) -> CtpStream<'_> {
    let cfg = gam_config(algo);
    GamEngine::with_owned_seeds(g, seeds, cfg, filters, order, policy).into_stream()
}

#[cfg(test)]
mod pull_stream_tests {
    use super::*;
    use cs_graph::generate::chain;

    #[test]
    fn pull_stream_matches_batch() {
        let w = chain(5); // 32 results
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let batch = evaluate_ctp(
            &w.graph,
            &seeds,
            Algorithm::MoLesp,
            Filters::none(),
            QueueOrder::SmallestFirst,
        );
        let streamed: Vec<_> = stream_ctp(
            &w.graph,
            seeds,
            Algorithm::MoLesp,
            Filters::none(),
            QueueOrder::SmallestFirst,
            QueuePolicy::Single,
        )
        .collect();
        assert_eq!(streamed.len(), batch.results.len());
        let mut a: Vec<_> = streamed.iter().map(|t| t.edges.to_vec()).collect();
        let mut b = batch.results.canonical();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn pull_stream_take_is_early_termination() {
        let w = chain(8); // 256 results
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let full = evaluate_ctp(
            &w.graph,
            &seeds,
            Algorithm::MoLesp,
            Filters::none(),
            QueueOrder::SmallestFirst,
        );
        let mut stream = stream_ctp(
            &w.graph,
            seeds,
            Algorithm::MoLesp,
            Filters::none(),
            QueueOrder::SmallestFirst,
            QueuePolicy::Single,
        );
        let first: Vec<_> = stream.by_ref().take(5).collect();
        assert_eq!(first.len(), 5);
        assert!(
            stream.stats().grows < full.stats.grows,
            "pulling 5 of 256 results must not run the whole search \
             ({} grows vs {} for the full run)",
            stream.stats().grows,
            full.stats.grows
        );
        // The abandoned stream can still be drained to the full outcome.
        let rest = stream.into_outcome();
        assert_eq!(rest.results.len(), full.results.len());
    }

    #[test]
    fn pull_stream_respects_result_limit() {
        let w = chain(6);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        let streamed: Vec<_> = stream_ctp(
            &w.graph,
            seeds,
            Algorithm::MoLesp,
            Filters::none().with_max_results(7),
            QueueOrder::SmallestFirst,
            QueuePolicy::Single,
        )
        .collect();
        assert_eq!(streamed.len(), 7);
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use cs_graph::generate::chain;

    #[test]
    #[should_panic(expected = "GAM-family")]
    fn bft_streaming_rejected() {
        let w = chain(2);
        let seeds = SeedSets::from_sets(w.seeds.clone()).unwrap();
        stream_ctp(
            &w.graph,
            seeds,
            Algorithm::Bft,
            Filters::none(),
            QueueOrder::SmallestFirst,
            QueuePolicy::Single,
        );
    }
}
