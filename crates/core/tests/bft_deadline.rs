//! BFT-M and BFT-AM stop close to their deadline and soon after a
//! cancel, also in the middle of one breadth-first generation. The
//! graph, Comb nA = 4, nS = 2, sL = 6 (Fig. 10's largest Comb point),
//! keeps both variants busy for seconds, so it is only ever searched
//! here under a deadline or a cancel.

use cs_core::{evaluate_ctp, Algorithm, CancelFlag, Filters, QueueOrder, SeedSets};
use cs_graph::generate::comb;
use std::time::{Duration, Instant};

const VARIANTS: [Algorithm; 2] = [Algorithm::BftM, Algorithm::BftAm];

fn comb_seeds() -> (cs_graph::Graph, SeedSets) {
    let w = comb(4, 2, 6, 1);
    let seeds = SeedSets::from_sets(w.seeds).unwrap();
    (w.graph, seeds)
}

#[test]
fn bft_merge_variants_stop_at_their_deadline() {
    let (g, seeds) = comb_seeds();
    let budget = Duration::from_millis(200);
    for algo in VARIANTS {
        let start = Instant::now();
        let out = evaluate_ctp(
            &g,
            &seeds,
            algo,
            Filters::none().with_timeout(budget),
            QueueOrder::SmallestFirst,
        );
        let took = start.elapsed();
        assert!(out.stats.timed_out, "{algo:?} did not time out");
        assert!(
            took < 2 * budget,
            "{algo:?} stopped {took:?} after start under a {budget:?} deadline"
        );
    }
}

#[test]
fn bft_merge_variants_stop_soon_after_a_cancel() {
    let (g, seeds) = comb_seeds();
    let raise_after = Duration::from_millis(100);
    for algo in VARIANTS {
        let flag = CancelFlag::new();
        let raiser = flag.clone();
        let start = Instant::now();
        #[expect(
            clippy::disallowed_methods,
            reason = "a second thread raises the cancel while the search runs"
        )]
        let out = std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(raise_after);
                raiser.cancel();
            });
            evaluate_ctp(
                &g,
                &seeds,
                algo,
                Filters::none().with_cancel(flag),
                QueueOrder::SmallestFirst,
            )
        });
        let took = start.elapsed();
        assert!(out.stats.cancelled, "{algo:?} was not cancelled");
        assert!(!out.stats.timed_out, "{algo:?}: a cancel is not a timeout");
        assert!(
            took < 2 * raise_after,
            "{algo:?} stopped {took:?} after start, cancel raised at {raise_after:?}"
        );
    }
}
