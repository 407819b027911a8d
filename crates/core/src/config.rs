//! Search configuration: CTP filters (paper §2, §4.8), exploration
//! order, budgets, and the queue policy for very large seed sets (§4.9).

use crate::tree::TreeView;
use cs_graph::fxhash::FxHashSet;
use cs_graph::{EdgeId, Graph, LabelId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shared cooperative-cancellation flag.
///
/// Cloning yields another handle to the same flag, so a caller can keep
/// one handle (e.g. a server's cancel registry, keyed by request id) and
/// push the other into [`Filters::with_cancel`]. The search engines poll
/// it on the same cadence as the deadline check (every 64 units of work:
/// Grow steps and merge passes in GAM, Grow edges and merge partners
/// tried in BFT) and stop with
/// [`SearchStats::cancelled`](crate::SearchStats) set, so a cancelled
/// search still returns its partial state instead of running to
/// completion.
#[derive(Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-cancelled flag.
    pub fn new() -> Self {
        CancelFlag::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        // ORDERING: Relaxed — the flag is a purely advisory "stop soon"
        // signal with no data published alongside it; the searches poll
        // it and act on their own local state only.
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        // ORDERING: Relaxed — advisory poll; see `cancel`.
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for CancelFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CancelFlag")
            .field(&self.is_cancelled())
            .finish()
    }
}

/// CTP filters and evaluation limits, pushed into the search (§4.8).
#[derive(Clone, Default)]
pub struct Filters {
    /// `UNI`: only unidirectional trees (a root with directed paths to
    /// every seed).
    pub uni: bool,
    /// `LABEL {l1, …}`: result edges restricted to these labels.
    pub labels: Option<Vec<String>>,
    /// `MAX n`: only trees of at most `n` edges.
    pub max_edges: Option<usize>,
    /// `timeout T`: wall-clock limit for this CTP.
    pub timeout: Option<Duration>,
    /// `LIMIT k`: stop after `k` results.
    pub max_results: Option<usize>,
    /// Deterministic budget: stop after building this many provenances
    /// (used by tests and benchmarks for reproducibility).
    pub max_provenances: Option<u64>,
    /// Cooperative cancellation: polled by the engines on the deadline
    /// cadence; when set, the search stops early with
    /// `SearchStats::cancelled`.
    pub cancel: Option<CancelFlag>,
}

impl Filters {
    /// No filters: complete search.
    pub fn none() -> Self {
        Filters::default()
    }

    /// Builder-style: set `UNI`.
    pub fn uni(mut self) -> Self {
        self.uni = true;
        self
    }

    /// Builder-style: set `LABEL`.
    pub fn with_labels<I: IntoIterator<Item = S>, S: Into<String>>(mut self, labels: I) -> Self {
        self.labels = Some(labels.into_iter().map(Into::into).collect());
        self
    }

    /// Builder-style: set `MAX n`.
    pub fn with_max_edges(mut self, n: usize) -> Self {
        self.max_edges = Some(n);
        self
    }

    /// Builder-style: set the timeout.
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.timeout = Some(t);
        self
    }

    /// Builder-style: set `LIMIT k`.
    pub fn with_max_results(mut self, k: usize) -> Self {
        self.max_results = Some(k);
        self
    }

    /// Builder-style: set the provenance budget.
    pub fn with_max_provenances(mut self, n: u64) -> Self {
        self.max_provenances = Some(n);
        self
    }

    /// Builder-style: attach a cooperative cancellation flag.
    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Has the attached cancel flag (if any) been raised?
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
    }

    /// Resolves the label filter against a graph's interner. Labels
    /// absent from the graph resolve to nothing (no edge can match).
    pub(crate) fn resolve_labels(&self, g: &Graph) -> Option<FxHashSet<LabelId>> {
        self.labels.as_ref().map(|ls| {
            ls.iter()
                .filter_map(|l| g.label_id(l))
                .collect::<FxHashSet<LabelId>>()
        })
    }
}

impl std::fmt::Debug for Filters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Filters")
            .field("uni", &self.uni)
            .field("labels", &self.labels)
            .field("max_edges", &self.max_edges)
            .field("timeout", &self.timeout)
            .field("max_results", &self.max_results)
            .field("max_provenances", &self.max_provenances)
            .field("cancel", &self.cancel)
            .finish()
    }
}

/// Priority function type for [`QueueOrder::Custom`]: higher values pop
/// first; ties break FIFO. It sees the tree to grow, borrowed from the
/// search's store, and the edge to grow it with.
pub type PriorityFn = Arc<dyn Fn(&Graph, TreeView<'_>, EdgeId) -> i64 + Send + Sync>;

/// Exploration order of the Grow queue.
///
/// The paper's experiments "favor the smallest trees, breaking ties
/// arbitrarily" (§5.4.1); completeness guarantees are independent of the
/// order, and `Custom` lets tests force the adversarial orders of
/// Figures 3, 5 and 6.
#[derive(Clone, Default)]
pub enum QueueOrder {
    /// Pop the smallest candidate tree first (the paper's default).
    #[default]
    SmallestFirst,
    /// Pop the largest first (an intentionally bad order).
    LargestFirst,
    /// Pure FIFO.
    Fifo,
    /// A user-supplied priority (e.g. a score-function heuristic,
    /// §4.8 "a smarter implementation may favor the early production of
    /// higher-score results by appropriately choosing the queue order").
    Custom(PriorityFn),
}

impl QueueOrder {
    /// The priority of growing `tree` with `edge` (higher pops first).
    pub fn priority(&self, g: &Graph, tree: TreeView<'_>, edge: EdgeId) -> i64 {
        match self {
            QueueOrder::SmallestFirst => -(tree.size() as i64 + 1),
            QueueOrder::LargestFirst => tree.size() as i64 + 1,
            QueueOrder::Fifo => 0,
            QueueOrder::Custom(f) => f(g, tree, edge),
        }
    }
}

impl std::fmt::Debug for QueueOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueOrder::SmallestFirst => write!(f, "SmallestFirst"),
            QueueOrder::LargestFirst => write!(f, "LargestFirst"),
            QueueOrder::Fifo => write!(f, "Fifo"),
            QueueOrder::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// How Grow opportunities are queued (§4.9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// One global priority queue.
    #[default]
    Single,
    /// One queue per `sat(t)` mask; pop from the queue currently holding
    /// the fewest pairs, so exploration balances towards the
    /// neighbourhoods of the smaller seed sets (borrowed from
    /// bidirectional expansion, Kacholia et al. 2005).
    Balanced,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let f = Filters::none()
            .uni()
            .with_labels(["a", "b"])
            .with_max_edges(5)
            .with_max_results(10)
            .with_max_provenances(100)
            .with_timeout(Duration::from_millis(50));
        assert!(f.uni);
        assert_eq!(f.labels.as_ref().unwrap().len(), 2);
        assert_eq!(f.max_edges, Some(5));
        assert_eq!(f.max_results, Some(10));
        assert_eq!(f.max_provenances, Some(100));
        assert!(f.timeout.is_some());
        assert!(format!("{f:?}").contains("uni: true"));
    }

    #[test]
    fn cancel_flag_is_shared() {
        let flag = CancelFlag::new();
        let f = Filters::none().with_cancel(flag.clone());
        assert!(!f.cancel_requested());
        flag.cancel();
        assert!(f.cancel_requested());
        assert!(format!("{f:?}").contains("CancelFlag(true)"));
        // A filter without a flag never reports cancellation.
        assert!(!Filters::none().cancel_requested());
    }

    #[test]
    fn label_resolution() {
        let g = cs_graph::figure1();
        let f = Filters::none().with_labels(["citizenOf", "noSuchLabel"]);
        let resolved = f.resolve_labels(&g).unwrap();
        assert_eq!(resolved.len(), 1);
    }

    #[test]
    fn order_priorities() {
        use crate::seedmask::SeedMask;
        let g = cs_graph::figure1();
        let t = TreeView {
            root: cs_graph::NodeId(0),
            edges: &[EdgeId(0), EdgeId(1)],
            nodes: &[cs_graph::NodeId(0)],
            sat: SeedMask::EMPTY,
        };
        assert_eq!(QueueOrder::SmallestFirst.priority(&g, t, EdgeId(2)), -3);
        assert_eq!(QueueOrder::LargestFirst.priority(&g, t, EdgeId(2)), 3);
        assert_eq!(QueueOrder::Fifo.priority(&g, t, EdgeId(2)), 0);
        let custom = QueueOrder::Custom(Arc::new(|_, _, e| e.0 as i64));
        assert_eq!(custom.priority(&g, t, EdgeId(7)), 7);
        assert_eq!(format!("{:?}", custom), "Custom(..)");
    }
}
