//! Seed sets of a CTP, with fast node → seed-set-membership lookup.

use crate::seedmask::{SeedMask, MAX_SEED_SETS};
use cs_graph::fxhash::FxHashMap;
use cs_graph::NodeId;

/// One seed-set position of a CTP: an explicit node set, or `All`
/// (the paper's `N` seed set, §4.9), which every graph node matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedSpec {
    /// An explicit set of seed nodes.
    Set(Vec<NodeId>),
    /// The whole node set `N`.
    All,
}

impl SeedSpec {
    /// Convenience: a singleton seed set.
    pub fn one(n: NodeId) -> Self {
        SeedSpec::Set(vec![n])
    }
}

/// Errors constructing [`SeedSets`].
#[derive(Debug, PartialEq, Eq)]
pub enum SeedError {
    /// More than 64 seed sets.
    TooManySets(usize),
    /// Fewer than one seed set.
    NoSets,
    /// An explicit seed set is empty, so the CTP can have no result.
    EmptySet(usize),
    /// Every seed set is `All`; the CTP is unconstrained.
    AllUnbounded,
}

impl std::fmt::Display for SeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeedError::TooManySets(m) => {
                write!(
                    f,
                    "{m} seed sets exceed the supported maximum of {MAX_SEED_SETS}"
                )
            }
            SeedError::NoSets => write!(f, "a CTP needs at least one seed set"),
            SeedError::EmptySet(i) => write!(f, "seed set {i} is empty"),
            SeedError::AllUnbounded => {
                write!(f, "all seed sets are N; at least one must be explicit")
            }
        }
    }
}

impl std::error::Error for SeedError {}

/// The resolved seed sets of a CTP.
///
/// `membership(n)` is the mask of *explicit* sets containing node `n`
/// (a node may belong to several sets, e.g. someone who is both in the
/// "entrepreneur" and "politician" sets). `All` sets take part in the
/// result check via [`SeedSets::presatisfied`] — they are satisfied by
/// any node, and per the paper's adjustment to Def. 2.8 a tree may
/// contain any number of their "seeds", so they are excluded from
/// membership (and hence from the Grow2/Merge2 conditions).
#[derive(Debug, Clone)]
pub struct SeedSets {
    specs: Vec<SeedSpec>,
    membership: FxHashMap<NodeId, SeedMask>,
    presatisfied: SeedMask,
    full: SeedMask,
}

impl SeedSets {
    /// Builds seed sets, validating cardinality constraints.
    pub fn new(specs: Vec<SeedSpec>) -> Result<Self, SeedError> {
        let m = specs.len();
        if m == 0 {
            return Err(SeedError::NoSets);
        }
        if m > MAX_SEED_SETS {
            return Err(SeedError::TooManySets(m));
        }
        let mut membership: FxHashMap<NodeId, SeedMask> = FxHashMap::default();
        let mut presatisfied = SeedMask::EMPTY;
        for (i, spec) in specs.iter().enumerate() {
            match spec {
                SeedSpec::Set(nodes) => {
                    if nodes.is_empty() {
                        return Err(SeedError::EmptySet(i));
                    }
                    for &n in nodes {
                        membership.entry(n).or_default().insert(i);
                    }
                }
                SeedSpec::All => presatisfied.insert(i),
            }
        }
        if presatisfied == SeedMask::full(m) {
            return Err(SeedError::AllUnbounded);
        }
        Ok(SeedSets {
            specs,
            membership,
            presatisfied,
            full: SeedMask::full(m),
        })
    }

    /// Builds from plain node-set vectors (no `All` sets).
    pub fn from_sets(sets: Vec<Vec<NodeId>>) -> Result<Self, SeedError> {
        SeedSets::new(sets.into_iter().map(SeedSpec::Set).collect())
    }

    /// Number of seed sets m.
    pub fn m(&self) -> usize {
        self.specs.len()
    }

    /// The specs.
    pub fn specs(&self) -> &[SeedSpec] {
        &self.specs
    }

    /// Mask of explicit sets containing `n` (empty if `n` is no seed).
    #[inline]
    pub fn membership(&self, n: NodeId) -> SeedMask {
        self.membership.get(&n).copied().unwrap_or_default()
    }

    /// True if `n` belongs to at least one explicit seed set.
    #[inline]
    pub fn is_seed(&self, n: NodeId) -> bool {
        self.membership.contains_key(&n)
    }

    /// Mask of `All` sets (satisfied from the start).
    #[inline]
    pub fn presatisfied(&self) -> SeedMask {
        self.presatisfied
    }

    /// The full mask over all m sets.
    #[inline]
    pub fn full(&self) -> SeedMask {
        self.full
    }

    /// All distinct seed nodes across explicit sets, in first-set order.
    pub fn all_seed_nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut seen = cs_graph::fxhash::FxHashSet::default();
        for spec in &self.specs {
            if let SeedSpec::Set(nodes) = spec {
                for &n in nodes {
                    if seen.insert(n) {
                        out.push(n);
                    }
                }
            }
        }
        out
    }

    /// Size of the largest explicit seed set.
    pub fn max_set_size(&self) -> usize {
        self.specs
            .iter()
            .map(|s| match s {
                SeedSpec::Set(v) => v.len(),
                SeedSpec::All => 0,
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn membership_masks() {
        let s = SeedSets::from_sets(vec![vec![n(1), n(2)], vec![n(2), n(3)]]).unwrap();
        assert_eq!(s.m(), 2);
        assert_eq!(s.membership(n(1)), SeedMask::single(0));
        assert_eq!(s.membership(n(2)), SeedMask(0b11)); // both sets
        assert_eq!(s.membership(n(9)), SeedMask::EMPTY);
        assert!(s.is_seed(n(3)));
        assert!(!s.is_seed(n(9)));
    }

    #[test]
    fn all_sets_presatisfied() {
        let s = SeedSets::new(vec![SeedSpec::one(n(1)), SeedSpec::All]).unwrap();
        assert_eq!(s.presatisfied(), SeedMask::single(1));
        // `All` membership does not pollute explicit membership.
        assert_eq!(s.membership(n(5)), SeedMask::EMPTY);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(SeedSets::from_sets(vec![]).unwrap_err(), SeedError::NoSets);
        assert_eq!(
            SeedSets::from_sets(vec![vec![n(1)], vec![]]).unwrap_err(),
            SeedError::EmptySet(1)
        );
        assert_eq!(
            SeedSets::new(vec![SeedSpec::All, SeedSpec::All]).unwrap_err(),
            SeedError::AllUnbounded
        );
        let too_many = (0..65).map(|i| vec![n(i)]).collect();
        assert_eq!(
            SeedSets::from_sets(too_many).unwrap_err(),
            SeedError::TooManySets(65)
        );
        assert!(SeedError::TooManySets(65).to_string().contains("65"));
    }

    #[test]
    fn all_seed_nodes_dedup() {
        let s = SeedSets::from_sets(vec![vec![n(1), n(2)], vec![n(2), n(3)]]).unwrap();
        assert_eq!(s.all_seed_nodes(), vec![n(1), n(2), n(3)]);
        assert_eq!(s.max_set_size(), 2);
    }
}
