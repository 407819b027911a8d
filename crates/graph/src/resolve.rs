//! Symbolic mutation batches: the one rule that turns `node` / `edge` /
//! `del` references into [`Mutation`]s, shared by `csq watch` scripts
//! and csqd's `mutate` opcode.
//!
//! A node reference resolves, in this order, to a node introduced
//! earlier in the same batch (by its label), to a raw `n<ID>` id below
//! the committed node count plus the batch's inserts, or to an exact
//! committed node label. A removal claims one live matching edge of the
//! committed graph that no earlier removal of the batch has claimed, so
//! two identical removals take two parallel edges.

use crate::ids::{EdgeId, NodeId};
use crate::model::Graph;
use crate::mutate::Mutation;
use std::collections::{HashMap, HashSet};

/// One mutation batch under construction, resolved one op at a time
/// against a committed graph. An error names the bad reference and
/// leaves the ops resolved so far in place.
#[derive(Debug)]
pub struct MutationBatch<'g> {
    graph: &'g Graph,
    ops: Vec<Mutation>,
    /// Labels of nodes this batch inserts, mapped to the ids
    /// [`Graph::apply`] will assign them (sequential from the committed
    /// node count).
    names: HashMap<String, NodeId>,
    /// Nodes inserted so far (a label inserted twice counts twice).
    inserted: usize,
    /// Edges already claimed by removals of this batch.
    claimed: HashSet<EdgeId>,
}

impl<'g> MutationBatch<'g> {
    /// An empty batch over the committed state `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        MutationBatch {
            graph,
            ops: Vec::new(),
            names: HashMap::new(),
            inserted: 0,
            claimed: HashSet::new(),
        }
    }

    /// Adds a node; later ops of the batch can reference it by `label`.
    pub fn insert_node(&mut self, label: &str, types: Vec<String>) {
        let id = NodeId::new(self.graph.node_count() + self.inserted);
        self.names.insert(label.to_string(), id);
        self.inserted += 1;
        self.ops.push(Mutation::InsertNode {
            label: label.to_string(),
            types,
        });
    }

    /// Adds the edge `src -label-> dst`.
    pub fn insert_edge(&mut self, src: &str, label: &str, dst: &str) -> Result<(), String> {
        let (src, dst) = (self.node(src)?, self.node(dst)?);
        self.ops.push(Mutation::InsertEdge {
            src,
            label: label.to_string(),
            dst,
        });
        Ok(())
    }

    /// Removes one live committed edge `src -label-> dst` not already
    /// claimed by this batch.
    pub fn remove_edge(&mut self, src: &str, label: &str, dst: &str) -> Result<(), String> {
        let (s, d) = (self.node(src)?, self.node(dst)?);
        let g = self.graph;
        // Nodes the batch inserts have no committed edges.
        let committed = s.index() < g.node_count() && d.index() < g.node_count();
        let edge = g.label_id(label).filter(|_| committed).and_then(|lid| {
            g.outgoing(s).map(|a| a.edge()).find(|&e| {
                let ed = g.edge(e);
                ed.label == lid && ed.dst == d && !self.claimed.contains(&e)
            })
        });
        let Some(edge) = edge else {
            return Err(format!("no live edge {src} -{label}-> {dst}"));
        };
        self.claimed.insert(edge);
        self.ops.push(Mutation::RemoveEdge { edge });
        Ok(())
    }

    /// The resolved ops, in the order they were added.
    pub fn into_ops(self) -> Vec<Mutation> {
        self.ops
    }

    /// Resolves a node reference (see the module docs).
    fn node(&self, tok: &str) -> Result<NodeId, String> {
        if let Some(&n) = self.names.get(tok) {
            return Ok(n);
        }
        let known = self.graph.node_count() + self.inserted;
        match tok.strip_prefix('n').map(str::parse::<u32>) {
            Some(Ok(idx)) if (idx as usize) < known => Ok(NodeId(idx)),
            Some(Ok(idx)) => Err(format!(
                "node id n{idx} out of range (graph has {known} nodes)"
            )),
            _ => self
                .graph
                .node_by_label(tok)
                .ok_or_else(|| format!("no node labelled {tok:?} (and not an n<ID> reference)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// `a -r-> b` twice, and `b -r-> a` once.
    fn parallel() -> Graph {
        let mut b = GraphBuilder::new();
        let (x, y) = (b.add_node("a"), b.add_node("b"));
        b.add_edge(x, "r", y);
        b.add_edge(x, "r", y);
        b.add_edge(y, "r", x);
        b.freeze()
    }

    #[test]
    fn references_resolve_by_batch_name_then_id_then_label() {
        let g = parallel();
        let mut batch = MutationBatch::new(&g);
        batch.insert_node("c", vec![]);
        // `c` is an in-batch name, `a` a committed label, and `n2` the
        // inserted node's predicted id.
        batch.insert_edge("c", "s", "a").unwrap();
        batch.insert_edge("n2", "s", "n1").unwrap();
        // A name introduced in the batch wins over an `n<ID>` reading.
        batch.insert_node("n0", vec![]);
        batch.insert_edge("n0", "s", "b").unwrap();
        let ends: Vec<(u32, u32)> = batch
            .into_ops()
            .into_iter()
            .filter_map(|op| match op {
                Mutation::InsertEdge { src, dst, .. } => Some((src.0, dst.0)),
                _ => None,
            })
            .collect();
        assert_eq!(ends, [(2, 0), (2, 1), (3, 1)]);
    }

    #[test]
    fn bad_references_fail_and_leave_the_batch_as_it_was() {
        let g = parallel();
        let mut batch = MutationBatch::new(&g);
        for (err, want) in [
            (
                batch.insert_edge("n2", "s", "a"),
                "node id n2 out of range (graph has 2 nodes)",
            ),
            (
                batch.remove_edge("a", "r", "zz"),
                "no node labelled \"zz\" (and not an n<ID> reference)",
            ),
            (
                batch.remove_edge("a", "nolabel", "b"),
                "no live edge a -nolabel-> b",
            ),
        ] {
            assert_eq!(err.unwrap_err(), want);
        }
        assert!(batch.into_ops().is_empty());
    }

    #[test]
    fn removals_claim_distinct_live_committed_edges() {
        let mut g = parallel();
        let mut batch = MutationBatch::new(&g);
        // Two identical removals take the two parallel edges; a third
        // finds none left.
        batch.remove_edge("a", "r", "b").unwrap();
        batch.remove_edge("n0", "r", "n1").unwrap();
        assert_eq!(
            batch.remove_edge("a", "r", "b").unwrap_err(),
            "no live edge a -r-> b"
        );
        // An edge the batch adds, to a node the batch adds, is not
        // committed.
        batch.insert_node("c", vec![]);
        batch.insert_edge("a", "r", "c").unwrap();
        assert_eq!(
            batch.remove_edge("a", "r", "c").unwrap_err(),
            "no live edge a -r-> c"
        );
        let removed = [EdgeId(0), EdgeId(1)].map(|edge| Mutation::RemoveEdge { edge });
        assert_eq!(batch.into_ops()[..2], removed);
        // A removed edge is no longer live.
        g.apply(vec![Mutation::RemoveEdge { edge: EdgeId(2) }]);
        let err = MutationBatch::new(&g).remove_edge("b", "r", "a");
        assert_eq!(err.unwrap_err(), "no live edge b -r-> a");
    }
}
