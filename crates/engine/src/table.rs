//! Binding tables and the relational operators over them.
//!
//! The paper's evaluation strategy (§3) materialises each BGP's
//! embeddings in a table `B_i`, each CTP's results in a table `CTP_j`,
//! and computes the query as a projection over their natural join.
//! [`Table`] is that relation: named columns of [`Binding`]s.

use crate::binding::Binding;
use cs_graph::fxhash::{FxHashSet, FxHasher};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A relation over query variables. Rows are stored flat: row `i` is
/// `data[i * width .. (i + 1) * width]`, where the width is the number
/// of columns. The row count is kept apart, so a zero-width table can
/// still hold rows (the empty tuple, possibly repeated).
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column names (query variables), in row order.
    vars: Vec<Arc<str>>,
    /// The rows' bindings, row after row.
    data: Vec<Binding>,
    /// Number of rows.
    len: usize,
}

/// End of a build-row chain in [`Table::natural_join`].
const NO_ROW: u32 = u32::MAX;

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(vars: Vec<Arc<str>>) -> Self {
        Table {
            vars,
            data: Vec::new(),
            len: 0,
        }
    }

    /// Creates a table with schema built from `&str` names.
    pub fn with_columns(names: &[&str]) -> Self {
        Table::new(names.iter().map(|&n| Arc::from(n)).collect())
    }

    /// The relation with no columns and one (empty) row: the identity
    /// of the natural join, from which BGP evaluation extends.
    pub(crate) fn unit() -> Self {
        Table {
            vars: Vec::new(),
            data: Vec::new(),
            len: 1,
        }
    }

    /// The schema.
    pub fn vars(&self) -> &[Arc<str>] {
        &self.vars
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column index of a variable.
    pub fn col(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v.as_ref() == var)
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity does not match the schema.
    pub fn push_row(&mut self, row: &[Binding]) {
        assert_eq!(row.len(), self.vars.len(), "row arity mismatch");
        self.data.extend_from_slice(row);
        self.len += 1;
    }

    /// Appends `row` followed by `extra`; together they must fill the
    /// schema.
    #[inline]
    pub(crate) fn push_extended(
        &mut self,
        row: &[Binding],
        extra: impl IntoIterator<Item = Binding>,
    ) {
        self.data.extend_from_slice(row);
        self.data.extend(extra);
        self.len += 1;
        debug_assert_eq!(
            self.data.len(),
            self.len * self.vars.len(),
            "row arity mismatch"
        );
    }

    /// Drops the spare capacity row appends left behind, for a table
    /// that is kept while other work runs.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Binding]> {
        (0..self.len).map(|i| self.row(i))
    }

    /// One row by index.
    #[inline]
    pub fn row(&self, i: usize) -> &[Binding] {
        let w = self.vars.len();
        &self.data[i * w..(i + 1) * w]
    }

    /// All bindings of one column (deduplicated, order of first
    /// occurrence). This is the projection π_v used to derive seed sets.
    pub fn distinct_column(&self, var: &str) -> Vec<Binding> {
        let Some(c) = self.col(var) else {
            return Vec::new();
        };
        let mut seen = FxHashSet::default();
        self.rows()
            .map(|r| r[c])
            .filter(|&b| seen.insert(b))
            .collect()
    }

    /// Projection onto a subset of variables (duplicates preserved;
    /// use [`Table::distinct`] after if set semantics are needed).
    ///
    /// # Panics
    /// Panics if a requested variable is absent.
    pub fn project(&self, keep: &[&str]) -> Table {
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` contract: projecting an absent variable is a caller bug, not a runtime condition"
        )]
        let cols: Vec<usize> = keep
            .iter()
            .map(|v| {
                self.col(v)
                    .unwrap_or_else(|| panic!("unknown variable {v}"))
            })
            .collect();
        let mut out = Table::new(cols.iter().map(|&c| self.vars[c].clone()).collect());
        out.data.reserve(self.len * cols.len());
        for r in self.rows() {
            out.push_extended(&[], cols.iter().map(|&c| r[c]));
        }
        out
    }

    /// Removes duplicate rows (first occurrence kept).
    pub fn distinct(self) -> Table {
        let mut seen: FxHashSet<&[Binding]> = FxHashSet::default();
        let mut out = Table::new(self.vars.clone());
        for r in self.rows() {
            if seen.insert(r) {
                out.push_extended(r, []);
            }
        }
        out
    }

    /// Keeps rows satisfying `pred`, compacting them in place.
    pub fn select<F: FnMut(&[Binding]) -> bool>(mut self, mut pred: F) -> Table {
        let w = self.vars.len();
        let mut kept = 0;
        for i in 0..self.len {
            if pred(self.row(i)) {
                self.data.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.data.truncate(kept * w);
        self.len = kept;
        self
    }

    /// Truncates to at most `n` rows.
    pub fn limit(mut self, n: usize) -> Table {
        self.len = self.len.min(n);
        self.data.truncate(self.len * self.vars.len());
        self
    }

    /// Natural join on all shared variables; a cartesian product when
    /// none are shared. Hash join: the smaller input builds, and its
    /// rows are chained by key hash, so no key is allocated per row.
    /// Output order is probe order, and for each probe row its matches
    /// in build insertion order. Columns are `self`'s, then `other`'s
    /// unshared ones.
    pub fn natural_join(&self, other: &Table) -> Table {
        // Shared variables, as (column in self, column in other).
        let shared: Vec<(usize, usize)> = self
            .vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| other.col(v).map(|j| (i, j)))
            .collect();
        let other_extra: Vec<usize> = (0..other.vars.len())
            .filter(|&j| !shared.iter().any(|&(_, sj)| sj == j))
            .collect();
        let mut out_vars: Vec<Arc<str>> = self.vars.clone();
        out_vars.extend(other_extra.iter().map(|&j| other.vars[j].clone()));
        let mut out = Table::new(out_vars);
        let extend = |out: &mut Table, l: &[Binding], r: &[Binding]| {
            out.push_extended(l, other_extra.iter().map(|&j| r[j]));
        };

        if shared.is_empty() {
            for l in self.rows() {
                for r in other.rows() {
                    extend(&mut out, l, r);
                }
            }
            return out;
        }

        // Build on the smaller side.
        let build_left = self.len <= other.len;
        let (build, probe) = if build_left {
            (self, other)
        } else {
            (other, self)
        };
        let (key_build, key_probe): (Vec<usize>, Vec<usize>) = if build_left {
            shared.iter().copied().unzip()
        } else {
            shared.iter().map(|&(i, j)| (j, i)).unzip()
        };
        if build.is_empty() {
            return out;
        }

        // Bucket heads over the top bits of the key hash, one chain
        // link per build row. Linking from the last row back keeps each
        // chain in insertion order.
        let bits = (2 * build.len).next_power_of_two().trailing_zeros();
        let bucket = |r: &[Binding], key: &[usize]| -> usize {
            let mut h = FxHasher::default();
            for &c in key {
                r[c].hash(&mut h);
            }
            (h.finish() >> (64 - bits)) as usize
        };
        let mut heads = vec![NO_ROW; 1 << bits];
        let mut next = vec![NO_ROW; build.len];
        for i in (0..build.len).rev() {
            let b = bucket(build.row(i), &key_build);
            next[i] = heads[b];
            heads[b] = i as u32;
        }

        for pr in probe.rows() {
            let mut bi = heads[bucket(pr, &key_probe)];
            while bi != NO_ROW {
                let br = build.row(bi as usize);
                if key_build
                    .iter()
                    .zip(&key_probe)
                    .all(|(&b, &p)| br[b] == pr[p])
                {
                    let (l, r) = if build_left { (br, pr) } else { (pr, br) };
                    extend(&mut out, l, r);
                }
                bi = next[bi as usize];
            }
        }
        out
    }

    /// Sorts rows by a key extracted per row (stable).
    pub fn sort_by_key<K: Ord, F: FnMut(&[Binding]) -> K>(self, mut f: F) -> Table {
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_by_key(|&i| f(self.row(i)));
        let mut out = Table::new(self.vars.clone());
        out.data.reserve(self.data.len());
        for i in order {
            out.push_extended(self.row(i), []);
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}",
            self.vars
                .iter()
                .map(|v| v.as_ref())
                .collect::<Vec<_>>()
                .join("\t")
        )?;
        for r in self.rows() {
            writeln!(
                f,
                "{}",
                r.iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join("\t")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_graph::NodeId;

    fn n(i: u32) -> Binding {
        Binding::Node(NodeId(i))
    }

    fn table(names: &[&str], rows: &[&[Binding]]) -> Table {
        let mut t = Table::with_columns(names);
        for r in rows {
            t.push_row(r);
        }
        t
    }

    #[test]
    fn join_on_shared_variable() {
        let a = table(&["x", "y"], &[&[n(1), n(2)], &[n(3), n(4)]]);
        let b = table(&["y", "z"], &[&[n(2), n(9)], &[n(2), n(8)], &[n(5), n(7)]]);
        let j = a.natural_join(&b);
        assert_eq!(
            j.vars().iter().map(|v| v.as_ref()).collect::<Vec<_>>(),
            ["x", "y", "z"]
        );
        assert_eq!(j.len(), 2);
        let zs: Vec<_> = j.distinct_column("z");
        assert!(zs.contains(&n(9)) && zs.contains(&n(8)));
    }

    #[test]
    fn join_without_shared_is_product() {
        let a = table(&["x"], &[&[n(1)], &[n(2)]]);
        let b = table(&["y"], &[&[n(3)], &[n(4)], &[n(5)]]);
        assert_eq!(a.natural_join(&b).len(), 6);
    }

    #[test]
    fn join_on_two_shared() {
        let a = table(&["x", "y"], &[&[n(1), n(2)], &[n(1), n(3)]]);
        let b = table(&["y", "x"], &[&[n(2), n(1)], &[n(3), n(9)]]);
        let j = a.natural_join(&b);
        assert_eq!(j.len(), 1);
        assert_eq!(j.row(0), &[n(1), n(2)]);
    }

    #[test]
    fn empty_join() {
        let a = table(&["x"], &[&[n(1)]]);
        let b = table(&["x"], &[]);
        assert_eq!(a.natural_join(&b).len(), 0);
    }

    #[test]
    fn project_and_distinct() {
        let t = table(&["x", "y"], &[&[n(1), n(2)], &[n(1), n(3)], &[n(1), n(2)]]);
        let p = t.project(&["x"]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.distinct().len(), 1);
    }

    #[test]
    fn distinct_column_order() {
        let t = table(&["x"], &[&[n(2)], &[n(1)], &[n(2)]]);
        assert_eq!(t.distinct_column("x"), vec![n(2), n(1)]);
        assert!(t.distinct_column("nope").is_empty());
    }

    #[test]
    fn select_limit_sort() {
        let t = table(&["x"], &[&[n(3)], &[n(1)], &[n(2)]]);
        let t = t.sort_by_key(|r| r[0]);
        assert_eq!(t.row(0), &[n(1)]);
        let t = t.select(|r| r[0] != n(2));
        assert_eq!(t.len(), 2);
        let t = t.limit(1);
        assert_eq!(t.len(), 1);
    }

    /// Output order is probe order, then build insertion order: the
    /// smaller side builds, whichever side it is.
    #[test]
    fn join_order_is_probe_then_build_insertion() {
        let small = table(
            &["k", "a"],
            &[&[n(1), n(10)], &[n(2), n(20)], &[n(1), n(11)]],
        );
        let big = table(
            &["k", "b"],
            &[
                &[n(2), n(30)],
                &[n(1), n(31)],
                &[n(3), n(32)],
                &[n(1), n(33)],
            ],
        );
        // `small` builds and `big` probes, in either call direction.
        let j = small.natural_join(&big);
        let rows: Vec<&[Binding]> = j.rows().collect();
        assert_eq!(
            rows,
            [
                &[n(2), n(20), n(30)][..],
                &[n(1), n(10), n(31)],
                &[n(1), n(11), n(31)],
                &[n(1), n(10), n(33)],
                &[n(1), n(11), n(33)],
            ]
        );
        let j = big.natural_join(&small);
        let rows: Vec<&[Binding]> = j.rows().collect();
        assert_eq!(
            rows,
            [
                &[n(2), n(30), n(20)][..],
                &[n(1), n(31), n(10)],
                &[n(1), n(31), n(11)],
                &[n(1), n(33), n(10)],
                &[n(1), n(33), n(11)],
            ]
        );
    }

    #[test]
    fn distinct_keeps_first_occurrences_in_order() {
        let t = table(
            &["x", "y"],
            &[
                &[n(3), n(1)],
                &[n(1), n(2)],
                &[n(3), n(1)],
                &[n(2), n(2)],
                &[n(1), n(2)],
            ],
        );
        let d = t.distinct();
        let rows: Vec<&[Binding]> = d.rows().collect();
        assert_eq!(rows, [&[n(3), n(1)][..], &[n(1), n(2)], &[n(2), n(2)]]);
    }

    /// A table without columns still counts its rows: projecting onto
    /// no variable keeps them, `distinct` folds them to one, and a join
    /// with a zero-width table is a product with its row count.
    #[test]
    fn zero_width_rows() {
        let t = table(&["x"], &[&[n(1)], &[n(2)], &[n(1)]]);
        let empty_tuple = t.project(&[]);
        assert_eq!(empty_tuple.len(), 3);
        assert!(empty_tuple.rows().all(|r| r.is_empty()));
        assert_eq!(empty_tuple.clone().distinct().len(), 1);
        assert_eq!(empty_tuple.natural_join(&t).len(), 9);
        assert_eq!(t.natural_join(&Table::unit()).len(), 3);
        assert_eq!(empty_tuple.clone().select(|_| true).len(), 3);
        assert_eq!(empty_tuple.limit(2).len(), 2);
        let mut pushed = Table::new(Vec::new());
        pushed.push_row(&[]);
        assert_eq!(pushed.row(0), &[] as &[Binding]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::with_columns(&["x", "y"]);
        t.push_row(&[n(1)]);
    }

    #[test]
    fn display_renders() {
        let t = table(&["x"], &[&[n(1)]]);
        let s = t.to_string();
        assert!(s.contains('x') && s.contains("n1"));
    }
}
