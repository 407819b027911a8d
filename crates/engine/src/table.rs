//! Binding tables and the relational operators over them.
//!
//! The paper's evaluation strategy (§3) materialises each BGP's
//! embeddings in a table `B_i`, each CTP's results in a table `CTP_j`,
//! and computes the query as a projection over their natural join.
//! [`Table`] is that relation: named columns of [`Binding`]s.

use crate::binding::Binding;
use cs_graph::fxhash::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// A relation over query variables.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column names (query variables), in row order.
    vars: Vec<Arc<str>>,
    /// Rows; each row has exactly `vars.len()` bindings.
    rows: Vec<Box<[Binding]>>,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(vars: Vec<Arc<str>>) -> Self {
        Table {
            vars,
            rows: Vec::new(),
        }
    }

    /// Creates a table with schema built from `&str` names.
    pub fn with_columns(names: &[&str]) -> Self {
        Table::new(names.iter().map(|&n| Arc::from(n)).collect())
    }

    /// The schema.
    pub fn vars(&self) -> &[Arc<str>] {
        &self.vars
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column index of a variable.
    pub fn col(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v.as_ref() == var)
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity does not match the schema.
    pub fn push(&mut self, row: Box<[Binding]>) {
        assert_eq!(row.len(), self.vars.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Appends a row from a slice.
    pub fn push_row(&mut self, row: &[Binding]) {
        self.push(row.to_vec().into_boxed_slice());
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Binding]> {
        self.rows.iter().map(|r| r.as_ref())
    }

    /// One row by index.
    pub fn row(&self, i: usize) -> &[Binding] {
        &self.rows[i]
    }

    /// All bindings of one column (deduplicated, order of first
    /// occurrence). This is the projection π_v used to derive seed sets.
    pub fn distinct_column(&self, var: &str) -> Vec<Binding> {
        let Some(c) = self.col(var) else {
            return Vec::new();
        };
        let mut seen = cs_graph::fxhash::FxHashSet::default();
        let mut out = Vec::new();
        for r in &self.rows {
            if seen.insert(r[c]) {
                out.push(r[c]);
            }
        }
        out
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
        let vars = cols.iter().map(|&c| self.vars[c].clone()).collect();
        let rows = self
            .rows
            .iter()
            .map(|r| cols.iter().map(|&c| r[c]).collect())
            .collect();
        Table { vars, rows }
    }

    /// Removes duplicate rows (first occurrence kept).
    pub fn distinct(mut self) -> Table {
        let mut seen = cs_graph::fxhash::FxHashSet::default();
        self.rows.retain(|r| seen.insert(r.clone()));
        self
    }

    /// Keeps rows satisfying `pred`.
    pub fn select<F: FnMut(&[Binding]) -> bool>(mut self, mut pred: F) -> Table {
        self.rows.retain(|r| pred(r));
        self
    }

    /// Truncates to at most `n` rows.
    pub fn limit(mut self, n: usize) -> Table {
        self.rows.truncate(n);
        self
    }

    /// Natural join on all shared variables; a cartesian product when
    /// none are shared. Hash join: the smaller input builds the table.
    pub fn natural_join(&self, other: &Table) -> Table {
        // Determine shared variables and output schema.
        let shared: Vec<(usize, usize)> = self
            .vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| other.col(v).map(|j| (i, j)))
            .collect();

        let mut out_vars: Vec<Arc<str>> = self.vars.clone();
        let other_extra: Vec<usize> = (0..other.vars.len())
            .filter(|&j| !shared.iter().any(|&(_, sj)| sj == j))
            .collect();
        out_vars.extend(other_extra.iter().map(|&j| other.vars[j].clone()));
        let mut out = Table::new(out_vars);

        if shared.is_empty() {
            for l in &self.rows {
                for r in &other.rows {
                    let mut row = Vec::with_capacity(l.len() + other_extra.len());
                    row.extend_from_slice(l);
                    row.extend(other_extra.iter().map(|&j| r[j]));
                    out.push(row.into_boxed_slice());
                }
            }
            return out;
        }

        // Build on the smaller side.
        let build_left = self.rows.len() <= other.rows.len();
        let (build, probe) = if build_left {
            (self, other)
        } else {
            (other, self)
        };
        let key_cols_build: Vec<usize> = if build_left {
            shared.iter().map(|&(i, _)| i).collect()
        } else {
            shared.iter().map(|&(_, j)| j).collect()
        };
        let key_cols_probe: Vec<usize> = if build_left {
            shared.iter().map(|&(_, j)| j).collect()
        } else {
            shared.iter().map(|&(i, _)| i).collect()
        };

        let mut index: FxHashMap<Vec<Binding>, Vec<usize>> = FxHashMap::default();
        for (ri, r) in build.rows.iter().enumerate() {
            let key: Vec<Binding> = key_cols_build.iter().map(|&c| r[c]).collect();
            index.entry(key).or_default().push(ri);
        }

        for pr in &probe.rows {
            let key: Vec<Binding> = key_cols_probe.iter().map(|&c| pr[c]).collect();
            let Some(matches) = index.get(&key) else {
                continue;
            };
            for &bi in matches {
                let br = &build.rows[bi];
                let (l, r) = if build_left { (br, pr) } else { (pr, br) };
                let mut row = Vec::with_capacity(self.vars.len() + other_extra.len());
                row.extend_from_slice(l);
                row.extend(other_extra.iter().map(|&j| r[j]));
                out.push(row.into_boxed_slice());
            }
        }
        out
    }

    /// Sorts rows by a key extracted per row (stable).
    pub fn sort_by_key<K: Ord, F: FnMut(&[Binding]) -> K>(mut self, mut f: F) -> Table {
        self.rows.sort_by_key(|r| f(r));
        self
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
        for r in &self.rows {
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
