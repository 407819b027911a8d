//! Reporting helpers for the figure/table harness binaries: aligned
//! console tables, CSV emission, and repeated-run timing (the paper
//! averages every point over 3 executions, §5.1).

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Times `f`, returning its value and the wall-clock duration.
pub fn time_it<T, F: FnOnce() -> T>(f: F) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Runs `f` `runs` times and returns the last value together with the
/// average duration — mirroring the paper's "every execution point is
/// averaged over 3 executions".
pub fn time_avg<T, F: FnMut() -> T>(runs: usize, mut f: F) -> (T, Duration) {
    assert!(runs >= 1);
    let mut total = Duration::ZERO;
    let mut last = None;
    for _ in 0..runs {
        let (v, d) = time_it(&mut f);
        total += d;
        last = Some(v);
    }
    (last.unwrap(), total / runs as u32)
}

/// An accumulating result table printed at the end of a harness run.
#[derive(Debug, Default)]
pub struct Report {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Report {
    /// Creates a report with a title and column headers.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Report {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.to_string(),
        }
    }

    /// Adds one row (stringifying each cell).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let head: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        out.push_str(&head.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(head.join("  ").len()));
        out.push('\n');
        for r in &self.rows {
            let line: Vec<String> = r
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Renders machine-readable CSV.
    pub fn csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints table + CSV block to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
        println!("--- csv ---\n{}", self.csv());
    }
}

/// Formats a duration in milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers() {
        let (v, d) = time_it(|| 41 + 1);
        assert_eq!(v, 42);
        let (v, avg) = time_avg(3, || 7);
        assert_eq!(v, 7);
        assert!(avg <= d + Duration::from_secs(1));
    }

    #[test]
    fn report_renders_aligned() {
        let mut r = Report::new("demo", &["x", "time_ms"]);
        r.row(&[&1, &"10.00"]);
        r.row(&[&100, &"3.25"]);
        let s = r.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("100"));
        assert_eq!(r.len(), 2);
        let csv = r.csv();
        assert!(csv.starts_with("x,time_ms\n"));
        assert!(csv.contains("100,3.25"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn report_checks_arity() {
        let mut r = Report::new("demo", &["a", "b"]);
        r.row(&[&1]);
    }

    #[test]
    fn ms_format() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.00");
    }
}
