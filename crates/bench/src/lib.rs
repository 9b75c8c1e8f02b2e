//! Shared harness for the paper-reproduction benchmarks.
//!
//! Each paper bench target (one per table or figure of the paper; its
//! header documents the experiment) uses these helpers to build seeded
//! workloads, run the algorithm plus baselines, render markdown tables, and
//! fit measured round counts against the theoretical complexity shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt::Write as _;

pub mod fit;

/// A markdown table accumulated row by row and printed to stdout.
///
/// # Examples
///
/// ```
/// use dcover_bench::Table;
/// let mut t = Table::new("demo", &["x", "y"]);
/// t.row(["1", "2"]);
/// let s = t.render();
/// assert!(s.contains("| 1 | 2 |"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table as markdown.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with `prec` decimals (for table cells).
#[must_use]
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Geometric sweep: `steps` values from `from` to `to` inclusive,
/// multiplicatively spaced and deduplicated.
///
/// # Panics
///
/// Panics if `from == 0`, `to < from`, or `steps < 2`.
#[must_use]
pub fn geometric_sweep(from: u64, to: u64, steps: usize) -> Vec<u64> {
    assert!(from > 0 && to >= from && steps >= 2, "bad sweep");
    let ratio = (to as f64 / from as f64).powf(1.0 / (steps as f64 - 1.0));
    let mut out: Vec<u64> = (0..steps)
        .map(|i| ((from as f64) * ratio.powi(i as i32)).round() as u64)
        .collect();
    out.dedup();
    *out.last_mut().expect("nonempty") = to;
    out.dedup();
    out
}

/// Mean of a slice (0.0 when empty).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum of a slice (NaN-free inputs assumed; 0.0 when empty).
#[must_use]
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(["1", "2"]);
        t.row([String::from("x"), String::from("y")]);
        let s = t.render();
        assert!(s.contains("## t"));
        assert!(s.contains("| a | b |"));
        assert!(s.contains("| x | y |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn sweep_endpoints() {
        let s = geometric_sweep(4, 4096, 6);
        assert_eq!(*s.first().unwrap(), 4);
        assert_eq!(*s.last().unwrap(), 4096);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(max(&[1.0, 3.0, 2.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(f(1.23456, 2), "1.23");
    }
}
