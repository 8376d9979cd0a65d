//! # neuropulsim-bench
//!
//! The experiment harness: shared table formatting and deterministic RNG
//! plumbing for the `expt_*` binaries, each of which regenerates one of
//! the evaluation tables indexed in `DESIGN.md` (E1–E13). Every
//! `*_bench` probe emits the unified [`runner`] JSON schema
//! (median-of-N, machine-normalized) that the committed `BENCH_*.json`
//! baselines and the CI perf-regression gate consume.

#![warn(missing_docs)]

pub mod runner;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The workspace-wide deterministic RNG for experiments.
pub fn experiment_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A markdown table builder for experiment outputs.
///
/// # Examples
///
/// ```
/// let mut t = neuropulsim_bench::Table::new(&["n", "fidelity"]);
/// t.row(&["8".into(), "0.999".into()]);
/// let s = t.to_markdown();
/// assert!(s.contains("| n | fidelity |"));
/// assert!(s.contains("| 8 | 0.999 |"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Prints the markdown to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }
}

/// Formats a float for table cells (4 decimals, or scientific notation
/// for very small/large magnitudes).
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() < 1e-3 || v.abs() >= 1e6 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["3".into(), "4".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a | b |\n|---|---|\n"));
        assert!(md.contains("| 3 | 4 |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn fmt_modes() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.5), "0.5000");
        assert!(fmt(1.5e-7).contains('e'));
        assert!(fmt(2.0e7).contains('e'));
    }

    #[test]
    fn rng_is_deterministic() {
        use rand::Rng;
        let a: u64 = experiment_rng(1).gen();
        let b: u64 = experiment_rng(1).gen();
        assert_eq!(a, b);
    }
}
