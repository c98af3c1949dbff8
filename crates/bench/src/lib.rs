//! Regenerates every table and figure of the paper's evaluation (§4).
//!
//! [`figures`] holds one function per table/figure; this module holds
//! what they share: the paper's evaluation environment (§4.1), the four
//! K-of-N redundancy settings, aligned-table printing and a wall-clock
//! helper. Performance is measured in `benchmark/`, not here.

pub mod answers;
pub mod figures;

use recloud_apps::ApplicationSpec;
use recloud_faults::FaultModel;
use recloud_topology::{Scale, Topology};
use std::time::Instant;

/// The §4.1 environment for one scale: fat-tree with border pod, five
/// power supplies wired round-robin, paper-default failure probabilities
/// with power dependency trees.
pub fn paper_env(scale: Scale, seed: u64) -> (Topology, FaultModel) {
    let topology = scale.build();
    let model = FaultModel::paper_default(&topology, seed);
    (topology, model)
}

/// The four redundancy settings of Figures 8–10: K-of-N.
pub const REDUNDANCY: [(u32, u32); 4] = [(1, 2), (2, 3), (4, 5), (8, 10)];

/// Label like "4-of-5 redundancy".
pub fn redundancy_label(k: u32, n: u32) -> String {
    format!("{k}-of-{n}")
}

/// Specs for the four redundancy settings.
pub fn redundancy_specs() -> Vec<(String, ApplicationSpec)> {
    REDUNDANCY
        .iter()
        .map(|&(k, n)| (redundancy_label(k, n), ApplicationSpec::k_of_n(k, n)))
        .collect()
}

/// Times a closure in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e3)
}

/// Minimal aligned text table, printed in the paper's row/column style.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats milliseconds compactly (µs under 1 ms, s above 10 000 ms).
pub fn fmt_ms(ms: f64) -> String {
    if ms < 1.0 {
        format!("{:.0} us", ms * 1e3)
    } else if ms < 10_000.0 {
        format!("{ms:.1} ms")
    } else {
        format!("{:.1} s", ms / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_builds_for_tiny() {
        let (t, m) = paper_env(Scale::Tiny, 1);
        assert_eq!(t.num_hosts(), 112);
        assert_eq!(m.num_topology_components(), t.num_components());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a", "bbbb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn fmt_ms_ranges() {
        assert_eq!(fmt_ms(0.5), "500 us");
        assert_eq!(fmt_ms(53.0), "53.0 ms");
        assert_eq!(fmt_ms(25_000.0), "25.0 s");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }
}
