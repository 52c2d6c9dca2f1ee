//! Small statistics and formatting helpers for the figure harness.

use crate::time::VirtualNanos;

/// Arithmetic mean of a slice of durations (zero for an empty slice).
///
/// ```
/// use simkit::{stats::mean, VirtualNanos};
/// let m = mean(&[2, 4].map(VirtualNanos::from_nanos));
/// assert_eq!(m.as_nanos(), 3);
/// ```
#[must_use]
pub fn mean(ds: &[VirtualNanos]) -> VirtualNanos {
    if ds.is_empty() {
        return VirtualNanos::ZERO;
    }
    let sum: u128 = ds.iter().map(|d| d.as_nanos() as u128).sum();
    VirtualNanos::from_nanos((sum / ds.len() as u128).min(u64::MAX as u128) as u64)
}

/// Overhead factor `measured / baseline` — the paper's "×" notation.
///
/// Returns `f64::INFINITY` if the baseline is zero.
#[must_use]
pub fn overhead(measured: VirtualNanos, baseline: VirtualNanos) -> f64 {
    measured.ratio(baseline)
}

/// Arithmetic mean of a set of factors (the paper reports arithmetic
/// averages, e.g. "an average of 1.24×").
#[must_use]
pub fn amean(factors: &[f64]) -> f64 {
    if factors.is_empty() {
        return 0.0;
    }
    factors.iter().sum::<f64>() / factors.len() as f64
}

/// A minimal fixed-width text table builder for harness output.
///
/// ```
/// use simkit::stats::TextTable;
/// let mut t = TextTable::new(vec!["app".into(), "native".into(), "vPIM".into()]);
/// t.row(vec!["VA".into(), "1.0".into(), "1.1".into()]);
/// let s = t.render();
/// assert!(s.contains("app"));
/// assert!(s.contains("VA"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: Vec<String>) -> Self {
        TextTable { header, rows: Vec::new() }
    }

    /// Appends a data row. Short rows are padded with empty cells; long rows
    /// extend the column count.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let all_rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<w$}"));
                if i + 1 != widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), VirtualNanos::ZERO);
    }

    #[test]
    fn overhead_factor() {
        let base = VirtualNanos::from_nanos(100);
        let slow = VirtualNanos::from_nanos(153);
        assert!((overhead(slow, base) - 1.53).abs() < 1e-9);
        assert_eq!(overhead(slow, VirtualNanos::ZERO), f64::INFINITY);
    }

    #[test]
    fn amean_basics() {
        assert!((amean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(amean(&[]), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a".into(), "bbbb".into()]);
        t.row(vec!["xxxx".into(), "y".into()]);
        t.row(vec!["z".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("xxxx"));
    }
}
