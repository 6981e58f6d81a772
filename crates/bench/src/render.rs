//! Plain-text renderers for tables and series, shared by every
//! experiment binary.

/// A text table with a title, column headers, and string cells.
///
/// # Example
///
/// ```
/// use hbo_bench::Table;
///
/// let mut t = Table::new("Demo", vec!["model".into(), "ms".into()]);
/// t.row(vec!["mnist".into(), "5.0".into()]);
/// let s = t.render();
/// assert!(s.contains("mnist"));
/// assert!(s.contains("Demo"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if there are no headers.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Table {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// A labeled numeric series (one line of a figure), rendered as aligned
/// `t value` pairs plus an ASCII sparkline for quick visual inspection.
#[derive(Debug, Clone)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends one `(x, y)` point.
    pub fn push(&mut self, x: f64, y: f64) -> &mut Self {
        self.points.push((x, y));
        self
    }

    /// The series label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// An ASCII sparkline of the y values.
    pub fn sparkline(&self) -> String {
        const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.points.is_empty() {
            return String::new();
        }
        let (min, max) = self
            .points
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &(_, y)| {
                (lo.min(y), hi.max(y))
            });
        let span = (max - min).max(1e-12);
        self.points
            .iter()
            .map(|&(_, y)| GLYPHS[(((y - min) / span) * 7.0).round() as usize])
            .collect()
    }

    /// Renders the series: label, sparkline, then every point.
    pub fn render(&self) -> String {
        let mut out = format!("-- {} {}\n", self.label, self.sparkline());
        for &(x, y) in &self.points {
            out.push_str(&format!("   {x:>10.2}  {y:>12.4}\n"));
        }
        out
    }

    /// Renders compactly: label, sparkline, and summary stats only.
    pub fn render_summary(&self) -> String {
        if self.points.is_empty() {
            return format!("-- {} (empty)\n", self.label);
        }
        let ys: Vec<f64> = self.points.iter().map(|&(_, y)| y).collect();
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let min = ys.iter().cloned().fold(f64::MAX, f64::min);
        let max = ys.iter().cloned().fold(f64::MIN, f64::max);
        format!(
            "-- {} {} n={} min={min:.3} mean={mean:.3} max={max:.3}\n",
            self.label,
            self.sparkline(),
            ys.len()
        )
    }
}

/// Formats an `Option<f64>` latency cell as the paper prints them
/// (`NA` for incompatible pairs).
pub fn ms_cell(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.1}"),
        None => "NA".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T", vec!["a".into(), "bb".into()]);
        t.row(vec!["xxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== T =="));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn bad_row_panics() {
        Table::new("T", vec!["a".into()]).row(vec![]);
    }

    #[test]
    fn sparkline_spans_glyphs() {
        let mut s = Series::new("s");
        for i in 0..8 {
            s.push(i as f64, i as f64);
        }
        let spark = s.sparkline();
        assert!(spark.starts_with('▁'));
        assert!(spark.ends_with('█'));
    }

    #[test]
    fn series_summary_contains_stats() {
        let mut s = Series::new("lat");
        s.push(0.0, 1.0).push(1.0, 3.0);
        let sum = s.render_summary();
        assert!(sum.contains("mean=2.000"));
        assert!(sum.contains("n=2"));
        assert!(s.render().contains("lat"));
    }

    #[test]
    fn ms_cell_formats_na() {
        assert_eq!(ms_cell(None), "NA");
        assert_eq!(ms_cell(Some(12.34)), "12.3");
    }
}
