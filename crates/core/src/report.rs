//! Experiment result formatting shared by the benches and the report
//! binary.

/// Geometric mean of a slice of positive values (the aggregation the
/// paper uses for Figs. 11 and 12).
///
/// Returns 0.0 for an empty slice.
///
/// # Panics
///
/// Panics if any value is non-positive.
///
/// # Example
///
/// ```
/// use sprint_core::geomean;
///
/// assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    for &v in values {
        assert!(v > 0.0, "geomean requires positive values, got {v}");
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One regenerated table or figure: an id (`fig11`, `tab3`, ...), a
/// title, column headers and formatted rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentResult {
    /// Stable identifier ("fig11").
    pub id: String,
    /// Human title ("Fig. 11: Speedup over baseline").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (paper reference values, caveats).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Creates an empty result with id and title.
    pub fn new(id: &str, title: &str) -> Self {
        ExperimentResult {
            id: id.to_string(),
            title: title.to_string(),
            headers: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets the headers.
    pub fn headers<I: IntoIterator<Item = S>, S: Into<String>>(mut self, headers: I) -> Self {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Appends one row.
    pub fn push_row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, row: I) {
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// Appends a note line.
    pub fn push_note<S: Into<String>>(&mut self, note: S) {
        self.notes.push(note.into());
    }
}

impl std::fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        // Column widths over headers + rows.
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        if !self.headers.is_empty() {
            let line: Vec<String> = self
                .headers
                .iter()
                .enumerate()
                .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
                .collect();
            writeln!(f, "{}", line.join("  "))?;
            writeln!(
                f,
                "{}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
            )?;
        }
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            writeln!(f, "{}", line.join("  "))?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basic_properties() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[7.5]) - 7.5).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn result_builds_and_renders() {
        let mut r = ExperimentResult::new("fig11", "Speedup").headers(["Model", "S", "M", "L"]);
        r.push_row(["BERT-B", "9.0x", "8.9x", "8.6x"]);
        r.push_note("paper geomean: 7.5/7.4/7.1");
        let text = r.to_string();
        assert!(text.contains("fig11"));
        assert!(text.contains("BERT-B"));
        assert!(text.contains("note: paper geomean"));
    }

    #[test]
    fn display_aligns_columns() {
        let mut r = ExperimentResult::new("x", "t").headers(["A", "BBBB"]);
        r.push_row(["1", "2"]);
        let text = r.to_string();
        let lines: Vec<&str> = text.lines().collect();
        // Header and row lines end aligned.
        assert_eq!(lines[1].len(), lines[3].len());
    }
}
