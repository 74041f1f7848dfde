//! Table rendering and CSV export.

use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A named collection of equally long numeric series indexed by budget —
/// the structure behind every figure's plot.
#[derive(Debug, Clone)]
pub struct SeriesTable {
    /// Experiment id, e.g. `figure05_mlp_missing_values_eeg`.
    pub name: String,
    /// Label of the x column (usually `budget`).
    pub index_label: String,
    /// X values.
    pub index: Vec<f64>,
    /// `(label, series)` columns.
    pub columns: Vec<(String, Vec<f64>)>,
}

impl SeriesTable {
    /// New table over integer budgets `0..=max_budget`.
    pub fn over_budget(name: impl Into<String>, max_budget: usize) -> Self {
        SeriesTable {
            name: name.into(),
            index_label: "budget".into(),
            index: (0..=max_budget).map(|b| b as f64).collect(),
            columns: Vec::new(),
        }
    }

    /// Add a column. Panics on length mismatch.
    pub fn push(&mut self, label: impl Into<String>, series: Vec<f64>) {
        assert_eq!(series.len(), self.index.len(), "series length must match index");
        self.columns.push((label.into(), series));
    }

    /// Column by label.
    pub fn get(&self, label: &str) -> Option<&[f64]> {
        self.columns.iter().find(|(l, _)| l == label).map(|(_, s)| s.as_slice())
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.name));
        let width = 12usize;
        out.push_str(&format!("{:>width$}", self.index_label));
        for (label, _) in &self.columns {
            out.push_str(&format!("{label:>width$}"));
        }
        out.push('\n');
        for (i, x) in self.index.iter().enumerate() {
            out.push_str(&format!("{x:>width$.2}"));
            for (_, series) in &self.columns {
                out.push_str(&format!("{:>width$.4}", series[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.index_label);
        for (label, _) in &self.columns {
            out.push(',');
            out.push_str(label);
        }
        out.push('\n');
        for (i, x) in self.index.iter().enumerate() {
            out.push_str(&format!("{x}"));
            for (_, series) in &self.columns {
                out.push_str(&format!(",{}", series[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Print to stdout and write `<out_dir>/<name>.csv`.
    pub fn emit(&self, out_dir: &str) -> std::io::Result<()> {
        print!("{}", self.render());
        fs::create_dir_all(out_dir)?;
        let path = Path::new(out_dir).join(format!("{}.csv", self.name));
        let mut file = fs::File::create(path)?;
        file.write_all(self.to_csv().as_bytes())?;
        Ok(())
    }
}

/// A labelled matrix (rows × columns of scalars) for the grouped-bar
/// figures (10, 11) and the runtime table (12).
#[derive(Debug, Clone)]
pub struct MatrixTable {
    /// Experiment id.
    pub name: String,
    /// Row labels.
    pub rows: Vec<String>,
    /// Column labels.
    pub cols: Vec<String>,
    /// Row-major values; `None` renders as `-` (not applicable).
    pub values: Vec<Option<f64>>,
}

impl MatrixTable {
    /// New empty matrix.
    pub fn new(name: impl Into<String>, rows: Vec<String>, cols: Vec<String>) -> Self {
        let values = vec![None; rows.len() * cols.len()];
        MatrixTable { name: name.into(), rows, cols, values }
    }

    /// Set a cell by labels. Panics on unknown labels.
    pub fn set(&mut self, row: &str, col: &str, value: f64) {
        let r = self.rows.iter().position(|x| x == row).expect("known row");
        let c = self.cols.iter().position(|x| x == col).expect("known col");
        self.values[r * self.cols.len() + c] = Some(value);
    }

    /// Get a cell by labels.
    pub fn get(&self, row: &str, col: &str) -> Option<f64> {
        let r = self.rows.iter().position(|x| x == row)?;
        let c = self.cols.iter().position(|x| x == col)?;
        self.values[r * self.cols.len() + c]
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.name));
        let width = 12usize;
        out.push_str(&format!("{:>width$}", ""));
        for c in &self.cols {
            out.push_str(&format!("{c:>width$}"));
        }
        out.push('\n');
        for (r, row) in self.rows.iter().enumerate() {
            out.push_str(&format!("{row:>width$}"));
            for c in 0..self.cols.len() {
                match self.values[r * self.cols.len() + c] {
                    Some(v) => out.push_str(&format!("{v:>width$.4}")),
                    None => out.push_str(&format!("{:>width$}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV (empty cells for `None`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("row");
        for c in &self.cols {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (r, row) in self.rows.iter().enumerate() {
            out.push_str(row);
            for c in 0..self.cols.len() {
                match self.values[r * self.cols.len() + c] {
                    Some(v) => out.push_str(&format!(",{v}")),
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Print to stdout and write `<out_dir>/<name>.csv`.
    pub fn emit(&self, out_dir: &str) -> std::io::Result<()> {
        print!("{}", self.render());
        fs::create_dir_all(out_dir)?;
        let path = Path::new(out_dir).join(format!("{}.csv", self.name));
        let mut file = fs::File::create(path)?;
        file.write_all(self.to_csv().as_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_table_roundtrip() {
        let mut t = SeriesTable::over_budget("test_fig", 2);
        t.push("COMET", vec![0.5, 0.6, 0.7]);
        t.push("RR", vec![0.5, 0.55, 0.6]);
        assert_eq!(t.get("RR"), Some(&[0.5, 0.55, 0.6][..]));
        assert_eq!(t.get("nope"), None);
        let text = t.render();
        assert!(text.contains("test_fig"));
        assert!(text.contains("COMET"));
        let csv = t.to_csv();
        assert!(csv.starts_with("budget,COMET,RR\n"));
        assert!(csv.contains("1,0.6,0.55"));
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn mismatched_series_rejected() {
        let mut t = SeriesTable::over_budget("x", 2);
        t.push("bad", vec![1.0]);
    }

    #[test]
    fn matrix_table_roundtrip() {
        let mut m = MatrixTable::new(
            "fig10",
            vec!["SVM".into(), "KNN".into()],
            vec!["MV".into(), "GN".into()],
        );
        m.set("SVM", "MV", 0.05);
        assert_eq!(m.get("SVM", "MV"), Some(0.05));
        assert_eq!(m.get("KNN", "GN"), None);
        let text = m.render();
        assert!(text.contains("fig10"));
        assert!(text.contains('-'), "missing cells render as dash");
        let csv = m.to_csv();
        assert!(csv.starts_with("row,MV,GN\n"));
        assert!(csv.contains("SVM,0.05,"));
    }

    #[test]
    fn emit_writes_csv() {
        let dir = std::env::temp_dir().join("comet_bench_report_test");
        let dir_str = dir.to_str().unwrap().to_string();
        let mut t = SeriesTable::over_budget("emit_test", 1);
        t.push("a", vec![1.0, 2.0]);
        t.emit(&dir_str).unwrap();
        let written = std::fs::read_to_string(dir.join("emit_test.csv")).unwrap();
        assert!(written.contains("budget,a"));
        std::fs::remove_dir_all(dir).ok();
    }
}
