//! A minimal CSV emitter.
//!
//! Every figure regenerator writes its data as CSV next to printing an
//! ASCII chart, so results can be re-plotted with any external tool.
//! Hand-rolled (rather than pulling in a csv crate) because the outputs
//! are simple numeric tables and the workspace keeps its dependency list
//! to the approved set.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// An in-memory CSV table with a fixed header.
#[derive(Debug, Clone)]
pub struct CsvTable {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given column names.
    pub fn new<S: Into<String>>(columns: impl IntoIterator<Item = S>) -> Self {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        assert!(!columns.is_empty(), "CSV table needs at least one column");
        CsvTable {
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row of cells; panics if the arity doesn't match the header.
    pub fn row<S: ToString>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity {} != header arity {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
        self
    }

    /// Appends a row of f64 cells formatted with 6 significant digits.
    pub fn row_f64(&mut self, cells: impl IntoIterator<Item = f64>) -> &mut Self {
        self.row(cells.into_iter().map(|v| format!("{v:.6}")))
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as a CSV string (RFC-4180 quoting for cells
    /// containing commas, quotes or newlines).
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\n']) {
                    let escaped = cell.replace('"', "\"\"");
                    let _ = write!(out, "\"{escaped}\"");
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.columns);
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Writes the CSV to `path`, creating parent directories as needed.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut t = CsvTable::new(["x", "y"]);
        t.row(["1", "2"]).row(["3", "4"]);
        assert_eq!(t.to_csv_string(), "x,y\n1,2\n3,4\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn quotes_special_cells() {
        let mut t = CsvTable::new(["name"]);
        t.row(["a,b"]).row(["say \"hi\""]).row(["two\nlines"]);
        let s = t.to_csv_string();
        assert!(s.contains("\"a,b\""));
        assert!(s.contains("\"say \"\"hi\"\"\""));
        assert!(s.contains("\"two\nlines\""));
    }

    #[test]
    fn row_f64_formats_numbers() {
        let mut t = CsvTable::new(["v", "w"]);
        t.row_f64([1.0, 0.5]);
        assert_eq!(t.to_csv_string(), "v,w\n1.000000,0.500000\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn rejects_mismatched_row() {
        CsvTable::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("elastic-hpc-csv-test");
        let path = dir.join("nested").join("out.csv");
        let mut t = CsvTable::new(["a"]);
        t.row(["1"]);
        t.write_to(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, "a\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
