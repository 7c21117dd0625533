//! Result emitters: paper-style markdown tables on stdout and CSV files in
//! the driver's output directory.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple aligned markdown table builder for printing paper-style rows.
pub struct MarkdownTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        MarkdownTable {
            header: header.iter().map(std::string::ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row (must match the header width).
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render to a markdown string with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(std::string::String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {c:<w$} |");
            }
            s
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        let _ = ncol;
        out
    }

    /// Render as CSV (no alignment padding).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ =
            writeln!(out, "{}", self.header.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// Write a table's CSV rendering as `dir/name`, creating the directory.
pub fn write_csv(dir: &Path, name: &str, table: &MarkdownTable) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(name), table.to_csv())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = MarkdownTable::new(&["Model", "MAE"]);
        t.add_row(vec!["ST-HSL".into(), "0.7329".into()]);
        t.add_row(vec!["HA".into(), "1.1".into()]);
        let r = t.render();
        assert!(r.contains("| Model  | MAE    |"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = MarkdownTable::new(&["a", "b"]);
        t.add_row(vec!["x,y".into(), "q\"z".into()]);
        let c = t.to_csv();
        assert!(c.contains("\"x,y\""));
        assert!(c.contains("\"q\"\"z\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = MarkdownTable::new(&["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }
}
