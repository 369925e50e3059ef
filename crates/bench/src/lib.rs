//! Shared harness utilities for the per-table/per-figure benchmark
//! binaries: a tiny CLI parser, aligned-table printing, and CSV output.
//!
//! Every binary accepts `--n <points>`, `--queries <count>`, `--seed <u64>`
//! and `--out <dir>` (CSV destination, default `results/`), plus
//! binary-specific flags; `--full` bumps the scale toward (still laptop-
//! feasible) larger runs. Run e.g.:
//!
//! ```text
//! cargo run --release -p bench --bin fig4_messages -- --n 2000
//! ```

use std::collections::HashMap;
use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};

/// Minimal `--key value` / `--flag` argument parser.
#[derive(Debug, Clone)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Parse `std::env::args()`.
    pub fn parse() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Parse an explicit token stream (testable).
    pub fn from_tokens(tokens: impl IntoIterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let toks: Vec<String> = tokens.into_iter().collect();
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if let Some(key) = t.strip_prefix("--") {
                if i + 1 < toks.len() && !toks[i + 1].starts_with("--") {
                    values.insert(key.to_owned(), toks[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(key.to_owned());
                    i += 1;
                }
            } else {
                positional.push(t.clone());
                i += 1;
            }
        }
        Args {
            values,
            flags,
            positional,
        }
    }

    /// Typed lookup with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Typed lookup without a default: `None` when the key was not given.
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.values.get(key).and_then(|v| v.parse().ok())
    }

    /// Tokens not consumed as a flag or a flag's value, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Boolean flag presence.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Output directory for CSVs (`--out`, default `results/`).
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get::<String>("out", "results".into()))
    }
}

/// A printable/CSV-able table of rows.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (displayed values).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Render an aligned text table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        line(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<String>>(),
        );
        for row in &self.rows {
            line(row);
        }
    }

    /// Write as CSV into `dir/<name>.csv`.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        fs::write(&path, out)?;
        Ok(path)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Format seconds as fractional "virtual hours" the way the paper's
/// Figure 3 axis does.
pub fn hours(secs: f64) -> String {
    format!("{:.3}", secs / 3600.0)
}

/// Format a ratio as a percentage.
pub fn pct(num: f64, den: f64) -> String {
    if den == 0.0 {
        "n/a".into()
    } else {
        format!("{:.1}%", 100.0 * num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_tokens(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = args("--n 500 --full --seed 9");
        assert_eq!(a.get("n", 0usize), 500);
        assert_eq!(a.get("seed", 0u64), 9);
        assert!(a.flag("full"));
        assert!(!a.flag("missing"));
        assert_eq!(a.get("absent", 7i32), 7);
    }

    #[test]
    fn flag_at_end_without_value() {
        let a = args("--verbose");
        assert!(a.flag("verbose"));
    }

    #[test]
    fn positional_tokens_skip_flag_values() {
        let a = args("--threshold 0.1 --out deltas/ a.json b.json");
        assert_eq!(a.positional(), ["a.json", "b.json"]);
        assert_eq!(a.get("threshold", 0.0), 0.1);
        let a = args("a.json --threshold 0.1 b.json --full");
        assert_eq!(a.positional(), ["a.json", "b.json"]);
    }

    #[test]
    fn malformed_value_falls_back_to_default() {
        let a = args("--n abc");
        assert_eq!(a.get("n", 42usize), 42);
    }

    #[test]
    fn table_roundtrip_to_csv() {
        let dir = std::env::temp_dir().join(format!(
            "bench-table-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[&1, &"x"]);
        t.row(&[&2, &"y"]);
        assert_eq!(t.len(), 2);
        let path = t.write_csv(&dir, "demo").unwrap();
        let text = fs::read_to_string(path).unwrap();
        assert_eq!(text, "a,b\n1,x\n2,y\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_row_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(hours(3600.0), "1.000");
        assert_eq!(pct(1.0, 2.0), "50.0%");
        assert_eq!(pct(1.0, 0.0), "n/a");
    }
}
