//! Plain-text table formatting shared by the `table1` .. `table4` binaries.
//!
//! The tables mirror the layout of the paper's Tables 1–4: a header row of
//! workload / processor-count columns and one row per phase (or per reuse
//! setting), values in modeled seconds.

use crate::experiment::PhaseTimes;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, header: Vec<String>) -> Self {
        TextTable {
            title: title.to_string(),
            header,
            rows: Vec::new(),
        }
    }

    /// Append a row (first cell is the row label).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Append a row of second-valued cells with a label.
    pub fn seconds_row(&mut self, label: &str, values: &[f64]) {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format_seconds(*v)));
        self.rows.push(cells);
    }

    /// Machine-readable twin of [`TextTable::render`]: the same title,
    /// header and rows as one JSON object, so harnesses can diff table
    /// contents without scraping the aligned text.
    pub fn to_json(&self) -> String {
        let value = serde_json::json!({
            "title": self.title.clone(),
            "header": self.header.clone(),
            "rows": self
                .rows
                .iter()
                .map(serde_json::ToValue::to_value)
                .collect::<Vec<_>>(),
        });
        serde_json::to_string(&value).unwrap_or_default()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        let render_row = |row: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}  "));
                } else {
                    line.push_str(&format!("{cell:>w$}  "));
                }
            }
            line.trim_end().to_string()
        };
        let header_line = render_row(&self.header, &widths);
        let sep = "-".repeat(header_line.len());
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&header_line);
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }
}

/// Format a modeled-seconds value the way the paper's tables do: one decimal
/// place above 10 s, two below, three below 0.1 s.
pub fn format_seconds(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else if v >= 0.1 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// The standard per-phase rows (Tables 2–4): returns `(label, value)` pairs
/// in the paper's order.
pub fn phase_rows(t: &PhaseTimes, include_graph_and_partitioner: bool) -> Vec<(&'static str, f64)> {
    let mut rows = Vec::new();
    if include_graph_and_partitioner {
        rows.push(("Graph Generation", t.graph_generation));
        rows.push(("Partitioner", t.partitioner));
    }
    rows.push(("Inspector", t.inspector));
    rows.push(("Remap", t.remap));
    rows.push(("Executor", t.executor));
    rows.push(("Total", t.total));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting_matches_paper_style() {
        assert_eq!(format_seconds(400.4), "400");
        assert_eq!(format_seconds(17.64), "17.6");
        assert_eq!(format_seconds(7.712), "7.71");
        assert_eq!(format_seconds(0.0123), "0.012");
        assert_eq!(format_seconds(f64::NAN), "-");
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new("Table X", vec!["".into(), "4".into(), "8".into()]);
        t.seconds_row("Executor", &[12.7, 7.0]);
        t.seconds_row("Total", &[17.6, 10.8]);
        let s = t.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("Executor"));
        assert!(s.contains("12.7"));
        let exec_line = s.lines().find(|l| l.contains("Executor")).unwrap();
        let total_line = s.lines().find(|l| l.contains("Total")).unwrap();
        assert_eq!(exec_line.find("12.7"), total_line.find("17.6"));
    }

    #[test]
    fn table_emits_json_twin() {
        let mut t = TextTable::new("Table X", vec!["".into(), "4".into()]);
        t.seconds_row("Executor", &[12.7]);
        let json = t.to_json();
        assert!(json.contains("\"title\":\"Table X\""));
        assert!(json.contains("\"Executor\""));
        assert!(json.contains("\"12.7\""));
    }

    #[test]
    fn phase_rows_follow_paper_order() {
        let t = PhaseTimes {
            graph_generation: 2.2,
            partitioner: 1.6,
            inspector: 4.3,
            remap: 1.5,
            executor: 13.0,
            total: 22.4,
            ..Default::default()
        };
        let rows = phase_rows(&t, true);
        assert_eq!(rows[0].0, "Graph Generation");
        assert_eq!(rows.last().unwrap().0, "Total");
        let rows = phase_rows(&t, false);
        assert_eq!(rows[0].0, "Inspector");
        assert_eq!(rows.len(), 4);
    }
}
