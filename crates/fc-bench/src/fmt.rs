//! Plain-text table formatting shared by the experiments.

/// Renders a table: header row + data rows, columns padded to content.
pub(crate) fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// A table header written as one line: its whitespace-separated
/// column names.
pub(crate) fn cols(names: &str) -> Vec<&str> {
    names.split_whitespace().collect()
}

/// Formats a fraction as a percentage with one decimal.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a fraction as a bare 3-decimal accuracy (paper style).
pub(crate) fn acc(x: f64) -> String {
    format!("{x:.3}")
}

/// A section banner.
pub(crate) fn banner(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].contains("long-name"));
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.825), "82.5%");
        assert_eq!(acc(0.8254), "0.825");
        assert!(banner("X").contains("=== X ==="));
    }
}
