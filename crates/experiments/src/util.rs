//! Table rendering and CSV export helpers.

use std::io::Write as _;
use std::path::Path;

/// Renders rows as a GitHub-flavored markdown table. The first row is the
/// header.
#[must_use]
pub fn markdown_table(rows: &[Vec<String>]) -> String {
    let Some(header) = rows.first() else {
        return String::new();
    };
    let cols = header.len();
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        out.push('|');
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!(" {:w$} |", cell, w = widths[i]));
        }
        out.push('\n');
        if r == 0 {
            out.push('|');
            for w in &widths {
                out.push_str(&format!("{:-<w$}|", "", w = w + 2));
            }
            out.push('\n');
        }
    }
    out
}

/// Writes rows as CSV (no quoting needed: cells are numeric or simple
/// labels).
///
/// # Errors
///
/// Returns an I/O error if the file cannot be written.
pub fn write_csv(path: impl AsRef<Path>, rows: &[Vec<String>]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    for row in rows {
        writeln!(file, "{}", row.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders_header_rule() {
        let rows = vec![
            vec!["a".to_owned(), "bb".to_owned()],
            vec!["1".to_owned(), "2".to_owned()],
        ];
        let md = markdown_table(&rows);
        assert!(md.contains("| a "));
        assert!(md.lines().nth(1).unwrap().starts_with("|--"));
    }

    #[test]
    fn all_refdata_models_resolve() {
        use optimus::model::presets::by_name;
        for row in optimus::refdata::table1() {
            assert!(by_name(row.model).is_some(), "{}", row.model);
        }
        for row in optimus::refdata::table2() {
            assert!(by_name(row.model).is_some(), "{}", row.model);
        }
    }
}
