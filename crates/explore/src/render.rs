//! Plain-text table rendering shared by all explorer views.

/// Render an ASCII table with a header row and box-drawing-free framing.
pub fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let sep = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s.push('\n');
        s
    };
    let render_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            s.push_str(&format!(" {cell:<w$} |"));
        }
        s.push('\n');
        s
    };
    let mut out = String::new();
    out.push_str(&sep);
    out.push_str(&render_row(headers));
    out.push_str(&sep);
    for row in rows {
        out.push_str(&render_row(row));
    }
    out.push_str(&sep);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let s = render_table(
            &["name".into(), "city".into()],
            &[
                vec!["mike".into(), "EDI".into()],
                vec!["a-longer-name".into(), "L".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        // all lines same width
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{s}");
        assert!(s.contains("| name          | city |"), "{s}");
    }

    #[test]
    fn empty_rows_render_header_only() {
        let s = render_table(&["a".into()], &[]);
        assert_eq!(s.lines().count(), 3 + 1); // sep, header, sep, sep
    }

    #[test]
    fn short_rows_pad_missing_cells() {
        let s = render_table(&["a".into(), "b".into()], &[vec!["x".into()]]);
        assert!(s.contains("| x | "), "{s}");
    }
}
