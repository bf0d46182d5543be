//! Minimal RFC-4180-style CSV reader/writer (quoted fields, embedded
//! commas/newlines/quotes), plus typed table import/export.

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{DataType, Value};

/// Parse one CSV record from `input` starting at `*pos`; returns the fields
/// or `None` at end of input. Handles quoted fields with embedded newlines.
fn parse_record(input: &str, pos: &mut usize) -> DbResult<Option<Vec<String>>> {
    let bytes = input.as_bytes();
    if *pos >= bytes.len() {
        return Ok(None);
    }
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut i = *pos;
    loop {
        if i >= bytes.len() {
            if in_quotes {
                return Err(DbError::Csv("unterminated quoted field".into()));
            }
            fields.push(std::mem::take(&mut field));
            *pos = i;
            return Ok(Some(fields));
        }
        let c = bytes[i] as char;
        if in_quotes {
            match c {
                '"' => {
                    if bytes.get(i + 1) == Some(&b'"') {
                        field.push('"');
                        i += 2;
                    } else {
                        in_quotes = false;
                        i += 1;
                    }
                }
                _ => {
                    let ch = input[i..].chars().next().unwrap();
                    field.push(ch);
                    i += ch.len_utf8();
                }
            }
        } else {
            match c {
                '"' if field.is_empty() => {
                    in_quotes = true;
                    i += 1;
                }
                ',' => {
                    fields.push(std::mem::take(&mut field));
                    i += 1;
                }
                '\r' => {
                    if bytes.get(i + 1) == Some(&b'\n') {
                        i += 2;
                    } else {
                        i += 1;
                    }
                    fields.push(std::mem::take(&mut field));
                    *pos = i;
                    return Ok(Some(fields));
                }
                '\n' => {
                    i += 1;
                    fields.push(std::mem::take(&mut field));
                    *pos = i;
                    return Ok(Some(fields));
                }
                _ => {
                    let ch = input[i..].chars().next().unwrap();
                    field.push(ch);
                    i += ch.len_utf8();
                }
            }
        }
    }
}

/// Parse a whole CSV document into records.
pub fn parse_csv(input: &str) -> DbResult<Vec<Vec<String>>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while let Some(rec) = parse_record(input, &mut pos)? {
        // Skip completely empty trailing lines.
        if rec.len() == 1 && rec[0].is_empty() && pos >= input.len() {
            break;
        }
        out.push(rec);
    }
    Ok(out)
}

/// Quote a field if needed.
fn quote(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serialize records to CSV text.
pub fn to_csv<S: AsRef<str>>(records: &[Vec<S>]) -> String {
    let mut out = String::new();
    for rec in records {
        let mut first = true;
        for f in rec {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&quote(f.as_ref()));
        }
        out.push('\n');
    }
    out
}

/// Build a table named `name` from CSV text whose first record is the
/// header. Values are parsed according to `schema`; empty fields become
/// NULL for nullable columns and empty strings for TEXT NOT NULL.
pub fn table_from_csv(name: &str, schema: Schema, csv_text: &str) -> DbResult<Table> {
    let records = parse_csv(csv_text)?;
    let Some(header) = records.first() else {
        return Ok(Table::new(name.to_string(), schema));
    };
    if header.len() != schema.arity() {
        return Err(DbError::Csv(format!(
            "header has {} fields, schema has {}",
            header.len(),
            schema.arity()
        )));
    }
    let mut t = Table::new(name.to_string(), schema);
    for rec in &records[1..] {
        if rec.len() != t.schema().arity() {
            return Err(DbError::Csv(format!(
                "record has {} fields, expected {}",
                rec.len(),
                t.schema().arity()
            )));
        }
        let row: Vec<Value> = rec
            .iter()
            .zip(t.schema().columns().to_vec())
            .map(|(f, col)| parse_field(f, col.dtype, col.nullable))
            .collect::<DbResult<_>>()?;
        t.insert(row)?;
    }
    Ok(t)
}

fn parse_field(field: &str, dtype: DataType, nullable: bool) -> DbResult<Value> {
    if field.is_empty() {
        return Ok(if nullable {
            Value::Null
        } else {
            Value::str("")
        });
    }
    match dtype {
        DataType::Str => Ok(Value::str(field)),
        DataType::Int => field
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| DbError::Csv(format!("bad integer: {field}"))),
        DataType::Float => field
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| DbError::Csv(format!("bad float: {field}"))),
        DataType::Bool => match field.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Ok(Value::Bool(true)),
            "false" | "f" | "0" => Ok(Value::Bool(false)),
            _ => Err(DbError::Csv(format!("bad boolean: {field}"))),
        },
    }
}

/// Export a table as CSV text (header + rows).
pub fn table_to_csv(table: &Table) -> String {
    let mut records: Vec<Vec<String>> = Vec::with_capacity(table.len() + 1);
    records.push(
        table
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for (_, row) in table.iter() {
        records.push(row.iter().map(Value::render).collect());
    }
    to_csv(&records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    #[test]
    fn roundtrip_with_quoting() {
        let records = vec![
            vec!["a".to_string(), "b,c".to_string()],
            vec!["d\"e".to_string(), "f\ng".to_string()],
        ];
        let text = to_csv(&records);
        let parsed = parse_csv(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn crlf_records() {
        let parsed = parse_csv("a,b\r\nc,d\r\n").unwrap();
        assert_eq!(parsed, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn typed_table_import() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Str),
            Column::new("score", DataType::Float),
            Column::new("ok", DataType::Bool),
        ])
        .unwrap();
        let t = table_from_csv(
            "t",
            schema,
            "id,name,score,ok\n1,alice,3.5,true\n2,bob,,false\n",
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(crate::table::RowId(0)).unwrap()[2], Value::Float(3.5));
        assert!(t.get(crate::table::RowId(1)).unwrap()[2].is_null());
    }

    #[test]
    fn export_then_import_is_identity_for_strings() {
        let schema = Schema::of_strings(&["a", "b"]);
        let mut t = Table::new("t", schema.clone());
        t.insert(vec![Value::str("x,y"), Value::str("z")]).unwrap();
        t.insert(vec![Value::str("quote\"d"), Value::str("line\nbreak")])
            .unwrap();
        let text = table_to_csv(&t);
        let t2 = table_from_csv("t", schema, &text).unwrap();
        assert_eq!(t2.len(), 2);
        assert_eq!(
            t2.get(crate::table::RowId(1)).unwrap()[1],
            Value::str("line\nbreak")
        );
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let schema = Schema::of_strings(&["a", "b"]);
        assert!(table_from_csv("t", schema, "a,b\n1,2,3\n").is_err());
    }
}
