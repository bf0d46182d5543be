//! Table schemas: ordered, typed, named columns.

use crate::error::{DbError, DbResult};
use crate::value::{DataType, Value};

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (matched case-insensitively).
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// Whether NULL is admissible.
    pub nullable: bool,
}

impl Column {
    /// A nullable column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Column {
        Column {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }

    /// A NOT NULL column.
    pub fn not_null(name: impl Into<String>, dtype: DataType) -> Column {
        Column {
            name: name.into(),
            dtype,
            nullable: false,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema; column names must be distinct (case-insensitively).
    pub fn new(columns: Vec<Column>) -> DbResult<Schema> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i]
                .iter()
                .any(|p| p.name.eq_ignore_ascii_case(&c.name))
            {
                return Err(DbError::Constraint(format!(
                    "duplicate column name: {}",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// Shorthand: all-`Str`, nullable columns with the given names.
    pub fn of_strings(names: &[&str]) -> Schema {
        Schema::new(
            names
                .iter()
                .map(|n| Column::new(*n, DataType::Str))
                .collect(),
        )
        .expect("string schema with distinct names")
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at position `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Index of column `name` (case-insensitive).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Index of column `name`, or an `UnknownColumn` error.
    pub fn require(&self, name: &str) -> DbResult<usize> {
        self.index_of(name)
            .ok_or_else(|| DbError::UnknownColumn(name.to_string()))
    }

    /// Column names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Validate and coerce a row against this schema. Coercion happens in
    /// place — the common all-types-match row is validated without
    /// reallocating (this sits on every insert of every ingest path).
    pub fn check_row(&self, mut row: Vec<Value>) -> DbResult<Vec<Value>> {
        if row.len() != self.arity() {
            return Err(DbError::Constraint(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.arity()
            )));
        }
        for (v, c) in row.iter_mut().zip(&self.columns) {
            if v.is_null() && !c.nullable {
                return Err(DbError::Constraint(format!(
                    "NULL in NOT NULL column {}",
                    c.name
                )));
            }
            if v.data_type().is_none_or(|t| t == c.dtype) {
                continue;
            }
            *v = std::mem::replace(v, Value::Null).coerce(c.dtype)?;
        }
        Ok(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicate_names_case_insensitively() {
        let r = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("A", DataType::Str),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn index_lookup_is_case_insensitive() {
        let s = Schema::of_strings(&["Name", "City"]);
        assert_eq!(s.index_of("name"), Some(0));
        assert_eq!(s.index_of("CITY"), Some(1));
        assert_eq!(s.index_of("zip"), None);
    }

    #[test]
    fn check_row_enforces_arity_type_and_nullability() {
        let s = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Str),
        ])
        .unwrap();
        assert!(s.check_row(vec![Value::Int(1)]).is_err());
        assert!(s.check_row(vec![Value::Null, Value::str("x")]).is_err());
        assert!(s.check_row(vec![Value::str("1"), Value::str("x")]).is_err());
        let ok = s.check_row(vec![Value::Int(1), Value::Null]).unwrap();
        assert_eq!(ok, vec![Value::Int(1), Value::Null]);
    }
}
