//! Secondary hash indexes over table columns (`CREATE INDEX`): a
//! `key → row ids` mapping, maintained under inserts, deletes and cell
//! updates.

use std::collections::HashMap;

use crate::table::RowId;
use crate::value::Value;

/// A multi-map from key tuples (projections of rows onto the indexed
/// columns) to the row ids holding that key.
#[derive(Debug, Clone)]
pub struct HashIndex {
    table: String,
    columns: Vec<usize>,
    map: HashMap<Vec<Value>, Vec<RowId>>,
}

impl HashIndex {
    /// New empty index on `columns` of `table`.
    pub fn new(table: String, columns: Vec<usize>) -> HashIndex {
        HashIndex {
            table,
            columns,
            map: HashMap::new(),
        }
    }

    /// Name of the indexed table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Indexed column positions.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Extract this index's key from a full row.
    pub fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.columns.iter().map(|&c| row[c].clone()).collect()
    }

    /// Register `row` (full table row) under `id`.
    pub fn insert(&mut self, row: &[Value], id: RowId) {
        self.map.entry(self.key_of(row)).or_default().push(id);
    }

    /// Remove `id` previously registered with `row`'s key.
    pub fn remove(&mut self, row: &[Value], id: RowId) {
        let key = self.key_of(row);
        if let Some(ids) = self.map.get_mut(&key) {
            if let Some(pos) = ids.iter().position(|&x| x == id) {
                ids.swap_remove(pos);
            }
            if ids.is_empty() {
                self.map.remove(&key);
            }
        }
    }

    /// All row ids with exactly this key (empty slice if none).
    pub fn lookup(&self, key: &[Value]) -> &[RowId] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Iterate `(key, ids)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, &Vec<RowId>)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[&str]) -> Vec<Value> {
        vals.iter().map(|v| Value::str(*v)).collect()
    }

    #[test]
    fn insert_lookup_remove() {
        let mut ix = HashIndex::new("t".into(), vec![0, 2]);
        ix.insert(&row(&["uk", "x", "eh1"]), RowId(0));
        ix.insert(&row(&["uk", "y", "eh1"]), RowId(1));
        ix.insert(&row(&["us", "y", "ny"]), RowId(2));
        assert_eq!(ix.lookup(&[Value::str("uk"), Value::str("eh1")]).len(), 2);
        ix.remove(&row(&["uk", "x", "eh1"]), RowId(0));
        assert_eq!(
            ix.lookup(&[Value::str("uk"), Value::str("eh1")]),
            &[RowId(1)]
        );
        assert_eq!(ix.distinct_keys(), 2);
    }

    #[test]
    fn removing_last_id_drops_key() {
        let mut ix = HashIndex::new("t".into(), vec![0]);
        ix.insert(&row(&["a"]), RowId(7));
        ix.remove(&row(&["a"]), RowId(7));
        assert_eq!(ix.distinct_keys(), 0);
        assert!(ix.lookup(&[Value::str("a")]).is_empty());
    }

    #[test]
    fn null_keys_are_indexable() {
        let mut ix = HashIndex::new("t".into(), vec![0]);
        ix.insert(&[Value::Null], RowId(1));
        ix.insert(&[Value::Null], RowId(2));
        assert_eq!(ix.lookup(&[Value::Null]).len(), 2);
    }
}
