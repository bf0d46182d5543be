//! Row storage with stable row ids.
//!
//! Rows live in an append-only arena; deletes leave tombstones so a `RowId`
//! handed out once stays valid for the lifetime of the table (it either
//! designates the same logical row or nothing). Stable ids are what lets the
//! error detector attribute violations to tuples and the repair engine edit
//! cells in place — mirroring how Semandaq keys violations by physical row.
//!
//! Every successful mutation bumps the table's **epoch**, a monotone
//! counter that derived structures (columnar snapshots, detector caches)
//! use for O(1) freshness checks: equal epochs mean the table content is
//! bit-identical to when the structure was built. The epoch is a property
//! of one table *lineage* — cloning copies the current value, so two
//! clones mutated independently can reach the same epoch with different
//! content; a cache must observe a single table instance.

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::value::Value;

/// Stable identifier of a row within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

impl RowId {
    /// The arena slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A heap table: schema + tombstoned row arena.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Option<Vec<Value>>>,
    live: usize,
    epoch: u64,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            live: 0,
            epoch: 0,
        }
    }

    /// The mutation epoch: bumped by every successful `insert`, `delete`,
    /// `update_cell` and `update_row`. Two reads of the same table instance
    /// returning the same epoch are guaranteed to have seen identical
    /// content (see the module docs for the clone caveat).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff there are no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of arena slots (live + tombstones); row ids are `< capacity`.
    pub fn arena_size(&self) -> usize {
        self.rows.len()
    }

    /// Insert a row (validated against the schema); returns its stable id.
    pub fn insert(&mut self, row: Vec<Value>) -> DbResult<RowId> {
        let row = self.schema.check_row(row)?;
        let id = RowId(self.rows.len() as u64);
        self.rows.push(Some(row));
        self.live += 1;
        self.epoch += 1;
        Ok(id)
    }

    /// Insert a row at a *chosen* arena slot, which must lie at or beyond
    /// the current arena end (slots skipped over become permanent
    /// tombstones). This is how a shard table of a partitioned cluster
    /// stores rows under their **global** row ids: every shard allocates
    /// from one shared, monotonically growing id space, so violation
    /// reports assembled across shards carry the same ids a single-node
    /// table would have assigned — no translation layer.
    pub fn insert_at(&mut self, id: RowId, row: Vec<Value>) -> DbResult<()> {
        let row = self.schema.check_row(row)?;
        if id.index() < self.rows.len() {
            // Reusing an existing slot — live or tombstoned — would break
            // row-id stability; ids move strictly forward.
            return Err(DbError::BadRowId(id.0));
        }
        self.rows.resize(id.index(), None);
        self.rows.push(Some(row));
        self.live += 1;
        self.epoch += 1;
        Ok(())
    }

    /// Advance the id allocator so the next [`Table::insert`] assigns
    /// `RowId(next)`, tombstoning the skipped slots. A `next` at or below
    /// the current arena end is a no-op — the allocator only moves
    /// forward. This is the restore-side twin of [`Table::insert_at`]: a
    /// checkpoint records where the allocator stood (which may be past
    /// the last live row, when the newest rows were deleted), and replay
    /// is only id-deterministic if the restored table resumes from the
    /// same position.
    pub fn reserve(&mut self, next: u64) {
        if next as usize > self.rows.len() {
            self.rows.resize(next as usize, None);
            self.epoch += 1;
        }
    }

    /// Insert a run of rows at chosen arena slots — the bulk form of
    /// [`Table::insert_at`]. Ids must be strictly ascending and lie at or
    /// beyond the current arena end. Every row is validated before any is
    /// written (a bad row fails the whole run with the table untouched);
    /// the arena is extended once; the epoch advances by one per row, so
    /// derived caches can replay the run with the usual per-mutation
    /// epoch arithmetic.
    pub fn insert_at_many(&mut self, rows: Vec<(RowId, Vec<Value>)>) -> DbResult<()> {
        let mut checked = Vec::with_capacity(rows.len());
        let mut next = self.rows.len();
        for (id, row) in rows {
            if id.index() < next {
                return Err(DbError::BadRowId(id.0));
            }
            next = id.index() + 1;
            checked.push((id, self.schema.check_row(row)?));
        }
        let Some(&(last, _)) = checked.last() else {
            return Ok(());
        };
        self.rows.resize(last.index() + 1, None);
        self.live += checked.len();
        self.epoch += checked.len() as u64;
        for (id, row) in checked {
            self.rows[id.index()] = Some(row);
        }
        Ok(())
    }

    /// Fetch a live row.
    pub fn get(&self, id: RowId) -> DbResult<&[Value]> {
        self.rows
            .get(id.index())
            .and_then(|r| r.as_deref())
            .ok_or(DbError::BadRowId(id.0))
    }

    /// Fetch a single cell of a live row.
    pub fn cell(&self, id: RowId, col: usize) -> DbResult<&Value> {
        let row = self.get(id)?;
        row.get(col)
            .ok_or_else(|| DbError::UnknownColumn(format!("column index {col}")))
    }

    /// Delete a live row; returns the removed values.
    pub fn delete(&mut self, id: RowId) -> DbResult<Vec<Value>> {
        let slot = self
            .rows
            .get_mut(id.index())
            .ok_or(DbError::BadRowId(id.0))?;
        let row = slot.take().ok_or(DbError::BadRowId(id.0))?;
        self.live -= 1;
        self.epoch += 1;
        Ok(row)
    }

    /// Overwrite one cell of a live row; returns the previous value.
    pub fn update_cell(&mut self, id: RowId, col: usize, value: Value) -> DbResult<Value> {
        let column = self
            .schema
            .columns()
            .get(col)
            .ok_or_else(|| DbError::UnknownColumn(format!("column index {col}")))?;
        if value.is_null() && !column.nullable {
            return Err(DbError::Constraint(format!(
                "NULL in NOT NULL column {}",
                column.name
            )));
        }
        let value = value.coerce(column.dtype)?;
        let slot = self
            .rows
            .get_mut(id.index())
            .ok_or(DbError::BadRowId(id.0))?;
        let row = slot.as_mut().ok_or(DbError::BadRowId(id.0))?;
        self.epoch += 1;
        Ok(std::mem::replace(&mut row[col], value))
    }

    /// Replace a whole live row; returns the previous values.
    pub fn update_row(&mut self, id: RowId, row: Vec<Value>) -> DbResult<Vec<Value>> {
        let row = self.schema.check_row(row)?;
        let slot = self
            .rows
            .get_mut(id.index())
            .ok_or(DbError::BadRowId(id.0))?;
        let old = slot.as_mut().ok_or(DbError::BadRowId(id.0))?;
        self.epoch += 1;
        Ok(std::mem::replace(old, row))
    }

    /// Iterate live rows as `(id, row)`.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_deref().map(|row| (RowId(i as u64), row)))
    }

    /// All live row ids, in arena order.
    pub fn row_ids(&self) -> Vec<RowId> {
        self.iter().map(|(id, _)| id).collect()
    }

    /// True iff `id` designates a live row.
    pub fn contains(&self, id: RowId) -> bool {
        self.rows.get(id.index()).is_some_and(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn t() -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Str),
        ])
        .unwrap();
        Table::new("t", schema)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = t();
        let id = t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::str("a"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn row_ids_stay_stable_across_deletes() {
        let mut t = t();
        let a = t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        let b = t.insert(vec![Value::Int(2), Value::str("b")]).unwrap();
        let c = t.insert(vec![Value::Int(3), Value::str("c")]).unwrap();
        t.delete(b).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.get(b).is_err());
        assert_eq!(t.get(a).unwrap()[0], Value::Int(1));
        assert_eq!(t.get(c).unwrap()[0], Value::Int(3));
        // New inserts never reuse a tombstoned id.
        let d = t.insert(vec![Value::Int(4), Value::str("d")]).unwrap();
        assert_ne!(d, b);
    }

    #[test]
    fn insert_at_skips_slots_and_rejects_reuse() {
        let mut t = t();
        t.insert_at(RowId(3), vec![Value::Int(1), Value::str("a")])
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.arena_size(), 4);
        assert_eq!(t.get(RowId(3)).unwrap()[0], Value::Int(1));
        assert_eq!(t.epoch(), 1);
        // Skipped slots are tombstones, invisible to iteration.
        assert_eq!(t.iter().count(), 1);
        assert!(t.get(RowId(1)).is_err());
        // Occupied and tombstoned slots both reject reuse; a failed
        // insert_at leaves the epoch untouched.
        assert!(t
            .insert_at(RowId(3), vec![Value::Int(2), Value::str("b")])
            .is_err());
        assert!(t
            .insert_at(RowId(1), vec![Value::Int(2), Value::str("b")])
            .is_err());
        assert_eq!(t.epoch(), 1);
        // Plain insert continues from the arena end.
        let id = t.insert(vec![Value::Int(2), Value::str("b")]).unwrap();
        assert_eq!(id, RowId(4));
        // Schema violations are rejected before any slot is claimed.
        assert!(t.insert_at(RowId(9), vec![Value::Int(3)]).is_err());
        assert_eq!(t.arena_size(), 5);
    }

    #[test]
    fn double_delete_fails() {
        let mut t = t();
        let a = t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        t.delete(a).unwrap();
        assert!(t.delete(a).is_err());
    }

    #[test]
    fn update_cell_enforces_type() {
        let mut t = t();
        let a = t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        assert!(t.update_cell(a, 0, Value::str("oops")).is_err());
        let old = t.update_cell(a, 1, Value::str("z")).unwrap();
        assert_eq!(old, Value::str("a"));
        assert_eq!(t.get(a).unwrap()[1], Value::str("z"));
    }

    #[test]
    fn update_cell_rejects_an_out_of_range_column() {
        let mut t = t();
        let a = t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        let epoch = t.epoch();
        assert_eq!(
            t.update_cell(a, 9, Value::str("z")),
            Err(DbError::UnknownColumn("column index 9".into()))
        );
        assert_eq!(t.epoch(), epoch, "a rejected write moves no epoch");
    }

    #[test]
    fn epoch_counts_successful_mutations_only() {
        let mut t = t();
        assert_eq!(t.epoch(), 0);
        let a = t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        assert_eq!(t.epoch(), 1);
        t.update_cell(a, 1, Value::str("b")).unwrap();
        assert_eq!(t.epoch(), 2);
        // Failed mutations leave the epoch untouched.
        assert!(t.update_cell(a, 0, Value::str("oops")).is_err());
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert!(t.delete(RowId(99)).is_err());
        assert_eq!(t.epoch(), 2);
        t.update_row(a, vec![Value::Int(2), Value::str("c")])
            .unwrap();
        assert_eq!(t.epoch(), 3);
        t.delete(a).unwrap();
        assert_eq!(t.epoch(), 4);
        assert!(t.delete(a).is_err(), "double delete fails");
        assert_eq!(t.epoch(), 4);
    }

    #[test]
    fn clones_carry_the_epoch_forward() {
        let mut t = t();
        t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        let c = t.clone();
        assert_eq!(c.epoch(), t.epoch());
        t.insert(vec![Value::Int(2), Value::str("b")]).unwrap();
        assert_eq!(c.epoch() + 1, t.epoch());
    }

    #[test]
    fn iter_skips_tombstones_in_order() {
        let mut t = t();
        let ids: Vec<_> = (0..5)
            .map(|i| t.insert(vec![Value::Int(i), Value::str("x")]).unwrap())
            .collect();
        t.delete(ids[1]).unwrap();
        t.delete(ids[3]).unwrap();
        let got: Vec<i64> = t.iter().map(|(_, r)| r[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![0, 2, 4]);
    }
}
