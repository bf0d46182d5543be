//! Immutable columnar snapshots of heap tables.
//!
//! [`Snapshot::of`] makes one pass over a [`Table`], dictionary-encoding
//! every column and recording the live-row id order; [`Snapshot::projected`]
//! encodes only a chosen column subset (the detector projects onto the
//! columns its CFD set mentions, skipping expensive high-cardinality
//! free-text columns entirely). The snapshot is the unit of reuse: encode
//! once, then evaluate an arbitrary number of CFDs (or build partitions, or
//! export the cluster's per-group partials) against the same code columns. Cloning a
//! snapshot is cheap — row ids and sealed code chunks are `Arc`-shared.
//!
//! Every encoded column shares one snapshot-wide chunk size
//! ([`Snapshot::chunk_rows`]), so chunk `ci` covers the same global row
//! positions in every column — the alignment the detector scans by, one
//! chunk of every column it reads at a time.

use std::sync::Arc;

use minidb::{RowId, Schema, Table, Value};

use crate::column::{default_chunk_rows, Column, ColumnAppender, ColumnBuilder};

/// Below this row count the per-column encode stays on the caller's
/// thread: the spawn overhead outweighs the win.
const PARALLEL_ROWS: usize = 8_192;

/// A columnar, dictionary-encoded, immutable copy of a table's live rows.
#[derive(Debug, Clone)]
pub struct Snapshot {
    name: String,
    schema: Schema,
    row_ids: Arc<Vec<RowId>>,
    /// One slot per schema column; `None` for columns outside the
    /// projection of [`Snapshot::projected`].
    columns: Vec<Option<Column>>,
    /// Rows per code chunk, shared by every encoded column.
    chunk_rows: usize,
}

impl Snapshot {
    /// Encode all live rows of `table`, all columns, in iteration (arena)
    /// order.
    pub fn of(table: &Table) -> Snapshot {
        let all: Vec<usize> = (0..table.schema().arity()).collect();
        Snapshot::projected(table, &all)
    }

    /// Encode only the columns in `cols` (deduplicated; order irrelevant),
    /// with the process-default chunk size. Accessing a column outside the
    /// projection panics — project onto exactly what the consumer
    /// evaluates.
    pub fn projected(table: &Table, cols: &[usize]) -> Snapshot {
        Snapshot::projected_with_chunk(table, cols, default_chunk_rows())
    }

    /// [`Snapshot::projected`] with an explicit chunk size — the knob the
    /// chunk-equivalence property tests and benchmarks turn.
    ///
    /// Columns encode independently, so large tables fan the per-column
    /// interning passes across scoped threads.
    pub fn projected_with_chunk(table: &Table, cols: &[usize], chunk_rows: usize) -> Snapshot {
        // Every full encode in the workspace funnels through here — the
        // cache's rebuild path, but also the "hidden" ones that bypass any
        // `SnapshotCache` (one-shot `detect_columnar`, detector seeding,
        // per-shard reference scans) — so the global telemetry counter
        // lives at the funnel, not at the cache.
        obs::counter("colstore_snapshot_encodes_total").inc();
        let _span = obs::span("colstore_snapshot_encode_ns");

        let arity = table.schema().arity();
        let rows = table.len();
        let mut wanted = vec![false; arity];
        for &c in cols {
            if c < arity {
                wanted[c] = true;
            }
        }
        let mut columns: Vec<Option<Column>> = vec![None; arity];
        let targets: Vec<usize> = (0..arity).filter(|&c| wanted[c]).collect();
        let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
        let row_ids: Vec<RowId>;
        if rows >= PARALLEL_ROWS && targets.len() > 1 && parallelism > 1 {
            // Multicore: one interning thread per column (each pays its own
            // walk over the row arena, amortized by the parallelism).
            row_ids = table.iter().map(|(id, _)| id).collect();
            let encode_one = |c: usize| {
                let mut b = ColumnBuilder::chunked(rows, chunk_rows);
                for (_, row) in table.iter() {
                    b.push(&row[c]);
                }
                b.finish()
            };
            let encoded = std::thread::scope(|s| {
                let handles: Vec<_> = targets
                    .iter()
                    .map(|&c| s.spawn(move || (c, encode_one(c))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("column encoder does not panic"))
                    .collect::<Vec<(usize, Column)>>()
            });
            for (c, col) in encoded {
                columns[c] = Some(col);
            }
        } else {
            // Serial: a single interleaved walk — every row is dereferenced
            // once, not once per column.
            let mut ids = Vec::with_capacity(rows);
            let mut builders: Vec<(usize, ColumnBuilder)> = targets
                .iter()
                .map(|&c| (c, ColumnBuilder::chunked(rows, chunk_rows)))
                .collect();
            for (id, row) in table.iter() {
                ids.push(id);
                for (c, b) in builders.iter_mut() {
                    b.push(&row[*c]);
                }
            }
            row_ids = ids;
            for (c, b) in builders {
                columns[c] = Some(b.finish());
            }
        }
        Snapshot {
            name: table.name().to_string(),
            schema: table.schema().clone(),
            row_ids: Arc::new(row_ids),
            columns,
            chunk_rows,
        }
    }

    /// Name of the source table.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema of the source table.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of encoded rows.
    pub fn n_rows(&self) -> usize {
        self.row_ids.len()
    }

    /// True when the snapshot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// Rows per code chunk (shared by every encoded column).
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of code chunks each encoded column holds.
    pub fn n_chunks(&self) -> usize {
        self.n_rows().div_ceil(self.chunk_rows)
    }

    /// One column by schema position. Panics if `idx` was projected away.
    pub fn column(&self, idx: usize) -> &Column {
        self.columns[idx]
            .as_ref()
            .expect("column was projected away; encode it via Snapshot::of or projected()")
    }

    /// True when column `idx` was encoded.
    pub fn has_column(&self, idx: usize) -> bool {
        self.columns.get(idx).is_some_and(Option::is_some)
    }

    /// The encoded columns with their schema positions.
    pub fn encoded_columns(&self) -> impl Iterator<Item = (usize, &Column)> {
        self.columns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i, c)))
    }

    /// The stable row id at snapshot position `pos`.
    pub fn row_id(&self, pos: usize) -> RowId {
        self.row_ids[pos]
    }

    // Patch operations, used by `lifecycle::SnapshotCache` to keep a cached
    // snapshot in lock-step with small table deltas instead of re-encoding.
    // Appends are O(1) tail-chunk pushes (sealed chunks stay shared with
    // snapshots already handed out); cell edits copy at most the one
    // touched chunk; only the shared row-id vector still pays a full
    // copy-on-write clone on the first patch.

    /// Append a run of encoded rows in one pass; columns outside the
    /// projection stay absent. Each encoded column unshares its dictionary
    /// and reserves **once** for the whole run ([`Column::appender`]); the
    /// rows themselves are walked in a single interleaved pass (row-major,
    /// like the serial encoder: every row is dereferenced once, not once
    /// per column).
    pub(crate) fn append_rows(&mut self, rows: &[(RowId, &[Value])]) {
        let ids = Arc::make_mut(&mut self.row_ids);
        ids.reserve(rows.len());
        ids.extend(rows.iter().map(|(id, _)| *id));
        let mut cols: Vec<(usize, ColumnAppender<'_>)> = self
            .columns
            .iter_mut()
            .enumerate()
            .filter_map(|(i, c)| c.as_mut().map(|c| (i, c.appender(rows.len()))))
            .collect();
        for (_, row) in rows {
            for (i, appender) in cols.iter_mut() {
                appender.push(&row[*i]);
            }
        }
    }

    /// Remove the row at snapshot position `pos` by swapping the last row
    /// into its place; returns the row id that now occupies `pos` (if any).
    /// Detection is row-order-insensitive after `normalized()`, which is
    /// what makes swap-remove — O(columns), no shifting — safe here.
    pub(crate) fn swap_remove_row(&mut self, pos: usize) -> Option<RowId> {
        let ids = Arc::make_mut(&mut self.row_ids);
        ids.swap_remove(pos);
        for col in self.columns.iter_mut().flatten() {
            col.swap_remove(pos);
        }
        ids.get(pos).copied()
    }

    /// Re-encode one cell in place, interning a novel value into the
    /// column's existing dictionary (no-op for columns outside the
    /// projection — they are not represented, so there is nothing stale).
    pub(crate) fn set_cell(&mut self, pos: usize, col: usize, v: &Value) {
        if let Some(c) = self.columns.get_mut(col).and_then(Option::as_mut) {
            c.set_value(pos, v);
        }
    }

    /// All row ids in snapshot order.
    pub fn row_ids(&self) -> &[RowId] {
        &self.row_ids
    }

    // Spill operations ([`crate::spill`]): evict cold sealed chunks to a
    // page store until the resident code bytes fit a memory budget.

    /// Bytes of code storage currently resident across every encoded
    /// column (spilled chunks excluded). Dictionaries and row ids are not
    /// counted — the budget meters the part that scales with row count
    /// and can actually be evicted.
    pub fn resident_bytes(&self) -> usize {
        self.encoded_columns()
            .map(|(_, c)| c.resident_bytes())
            .sum()
    }

    /// Evict sealed chunks to `store` until [`Snapshot::resident_bytes`]
    /// is at or below `budget` bytes (or nothing sealed is left to
    /// evict — tails never spill). Eviction is oldest-chunk-first across
    /// all encoded columns: chunk index `ci` of *every* column goes out
    /// before `ci + 1` of any, so a scan reading chunk `ci` faults at
    /// most one page per column it reads. Returns the number of chunks
    /// spilled.
    pub fn spill_to_budget(
        &mut self,
        store: &Arc<dyn crate::spill::ChunkStore>,
        budget: usize,
    ) -> std::io::Result<usize> {
        let mut resident = self.resident_bytes();
        if resident <= budget {
            return Ok(0);
        }
        let mut spilled = 0usize;
        let n_sealed = self.n_rows() / self.chunk_rows;
        'evict: for ci in 0..n_sealed {
            for col in self.columns.iter_mut().flatten() {
                if col.spill_chunk(ci, store)? {
                    spilled += 1;
                    resident = resident.saturating_sub(self.chunk_rows * 4);
                    if resident <= budget {
                        break 'evict;
                    }
                }
            }
        }
        Ok(spilled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{Schema, Value};

    fn table() -> Table {
        let mut t = Table::new("r", Schema::of_strings(&["A", "B"]));
        t.insert(vec![Value::str("x"), Value::str("p")]).unwrap();
        t.insert(vec![Value::str("y"), Value::Null]).unwrap();
        t.insert(vec![Value::str("x"), Value::str("q")]).unwrap();
        t
    }

    #[test]
    fn snapshot_mirrors_live_rows() {
        let mut t = table();
        let victim = t.row_ids()[1];
        t.delete(victim).unwrap();
        let s = Snapshot::of(&t);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row_ids(), &[RowId(0), RowId(2)]);
        assert_eq!(
            s.column(0).contiguous().as_ref(),
            &[1, 1],
            "x interned once"
        );
        assert_eq!(s.column(1).contiguous().as_ref(), &[1, 2]);
        assert_eq!(s.schema().arity(), 2);
    }

    #[test]
    fn snapshot_is_immutable_under_table_mutation() {
        let mut t = table();
        let s = Snapshot::of(&t);
        t.insert(vec![Value::str("z"), Value::str("r")]).unwrap();
        assert_eq!(s.n_rows(), 3, "snapshot must not see later inserts");
    }

    #[test]
    fn empty_table_snapshot() {
        let t = Table::new("e", Schema::of_strings(&["A"]));
        let s = Snapshot::of(&t);
        assert!(s.is_empty());
        assert_eq!(s.column(0).len(), 0);
        assert_eq!(s.n_chunks(), 0);
    }

    #[test]
    fn projection_encodes_only_requested_columns() {
        let t = table();
        let s = Snapshot::projected(&t, &[1]);
        assert!(!s.has_column(0));
        assert!(s.has_column(1));
        assert_eq!(s.column(1).contiguous().as_ref(), &[1, 0, 2]);
        assert_eq!(s.encoded_columns().count(), 1);
    }

    #[test]
    fn explicit_chunk_size_aligns_every_column() {
        let t = table();
        let s = Snapshot::projected_with_chunk(&t, &[0, 1], 2);
        assert_eq!(s.chunk_rows(), 2);
        assert_eq!(s.n_chunks(), 2, "3 rows at 2 per chunk");
        for c in 0..2 {
            assert_eq!(s.column(c).n_chunks(), 2);
            assert_eq!(s.column(c).chunk(0).len(), 2);
            assert_eq!(s.column(c).chunk(1).len(), 1);
        }
    }

    #[test]
    fn per_column_encode_matches_the_serial_walk() {
        // Large enough, and with more than one projected column, to take
        // the per-column threads on a multicore machine.
        let rows = PARALLEL_ROWS + 1_000;
        let mut t = Table::new("big", Schema::of_strings(&["A", "B", "C"]));
        for i in 0..rows {
            let b = if i % 7 == 0 {
                Value::Null
            } else {
                Value::str(format!("b{}", i % 131))
            };
            t.insert(vec![
                Value::str(format!("a{}", i % 17)),
                b,
                Value::str(format!("c{i}")),
            ])
            .unwrap();
        }
        let victim = t.row_ids()[3];
        t.delete(victim).unwrap();
        let chunk_rows = 1_024;
        let s = Snapshot::projected_with_chunk(&t, &[0, 1], chunk_rows);
        assert!(!s.has_column(2));
        for c in [0, 1] {
            let mut b = ColumnBuilder::chunked(s.n_rows(), chunk_rows);
            for &id in s.row_ids() {
                b.push(&t.get(id).unwrap()[c]);
            }
            let serial = b.finish();
            let got = s.column(c);
            assert_eq!(got.contiguous(), serial.contiguous(), "column {c} codes");
            let (d, want) = (got.dictionary(), serial.dictionary());
            assert_eq!(d.len(), want.len(), "column {c} dictionary size");
            for code in 0..d.len() as u32 {
                assert_eq!(
                    d.value_of(code),
                    want.value_of(code),
                    "column {c} code {code}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "projected away")]
    fn accessing_projected_away_column_panics() {
        let t = table();
        let s = Snapshot::projected(&t, &[1]);
        let _ = s.column(0);
    }
}
