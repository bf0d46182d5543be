//! Dictionary-encoded columns, stored as fixed-size code chunks.
//!
//! A [`Column`] holds its `u32` codes as a list of **sealed** chunks (each
//! exactly `chunk_rows` long, immutable, behind `Arc`) plus one mutable
//! **tail** chunk. The chunked layout (polars' `ChunkedArray` is the
//! exemplar) buys two things at once:
//!
//! * **O(1) append** — pushing a value writes to the tail and seals it
//!   into an `Arc` when full; no copy-on-write unshare of the whole code
//!   vector, no matter how many snapshots still reference the column;
//! * **chunk-at-a-time scans** — the detector walks a column chunk by
//!   chunk, and a sealed chunk is the page [`crate::spill`] evicts, so a
//!   scan faults in at most one page per column at a time.
//!
//! Cloning a column bumps the sealed chunks' refcounts and memcpys only
//! the tail (< `chunk_rows` codes), so handed-out snapshots keep sharing
//! every sealed chunk with the live one for free.

use std::borrow::Cow;
use std::io;
use std::sync::{Arc, OnceLock};

use crate::dictionary::{Dictionary, NULL_CODE};
use crate::spill::{ChunkGuard, ChunkStore, PageHandle};
use minidb::Value;

/// Default rows per chunk when none is configured.
const DEFAULT_CHUNK_ROWS: usize = 4096;

/// The process-wide default chunk size: `SDQ_CHUNK_ROWS` when set to a
/// positive integer, 4096 otherwise. Read once — tests that need specific
/// chunk sizes pass them explicitly instead of racing on the environment.
pub fn default_chunk_rows() -> usize {
    static ROWS: OnceLock<usize> = OnceLock::new();
    *ROWS.get_or_init(|| obs::env::positive("SDQ_CHUNK_ROWS").unwrap_or(DEFAULT_CHUNK_ROWS))
}

/// One sealed (immutable, exactly `chunk_rows` long) chunk: resident in
/// memory, or spilled to a [`ChunkStore`] page. Clones share the `Arc`
/// either way, so a spilled chunk's page is freed only when the last
/// column clone referencing it drops.
#[derive(Debug, Clone)]
enum SealedChunk {
    Resident(Arc<Vec<u32>>),
    Spilled(Arc<PageHandle>),
}

impl SealedChunk {
    /// Read access: borrow resident codes, fault spilled ones back in.
    fn guard(&self) -> ChunkGuard<'_> {
        match self {
            SealedChunk::Resident(codes) => ChunkGuard::Borrowed(codes),
            SealedChunk::Spilled(handle) => ChunkGuard::Faulted(handle.fault()),
        }
    }
}

/// One dictionary-encoded column: sealed code chunks plus a mutable tail.
#[derive(Debug, Clone)]
pub struct Column {
    /// Immutable chunks of exactly `chunk_rows` codes each.
    sealed: Vec<SealedChunk>,
    /// The growing tail chunk, always shorter than `chunk_rows`.
    tail: Vec<u32>,
    dict: Arc<Dictionary>,
    chunk_rows: usize,
}

impl Column {
    /// Assemble from a contiguous code vector (used by tests and one-off
    /// constructions; the snapshot builder goes through [`ColumnBuilder`]).
    pub fn new(codes: Vec<u32>, dict: Dictionary) -> Column {
        Column::with_chunk_rows(codes, dict, default_chunk_rows())
    }

    /// [`Column::new`] with an explicit chunk size.
    pub fn with_chunk_rows(codes: Vec<u32>, dict: Dictionary, chunk_rows: usize) -> Column {
        assert!(chunk_rows >= 1, "chunk_rows must be positive");
        let mut col = Column {
            sealed: Vec::with_capacity(codes.len() / chunk_rows),
            tail: Vec::new(),
            dict: Arc::new(dict),
            chunk_rows,
        };
        let mut codes = codes;
        while codes.len() >= chunk_rows {
            let rest = codes.split_off(chunk_rows);
            col.sealed.push(SealedChunk::Resident(Arc::new(codes)));
            codes = rest;
        }
        col.tail = codes;
        col
    }

    /// The column dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.sealed.len() * self.chunk_rows + self.tail.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// Rows per sealed chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of chunks a scan visits (sealed chunks plus a non-empty tail).
    pub fn n_chunks(&self) -> usize {
        self.sealed.len() + usize::from(!self.tail.is_empty())
    }

    /// The codes of chunk `ci`, behind a guard: a plain borrow when the
    /// chunk is resident, a pool-backed fault-in when it is spilled. The
    /// guard derefs to `[u32]`. Chunk `ci` covers global positions
    /// `ci * chunk_rows ..`; every chunk except the last holds exactly
    /// `chunk_rows` codes.
    pub fn chunk(&self, ci: usize) -> ChunkGuard<'_> {
        if ci < self.sealed.len() {
            self.sealed[ci].guard()
        } else {
            ChunkGuard::Borrowed(&self.tail)
        }
    }

    /// All chunks in position order.
    pub fn chunks(&self) -> impl Iterator<Item = ChunkGuard<'_>> {
        (0..self.n_chunks()).map(|ci| self.chunk(ci))
    }

    /// The code at global position `pos`.
    #[inline]
    pub fn code_at(&self, pos: usize) -> u32 {
        self.chunk(pos / self.chunk_rows)[pos % self.chunk_rows]
    }

    /// The codes as one contiguous slice: borrowed when the column is a
    /// single resident chunk, materialized (one memcpy pass, faulting any
    /// spilled chunks) otherwise. For consumers that genuinely need flat
    /// positional access (partition refinement in discovery); scans should
    /// iterate [`Column::chunks`].
    pub fn contiguous(&self) -> Cow<'_, [u32]> {
        match (self.sealed.as_slice(), self.tail.is_empty()) {
            ([], _) => Cow::Borrowed(&self.tail),
            ([SealedChunk::Resident(only)], true) => Cow::Borrowed(only),
            _ => {
                let mut flat = Vec::with_capacity(self.len());
                for chunk in self.chunks() {
                    flat.extend_from_slice(&chunk);
                }
                Cow::Owned(flat)
            }
        }
    }

    // Spill operations ([`crate::spill`]). Only sealed chunks spill — the
    // tail is mutable and always shorter than one page.

    /// Evict sealed chunk `ci` to `store` if it is currently resident.
    /// Returns whether a spill happened (`false` for the tail index or an
    /// already-spilled chunk).
    pub fn spill_chunk(&mut self, ci: usize, store: &Arc<dyn ChunkStore>) -> io::Result<bool> {
        match self.sealed.get(ci) {
            Some(SealedChunk::Resident(codes)) => {
                let handle = PageHandle::spill(store, codes)?;
                self.sealed[ci] = SealedChunk::Spilled(Arc::new(handle));
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// True when sealed chunk `ci` is resident (the tail index counts as
    /// resident — it never spills).
    pub fn chunk_is_resident(&self, ci: usize) -> bool {
        !matches!(self.sealed.get(ci), Some(SealedChunk::Spilled(_)))
    }

    /// Number of currently spilled chunks.
    pub fn n_spilled(&self) -> usize {
        self.sealed
            .iter()
            .filter(|c| matches!(c, SealedChunk::Spilled(_)))
            .count()
    }

    /// Bytes of code storage currently held in memory (resident sealed
    /// chunks plus the tail). This is what a memory budget meters.
    pub fn resident_bytes(&self) -> usize {
        let sealed: usize = self
            .sealed
            .iter()
            .filter(|c| matches!(c, SealedChunk::Resident(_)))
            .count();
        (sealed * self.chunk_rows + self.tail.len()) * std::mem::size_of::<u32>()
    }

    /// Number of distinct non-NULL values.
    pub fn distinct(&self) -> usize {
        self.dict.len()
    }

    /// Decode the value at `pos` (owned; NULL materialized).
    pub fn value_at(&self, pos: usize) -> Value {
        self.dict.decode(self.code_at(pos))
    }

    /// True when the value at `pos` is NULL.
    pub fn is_null_at(&self, pos: usize) -> bool {
        self.code_at(pos) == NULL_CODE
    }

    /// Distinct non-NULL values with their live occurrence counts, in
    /// dictionary (first-interned) order. Counted over codes — one
    /// bounds-checked add per row, one decode per *distinct* value, no
    /// per-cell hashing — which is what lets the repair loop's
    /// active-domain pooling skip its former full row walk. Dictionary
    /// entries with no live row references (patched snapshots only grow
    /// their dictionaries) are omitted.
    pub fn value_counts(&self) -> Vec<(Value, u64)> {
        let mut counts = vec![0u64; self.dict.len() + 1];
        for chunk in self.chunks() {
            for &code in chunk.iter() {
                counts[code as usize] += 1;
            }
        }
        counts
            .iter()
            .enumerate()
            .skip(1) // NULL_CODE
            .filter(|(_, &n)| n > 0)
            .map(|(code, &n)| (self.dict.decode(code as u32), n))
            .collect()
    }

    // Patch operations (snapshot lifecycle). Copy-on-write where sharing
    // is possible: a sealed chunk still referenced by a handed-out
    // snapshot is cloned (one chunk's memcpy, never the whole column)
    // before an in-place edit; the tail is owned and edits in place.
    // Dictionaries only grow; codes of values no longer present simply go
    // unreferenced until the owning cache decides on a full rebuild.

    /// Overwrite the cell at `pos`, interning the new value.
    pub(crate) fn set_value(&mut self, pos: usize, v: &Value) {
        let code = Arc::make_mut(&mut self.dict).intern(v);
        self.set_code(pos, code);
    }

    fn set_code(&mut self, pos: usize, code: u32) {
        let ci = pos / self.chunk_rows;
        if ci < self.sealed.len() {
            let off = pos % self.chunk_rows;
            self.resident_mut(ci)[off] = code;
        } else {
            self.tail[pos - self.sealed.len() * self.chunk_rows] = code;
        }
    }

    /// Mutable access to sealed chunk `ci`, faulting a spilled chunk back
    /// to residency first (a patched chunk is hot by definition) and
    /// unsharing a still-shared resident one.
    fn resident_mut(&mut self, ci: usize) -> &mut Vec<u32> {
        if let SealedChunk::Spilled(handle) = &self.sealed[ci] {
            let codes = handle.fault();
            // The buffer pool usually holds another reference, so this is
            // a clone; the page itself is freed when the handle's last
            // owner (possibly a snapshot clone) drops.
            let owned = Arc::try_unwrap(codes).unwrap_or_else(|shared| (*shared).clone());
            self.sealed[ci] = SealedChunk::Resident(Arc::new(owned));
        }
        match &mut self.sealed[ci] {
            SealedChunk::Resident(codes) => Arc::make_mut(codes),
            SealedChunk::Spilled(_) => unreachable!("faulted to resident above"),
        }
    }

    /// Remove the cell at `pos` by swapping the last cell into its place.
    /// An empty tail first unseals the last chunk (the one place a whole
    /// chunk may be copied, and only if it is still shared or spilled).
    pub(crate) fn swap_remove(&mut self, pos: usize) {
        if self.tail.is_empty() {
            let last = self.sealed.pop().expect("swap_remove on empty column");
            self.tail = match last {
                SealedChunk::Resident(codes) => {
                    Arc::try_unwrap(codes).unwrap_or_else(|shared| (*shared).clone())
                }
                SealedChunk::Spilled(handle) => handle.fault().to_vec(),
            };
        }
        let code = self.tail.pop().expect("tail refilled above");
        if pos < self.len() {
            self.set_code(pos, code);
        }
    }

    /// Unshare the dictionary **once** and hand out an appender for a
    /// whole batch of pushes: the dictionary's copy-on-write check is paid
    /// here, not per cell.
    pub(crate) fn appender(&mut self, reserve: usize) -> ColumnAppender<'_> {
        let dict = Arc::make_mut(&mut self.dict);
        self.tail
            .reserve(reserve.min(self.chunk_rows - self.tail.len()));
        ColumnAppender {
            sealed: &mut self.sealed,
            tail: &mut self.tail,
            dict,
            chunk_rows: self.chunk_rows,
        }
    }
}

/// Batch append handle: the dictionary copy-on-write check was paid once
/// when the appender was created (see [`Column::appender`]).
pub(crate) struct ColumnAppender<'a> {
    sealed: &'a mut Vec<SealedChunk>,
    tail: &'a mut Vec<u32>,
    dict: &'a mut Dictionary,
    chunk_rows: usize,
}

impl ColumnAppender<'_> {
    /// Append one cell, sealing the tail into an immutable chunk when full.
    pub(crate) fn push(&mut self, v: &Value) {
        let code = self.dict.intern(v);
        self.tail.push(code);
        if self.tail.len() == self.chunk_rows {
            let full = std::mem::replace(self.tail, Vec::with_capacity(self.chunk_rows));
            self.sealed.push(SealedChunk::Resident(Arc::new(full)));
        }
    }
}

/// Incremental builder used while scanning a table once.
#[derive(Debug)]
pub struct ColumnBuilder {
    sealed: Vec<SealedChunk>,
    tail: Vec<u32>,
    dict: Dictionary,
    chunk_rows: usize,
}

impl Default for ColumnBuilder {
    fn default() -> ColumnBuilder {
        ColumnBuilder::with_capacity(0)
    }
}

impl ColumnBuilder {
    /// Builder with row-count capacity and the default chunk size.
    pub fn with_capacity(rows: usize) -> ColumnBuilder {
        ColumnBuilder::chunked(rows, default_chunk_rows())
    }

    /// Builder with an explicit chunk size (every chunk but the last holds
    /// exactly `chunk_rows` codes).
    pub fn chunked(rows: usize, chunk_rows: usize) -> ColumnBuilder {
        assert!(chunk_rows >= 1, "chunk_rows must be positive");
        ColumnBuilder {
            sealed: Vec::with_capacity(rows / chunk_rows),
            tail: Vec::with_capacity(rows.min(chunk_rows)),
            dict: Dictionary::new(),
            chunk_rows,
        }
    }

    /// Append one cell.
    pub fn push(&mut self, v: &Value) {
        let code = self.dict.intern(v);
        self.tail.push(code);
        if self.tail.len() == self.chunk_rows {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(self.chunk_rows));
            self.sealed.push(SealedChunk::Resident(Arc::new(full)));
        }
    }

    /// Freeze into an immutable [`Column`].
    pub fn finish(self) -> Column {
        Column {
            sealed: self.sealed,
            tail: self.tail,
            dict: Arc::new(self.dict),
            chunk_rows: self.chunk_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_decode_roundtrip() {
        let mut b = ColumnBuilder::with_capacity(4);
        for v in [
            Value::str("a"),
            Value::Null,
            Value::str("b"),
            Value::str("a"),
        ] {
            b.push(&v);
        }
        let c = b.finish();
        assert_eq!(c.len(), 4);
        assert_eq!(c.distinct(), 2);
        assert_eq!(c.contiguous().as_ref(), &[1, NULL_CODE, 2, 1]);
        assert_eq!(c.value_at(0), Value::str("a"));
        assert!(c.is_null_at(1));
        assert_eq!(c.value_at(3), Value::str("a"));
    }

    #[test]
    fn value_counts_skip_null_and_dead_dictionary_entries() {
        let mut b = ColumnBuilder::with_capacity(5);
        for v in [
            Value::str("a"),
            Value::Null,
            Value::str("b"),
            Value::str("a"),
            Value::str("a"),
        ] {
            b.push(&v);
        }
        let mut c = b.finish();
        assert_eq!(
            c.value_counts(),
            vec![(Value::str("a"), 3), (Value::str("b"), 1)]
        );
        // Overwrite the only 'b': its dictionary entry stays but must not
        // be reported with a zero count.
        c.set_value(2, &Value::str("a"));
        assert_eq!(c.value_counts(), vec![(Value::str("a"), 4)]);
    }

    #[test]
    fn chunk_layout_is_position_faithful() {
        // chunk_rows = 3 over 8 values: two sealed chunks + a 2-code tail.
        let mut b = ColumnBuilder::chunked(8, 3);
        for i in 0..8 {
            b.push(&Value::Int(i % 4));
        }
        let c = b.finish();
        assert_eq!(c.n_chunks(), 3);
        assert_eq!(c.chunk(0).len(), 3);
        assert_eq!(c.chunk(1).len(), 3);
        assert_eq!(c.chunk(2).len(), 2);
        for pos in 0..8 {
            assert_eq!(c.value_at(pos), Value::Int(pos as i64 % 4), "pos {pos}");
        }
        let flat: Vec<u32> = c.chunks().flat_map(|ch| ch.to_vec()).collect();
        assert_eq!(flat.as_slice(), c.contiguous().as_ref());
        assert_eq!(flat.len(), c.len());
    }

    #[test]
    fn appends_seal_chunks_without_unsharing_clones() {
        let mut b = ColumnBuilder::chunked(4, 2);
        for v in ["w", "x", "y", "z"] {
            b.push(&Value::str(v));
        }
        let mut c = b.finish();
        let before = c.clone();
        // Appends touch only the (empty) tail: the handed-out clone keeps
        // sharing both sealed chunks, no copy-on-write of existing codes.
        c.appender(1).push(&Value::str("new"));
        assert_eq!(c.len(), 5);
        assert_eq!(before.len(), 4, "clone unaffected");
        assert_eq!(
            c.chunk(0).as_ptr(),
            before.chunk(0).as_ptr(),
            "sealed chunks stay shared across the append"
        );
        assert_eq!(c.chunk(1).as_ptr(), before.chunk(1).as_ptr());
    }

    #[test]
    fn swap_remove_unseals_the_last_chunk() {
        let mut b = ColumnBuilder::chunked(4, 2);
        for v in ["a", "b", "c", "d"] {
            b.push(&Value::str(v));
        }
        let mut c = b.finish();
        assert_eq!(c.n_chunks(), 2);
        // Tail is empty: removing position 0 pops 'd' off the unsealed
        // last chunk and writes it over 'a'.
        c.swap_remove(0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value_at(0), Value::str("d"));
        assert_eq!(c.value_at(1), Value::str("b"));
        assert_eq!(c.value_at(2), Value::str("c"));
    }

    #[test]
    fn spilled_chunks_read_identically_and_patch_back_resident() {
        use crate::spill::MemChunkStore;

        let mut b = ColumnBuilder::chunked(7, 3);
        for i in 0..7 {
            b.push(&Value::Int(i));
        }
        let mut c = b.finish();
        let before: Vec<u32> = c.contiguous().into_owned();

        let mem = Arc::new(MemChunkStore::default());
        let store: Arc<dyn crate::spill::ChunkStore> = mem.clone();
        assert!(c.spill_chunk(0, &store).unwrap());
        assert!(c.spill_chunk(1, &store).unwrap());
        assert!(!c.spill_chunk(1, &store).unwrap(), "already spilled");
        assert!(!c.spill_chunk(2, &store).unwrap(), "tail never spills");
        assert_eq!(c.n_spilled(), 2);
        assert_eq!(mem.live_pages(), 2);
        assert_eq!(
            c.resident_bytes(),
            c.tail.len() * 4,
            "all sealed chunks out"
        );

        // Every read path faults transparently.
        assert_eq!(c.contiguous().into_owned(), before);
        for pos in 0..7 {
            assert_eq!(c.value_at(pos), Value::Int(pos as i64), "pos {pos}");
        }
        assert_eq!(c.chunk(1).as_slice(), &before[3..6]);

        // Patching a spilled chunk faults it back to residency; the page
        // is freed once no clone references it.
        c.set_value(4, &Value::Int(99));
        assert!(c.chunk_is_resident(1));
        assert_eq!(c.n_spilled(), 1);
        assert_eq!(mem.live_pages(), 1);
        assert_eq!(c.value_at(4), Value::Int(99));
        assert_eq!(c.value_at(3), Value::Int(3), "neighbors survive the patch");
    }

    #[test]
    fn clones_keep_spilled_pages_alive() {
        use crate::spill::MemChunkStore;

        let mut b = ColumnBuilder::chunked(4, 2);
        for i in 0..4 {
            b.push(&Value::Int(i));
        }
        let mut c = b.finish();
        let mem = Arc::new(MemChunkStore::default());
        let store: Arc<dyn crate::spill::ChunkStore> = mem.clone();
        c.spill_chunk(0, &store).unwrap();
        let snap = c.clone();
        // The original patches chunk 0 back to resident; the snapshot's
        // handle keeps the page alive and still reads the old value.
        c.set_value(0, &Value::Int(77));
        assert_eq!(mem.live_pages(), 1);
        assert_eq!(snap.value_at(0), Value::Int(0));
        assert_eq!(c.value_at(0), Value::Int(77));
        drop(snap);
        assert_eq!(mem.live_pages(), 0, "last handle drop frees the page");
    }

    #[test]
    fn swap_remove_unseals_a_spilled_last_chunk() {
        use crate::spill::MemChunkStore;

        let mut b = ColumnBuilder::chunked(4, 2);
        for v in ["a", "b", "c", "d"] {
            b.push(&Value::str(v));
        }
        let mut c = b.finish();
        let mem = Arc::new(MemChunkStore::default());
        let store: Arc<dyn crate::spill::ChunkStore> = mem.clone();
        c.spill_chunk(1, &store).unwrap();
        c.swap_remove(0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value_at(0), Value::str("d"));
        assert_eq!(c.value_at(2), Value::str("c"));
        assert_eq!(mem.live_pages(), 0, "unsealing released the page");
    }

    #[test]
    fn clones_share_storage() {
        let mut b = ColumnBuilder::chunked(2, 2);
        b.push(&Value::str("x"));
        b.push(&Value::str("y"));
        let c1 = b.finish();
        let c2 = c1.clone();
        assert_eq!(
            c1.chunk(0).as_ptr(),
            c2.chunk(0).as_ptr(),
            "sealed chunks are Arc-shared, not copied"
        );
    }
}
