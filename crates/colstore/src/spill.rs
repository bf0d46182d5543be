//! Cold-chunk spill: the seam between columns and a paged backing store.
//!
//! A sealed chunk is a fixed-width `Vec<u32>` — trivially seekable, which
//! is exactly what a paged spill file wants. This module defines the
//! *interface* ([`ChunkStore`]) and the ownership glue ([`PageHandle`],
//! [`ChunkGuard`]); the real disk-backed implementation lives in
//! `durable::PagedStore`, keeping colstore free of file-format concerns.
//! [`MemChunkStore`] is a heap-backed stand-in for tests.
//!
//! Ownership model: a spilled chunk inside a [`crate::Column`] is an
//! `Arc<PageHandle>`. Column clones (snapshots hand these out freely)
//! share the handle; the backing page is freed when the **last** clone
//! drops, so patching one clone back to resident never invalidates the
//! page another clone still reads. Faulting returns a fresh
//! `Arc<Vec<u32>>` that the reader owns, usually alone.

use std::io;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// A page-granular backing store for sealed code chunks.
///
/// Implementations must be cheap to share (`&self` methods, internal
/// locking) — one store serves every column of a snapshot, and in the
/// cluster one store serves every shard.
pub trait ChunkStore: std::fmt::Debug + Send + Sync {
    /// Write `codes` out and return the page id it now lives under.
    fn store(&self, codes: &[u32]) -> io::Result<u64>;

    /// Read the `len` codes of `page` back.
    fn load(&self, page: u64, len: usize) -> io::Result<Arc<Vec<u32>>>;

    /// Release `page` for reuse. Called from [`PageHandle`]'s `Drop`;
    /// must not fail (errors are swallowed by drop anyway).
    fn free(&self, page: u64);
}

/// Owned reference to one spilled chunk: which store, which page, how
/// many codes. Dropping the last clone of the owning `Arc` frees the
/// page back to the store.
pub struct PageHandle {
    store: Arc<dyn ChunkStore>,
    page: u64,
    len: usize,
}

impl PageHandle {
    /// Spill `codes` into `store`, returning the handle that now owns the
    /// page.
    pub fn spill(store: &Arc<dyn ChunkStore>, codes: &[u32]) -> io::Result<PageHandle> {
        let page = store.store(codes)?;
        Ok(PageHandle {
            store: Arc::clone(store),
            page,
            len: codes.len(),
        })
    }

    /// Number of codes behind this handle.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the spilled chunk holds no codes (never happens for
    /// sealed chunks, which are full by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fault the chunk back in.
    ///
    /// Panics on I/O failure: a column that cannot read its own codes has
    /// no degraded mode — scans would silently produce wrong answers. The
    /// spill file living under the WAL directory, losing it mid-run is in
    /// the same class as losing the heap.
    pub fn fault(&self) -> Arc<Vec<u32>> {
        self.store.load(self.page, self.len).unwrap_or_else(|e| {
            panic!(
                "spill fault-in failed for page {} ({} codes): {e} — \
                 the spill file is gone or corrupt; cannot continue",
                self.page, self.len
            )
        })
    }
}

impl Drop for PageHandle {
    fn drop(&mut self) {
        self.store.free(self.page);
    }
}

// Debug without recursing into the store (its file and allocator state
// say nothing about this one page).
impl std::fmt::Debug for PageHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageHandle")
            .field("page", &self.page)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// Access to one chunk's codes: a plain borrow for resident chunks, an
/// owned `Arc` for chunks faulted in from the store. Derefs to
/// `[u32]`, so `guard.len()`, `guard.iter()`, `guard[i]` and `&guard`
/// in `&[u32]` argument position all work unchanged.
pub enum ChunkGuard<'a> {
    /// The chunk is in memory; borrow it straight out of the column.
    Borrowed(&'a [u32]),
    /// The chunk was faulted in; the guard keeps it alive while read.
    Faulted(Arc<Vec<u32>>),
}

impl Deref for ChunkGuard<'_> {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        match self {
            ChunkGuard::Borrowed(s) => s,
            ChunkGuard::Faulted(a) => a,
        }
    }
}

impl ChunkGuard<'_> {
    /// The codes as a slice borrowed from the guard (for call sites that
    /// collect slices and must keep the guards alive alongside).
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        self
    }
}

impl std::fmt::Debug for ChunkGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChunkGuard({} codes)", self.len())
    }
}

/// Heap-backed [`ChunkStore`] for tests: pages are boxed vectors in a
/// mutex-held map. No eviction, no I/O — it exists so colstore and core
/// can exercise the spill lifecycle without depending on `durable`.
#[derive(Debug, Default)]
pub struct MemChunkStore {
    pages: Mutex<MemPages>,
}

#[derive(Debug, Default)]
struct MemPages {
    slots: Vec<Option<Arc<Vec<u32>>>>,
    free: Vec<u64>,
}

impl MemChunkStore {
    /// Fresh empty store, ready to share behind an `Arc`.
    pub fn shared() -> Arc<dyn ChunkStore> {
        Arc::new(MemChunkStore::default())
    }

    /// Number of live (stored, not yet freed) pages.
    pub fn live_pages(&self) -> usize {
        let p = self.pages.lock().unwrap();
        p.slots.iter().filter(|s| s.is_some()).count()
    }
}

impl ChunkStore for MemChunkStore {
    fn store(&self, codes: &[u32]) -> io::Result<u64> {
        let mut p = self.pages.lock().unwrap();
        let arc = Arc::new(codes.to_vec());
        match p.free.pop() {
            Some(page) => {
                p.slots[page as usize] = Some(arc);
                Ok(page)
            }
            None => {
                p.slots.push(Some(arc));
                Ok((p.slots.len() - 1) as u64)
            }
        }
    }

    fn load(&self, page: u64, len: usize) -> io::Result<Arc<Vec<u32>>> {
        let p = self.pages.lock().unwrap();
        let arc = p
            .slots
            .get(page as usize)
            .and_then(|s| s.clone())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("page {page} not stored"))
            })?;
        debug_assert_eq!(arc.len(), len, "page {page} length mismatch");
        Ok(arc)
    }

    fn free(&self, page: u64) {
        let mut p = self.pages.lock().unwrap();
        if let Some(slot) = p.slots.get_mut(page as usize) {
            *slot = None;
            p.free.push(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_frees_page_on_last_drop() {
        let mem = Arc::new(MemChunkStore::default());
        let store: Arc<dyn ChunkStore> = mem.clone();
        let codes: Vec<u32> = (0..64).collect();
        let h = Arc::new(PageHandle::spill(&store, &codes).unwrap());
        let h2 = Arc::clone(&h);
        assert_eq!(mem.live_pages(), 1);
        assert_eq!(h.fault().as_slice(), codes.as_slice());
        drop(h);
        // Second clone still reads fine — the page outlives the first drop.
        assert_eq!(h2.fault().as_slice(), codes.as_slice());
        assert_eq!(mem.live_pages(), 1);
        drop(h2);
        assert_eq!(mem.live_pages(), 0, "last drop frees the page");
        // Freed slot is recycled for the next spill.
        let h3 = PageHandle::spill(&store, &[7, 7]).unwrap();
        assert_eq!(h3.fault().as_slice(), &[7, 7]);
        assert_eq!(mem.live_pages(), 1);
    }

    #[test]
    fn guard_derefs_like_a_slice() {
        let borrowed: &[u32] = &[1, 2, 3];
        let g = ChunkGuard::Borrowed(borrowed);
        assert_eq!(g.len(), 3);
        assert_eq!(g[1], 2);
        assert_eq!(g.iter().sum::<u32>(), 6);
        let f = ChunkGuard::Faulted(Arc::new(vec![9, 9]));
        assert_eq!(f.as_slice(), &[9, 9]);
    }
}
