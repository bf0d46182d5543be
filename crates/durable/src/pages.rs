//! The paged cold-chunk store: fixed-width pages in one spill file.
//!
//! Sealed column chunks are `chunk_rows` little-endian `u32` codes —
//! fixed width, so page `p` lives at byte offset `p * chunk_rows * 4`
//! and fault-in is one positioned read, no directory. Freed pages go on
//! a free list and are reused by later spills, so the file's footprint
//! tracks the *live* spilled set, not the spill history.
//!
//! There is no buffer pool: every fault-in reads its page from the file
//! (the OS page cache keeps hot pages) and hands back a fresh `Arc`,
//! which the reader's `ChunkGuard` owns alone. A patch that faults a
//! chunk back to residency therefore takes the codes without copying.
//!
//! Every page is checksummed: `store` computes the CRC-32 of the bytes it
//! writes and keeps it in memory (four bytes per page, indexed by page
//! id), and every fault-in checks the bytes it read against it. A
//! mismatch — a flipped bit on disk, a torn or foreign write — is an
//! `io::ErrorKind::InvalidData` error naming the page and its byte
//! offset, which `ChunkGuard::fault` turns into a named panic: a corrupt
//! page is never decoded into codes, so it can never become a wrong
//! violation report. The checksums live only as long as the store,
//! which is as long as the spill file means anything: it is truncated at
//! every `create`.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use colstore::ChunkStore;

use crate::crc::crc32;

struct PageObs {
    faults: Arc<obs::Counter>,
    writes: Arc<obs::Counter>,
}

fn page_obs() -> &'static PageObs {
    static OBS: OnceLock<PageObs> = OnceLock::new();
    OBS.get_or_init(|| PageObs {
        faults: obs::counter("spill_page_faults_total"),
        writes: obs::counter("spill_pages_written_total"),
    })
}

/// File and allocator state, under one lock (spills and faults are page
/// granular and rare relative to scans; the lock is not on the scan's
/// per-row path).
struct Inner {
    file: File,
    /// Pages ever allocated (high-water mark of the file).
    allocated: u64,
    /// Freed page ids available for reuse.
    free: Vec<u64>,
    /// CRC-32 of each page's stored bytes, indexed by page id.
    crcs: Vec<u32>,
}

/// Disk-backed [`ChunkStore`]: one spill file of fixed-width pages.
/// Construct with [`PagedStore::create`] and share the returned `Arc`
/// with every cache (and shard) that spills.
pub struct PagedStore {
    inner: Mutex<Inner>,
    /// Codes per page (the snapshots' `chunk_rows`).
    page_codes: usize,
}

impl PagedStore {
    /// Create (truncating) the spill file at `path`, with pages of
    /// `page_codes` codes. The page size must equal the chunk size of
    /// every snapshot spilling here. `_pool_pages` is ignored, and kept
    /// only because the benchmark harness still passes it.
    pub fn create(
        path: &Path,
        page_codes: usize,
        _pool_pages: usize,
    ) -> io::Result<Arc<PagedStore>> {
        assert!(page_codes >= 1, "page_codes must be positive");
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            .truncate(true)
            .open(path)?;
        Ok(Arc::new(PagedStore {
            inner: Mutex::new(Inner {
                file,
                allocated: 0,
                free: Vec::new(),
                crcs: Vec::new(),
            }),
            page_codes,
        }))
    }

    /// Codes per page.
    pub fn page_codes(&self) -> usize {
        self.page_codes
    }

    /// Live (allocated, not freed) pages.
    pub fn live_pages(&self) -> u64 {
        let inner = self.lock();
        inner.allocated - inner.free.len() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock means a writer panicked mid-I/O; the state is
        // still structurally sound (worst case a leaked page), so read on.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl std::fmt::Debug for PagedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedStore")
            .field("page_codes", &self.page_codes)
            .finish_non_exhaustive()
    }
}

impl ChunkStore for PagedStore {
    fn store(&self, codes: &[u32]) -> io::Result<u64> {
        assert!(
            codes.len() <= self.page_codes,
            "chunk of {} codes exceeds the {}-code page (mismatched chunk_rows?)",
            codes.len(),
            self.page_codes
        );
        let mut inner = self.lock();
        let page = inner.free.pop().unwrap_or_else(|| {
            inner.allocated += 1;
            inner.allocated - 1
        });
        let mut bytes = Vec::with_capacity(codes.len() * 4);
        for &c in codes {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        let offset = page * self.page_codes as u64 * 4;
        inner.file.seek(SeekFrom::Start(offset))?;
        inner.file.write_all(&bytes)?;
        let slot = page as usize;
        if slot >= inner.crcs.len() {
            inner.crcs.resize(slot + 1, 0);
        }
        inner.crcs[slot] = crc32(&bytes);
        page_obs().writes.inc();
        Ok(page)
    }

    fn load(&self, page: u64, len: usize) -> io::Result<Arc<Vec<u32>>> {
        let mut inner = self.lock();
        page_obs().faults.inc();
        let offset = page * self.page_codes as u64 * 4;
        inner.file.seek(SeekFrom::Start(offset))?;
        let mut bytes = vec![0u8; len * 4];
        inner.file.read_exact(&mut bytes)?;
        let (want, got) = (inner.crcs.get(page as usize).copied(), crc32(&bytes));
        if want != Some(got) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "spill page {page} at byte offset {offset}: checksum mismatch \
                     (stored {}, read {got:08x})",
                    want.map_or("none".to_string(), |c| format!("{c:08x}"))
                ),
            ));
        }
        let codes: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        Ok(Arc::new(codes))
    }

    fn free(&self, page: u64) {
        self.lock().free.push(page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(tag: &str, page_codes: usize) -> (Arc<PagedStore>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("sdq_pages_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        (
            PagedStore::create(&dir.join("spill.pages"), page_codes, 0).unwrap(),
            dir,
        )
    }

    /// Flip bit `bit` of byte `byte` of the spill file in `dir`.
    fn flip(dir: &Path, byte: u64, bit: u8) {
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join("spill.pages"))
            .unwrap();
        let mut b = [0u8];
        f.seek(SeekFrom::Start(byte)).unwrap();
        f.read_exact(&mut b).unwrap();
        b[0] ^= 1 << bit;
        f.seek(SeekFrom::Start(byte)).unwrap();
        f.write_all(&b).unwrap();
    }

    #[test]
    fn store_load_roundtrip_and_reuse() {
        let (s, dir) = store("roundtrip", 8);
        let a: Vec<u32> = (0..8).collect();
        let b: Vec<u32> = (100..108).collect();
        let pa = s.store(&a).unwrap();
        let pb = s.store(&b).unwrap();
        assert_eq!(s.live_pages(), 2);
        assert_eq!(s.load(pa, 8).unwrap().as_slice(), a.as_slice());
        assert_eq!(s.load(pb, 8).unwrap().as_slice(), b.as_slice());
        s.free(pa);
        assert_eq!(s.live_pages(), 1);
        let c: Vec<u32> = (7..15).collect();
        let pc = s.store(&c).unwrap();
        assert_eq!(pc, pa, "freed page id is reused");
        assert_eq!(s.load(pc, 8).unwrap().as_slice(), c.as_slice());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_flipped_bit_fails_the_fault_in() {
        let (s, dir) = store("crc", 4);
        let codes = [7u32, 0, 0xDEAD_BEEF, 42];
        // The page under test sits past page 0, at a nonzero offset.
        s.store(&[1, 2, 3, 4]).unwrap();
        let page = s.store(&codes).unwrap();
        let flip = |byte, bit| flip(&dir, byte, bit);
        let offset = page * 4 * 4;
        for byte in offset..offset + 16 {
            for bit in 0..8 {
                flip(byte, bit);
                let err = s.load(page, 4).expect_err("a flipped bit must not load");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{byte}:{bit}");
                let msg = err.to_string();
                assert!(
                    msg.contains(&format!("page {page} at byte offset {offset}")),
                    "names the page and its offset: {msg}"
                );
                flip(byte, bit);
            }
        }
        assert_eq!(s.load(page, 4).unwrap().as_slice(), &codes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_page_read_before_is_checked_again() {
        let (s, dir) = store("reread", 4);
        let page = s.store(&[5, 6, 7, 8]).unwrap();
        assert_eq!(s.load(page, 4).unwrap().as_slice(), &[5, 6, 7, 8]);
        flip(&dir, page * 4 * 4 + 1, 3);
        let err = s
            .load(page, 4)
            .expect_err("a page corrupted after its first read must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
