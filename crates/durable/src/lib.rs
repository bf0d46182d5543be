//! Durability tier: mutation write-ahead log + paged cold-chunk spill.
//!
//! The paper's system is presented as an in-memory engine; this crate
//! adds the two pieces that let it survive a process crash and a table
//! larger than memory, without touching the detection core:
//!
//! * **WAL** ([`wal`], [`backend`]) — every mutating request is appended
//!   to a CRC-framed, newline-delimited log *in its wire encoding* before
//!   the backend applies it. The frame format is
//!   `<len>:<crc32 hex>:<payload>\n`; recovery replays the longest valid
//!   prefix and truncates a torn tail. [`Durable`] is the
//!   `QualityBackend` wrapper that does the logging, replay and
//!   checkpointing.
//! * **Spill** ([`pages`]) — sealed dictionary-code chunks evict from the
//!   snapshot cache to a paged file ([`PagedStore`], a
//!   `colstore::ChunkStore`), fronted by a small clock-eviction buffer
//!   pool. The chunk-at-a-time detect scan faults pages back, so a
//!   scan runs in `O(memory budget)` residency instead of `O(table)`.
//!
//! Reusing the wire encoding as the log format means the WAL inherits the
//! codec's pinned round-trip guarantees (embedded newlines, control
//! characters, non-finite floats — see the codec audit tests in `api`)
//! and stays greppable with stock tools.

pub mod backend;
pub mod crc;
pub mod pages;
pub mod wal;

pub use backend::{wal_file, Durable, RecoveryStats, CHECKPOINT_FILE, SPILL_FILE, WAL_FILE};
pub use crc::crc32;
pub use pages::PagedStore;
pub use wal::{Wal, WalScan, WalTail};

#[cfg(test)]
mod tests {
    use super::*;
    use api::{Capabilities, Mutation, MutationBatch, QualityBackend, Request};
    use cfd::{CfdError, CfdResult};
    use minidb::{RowId, Value};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sdq_durable_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A minimal deterministic backend: rows in a slot vector (ids are
    /// slot indices, like the real engines), plus checkpoint support.
    #[derive(Default, Debug)]
    struct Toy {
        rows: Vec<Option<Vec<Value>>>,
        rules: usize,
    }

    impl QualityBackend for Toy {
        fn capabilities(&self) -> Capabilities {
            Capabilities {
                backend: "toy".into(),
                repair: false,
                streaming: false,
                shards: 1,
                metrics: true,
                trace: true,
            }
        }
        fn register_cfds(&mut self, text: &str) -> CfdResult<usize> {
            self.rules = text.lines().filter(|l| !l.trim().is_empty()).count();
            Ok(self.rules)
        }
        fn insert(&mut self, row: Vec<Value>) -> CfdResult<RowId> {
            self.rows.push(Some(row));
            Ok(RowId(self.rows.len() as u64 - 1))
        }
        fn delete(&mut self, row: RowId) -> CfdResult<Vec<Value>> {
            self.rows
                .get_mut(row.index())
                .and_then(Option::take)
                .ok_or_else(|| CfdError::Malformed(format!("no row {row:?}")))
        }
        fn update_cell(&mut self, row: RowId, col: usize, value: Value) -> CfdResult<Value> {
            let r = self
                .rows
                .get_mut(row.index())
                .and_then(Option::as_mut)
                .ok_or_else(|| CfdError::Malformed(format!("no row {row:?}")))?;
            let slot = r
                .get_mut(col)
                .ok_or_else(|| CfdError::Malformed(format!("no col {col}")))?;
            Ok(std::mem::replace(slot, value))
        }
        fn detect(&mut self) -> CfdResult<detect::ViolationReport> {
            Ok(detect::ViolationReport::default())
        }
        fn audit(&mut self) -> CfdResult<audit::QualityReport> {
            Err(CfdError::Unsupported("toy".into()))
        }
        fn last_report(&self) -> Option<detect::ViolationReport> {
            None
        }
        fn len(&self) -> usize {
            self.rows.iter().flatten().count()
        }
        fn export_rows(&self) -> CfdResult<Vec<(RowId, Vec<Value>)>> {
            Ok(self
                .rows
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.clone().map(|r| (RowId(i as u64), r)))
                .collect())
        }
        fn restore_row(&mut self, id: RowId, row: Vec<Value>) -> CfdResult<()> {
            while self.rows.len() <= id.index() {
                self.rows.push(None);
            }
            self.rows[id.index()] = Some(row);
            Ok(())
        }
        fn next_row_id(&self) -> CfdResult<u64> {
            Ok(self.rows.len() as u64)
        }
        fn restore_arena(&mut self, next: u64) -> CfdResult<()> {
            while (self.rows.len() as u64) < next {
                self.rows.push(None);
            }
            Ok(())
        }
    }

    fn live(t: &Toy) -> Vec<(u64, Vec<Value>)> {
        t.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.clone().map(|r| (i as u64, r)))
            .collect()
    }

    #[test]
    fn reopen_replays_the_log_to_an_identical_relation() {
        let dir = tmp_dir("replay");
        let mut d = Durable::open(&dir, Toy::default()).unwrap();
        d.register_cfds("r: [a=_] -> [b=_]").unwrap();
        d.insert(vec![Value::str("x"), Value::Int(1)]).unwrap();
        let id = d.insert(vec![Value::str("y"), Value::Int(2)]).unwrap();
        d.update_cell(id, 1, Value::Int(9)).unwrap();
        d.insert(vec![Value::str("z"), Value::Int(3)]).unwrap();
        d.delete(RowId(0)).unwrap();
        let want = live(d.inner());
        drop(d);

        let d2 = Durable::open(&dir, Toy::default()).unwrap();
        assert_eq!(live(d2.inner()), want);
        assert_eq!(d2.recovery().records_replayed, 6);
        assert_eq!(d2.recovery().records_refailed, 0);
        assert_eq!(d2.inner().rules, 1, "rule registration replays too");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_mutations_refail_on_replay_without_derailing_it() {
        let dir = tmp_dir("refail");
        let mut d = Durable::open(&dir, Toy::default()).unwrap();
        d.insert(vec![Value::Int(1)]).unwrap();
        assert!(d.delete(RowId(41)).is_err(), "logged, then failed");
        d.insert(vec![Value::Int(2)]).unwrap();
        let want = live(d.inner());
        drop(d);

        let d2 = Durable::open(&dir, Toy::default()).unwrap();
        assert_eq!(live(d2.inner()), want);
        assert_eq!(d2.recovery().records_replayed, 3);
        assert_eq!(d2.recovery().records_refailed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_wal_and_restores_with_stable_ids() {
        let dir = tmp_dir("ckpt");
        let mut d = Durable::open(&dir, Toy::default()).unwrap();
        d.register_cfds("r: [a=_] -> [b=_]").unwrap();
        for i in 0..5 {
            d.insert(vec![Value::Int(i)]).unwrap();
        }
        d.delete(RowId(2)).unwrap(); // leave a hole: ids 0,1,3,4
        d.checkpoint().unwrap();
        assert_eq!(d.wal_bytes(), 0, "checkpoint truncates the WAL");
        // Post-checkpoint traffic lands in the (now short) WAL.
        d.insert(vec![Value::Int(99)]).unwrap();
        let want = live(d.inner());
        drop(d);

        let d2 = Durable::open(&dir, Toy::default()).unwrap();
        assert_eq!(
            live(d2.inner()),
            want,
            "checkpoint + WAL suffix restores all"
        );
        assert_eq!(d2.recovery().checkpoint_rows, 4);
        assert_eq!(d2.recovery().records_replayed, 1);
        assert_eq!(d2.inner().rules, 1, "rules travel in the checkpoint");
        assert_eq!(
            live(d2.inner()).last().unwrap().0,
            5,
            "id allocation resumes past the checkpointed ids"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_preserves_the_allocator_past_trailing_tombstones() {
        // Delete the newest row, checkpoint, then insert after recovery:
        // the new row must get the id the pre-crash run would have
        // assigned (the deleted id is never reused), not the deleted one.
        let dir = tmp_dir("arena");
        let mut d = Durable::open(&dir, Toy::default()).unwrap();
        d.insert(vec![Value::Int(0)]).unwrap();
        let newest = d.insert(vec![Value::Int(1)]).unwrap();
        d.delete(newest).unwrap();
        d.checkpoint().unwrap();
        drop(d);

        let mut d2 = Durable::open(&dir, Toy::default()).unwrap();
        let id = d2.insert(vec![Value::Int(2)]).unwrap();
        assert_eq!(id, RowId(2), "allocation resumes past the tombstone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The kill -9 window between the checkpoint install rename and the
    /// old log's deletion: the full pre-checkpoint WAL is still on disk
    /// next to the new checkpoint. Recovery must replay NONE of it — the
    /// checkpoint names the fresh generation, and replaying the old one
    /// would double-apply every mutation.
    #[test]
    fn stale_pre_checkpoint_log_is_never_replayed() {
        let dir = tmp_dir("stale_gen");
        let mut d = Durable::open(&dir, Toy::default()).unwrap();
        for i in 0..4 {
            d.insert(vec![Value::Int(i)]).unwrap();
        }
        let pre_ckpt_log = std::fs::read(dir.join(WAL_FILE)).unwrap();
        d.checkpoint().unwrap();
        assert_eq!(d.wal_generation(), 1);
        let want = live(d.inner());
        drop(d);
        // Resurrect the old generation-0 log, as if the crash hit before
        // `checkpoint` got to delete it.
        std::fs::write(dir.join(WAL_FILE), &pre_ckpt_log).unwrap();

        let d2 = Durable::open(&dir, Toy::default()).unwrap();
        assert_eq!(d2.recovery().records_replayed, 0, "stale log replayed");
        assert_eq!(d2.recovery().checkpoint_rows, 4);
        assert_eq!(live(d2.inner()), want, "double-applied mutations");
        assert!(
            !dir.join(WAL_FILE).exists(),
            "stale generation must be cleaned up"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The converse window: a crash *before* the install rename leaves a
    /// staged temp checkpoint and an empty staged next-generation WAL.
    /// Recovery must ignore both and replay the old generation in full.
    #[test]
    fn aborted_checkpoint_staging_replays_the_old_generation() {
        let dir = tmp_dir("aborted_ckpt");
        let mut d = Durable::open(&dir, Toy::default()).unwrap();
        for i in 0..3 {
            d.insert(vec![Value::Int(i)]).unwrap();
        }
        let want = live(d.inner());
        drop(d);
        // Crash mid-checkpoint: staged artifacts exist, no install.
        std::fs::write(dir.join(backend::wal_file(1)), b"").unwrap();
        std::fs::write(dir.join("checkpoint.tmp"), b"half-written").unwrap();

        let mut d2 = Durable::open(&dir, Toy::default()).unwrap();
        assert_eq!(d2.recovery().records_replayed, 3);
        assert_eq!(live(d2.inner()), want);
        assert!(!dir.join("checkpoint.tmp").exists(), "stale tmp kept");
        // And checkpointing still works over the cleaned-up directory.
        d2.checkpoint().unwrap();
        assert_eq!(d2.wal_generation(), 1);
        drop(d2);
        let d3 = Durable::open(&dir, Toy::default()).unwrap();
        assert_eq!(d3.recovery().records_replayed, 0);
        assert_eq!(live(d3.inner()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each checkpoint rotates to a fresh generation file; exactly one
    /// WAL generation survives on disk and reopen pairs with it.
    #[test]
    fn repeated_checkpoints_advance_generations() {
        let dir = tmp_dir("generations");
        let mut d = Durable::open(&dir, Toy::default()).unwrap();
        for round in 0..3u64 {
            d.insert(vec![Value::Int(round as i64)]).unwrap();
            d.checkpoint().unwrap();
            assert_eq!(d.wal_generation(), round + 1);
        }
        let want = live(d.inner());
        drop(d);
        let wal_files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("wal."))
            .collect();
        assert_eq!(wal_files, [backend::wal_file(3)]);
        let d2 = Durable::open(&dir, Toy::default()).unwrap();
        assert_eq!(d2.wal_generation(), 3);
        assert_eq!(live(d2.inner()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A mutation at the WAL record cap — the largest the service can
    /// accept — must survive a checkpoint round trip even though the
    /// checkpoint adds an id prefix to its encoding.
    #[test]
    fn checkpoint_restores_a_row_at_the_wal_record_cap() {
        let dir = tmp_dir("cap_row");
        let mut d = Durable::open(&dir, Toy::default()).unwrap();
        let base = Request::Insert {
            row: vec![Value::str("")],
        }
        .encode()
        .len();
        let row = vec![Value::str("x".repeat(wal::MAX_RECORD_BYTES - base))];
        assert_eq!(
            Request::Insert { row: row.clone() }.encode().len(),
            wal::MAX_RECORD_BYTES,
            "the probe row must sit exactly at the WAL cap"
        );
        d.insert(row.clone()).unwrap();
        d.checkpoint().unwrap();
        drop(d);
        let d2 = Durable::open(&dir, Toy::default()).unwrap();
        assert_eq!(d2.recovery().checkpoint_rows, 1);
        assert_eq!(live(d2.inner()), vec![(0, row)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batches_log_as_one_record() {
        let dir = tmp_dir("batch");
        let mut d = Durable::open(&dir, Toy::default()).unwrap();
        let batch: MutationBatch = vec![
            Mutation::Insert(vec![Value::Int(1)]),
            Mutation::Insert(vec![Value::Int(2)]),
            Mutation::SetCell {
                row: RowId(0),
                col: 0,
                value: Value::Int(7),
            },
        ]
        .into();
        d.apply_batch(batch).unwrap();
        let want = live(d.inner());
        drop(d);

        let d2 = Durable::open(&dir, Toy::default()).unwrap();
        assert_eq!(d2.recovery().records_replayed, 1, "one batch, one record");
        assert_eq!(live(d2.inner()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = tmp_dir("torn");
        let mut d = Durable::open(&dir, Toy::default()).unwrap();
        d.insert(vec![Value::Int(1)]).unwrap();
        d.insert(vec![Value::Int(2)]).unwrap();
        drop(d);
        // Tear the last record mid-frame.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();

        let d2 = Durable::open(&dir, Toy::default()).unwrap();
        assert_eq!(d2.recovery().records_replayed, 1, "valid prefix only");
        // Both records encode identically-sized payloads, so the valid
        // prefix is exactly half the original file.
        assert_eq!(
            d2.recovery().truncated_bytes,
            (bytes.len() - 3 - bytes.len() / 2) as u64
        );
        assert_eq!(live(d2.inner()).len(), 1);
        // And the log keeps working after the truncation.
        drop(d2);
        let mut d3 = Durable::open(&dir, Toy::default()).unwrap();
        d3.insert(vec![Value::Int(3)]).unwrap();
        drop(d3);
        let d4 = Durable::open(&dir, Toy::default()).unwrap();
        assert_eq!(live(d4.inner()).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The codec-audit counterpart to `api`'s WAL-critical pins: the
    /// frames of mutations carrying embedded newlines, control
    /// characters, non-finite floats, and empty strings scan back
    /// byte-exact, and a `Durable` reopen replays them into the same
    /// relation.
    #[test]
    fn wal_critical_payloads_survive_framing_and_replay() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::str("line one\nline two\r\nline three")],
            vec![Value::str("\n"), Value::str("\t")],
            vec![Value::str("\u{0}\u{1}\u{b}\u{1f}\u{7f}")],
            vec![
                Value::Float(f64::NAN),
                Value::Float(f64::INFINITY),
                Value::Float(f64::NEG_INFINITY),
            ],
            vec![Value::str(""), Value::Null],
        ];
        // Framing: encoded requests concatenate into a log that scans
        // back record-for-record, cleanly.
        let payloads: Vec<String> = rows
            .iter()
            .map(|row| Request::Insert { row: row.clone() }.encode())
            .collect();
        let log: String = payloads.iter().map(|p| wal::frame(p)).collect();
        let scan = wal::scan_bytes(log.as_bytes());
        assert!(matches!(scan.tail, WalTail::Clean), "{:?}", scan.tail);
        assert_eq!(scan.records, payloads);

        // Replay: the same mutations through a real `Durable` round trip.
        let dir = tmp_dir("critical");
        let mut d = Durable::open(&dir, Toy::default()).unwrap();
        for row in &rows {
            d.insert(row.clone()).unwrap();
        }
        let want = d.inner().rows.len();
        drop(d);
        let d2 = Durable::open(&dir, Toy::default()).unwrap();
        assert_eq!(d2.recovery().records_replayed, rows.len());
        assert_eq!(d2.inner().rows.len(), want);
        // NaN breaks Vec equality; compare through the canonical wire
        // encoding instead (bit-exact float rendering).
        let enc = |t: &Toy| -> Vec<String> {
            t.rows
                .iter()
                .flatten()
                .map(|r| Request::Insert { row: r.clone() }.encode())
                .collect()
        };
        assert_eq!(enc(d2.inner()), payloads);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_log_with_read_records_is_refused() {
        let dir = tmp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let payload = Request::Detect.encode();
        std::fs::write(dir.join(WAL_FILE), wal::frame(&payload)).unwrap();
        let err = Durable::open(&dir, Toy::default()).unwrap_err();
        assert!(err.to_string().contains("non-mutating"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
