//! Epoch-versioned snapshot lifecycle: cache + incremental maintenance.
//!
//! A [`SnapshotCache`] holds one `Arc<Snapshot>` tagged with the
//! [`minidb::Table::epoch`] it was encoded at. [`SnapshotCache::snapshot`]
//! answers from the cache when the epochs match (zero encode work for
//! repeat detects over an unchanged table) and re-encodes otherwise. For
//! callers that *know* their deltas — the data monitor's update stream, the
//! repair loop's cell edits — the `note_*` methods patch the cached
//! snapshot in lock-step with the table instead of re-encoding:
//!
//! * `note_insert` appends the encoded row, interning novel values into the
//!   existing per-column dictionaries;
//! * `note_delete` swap-removes the row's snapshot position (detection is
//!   order-insensitive after `normalized()`);
//! * `note_set_cell` re-encodes the single touched cell.
//!
//! Patches are cheap but monotone — dictionaries only grow, and a long
//! patch history accumulates codes no live row references. Past a delta
//! threshold (a fraction of the snapshot's rows) the cache drops the
//! snapshot and the next access pays one full re-encode, resetting the
//! bookkeeping. Every `note_*` verifies the table is exactly one epoch
//! ahead of the snapshot (`note_set_cells` replays a batch of k edits
//! against a k-epoch gap); any other gap — a mutation the caller didn't
//! report — invalidates the cache, so it can never silently serve stale
//! data.
//!
//! On top of the snapshot the cache keeps **per-column epochs** (when did
//! this column's content last change? when did the row set last change?)
//! and [`detect_cached`] memoizes each CFD's decoded detection result
//! against them: a repeat detect re-evaluates only the CFDs whose columns
//! were touched since their fragment was computed and replays the rest —
//! so a monitoring loop that mutates one column re-scans one rule, not
//! the whole constraint set.

use std::sync::{Arc, OnceLock};

use cfd::{BoundCfd, Cfd, CfdResult};
use detect::fxhash::FxHashMap;
use detect::ViolationReport;
use minidb::{RowId, Table, Value};

use crate::detect::{detect_constant, needed_columns, resolve, violating_groups, DecodedGroup};
use crate::snapshot::Snapshot;
use crate::spill::ChunkStore;

/// Global-registry handles for the cache's telemetry, resolved once per
/// process. Every [`SnapshotCache`] instance keeps its own counters for
/// the regression probes ([`SnapshotCache::encodes`] & co.) *and* mirrors
/// each increment here, so `obs::snapshot()` aggregates across all caches
/// — every server, shard, and monitor in the process. (Full-encode counts
/// are not mirrored here: `colstore_snapshot_encodes_total` lives at the
/// [`Snapshot::projected`] funnel itself, where it also catches the
/// encodes that bypass any cache.)
struct CacheObs {
    hits: Arc<obs::Counter>,
    misses: Arc<obs::Counter>,
    patches: Arc<obs::Counter>,
    rebuild_fallbacks: Arc<obs::Counter>,
    batch_rows: Arc<obs::Histogram>,
    fragments_computed: Arc<obs::Counter>,
    fragments_reused: Arc<obs::Counter>,
    spill_chunks: Arc<obs::Counter>,
}

fn cache_obs() -> &'static CacheObs {
    static OBS: OnceLock<CacheObs> = OnceLock::new();
    OBS.get_or_init(|| CacheObs {
        hits: obs::counter("colstore_snapshot_cache_hits_total"),
        misses: obs::counter("colstore_snapshot_cache_misses_total"),
        patches: obs::counter("colstore_snapshot_patches_total"),
        rebuild_fallbacks: obs::counter("colstore_snapshot_rebuild_fallbacks_total"),
        batch_rows: obs::histogram("colstore_note_batch_rows"),
        fragments_computed: obs::counter("colstore_detect_fragments_computed_total"),
        fragments_reused: obs::counter("colstore_detect_fragments_reused_total"),
        spill_chunks: obs::counter("colstore_spill_chunks_total"),
    })
}

/// One reported mutation of the observed table — the unit of
/// [`SnapshotCache::note_batch`]. Mirrors the `note_insert` /
/// `note_delete` / `note_set_cell` calls, but carried as data so a whole
/// ingest batch can be replayed in one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableDelta {
    /// A row was inserted.
    Inserted(RowId),
    /// A row was deleted.
    Deleted(RowId),
    /// Cell `(row, col)` was overwritten.
    CellSet(RowId, usize),
}

/// Default fraction of snapshot rows that may be patched before the cache
/// falls back to a full rebuild.
const DEFAULT_DELTA_THRESHOLD: f64 = 0.25;
/// Patch-count floor below which the threshold never triggers (tiny tables
/// should not rebuild on every other update).
const MIN_DELTA: usize = 256;

/// The cached snapshot plus its maintenance bookkeeping.
struct Cached {
    snap: Arc<Snapshot>,
    /// Table epoch the snapshot mirrors.
    epoch: u64,
    /// `RowId → snapshot position`, built lazily at the first patch and
    /// maintained across swap-removes.
    pos: Option<FxHashMap<RowId, u32>>,
    /// Patches applied since the last full encode.
    patched: usize,
    /// Table epoch at which each column's *content* last changed (indexed
    /// by schema position; conservatively "now" after a full encode). A
    /// detect fragment computed at epoch `E` for a CFD over columns `C`
    /// stays valid while `rows_epoch ≤ E` and `col_epochs[c] ≤ E` ∀ c ∈ C.
    col_epochs: Vec<u64>,
    /// Table epoch at which the live-row *membership* last changed
    /// (inserts/deletes invalidate every CFD's fragment).
    rows_epoch: u64,
}

impl Cached {
    /// The position of `id`, building the index on first use.
    fn position(&mut self, id: RowId) -> Option<u32> {
        let index = self.pos.get_or_insert_with(|| {
            self.snap
                .row_ids()
                .iter()
                .enumerate()
                .map(|(p, &r)| (r, p as u32))
                .collect()
        });
        index.get(&id).copied()
    }
}

/// An epoch-versioned cache of one table's columnar snapshot.
///
/// The cache observes a single table lineage (it remembers the table name
/// and epoch); see [`minidb::Table::epoch`] for the clone caveat. It keeps
/// the union of every projection ever requested, so alternating CFD sets
/// converge on one snapshot instead of thrashing.
pub struct SnapshotCache {
    cached: Option<Cached>,
    delta_threshold: f64,
    /// Rows per code chunk for snapshots this cache encodes; `None` uses
    /// the process default ([`crate::column::default_chunk_rows`]).
    chunk_rows: Option<usize>,
    encodes: u64,
    patches: u64,
    /// Per-CFD detect fragments memoized by [`detect_cached`], each tagged
    /// with the epoch it was computed at. Entries survive snapshot rebuilds
    /// (the epoch bookkeeping decides their freshness, not the rebuild).
    memo: Vec<MemoEntry>,
    fragments_computed: u64,
    fragments_reused: u64,
    /// Cold-chunk spill target and resident-byte budget: when set, every
    /// snapshot this cache serves is evicted down to the budget first
    /// (oldest chunks out, [`Snapshot::spill_to_budget`]).
    spill: Option<(Arc<dyn ChunkStore>, usize)>,
    spilled_chunks: u64,
}

impl Default for SnapshotCache {
    fn default() -> SnapshotCache {
        SnapshotCache::new()
    }
}

impl SnapshotCache {
    /// Empty cache with the default delta threshold.
    pub fn new() -> SnapshotCache {
        SnapshotCache {
            cached: None,
            delta_threshold: DEFAULT_DELTA_THRESHOLD,
            chunk_rows: None,
            encodes: 0,
            patches: 0,
            memo: Vec::new(),
            fragments_computed: 0,
            fragments_reused: 0,
            spill: None,
            spilled_chunks: 0,
        }
    }

    /// Override the patched-rows fraction past which the cache rebuilds
    /// instead of patching further (default 0.25). `0.0` disables patching
    /// entirely — every mutation falls back to a full re-encode — which is
    /// how the equivalence tests pin the fallback path.
    pub fn with_delta_threshold(mut self, threshold: f64) -> SnapshotCache {
        self.delta_threshold = threshold;
        self
    }

    /// Override the rows-per-chunk size of snapshots this cache encodes
    /// (default: the process-wide [`crate::column::default_chunk_rows`]).
    /// Smaller chunks mean more chunk boundaries inside each group; the
    /// equivalence property tests sweep this down to 1.
    pub fn with_chunk_rows(mut self, chunk_rows: usize) -> SnapshotCache {
        assert!(chunk_rows >= 1, "chunk_rows must be positive");
        self.chunk_rows = Some(chunk_rows);
        self
    }

    /// Evict cold sealed chunks of served snapshots to `store` until at
    /// most `budget` resident code bytes remain. Detection faults spilled
    /// chunks back page-at-a-time through the store; patches fault their
    /// chunk back to residency (re-evicted at the next serve if the
    /// budget is exceeded again).
    pub fn with_spill(mut self, store: Arc<dyn ChunkStore>, budget: usize) -> SnapshotCache {
        self.spill = Some((store, budget));
        self
    }

    /// Number of chunk evictions this cache has performed.
    pub fn spilled_chunks(&self) -> u64 {
        self.spilled_chunks
    }

    /// Full-column snapshot of `table`: cached when the epoch matches,
    /// freshly encoded (and cached) otherwise.
    pub fn snapshot(&mut self, table: &Table) -> Arc<Snapshot> {
        self.snapshot_for(table, None)
    }

    /// Snapshot covering at least the columns in `cols` — the projected
    /// variant the detector uses. A cached snapshot missing some of `cols`
    /// is re-encoded with the union of its columns and `cols`.
    pub fn snapshot_projected(&mut self, table: &Table, cols: &[usize]) -> Arc<Snapshot> {
        self.snapshot_for(table, Some(cols))
    }

    fn snapshot_for(&mut self, table: &Table, cols: Option<&[usize]>) -> Arc<Snapshot> {
        let sp = obs::trace::span("cache.snapshot");
        let hit = self.cached.as_ref().is_some_and(|c| {
            c.epoch == table.epoch() && c.snap.name() == table.name() && covers(&c.snap, cols)
        });
        if hit {
            cache_obs().hits.inc();
            sp.attr("decision", "hit");
            // Patches fault chunks back to residency; re-evict before
            // serving so a long patch history cannot creep past the budget.
            self.enforce_spill_budget();
            let c = self.cached.as_ref().expect("hit implies cached");
            return Arc::clone(&c.snap);
        }
        cache_obs().misses.inc();
        sp.attr("decision", "encode");
        // Fragment freshness is pure epoch arithmetic, so it can only be
        // trusted across a re-encode that provably stays on the same table
        // lineage moving forward (same name, epoch not regressed). Anything
        // else — a different table handed to this cache, an epoch that went
        // backwards, or a cache that was invalidated and lost its identity
        // — drops the memo wholesale; a fragment whose epoch is ≥ the new
        // table's epoch would otherwise replay another table's violations.
        let same_lineage = self
            .cached
            .as_ref()
            .is_some_and(|c| c.snap.name() == table.name() && table.epoch() >= c.epoch);
        if !same_lineage {
            self.memo.clear();
        }
        // Re-encode with the union of the requested and previously encoded
        // columns, so the cached projection grows monotonically.
        let chunk_rows = self
            .chunk_rows
            .unwrap_or_else(crate::column::default_chunk_rows);
        let union: Vec<usize> = match cols {
            None => (0..table.schema().arity()).collect(),
            Some(cols) => {
                let mut union: Vec<usize> = cols.to_vec();
                if let Some(c) = &self.cached {
                    if c.snap.name() == table.name() {
                        union.extend(c.snap.encoded_columns().map(|(i, _)| i));
                    }
                }
                union.sort_unstable();
                union.dedup();
                union
            }
        };
        let mut snap = Snapshot::projected_with_chunk(table, &union, chunk_rows);
        self.encodes += 1;
        // Evict before the Arc is shared out: the fresh encode is the one
        // moment the whole snapshot is provably unaliased.
        if let Some((store, budget)) = &self.spill {
            if snap.resident_bytes() > *budget {
                match snap.spill_to_budget(store, *budget) {
                    Ok(n) => {
                        self.spilled_chunks += n as u64;
                        cache_obs().spill_chunks.add(n as u64);
                    }
                    Err(e) => {
                        eprintln!("WARNING: chunk spill failed ({e}); keeping chunks resident")
                    }
                }
            }
        }
        let snap = Arc::new(snap);
        // Column/row epochs restart at "changed now": any fragment computed
        // strictly before this epoch is conservatively stale (we no longer
        // know which columns stayed untouched across the gap).
        self.cached = Some(Cached {
            snap: Arc::clone(&snap),
            epoch: table.epoch(),
            pos: None,
            patched: 0,
            col_epochs: vec![table.epoch(); table.schema().arity()],
            rows_epoch: table.epoch(),
        });
        snap
    }

    /// Re-evict the cached snapshot down to the spill budget (no-op
    /// without a budget, or while already within it). A snapshot still
    /// shared with outside holders is unshared first (`Arc::make_mut` —
    /// an Arc-bump-deep column clone); their view keeps its residency.
    fn enforce_spill_budget(&mut self) {
        let Some((store, budget)) = &self.spill else {
            return;
        };
        let Some(c) = &mut self.cached else {
            return;
        };
        if c.snap.resident_bytes() <= *budget {
            return;
        }
        let sp = obs::trace::span("cache.spill");
        match Arc::make_mut(&mut c.snap).spill_to_budget(store, *budget) {
            Ok(n) => {
                self.spilled_chunks += n as u64;
                cache_obs().spill_chunks.add(n as u64);
                sp.attr("chunks", n);
            }
            Err(e) => eprintln!("WARNING: chunk spill failed ({e}); keeping chunks resident"),
        }
    }

    /// Epoch of the cached snapshot, if one is held.
    pub fn epoch(&self) -> Option<u64> {
        self.cached.as_ref().map(|c| c.epoch)
    }

    /// Number of full snapshot encodes performed so far — the probe the
    /// steady-state regression tests watch.
    pub fn encodes(&self) -> u64 {
        self.encodes
    }

    /// Number of incremental patches applied so far.
    pub fn patches(&self) -> u64 {
        self.patches
    }

    /// Number of per-CFD detect fragments computed by [`detect_cached`].
    pub fn fragments_computed(&self) -> u64 {
        self.fragments_computed
    }

    /// Number of per-CFD detect fragments replayed from the memo (their
    /// columns and the row set were untouched since they were computed).
    pub fn fragments_reused(&self) -> u64 {
        self.fragments_reused
    }

    /// Drop the cached snapshot and the detect memo; the next access pays
    /// a full encode and a full detect.
    pub fn invalidate(&mut self) {
        self.cached = None;
        self.memo.clear();
    }

    /// Is a result computed at `epoch` over columns `cols` (schema
    /// positions) still current? True iff the live-row membership and every
    /// one of those columns are unchanged since then — the freshness probe
    /// behind [`detect_cached`]'s memo, public so external per-CFD caches
    /// (a cluster shard's partial-export memo) can ride the same epoch
    /// bookkeeping.
    pub fn fragment_fresh(&self, epoch: u64, cols: &[usize]) -> bool {
        let Some(c) = &self.cached else {
            return false;
        };
        c.rows_epoch <= epoch
            && cols
                .iter()
                .all(|&col| c.col_epochs.get(col).is_some_and(|&e| e <= epoch))
    }

    /// Record that `id` was just inserted into `table` (call *after* the
    /// insert): appends the encoded row to the cached snapshot.
    pub fn note_insert(&mut self, table: &Table, id: RowId) {
        let Some(c) = patchable(&mut self.cached, self.delta_threshold, table, 1) else {
            return;
        };
        let Ok(row) = table.get(id) else {
            self.cached = None;
            return;
        };
        let pos = c.snap.n_rows() as u32;
        Arc::make_mut(&mut c.snap).append_row(id, row);
        if let Some(ix) = &mut c.pos {
            ix.insert(id, pos);
        }
        c.epoch = table.epoch();
        c.rows_epoch = table.epoch();
        c.patched += 1;
        self.patches += 1;
        cache_obs().patches.inc();
    }

    /// Record that `id` was just deleted from `table` (call *after* the
    /// delete): swap-removes the row's snapshot position.
    pub fn note_delete(&mut self, table: &Table, id: RowId) {
        let Some(c) = patchable(&mut self.cached, self.delta_threshold, table, 1) else {
            return;
        };
        let Some(pos) = c.position(id) else {
            self.cached = None; // unknown row: the stream missed an insert
            return;
        };
        let moved = Arc::make_mut(&mut c.snap).swap_remove_row(pos as usize);
        let ix = c.pos.as_mut().expect("index built by position()");
        ix.remove(&id);
        if let Some(m) = moved {
            ix.insert(m, pos);
        }
        c.epoch = table.epoch();
        c.rows_epoch = table.epoch();
        c.patched += 1;
        self.patches += 1;
        cache_obs().patches.inc();
    }

    /// Record that cell (`id`, `col`) of `table` was just overwritten (call
    /// *after* the update): re-encodes the one cell, interning a novel
    /// value into the column's dictionary. Columns outside the cached
    /// projection advance the epoch without patch work — the snapshot never
    /// claimed to represent them.
    pub fn note_set_cell(&mut self, table: &Table, id: RowId, col: usize) {
        self.note_set_cells(table, &[(id, col)]);
    }

    /// Record a *batch* of cell overwrites applied since the snapshot was
    /// last in sync — the replay path for a repair pass whose edits were
    /// not reported one by one. The table must be exactly `cells.len()`
    /// epochs ahead of the snapshot (one epoch per overwrite); any other
    /// gap means unreported mutations and invalidates the cache.
    pub fn note_set_cells(&mut self, table: &Table, cells: &[(RowId, usize)]) {
        if cells.is_empty() {
            return;
        }
        let steps = cells.len() as u64;
        let Some(c) = patchable(&mut self.cached, self.delta_threshold, table, steps) else {
            return;
        };
        for &(id, col) in cells {
            let Some(pos) = c.position(id) else {
                self.cached = None;
                return;
            };
            if let Some(e) = c.col_epochs.get_mut(col) {
                *e = table.epoch();
            }
            if c.snap.has_column(col) {
                let Ok(value) = table.cell(id, col) else {
                    self.cached = None;
                    return;
                };
                Arc::make_mut(&mut c.snap).set_cell(pos as usize, col, value);
                c.patched += 1;
                self.patches += 1;
                cache_obs().patches.inc();
            }
        }
        c.epoch = table.epoch();
    }

    /// Replay a whole mutation batch against the cached snapshot in one
    /// pass — the batch-ingest entry point behind
    /// `QualityBackend::apply_batch`.
    ///
    /// Semantically equal to calling the per-mutation `note_*` methods in
    /// `deltas` order (the table must be exactly `deltas.len()` epochs
    /// ahead of the snapshot), but the bookkeeping is amortized:
    ///
    /// * one epoch-gap check for the whole batch;
    /// * insert runs appended with one copy-on-write unsharing and one
    ///   reservation per column (`Snapshot::append_rows`);
    /// * **batch-local position resolution**: the batch knows every row
    ///   it touches up front, so when the cache's persistent `RowId → pos`
    ///   index was never built, the targets are resolved in a single scan
    ///   of the snapshot's row ids instead of building (and then
    ///   maintaining) the full index — per-row application cannot do
    ///   this, because it never sees past its current mutation.
    ///
    /// The replay reads the table's *current* values. A row inserted and
    /// deleted within the same batch leaves no value to read, so that
    /// (rare) shape invalidates the cache and the next access re-encodes
    /// — never a correctness hazard, exactly the unreported-mutation
    /// fallback.
    pub fn note_batch(&mut self, table: &Table, deltas: &[TableDelta]) {
        if deltas.is_empty() {
            return;
        }
        cache_obs().batch_rows.record(deltas.len() as u64);
        let steps = deltas.len() as u64;
        let Some(c) = patchable(&mut self.cached, self.delta_threshold, table, steps) else {
            return;
        };
        let epoch = table.epoch();

        // Where does each targeted row sit? Ride (and maintain) the
        // persistent index when it exists; otherwise resolve exactly the
        // batch's targets in one scan. `u32::MAX` marks a target not in
        // the pre-batch snapshot — it must be appended by an earlier
        // insert of this batch, or the stream missed a mutation.
        const UNRESOLVED: u32 = u32::MAX;
        let use_shared = c.pos.is_some();
        let mut local: FxHashMap<RowId, u32> = FxHashMap::default();
        if !use_shared {
            for d in deltas {
                if let TableDelta::Deleted(id) | TableDelta::CellSet(id, _) = d {
                    local.insert(*id, UNRESOLVED);
                }
            }
            if !local.is_empty() {
                for (p, id) in c.snap.row_ids().iter().enumerate() {
                    if let Some(slot) = local.get_mut(id) {
                        *slot = p as u32;
                    }
                }
            }
        }

        let mut i = 0;
        while i < deltas.len() {
            match deltas[i] {
                TableDelta::Inserted(_) => {
                    // Maximal insert run → one bulk append.
                    let start = i;
                    while let Some(TableDelta::Inserted(_)) = deltas.get(i) {
                        i += 1;
                    }
                    let mut rows: Vec<(RowId, &[Value])> = Vec::with_capacity(i - start);
                    for d in &deltas[start..i] {
                        let TableDelta::Inserted(id) = *d else {
                            unreachable!("run holds only inserts");
                        };
                        let Ok(row) = table.get(id) else {
                            // Inserted and deleted within one batch: the
                            // values are unrecoverable, fall back.
                            self.cached = None;
                            return;
                        };
                        rows.push((id, row));
                    }
                    let base = c.snap.n_rows() as u32;
                    if use_shared {
                        let ix = c.pos.as_mut().expect("use_shared checked");
                        for (off, (id, _)) in rows.iter().enumerate() {
                            ix.insert(*id, base + off as u32);
                        }
                    } else if !local.is_empty() {
                        // A later delta may target a row this run appends.
                        for (off, (id, _)) in rows.iter().enumerate() {
                            if let Some(slot) = local.get_mut(id) {
                                *slot = base + off as u32;
                            }
                        }
                    }
                    Arc::make_mut(&mut c.snap).append_rows(&rows);
                    c.rows_epoch = epoch;
                    c.patched += rows.len();
                    self.patches += rows.len() as u64;
                    cache_obs().patches.add(rows.len() as u64);
                }
                TableDelta::Deleted(id) => {
                    i += 1;
                    let pos = if use_shared {
                        c.position(id)
                    } else {
                        local.get(&id).copied().filter(|&p| p != UNRESOLVED)
                    };
                    let Some(pos) = pos else {
                        self.cached = None;
                        return;
                    };
                    let moved = Arc::make_mut(&mut c.snap).swap_remove_row(pos as usize);
                    // Only the swapped-in last row changes position;
                    // track it in whichever resolver is active.
                    if use_shared {
                        let ix = c.pos.as_mut().expect("use_shared checked");
                        ix.remove(&id);
                        if let Some(m) = moved {
                            ix.insert(m, pos);
                        }
                    } else {
                        local.insert(id, UNRESOLVED);
                        if let Some(m) = moved {
                            if let Some(slot) = local.get_mut(&m) {
                                *slot = pos;
                            }
                        }
                    }
                    c.rows_epoch = epoch;
                    c.patched += 1;
                    self.patches += 1;
                    cache_obs().patches.inc();
                }
                TableDelta::CellSet(id, col) => {
                    i += 1;
                    let pos = if use_shared {
                        c.position(id)
                    } else {
                        local.get(&id).copied().filter(|&p| p != UNRESOLVED)
                    };
                    let Some(pos) = pos else {
                        self.cached = None;
                        return;
                    };
                    if let Some(e) = c.col_epochs.get_mut(col) {
                        *e = epoch;
                    }
                    if c.snap.has_column(col) {
                        let Ok(value) = table.cell(id, col) else {
                            self.cached = None;
                            return;
                        };
                        Arc::make_mut(&mut c.snap).set_cell(pos as usize, col, value);
                        c.patched += 1;
                        self.patches += 1;
                        cache_obs().patches.inc();
                    }
                }
            }
        }
        c.epoch = epoch;
    }
}

/// Hand out the cached snapshot for patching when it is exactly `steps`
/// epochs behind `table` and under the patch budget; otherwise invalidate
/// and return `None` (the caller's mutation stream missed an update, or
/// the threshold was crossed — either way the next access re-encodes).
fn patchable<'a>(
    cached: &'a mut Option<Cached>,
    threshold: f64,
    table: &Table,
    steps: u64,
) -> Option<&'a mut Cached> {
    let Some(c) = cached else {
        return None;
    };
    let in_step = c.epoch + steps == table.epoch() && c.snap.name() == table.name();
    // Patch budget since the last full encode: a fraction of the rows,
    // floored so tiny tables still amortize, zero when disabled.
    let budget = if threshold <= 0.0 {
        0
    } else {
        (((c.snap.n_rows() as f64) * threshold) as usize).max(MIN_DELTA)
    };
    if !in_step || c.patched + steps as usize > budget {
        *cached = None;
        cache_obs().rebuild_fallbacks.inc();
        obs::trace::note("cache", "rebuild_fallback");
        return None;
    }
    obs::trace::note("cache", "patch");
    cached.as_mut()
}

/// Does the snapshot hold every column the caller asked for (`None` = all)?
fn covers(snap: &Snapshot, cols: Option<&[usize]>) -> bool {
    match cols {
        None => (0..snap.schema().arity()).all(|c| snap.has_column(c)),
        Some(cols) => cols.iter().all(|&c| snap.has_column(c)),
    }
}

/// One CFD's detection result, decoded and detached from any snapshot, plus
/// the epoch it reflects. Replaying a fragment into a report is a clone of
/// the decoded rows — no scan, no grouping, no decoding.
struct MemoEntry {
    cfd: Cfd,
    /// Table epoch the fragment was computed at.
    epoch: u64,
    /// Violating rows of a constant-RHS CFD (sorted by row id).
    singles: Vec<RowId>,
    /// Violating groups of a variable CFD, with member multiplicities.
    groups: Vec<DecodedGroup>,
}

impl MemoEntry {
    fn compute(snap: &Snapshot, cfd: &Cfd, b: &BoundCfd, epoch: u64) -> MemoEntry {
        let mut singles = Vec::new();
        let mut groups = Vec::new();
        if let Some(r) = resolve(snap, b) {
            if b.cfd.rhs_pat.constant().is_some() {
                let mut scratch = ViolationReport::default();
                detect_constant(snap, 0, &r, &mut scratch);
                singles = scratch.dirty_rows();
            } else {
                groups = violating_groups(snap, b, &r);
            }
        }
        MemoEntry {
            cfd: cfd.clone(),
            epoch,
            singles,
            groups,
        }
    }

    fn replay(&self, cfd_idx: usize, report: &mut ViolationReport) {
        for &row in &self.singles {
            report.push_single(cfd_idx, row);
        }
        for (key, rows, own) in &self.groups {
            report.push_multi_shared(cfd_idx, key.clone(), Arc::clone(rows), own);
        }
    }
}

/// Detect all violations of `cfds` in `table` through the cache: repeat
/// calls on an unchanged (or patched-in-step) table do zero encode work,
/// and per-CFD results are memoized against the per-column epochs — a CFD
/// whose columns (and the row set) are untouched since its last
/// evaluation replays its memoized fragment instead of re-scanning.
/// Output is `normalized()`-equal to [`crate::detect_columnar`] and
/// [`detect::detect_native`].
pub fn detect_cached(
    cache: &mut SnapshotCache,
    table: &Table,
    cfds: &[Cfd],
) -> CfdResult<ViolationReport> {
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(table.schema()))
        .collect::<CfdResult<_>>()?;
    let snap = cache.snapshot_projected(table, &needed_columns(&bound));
    let epoch = table.epoch();
    // The memo is rebuilt per call: fresh entries for this CFD set carry
    // over, everything else (stale fragments, CFDs no longer checked) is
    // dropped — memory stays bounded by one fragment per active CFD.
    let mut old = std::mem::take(&mut cache.memo);
    let mut report = ViolationReport::default();
    for (idx, b) in bound.iter().enumerate() {
        let sp = obs::trace::span("detect.cfd");
        sp.attr("cfd", idx);
        let cols: Vec<usize> = b.lhs_cols.iter().copied().chain([b.rhs_col]).collect();
        let entry = match old
            .iter()
            .position(|e| e.cfd == cfds[idx] && cache.fragment_fresh(e.epoch, &cols))
        {
            Some(p) => {
                cache.fragments_reused += 1;
                cache_obs().fragments_reused.inc();
                sp.attr("memo", "hit");
                old.swap_remove(p)
            }
            None => {
                cache.fragments_computed += 1;
                cache_obs().fragments_computed.inc();
                sp.attr("memo", "recompute");
                MemoEntry::compute(&snap, &cfds[idx], b, epoch)
            }
        };
        entry.replay(idx, &mut report);
        cache.memo.push(entry);
    }
    Ok(report)
}

/// [`detect_cached`]; ignores `threads`. Kept for the benchmark harness,
/// which still calls it.
pub fn detect_cached_threads(
    cache: &mut SnapshotCache,
    table: &Table,
    cfds: &[Cfd],
    _threads: usize,
) -> CfdResult<ViolationReport> {
    detect_cached(cache, table, cfds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect_on_snapshot;
    use cfd::parse::parse_cfds;
    use detect::detect_native;
    use minidb::{Schema, Value};

    fn table() -> Table {
        let mut t = Table::new("r", Schema::of_strings(&["A", "B", "C"]));
        for (a, b, c) in [("x", "1", "p"), ("y", "2", "q"), ("x", "1", "p")] {
            t.insert(vec![Value::str(a), Value::str(b), Value::str(c)])
                .unwrap();
        }
        t
    }

    #[test]
    fn repeat_snapshots_encode_once() {
        let t = table();
        let mut cache = SnapshotCache::new();
        let s1 = cache.snapshot(&t);
        let s2 = cache.snapshot(&t);
        assert_eq!(cache.encodes(), 1);
        assert!(Arc::ptr_eq(&s1, &s2), "cache hit returns the same Arc");
    }

    #[test]
    fn mutation_without_note_invalidates() {
        let mut t = table();
        let mut cache = SnapshotCache::new();
        cache.snapshot(&t);
        t.update_cell(RowId(0), 0, Value::str("z")).unwrap();
        let s = cache.snapshot(&t);
        assert_eq!(cache.encodes(), 2, "unreported mutation forces re-encode");
        assert_eq!(s.column(0).value_at(0), Value::str("z"));
    }

    #[test]
    fn insert_patch_appends_and_interns() {
        let mut t = table();
        let mut cache = SnapshotCache::new();
        cache.snapshot(&t);
        let id = t
            .insert(vec![Value::str("novel"), Value::Null, Value::str("p")])
            .unwrap();
        cache.note_insert(&t, id);
        let s = cache.snapshot(&t);
        assert_eq!(cache.encodes(), 1, "patched, not re-encoded");
        assert_eq!(cache.patches(), 1);
        assert_eq!(s.n_rows(), 4);
        assert_eq!(s.row_id(3), id);
        assert_eq!(s.column(0).value_at(3), Value::str("novel"));
        assert!(s.column(1).is_null_at(3));
    }

    #[test]
    fn delete_patch_swap_removes() {
        let mut t = table();
        let mut cache = SnapshotCache::new();
        cache.snapshot(&t);
        t.delete(RowId(0)).unwrap();
        cache.note_delete(&t, RowId(0));
        let s = cache.snapshot(&t);
        assert_eq!(cache.encodes(), 1);
        assert_eq!(s.n_rows(), 2);
        // Last row swapped into position 0.
        assert_eq!(s.row_id(0), RowId(2));
        assert_eq!(s.row_id(1), RowId(1));
        // Follow-up delete of the moved row still resolves its position.
        t.delete(RowId(2)).unwrap();
        cache.note_delete(&t, RowId(2));
        let s = cache.snapshot(&t);
        assert_eq!(cache.encodes(), 1);
        assert_eq!(s.row_ids(), &[RowId(1)]);
    }

    #[test]
    fn set_cell_patch_reencodes_one_cell() {
        let mut t = table();
        let mut cache = SnapshotCache::new();
        cache.snapshot(&t);
        t.update_cell(RowId(1), 2, Value::str("fresh")).unwrap();
        cache.note_set_cell(&t, RowId(1), 2);
        let s = cache.snapshot(&t);
        assert_eq!(cache.encodes(), 1);
        assert_eq!(s.column(2).value_at(1), Value::str("fresh"));
    }

    #[test]
    fn patches_do_not_disturb_handed_out_snapshots() {
        let mut t = table();
        let mut cache = SnapshotCache::new();
        let before = cache.snapshot(&t);
        t.update_cell(RowId(0), 0, Value::str("after")).unwrap();
        cache.note_set_cell(&t, RowId(0), 0);
        assert_eq!(
            before.column(0).value_at(0),
            Value::str("x"),
            "copy-on-write: the old Arc still sees the old value"
        );
        assert_eq!(
            cache.snapshot(&t).column(0).value_at(0),
            Value::str("after")
        );
    }

    #[test]
    fn zero_threshold_disables_patching() {
        let mut t = table();
        let mut cache = SnapshotCache::new().with_delta_threshold(0.0);
        cache.snapshot(&t);
        let id = t
            .insert(vec![Value::str("a"), Value::str("b"), Value::str("c")])
            .unwrap();
        cache.note_insert(&t, id);
        assert_eq!(cache.patches(), 0);
        cache.snapshot(&t);
        assert_eq!(cache.encodes(), 2, "fallback path re-encodes");
    }

    #[test]
    fn projection_grows_monotonically() {
        let t = table();
        let mut cache = SnapshotCache::new();
        let s = cache.snapshot_projected(&t, &[0]);
        assert!(s.has_column(0) && !s.has_column(2));
        let s = cache.snapshot_projected(&t, &[2]);
        assert_eq!(cache.encodes(), 2);
        assert!(s.has_column(0) && s.has_column(2), "union of projections");
        cache.snapshot_projected(&t, &[0, 2]);
        assert_eq!(cache.encodes(), 2, "covered projection is a cache hit");
    }

    #[test]
    fn detect_cached_matches_native_across_patches() {
        let mut t = table();
        let cfds = parse_cfds("r: [A] -> [B]\nr: [A='x'] -> [C='p']").unwrap();
        let mut cache = SnapshotCache::new();
        assert!(detect_cached(&mut cache, &t, &cfds).unwrap().is_empty());
        // Violate both rules through patched mutations.
        let id = t
            .insert(vec![Value::str("x"), Value::str("9"), Value::str("zz")])
            .unwrap();
        cache.note_insert(&t, id);
        let got = detect_cached(&mut cache, &t, &cfds).unwrap().normalized();
        let want = detect_native(&t, &cfds).unwrap().normalized();
        assert_eq!(got, want);
        assert!(!got.is_empty());
        assert_eq!(cache.encodes(), 1, "detects rode the patched snapshot");
    }

    #[test]
    fn untouched_cfds_replay_their_fragments() {
        let mut t = table();
        // Rule 1 over (A, B); rule 2 over (A, C); rule 3 constant over C.
        let cfds = parse_cfds("r: [A] -> [B]\nr: [A] -> [C]\nr: [A='x'] -> [C='p']").unwrap();
        let mut cache = SnapshotCache::new();
        detect_cached(&mut cache, &t, &cfds).unwrap();
        assert_eq!(cache.fragments_computed(), 3);
        // Unchanged table: all three fragments replay.
        detect_cached(&mut cache, &t, &cfds).unwrap();
        assert_eq!(cache.fragments_computed(), 3);
        assert_eq!(cache.fragments_reused(), 3);
        // Touch column B: only the (A, B) rule recomputes.
        t.update_cell(RowId(1), 1, Value::str("changed")).unwrap();
        cache.note_set_cell(&t, RowId(1), 1);
        let got = detect_cached(&mut cache, &t, &cfds).unwrap().normalized();
        assert_eq!(cache.fragments_computed(), 4);
        assert_eq!(cache.fragments_reused(), 5);
        assert_eq!(got, detect_native(&t, &cfds).unwrap().normalized());
        // An insert changes the row set: every fragment recomputes.
        let id = t
            .insert(vec![Value::str("x"), Value::str("1"), Value::str("q")])
            .unwrap();
        cache.note_insert(&t, id);
        let got = detect_cached(&mut cache, &t, &cfds).unwrap().normalized();
        assert_eq!(cache.fragments_computed(), 7);
        assert_eq!(got, detect_native(&t, &cfds).unwrap().normalized());
    }

    #[test]
    fn memo_survives_projection_growth_at_same_epoch() {
        let t = table();
        let ab = parse_cfds("r: [A] -> [B]").unwrap();
        let abc = parse_cfds("r: [A] -> [B]\nr: [A] -> [C]").unwrap();
        let mut cache = SnapshotCache::new();
        detect_cached(&mut cache, &t, &ab).unwrap();
        assert_eq!(cache.encodes(), 1);
        // The wider CFD set forces a re-encode (column C was projected
        // away) at the same epoch — the (A, B) fragment is still valid.
        let got = detect_cached(&mut cache, &t, &abc).unwrap().normalized();
        assert_eq!(cache.encodes(), 2);
        assert_eq!(cache.fragments_reused(), 1);
        assert_eq!(cache.fragments_computed(), 2);
        assert_eq!(got, detect_native(&t, &abc).unwrap().normalized());
    }

    #[test]
    fn memo_never_leaks_across_table_lineages() {
        // Fragments memoized for one table must not replay into the report
        // of a different table handed to the same cache — even when the new
        // table's epoch is *lower* than the fragment's (the epoch-arithmetic
        // blind spot the lineage check exists for).
        let mut dirty = Table::new("r", Schema::of_strings(&["A", "B", "C"]));
        for (a, c) in [("x", "p"), ("x", "q"), ("y", "p")] {
            dirty
                .insert(vec![Value::str(a), Value::str("1"), Value::str(c)])
                .unwrap();
        }
        // Push the dirty table's epoch above the clean table's.
        for _ in 0..8 {
            let id = dirty
                .insert(vec![Value::str("x"), Value::str("1"), Value::str("q")])
                .unwrap();
            dirty.delete(id).unwrap();
        }
        let cfds = parse_cfds("r: [A] -> [C]").unwrap();
        let mut cache = SnapshotCache::new();
        assert!(!detect_cached(&mut cache, &dirty, &cfds).unwrap().is_empty());
        // Same name, same schema, lower epoch, clean data.
        let mut clean = Table::new("r", Schema::of_strings(&["A", "B", "C"]));
        clean
            .insert(vec![Value::str("x"), Value::str("1"), Value::str("p")])
            .unwrap();
        assert!(clean.epoch() < dirty.epoch());
        let report = detect_cached(&mut cache, &clean, &cfds).unwrap();
        assert!(
            report.is_empty(),
            "stale fragment replayed into the clean table's report"
        );
    }

    #[test]
    fn unreported_mutation_invalidates_fragments() {
        let mut t = table();
        let cfds = parse_cfds("r: [A] -> [C]").unwrap();
        let mut cache = SnapshotCache::new();
        assert!(detect_cached(&mut cache, &t, &cfds).unwrap().is_empty());
        // Mutate without note_*: the stale fragment must not be replayed.
        t.update_cell(RowId(2), 2, Value::str("conflict")).unwrap();
        let got = detect_cached(&mut cache, &t, &cfds).unwrap().normalized();
        assert_eq!(got, detect_native(&t, &cfds).unwrap().normalized());
        assert!(!got.is_empty());
        assert_eq!(cache.fragments_reused(), 0);
    }

    #[test]
    fn note_batch_equals_per_mutation_notes() {
        // One batch of mixed mutations, replayed in one pass, must leave
        // the same snapshot a per-mutation note_* stream leaves.
        let mut t_batch = table();
        let mut t_steps = t_batch.clone();
        let mut batched = SnapshotCache::new();
        let mut stepped = SnapshotCache::new();
        batched.snapshot(&t_batch);
        stepped.snapshot(&t_steps);

        // Apply: two inserts, one cell set, one delete. The stepped arm
        // notes each mutation as it lands (lock-step); the batched arm
        // applies everything first and replays one batch.
        let mut deltas = Vec::new();
        for (a, b, c) in [("p", "7", "x"), ("q", "8", "y")] {
            let row = vec![Value::str(a), Value::str(b), Value::str(c)];
            let id = t_batch.insert(row.clone()).unwrap();
            deltas.push(TableDelta::Inserted(id));
            let id = t_steps.insert(row).unwrap();
            stepped.note_insert(&t_steps, id);
        }
        t_batch.update_cell(RowId(0), 1, Value::str("set")).unwrap();
        deltas.push(TableDelta::CellSet(RowId(0), 1));
        t_steps.update_cell(RowId(0), 1, Value::str("set")).unwrap();
        stepped.note_set_cell(&t_steps, RowId(0), 1);
        t_batch.delete(RowId(2)).unwrap();
        deltas.push(TableDelta::Deleted(RowId(2)));
        t_steps.delete(RowId(2)).unwrap();
        stepped.note_delete(&t_steps, RowId(2));

        batched.note_batch(&t_batch, &deltas);

        let a = batched.snapshot(&t_batch);
        let b = stepped.snapshot(&t_steps);
        assert_eq!(batched.encodes(), 1, "batch was patched, not re-encoded");
        assert_eq!(a.row_ids(), b.row_ids());
        for col in 0..3 {
            for pos in 0..a.n_rows() {
                assert_eq!(
                    a.column(col).value_at(pos),
                    b.column(col).value_at(pos),
                    "cell ({pos}, {col})"
                );
            }
        }
    }

    #[test]
    fn note_batch_detects_like_native_across_runs() {
        let mut t = table();
        let cfds = parse_cfds("r: [A] -> [B]\nr: [A='x'] -> [C='p']").unwrap();
        let mut cache = SnapshotCache::new();
        assert!(detect_cached(&mut cache, &t, &cfds).unwrap().is_empty());
        let mut deltas = Vec::new();
        let id = t
            .insert(vec![Value::str("x"), Value::str("9"), Value::str("zz")])
            .unwrap();
        deltas.push(TableDelta::Inserted(id));
        t.update_cell(RowId(1), 0, Value::str("x")).unwrap();
        deltas.push(TableDelta::CellSet(RowId(1), 0));
        cache.note_batch(&t, &deltas);
        let got = detect_cached(&mut cache, &t, &cfds).unwrap().normalized();
        let want = detect_native(&t, &cfds).unwrap().normalized();
        assert_eq!(got, want);
        assert!(!got.is_empty());
        assert_eq!(cache.encodes(), 1, "detect rode the batch-patched snapshot");
    }

    #[test]
    fn note_batch_insert_then_delete_same_row_falls_back() {
        let mut t = table();
        let mut cache = SnapshotCache::new();
        cache.snapshot(&t);
        let id = t
            .insert(vec![Value::str("gone"), Value::Null, Value::Null])
            .unwrap();
        t.delete(id).unwrap();
        cache.note_batch(&t, &[TableDelta::Inserted(id), TableDelta::Deleted(id)]);
        // Unrecoverable replay → invalidated → next access re-encodes and
        // is correct.
        let s = cache.snapshot(&t);
        assert_eq!(cache.encodes(), 2);
        assert_eq!(s.n_rows(), 3);
    }

    #[test]
    fn note_batch_epoch_gap_invalidates() {
        let mut t = table();
        let mut cache = SnapshotCache::new();
        cache.snapshot(&t);
        let id = t
            .insert(vec![Value::str("a"), Value::str("b"), Value::str("c")])
            .unwrap();
        t.update_cell(id, 0, Value::str("unreported")).unwrap();
        // Batch reports only the insert; the table is 2 epochs ahead.
        cache.note_batch(&t, &[TableDelta::Inserted(id)]);
        cache.snapshot(&t);
        assert_eq!(cache.encodes(), 2, "partial report forces re-encode");
    }

    #[test]
    fn patched_and_rebuilt_snapshots_detect_identically() {
        let mut t = table();
        let cfds = parse_cfds("r: [A] -> [C]").unwrap();
        let mut patched = SnapshotCache::new();
        let mut rebuilt = SnapshotCache::new().with_delta_threshold(0.0);
        for cache in [&mut patched, &mut rebuilt] {
            cache.snapshot(&t);
        }
        t.update_cell(RowId(2), 2, Value::str("conflict")).unwrap();
        for cache in [&mut patched, &mut rebuilt] {
            cache.note_set_cell(&t, RowId(2), 2);
        }
        let a = detect_on_snapshot(&patched.snapshot(&t), &cfds)
            .unwrap()
            .normalized();
        let b = detect_on_snapshot(&rebuilt.snapshot(&t), &cfds)
            .unwrap()
            .normalized();
        assert_eq!(a, b);
        assert!(patched.encodes() < rebuilt.encodes());
    }
}
