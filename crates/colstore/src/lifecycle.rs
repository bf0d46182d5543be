//! Epoch-versioned snapshot lifecycle: cache + incremental maintenance.
//!
//! A [`SnapshotCache`] holds one `Arc<Snapshot>` tagged with the
//! [`minidb::Table::epoch`] it was encoded at. [`SnapshotCache::snapshot`]
//! answers from the cache when the epochs match (zero encode work for
//! repeat detects over an unchanged table) and re-encodes otherwise. For
//! callers that *know* their deltas — the data monitor's update stream, the
//! repair loops' cell edits, a server's ingest batches — the cache patches
//! the snapshot in lock-step with the table instead of re-encoding. Each
//! mutation is reported as a [`TableDelta`], one at a time (`note_insert`,
//! `note_delete`, `note_set_cell`) or as a batch
//! ([`SnapshotCache::note_batch`]), and one routine applies them all:
//!
//! * an insert appends the encoded row, interning novel values into the
//!   existing per-column dictionaries (a run of inserts appends in one
//!   pass);
//! * a delete swap-removes the row's snapshot position (detection is
//!   order-insensitive after `normalized()`);
//! * a cell overwrite re-encodes the single touched cell.
//!
//! Deletes and cell overwrites find their row through a `RowId → position`
//! index, built on first use after each full encode and maintained across
//! patches.
//!
//! Patches are cheap but monotone — dictionaries only grow, and a long
//! patch history accumulates codes no live row references. Past a delta
//! threshold (a fraction of the snapshot's rows) the cache drops the
//! snapshot and the next access pays one full re-encode, resetting the
//! bookkeeping. Every report verifies the table is exactly as many epochs
//! ahead of the snapshot as it carries deltas (one per mutation); any
//! other gap — a mutation the caller didn't report — invalidates the
//! cache, so it can never silently serve stale data.
//!
//! On top of the snapshot the cache keeps **per-column epochs** (when did
//! this column's content last change? when did the row set last change?)
//! and, for [`detect_cached`], one **state per CFD**: the CFD's
//! materialized violations (its *fragment*) and, once a write has made
//! that fragment stale, its group state in code space:
//!
//! * a variable CFD keeps every LHS group, keyed by the LHS codes in
//!   fixed 32-bit lanes, with its RHS code counts and its members as
//!   `(RowId, RHS code)` in row-id order;
//! * a constant CFD keeps its violating rows (which are its fragment).
//!
//! The patch routine keeps the group state in step with the snapshot: it
//! takes a row's old codes out of every state before a cell overwrite or
//! a delete, puts its new codes in after an overwrite or an insert, and
//! marks the groups it touched. A detect then replays a fragment whose
//! columns are untouched, re-materializes only the touched groups of a
//! patched CFD, and rescans only a CFD without usable state — so a write
//! costs O(touched groups), not a scan of the relation. The report's
//! `vio(t)` tally is kept standing beside the fragments and patched with
//! them. Codes only mean something in the snapshot they were read from,
//! so the group state lives for one encode: a rebuild drops it, and a CFD
//! whose pattern constants resolve differently since seeding (a patch
//! interned a constant that was absent) is reseeded. A rebuild forced by
//! the patch budget keeps the table's lineage, so its detect reseeds
//! every CFD that had state from its own rescan, and the next write
//! patches it; a rebuild after an epoch gap or a failed replay starts
//! over.
//!
//! Once an audit has run, the auditor keeps state of its own beside the
//! detect state: per (row, constrained column), how many CFDs the row
//! violates on its own, sits on the minority or the majority side of, and
//! is verified by, plus the class counts, a `vio(t)` histogram and a
//! group-size histogram (`crate::grades`). They move at the same places
//! as the tally: a re-materialized group diffs its old and new members,
//! a rescanned variable CFD moves its fragment out and in, and a patched
//! row re-evaluates the constant CFDs over the touched column. So an
//! audit after a write grades only the rows the write touched. The
//! counters answer only when a [`detect_cached`] under the same rule set
//! left every fragment current at the table's epoch; a re-encode, a
//! changed rule set or a constant CFD's rescan drops them, and the next
//! such audit seeds them again from a full pass. A server that never
//! audits never seeds them and pays nothing.
//!
//! Without them — a SQL detector's report, say — [`audit_cached`] builds
//! the Fig. 4 quality report from the detection report (each violating
//! group carries its members' RHS value counts, so the majority side is
//! read off them) plus [`grade_snapshot`], one code scan per constant CFD
//! over the cached snapshot for the rows it verifies. That pass is also
//! the oracle [`SnapshotCache::verify_state`] checks the counters
//! against. Neither path reads or hashes a `Value` row. The sharded
//! cluster grades its shards' snapshots with the same [`grade_snapshot`].

use std::sync::{Arc, OnceLock};

use audit::{QualityReport, ReportBuilder};
use cfd::{BoundCfd, Cfd, CfdResult, Pattern};
use detect::fxhash::FxHashMap;
use detect::{VioTally, Violation, ViolationKind, ViolationReport};
use minidb::{RowId, Table, Value};

use crate::detect::{
    detect_constant, group_by_codes, needed_columns, note_violating_group, resolve,
    verify_constant, DecodedGroup, LaneKey, Resolved,
};
use crate::grades::{Grades, SINGLE, VERIFIED};
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
    groups_rematerialized: Arc<obs::Counter>,
    audit_seeds: Arc<obs::Counter>,
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
        groups_rematerialized: obs::counter("colstore_groups_rematerialized_total"),
        audit_seeds: obs::counter("audit_seeds_total"),
        spill_chunks: obs::counter("colstore_spill_chunks_total"),
    })
}

/// One reported mutation of the observed table — the unit every
/// `note_*` method hands to the cache's patch routine. `note_insert`,
/// `note_delete` and `note_set_cell` report one; [`SnapshotCache::note_batch`]
/// replays a slice of them (an ingest batch, a repair round's edits).
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
    /// Which encode the snapshot came from (the cache's encode count at
    /// the time): group state read from another encode's codes is stale.
    gen: u64,
    /// Table epoch the snapshot mirrors.
    epoch: u64,
    /// `RowId → snapshot position`, built lazily by the first delete or
    /// cell overwrite and maintained across appends and swap-removes.
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

    /// Apply the leading delta of `deltas` — or its leading run of
    /// inserts, appended in one pass — at `table`'s epoch, and patch the
    /// group state `st` keeps for this snapshot along with it. Returns how
    /// many deltas were consumed and how many patches they made, or
    /// `None` when the stream cannot be replayed: a target row the
    /// snapshot does not hold, or an inserted row the table no longer has.
    fn patch(
        &mut self,
        table: &Table,
        deltas: &[TableDelta],
        st: &mut DetectState,
    ) -> Option<(usize, usize)> {
        let epoch = table.epoch();
        match deltas[0] {
            TableDelta::Inserted(_) => {
                let mut rows: Vec<(RowId, &[Value])> = Vec::new();
                for d in deltas {
                    let TableDelta::Inserted(id) = *d else {
                        break;
                    };
                    rows.push((id, table.get(id).ok()?));
                }
                let base = self.snap.n_rows();
                if let Some(ix) = &mut self.pos {
                    for (off, (id, _)) in rows.iter().enumerate() {
                        ix.insert(*id, (base + off) as u32);
                    }
                }
                Arc::make_mut(&mut self.snap).append_rows(&rows);
                for (off, (id, _)) in rows.iter().enumerate() {
                    st.admit(&self.snap, self.gen, base + off, *id);
                }
                self.rows_epoch = epoch;
                Some((rows.len(), rows.len()))
            }
            TableDelta::Deleted(id) => {
                let pos = self.position(id)?;
                st.retract(&self.snap, self.gen, pos as usize, id);
                let moved = Arc::make_mut(&mut self.snap).swap_remove_row(pos as usize);
                // Only the swapped-in last row changes position.
                let ix = self.pos.as_mut().expect("index built by position()");
                ix.remove(&id);
                if let Some(m) = moved {
                    ix.insert(m, pos);
                }
                self.rows_epoch = epoch;
                Some((1, 1))
            }
            TableDelta::CellSet(id, col) => {
                let pos = self.position(id)?;
                if let Some(e) = self.col_epochs.get_mut(col) {
                    *e = epoch;
                }
                if !self.snap.has_column(col) {
                    return Some((1, 0));
                }
                let value = table.cell(id, col).ok()?;
                let pos = pos as usize;
                let before = st.places(&self.snap, self.gen, pos, col);
                Arc::make_mut(&mut self.snap).set_cell(pos, col, value);
                st.overwrite(&self.snap, self.gen, (pos, id, col), before);
                Some((1, 1))
            }
        }
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
    /// Table name and epoch of a snapshot dropped for running out of
    /// patch budget: the table it mirrored is still the one observed, so
    /// the next encode keeps the detect state.
    budget_dropped: Option<(String, u64)>,
    delta_threshold: f64,
    /// Rows per code chunk for snapshots this cache encodes; `None` uses
    /// the process default ([`crate::column::default_chunk_rows`]).
    chunk_rows: Option<usize>,
    encodes: u64,
    patches: u64,
    /// Per-CFD detect state kept by [`detect_cached`]. Fragments survive
    /// snapshot rebuilds on the same table lineage, a budget rebuild
    /// included (the epoch bookkeeping decides their freshness, not the
    /// rebuild); group state lives for one encode, and a CFD that had
    /// state is reseeded by the rescan after the rebuild.
    state: DetectState,
    fragments_computed: u64,
    fragments_reused: u64,
    groups_rematerialized: u64,
    audit_seeds: u64,
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
            budget_dropped: None,
            delta_threshold: DEFAULT_DELTA_THRESHOLD,
            chunk_rows: None,
            encodes: 0,
            patches: 0,
            state: DetectState::default(),
            fragments_computed: 0,
            fragments_reused: 0,
            groups_rematerialized: 0,
            audit_seeds: 0,
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
        // lineage moving forward (same name, epoch not regressed), from the
        // cached snapshot or one dropped only for its patch budget. Anything
        // else — a different table handed to this cache, an epoch that went
        // backwards, or a cache that was invalidated and lost its identity
        // — drops the detect state wholesale; a fragment whose epoch is ≥
        // the new table's epoch would otherwise replay another table's
        // violations. (Group state never outlives its encode either way.)
        let last = match (&self.cached, &self.budget_dropped) {
            (Some(c), _) => Some((c.snap.name(), c.epoch)),
            (None, dropped) => dropped
                .as_ref()
                .map(|(name, epoch)| (name.as_str(), *epoch)),
        };
        let same_lineage =
            last.is_some_and(|(name, epoch)| name == table.name() && table.epoch() >= epoch);
        self.budget_dropped = None;
        if !same_lineage {
            self.state = DetectState::default();
        }
        // The audit's counters track the live rows of the snapshot they
        // were seeded on, through its patches; a re-encode drops them.
        self.state.tally.grades = None;
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
            gen: self.encodes,
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

    /// Number of per-CFD detect fragments replayed unchanged (their
    /// columns and the row set were untouched since they were computed).
    pub fn fragments_reused(&self) -> u64 {
        self.fragments_reused
    }

    /// Number of violating groups [`detect_cached`] re-materialized from
    /// patched group state: a patched CFD costs one per LHS group its
    /// writes touched, where a rescan would have cost a whole fragment.
    pub fn groups_rematerialized(&self) -> u64 {
        self.groups_rematerialized
    }

    /// Number of times [`audit_cached`] seeded the audit's counters from
    /// a full grading pass: once after a detect on a fresh lineage, a
    /// rebuild, a constant CFD's rescan or a changed rule set. An audit
    /// after a write the counters followed seeds nothing.
    pub fn audit_seeds(&self) -> u64 {
        self.audit_seeds
    }

    /// Check the detect state against a fresh scan of the cached snapshot,
    /// for tests: every group state still tied to this snapshot must hold
    /// exactly the groups (keys, RHS code counts, members) a grouping scan
    /// finds, or the violating rows a constant scan finds, with no patched
    /// group left un-materialized and each violating group's fragment
    /// entry equal to a fresh materialization; the standing tally must
    /// equal the sum over every fragment; and the audit's counters, once
    /// seeded, must grade every live row as a fresh
    /// [`ReportBuilder::mark_report`] + [`grade_snapshot`] pass does, with
    /// class counts and histograms to match. Call it after a
    /// [`detect_cached`]. Returns how many group states were checked, or
    /// the first difference. Rescans every CFD.
    pub fn verify_state(&self) -> Result<usize, String> {
        let mut want = Tally::default();
        for (idx, s) in self.state.cfds.iter().enumerate() {
            want.fragment(idx, s, true);
        }
        if want.vio != self.state.tally.vio {
            return Err("the standing tally differs from its fragments' sum".into());
        }
        let Some(c) = &self.cached else {
            return Ok(0);
        };
        if let Some(grades) = &self.state.tally.grades {
            self.verify_grades(grades, &c.snap)
                .map_err(|e| format!("audit counters: {e}"))?;
        }
        let snap = &c.snap;
        let mut checked = 0;
        for (idx, s) in self.state.cfds.iter().enumerate() {
            let Some(code) = s.code.as_ref().filter(|k| k.gen == c.gen) else {
                continue;
            };
            let fail = |what: &str| Err(format!("cfd {idx} ({}): {what}", s.cfd));
            let b = s.cfd.bind(snap.schema()).map_err(|e| e.to_string())?;
            let r = resolve(snap, &b);
            if r != code.res {
                return fail("pattern constants resolve differently since seeding");
            }
            match (&code.groups, &r) {
                (None, r) => {
                    let mut scratch = ViolationReport::default();
                    if let Some(r) = r {
                        detect_constant(snap, 0, r, &mut scratch);
                    }
                    if scratch.dirty_rows() != s.singles {
                        return fail("violating rows differ from a fresh scan");
                    }
                }
                (Some(vg), None) => {
                    if !vg.index.is_empty() || !s.groups.is_empty() {
                        return fail("a vacuous CFD holds groups");
                    }
                }
                (Some(vg), Some(r)) => {
                    if !vg.dirty.is_empty() {
                        return fail("patched groups left un-materialized");
                    }
                    let scanned = group_by_codes(snap, r);
                    if scanned.len() != vg.index.len() {
                        return fail("group count differs from a fresh scan");
                    }
                    for (key, g) in scanned {
                        let Some(&slot) = vg.index.get(&r.lane_key(snap, &key)) else {
                            return fail("a scanned group is missing");
                        };
                        let kept = &vg.groups[slot as usize];
                        let mut members: Vec<(RowId, u32)> = g
                            .rows
                            .iter()
                            .map(|&(pos, code)| (snap.row_id(pos as usize), code))
                            .collect();
                        members.sort_unstable();
                        let mut counts: Vec<(u32, u32)> = Vec::new();
                        for &(_, code) in &members {
                            match counts.iter_mut().find(|(c, _)| *c == code) {
                                Some((_, n)) => *n += 1,
                                None => counts.push((code, 1)),
                            }
                        }
                        let mut kept_counts = kept.counts.clone();
                        counts.sort_unstable();
                        kept_counts.sort_unstable();
                        if kept.members != members || kept_counts != counts {
                            return fail("a group's members or counts differ");
                        }
                        if kept.violates() != (kept.at != NO_SLOT) {
                            return fail("a group's fragment entry is out of step");
                        }
                        if kept.at != NO_SLOT
                            && (vg.owner[kept.at as usize] != slot
                                || s.groups[kept.at as usize] != kept.materialize(snap, r))
                        {
                            return fail("a violating group's fragment entry is stale");
                        }
                    }
                    if vg.owner.len() != s.groups.len() {
                        return fail("the fragment holds a group the state does not");
                    }
                }
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// Check `grades` against a fresh pass 1 over the detect state's
    /// report and a fresh pass 2 over `snap`.
    fn verify_grades(&self, grades: &Grades, snap: &Snapshot) -> Result<(), String> {
        let cfds: Vec<Cfd> = self.state.cfds.iter().map(|s| s.cfd.clone()).collect();
        let arena = snap.row_ids().iter().map(|id| id.index() + 1).max();
        let mut oracle = ReportBuilder::new(snap.schema(), arena.unwrap_or(0), &cfds)
            .map_err(|e| e.to_string())?;
        oracle.mark_report(&self.state.report());
        let verified = verified_cells(snap, &oracle);
        let (width, n) = (oracle.width(), snap.n_rows());
        let graded = snap.row_ids().iter().enumerate().map(|(pos, &id)| {
            let cells: Vec<bool> = (0..width).map(|s| verified[s * n + pos]).collect();
            (id, oracle.classes_of(id, &cells))
        });
        let sizes = self
            .state
            .cfds
            .iter()
            .flat_map(|s| s.groups.iter().map(|(_, rows, _)| rows.len()));
        grades.check(graded, &self.state.tally.vio, sizes)
    }

    /// Is a result computed at `epoch` over columns `cols` (schema
    /// positions) still current? True iff the live-row membership and every
    /// one of those columns are unchanged since then — the freshness probe
    /// behind [`detect_cached`]'s replays, public so external per-CFD caches
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
        self.apply(table, &[TableDelta::Inserted(id)]);
    }

    /// Record that `id` was just deleted from `table` (call *after* the
    /// delete): swap-removes the row's snapshot position.
    pub fn note_delete(&mut self, table: &Table, id: RowId) {
        self.apply(table, &[TableDelta::Deleted(id)]);
    }

    /// Record that cell (`id`, `col`) of `table` was just overwritten (call
    /// *after* the update): re-encodes the one cell, interning a novel
    /// value into the column's dictionary. Columns outside the cached
    /// projection advance the epoch without patch work — the snapshot never
    /// claimed to represent them.
    pub fn note_set_cell(&mut self, table: &Table, id: RowId, col: usize) {
        self.apply(table, &[TableDelta::CellSet(id, col)]);
    }

    /// Replay a whole mutation batch against the cached snapshot — the
    /// entry point behind the single-node server's `apply_batch`. The
    /// table must be exactly `deltas.len()` epochs ahead of the snapshot
    /// (one epoch per delta); the batch pays one epoch-gap check, and
    /// each run of inserts is appended with one copy-on-write unsharing
    /// and one reservation per column (`Snapshot::append_rows`).
    ///
    /// The replay reads the table's *current* values. A row the batch
    /// inserts or overwrites and then deletes leaves no value to read, so
    /// that (rare) shape invalidates the cache and the next access
    /// re-encodes — never a correctness hazard, exactly the
    /// unreported-mutation fallback.
    pub fn note_batch(&mut self, table: &Table, deltas: &[TableDelta]) {
        if deltas.is_empty() {
            return;
        }
        cache_obs().batch_rows.record(deltas.len() as u64);
        self.apply(table, deltas);
    }

    /// The one patch routine behind every `note_*` method: apply `deltas`
    /// in order, or invalidate the cache when they cannot be replayed.
    fn apply(&mut self, table: &Table, deltas: &[TableDelta]) {
        let steps = deltas.len() as u64;
        let Some(c) = patchable(
            &mut self.cached,
            &mut self.budget_dropped,
            self.delta_threshold,
            table,
            steps,
        ) else {
            return;
        };
        let mut rest = deltas;
        while !rest.is_empty() {
            let Some((consumed, patched)) = c.patch(table, rest, &mut self.state) else {
                self.cached = None;
                return;
            };
            rest = &rest[consumed..];
            c.patched += patched;
            self.patches += patched as u64;
            cache_obs().patches.add(patched as u64);
        }
        c.epoch = table.epoch();
    }
}

/// Hand out the cached snapshot for patching when it is exactly `steps`
/// epochs behind `table` and under the patch budget; otherwise invalidate
/// and return `None` (the caller's mutation stream missed an update, or
/// the threshold was crossed — either way the next access re-encodes).
/// Only a crossed threshold leaves the table's lineage in
/// `budget_dropped`: the snapshot was in step, so the state stays valid.
fn patchable<'a>(
    cached: &'a mut Option<Cached>,
    budget_dropped: &mut Option<(String, u64)>,
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
        if in_step {
            *budget_dropped = Some((c.snap.name().to_string(), c.epoch));
        }
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

/// Group-slot sentinel: the group has no violation in its CFD's fragment.
const NO_SLOT: u32 = u32::MAX;

/// One LHS group of a variable CFD in code space — exactly what a
/// grouping scan of the current snapshot finds under its key.
struct CodeGroup {
    key: LaneKey,
    /// Distinct RHS codes, each with its member count.
    counts: Vec<(u32, u32)>,
    /// `(row id, RHS code)` per member, in row-id order.
    members: Vec<(RowId, u32)>,
    /// Index of the group's violation in its CFD's fragment, or
    /// [`NO_SLOT`].
    at: u32,
    /// Queued on [`VarGroups::dirty`].
    dirty: bool,
}

impl CodeGroup {
    fn new(key: LaneKey) -> CodeGroup {
        CodeGroup {
            key,
            counts: Vec::new(),
            members: Vec::new(),
            at: NO_SLOT,
            dirty: false,
        }
    }

    fn count(&mut self, code: u32) {
        match self.counts.iter_mut().find(|(c, _)| *c == code) {
            Some((_, n)) => *n += 1,
            None => self.counts.push((code, 1)),
        }
    }

    fn add(&mut self, id: RowId, code: u32) {
        self.count(code);
        let i = self.members.partition_point(|&(r, _)| r < id);
        self.members.insert(i, (id, code));
    }

    fn uncount(&mut self, code: u32) {
        if let Some(k) = self.counts.iter().position(|&(c, _)| c == code) {
            self.counts[k].1 -= 1;
            if self.counts[k].1 == 0 {
                self.counts.swap_remove(k);
            }
        }
    }

    fn remove(&mut self, id: RowId) {
        if let Ok(i) = self.members.binary_search_by_key(&id, |&(r, _)| r) {
            let (_, code) = self.members.remove(i);
            self.uncount(code);
        }
    }

    /// Member `id` now holds RHS code `code`.
    fn recode(&mut self, id: RowId, code: u32) {
        if let Ok(i) = self.members.binary_search_by_key(&id, |&(r, _)| r) {
            let was = std::mem::replace(&mut self.members[i].1, code);
            self.uncount(was);
            self.count(code);
        }
    }

    /// The group violates: it holds ≥ 2 distinct RHS codes.
    fn violates(&self) -> bool {
        self.counts.len() >= 2
    }

    /// The group's violation in the report's format. Each distinct RHS
    /// code is decoded once; a member's multiplicity is its code's count.
    fn materialize(&self, snap: &Snapshot, r: &Resolved) -> DecodedGroup {
        let dict = snap.column(r.rhs_col()).dictionary();
        let values: Vec<(u32, Value, u64)> = self
            .counts
            .iter()
            .map(|&(code, n)| (code, dict.decode(code), u64::from(n)))
            .collect();
        let (rows, own): (Vec<(RowId, Value)>, Vec<u64>) = self
            .members
            .iter()
            .map(|&(id, code)| {
                let (_, v, n) = values
                    .iter()
                    .find(|(c, _, _)| *c == code)
                    .expect("every member's code is counted");
                ((id, v.clone()), *n)
            })
            .unzip();
        (
            r.decode_lanes(snap, &self.key),
            Arc::new(rows),
            Arc::new(own),
        )
    }
}

/// The group state of one variable CFD: every non-empty LHS group, and
/// which of them patches touched since the last detect.
#[derive(Default)]
struct VarGroups {
    index: FxHashMap<LaneKey, u32>,
    groups: Vec<CodeGroup>,
    /// Slots of groups that emptied, for the next new key.
    free: Vec<u32>,
    /// Slots of the groups touched since their last materialization.
    dirty: Vec<u32>,
    /// Per violation of the CFD's fragment, the slot of its group.
    owner: Vec<u32>,
}

impl VarGroups {
    fn mark(&mut self, slot: u32) {
        let g = &mut self.groups[slot as usize];
        if !g.dirty {
            g.dirty = true;
            self.dirty.push(slot);
        }
    }

    fn retract(&mut self, key: &LaneKey, id: RowId) {
        if let Some(&slot) = self.index.get(key) {
            self.groups[slot as usize].remove(id);
            self.mark(slot);
        }
    }

    /// Move member `id` from place `old` to place `new`.
    fn relocate(&mut self, id: RowId, old: Place, new: Place) {
        match (old, new) {
            (Some((from, was)), Some((to, code))) if from == to => {
                if was != code {
                    if let Some(&slot) = self.index.get(&to) {
                        self.groups[slot as usize].recode(id, code);
                        self.mark(slot);
                    }
                }
            }
            (old, new) => {
                if let Some((key, _)) = old {
                    self.retract(&key, id);
                }
                if let Some((key, code)) = new {
                    self.admit(key, id, code);
                }
            }
        }
    }

    fn admit(&mut self, key: LaneKey, id: RowId, code: u32) {
        let slot = match self.index.get(&key) {
            Some(&slot) => slot,
            None => {
                let g = CodeGroup::new(key.clone());
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.groups[slot as usize] = g;
                        slot
                    }
                    None => {
                        self.groups.push(g);
                        (self.groups.len() - 1) as u32
                    }
                };
                self.index.insert(key, slot);
                slot
            }
        };
        self.groups[slot as usize].add(id, code);
        self.mark(slot);
    }
}

/// Where a row sits in a variable CFD's grouping: its LHS key and RHS
/// code, or `None` outside every group.
type Place = Option<(LaneKey, u32)>;

/// The code-space half of a CFD's state. Codes only mean something in
/// the snapshot they were read from, so it is valid for one encode
/// (`gen`) and patched in lock-step with that snapshot.
struct CodeState {
    gen: u64,
    /// The pattern constants as resolved at seeding (`None`: an LHS
    /// constant no row holds, so the CFD holds vacuously). A patch that
    /// interns a missing constant changes the resolution, and the state is
    /// then reseeded.
    res: Option<Resolved>,
    /// A variable CFD's groups; `None` for a constant CFD, whose violating
    /// rows are its fragment.
    groups: Option<VarGroups>,
}

/// What [`detect_cached`] keeps of one CFD between calls.
struct CfdState {
    cfd: Cfd,
    /// Table epoch the fragment reflects; `None` until first computed.
    epoch: Option<u64>,
    /// The fragment of a constant CFD: its violating rows, ascending.
    singles: Vec<RowId>,
    /// The fragment of a variable CFD: its violating groups, decoded, by
    /// first member ([`sort_groups`]).
    groups: Vec<DecodedGroup>,
    /// Group state; `None` until seeded, and stale once `gen` is not the
    /// cached snapshot's.
    code: Option<CodeState>,
}

impl CfdState {
    fn new(cfd: Cfd) -> CfdState {
        CfdState {
            cfd,
            epoch: None,
            singles: Vec::new(),
            groups: Vec::new(),
            code: None,
        }
    }

    /// Rescan the CFD, number `idx` of the rule set, over `snap` under
    /// resolution `r`. A constant CFD's state is its fragment, so it is
    /// always kept. A variable CFD keeps its groups only on a recompute: a
    /// first computation materializes the violating groups of its grouping
    /// scan and keeps none, for the state pays off only once a write has
    /// made the fragment stale. The audit's counters follow a variable
    /// CFD's fragment out and in; a constant CFD's rescan drops them, for
    /// the rows it verified under its old state are not known.
    fn recompute(
        &mut self,
        idx: usize,
        snap: &Snapshot,
        b: &BoundCfd,
        r: Option<Resolved>,
        gen: u64,
        tally: &mut Tally,
    ) {
        let constant = b.cfd.rhs_pat.constant().is_some();
        if constant {
            tally.grades = None;
        }
        tally.fragment(idx, self, false);
        let seed = constant || self.epoch.is_some();
        self.singles.clear();
        self.groups.clear();
        let mut groups = (seed && !constant).then(VarGroups::default);
        if let Some(r) = &r {
            if constant {
                let mut scratch = ViolationReport::default();
                detect_constant(snap, 0, r, &mut scratch);
                self.singles = scratch.dirty_rows();
            } else {
                self.seed(snap, r, groups.as_mut());
            }
        }
        sort_groups(&mut self.groups, groups.as_mut());
        self.code = seed.then_some(CodeState {
            gen,
            res: r,
            groups,
        });
        tally.fragment(idx, self, true);
    }

    /// Fill the fragment with the violating groups of a fresh grouping
    /// scan, and `keep`, if given, with every group.
    fn seed(&mut self, snap: &Snapshot, r: &Resolved, mut keep: Option<&mut VarGroups>) {
        for (key, scanned) in group_by_codes(snap, r) {
            let first = scanned.rows[0].1;
            let violates = scanned.rows.iter().any(|&(_, code)| code != first);
            if !violates && keep.is_none() {
                continue;
            }
            let mut g = CodeGroup::new(r.lane_key(snap, &key));
            g.members = scanned
                .rows
                .iter()
                .map(|&(pos, code)| (snap.row_id(pos as usize), code))
                .collect();
            // A fresh encode scans in row-id order; a patched one does not.
            if !g.members.windows(2).all(|w| w[0].0 < w[1].0) {
                g.members.sort_unstable_by_key(|&(id, _)| id);
            }
            for &(_, code) in &scanned.rows {
                g.count(code);
            }
            if violates {
                note_violating_group(g.members.len());
                g.at = self.groups.len() as u32;
                self.groups.push(g.materialize(snap, r));
            }
            if let Some(vg) = keep.as_deref_mut() {
                let slot = vg.groups.len() as u32;
                if violates {
                    vg.owner.push(slot);
                }
                vg.index.insert(g.key.clone(), slot);
                vg.groups.push(g);
            }
        }
    }

    /// Re-materialize the groups patched since the last detect, moving
    /// `tally` with them (the CFD is number `idx` of the rule set);
    /// returns how many there were.
    fn flush(&mut self, idx: usize, snap: &Snapshot, tally: &mut Tally) -> u64 {
        let Some(CodeState {
            res: Some(r),
            groups: Some(vg),
            ..
        }) = &mut self.code
        else {
            return 0;
        };
        let dirty = std::mem::take(&mut vg.dirty);
        for &slot in &dirty {
            let g = &mut vg.groups[slot as usize];
            g.dirty = false;
            let m = g.violates().then(|| g.materialize(snap, r));
            let old = (g.at != NO_SLOT).then(|| &self.groups[g.at as usize]);
            tally.regroup(idx, old, m.as_ref());
            if let Some(m) = m {
                if g.at == NO_SLOT {
                    g.at = self.groups.len() as u32;
                    self.groups.push(m);
                    vg.owner.push(slot);
                } else {
                    self.groups[g.at as usize] = m;
                }
            } else if g.at != NO_SLOT {
                let at = g.at as usize;
                g.at = NO_SLOT;
                self.groups.swap_remove(at);
                vg.owner.swap_remove(at);
                if let Some(&moved) = vg.owner.get(at) {
                    vg.groups[moved as usize].at = at as u32;
                }
            }
            let g = &mut vg.groups[slot as usize];
            if g.members.is_empty() {
                vg.index.remove(&g.key);
                vg.free.push(slot);
            }
        }
        if !dirty.is_empty() {
            sort_groups(&mut self.groups, Some(vg));
        }
        dirty.len() as u64
    }
}

/// Order a variable CFD's fragment `groups` by first member (members are
/// row-sorted), re-pointing its group state `vg` at them. Patches append
/// and swap-remove groups; in this order the report is already what
/// `normalized()` sorts it into, which then costs one pass instead of a
/// sort whose comparator renders keys to strings.
fn sort_groups(groups: &mut Vec<DecodedGroup>, vg: Option<&mut VarGroups>) {
    let first = |(_, rows, _): &DecodedGroup| rows.first().map(|&(row, _)| row);
    let Some(vg) = vg else {
        groups.sort_unstable_by_key(first);
        return;
    };
    let mut order: Vec<(DecodedGroup, u32)> = std::mem::take(groups)
        .into_iter()
        .zip(vg.owner.drain(..))
        .collect();
    order.sort_unstable_by_key(|(g, _)| first(g));
    for (at, (g, slot)) in order.into_iter().enumerate() {
        vg.groups[slot as usize].at = at as u32;
        groups.push(g);
        vg.owner.push(slot);
    }
}

/// The standing `vio(t)` tally of every fragment [`detect_cached`] keeps,
/// and the audit's counters once an audit has seeded them: both move
/// wherever a fragment does.
#[derive(Default)]
struct Tally {
    vio: VioTally,
    grades: Option<Box<Grades>>,
}

impl Tally {
    fn shift(&mut self, row: RowId, delta: u64, add: bool) {
        if delta == 0 {
            return;
        }
        let was = self.vio.get(row);
        let now = if add {
            self.vio.add(row, delta);
            was + delta
        } else {
            self.vio.sub(row, delta);
            was - delta
        };
        if let Some(g) = &mut self.grades {
            g.vio_moved(was, now);
        }
    }

    /// Add (or take away) one violating group's conflict partners.
    fn partners(&mut self, (_, rows, own): &DecodedGroup, add: bool) {
        let total = rows.len() as u64;
        for ((row, _), n) in rows.iter().zip(own.iter()) {
            self.shift(*row, total - n, add);
        }
    }

    /// A violating group of CFD `cfd` went from `old` to `new` (`None`:
    /// no violation).
    fn regroup(&mut self, cfd: usize, old: Option<&DecodedGroup>, new: Option<&DecodedGroup>) {
        if let Some(g) = old {
            self.partners(g, false);
        }
        if let Some(g) = new {
            self.partners(g, true);
        }
        if let Some(grades) = &mut self.grades {
            grades.regroup(cfd, old, new);
        }
    }

    /// Row `row` became (or stopped being) a single-tuple violation of
    /// CFD `cfd`.
    fn single(&mut self, cfd: usize, row: RowId, add: bool) {
        self.shift(row, 1, add);
        if let Some(g) = &mut self.grades {
            g.touch(cfd, row, SINGLE, add);
        }
    }

    /// Add (or take away) the whole fragment `s` of CFD `cfd`.
    fn fragment(&mut self, cfd: usize, s: &CfdState, add: bool) {
        for &row in &s.singles {
            self.single(cfd, row, add);
        }
        for g in &s.groups {
            self.partners(g, add);
            if let Some(grades) = &mut self.grades {
                grades.group(cfd, g, add);
            }
        }
    }
}

/// A CFD's identity for looking its state up when the rule set changed.
type CfdKey<'a> = (&'a str, &'a [String], &'a str, &'a [Pattern], &'a Pattern);

fn cfd_key(c: &Cfd) -> CfdKey<'_> {
    (&c.relation, &c.lhs, &c.rhs, &c.lhs_pat, &c.rhs_pat)
}

/// Every CFD state [`detect_cached`] keeps, by the CFD's index in the
/// rule set of the last detect, plus their standing tally.
#[derive(Default)]
struct DetectState {
    cfds: Vec<CfdState>,
    tally: Tally,
    /// Table epoch at which [`detect_cached`] last brought every fragment
    /// up to date: the state describes the table while it stays there.
    detected: Option<u64>,
}

/// The live code states (seeded from encode `gen` and resolvable) of the
/// CFDs that read `col` — all of them for `None` — with each CFD's index
/// and the fragment it patches.
fn live(
    cfds: &mut [CfdState],
    gen: u64,
    col: Option<usize>,
) -> impl Iterator<Item = (usize, &Resolved, &mut Option<VarGroups>, &mut Vec<RowId>)> {
    cfds.iter_mut().enumerate().filter_map(move |(idx, s)| {
        let code = s.code.as_mut().filter(|c| c.gen == gen)?;
        let r = code
            .res
            .as_ref()
            .filter(|r| col.is_none_or(|c| r.mentions(c)))?;
        Some((idx, r, &mut code.groups, &mut s.singles))
    })
}

impl DetectState {
    /// Line the states up with `cfds`: afterwards `self.cfds[i]` is the
    /// state of `cfds[i]`. An unchanged rule set costs one comparison per
    /// CFD. Otherwise a CFD not at its old index is looked up by its
    /// patterns, a new CFD starts empty, the fragments of CFDs no longer
    /// checked leave the tally, and the audit's counters, which are laid
    /// out for one rule set, are dropped.
    fn align(&mut self, cfds: &[Cfd]) {
        let same = |s: &CfdState, c: &Cfd| s.cfd == *c;
        if self.cfds.len() == cfds.len() && self.cfds.iter().zip(cfds).all(|(s, c)| same(s, c)) {
            return;
        }
        self.tally.grades = None;
        let old = std::mem::take(&mut self.cfds);
        let mut pick: Vec<Option<usize>> = cfds
            .iter()
            .enumerate()
            .map(|(i, c)| old.get(i).filter(|s| same(s, c)).map(|_| i))
            .collect();
        let mut by_key: FxHashMap<CfdKey<'_>, Vec<usize>> = FxHashMap::default();
        for (j, s) in old.iter().enumerate() {
            if pick.get(j) != Some(&Some(j)) {
                by_key.entry(cfd_key(&s.cfd)).or_default().push(j);
            }
        }
        for (i, c) in cfds.iter().enumerate() {
            if pick[i].is_none() {
                pick[i] = by_key.get_mut(&cfd_key(c)).and_then(|js| {
                    let at = js.iter().position(|&j| same(&old[j], c))?;
                    Some(js.swap_remove(at))
                });
            }
        }
        drop(by_key);
        let mut old: Vec<Option<CfdState>> = old.into_iter().map(Some).collect();
        self.cfds = cfds
            .iter()
            .zip(pick)
            .map(|(c, j)| {
                j.and_then(|j| old[j].take())
                    .unwrap_or_else(|| CfdState::new(c.clone()))
            })
            .collect();
        for (j, s) in old.into_iter().enumerate() {
            if let Some(s) = s {
                self.tally.fragment(j, &s, false);
            }
        }
    }

    /// Take the row `id` at snapshot position `pos` out of every live
    /// state: call before the position goes.
    fn retract(&mut self, snap: &Snapshot, gen: u64, pos: usize, id: RowId) {
        let DetectState { cfds, tally, .. } = self;
        if let Some(g) = &mut tally.grades {
            g.went(id);
        }
        for (idx, r, groups, singles) in live(cfds, gen, None) {
            match groups {
                Some(vg) => {
                    if let Some((key, _)) = r.member_at(snap, pos) {
                        vg.retract(&key, id);
                    }
                }
                None => {
                    if let Ok(i) = singles.binary_search(&id) {
                        singles.remove(i);
                        tally.single(idx, id, false);
                    }
                    if let Some(g) = &mut tally.grades {
                        if r.verifies_at(snap, pos) {
                            g.touch(idx, id, VERIFIED, false);
                        }
                    }
                }
            }
        }
    }

    /// Put the row `id` at snapshot position `pos` into every live state:
    /// call once the position holds the new row.
    fn admit(&mut self, snap: &Snapshot, gen: u64, pos: usize, id: RowId) {
        let DetectState { cfds, tally, .. } = self;
        if let Some(g) = &mut tally.grades {
            g.came(id);
        }
        for (idx, r, groups, singles) in live(cfds, gen, None) {
            match groups {
                Some(vg) => {
                    if let Some((key, code)) = r.member_at(snap, pos) {
                        vg.admit(key, id, code);
                    }
                }
                None => {
                    if r.violates_at(snap, pos) {
                        if let Err(i) = singles.binary_search(&id) {
                            singles.insert(i, id);
                            tally.single(idx, id, true);
                        }
                    }
                    if let Some(g) = &mut tally.grades {
                        if r.verifies_at(snap, pos) {
                            g.touch(idx, id, VERIFIED, true);
                        }
                    }
                }
            }
        }
    }

    /// Where the row at snapshot position `pos` stands in each live state
    /// reading `col`, in [`DetectState::overwrite`]'s order: read before
    /// the cell changes. A variable CFD's is the row's place in its
    /// grouping; a constant CFD's is whether it verifies the row, read
    /// only while the audit's counters are kept.
    fn places(&mut self, snap: &Snapshot, gen: u64, pos: usize, col: usize) -> Vec<(Place, bool)> {
        let counted = self.tally.grades.is_some();
        live(&mut self.cfds, gen, Some(col))
            .map(|(_, r, groups, _)| match groups {
                Some(_) => (r.member_at(snap, pos), false),
                None => (None, counted && r.verifies_at(snap, pos)),
            })
            .collect()
    }

    /// Follow an overwrite of cell (`id`, `col`) at snapshot position
    /// `pos`, given the row's `before` places: every live state reading
    /// `col` moves the row to where its new codes put it. A row that stays
    /// in its group only changes its RHS code there, and a group whose
    /// member did not change is left unmarked.
    fn overwrite(
        &mut self,
        snap: &Snapshot,
        gen: u64,
        (pos, id, col): (usize, RowId, usize),
        before: Vec<(Place, bool)>,
    ) {
        let DetectState { cfds, tally, .. } = self;
        for ((idx, r, groups, singles), (old, verified)) in live(cfds, gen, Some(col)).zip(before) {
            match groups {
                Some(vg) => vg.relocate(id, old, r.member_at(snap, pos)),
                None => {
                    match (singles.binary_search(&id), r.violates_at(snap, pos)) {
                        (Ok(i), false) => {
                            singles.remove(i);
                            tally.single(idx, id, false);
                        }
                        (Err(i), true) => {
                            singles.insert(i, id);
                            tally.single(idx, id, true);
                        }
                        _ => {}
                    }
                    if let Some(g) = &mut tally.grades {
                        let now = r.verifies_at(snap, pos);
                        if now != verified {
                            g.touch(idx, id, VERIFIED, now);
                        }
                    }
                }
            }
        }
    }

    /// The report of the current fragments, under the standing tally.
    fn report(&self) -> ViolationReport {
        let mut report = ViolationReport {
            vio: self.tally.vio.clone(),
            ..ViolationReport::default()
        };
        for (cfd_idx, s) in self.cfds.iter().enumerate() {
            let n = s.singles.len() + s.groups.len();
            if n == 0 {
                continue;
            }
            report.per_cfd.insert(cfd_idx, n);
            let singles = s
                .singles
                .iter()
                .map(|&row| ViolationKind::SingleTuple { row });
            let groups = s
                .groups
                .iter()
                .map(|(key, rows, own)| ViolationKind::MultiTuple {
                    key: key.clone(),
                    rows: Arc::clone(rows),
                    own: Arc::clone(own),
                });
            report.violations.extend(
                singles
                    .chain(groups)
                    .map(|kind| Violation { cfd_idx, kind }),
            );
        }
        report
    }
}

/// Detect all violations of `cfds` in `table` through the cache: repeat
/// calls on an unchanged (or patched-in-step) table do zero encode work,
/// and each CFD is brought up to date the cheapest way its state allows.
/// Output is `normalized()`-equal to [`crate::detect_columnar`] and
/// [`detect::detect_native`].
///
/// Per CFD, traced as a `detect.cfd` span:
///
/// * **replay** (`memo=hit`): its columns and the row set are untouched
///   since its fragment was computed, so the fragment is reused;
/// * **patch** (`memo=patched groups=n`): its group state was patched in
///   step with the snapshot, so only the `n` groups those patches touched
///   are re-materialized, and the standing `vio(t)` tally moves with them;
/// * **rescan** (`memo=recompute`): no usable state — a first computation,
///   a state seeded from an earlier encode, or pattern constants that
///   resolve differently since seeding. Every rescan of a variable CFD is
///   one grouping scan; a first computation keeps only its violating
///   groups, decoded, and a later rescan also keeps every group as the
///   CFD's group state.
///
/// The rule set is matched to the kept states by index; only a changed
/// rule set pays a lookup.
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
    let gen = cache.cached.as_ref().map_or(0, |c| c.gen);
    cache.state.align(cfds);
    for (idx, b) in bound.iter().enumerate() {
        let cols: Vec<usize> = b.lhs_cols.iter().copied().chain([b.rhs_col]).collect();
        let fresh = cache.state.cfds[idx]
            .epoch
            .is_some_and(|e| cache.fragment_fresh(e, &cols));
        let sp = obs::trace::span("detect.cfd");
        sp.attr("cfd", idx);
        if fresh {
            cache.fragments_reused += 1;
            cache_obs().fragments_reused.inc();
            sp.attr("memo", "hit");
            continue;
        }
        let r = resolve(&snap, b);
        let DetectState {
            cfds: states,
            tally,
            ..
        } = &mut cache.state;
        let s = &mut states[idx];
        if s.code.as_ref().is_some_and(|c| c.gen == gen && c.res == r) {
            let n = s.flush(idx, &snap, tally);
            cache.groups_rematerialized += n;
            cache_obs().groups_rematerialized.add(n);
            sp.attr("memo", "patched");
            sp.attr("groups", n);
        } else {
            s.recompute(idx, &snap, b, r, gen, tally);
            cache.fragments_computed += 1;
            cache_obs().fragments_computed.inc();
            sp.attr("memo", "recompute");
        }
        s.epoch = Some(epoch);
    }
    cache.state.detected = Some(epoch);
    Ok(cache.state.report())
}

/// Detect `bound` over `snap` on a throwaway state: every CFD takes
/// [`detect_cached`]'s first computation, traced as a `detect.cfd` span.
pub(crate) fn detect_once(snap: &Snapshot, bound: &[BoundCfd]) -> ViolationReport {
    let mut state = DetectState {
        cfds: bound.iter().map(|b| CfdState::new(b.cfd.clone())).collect(),
        ..DetectState::default()
    };
    for (idx, b) in bound.iter().enumerate() {
        let sp = obs::trace::span("detect.cfd");
        sp.attr("cfd", idx);
        state.cfds[idx].recompute(idx, snap, b, resolve(snap, b), 0, &mut state.tally);
    }
    state.report()
}

/// The Fig. 4 quality report of `table` under `cfds` and its detection
/// `report`, assembled in code space: the same report
/// [`audit::quality_report`] builds from `Value`s, field for field.
/// `report` must describe `table` as it is now — any detector's report
/// will do.
///
/// No `Value` is read or hashed. When a [`detect_cached`] under `cfds`
/// brought the cache's state up to date at the table's epoch (and
/// `report` has that state's size), the report is read off the audit's
/// counters that the cache keeps beside its detect state: grading the
/// rows touched since the last audit is all the work left. The first such
/// audit seeds the counters, traced as an `audit.seed` span and counted
/// by [`SnapshotCache::audit_seeds`]. Otherwise — a SQL detector's
/// report, a state a write has moved past — the report is built afresh:
///
/// * **pass 1** is [`ReportBuilder::mark_report`], which reads each
///   violating group's majority off its members' value counts;
/// * **pass 2** is [`grade_snapshot`] over the cached snapshot, which a
///   [`detect_cached`] at the same epoch left fresh (otherwise it is
///   patched or encoded here).
///
/// That pass is also the oracle the counters are checked against
/// ([`SnapshotCache::verify_state`]).
pub fn audit_cached(
    cache: &mut SnapshotCache,
    table: &Table,
    cfds: &[Cfd],
    report: &ViolationReport,
) -> CfdResult<QualityReport> {
    if cache.counts_current(table, cfds, report) {
        return cache.audit_counted(table, cfds);
    }
    let mut audit = ReportBuilder::new(table.schema(), table.arena_size(), cfds)?;
    audit.mark_report(report);
    let snap = cache.snapshot_projected(table, &needed_columns(audit.bound()));
    grade_snapshot(&snap, &mut audit);
    Ok(audit.finish(report))
}

impl SnapshotCache {
    /// Does the detect state describe `table` as it is now under `cfds`,
    /// with `report`'s size: may the audit's counters answer?
    fn counts_current(&self, table: &Table, cfds: &[Cfd], report: &ViolationReport) -> bool {
        let st = &self.state;
        let violations: usize = st
            .cfds
            .iter()
            .map(|s| s.singles.len() + s.groups.len())
            .sum();
        st.detected == Some(table.epoch())
            && self
                .cached
                .as_ref()
                .is_some_and(|c| c.epoch == table.epoch() && c.snap.name() == table.name())
            && st.cfds.len() == cfds.len()
            && st.cfds.iter().zip(cfds).all(|(s, c)| s.cfd == *c)
            && report.len() == violations
            && report.vio.len() == st.tally.vio.len()
    }

    /// The audit off the counters, seeding them first if none are kept.
    fn audit_counted(&mut self, table: &Table, cfds: &[Cfd]) -> CfdResult<QualityReport> {
        let _timer = audit::report::report_timer();
        if self.state.tally.grades.is_none() {
            let bound: Vec<BoundCfd> = cfds
                .iter()
                .map(|c| c.bind(table.schema()))
                .collect::<CfdResult<_>>()?;
            let snap = Arc::clone(&self.cached.as_ref().expect("checked current").snap);
            let sp = obs::trace::span("audit.seed");
            self.state.seed_grades(&snap, table, &bound);
            sp.attr("rows", snap.n_rows());
            self.audit_seeds += 1;
            cache_obs().audit_seeds.inc();
        }
        let per_cfd: Vec<(usize, usize)> = self
            .state
            .cfds
            .iter()
            .map(|s| (s.singles.len(), s.groups.len()))
            .collect();
        let grades = self.state.tally.grades.as_mut().expect("seeded");
        Ok(grades.report(&per_cfd))
    }
}

impl DetectState {
    /// Seed the audit's counters from the fragments, one verification
    /// scan per constant CFD over `snap` and the standing tally: pass 1
    /// and pass 2 of a fresh audit, counted per (row, slot) instead of
    /// flagged. Every live row is graded by the first report.
    fn seed_grades(&mut self, snap: &Snapshot, table: &Table, bound: &[BoundCfd]) {
        let mut g = Grades::new(table.schema(), bound, table.arena_size());
        for &id in snap.row_ids() {
            g.came(id);
        }
        for (idx, s) in self.cfds.iter().enumerate() {
            for &row in &s.singles {
                g.touch(idx, row, SINGLE, true);
            }
            for group in &s.groups {
                g.group(idx, group, true);
            }
        }
        for vio in self.tally.vio.values() {
            g.vio_moved(0, vio);
        }
        let mut hits = vec![false; snap.n_rows()];
        for (idx, b) in bound.iter().enumerate() {
            if b.cfd.rhs_pat.constant().is_none() {
                continue;
            }
            let Some(r) = resolve(snap, b) else {
                continue;
            };
            hits.fill(false);
            verify_constant(snap, &r, &mut hits);
            for (pos, _) in hits.iter().enumerate().filter(|(_, &h)| h) {
                g.touch(idx, snap.row_id(pos), VERIFIED, true);
            }
        }
        self.tally.grades = Some(Box::new(g));
    }
}

/// Pass 2 of a code-space audit: grade every row of `snap` under its row
/// id. A per-position "verified" cell mask is ORed in from one chunked
/// code scan per constant-RHS CFD of `audit` (through [`ChunkGuard`]s,
/// so spilled chunks fault in), then each position is graded. The
/// snapshot must project every column of `audit`'s CFDs.
///
/// A sharded relation grades each shard's snapshot into one builder:
/// shards store rows under their global ids.
///
/// [`ChunkGuard`]: crate::ChunkGuard
pub fn grade_snapshot(snap: &Snapshot, audit: &mut ReportBuilder) {
    let (width, n) = (audit.width(), snap.n_rows());
    let verified = verified_cells(snap, audit);
    let mut cells = vec![false; width];
    for (pos, &id) in snap.row_ids().iter().enumerate() {
        for (s, v) in cells.iter_mut().enumerate() {
            *v = verified[s * n + pos];
        }
        audit.grade_row(id, &cells);
    }
}

/// [`grade_snapshot`]'s mask: one "verified" flag per (cell slot of
/// `audit`, position of `snap`), slot-major.
fn verified_cells(snap: &Snapshot, audit: &ReportBuilder) -> Vec<bool> {
    let (width, n) = (audit.width(), snap.n_rows());
    let mut verified = vec![false; width * n];
    let mut hits = vec![false; n];
    for (idx, b) in audit.bound().iter().enumerate() {
        if b.cfd.rhs_pat.constant().is_none() {
            continue;
        }
        // An LHS constant absent from its column verifies no row.
        let Some(r) = resolve(snap, b) else {
            continue;
        };
        hits.fill(false);
        verify_constant(snap, &r, &mut hits);
        for &s in audit.slots(idx) {
            for (v, &h) in verified[s * n..(s + 1) * n].iter_mut().zip(&hits) {
                *v |= h;
            }
        }
    }
    verified
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
        // Touch column B: only the (A, B) rule is stale. Its rescan seeds
        // its group state.
        t.update_cell(RowId(1), 1, Value::str("changed")).unwrap();
        cache.note_set_cell(&t, RowId(1), 1);
        let got = detect_cached(&mut cache, &t, &cfds).unwrap().normalized();
        assert_eq!(cache.fragments_computed(), 4);
        assert_eq!(cache.fragments_reused(), 5);
        assert_eq!(got, detect_native(&t, &cfds).unwrap().normalized());
        // An insert changes the row set, so no fragment replays. The two
        // rules with state (the seeded (A, B) and the constant rule, whose
        // state is its violating rows) are patched; (A, C) rescans.
        let id = t
            .insert(vec![Value::str("x"), Value::str("1"), Value::str("q")])
            .unwrap();
        cache.note_insert(&t, id);
        let got = detect_cached(&mut cache, &t, &cfds).unwrap().normalized();
        assert_eq!(cache.fragments_computed(), 5);
        assert_eq!(cache.fragments_reused(), 5);
        assert_eq!(
            cache.groups_rematerialized(),
            1,
            "the new row's (A, B) group"
        );
        assert_eq!(got, detect_native(&t, &cfds).unwrap().normalized());
        // From here on every write patches.
        t.delete(RowId(0)).unwrap();
        cache.note_delete(&t, RowId(0));
        let got = detect_cached(&mut cache, &t, &cfds).unwrap().normalized();
        assert_eq!(cache.fragments_computed(), 5);
        assert_eq!(got, detect_native(&t, &cfds).unwrap().normalized());
        assert_eq!(cache.verify_state(), Ok(3));
    }

    #[test]
    fn reordered_rule_set_keeps_every_unchanged_state() {
        let mut t = table();
        let cfds = parse_cfds("r: [A] -> [B]\nr: [A] -> [C]\nr: [A='x'] -> [C='p']").unwrap();
        let mut cache = SnapshotCache::new();
        detect_cached(&mut cache, &t, &cfds).unwrap();
        // A write makes every fragment stale and seeds the group states.
        let id = t
            .insert(vec![Value::str("x"), Value::str("2"), Value::str("q")])
            .unwrap();
        cache.note_insert(&t, id);
        detect_cached(&mut cache, &t, &cfds).unwrap();
        assert_eq!(cache.verify_state(), Ok(3));
        // Reorder, drop (A, C) and add (B, C): the two kept rules move to
        // new indexes and keep their fragments; only the new rule scans.
        let next = parse_cfds("r: [A='x'] -> [C='p']\nr: [B] -> [C]\nr: [A] -> [B]").unwrap();
        let (c0, r0) = (cache.fragments_computed(), cache.fragments_reused());
        let got = detect_cached(&mut cache, &t, &next).unwrap().normalized();
        assert_eq!(
            cache.fragments_computed() - c0,
            1,
            "only the new rule scans"
        );
        assert_eq!(cache.fragments_reused() - r0, 2);
        assert_eq!(got, detect_native(&t, &next).unwrap().normalized());
        // They keep their group states too: a write over A patches both.
        t.update_cell(RowId(1), 0, Value::str("x")).unwrap();
        cache.note_set_cell(&t, RowId(1), 0);
        let got = detect_cached(&mut cache, &t, &next).unwrap().normalized();
        assert_eq!(cache.fragments_computed() - c0, 1, "the write patched");
        assert!(cache.groups_rematerialized() > 0);
        assert_eq!(got, detect_native(&t, &next).unwrap().normalized());
        assert_eq!(cache.verify_state(), Ok(2), "(B, C) has not been seeded");
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
