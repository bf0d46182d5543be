//! Vectorized CFD violation detection over columnar snapshots.
//!
//! The reference detector ([`detect::detect_native`]) scans row slices and
//! hashes a freshly cloned `Vec<Value>` LHS key per tuple. Here every CFD is
//! evaluated over dictionary codes instead:
//!
//! * **constant CFDs** reduce to integer comparisons over `u32` code
//!   chunks — the pattern constants are resolved to codes once, each chunk
//!   takes a branch-free any-violation pass first (a fold of compare bits
//!   the compiler autovectorizes), and only chunks that contain a
//!   violation are re-scanned to materialize row ids;
//! * **variable CFDs** group rows by their LHS *code* key. When the
//!   combined code widths fit, keys are packed into a single `u64`; wider
//!   keys fall back to boxed `[u32]` slices. Either way no `Value` is
//!   cloned on the scan path — values are only decoded (an `Arc` bump) when
//!   a violating group is materialized into the report.
//!
//! Scans walk the column chunk by chunk ([`crate::column`]) on the
//! caller's thread: fanned out as (CFD × chunk) morsels, detection lost
//! to this serial scan end to end on two cores. The cluster's shards
//! export per-group [`GroupPartial`]s ([`cfd_partials`]) that its gather
//! merges; that scatter is the one user of the work-stealing pool
//! ([`crate::morsel`]).
//!
//! The output is [`ViolationReport`]-identical (after `normalized()`) to the
//! native detector on every instance; the property tests in
//! `tests/detector_equivalence.rs` and `tests/chunked_detect.rs` pin this.

use cfd::{BoundCfd, Cfd, CfdResult, Pattern};
use detect::exchange::{CfdPartial, GroupPartial};
use detect::incremental::CfdSeed;
use detect::{IncrementalDetector, ViolationReport};
use minidb::{RowId, Table, Value};

use crate::column::Column;
use crate::dictionary::NULL_CODE;
use crate::snapshot::Snapshot;
use crate::spill::ChunkGuard;
use detect::fxhash::{DistinctCounter, FxHashMap};

/// Global-registry handles for the detector's telemetry: which grouping
/// path each variable-CFD evaluation took (dense direct-indexed, hashed,
/// or wide-key fallback), how many rows it scanned, and what it found.
struct DetectObs {
    path_dense: std::sync::Arc<obs::Counter>,
    path_hashed: std::sync::Arc<obs::Counter>,
    path_wide: std::sync::Arc<obs::Counter>,
    rows_scanned: std::sync::Arc<obs::Counter>,
    violating_groups: std::sync::Arc<obs::Counter>,
    group_members: std::sync::Arc<obs::Counter>,
    constant_violations: std::sync::Arc<obs::Counter>,
}

fn detect_obs() -> &'static DetectObs {
    static OBS: std::sync::OnceLock<DetectObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| DetectObs {
        path_dense: obs::counter("detect_group_path_total{path=\"dense\"}"),
        path_hashed: obs::counter("detect_group_path_total{path=\"hashed\"}"),
        path_wide: obs::counter("detect_group_path_total{path=\"wide\"}"),
        rows_scanned: obs::counter("detect_rows_scanned_total"),
        violating_groups: obs::counter("detect_violating_groups_total"),
        group_members: obs::counter("detect_group_members_total"),
        constant_violations: obs::counter("detect_constant_violations_total"),
    })
}

/// The columns a CFD set touches — the snapshot projection the detector
/// needs. High-cardinality columns outside every rule (free-text names,
/// ids) are never encoded.
pub(crate) fn needed_columns(bound: &[BoundCfd]) -> Vec<usize> {
    let mut cols: Vec<usize> = bound
        .iter()
        .flat_map(|b| b.lhs_cols.iter().copied().chain([b.rhs_col]))
        .collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// One resolved LHS cell: either a group-key column or an equality filter.
pub(crate) enum LhsCell {
    /// Wildcard pattern: the column participates in the group key.
    Wild { col: usize },
    /// Constant pattern, resolved to its dictionary code.
    Filter { col: usize, code: u32 },
}

/// A bound CFD with its pattern constants resolved to codes.
pub(crate) struct Resolved {
    cells: Vec<LhsCell>,
    rhs_col: usize,
    /// `Some(code)` for a constant RHS present in the column's dictionary;
    /// `None` for a constant absent from the column (every non-NULL RHS
    /// value differs from it). Irrelevant for variable CFDs.
    rhs_code: Option<u32>,
}

/// Resolve pattern constants against the snapshot dictionaries. Returns
/// `None` when some LHS constant does not occur in its column — then no row
/// can match the pattern and the CFD holds vacuously.
pub(crate) fn resolve(snap: &Snapshot, b: &BoundCfd) -> Option<Resolved> {
    let mut cells = Vec::with_capacity(b.lhs_cols.len());
    for (&col, pat) in b.lhs_cols.iter().zip(&b.cfd.lhs_pat) {
        match pat {
            Pattern::Wild => cells.push(LhsCell::Wild { col }),
            Pattern::Const(v) => {
                let code = snap.column(col).dictionary().code_of(v)?;
                if code == NULL_CODE {
                    // A NULL "constant" cannot arise from the parser, but a
                    // programmatic pattern could; constants never match NULL.
                    return None;
                }
                cells.push(LhsCell::Filter { col, code });
            }
        }
    }
    let rhs_code = b
        .cfd
        .rhs_pat
        .constant()
        .and_then(|v| snap.column(b.rhs_col).dictionary().code_of(v));
    Some(Resolved {
        cells,
        rhs_col: b.rhs_col,
        rhs_code,
    })
}

/// Detect all violations of `cfds` in `table` by building one columnar
/// snapshot, projected onto the columns the CFD set mentions, and
/// evaluating every CFD against it (one encode, N rules).
pub fn detect_columnar(table: &Table, cfds: &[Cfd]) -> CfdResult<ViolationReport> {
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(table.schema()))
        .collect::<CfdResult<_>>()?;
    let snap = Snapshot::projected(table, &needed_columns(&bound));
    detect_on_snapshot(&snap, cfds)
}

/// Detect all violations of `cfds` against an existing snapshot — the reuse
/// path when several CFD sets (or repeated calls) run over the same data.
pub fn detect_on_snapshot(snap: &Snapshot, cfds: &[Cfd]) -> CfdResult<ViolationReport> {
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(snap.schema()))
        .collect::<CfdResult<_>>()?;
    let mut report = ViolationReport::default();
    for (idx, b) in bound.iter().enumerate() {
        let sp = obs::trace::span("detect.cfd");
        sp.attr("cfd", idx);
        detect_one_columnar(snap, idx, b, &mut report);
    }
    Ok(report)
}

/// [`detect_on_snapshot`]; ignores `threads`. Kept for the benchmark
/// harness, which still calls it.
pub fn detect_on_snapshot_threads(
    snap: &Snapshot,
    cfds: &[Cfd],
    _threads: usize,
) -> CfdResult<ViolationReport> {
    detect_on_snapshot(snap, cfds)
}

/// A decoded violating group: LHS key, members (shared — the lifecycle
/// memo replays them into many reports), per-member multiplicities.
pub(crate) type DecodedGroup = (Vec<Value>, std::sync::Arc<Vec<(RowId, Value)>>, Vec<u64>);

/// Evaluate one bound CFD against the snapshot, appending to `report`.
pub fn detect_one_columnar(
    snap: &Snapshot,
    cfd_idx: usize,
    b: &BoundCfd,
    report: &mut ViolationReport,
) {
    let Some(r) = resolve(snap, b) else {
        return; // some LHS constant matches no row
    };
    if b.cfd.rhs_pat.constant().is_some() {
        detect_constant(snap, cfd_idx, &r, report);
    } else {
        for (key, rows, own) in violating_groups(snap, b, &r) {
            report.push_multi_shared(cfd_idx, key, rows, &own);
        }
    }
}

/// Constant-RHS path: a row violates iff every LHS filter matches and its
/// (non-NULL) RHS code differs from the pattern constant's code.
///
/// Runs chunk at a time, two-phase: a branch-free fold ORs the per-row
/// "violates" bit across the chunk (plain integer compares, no early exit
/// — the shape LLVM autovectorizes), and only a chunk whose fold came back
/// non-zero is re-scanned to materialize row ids. Clean data — the common
/// case — never takes a per-row branch.
pub(crate) fn detect_constant(
    snap: &Snapshot,
    cfd_idx: usize,
    r: &Resolved,
    report: &mut ViolationReport,
) {
    let rhs = snap.column(r.rhs_col);
    let o = detect_obs();
    o.rows_scanned.add(snap.n_rows() as u64);
    obs::trace::note("path", "constant");
    obs::trace::note("chunks", rhs.n_chunks());
    let before = report.len();
    let filters: Vec<(&Column, u32)> = r
        .cells
        .iter()
        .filter_map(|c| match c {
            LhsCell::Filter { col, code } => Some((snap.column(*col), *code)),
            // Wild LHS cells of a constant-RHS CFD match every row.
            LhsCell::Wild { .. } => None,
        })
        .collect();
    // Codes are small sequential dictionary indices, so `u32::MAX` is a
    // safe never-matches stand-in for an RHS constant absent from the
    // dictionary (where every non-NULL code violates).
    let target = r.rhs_code.unwrap_or(u32::MAX);
    for ci in 0..rhs.n_chunks() {
        let codes = rhs.chunk(ci);
        let base = ci * rhs.chunk_rows();
        // Two-step: hold the chunk guards (they keep faulted pages alive),
        // then view them as plain slices for the scan loops below.
        let guards: Vec<(ChunkGuard<'_>, u32)> = filters
            .iter()
            .map(|(c, code)| (c.chunk(ci), *code))
            .collect();
        let fs: Vec<(&[u32], u32)> = guards
            .iter()
            .map(|(g, code)| (g.as_slice(), *code))
            .collect();
        let any = match fs.as_slice() {
            [] => codes.iter().fold(0u32, |acc, &c| {
                acc | u32::from(c != NULL_CODE && c != target)
            }),
            [(f, fc)] => codes.iter().zip(f.iter()).fold(0u32, |acc, (&c, &fv)| {
                acc | u32::from(fv == *fc && c != NULL_CODE && c != target)
            }),
            // Multi-filter constant rules are rare; skip the probe pass.
            _ => 1,
        };
        if any == 0 {
            continue;
        }
        for (i, &c) in codes.iter().enumerate() {
            if !fs.iter().all(|(f, fc)| f[i] == *fc) {
                continue;
            }
            if c != NULL_CODE && c != target {
                report.push_single(cfd_idx, snap.row_id(base + i));
            }
        }
    }
    o.constant_violations.add((report.len() - before) as u64);
}

/// Accumulator for one LHS group (non-NULL RHS members only).
#[derive(Default)]
struct Group {
    /// `(snapshot position, rhs code)` in scan order.
    rows: Vec<(u32, u32)>,
    first_code: u32,
    conflict: bool,
}

impl Group {
    fn add(&mut self, pos: u32, code: u32) {
        if self.rows.is_empty() {
            self.first_code = code;
        } else if code != self.first_code {
            self.conflict = true;
        }
        self.rows.push((pos, code));
    }
}

/// Group-conflict state per LHS key: `EMPTY` until a member arrives, then
/// the first RHS code, then [`CONFLICT`] once a second distinct code shows
/// up. RHS codes are ≥ 1 (NULL members are skipped) and far below
/// `u32::MAX`, so both sentinels are safe.
const EMPTY: u32 = 0;
const CONFLICT: u32 = u32::MAX;
/// High bit marks a slot re-labelled with a group output index in pass 2.
const GROUP_MARK: u32 = 0x8000_0000;
/// Absolute ceiling for the dense `u32` conflict-state vector (64 MB).
const MAX_DENSE_STATE_SLOTS: u64 = 1 << 24;
/// Absolute ceiling for dense `Group` accumulator vectors (~32 MB).
const MAX_DENSE_GROUP_SLOTS: u64 = 1 << 20;

#[inline]
fn advance(state: &mut u32, rhs_code: u32) {
    if *state == EMPTY {
        *state = rhs_code;
    } else if *state != rhs_code && *state != CONFLICT {
        *state = CONFLICT;
    }
}

/// Per-key conflict-state storage for the packed-u64 detection path. The
/// two implementations — dense direct-indexed and hashed — differ *only*
/// in how a key finds its slot; the two scan passes over them are written
/// once ([`packed_violating_groups`]), so the paths cannot desynchronize.
trait ConflictState {
    /// Fold one non-NULL RHS code into the key's state (pass 1).
    fn advance(&mut self, key: u64, rhs_code: u32);
    /// Did any key reach [`CONFLICT`]? Gates pass 2 entirely.
    fn any_conflict(&self) -> bool;
    /// The state slot of `key`, if the key was ever advanced (pass 2).
    fn get_state(&mut self, key: u64) -> Option<&mut u32>;
}

/// Direct-indexed state: one `u32` per possible packed key.
struct DenseState(Vec<u32>);

impl ConflictState for DenseState {
    #[inline]
    fn advance(&mut self, key: u64, rhs_code: u32) {
        advance(&mut self.0[key as usize], rhs_code);
    }

    fn any_conflict(&self) -> bool {
        self.0.contains(&CONFLICT)
    }

    #[inline]
    fn get_state(&mut self, key: u64) -> Option<&mut u32> {
        // Every slot exists; EMPTY slots are filtered by the caller's
        // mark/conflict checks (an EMPTY slot is neither).
        Some(&mut self.0[key as usize])
    }
}

/// Hashed state for key spaces too large to index directly.
struct HashedState(FxHashMap<u64, u32>);

impl ConflictState for HashedState {
    #[inline]
    fn advance(&mut self, key: u64, rhs_code: u32) {
        advance(self.0.entry(key).or_insert(EMPTY), rhs_code);
    }

    fn any_conflict(&self) -> bool {
        self.0.values().any(|&s| s == CONFLICT)
    }

    #[inline]
    fn get_state(&mut self, key: u64) -> Option<&mut u32> {
        self.0.get_mut(&key)
    }
}

/// The two-pass conflict scan over packed keys, generic in the state
/// storage: pass 1 folds every LHS-matching row's RHS code into its key's
/// state; pass 2 — entered only when some key conflicted — re-labels
/// conflicted slots with group output indexes on first touch
/// ([`GROUP_MARK`]) and collects members. Both passes walk the columns
/// chunk by chunk; recorded positions are global.
// Parallel chunk slices are indexed by one shared chunk-local position
// throughout; an enumerate-based rewrite would obscure that.
#[allow(clippy::needless_range_loop)]
fn packed_violating_groups<S: ConflictState>(
    scan: &Scan<'_>,
    rhs: &Column,
    mut state: S,
) -> Vec<(Key, Group)> {
    for ci in 0..rhs.n_chunks() {
        let guards = scan.at(ci);
        let cs = guards.scan();
        let codes = rhs.chunk(ci);
        for i in 0..codes.len() {
            let Some(key) = cs.packed_key(i) else {
                continue;
            };
            let rc = codes[i];
            if rc != NULL_CODE {
                state.advance(key, rc);
            }
        }
    }
    let mut groups: Vec<(Key, Group)> = Vec::new();
    if !state.any_conflict() {
        return groups;
    }
    for ci in 0..rhs.n_chunks() {
        let guards = scan.at(ci);
        let cs = guards.scan();
        let codes = rhs.chunk(ci);
        let base = (ci * rhs.chunk_rows()) as u32;
        for i in 0..codes.len() {
            let Some(key) = cs.packed_key(i) else {
                continue;
            };
            let rc = codes[i];
            if rc == NULL_CODE {
                continue;
            }
            let Some(s) = state.get_state(key) else {
                continue;
            };
            // Conflicted slots are re-labelled with their output index on
            // first touch (high bit set); dictionary codes never reach the
            // high bit.
            let idx = if *s == CONFLICT {
                let idx = groups.len();
                groups.push((Key::Packed(key), Group::default()));
                *s = GROUP_MARK | idx as u32;
                idx
            } else if *s & GROUP_MARK != 0 {
                (*s & !GROUP_MARK) as usize
            } else {
                continue; // clean group
            };
            groups[idx].1.add(base + i as u32, rc);
        }
    }
    groups
}

/// Group the LHS-matching rows of a variable CFD by their LHS code key and
/// return the violating groups, decoded, sorted by first member position.
///
/// Two passes (see [`packed_violating_groups`]): the first computes only a
/// per-group conflict state (no member lists, no allocation per row), the
/// second collects members for the — typically few — conflicted groups.
/// This is what makes the columnar detector allocation-free on clean data.
pub(crate) fn violating_groups(snap: &Snapshot, b: &BoundCfd, r: &Resolved) -> Vec<DecodedGroup> {
    let scan = Scan::new(snap, r);
    let n = snap.n_rows();
    let rhs = snap.column(r.rhs_col);
    let o = detect_obs();
    o.rows_scanned.add(n as u64);
    obs::trace::note("chunks", rhs.n_chunks());

    let groups: Vec<(Key, Group)> = if let Some(total_bits) = scan.packed_bits() {
        let slots = 1u64 << total_bits.min(63);
        // The dense state is one u32 per slot, so a generous per-row cap is
        // cheap, but bound the absolute allocation too (2^24 slots = 64 MB)
        // so very large tables with wide keys fall back to hashing instead
        // of zeroing gigabytes per CFD.
        if slots <= (64 * n as u64).clamp(4_096, MAX_DENSE_STATE_SLOTS) {
            o.path_dense.inc();
            obs::trace::note("path", "dense");
            packed_violating_groups(&scan, rhs, DenseState(vec![EMPTY; slots as usize]))
        } else {
            o.path_hashed.inc();
            obs::trace::note("path", "hashed");
            packed_violating_groups(&scan, rhs, HashedState(FxHashMap::default()))
        }
    } else {
        // Wide keys: accumulate everything (rare: > 64 key bits).
        o.path_wide.inc();
        obs::trace::note("path", "wide");
        group_by_codes(snap, r)
            .into_iter()
            .filter(|(_, g)| g.conflict)
            .collect()
    };
    o.violating_groups.add(groups.len() as u64);
    o.group_members
        .add(groups.iter().map(|(_, g)| g.rows.len() as u64).sum());

    let mut out: Vec<(u32, DecodedGroup)> = groups
        .into_iter()
        .map(|(key, g)| {
            let first_pos = g.rows.first().map(|(p, _)| *p).unwrap_or(0);
            let (members, own) = decode_members(snap, r, &g);
            (first_pos, (decode_key(snap, b, r, &key), members, own))
        })
        .collect();
    out.sort_by_key(|(first, _)| *first);
    out.into_iter().map(|(_, g)| g).collect()
}

/// The common LHS shapes, pre-dispatched so the per-row hot loop is a
/// predictable branch plus direct slice indexing instead of two `Vec`
/// walks. Covers every rule of the canonical workloads; anything else
/// (3+ wildcards, multiple filters) takes the general path.
enum Shape<'a> {
    /// No filters, one wildcard: the key *is* the code.
    W1(&'a [u32]),
    /// No filters, two wildcards: one shift-or.
    W2(&'a [u32], &'a [u32], u32),
    /// One filter, one wildcard.
    F1W1(&'a [u32], u32, &'a [u32]),
    /// Everything else: iterate `filters` / `wilds`.
    General,
}

/// Per-CFD scan state for one resolved variable CFD: constant filters plus
/// the packed-key layout of the wildcard columns, held as whole columns.
/// [`Scan::at`] resolves one chunk's slices (and their dispatched
/// [`Shape`]) for the inner loops.
struct Scan<'a> {
    filters: Vec<(&'a Column, u32)>,
    /// `(column, code bits)` per wildcard, in pattern order.
    wilds: Vec<(&'a Column, u32)>,
    total_bits: u32,
}

/// One chunk's guards across every scan column: keeps spilled chunks
/// faulted in while the borrowing [`ChunkScan`] (built by
/// [`ChunkGuards::scan`]) reads them as plain slices.
struct ChunkGuards<'a> {
    filters: Vec<(ChunkGuard<'a>, u32)>,
    wilds: Vec<(ChunkGuard<'a>, u32)>,
}

/// One chunk's resolved scan state: code slices aligned at the same chunk
/// index across columns, indexed by chunk-local position. Borrows from a
/// [`ChunkGuards`], which owns any faulted pages.
struct ChunkScan<'a> {
    filters: Vec<(&'a [u32], u32)>,
    wilds: Vec<(&'a [u32], u32)>,
    shape: Shape<'a>,
}

impl<'a> Scan<'a> {
    fn new(snap: &'a Snapshot, r: &Resolved) -> Scan<'a> {
        let mut filters = Vec::new();
        let mut wilds = Vec::new();
        let mut total_bits = 0u32;
        for cell in &r.cells {
            match cell {
                LhsCell::Filter { col, code } => {
                    filters.push((snap.column(*col), *code));
                }
                LhsCell::Wild { col } => {
                    let bits = snap.column(*col).dictionary().code_bits();
                    total_bits += bits;
                    wilds.push((snap.column(*col), bits));
                }
            }
        }
        Scan {
            filters,
            wilds,
            total_bits,
        }
    }

    /// Key width when the packed representation applies (≤ 64 bits).
    fn packed_bits(&self) -> Option<u32> {
        (self.total_bits <= 64).then_some(self.total_bits)
    }

    /// Resolve chunk `ci`'s guards (faulting spilled chunks in); call
    /// [`ChunkGuards::scan`] on the result for the slice-level view.
    fn at(&self, ci: usize) -> ChunkGuards<'a> {
        ChunkGuards {
            filters: self
                .filters
                .iter()
                .map(|(c, code)| (c.chunk(ci), *code))
                .collect(),
            wilds: self
                .wilds
                .iter()
                .map(|(c, bits)| (c.chunk(ci), *bits))
                .collect(),
        }
    }
}

impl ChunkGuards<'_> {
    /// Borrow the guarded codes as slices and dispatch their shape.
    fn scan(&self) -> ChunkScan<'_> {
        let filters: Vec<(&[u32], u32)> = self
            .filters
            .iter()
            .map(|(g, code)| (g.as_slice(), *code))
            .collect();
        let wilds: Vec<(&[u32], u32)> = self
            .wilds
            .iter()
            .map(|(g, bits)| (g.as_slice(), *bits))
            .collect();
        let shape = match (filters.as_slice(), wilds.as_slice()) {
            ([], [(w, _)]) => Shape::W1(w),
            ([], [(a, _), (b, b_bits)]) => Shape::W2(a, b, *b_bits),
            ([(f, fc)], [(w, _)]) => Shape::F1W1(f, *fc, w),
            _ => Shape::General,
        };
        ChunkScan {
            filters,
            wilds,
            shape,
        }
    }
}

impl ChunkScan<'_> {
    /// Do the codes at chunk-local position `i` pass every constant filter?
    #[inline]
    fn matches(&self, i: usize) -> bool {
        self.filters.iter().all(|(codes, code)| codes[i] == *code)
    }

    /// The packed key at chunk-local position `i`, or `None` when a
    /// constant filter rejects the row.
    #[inline]
    fn packed_key(&self, i: usize) -> Option<u64> {
        match self.shape {
            Shape::W1(w) => Some(w[i] as u64),
            Shape::W2(a, b, b_bits) => Some(((a[i] as u64) << b_bits) | b[i] as u64),
            Shape::F1W1(f, fc, w) => (f[i] == fc).then(|| w[i] as u64),
            Shape::General => self.packed_key_general(i),
        }
    }

    fn packed_key_general(&self, i: usize) -> Option<u64> {
        if !self.matches(i) {
            return None;
        }
        let mut key = 0u64;
        for (codes, bits) in &self.wilds {
            key = (key << bits) | codes[i] as u64;
        }
        Some(key)
    }

    /// The materialized wildcard-code key at chunk-local position `i` (the
    /// > 64-bit fallback), or `None` when a constant filter rejects it.
    #[inline]
    fn wide_key(&self, i: usize) -> Option<Box<[u32]>> {
        if !self.matches(i) {
            return None;
        }
        Some(self.wilds.iter().map(|(codes, _)| codes[i]).collect())
    }
}

/// A group key: packed codes when they fit in 64 bits, boxed codes otherwise.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Packed(u64),
    Wide(Box<[u32]>),
}

/// Single grouping pass over the code columns. Returns every group with
/// at least one non-NULL member (the incremental seeding and partial
/// export paths need non-violating groups too).
///
/// Row filtering and key packing are [`ChunkScan`]'s — the same
/// `packed_key` / `wide_key` the detection path scans with, so the
/// seeding, export, and detection paths group by construction-identical
/// keys.
// Parallel chunk slices are indexed by one shared chunk-local position
// throughout; an enumerate-based rewrite would obscure that.
#[allow(clippy::needless_range_loop)]
fn group_by_codes(snap: &Snapshot, r: &Resolved) -> Vec<(Key, Group)> {
    let scan = Scan::new(snap, r);
    let rhs = snap.column(r.rhs_col);
    let chunk_rows = rhs.chunk_rows();
    let n = snap.n_rows();

    if let Some(total_bits) = scan.packed_bits() {
        // Dense path: when the packed key space is small relative to the
        // data, index a plain vector — grouping without any hashing. Group
        // slots are an order of magnitude wider than the u32 state of the
        // detection path, so the absolute ceiling is tighter.
        let slots = 1u64 << total_bits.min(63);
        if slots <= (2 * n as u64).clamp(4_096, MAX_DENSE_GROUP_SLOTS) {
            let mut groups: Vec<Group> = Vec::new();
            groups.resize_with(slots as usize, Group::default);
            for ci in 0..rhs.n_chunks() {
                let guards = scan.at(ci);
                let cs = guards.scan();
                let codes = rhs.chunk(ci);
                let base = (ci * chunk_rows) as u32;
                for i in 0..codes.len() {
                    let Some(key) = cs.packed_key(i) else {
                        continue;
                    };
                    let rc = codes[i];
                    if rc == NULL_CODE {
                        continue; // COUNT(DISTINCT) ignores NULL members
                    }
                    groups[key as usize].add(base + i as u32, rc);
                }
            }
            return groups
                .into_iter()
                .enumerate()
                .filter(|(_, g)| !g.rows.is_empty())
                .map(|(k, g)| (Key::Packed(k as u64), g))
                .collect();
        }
        // Hashed path: pack the whole key into one u64.
        let mut groups: FxHashMap<u64, Group> = FxHashMap::default();
        for ci in 0..rhs.n_chunks() {
            let guards = scan.at(ci);
            let cs = guards.scan();
            let codes = rhs.chunk(ci);
            let base = (ci * chunk_rows) as u32;
            for i in 0..codes.len() {
                let Some(key) = cs.packed_key(i) else {
                    continue;
                };
                let rc = codes[i];
                if rc == NULL_CODE {
                    continue;
                }
                groups.entry(key).or_default().add(base + i as u32, rc);
            }
        }
        groups
            .into_iter()
            .map(|(k, g)| (Key::Packed(k), g))
            .collect()
    } else {
        // Wide path: materialize the code key (NULL-RHS rows are skipped
        // before the key allocation).
        let mut groups: FxHashMap<Box<[u32]>, Group> = FxHashMap::default();
        for ci in 0..rhs.n_chunks() {
            let guards = scan.at(ci);
            let cs = guards.scan();
            let codes = rhs.chunk(ci);
            let base = (ci * chunk_rows) as u32;
            for i in 0..codes.len() {
                let rc = codes[i];
                if rc == NULL_CODE {
                    continue;
                }
                let Some(key) = cs.wide_key(i) else {
                    continue;
                };
                groups.entry(key).or_default().add(base + i as u32, rc);
            }
        }
        groups.into_iter().map(|(k, g)| (Key::Wide(k), g)).collect()
    }
}

/// Decode a group key back into the `Vec<Value>` LHS key the report format
/// uses: pattern order, constants included, wildcard codes decoded.
fn decode_key(snap: &Snapshot, b: &BoundCfd, r: &Resolved, key: &Key) -> Vec<Value> {
    // Recover per-wildcard codes from the key.
    let wild_cols: Vec<usize> = r
        .cells
        .iter()
        .filter_map(|c| match c {
            LhsCell::Wild { col } => Some(*col),
            LhsCell::Filter { .. } => None,
        })
        .collect();
    let wild_codes: Vec<u32> = match key {
        Key::Wide(codes) => codes.to_vec(),
        Key::Packed(mut packed) => {
            let bits: Vec<u32> = wild_cols
                .iter()
                .map(|&c| snap.column(c).dictionary().code_bits())
                .collect();
            let mut rev: Vec<u32> = Vec::with_capacity(bits.len());
            for &b in bits.iter().rev() {
                rev.push((packed & ((1u64 << b) - 1)) as u32);
                packed >>= b;
            }
            rev.reverse();
            rev
        }
    };
    debug_assert_eq!(r.cells.len(), b.cfd.lhs_pat.len());
    let mut wild_iter = wild_cols.iter().zip(&wild_codes);
    r.cells
        .iter()
        .map(|cell| match cell {
            LhsCell::Filter { col, code } => snap.column(*col).dictionary().decode(*code),
            LhsCell::Wild { .. } => {
                let (&col, &code) = wild_iter.next().expect("one code per wildcard");
                snap.column(col).dictionary().decode(code)
            }
        })
        .collect()
}

/// Decode group members without multiplicity counting — the seeding path
/// materializes every group (violating or not) and never needs `own`.
fn decode_members_only(snap: &Snapshot, r: &Resolved, g: &Group) -> Vec<(RowId, Value)> {
    let dict = snap.column(r.rhs_col).dictionary();
    g.rows
        .iter()
        .map(|&(pos, code)| (snap.row_id(pos as usize), dict.decode(code)))
        .collect()
}

/// Decode group members into `(RowId, Value)` pairs, plus each member's
/// value multiplicity within the group — counted over codes, so the report
/// layer never compares values.
fn decode_members(
    snap: &Snapshot,
    r: &Resolved,
    g: &Group,
) -> (std::sync::Arc<Vec<(RowId, Value)>>, Vec<u64>) {
    let dict = snap.column(r.rhs_col).dictionary();
    let mut counter: DistinctCounter<u32> = DistinctCounter::new();
    let idxs: Vec<u32> = g.rows.iter().map(|&(_, code)| counter.add(code)).collect();
    let members = g
        .rows
        .iter()
        .map(|&(pos, code)| (snap.row_id(pos as usize), dict.decode(code)))
        .collect();
    let own = idxs.into_iter().map(|i| counter.count_at(i)).collect();
    (std::sync::Arc::new(members), own)
}

/// Export the partial detection state of every CFD over `snap` — the
/// scatter half of sharded detection (see [`detect::exchange`]): constant
/// CFDs resolve to their shard-local violators, variable CFDs to one
/// [`GroupPartial`] per non-empty LHS group (clean groups included — a
/// locally clean group can conflict with another shard's portion). All
/// state is decoded off the dictionaries, so the partials are
/// self-contained and snapshot-independent.
pub fn cfd_partials(snap: &Snapshot, cfds: &[Cfd]) -> CfdResult<Vec<CfdPartial>> {
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(snap.schema()))
        .collect::<CfdResult<_>>()?;
    Ok(bound.iter().map(|b| cfd_partial_one(snap, b)).collect())
}

/// The partial state of one bound CFD (see [`cfd_partials`]).
pub fn cfd_partial_one(snap: &Snapshot, b: &BoundCfd) -> CfdPartial {
    let empty = || {
        if b.cfd.rhs_pat.is_wild() {
            CfdPartial::Variable { groups: Vec::new() }
        } else {
            CfdPartial::Constant {
                violating: Vec::new(),
            }
        }
    };
    let Some(r) = resolve(snap, b) else {
        return empty(); // some LHS constant matches no row on this shard
    };
    if b.cfd.rhs_pat.constant().is_some() {
        let mut scratch = ViolationReport::default();
        detect_constant(snap, 0, &r, &mut scratch);
        CfdPartial::Constant {
            violating: scratch.dirty_rows(),
        }
    } else {
        obs::trace::note("path", "export");
        obs::trace::note("chunks", snap.n_chunks());
        let groups = group_by_codes(snap, &r)
            .into_iter()
            .map(|(key, g)| export_partial(snap, b, &r, &key, &g))
            .collect();
        CfdPartial::Variable { groups }
    }
}

/// Turn one code-keyed group into its wire-format partial: distinct RHS
/// codes counted once ([`DistinctCounter`]), each decoded once; members
/// carried as `(row id, value index)` — no `Value` per member.
fn export_partial(
    snap: &Snapshot,
    b: &BoundCfd,
    r: &Resolved,
    key: &Key,
    g: &Group,
) -> GroupPartial {
    let mut counter: DistinctCounter<u32> = DistinctCounter::new();
    let member_idx: Vec<u32> = g.rows.iter().map(|&(_, code)| counter.add(code)).collect();
    let dict = snap.column(r.rhs_col).dictionary();
    GroupPartial {
        key: decode_key(snap, b, r, key),
        values: counter
            .into_counts()
            .into_iter()
            .map(|(c, n)| (dict.decode(c), n))
            .collect(),
        members: g
            .rows
            .iter()
            .map(|&(pos, _)| snap.row_id(pos as usize))
            .zip(member_idx)
            .collect(),
    }
}

/// Build an [`IncrementalDetector`] by seeding its per-CFD state from one
/// columnar pass instead of the row-at-a-time insert loop — the full-rescan
/// fallback of the data monitor.
pub fn seed_incremental(snap: &Snapshot, cfds: &[Cfd]) -> CfdResult<IncrementalDetector> {
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(snap.schema()))
        .collect::<CfdResult<_>>()?;
    let mut seeds = Vec::with_capacity(bound.len());
    for b in &bound {
        let seed = match resolve(snap, b) {
            None => {
                // No row matches the LHS pattern: empty state of either kind.
                if b.cfd.rhs_pat.is_wild() {
                    CfdSeed::Variable { groups: Vec::new() }
                } else {
                    CfdSeed::Constant {
                        violating: Vec::new(),
                    }
                }
            }
            Some(r) => {
                if b.cfd.rhs_pat.is_wild() {
                    let groups = group_by_codes(snap, &r)
                        .into_iter()
                        .map(|(key, g)| {
                            (
                                decode_key(snap, b, &r, &key),
                                decode_members_only(snap, &r, &g),
                            )
                        })
                        .collect();
                    CfdSeed::Variable { groups }
                } else {
                    let mut report = ViolationReport::default();
                    detect_constant(snap, 0, &r, &mut report);
                    CfdSeed::Constant {
                        violating: report.dirty_rows(),
                    }
                }
            }
        };
        seeds.push(seed);
    }
    Ok(IncrementalDetector::from_parts(bound, seeds))
}

/// [`seed_incremental`] from a table (snapshot built internally, projected
/// onto the columns the CFD set mentions).
pub fn build_incremental(table: &Table, cfds: &[Cfd]) -> CfdResult<IncrementalDetector> {
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(table.schema()))
        .collect::<CfdResult<_>>()?;
    let snap = Snapshot::projected(table, &needed_columns(&bound));
    seed_incremental(&snap, cfds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd::parse::parse_cfds;
    use datagen::dirty_customers;
    use detect::detect_native;
    use minidb::Schema;

    fn assert_equivalent(table: &Table, cfds: &[Cfd]) {
        let native = detect_native(table, cfds).unwrap().normalized();
        let columnar = detect_columnar(table, cfds).unwrap().normalized();
        assert_eq!(native, columnar);
    }

    #[test]
    fn matches_native_on_customer_workload() {
        let d = dirty_customers(500, 0.06, 21);
        assert_equivalent(d.db.table("customer").unwrap(), &d.cfds);
    }

    #[test]
    fn matches_native_on_clean_data() {
        let d = dirty_customers(300, 0.0, 22);
        let t = d.db.table("customer").unwrap();
        let r = detect_columnar(t, &d.cfds).unwrap();
        assert!(r.is_empty());
        assert_equivalent(t, &d.cfds);
    }

    #[test]
    fn detection_matches_default_layout_across_chunk_layouts() {
        let d = dirty_customers(400, 0.08, 28);
        let t = d.db.table("customer").unwrap();
        let expected = detect_columnar(t, &d.cfds).unwrap().normalized();
        for chunk_rows in [1usize, 7, 64, 4096] {
            let snap = Snapshot::projected_with_chunk(
                t,
                &(0..t.schema().arity()).collect::<Vec<_>>(),
                chunk_rows,
            );
            let got = detect_on_snapshot(&snap, &d.cfds).unwrap().normalized();
            assert_eq!(got, expected, "chunk_rows={chunk_rows}");
        }
    }

    #[test]
    fn snapshot_reuse_across_cfd_sets() {
        let d = dirty_customers(400, 0.05, 23);
        let t = d.db.table("customer").unwrap();
        let snap = Snapshot::of(t);
        // One encode, several rule sets.
        for subset in [&d.cfds[..2], &d.cfds[2..], &d.cfds[..]] {
            let a = detect_on_snapshot(&snap, subset).unwrap().normalized();
            let b = detect_native(t, subset).unwrap().normalized();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn absent_constant_short_circuits() {
        let mut t = Table::new("r", Schema::of_strings(&["A", "B"]));
        t.insert(vec![Value::str("x"), Value::str("1")]).unwrap();
        t.insert(vec![Value::str("x"), Value::str("2")]).unwrap();
        // 'zz' never occurs in column A: the conditional rules match nothing.
        let cfds = parse_cfds("r: [A='zz'] -> [B='1']\nr: [A='zz'] -> [B=_]").unwrap();
        let r = detect_columnar(&t, &cfds).unwrap();
        assert!(r.is_empty());
        assert_equivalent(&t, &cfds);
    }

    #[test]
    fn absent_rhs_constant_flags_all_matching_rows() {
        let mut t = Table::new("r", Schema::of_strings(&["A", "B"]));
        t.insert(vec![Value::str("x"), Value::str("1")]).unwrap();
        t.insert(vec![Value::str("x"), Value::Null]).unwrap();
        // 'target' is absent from B's dictionary: every non-NULL B violates.
        let cfds = parse_cfds("r: [A='x'] -> [B='target']").unwrap();
        let r = detect_columnar(&t, &cfds).unwrap();
        assert_eq!(r.len(), 1, "NULL RHS is never a single-tuple violation");
        assert_equivalent(&t, &cfds);
    }

    #[test]
    fn all_null_column_groups_as_one() {
        let mut t = Table::new("r", Schema::of_strings(&["A", "B"]));
        for v in ["1", "2", "2"] {
            t.insert(vec![Value::Null, Value::str(v)]).unwrap();
        }
        // All-NULL LHS: one group under strong equality, two distinct B.
        let cfds = parse_cfds("r: [A] -> [B]").unwrap();
        let r = detect_columnar(&t, &cfds).unwrap();
        assert_eq!(r.len(), 1);
        assert_equivalent(&t, &cfds);
    }

    #[test]
    fn wide_keys_fall_back_beyond_64_bits() {
        // 17 LHS columns of cardinality >= 8 (4 bits each incl. NULL code)
        // exceed the packed budget only with enough distinct values; use a
        // high-cardinality instance to force > 64 key bits.
        let names: Vec<String> = (0..17).map(|i| format!("C{i}")).collect();
        let mut cols: Vec<&str> = names.iter().map(String::as_str).collect();
        cols.push("RHS");
        let mut t = Table::new("wide", Schema::of_strings(&cols));
        for row in 0..40 {
            let mut vals: Vec<Value> = (0..17)
                .map(|c| Value::str(format!("v{}", (row / 2 + c) % 20)))
                .collect();
            vals.push(Value::str(format!("r{}", row % 3)));
            t.insert(vals).unwrap();
        }
        let rule = format!("wide: [{}] -> [RHS]", names.join(", "));
        let cfds = parse_cfds(&rule).unwrap();
        assert_equivalent(&t, &cfds);
    }

    #[test]
    fn hashed_u64_path_beyond_dense_cap() {
        // Force the packed-but-hashed branch: two ~140-distinct columns give
        // a 16-bit key (65 536 slots), above clamp(64 * 300, 4096, 2^24) for
        // dense state at 300 rows — so grouping must hash u64 keys. Seed
        // conflicts via duplicated (A, B) pairs with disagreeing RHS.
        let mut t = Table::new("r", Schema::of_strings(&["A", "B", "RHS"]));
        for i in 0..140 {
            t.insert(vec![
                Value::str(format!("a{i}")),
                Value::str(format!("b{i}")),
                Value::str("same"),
            ])
            .unwrap();
        }
        for i in 0..140 {
            // Duplicate keys; every third pair disagrees on RHS.
            let rhs = if i % 3 == 0 { "diff" } else { "same" };
            t.insert(vec![
                Value::str(format!("a{i}")),
                Value::str(format!("b{i}")),
                Value::str(rhs),
            ])
            .unwrap();
        }
        let cfds = parse_cfds("r: [A, B] -> [RHS]").unwrap();
        let r = detect_columnar(&t, &cfds).unwrap();
        assert_eq!(r.len(), 47, "every i % 3 == 0 group conflicts");
        assert_equivalent(&t, &cfds);
    }

    #[test]
    fn partial_export_merge_equals_single_node() {
        // Partition the customer table into 3 interleaved "shards", export
        // partials per shard, merge — must equal single-node detection.
        use detect::exchange::merge_cfd_partials;
        let d = dirty_customers(400, 0.06, 26);
        let t = d.db.table("customer").unwrap();
        let mut shards: Vec<Table> = (0..3)
            .map(|_| Table::new("customer", t.schema().clone()))
            .collect();
        for (i, (id, row)) in t.iter().enumerate() {
            shards[i % 3].insert_at(id, row.to_vec()).unwrap();
        }
        let partials: Vec<Vec<CfdPartial>> = shards
            .iter()
            .map(|s| cfd_partials(&Snapshot::of(s), &d.cfds).unwrap())
            .collect();
        let mut merged = ViolationReport::default();
        for idx in 0..d.cfds.len() {
            merge_cfd_partials(idx, partials.iter().map(|p| &p[idx]), &mut merged);
        }
        let single = detect_columnar(t, &d.cfds).unwrap().normalized();
        assert!(!single.is_empty());
        assert_eq!(merged.normalized(), single);
    }

    #[test]
    fn partial_export_of_one_shard_merges_to_local_detection() {
        // Degenerate cluster of one shard: the exchange must be lossless.
        use detect::exchange::merge_cfd_partials;
        let d = dirty_customers(250, 0.05, 27);
        let t = d.db.table("customer").unwrap();
        let partials = cfd_partials(&Snapshot::of(t), &d.cfds).unwrap();
        let mut merged = ViolationReport::default();
        for (idx, p) in partials.iter().enumerate() {
            merge_cfd_partials(idx, [p], &mut merged);
        }
        assert_eq!(
            merged.normalized(),
            detect_columnar(t, &d.cfds).unwrap().normalized()
        );
    }

    #[test]
    fn seeded_incremental_matches_classic_build() {
        let d = dirty_customers(300, 0.05, 24);
        let t = d.db.table("customer").unwrap();
        let classic = IncrementalDetector::build(t, &d.cfds).unwrap();
        let seeded = build_incremental(t, &d.cfds).unwrap();
        assert_eq!(classic.report().normalized(), seeded.report().normalized());
        assert_eq!(classic.total_violations(), seeded.total_violations());
        for (id, _) in t.iter() {
            assert_eq!(classic.vio_of(id), seeded.vio_of(id));
        }
    }

    #[test]
    fn seeded_incremental_stays_consistent_under_updates() {
        let d = dirty_customers(200, 0.05, 25);
        let t = d.db.table("customer").unwrap();
        let mut det = build_incremental(t, &d.cfds).unwrap();
        let mut table = t.clone();
        // Mutate through the incremental interface, then cross-check batch.
        let ids = table.row_ids();
        for (i, &id) in ids.iter().take(20).enumerate() {
            let old: Vec<Value> = table.get(id).unwrap().to_vec();
            let mut new = old.clone();
            new[2] = Value::str(format!("CITY{i}"));
            table.update_cell(id, 2, new[2].clone()).unwrap();
            det.update(id, &old, &new);
        }
        let batch = detect_native(&table, &d.cfds).unwrap().normalized();
        assert_eq!(batch, det.report().normalized());
    }
}
