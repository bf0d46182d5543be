//! Violation records and the per-tuple `vio(t)` tally.
//!
//! The demo paper (§2, Error Detector) defines `vio(t)` as: 0 initially,
//! +1 for each CFD for which `t` is a single-tuple violation, and, for each
//! CFD, + the cardinality of the set of tuples that *jointly with `t`*
//! violate that CFD. We read "jointly violating with t" as the tuples in
//! `t`'s LHS-group holding a **different** RHS value (its conflict
//! partners): in a group {a, a, b}, each `a`-tuple gains 1 and the
//! `b`-tuple gains 2.
//!
//! NULL handling mirrors the SQL detection queries: tuples with a NULL RHS
//! are never violators, and a group violates only if it holds ≥ 2 distinct
//! non-NULL RHS values.

use std::collections::HashMap;
use std::sync::Arc;

use minidb::{RowId, Value};

use crate::fxhash::{DistinctCounter, FxHashMap, FxHasher};

/// The per-row `vio(t)` tally, stored **dense**: row ids are arena slot
/// indices (small sequential integers), so a flat `Vec<u64>` indexed by
/// `RowId` replaces the hash map that used to sit on the per-member hot
/// path of every detection engine — one bounds check and an add per
/// violating member, no hashing, no probing. Rows with zero violations
/// occupy (or imply) a zero slot and are invisible to iteration, length
/// and equality, so the map-of-dirty-rows reading of `vio` is preserved.
#[derive(Debug, Clone, Default)]
pub struct VioTally {
    /// `vio(t)` by arena slot; trailing rows may be absent (= 0).
    dense: Vec<u64>,
    /// Number of rows with `vio(t) > 0`.
    nonzero: usize,
}

impl VioTally {
    /// Add `delta` to `vio(row)`. Zero deltas are ignored (they would
    /// otherwise force slot growth for a clean row).
    pub fn add(&mut self, row: RowId, delta: u64) {
        if delta == 0 {
            return;
        }
        let i = row.index();
        if i >= self.dense.len() {
            self.dense.resize(i + 1, 0);
        }
        let slot = &mut self.dense[i];
        if *slot == 0 {
            self.nonzero += 1;
        }
        *slot += delta;
    }

    /// `vio(row)`, zero when clean.
    pub fn get(&self, row: RowId) -> u64 {
        self.dense.get(row.index()).copied().unwrap_or(0)
    }

    /// True iff `vio(row) > 0`.
    pub fn contains(&self, row: RowId) -> bool {
        self.get(row) > 0
    }

    /// Number of rows with a non-zero tally.
    pub fn len(&self) -> usize {
        self.nonzero
    }

    /// True iff every row is clean.
    pub fn is_empty(&self) -> bool {
        self.nonzero == 0
    }

    /// `(row, vio)` pairs with `vio > 0`, in ascending row order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, u64)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0)
            .map(|(i, &v)| (RowId(i as u64), v))
    }

    /// Rows with a non-zero tally, ascending.
    pub fn rows(&self) -> impl Iterator<Item = RowId> + '_ {
        self.iter().map(|(r, _)| r)
    }

    /// Non-zero tallies, in ascending row order.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl PartialEq for VioTally {
    fn eq(&self, other: &VioTally) -> bool {
        // Dense vectors of different lengths (trailing zeros) must still
        // compare equal when the non-zero entries agree.
        self.nonzero == other.nonzero && self.iter().eq(other.iter())
    }
}

/// The kind of a violation.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// A tuple conflicting with a constant-RHS CFD all by itself.
    SingleTuple {
        /// The violating tuple.
        row: RowId,
    },
    /// A group of tuples jointly violating a variable CFD.
    MultiTuple {
        /// LHS key shared by the group.
        key: Vec<Value>,
        /// Members with non-NULL RHS values, as `(row, rhs value)`.
        /// `Arc`-shared: violating groups can run to the whole relation,
        /// and the snapshot lifecycle replays memoized groups into fresh
        /// reports — sharing makes that a refcount bump per group instead
        /// of a clone per member.
        rows: Arc<Vec<(RowId, Value)>>,
    },
}

/// One detected violation, attributed to a CFD (by index into the checked
/// constraint slice).
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Index of the violated CFD in the input constraint set.
    pub cfd_idx: usize,
    /// What was violated and by whom.
    pub kind: ViolationKind,
}

impl Violation {
    /// Rows involved in this violation.
    pub fn rows(&self) -> Vec<RowId> {
        match &self.kind {
            ViolationKind::SingleTuple { row } => vec![*row],
            ViolationKind::MultiTuple { rows, .. } => rows.iter().map(|(r, _)| *r).collect(),
        }
    }
}

/// Full detection output: the violations plus derived statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViolationReport {
    /// All violations, ordered by CFD index then discovery order.
    pub violations: Vec<Violation>,
    /// `vio(t)` per row (rows with zero violations are absent).
    pub vio: VioTally,
    /// Number of violations per CFD index.
    pub per_cfd: HashMap<usize, usize>,
}

impl ViolationReport {
    /// Add a single-tuple violation.
    pub fn push_single(&mut self, cfd_idx: usize, row: RowId) {
        self.vio.add(row, 1);
        *self.per_cfd.entry(cfd_idx).or_default() += 1;
        self.violations.push(Violation {
            cfd_idx,
            kind: ViolationKind::SingleTuple { row },
        });
    }

    /// Add a multi-tuple violation group; computes each member's conflict
    /// partners. `rows` must hold non-NULL RHS values with ≥ 2 distinct.
    pub fn push_multi(&mut self, cfd_idx: usize, key: Vec<Value>, rows: Vec<(RowId, Value)>) {
        debug_assert!(rows.len() >= 2, "multi-tuple violation needs >= 2 rows");
        // Per-member value multiplicities, counted by reference (Value's
        // Eq/Hash are strong_eq-consistent, so counting slots group
        // exactly like the detection engines do).
        let mut counter: DistinctCounter<&Value> = DistinctCounter::new();
        let idxs: Vec<u32> = rows.iter().map(|(_, v)| counter.add(v)).collect();
        debug_assert!(counter.distinct() >= 2, "group must disagree on RHS");
        let own: Vec<u64> = idxs.into_iter().map(|i| counter.count_at(i)).collect();
        self.push_multi_prepared(cfd_idx, key, rows, &own);
    }

    /// [`ViolationReport::push_multi`] with the per-member value
    /// multiplicities already known (`own[i]` = how many group members hold
    /// the same RHS value as `rows[i]`). The columnar detector counts over
    /// dictionary codes and skips the value comparisons entirely.
    pub fn push_multi_prepared(
        &mut self,
        cfd_idx: usize,
        key: Vec<Value>,
        rows: Vec<(RowId, Value)>,
        own: &[u64],
    ) {
        self.push_multi_shared(cfd_idx, key, Arc::new(rows), own);
    }

    /// [`ViolationReport::push_multi_prepared`] over an already-shared
    /// member list: the snapshot lifecycle's memo replays a fragment's
    /// groups into each fresh report for one refcount bump per group.
    pub fn push_multi_shared(
        &mut self,
        cfd_idx: usize,
        key: Vec<Value>,
        rows: Arc<Vec<(RowId, Value)>>,
        own: &[u64],
    ) {
        debug_assert_eq!(rows.len(), own.len(), "one multiplicity per member");
        let total = rows.len() as u64;
        for ((r, _), n) in rows.iter().zip(own) {
            self.vio.add(*r, total - n);
        }
        *self.per_cfd.entry(cfd_idx).or_default() += 1;
        self.violations.push(Violation {
            cfd_idx,
            kind: ViolationKind::MultiTuple { key, rows },
        });
    }

    /// `vio(t)` for a row (0 when clean).
    pub fn vio_of(&self, row: RowId) -> u64 {
        self.vio.get(row)
    }

    /// Total number of violations (records, not tuples).
    pub fn len(&self) -> usize {
        self.violations.len()
    }

    /// True if nothing was detected.
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }

    /// All rows involved in at least one violation, ascending.
    pub fn dirty_rows(&self) -> Vec<RowId> {
        self.vio.rows().collect()
    }

    /// Merge another report into this one.
    ///
    /// Violations this report already contains — same CFD and same row
    /// (single-tuple), or same key and member *set* (multi-tuple,
    /// order-insensitive) — are **skipped**, not double-counted: when two
    /// shards observe the same group, the merged report must hold the
    /// group once, with each member's `vio(t)` contribution counted once.
    pub fn merge(&mut self, other: ViolationReport) {
        // Every fingerprint includes the CFD index, so reports over
        // disjoint CFD sets cannot contain duplicates; skip the dedupe
        // bookkeeping entirely rather than re-index the growing receiver
        // on every part.
        if other.per_cfd.keys().all(|k| !self.per_cfd.contains_key(k)) {
            for v in other.violations {
                self.absorb(v);
            }
            return;
        }
        // Fingerprint index over the violations already present; exact
        // equality is re-verified on fingerprint hits, so a hash collision
        // can never drop a genuine violation.
        let mut seen: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        for (i, v) in self.violations.iter().enumerate() {
            seen.entry(fingerprint(v)).or_default().push(i);
        }
        for v in other.violations {
            let fp = fingerprint(&v);
            if let Some(idxs) = seen.get(&fp) {
                if idxs
                    .iter()
                    .any(|&i| same_violation(&self.violations[i], &v))
                {
                    continue; // duplicate observation of one violation
                }
            }
            let idx = self.violations.len();
            self.absorb(v);
            seen.entry(fp).or_default().push(idx);
        }
    }

    /// Append a violation taken from another report, recomputing tallies.
    fn absorb(&mut self, v: Violation) {
        match v.kind {
            ViolationKind::SingleTuple { row } => self.push_single(v.cfd_idx, row),
            ViolationKind::MultiTuple { key, rows } => {
                let rows = Arc::try_unwrap(rows).unwrap_or_else(|a| (*a).clone());
                self.push_multi(v.cfd_idx, key, rows);
            }
        }
    }

    /// Canonical ordering for equality tests: sorts violations by
    /// (cfd, kind, first row, key).
    pub fn normalized(mut self) -> ViolationReport {
        for v in &mut self.violations {
            if let ViolationKind::MultiTuple { rows, .. } = &mut v.kind {
                // Shared member lists are cloned only when actually out of
                // order (memoized groups are often already row-sorted).
                if !rows.windows(2).all(|w| w[0].0 <= w[1].0) {
                    Arc::make_mut(rows).sort_by_key(|(r, _)| *r);
                }
            }
        }
        self.violations.sort_by(|a, b| {
            let ka = (a.cfd_idx, violation_sort_key(a));
            let kb = (b.cfd_idx, violation_sort_key(b));
            ka.cmp(&kb)
        });
        self
    }
}

/// Order-insensitive digest of a violation, used by [`ViolationReport::merge`]
/// to index candidates for deduplication. Multi-tuple member order is
/// folded commutatively (two shards may have scanned the group in
/// different orders); collisions are resolved by [`same_violation`].
fn fingerprint(v: &Violation) -> u64 {
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    h.write_usize(v.cfd_idx);
    match &v.kind {
        ViolationKind::SingleTuple { row } => {
            h.write_u8(0);
            h.write_u64(row.0);
        }
        ViolationKind::MultiTuple { key, rows } => {
            h.write_u8(1);
            h.write_usize(key.len());
            h.write_usize(rows.len());
            let digest = rows
                .iter()
                .map(|(r, _)| (r.0 ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0x2545_f491_4f6c_dd1d))
                .fold(0u64, u64::wrapping_add);
            h.write_u64(digest);
        }
    }
    h.finish()
}

/// Exact duplicate check behind [`fingerprint`]: same CFD and same row
/// (single-tuple) or same key and member multiset (multi-tuple; member
/// values compare by `strong_eq` through `Value`'s `PartialEq`).
fn same_violation(a: &Violation, b: &Violation) -> bool {
    if a.cfd_idx != b.cfd_idx {
        return false;
    }
    match (&a.kind, &b.kind) {
        (ViolationKind::SingleTuple { row: x }, ViolationKind::SingleTuple { row: y }) => x == y,
        (
            ViolationKind::MultiTuple { key: ka, rows: ra },
            ViolationKind::MultiTuple { key: kb, rows: rb },
        ) => {
            if ka != kb || ra.len() != rb.len() {
                return false;
            }
            if Arc::ptr_eq(ra, rb) {
                return true;
            }
            fn sorted(rows: &[(RowId, Value)]) -> Vec<&(RowId, Value)> {
                let mut m: Vec<&(RowId, Value)> = rows.iter().collect();
                m.sort_by_key(|(r, _)| *r);
                m
            }
            sorted(ra) == sorted(rb)
        }
        _ => false,
    }
}

fn violation_sort_key(v: &Violation) -> (u8, u64, String) {
    match &v.kind {
        ViolationKind::SingleTuple { row } => (0, row.0, String::new()),
        ViolationKind::MultiTuple { key, rows } => (
            1,
            rows.first().map(|(r, _)| r.0).unwrap_or(0),
            key.iter()
                .map(|v| v.render())
                .collect::<Vec<_>>()
                .join("\u{1}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_violation_increments_by_one() {
        let mut r = ViolationReport::default();
        r.push_single(0, RowId(3));
        r.push_single(1, RowId(3));
        assert_eq!(r.vio_of(RowId(3)), 2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn multi_violation_counts_conflict_partners() {
        let mut r = ViolationReport::default();
        // Group {a, a, b}: a-tuples get +1, b-tuple gets +2.
        r.push_multi(
            0,
            vec![Value::str("UK")],
            vec![
                (RowId(1), Value::str("a")),
                (RowId(2), Value::str("a")),
                (RowId(3), Value::str("b")),
            ],
        );
        assert_eq!(r.vio_of(RowId(1)), 1);
        assert_eq!(r.vio_of(RowId(2)), 1);
        assert_eq!(r.vio_of(RowId(3)), 2);
    }

    #[test]
    fn merge_accumulates_tallies() {
        let mut a = ViolationReport::default();
        a.push_single(0, RowId(1));
        let mut b = ViolationReport::default();
        b.push_single(2, RowId(1));
        a.merge(b);
        assert_eq!(a.vio_of(RowId(1)), 2);
        assert_eq!(a.per_cfd[&0], 1);
        assert_eq!(a.per_cfd[&2], 1);
    }

    #[test]
    fn normalized_is_order_insensitive() {
        let mut a = ViolationReport::default();
        a.push_single(0, RowId(1));
        a.push_single(0, RowId(2));
        let mut b = ViolationReport::default();
        b.push_single(0, RowId(2));
        b.push_single(0, RowId(1));
        assert_eq!(a.normalized(), b.normalized());
    }

    fn multi(cfd_idx: usize, members: &[(u64, &str)]) -> ViolationReport {
        let mut r = ViolationReport::default();
        r.push_multi(
            cfd_idx,
            vec![Value::str("UK")],
            members
                .iter()
                .map(|&(id, v)| (RowId(id), Value::str(v)))
                .collect(),
        );
        r
    }

    #[test]
    fn merge_dedupes_identical_group_from_two_shards() {
        // Two replicas (or overlapping shards) observe the *same* group:
        // the merged report must hold it once, tallies counted once.
        let group = [(1u64, "a"), (2, "a"), (3, "b")];
        let mut a = multi(0, &group);
        let expect = a.clone().normalized();
        a.merge(multi(0, &group));
        assert_eq!(a.len(), 1, "duplicate group must not be re-added");
        assert_eq!(a.vio_of(RowId(1)), 1);
        assert_eq!(a.vio_of(RowId(3)), 2);
        assert_eq!(a.normalized(), expect);
    }

    #[test]
    fn merge_dedupes_order_insensitively() {
        // A shard that scanned the group in a different member order still
        // reports the same violation.
        let mut a = multi(0, &[(1, "a"), (2, "a"), (3, "b")]);
        a.merge(multi(0, &[(3, "b"), (1, "a"), (2, "a")]));
        assert_eq!(a.len(), 1);
        assert_eq!(a.vio_of(RowId(2)), 1);
    }

    #[test]
    fn merge_keeps_distinct_groups_and_cfds() {
        // Same members under a different CFD index, and a genuinely
        // different group under the same CFD: both survive the merge.
        let mut a = multi(0, &[(1, "a"), (3, "b")]);
        a.merge(multi(1, &[(1, "a"), (3, "b")]));
        a.merge(multi(0, &[(5, "x"), (6, "y")]));
        assert_eq!(a.len(), 3);
        assert_eq!(a.vio_of(RowId(1)), 2, "one partner per CFD");
        // Same key/members but a *different RHS assignment* is a different
        // violation (values participate in the member comparison).
        a.merge(multi(0, &[(5, "y"), (6, "x")]));
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn merge_dedupes_duplicate_singles() {
        let mut a = ViolationReport::default();
        a.push_single(0, RowId(7));
        let mut b = ViolationReport::default();
        b.push_single(0, RowId(7));
        b.push_single(1, RowId(7));
        a.merge(b);
        assert_eq!(a.len(), 2, "same (cfd, row) single collapses");
        assert_eq!(a.vio_of(RowId(7)), 2);
    }

    #[test]
    fn normalized_equal_regardless_of_shard_arrival_order() {
        let g1 = [(1u64, "a"), (4, "b")];
        let g2 = [(2u64, "x"), (3, "y")];
        let mut ab = multi(0, &g1);
        ab.merge(multi(0, &g2));
        let mut ba = multi(0, &g2);
        ba.merge(multi(0, &g1));
        assert_eq!(ab.normalized(), ba.normalized());
    }

    #[test]
    fn dense_tally_ignores_arena_width() {
        // Reports over the same rows compare equal even when one tally's
        // dense vector stretches further (trailing zero slots).
        let mut a = ViolationReport::default();
        a.push_single(0, RowId(1));
        let mut b = ViolationReport::default();
        b.push_single(0, RowId(1));
        b.vio.add(RowId(900), 3);
        assert_ne!(a.vio, b.vio);
        let mut c = ViolationReport::default();
        c.push_single(0, RowId(1));
        assert_eq!(a.vio, c.vio);
        assert_eq!(b.vio.len(), 2);
        assert_eq!(b.vio.rows().collect::<Vec<_>>(), vec![RowId(1), RowId(900)]);
    }

    #[test]
    fn dirty_rows_sorted_unique() {
        let mut r = ViolationReport::default();
        r.push_single(0, RowId(9));
        r.push_single(1, RowId(2));
        r.push_single(2, RowId(9));
        assert_eq!(r.dirty_rows(), vec![RowId(2), RowId(9)]);
    }
}
