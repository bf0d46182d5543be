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

use crate::fxhash::DistinctCounter;

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

    /// Take `delta` off `vio(row)`, which must hold at least `delta`.
    /// Trailing clean slots are dropped, so a tally that returns to clean
    /// clones for free.
    pub fn sub(&mut self, row: RowId, delta: u64) {
        if delta == 0 {
            return;
        }
        let i = row.index();
        self.dense[i] -= delta;
        if self.dense[i] == 0 {
            self.nonzero -= 1;
            if i + 1 == self.dense.len() {
                let end = self.dense.iter().rposition(|&v| v > 0).map_or(0, |j| j + 1);
                self.dense.truncate(end);
            }
        }
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
        /// Per member, how many members hold its RHS value (`own[i]` for
        /// `rows[i]`), shared like `rows`. The auditor reads the group's
        /// strict majority off these counts (`own * 2 > len`).
        own: Arc<Vec<u64>>,
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
        self.push_multi_shared(cfd_idx, key, Arc::new(rows), Arc::new(own));
    }

    /// [`ViolationReport::push_multi`] with the per-member value
    /// multiplicities already known (`own[i]` = how many group members hold
    /// the same RHS value as `rows[i]`), over already-shared lists: the
    /// columnar detector counts over dictionary codes, and the snapshot
    /// lifecycle's memo and the cluster's kept merge replay their groups
    /// into each fresh report for one refcount bump per list.
    pub fn push_multi_shared(
        &mut self,
        cfd_idx: usize,
        key: Vec<Value>,
        rows: Arc<Vec<(RowId, Value)>>,
        own: Arc<Vec<u64>>,
    ) {
        debug_assert_eq!(rows.len(), own.len(), "one multiplicity per member");
        let total = rows.len() as u64;
        for ((r, _), n) in rows.iter().zip(own.iter()) {
            self.vio.add(*r, total - n);
        }
        *self.per_cfd.entry(cfd_idx).or_default() += 1;
        self.violations.push(Violation {
            cfd_idx,
            kind: ViolationKind::MultiTuple { key, rows, own },
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

    /// Canonical ordering for equality tests: sorts violations by
    /// (cfd, kind, first row, key).
    pub fn normalized(mut self) -> ViolationReport {
        for v in &mut self.violations {
            if let ViolationKind::MultiTuple { rows, own, .. } = &mut v.kind {
                // Shared member lists are copied only when actually out of
                // order (memoized groups are often already row-sorted).
                // Each count moves with its member.
                if !rows.windows(2).all(|w| w[0].0 <= w[1].0) {
                    let mut order: Vec<usize> = (0..rows.len()).collect();
                    order.sort_by_key(|&i| rows[i].0);
                    *rows = Arc::new(order.iter().map(|&i| rows[i].clone()).collect());
                    *own = Arc::new(order.iter().map(|&i| own[i]).collect());
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

fn violation_sort_key(v: &Violation) -> (u8, u64, String) {
    match &v.kind {
        ViolationKind::SingleTuple { row } => (0, row.0, String::new()),
        ViolationKind::MultiTuple { key, rows, .. } => (
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
    fn normalized_is_order_insensitive() {
        let mut a = ViolationReport::default();
        a.push_single(0, RowId(1));
        a.push_single(0, RowId(2));
        let mut b = ViolationReport::default();
        b.push_single(0, RowId(2));
        b.push_single(0, RowId(1));
        assert_eq!(a.normalized(), b.normalized());
    }

    #[test]
    fn normalized_equal_regardless_of_group_order() {
        let g1 = [(1u64, "a"), (4, "b")];
        let g2 = [(2u64, "x"), (3, "y")];
        let report = |groups: [&[(u64, &str)]; 2]| {
            let mut r = ViolationReport::default();
            for g in groups {
                let rows = g.iter().map(|&(id, v)| (RowId(id), Value::str(v)));
                r.push_multi(0, vec![Value::str("UK")], rows.collect());
            }
            r.normalized()
        };
        assert_eq!(report([&g1, &g2]), report([&g2, &g1]));
    }

    #[test]
    fn normalized_keeps_each_count_with_its_row() {
        let group = |ids: [u64; 3]| -> Vec<(RowId, Value)> {
            let val = |id| Value::str(if id == 3 { "b" } else { "a" });
            ids.iter().map(|&id| (RowId(id), val(id))).collect()
        };
        let mut shuffled = ViolationReport::default();
        shuffled.push_multi(0, vec![Value::str("UK")], group([3, 1, 2]));
        let mut sorted = ViolationReport::default();
        sorted.push_multi(0, vec![Value::str("UK")], group([1, 2, 3]));
        let sorted = sorted.normalized();
        let ViolationKind::MultiTuple { own, .. } = &sorted.violations[0].kind else {
            panic!("a multi-tuple violation");
        };
        assert_eq!(**own, [2, 2, 1]);
        assert_eq!(shuffled.normalized(), sorted);
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
    fn sub_undoes_add() {
        // A row taken back to zero leaves iteration, length and equality.
        let mut a = VioTally::default();
        a.add(RowId(1), 1);
        let mut b = a.clone();
        b.add(RowId(7), 2);
        b.add(RowId(1), 4);
        b.sub(RowId(7), 1);
        assert_eq!(b.get(RowId(7)), 1);
        b.sub(RowId(7), 1);
        b.sub(RowId(1), 4);
        assert_eq!(a, b);
        assert_eq!(b.len(), 1);
        assert!(!b.contains(RowId(7)));
        // The clean tail went with row 7.
        assert_eq!(b.dense.len(), 2);
        b.sub(RowId(1), 1);
        assert!(b.is_empty() && b.dense.is_empty());
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
