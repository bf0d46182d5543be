//! Cross-shard partial-aggregation exchange for scatter/gather detection.
//!
//! Semandaq's detection semantics partition cleanly across shards:
//! **constant CFDs** are per-row predicates, so every single-tuple
//! violation is decided entirely shard-local; **variable CFDs** only
//! conflict *within* an LHS group, so a shard can summarize each of its
//! groups into a compact partial state and a coordinator can merge the
//! per-shard partials into exactly the groups a single-node scan over the
//! union would have built.
//!
//! # Wire format
//!
//! The unit of exchange is one [`CfdPartial`] per CFD per shard:
//!
//! * `Constant { violating }` — the shard's single-tuple violators, as
//!   (global) row ids. Nothing to reconcile: the coordinator concatenates.
//! * `Variable { groups }` — one [`GroupPartial`] per non-empty LHS group
//!   the shard holds (violating *or clean*: a shard-locally clean group
//!   can still conflict with another shard's portion of the same group):
//!   - `key` — the decoded LHS key, in pattern order, constants included
//!     (exactly the key the report format uses);
//!   - `values` — the **distinct** non-NULL RHS values of the shard's
//!     members, each with its member count. For the typical clean group
//!     this is a single `(representative, n)` pair — the whole group in
//!     two words plus one `Arc` bump;
//!   - `members` — the group's member rows as `(row id, index into
//!     values)`. Twelve bytes per member, no `Value` per member.
//!
//! NULL-RHS rows are excluded on the shard (mirroring `COUNT(DISTINCT)`),
//! and keys/values compare across shards by `strong_eq` (through
//! [`Value`]'s `PartialEq`/`Hash`), so NULL keys group together and
//! `3 == 3.0` merges — the same semantics every single-node engine
//! implements.
//!
//! The coordinator keeps one [`MergedCfd`] per CFD: each shard's last
//! partial, where every LHS key's group sits in each of them, and every
//! violating key's materialized members. A detect hands it the new
//! partials. One that is the same `Arc` as last time costs nothing; a
//! changed one is compared with its predecessor group by group, and only
//! the keys whose per-shard groups changed, appeared or vanished are
//! re-merged, from at most one piece per shard. Re-merging unions a key's
//! pieces, re-mapping each shard's value indices into the merged
//! distinct-value table, and materializes a violation iff the union holds
//! ≥ 2 distinct RHS values — computing each member's conflict-partner
//! count from the merged value counts, so the resulting
//! [`ViolationReport`] carries the same `vio(t)` tallies a single-node
//! detect would have produced. The report is then assembled from the
//! stored per-key member lists and their merged value counts, one refcount
//! bump each; the auditor reads each group's majority off those counts.
//!
//! [`merge_cfd_partials`] merges a set of partials from scratch with the
//! same re-mapping; it is the oracle the maintained merge is tested
//! against.

use std::sync::Arc;

use minidb::{RowId, Value};

use crate::fxhash::FxHashMap;
use crate::violation::ViolationReport;

/// Partial state of one LHS group of a variable CFD on one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPartial {
    /// Decoded LHS key (pattern order, constants included).
    pub key: Vec<Value>,
    /// Distinct non-NULL RHS values with their shard-local member counts.
    pub values: Vec<(Value, u64)>,
    /// Members as `(row id, index into values)`.
    pub members: Vec<(RowId, u32)>,
}

/// One CFD's partial detection state on one shard.
#[derive(Debug, Clone, PartialEq)]
pub enum CfdPartial {
    /// Constant-RHS CFD: the shard's single-tuple violators (sorted).
    Constant {
        /// Violating row ids.
        violating: Vec<RowId>,
    },
    /// Variable CFD: every non-empty LHS group's partial state.
    Variable {
        /// Per-group partials, violating and clean alike.
        groups: Vec<GroupPartial>,
    },
}

impl CfdPartial {
    /// Number of groups carried (0 for constant partials).
    pub fn n_groups(&self) -> usize {
        match self {
            CfdPartial::Constant { .. } => 0,
            CfdPartial::Variable { groups } => groups.len(),
        }
    }

    /// Number of per-row entries carried (violators or group members) —
    /// the dominant term of the exchange volume.
    pub fn n_members(&self) -> usize {
        match self {
            CfdPartial::Constant { violating } => violating.len(),
            CfdPartial::Variable { groups } => groups.iter().map(|g| g.members.len()).sum(),
        }
    }
}

/// A group being merged across shards: the running distinct-value table
/// plus members re-mapped into it.
#[derive(Default)]
struct MergedGroup {
    values: Vec<(Value, u64)>,
    members: Vec<(RowId, u32)>,
}

impl MergedGroup {
    /// Union one shard's piece of the group in, re-mapping its value
    /// indices into the merged distinct-value table (linear scan: groups
    /// disagree on a handful of values; the producer already deduplicated).
    fn absorb(&mut self, g: &GroupPartial) {
        let remap: Vec<u32> = g
            .values
            .iter()
            .map(
                |(v, n)| match self.values.iter().position(|(u, _)| u == v) {
                    Some(i) => {
                        self.values[i].1 += n;
                        i as u32
                    }
                    None => {
                        self.values.push((v.clone(), *n));
                        (self.values.len() - 1) as u32
                    }
                },
            )
            .collect();
        self.members
            .extend(g.members.iter().map(|&(r, vi)| (r, remap[vi as usize])));
    }

    /// The group violates: it holds ≥ 2 distinct RHS values.
    fn violates(&self) -> bool {
        self.values.len() >= 2
    }

    /// Each member with its RHS value, in member order.
    fn rows(&self) -> impl Iterator<Item = (RowId, Value)> + '_ {
        self.members
            .iter()
            .map(|&(r, vi)| (r, self.values[vi as usize].0.clone()))
    }

    /// Each member's merged value count, in member order.
    fn own(&self) -> impl Iterator<Item = u64> + '_ {
        self.members
            .iter()
            .map(|&(_, vi)| self.values[vi as usize].1)
    }
}

/// A merged violating group, decoded into the report format's parts: LHS
/// key, members with their RHS values, per-member distinct-value counts.
type MergedDecoded = (Vec<Value>, Vec<(RowId, Value)>, Vec<u64>);

/// Union variable-CFD group partials by LHS key and return every merged
/// group holding ≥ 2 distinct non-NULL RHS values, decoded: the gather
/// half of the cluster's variable-CFD exchange.
fn merge_variable_partials<'a, I>(parts: I) -> Vec<MergedDecoded>
where
    I: IntoIterator<Item = &'a [GroupPartial]>,
{
    // Insertion-ordered group table (a plain map would randomize output
    // order between runs; normalized() would hide it, but deterministic
    // reports are worth one index map).
    let mut groups: Vec<(Vec<Value>, MergedGroup)> = Vec::new();
    let mut index: FxHashMap<Vec<Value>, usize> = FxHashMap::default();

    for gs in parts {
        for g in gs {
            let at = *index.entry(g.key.clone()).or_insert_with(|| {
                groups.push((g.key.clone(), MergedGroup::default()));
                groups.len() - 1
            });
            groups[at].1.absorb(g);
        }
    }

    groups
        .into_iter()
        .filter(|(_, merged)| merged.violates())
        .map(|(key, merged)| (key, merged.rows().collect(), merged.own().collect()))
        .collect()
}

/// Merge one CFD's partials from every shard into `report`, as violation
/// records under `cfd_idx`.
///
/// The output is `normalized()`-equal to evaluating the CFD single-node
/// over the union of the shards' rows: constant violators concatenate;
/// variable groups union by LHS key, and a merged group violates iff it
/// holds ≥ 2 distinct non-NULL RHS values — whether the disagreement sat
/// inside one shard or only appears across shards.
pub fn merge_cfd_partials<'a, I>(cfd_idx: usize, parts: I, report: &mut ViolationReport)
where
    I: IntoIterator<Item = &'a CfdPartial>,
{
    let mut singles: Vec<RowId> = Vec::new();
    let mut variable: Vec<&'a [GroupPartial]> = Vec::new();
    for part in parts {
        singles.extend_from_slice(singles_of(part));
        variable.push(groups_of(part));
    }

    singles.sort_unstable();
    for row in singles {
        report.push_single(cfd_idx, row);
    }
    for (key, rows, own) in merge_variable_partials(variable) {
        report.push_multi_shared(cfd_idx, key, Arc::new(rows), Arc::new(own));
    }
}

/// A constant partial's violators (none for a variable partial).
fn singles_of(part: &CfdPartial) -> &[RowId] {
    match part {
        CfdPartial::Constant { violating } => violating,
        CfdPartial::Variable { .. } => &[],
    }
}

/// A variable partial's groups (none for a constant partial).
fn groups_of(part: &CfdPartial) -> &[GroupPartial] {
    match part {
        CfdPartial::Constant { .. } => &[],
        CfdPartial::Variable { groups } => groups,
    }
}

/// Sentinel in [`KeyState::at`]: the shard's partial holds no group under
/// the key.
const ABSENT: u32 = u32::MAX;

/// A merged violating group, kept between detects: the members with their
/// RHS values and each member's merged value count, both shared with
/// every report the group lands in.
#[derive(Debug, Default)]
struct Materialized {
    rows: Arc<Vec<(RowId, Value)>>,
    own: Arc<Vec<u64>>,
}

/// One LHS key of a [`MergedCfd`].
#[derive(Debug)]
struct KeyState {
    key: Vec<Value>,
    /// Per shard: the index of the key's group in the shard's remembered
    /// partial, or [`ABSENT`].
    at: Vec<u32>,
    /// The merged violation; `None` while the key's union is clean.
    violation: Option<Materialized>,
}

/// One CFD's cross-shard merge, maintained across detects: the
/// coordinator re-merges only the LHS keys whose shard groups changed.
///
/// [`MergedCfd::merge`] produces what [`merge_cfd_partials`] produces
/// over the same partials — a `normalized()`-equal report, value counts
/// included — whatever partials it was handed before. It decides what changed by comparing partials, never by
/// trusting an epoch, so a partial recomputed with the same content costs
/// a comparison and no re-merge. Each violating group's members are kept
/// in row order.
#[derive(Debug, Default)]
pub struct MergedCfd {
    /// Each shard's last partial (`None` before the first merge).
    parts: Vec<Option<Arc<CfdPartial>>>,
    /// Per shard: the key slot of each group of its remembered partial.
    slot_of: Vec<Vec<u32>>,
    /// LHS key → slot in `keys`.
    index: FxHashMap<Vec<Value>, u32>,
    /// Key slots. A slot no shard holds a group for is vacated onto
    /// `free` and reused by the next new key.
    keys: Vec<KeyState>,
    free: Vec<u32>,
    /// The constant violators of every shard, sorted.
    singles: Vec<RowId>,
}

impl MergedCfd {
    /// Fold one detect's partials — one per shard, in shard order — into
    /// the merge, then append the CFD's violations under `cfd_idx` to
    /// `report`. A partial that is the same `Arc` as last time costs
    /// nothing; a changed one is compared group by group with its
    /// predecessor. Returns the number of LHS keys re-merged: those whose
    /// group changed, appeared or vanished on some shard. A different
    /// shard count than last time starts the merge afresh.
    pub fn merge<'a, I>(&mut self, cfd_idx: usize, parts: I, report: &mut ViolationReport) -> u64
    where
        I: IntoIterator<Item = &'a Arc<CfdPartial>>,
    {
        let parts: Vec<&Arc<CfdPartial>> = parts.into_iter().collect();
        if parts.len() != self.parts.len() {
            *self = MergedCfd {
                parts: vec![None; parts.len()],
                slot_of: vec![Vec::new(); parts.len()],
                ..MergedCfd::default()
            };
        }
        let mut dirty: Vec<u32> = Vec::new();
        let mut changed = false;
        for (s, &new) in parts.iter().enumerate() {
            if matches!(&self.parts[s], Some(old) if Arc::ptr_eq(old, new)) {
                continue;
            }
            changed = true;
            let old = self.parts[s].replace(Arc::clone(new));
            self.diff_shard(s, old.as_deref(), new, &mut dirty);
        }
        dirty.sort_unstable();
        dirty.dedup();
        for &slot in &dirty {
            self.remerge(slot);
        }
        if changed {
            self.singles.clear();
            for p in &parts {
                self.singles.extend_from_slice(singles_of(p));
            }
            self.singles.sort_unstable();
        }

        for &row in &self.singles {
            report.push_single(cfd_idx, row);
        }
        for k in &self.keys {
            if let Some(m) = &k.violation {
                let (rows, own) = (Arc::clone(&m.rows), Arc::clone(&m.own));
                report.push_multi_shared(cfd_idx, k.key.clone(), rows, own);
            }
        }
        dirty.len() as u64
    }

    /// Point shard `s`'s key slots at the groups of its `new` partial and
    /// push every key whose group there changed, appeared or vanished
    /// since `old` onto `dirty`.
    fn diff_shard(
        &mut self,
        s: usize,
        old: Option<&CfdPartial>,
        new: &CfdPartial,
        dirty: &mut Vec<u32>,
    ) {
        let old_groups = old.map(groups_of).unwrap_or_default();
        let new_groups = groups_of(new);
        // Until overwritten below, `at[s]` indexes the old partial.
        let mut seen = vec![false; self.keys.len()];
        let mut slots = Vec::with_capacity(new_groups.len());
        for (gi, g) in new_groups.iter().enumerate() {
            // A re-export mostly keeps its groups in place: try the old
            // group at the same index before hashing the key.
            let slot = match old_groups.get(gi) {
                Some(o) if o.key == g.key => self.slot_of[s][gi],
                _ => match self.index.get(&g.key) {
                    Some(&slot) => slot,
                    None => self.vacant_slot(&g.key),
                },
            };
            let k = &mut self.keys[slot as usize];
            let prev = k.at[s];
            if prev == ABSENT || old_groups.get(prev as usize) != Some(g) {
                dirty.push(slot);
            }
            k.at[s] = gi as u32;
            if seen.len() <= slot as usize {
                seen.resize(slot as usize + 1, false);
            }
            assert!(!seen[slot as usize], "one group per LHS key in a partial");
            seen[slot as usize] = true;
            slots.push(slot);
        }
        for &slot in &self.slot_of[s] {
            if !seen[slot as usize] {
                self.keys[slot as usize].at[s] = ABSENT;
                dirty.push(slot);
            }
        }
        self.slot_of[s] = slots;
    }

    /// A slot for a key no shard held a group for until now.
    fn vacant_slot(&mut self, key: &[Value]) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.keys[slot as usize].key = key.to_vec();
                slot
            }
            None => {
                self.keys.push(KeyState {
                    key: key.to_vec(),
                    at: vec![ABSENT; self.parts.len()],
                    violation: None,
                });
                (self.keys.len() - 1) as u32
            }
        };
        self.index.insert(key.to_vec(), slot);
        slot
    }

    /// Re-merge one key from its current pieces, at most one per shard;
    /// vacate its slot if no shard holds it any more.
    fn remerge(&mut self, slot: u32) {
        let k = &mut self.keys[slot as usize];
        if k.at.iter().all(|&gi| gi == ABSENT) {
            self.index.remove(&k.key);
            k.key = Vec::new();
            k.violation = None;
            self.free.push(slot);
            return;
        }
        let mut merged = MergedGroup::default();
        for (p, &gi) in self.parts.iter().zip(&k.at) {
            if gi != ABSENT {
                let p = p.as_deref().expect("a shard holding a group has a partial");
                merged.absorb(&groups_of(p)[gi as usize]);
            }
        }
        // Row order, whatever the shard order: `normalized()` then never
        // has to copy a kept group out of its shared `Arc`.
        merged.members.sort_unstable_by_key(|&(r, _)| r);
        if !merged.violates() {
            k.violation = None;
            return;
        }
        // Refill the kept lists in place unless a report still shares
        // them. Allocating each replacement beside the list it replaces
        // fragmented the service's heap: `svc_cluster_mixed` peaked at
        // 72.8 MiB that way, 66.6 MiB with the refill.
        let m = k.violation.get_or_insert_with(Materialized::default);
        refill(&mut m.rows, merged.rows());
        refill(&mut m.own, merged.own());
    }
}

/// Refill a kept list in place, or in a fresh allocation if a report
/// still shares it.
fn refill<T>(list: &mut Arc<Vec<T>>, items: impl Iterator<Item = T>) {
    if Arc::get_mut(list).is_none() {
        *list = Arc::default();
    }
    let list = Arc::get_mut(list).expect("unshared after the check above");
    list.clear();
    list.extend(items);
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::{rngs::StdRng, Rng, SeedableRng};

    use super::*;
    use crate::violation::ViolationKind;

    fn partial(members: &[(u64, &str)]) -> GroupPartial {
        let mut values: Vec<(Value, u64)> = Vec::new();
        let mut ms = Vec::new();
        for &(id, v) in members {
            let v = Value::str(v);
            let vi = match values.iter().position(|(u, _)| *u == v) {
                Some(i) => {
                    values[i].1 += 1;
                    i
                }
                None => {
                    values.push((v, 1));
                    values.len() - 1
                }
            };
            ms.push((RowId(id), vi as u32));
        }
        GroupPartial {
            key: vec![Value::str("k")],
            values,
            members: ms,
        }
    }

    fn variable(groups: Vec<GroupPartial>) -> CfdPartial {
        CfdPartial::Variable { groups }
    }

    #[test]
    fn locally_clean_shards_conflict_across() {
        // Shard 0 holds {a, a}, shard 1 holds {b}: neither violates alone,
        // the union does — the cross-shard case the exchange exists for.
        let s0 = variable(vec![partial(&[(1, "a"), (2, "a")])]);
        let s1 = variable(vec![partial(&[(3, "b")])]);
        let mut report = ViolationReport::default();
        merge_cfd_partials(0, [&s0, &s1], &mut report);
        assert_eq!(report.len(), 1);
        assert_eq!(report.vio_of(RowId(1)), 1, "one conflict partner (b)");
        assert_eq!(report.vio_of(RowId(3)), 2, "two conflict partners (a, a)");
    }

    /// Each violating group's member value counts, in report order.
    fn counts(report: &ViolationReport) -> Vec<Vec<u64>> {
        let own = |v: &crate::violation::Violation| match &v.kind {
            ViolationKind::MultiTuple { own, .. } => Some(own.to_vec()),
            ViolationKind::SingleTuple { .. } => None,
        };
        report.violations.iter().filter_map(own).collect()
    }

    #[test]
    fn majority_flags_follow_the_merged_counts() {
        // {a, a} + {b}: the majority (a count above half the group)
        // exists only after the merge. A tie {a} + {b} has none.
        let s0 = variable(vec![partial(&[(1, "a"), (2, "a")])]);
        let s1 = variable(vec![partial(&[(3, "b")])]);
        let mut report = ViolationReport::default();
        merge_cfd_partials(0, [&s0, &s1], &mut report);
        let tie = variable(vec![partial(&[(4, "a")])]);
        merge_cfd_partials(1, [&tie, &s1], &mut report);
        assert_eq!(counts(&report), [vec![2, 2, 1], vec![1, 1]]);
    }

    #[test]
    fn agreeing_shards_stay_clean() {
        let s0 = variable(vec![partial(&[(1, "a")])]);
        let s1 = variable(vec![partial(&[(2, "a"), (3, "a")])]);
        let mut report = ViolationReport::default();
        merge_cfd_partials(0, [&s0, &s1], &mut report);
        assert!(report.is_empty(), "single distinct value across shards");
    }

    #[test]
    fn local_conflict_survives_the_merge() {
        let s0 = variable(vec![partial(&[(1, "a"), (2, "b")])]);
        let mut report = ViolationReport::default();
        merge_cfd_partials(0, [&s0], &mut report);
        assert_eq!(report.len(), 1);
        assert_eq!(report.vio_of(RowId(1)), 1);
    }

    #[test]
    fn constant_partials_concatenate_sorted() {
        let s0 = CfdPartial::Constant {
            violating: vec![RowId(5)],
        };
        let s1 = CfdPartial::Constant {
            violating: vec![RowId(2)],
        };
        let mut report = ViolationReport::default();
        merge_cfd_partials(3, [&s0, &s1], &mut report);
        assert_eq!(report.dirty_rows(), vec![RowId(2), RowId(5)]);
        assert_eq!(report.per_cfd[&3], 2);
    }

    #[test]
    fn distinct_keys_never_merge() {
        let mut g1 = partial(&[(1, "a")]);
        g1.key = vec![Value::str("k1")];
        let mut g2 = partial(&[(2, "b")]);
        g2.key = vec![Value::str("k2")];
        let s0 = variable(vec![g1]);
        let s1 = variable(vec![g2]);
        let mut report = ViolationReport::default();
        merge_cfd_partials(0, [&s0, &s1], &mut report);
        assert!(report.is_empty(), "different groups cannot conflict");
    }

    #[test]
    fn null_keys_group_together() {
        // strong_eq semantics: an all-NULL LHS is one group across shards.
        let mut g1 = partial(&[(1, "a")]);
        g1.key = vec![Value::Null];
        let mut g2 = partial(&[(2, "b")]);
        g2.key = vec![Value::Null];
        let mut report = ViolationReport::default();
        merge_cfd_partials(0, [&variable(vec![g1]), &variable(vec![g2])], &mut report);
        assert_eq!(report.len(), 1);
    }

    #[test]
    fn exchange_volume_counters() {
        let s0 = variable(vec![partial(&[(1, "a"), (2, "a")]), partial(&[(3, "b")])]);
        assert_eq!(s0.n_groups(), 2);
        assert_eq!(s0.n_members(), 3);
        let c = CfdPartial::Constant {
            violating: vec![RowId(1), RowId(2)],
        };
        assert_eq!(c.n_groups(), 0);
        assert_eq!(c.n_members(), 2);
    }

    fn keyed(key: &str, members: &[(u64, &str)]) -> GroupPartial {
        GroupPartial {
            key: vec![Value::str(key)],
            ..partial(members)
        }
    }

    fn shared(groups: Vec<GroupPartial>) -> Arc<CfdPartial> {
        Arc::new(variable(groups))
    }

    /// Merge `shards` through `m` and from scratch, assert the two agree
    /// (value counts included), and return the keys `m` re-merged and the
    /// normalized report.
    fn merge_both(m: &mut MergedCfd, shards: &[Arc<CfdPartial>]) -> (u64, ViolationReport) {
        let mut kept = ViolationReport::default();
        let remerged = m.merge(2, shards, &mut kept);
        let mut fresh = ViolationReport::default();
        merge_cfd_partials(2, shards.iter().map(|p| p.as_ref()), &mut fresh);
        let kept = kept.normalized();
        assert_eq!(kept, fresh.normalized());
        (remerged, kept)
    }

    #[test]
    fn maintained_merge_skips_shared_and_equal_partials() {
        let s0 = shared(vec![keyed("k", &[(1, "a")]), keyed("j", &[(2, "x")])]);
        let s1 = shared(vec![keyed("k", &[(3, "b")])]);
        let mut m = MergedCfd::default();
        assert_eq!(merge_both(&mut m, &[s0.clone(), s1.clone()]).0, 2);
        assert_eq!(merge_both(&mut m, &[s0.clone(), s1.clone()]).0, 0);
        // Recomputed with the same content: compared, not re-merged.
        let copy = Arc::new((*s1).clone());
        assert_eq!(merge_both(&mut m, &[s0, copy]).0, 0);
    }

    #[test]
    fn key_vanishing_from_one_shard() {
        let s0 = shared(vec![keyed("k", &[(1, "a"), (2, "a")])]);
        let s1 = shared(vec![keyed("k", &[(3, "b")]), keyed("j", &[(4, "x")])]);
        let mut m = MergedCfd::default();
        assert_eq!(merge_both(&mut m, &[s0.clone(), s1]).1.len(), 1);
        // Shard 1's piece of k is gone: k is clean, j untouched.
        let s1 = shared(vec![keyed("j", &[(4, "x")])]);
        let (remerged, report) = merge_both(&mut m, &[s0.clone(), s1]);
        assert_eq!((remerged, report.len()), (1, 0));
        // Gone from every shard, then back: the vacated slot is reused.
        let empty = shared(Vec::new());
        assert_eq!(merge_both(&mut m, &[empty.clone(), empty.clone()]).0, 2);
        let s1 = shared(vec![keyed("k", &[(5, "c")])]);
        let (remerged, report) = merge_both(&mut m, &[s0, s1]);
        assert_eq!((remerged, report.len()), (1, 1));
    }

    #[test]
    fn key_moving_between_shards() {
        let here = shared(vec![keyed("k", &[(1, "a"), (2, "b")])]);
        let empty = shared(Vec::new());
        let mut m = MergedCfd::default();
        merge_both(&mut m, &[here.clone(), empty.clone()]);
        let (remerged, report) = merge_both(&mut m, &[empty, here]);
        assert_eq!((remerged, report.len()), (1, 1));
        // Split: one member on each shard, still one merged violation.
        let a = shared(vec![keyed("k", &[(1, "a")])]);
        let b = shared(vec![keyed("k", &[(2, "b")])]);
        let (remerged, report) = merge_both(&mut m, &[a, b]);
        assert_eq!((remerged, report.len()), (1, 1));
    }

    #[test]
    fn group_turning_clean_only_across_shards() {
        // No shard ever conflicts alone; the union does, until shard 1
        // comes to agree with shard 0.
        let s0 = shared(vec![partial(&[(1, "a"), (2, "a")])]);
        let mut m = MergedCfd::default();
        let (_, report) = merge_both(&mut m, &[s0.clone(), shared(vec![partial(&[(3, "b")])])]);
        assert_eq!(report.len(), 1);
        let (remerged, report) = merge_both(&mut m, &[s0, shared(vec![partial(&[(3, "a")])])]);
        assert_eq!((remerged, report.len()), (1, 0));
    }

    #[test]
    fn tie_flipping_to_a_majority() {
        let s1 = shared(vec![partial(&[(3, "b")])]);
        let mut m = MergedCfd::default();
        let (_, report) = merge_both(&mut m, &[shared(vec![partial(&[(1, "a")])]), s1.clone()]);
        assert_eq!(counts(&report), [vec![1, 1]], "a tie has no majority");
        let (_, report) = merge_both(&mut m, &[shared(vec![partial(&[(1, "a"), (2, "a")])]), s1]);
        assert_eq!(counts(&report), [vec![2, 2, 1]]);
    }

    #[test]
    fn a_new_shard_count_starts_afresh() {
        let s = shared(vec![partial(&[(1, "a"), (2, "b")])]);
        let empty = shared(Vec::new());
        let mut m = MergedCfd::default();
        merge_both(&mut m, &[s.clone(), empty.clone()]);
        assert_eq!(merge_both(&mut m, &[s, empty.clone(), empty]).0, 1);
    }

    #[test]
    fn constant_partials_replay_until_one_changes() {
        let c = |rows: &[u64]| {
            Arc::new(CfdPartial::Constant {
                violating: rows.iter().map(|&r| RowId(r)).collect(),
            })
        };
        let (s0, s1) = (c(&[4, 6]), c(&[1]));
        let mut m = MergedCfd::default();
        assert_eq!(
            merge_both(&mut m, &[s0.clone(), s1]).1.dirty_rows().len(),
            3
        );
        let (remerged, report) = merge_both(&mut m, &[s0, c(&[])]);
        assert_eq!(remerged, 0, "constant partials carry no groups");
        assert_eq!(report.dirty_rows(), [RowId(4), RowId(6)]);
    }

    /// A shard's partial from its rows `(row, key, RHS)` the way a shard
    /// exports it: groups by first appearance in row order, members in
    /// row order, NULL RHS (`None`) excluded from the members.
    fn export(rows: &BTreeMap<u64, (u8, Option<u8>)>, reverse: bool) -> CfdPartial {
        let mut groups: Vec<GroupPartial> = Vec::new();
        for (&row, &(key, rhs)) in rows {
            let key = vec![Value::str(format!("k{key}"))];
            let at = match groups.iter().position(|g| g.key == key) {
                Some(at) => at,
                None => {
                    groups.push(GroupPartial {
                        key,
                        values: Vec::new(),
                        members: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            let Some(rhs) = rhs else { continue };
            let g = &mut groups[at];
            let v = Value::str(format!("v{rhs}"));
            let vi = match g.values.iter().position(|(u, _)| *u == v) {
                Some(i) => i,
                None => {
                    g.values.push((v, 0));
                    g.values.len() - 1
                }
            };
            g.values[vi].1 += 1;
            g.members.push((RowId(row), vi as u32));
        }
        if reverse {
            groups.reverse();
        }
        variable(groups)
    }

    #[test]
    fn maintained_merge_equals_a_fresh_merge_under_random_churn() {
        let mut rng = StdRng::seed_from_u64(36);
        for shards in 1..=4u64 {
            let mut m = MergedCfd::default();
            let mut rows: Vec<BTreeMap<u64, (u8, Option<u8>)>> =
                vec![BTreeMap::new(); shards as usize];
            let mut parts: Vec<Arc<CfdPartial>> = (0..shards).map(|_| shared(Vec::new())).collect();
            for _ in 0..300 {
                // Touch one row of one shard (row ids are disjoint across
                // shards), re-export that shard, and merge.
                let s = rng.gen_range(0..shards);
                let row = rng.gen_range(0..12u64) * shards + s;
                let rs = &mut rows[s as usize];
                if rng.gen_bool(0.2) {
                    rs.remove(&row);
                } else {
                    let rhs = rng.gen_range(0..4u8);
                    rs.insert(row, (rng.gen_range(0..4u8), (rhs < 3).then_some(rhs)));
                }
                parts[s as usize] = Arc::new(export(rs, rng.gen_bool(0.3)));
                let (remerged, _) = merge_both(&mut m, &parts);
                assert!(remerged <= 2, "one row moves between at most two groups");
            }
        }
    }
}
