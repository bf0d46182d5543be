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
//! The merge ([`merge_cfd_partials`]) unions partials per key, re-mapping
//! each shard's value indices into the merged distinct-value table, and
//! materializes a violation for every merged group with ≥ 2 distinct RHS
//! values — computing each member's conflict-partner count from the merged
//! value counts, so the resulting [`ViolationReport`] carries the same
//! `vio(t)` tallies a single-node detect would have produced.

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
            let merged = &mut groups[at].1;
            // Re-map this partial's value indices into the merged
            // distinct-value table (linear scan: groups disagree on a
            // handful of values; the producer already deduplicated).
            let remap: Vec<u32> = g
                .values
                .iter()
                .map(
                    |(v, n)| match merged.values.iter().position(|(u, _)| u == v) {
                        Some(i) => {
                            merged.values[i].1 += n;
                            i as u32
                        }
                        None => {
                            merged.values.push((v.clone(), *n));
                            (merged.values.len() - 1) as u32
                        }
                    },
                )
                .collect();
            merged
                .members
                .extend(g.members.iter().map(|&(r, vi)| (r, remap[vi as usize])));
        }
    }

    groups
        .into_iter()
        .filter(|(_, merged)| merged.values.len() >= 2)
        .map(|(key, merged)| {
            let rows: Vec<(RowId, Value)> = merged
                .members
                .iter()
                .map(|&(r, vi)| (r, merged.values[vi as usize].0.clone()))
                .collect();
            let own: Vec<u64> = merged
                .members
                .iter()
                .map(|&(_, vi)| merged.values[vi as usize].1)
                .collect();
            (key, rows, own)
        })
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
        match part {
            CfdPartial::Constant { violating } => singles.extend(violating.iter().copied()),
            CfdPartial::Variable { groups } => variable.push(groups),
        }
    }

    singles.sort_unstable();
    for row in singles {
        report.push_single(cfd_idx, row);
    }
    for (key, rows, own) in merge_variable_partials(variable) {
        report.push_multi_prepared(cfd_idx, key, rows, &own);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
