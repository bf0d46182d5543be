//! IncRepair (\[8\] §6): repairing a delta against an already-clean database.
//!
//! When the bulk of the data is known clean and a batch of new/updated
//! tuples arrives (the Data Monitor scenario), only the delta needs
//! repairing — and the clean data acts as ground truth: a delta tuple that
//! disagrees with its LHS-group adopts the group's established RHS value.
//!
//! The groups are the ones detection already keeps. A delta tuple that
//! disagrees with its group sits in one of the report's violating groups,
//! whose members are in row-id order; the established value is that of
//! the last member outside the delta. A tuple whose group is not in the
//! report agrees with every non-NULL member of it, so it needs no lookup.

use std::collections::{HashMap, HashSet};

use cfd::{BoundCfd, Cfd, CfdResult};
use colstore::{detect_cached, SnapshotCache};
use detect::{ViolationKind, ViolationReport};
use minidb::{Database, DbError, RowId, Value};

use crate::batch::{CellChange, ChangeReason, RepairConfig, RepairResult};
use crate::cost::normalized_distance;

fn db_err(e: DbError) -> cfd::CfdError {
    cfd::CfdError::Malformed(format!("incremental repair failed: {e}"))
}

/// The members of `row`'s violating group under CFD `cfd_idx`, in row-id
/// order, or `None` when `row` is in no violating group of that CFD.
fn violating_group(
    report: &ViolationReport,
    cfd_idx: usize,
    row: RowId,
) -> Option<&[(RowId, Value)]> {
    report.violations.iter().find_map(|v| match &v.kind {
        ViolationKind::MultiTuple { rows, .. }
            if v.cfd_idx == cfd_idx && rows.binary_search_by_key(&row, |&(r, _)| r).is_ok() =>
        {
            Some(rows.as_slice())
        }
        _ => None,
    })
}

/// Repair only the rows in `delta`, assuming every other row satisfies
/// `cfds`. Processes delta rows in order; a group with no member outside
/// the delta adopts the value of its first repaired delta row.
///
/// The consensus is read off a [`detect_cached`] report taken on entry
/// and refreshed after every cell write. Each write patches `cache`
/// (`note_set_cell`), so a refresh replays the untouched CFDs and
/// re-materializes the few groups the write touched; the last refresh is
/// the residual. A cache that was in step with the table on entry pays no
/// encode and is left with fresh detect fragments.
pub fn incremental_repair(
    db: &mut Database,
    relation: &str,
    cfds: &[Cfd],
    delta: &[RowId],
    cfg: &RepairConfig,
    cache: &mut SnapshotCache,
) -> CfdResult<RepairResult> {
    let schema = db.table(relation).map_err(db_err)?.schema().clone();
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(&schema))
        .collect::<CfdResult<_>>()?;
    let delta_set: HashSet<RowId> = delta.iter().copied().collect();
    // Per variable CFD, LHS key → RHS value of the first repaired delta
    // row there: the consensus of a group no clean row is in.
    let mut rolling: Vec<HashMap<Vec<Value>, Value>> = vec![HashMap::new(); bound.len()];
    let mut report = detect_cached(cache, db.table(relation).map_err(db_err)?, cfds)?;

    let mut changes: Vec<CellChange> = Vec::new();
    let mut iterations = 0usize;
    for &row in delta {
        // Per-tuple fixpoint: constants and group consensus interact.
        for round in 0..8 {
            iterations = iterations.max(round + 1);
            let mut changed = false;
            for (cfd_idx, b) in bound.iter().enumerate() {
                let current: Vec<Value> = match db.table(relation).map_err(db_err)?.get(row) {
                    Ok(r) => r.to_vec(),
                    Err(_) => break,
                };
                let (new, reason) = if let Some(a) = b.cfd.rhs_pat.constant() {
                    if !b.single_tuple_violation(&current) {
                        continue;
                    }
                    (a.clone(), ChangeReason::ConstantRhs { cfd_idx })
                } else {
                    // Variable CFD: adopt the consensus value of the group.
                    let mine = &current[b.rhs_col];
                    if mine.is_null() || !b.lhs_matches(&current) {
                        continue;
                    }
                    let Some(members) = violating_group(&report, cfd_idx, row) else {
                        continue;
                    };
                    let clean = members.iter().rev().find(|(r, _)| !delta_set.contains(r));
                    let rolled = || rolling[cfd_idx].get(&b.lhs_key(&current));
                    let Some(v) = clean.map(|(_, v)| v).or_else(rolled) else {
                        continue;
                    };
                    if mine.strong_eq(v) {
                        continue;
                    }
                    // Check the consensus value does not trip a constant
                    // rule for this tuple; if it does, the constant wins
                    // next round.
                    let mut sim = current.clone();
                    sim[b.rhs_col] = v.clone();
                    if bound.iter().any(|cb| cb.single_tuple_violation(&sim)) {
                        continue;
                    }
                    (v.clone(), ChangeReason::VariableMerge { cfd_idx })
                };
                let old = db
                    .update_cell(relation, row, b.rhs_col, new.clone())
                    .map_err(db_err)?;
                let table = db.table(relation).map_err(db_err)?;
                cache.note_set_cell(table, row, b.rhs_col);
                report = detect_cached(cache, table, cfds)?;
                let cost = cfg.weights.weight(row, b.rhs_col) * normalized_distance(&old, &new);
                changes.push(CellChange {
                    row,
                    col: b.rhs_col,
                    old,
                    new,
                    cost,
                    reason,
                    iteration: round,
                });
                changed = true;
            }
            if !changed {
                break;
            }
        }
        // The (repaired) row now sets the consensus of a group no clean
        // row is in, for subsequent rows.
        let final_row: Vec<Value> = db
            .table(relation)
            .map_err(db_err)?
            .get(row)
            .map_err(db_err)?
            .to_vec();
        for (b, keys) in bound.iter().zip(&mut rolling) {
            if b.cfd.rhs_pat.is_wild()
                && b.lhs_matches(&final_row)
                && !final_row[b.rhs_col].is_null()
            {
                keys.entry(b.lhs_key(&final_row))
                    .or_insert_with(|| final_row[b.rhs_col].clone());
            }
        }
    }

    // The last refresh is an honest residual over the whole table: delta
    // rows might still disagree with each other on keys absent from the
    // clean part.
    let total_cost = changes.iter().map(|c| c.cost).sum();
    Ok(RepairResult {
        changes,
        iterations,
        total_cost,
        residual: report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{dirty_customers, generate_customers, CustomerConfig};
    use detect::detect_native;

    #[test]
    fn dirty_inserts_into_clean_db_are_repaired() {
        // Start from a clean database…
        let clean = generate_customers(&CustomerConfig {
            rows: 200,
            ..CustomerConfig::default()
        });
        let mut db = Database::new();
        db.register_table(clean.clone());
        let cfds = datagen::canonical_cfds();
        // …insert dirty copies of existing rows (wrong CITY for their zip).
        let donor: Vec<Value> = clean.iter().next().unwrap().1.to_vec();
        let mut dirty_row = donor.clone();
        dirty_row[2] = Value::str("WRONGCITY");
        let id = db.insert_row("customer", dirty_row).unwrap();
        let r = incremental_repair(
            &mut db,
            "customer",
            &cfds,
            &[id],
            &RepairConfig::default(),
            &mut SnapshotCache::new(),
        )
        .unwrap();
        assert!(r.residual.is_empty(), "{:?}", r.residual.violations);
        // The delta tuple adopted the group's city.
        let fixed = db.table("customer").unwrap().get(id).unwrap();
        assert_eq!(fixed[2], donor[2]);
    }

    #[test]
    fn constant_violations_in_delta_are_fixed() {
        let clean = generate_customers(&CustomerConfig {
            rows: 100,
            ..CustomerConfig::default()
        });
        let mut db = Database::new();
        db.register_table(clean.clone());
        let cfds = datagen::canonical_cfds();
        let donor: Vec<Value> = clean.iter().next().unwrap().1.to_vec();
        // Break the CC → CNT binding.
        let mut dirty_row = donor.clone();
        dirty_row[1] = Value::str("XX"); // CNT
        let id = db.insert_row("customer", dirty_row).unwrap();
        let r = incremental_repair(
            &mut db,
            "customer",
            &cfds,
            &[id],
            &RepairConfig::default(),
            &mut SnapshotCache::new(),
        )
        .unwrap();
        assert!(r.residual.is_empty(), "{:?}", r.residual.violations);
        let fixed = db.table("customer").unwrap().get(id).unwrap();
        assert_eq!(fixed[1], donor[1]);
    }

    #[test]
    fn delta_rows_agree_with_each_other_via_rolling_consensus() {
        let clean = generate_customers(&CustomerConfig {
            rows: 100,
            ..CustomerConfig::default()
        });
        let mut db = Database::new();
        db.register_table(clean.clone());
        let cfds = datagen::canonical_cfds();
        // Two inserts in a brand-new group (zip unseen in clean data) that
        // disagree on CITY; the first repaired row sets the consensus.
        let mk = |city: &str| {
            vec![
                Value::str("x"),
                Value::str("UK"),
                Value::str(city),
                Value::str("ZZ9 9ZZ"),
                Value::str("High St"),
                Value::str("44"),
                Value::str("4410"),
            ]
        };
        let id1 = db.insert_row("customer", mk("EDI")).unwrap();
        let id2 = db.insert_row("customer", mk("LDN")).unwrap();
        let r = incremental_repair(
            &mut db,
            "customer",
            &cfds,
            &[id1, id2],
            &RepairConfig::default(),
            &mut SnapshotCache::new(),
        )
        .unwrap();
        assert!(r.residual.is_empty(), "{:?}", r.residual.violations);
        let t = db.table("customer").unwrap();
        assert_eq!(t.get(id1).unwrap()[2], t.get(id2).unwrap()[2]);
    }

    #[test]
    fn clean_delta_is_untouched() {
        let d = dirty_customers(100, 0.0, 9);
        let mut db = d.db.clone();
        let ids: Vec<RowId> = db.table("customer").unwrap().row_ids();
        let delta = vec![ids[0], ids[1]];
        let r = incremental_repair(
            &mut db,
            "customer",
            &d.cfds,
            &delta,
            &RepairConfig::default(),
            &mut SnapshotCache::new(),
        )
        .unwrap();
        assert!(r.changes.is_empty());
        assert!(detect_native(db.table("customer").unwrap(), &d.cfds)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn warm_cache_repair_pays_no_encode_and_residual_matches_native() {
        // A dirty relation whose cache is in step with it: the delta row is
        // repaired, the rest of the noise stays, so the residual is
        // non-empty and must equal a fresh value-space detect.
        let d = dirty_customers(300, 0.05, 21);
        let mut db = d.db.clone();
        let mut cache = SnapshotCache::new();
        detect_cached(&mut cache, db.table("customer").unwrap(), &d.cfds).unwrap();
        assert_eq!(cache.encodes(), 1, "warm-up detect pays the one encode");
        let donor: Vec<Value> = db
            .table("customer")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .1
            .to_vec();
        let mut dirty_row = donor;
        dirty_row[1] = Value::str("XX"); // break CC → CNT
        let id = db.insert_row("customer", dirty_row).unwrap();
        cache.note_insert(db.table("customer").unwrap(), id);
        let r = incremental_repair(
            &mut db,
            "customer",
            &d.cfds,
            &[id],
            &RepairConfig::default(),
            &mut cache,
        )
        .unwrap();
        assert!(!r.changes.is_empty(), "the delta row was repaired");
        assert_eq!(cache.encodes(), 1, "IncRepair rides the warm snapshot");
        assert!(!r.residual.is_empty(), "the untouched noise remains");
        assert_eq!(
            r.residual.normalized(),
            detect_native(db.table("customer").unwrap(), &d.cfds)
                .unwrap()
                .normalized()
        );
    }
}
