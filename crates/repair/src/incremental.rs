//! IncRepair (\[8\] §6): repairing a delta against an already-clean database.
//!
//! When the bulk of the data is known clean and a batch of new/updated
//! tuples arrives (the Data Monitor scenario), only the delta needs
//! repairing — and the clean data acts as ground truth: a delta tuple that
//! disagrees with its LHS-group adopts the group's established RHS value.

use std::collections::HashMap;

use cfd::{BoundCfd, Cfd, CfdResult, Pattern};
use minidb::{Database, DbError, RowId, Value};

use crate::batch::{CellChange, ChangeReason, RepairConfig, RepairResult};
use crate::cost::normalized_distance;

fn db_err(e: DbError) -> cfd::CfdError {
    cfd::CfdError::Malformed(format!("incremental repair failed: {e}"))
}

/// Per-variable-CFD consensus index over the clean part of the data:
/// LHS key → established RHS value.
struct Consensus {
    map: HashMap<Vec<Value>, Value>,
}

/// Repair only the rows in `delta`, assuming every other row satisfies
/// `cfds`. Processes delta rows in order; earlier repaired rows join the
/// consensus for later ones.
pub fn incremental_repair(
    db: &mut Database,
    relation: &str,
    cfds: &[Cfd],
    delta: &[RowId],
    cfg: &RepairConfig,
) -> CfdResult<RepairResult> {
    let schema = db.table(relation).map_err(db_err)?.schema().clone();
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(&schema))
        .collect::<CfdResult<_>>()?;
    let delta_set: std::collections::HashSet<RowId> = delta.iter().copied().collect();

    // Build consensus indexes from the clean rows.
    let mut consensus: Vec<Option<Consensus>> = Vec::with_capacity(bound.len());
    {
        let table = db.table(relation).map_err(db_err)?;
        for b in &bound {
            if !b.cfd.rhs_pat.is_wild() {
                consensus.push(None);
                continue;
            }
            let mut map: HashMap<Vec<Value>, Value> = HashMap::new();
            for (id, row) in table.iter() {
                if delta_set.contains(&id) || !b.lhs_matches(row) {
                    continue;
                }
                let rhs = &row[b.rhs_col];
                if rhs.is_null() {
                    continue;
                }
                map.insert(b.lhs_key(row), rhs.clone());
            }
            consensus.push(Some(Consensus { map }));
        }
    }

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
                if let Some(a) = b.cfd.rhs_pat.constant() {
                    if b.single_tuple_violation(&current) {
                        let old = db
                            .update_cell(relation, row, b.rhs_col, a.clone())
                            .map_err(db_err)?;
                        let cost =
                            cfg.weights.weight(row, b.rhs_col) * normalized_distance(&old, a);
                        changes.push(CellChange {
                            row,
                            col: b.rhs_col,
                            old,
                            new: a.clone(),
                            cost,
                            reason: ChangeReason::ConstantRhs { cfd_idx },
                            iteration: round,
                        });
                        changed = true;
                    }
                    continue;
                }
                // Variable CFD: adopt the consensus value of the group.
                if !b.lhs_matches(&current) {
                    continue;
                }
                let Some(Some(cons)) = consensus.get(cfd_idx) else {
                    continue;
                };
                let key = b.lhs_key(&current);
                if let Some(v) = cons.map.get(&key) {
                    let mine = &current[b.rhs_col];
                    if !mine.is_null() && !mine.strong_eq(v) {
                        // Check the consensus value does not trip a constant
                        // rule for this tuple; if it does, the constant wins
                        // next round.
                        let mut sim = current.clone();
                        sim[b.rhs_col] = v.clone();
                        if bound.iter().any(|cb| cb.single_tuple_violation(&sim)) {
                            continue;
                        }
                        let old = db
                            .update_cell(relation, row, b.rhs_col, v.clone())
                            .map_err(db_err)?;
                        let cost =
                            cfg.weights.weight(row, b.rhs_col) * normalized_distance(&old, v);
                        changes.push(CellChange {
                            row,
                            col: b.rhs_col,
                            old,
                            new: v.clone(),
                            cost,
                            reason: ChangeReason::VariableMerge { cfd_idx },
                            iteration: round,
                        });
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // The (repaired) row now joins the consensus for subsequent rows.
        let final_row: Vec<Value> = db
            .table(relation)
            .map_err(db_err)?
            .get(row)
            .map_err(db_err)?
            .to_vec();
        for (cfd_idx, b) in bound.iter().enumerate() {
            if let Some(Some(cons)) = consensus.get_mut(cfd_idx).map(Option::as_mut) {
                if b.lhs_matches(&final_row) && !final_row[b.rhs_col].is_null() {
                    cons.map
                        .entry(b.lhs_key(&final_row))
                        .or_insert_with(|| final_row[b.rhs_col].clone());
                }
            }
        }
    }

    // Honest residual: re-detect over the whole table (delta rows might
    // still disagree with each other on keys absent from the clean part).
    let residual = detect::detect_native(db.table(relation).map_err(db_err)?, cfds)?;
    let total_cost = changes.iter().map(|c| c.cost).sum();
    Ok(RepairResult {
        changes,
        iterations,
        total_cost,
        residual,
    })
}

/// Convenience used by the Data Monitor: consensus-checking uses the LHS
/// pattern of `b`, which must be constant-free or matched (helper exposed
/// for tests).
pub fn is_constant_pattern(p: &Pattern) -> bool {
    !p.is_wild()
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
        let r = incremental_repair(&mut db, "customer", &cfds, &[id], &RepairConfig::default())
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
        let r = incremental_repair(&mut db, "customer", &cfds, &[id], &RepairConfig::default())
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
        )
        .unwrap();
        assert!(r.changes.is_empty());
        assert!(detect_native(db.table("customer").unwrap(), &d.cfds)
            .unwrap()
            .is_empty());
    }
}
