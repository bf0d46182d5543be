//! Incremental violation detection (\[3\] §7, the Data Monitor's engine).
//!
//! Instead of re-running detection after every update, the detector keeps,
//! per CFD, exactly the state the detection queries would recompute:
//!
//! * constant-RHS CFDs: the set of currently violating rows;
//! * variable CFDs: the LHS-group index `key → {row → rhs value}` with
//!   per-group distinct-value counts.
//!
//! Inserts, deletes and cell updates touch only the affected groups, so the
//! cost of an update batch is `O(|Δ| · |Σ| · group)` rather than
//! `O(|D| · |Σ|)` — the crossover against batch detection is experiment E3.

use std::collections::HashMap;

use cfd::{BoundCfd, Cfd, CfdResult};
use minidb::{RowId, Table, Value};

use crate::exchange::{CfdPartial, GroupPartial};
use crate::violation::ViolationReport;

/// A group of LHS-matching tuples: membership plus persistent per-value
/// counts, so the (non-)violating check is O(1) and the O(|group|)
/// conflict-tally walk only runs when a violating group actually changes.
#[derive(Debug, Clone, Default)]
struct Group {
    members: HashMap<RowId, Value>,
    counts: HashMap<Value, u64>,
}

impl Group {
    fn add(&mut self, id: RowId, v: Value) {
        *self.counts.entry(v.clone()).or_default() += 1;
        self.members.insert(id, v);
    }

    fn remove(&mut self, id: RowId) {
        if let Some(v) = self.members.remove(&id) {
            if let Some(n) = self.counts.get_mut(&v) {
                *n -= 1;
                if *n == 0 {
                    self.counts.remove(&v);
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    fn violating(&self) -> bool {
        self.counts.len() >= 2
    }

    /// Conflict-partner tallies (empty when not violating).
    fn contribution(&self) -> Vec<(RowId, u64)> {
        if !self.violating() {
            return Vec::new();
        }
        let total = self.members.len() as u64;
        self.members
            .iter()
            .map(|(r, v)| (*r, total - self.counts[v]))
            .collect()
    }
}

#[derive(Debug, Clone)]
struct VarState {
    groups: HashMap<Vec<Value>, Group>,
}

/// Incrementally maintained detector state for a fixed CFD set and table.
#[derive(Debug, Clone)]
pub struct IncrementalDetector {
    bound: Vec<BoundCfd>,
    /// Per constant-RHS CFD: violating rows.
    const_violations: Vec<HashMap<RowId, ()>>,
    /// Per variable CFD: group index.
    var_state: Vec<VarState>,
    /// Which state slot each CFD uses: `(is_var, slot)`.
    slots: Vec<(bool, usize)>,
    /// Running vio(t) tally.
    vio: HashMap<RowId, i64>,
    /// Running total violation count (records).
    total: i64,
}

impl IncrementalDetector {
    /// Build initial state with one full pass over `table`.
    pub fn build(table: &Table, cfds: &[Cfd]) -> CfdResult<IncrementalDetector> {
        let bound: Vec<BoundCfd> = cfds
            .iter()
            .map(|c| c.bind(table.schema()))
            .collect::<CfdResult<_>>()?;
        let mut slots = Vec::with_capacity(bound.len());
        let mut const_violations = Vec::new();
        let mut var_state = Vec::new();
        for b in &bound {
            if b.cfd.rhs_pat.is_wild() {
                slots.push((true, var_state.len()));
                var_state.push(VarState {
                    groups: HashMap::new(),
                });
            } else {
                slots.push((false, const_violations.len()));
                const_violations.push(HashMap::new());
            }
        }
        let mut me = IncrementalDetector {
            bound,
            const_violations,
            var_state,
            slots,
            vio: HashMap::new(),
            total: 0,
        };
        for (id, row) in table.iter() {
            me.insert(id, row);
        }
        Ok(me)
    }

    /// Assemble a detector from per-CFD bulk state, skipping the
    /// row-at-a-time insert loop of [`IncrementalDetector::build`].
    /// `partials` is parallel to `bound` and in the cluster's exchange
    /// format ([`CfdPartial`]): a constant CFD's violating rows, or every
    /// LHS group of a variable CFD (violating or not) with its distinct
    /// non-NULL RHS values and members. Each partial's kind must match its
    /// CFD's RHS pattern.
    ///
    /// This is the fast full-rescan path: `colstore::seed_incremental`
    /// exports the partials of a whole dictionary-encoded snapshot and
    /// hands them over here.
    pub fn from_partials(bound: Vec<BoundCfd>, partials: Vec<CfdPartial>) -> IncrementalDetector {
        assert_eq!(bound.len(), partials.len(), "one partial per bound CFD");
        let mut slots = Vec::with_capacity(bound.len());
        let mut const_violations: Vec<HashMap<RowId, ()>> = Vec::new();
        let mut var_state: Vec<VarState> = Vec::new();
        let mut vio: HashMap<RowId, i64> = HashMap::new();
        let mut total = 0i64;
        for (b, partial) in bound.iter().zip(partials) {
            match partial {
                CfdPartial::Constant { violating } => {
                    assert!(
                        !b.cfd.rhs_pat.is_wild(),
                        "constant partial for a variable CFD {}",
                        b.cfd
                    );
                    slots.push((false, const_violations.len()));
                    let mut rows = HashMap::with_capacity(violating.len());
                    for id in violating {
                        if rows.insert(id, ()).is_none() {
                            *vio.entry(id).or_default() += 1;
                            total += 1;
                        }
                    }
                    const_violations.push(rows);
                }
                CfdPartial::Variable { groups } => {
                    assert!(
                        b.cfd.rhs_pat.is_wild(),
                        "variable partial for a constant CFD {}",
                        b.cfd
                    );
                    slots.push((true, var_state.len()));
                    let mut state = VarState {
                        groups: HashMap::with_capacity(groups.len()),
                    };
                    for GroupPartial {
                        key,
                        values,
                        members,
                    } in groups
                    {
                        let mut group = Group::default();
                        for (id, i) in members {
                            let v = &values[i as usize].0;
                            debug_assert!(!v.is_null(), "partials carry non-NULL RHS values");
                            group.add(id, v.clone());
                        }
                        for (r, n) in group.contribution() {
                            *vio.entry(r).or_default() += n as i64;
                        }
                        if group.violating() {
                            total += 1;
                        }
                        if !group.is_empty() {
                            state.groups.insert(key, group);
                        }
                    }
                    var_state.push(state);
                }
            }
        }
        IncrementalDetector {
            bound,
            const_violations,
            var_state,
            slots,
            vio,
            total,
        }
    }

    /// Total current number of violations (single rows + violating groups).
    pub fn total_violations(&self) -> u64 {
        self.total.max(0) as u64
    }

    /// Current `vio(t)` of a row.
    pub fn vio_of(&self, row: RowId) -> u64 {
        self.vio.get(&row).copied().unwrap_or(0).max(0) as u64
    }

    /// Register an inserted row.
    pub fn insert(&mut self, id: RowId, row: &[Value]) {
        for i in 0..self.bound.len() {
            let (is_var, slot) = self.slots[i];
            if is_var {
                self.var_insert(slot, i, id, row);
            } else {
                let b = &self.bound[i];
                if b.single_tuple_violation(row) {
                    self.const_violations[slot].insert(id, ());
                    *self.vio.entry(id).or_default() += 1;
                    self.total += 1;
                }
            }
        }
    }

    /// Register a deleted row (pass the values it had).
    pub fn delete(&mut self, id: RowId, row: &[Value]) {
        for i in 0..self.bound.len() {
            let (is_var, slot) = self.slots[i];
            if is_var {
                self.var_delete(slot, i, id, row);
            } else if self.const_violations[slot].remove(&id).is_some() {
                *self.vio.entry(id).or_default() -= 1;
                self.total -= 1;
            }
        }
    }

    /// Register an updated row. CFDs whose attributes are untouched by the
    /// update are skipped entirely — the common case for single-cell edits.
    pub fn update(&mut self, id: RowId, old: &[Value], new: &[Value]) {
        for i in 0..self.bound.len() {
            let relevant = {
                let b = &self.bound[i];
                b.lhs_cols
                    .iter()
                    .chain(std::iter::once(&b.rhs_col))
                    .any(|&c| !old[c].strong_eq(&new[c]))
            };
            if !relevant {
                continue;
            }
            let (is_var, slot) = self.slots[i];
            if is_var {
                self.var_delete(slot, i, id, old);
                self.var_insert(slot, i, id, new);
            } else {
                let b = &self.bound[i];
                let was = b.single_tuple_violation(old);
                let is = b.single_tuple_violation(new);
                if was && !is {
                    self.const_violations[slot].remove(&id);
                    *self.vio.entry(id).or_default() -= 1;
                    self.total -= 1;
                } else if !was && is {
                    self.const_violations[slot].insert(id, ());
                    *self.vio.entry(id).or_default() += 1;
                    self.total += 1;
                }
            }
        }
    }

    fn var_insert(&mut self, slot: usize, cfd_idx: usize, id: RowId, row: &[Value]) {
        let b = &self.bound[cfd_idx];
        if !b.lhs_matches(row) {
            return;
        }
        let rhs = row[b.rhs_col].clone();
        if rhs.is_null() {
            return;
        }
        let key = b.lhs_key(row);
        let state = &mut self.var_state[slot];
        let group = state.groups.entry(key).or_default();
        let before = group.contribution();
        group.add(id, rhs);
        let after = group.contribution();
        self.apply_delta(&before, &after);
    }

    fn var_delete(&mut self, slot: usize, cfd_idx: usize, id: RowId, row: &[Value]) {
        let b = &self.bound[cfd_idx];
        if !b.lhs_matches(row) {
            return;
        }
        let rhs = &row[b.rhs_col];
        if rhs.is_null() {
            return;
        }
        let key = b.lhs_key(row);
        let state = &mut self.var_state[slot];
        let Some(group) = state.groups.get_mut(&key) else {
            return;
        };
        let before = group.contribution();
        group.remove(id);
        let after = group.contribution();
        if group.is_empty() {
            state.groups.remove(&key);
        }
        self.apply_delta(&before, &after);
    }

    fn apply_delta(&mut self, before: &[(RowId, u64)], after: &[(RowId, u64)]) {
        if before.is_empty() && after.is_empty() {
            return;
        }
        for (r, n) in before {
            *self.vio.entry(*r).or_default() -= *n as i64;
        }
        for (r, n) in after {
            *self.vio.entry(*r).or_default() += *n as i64;
        }
        // Record count: one per violating group.
        if before.is_empty() && !after.is_empty() {
            self.total += 1;
        } else if !before.is_empty() && after.is_empty() {
            self.total -= 1;
        }
    }

    /// Materialize the current state into a full [`ViolationReport`]
    /// (O(state), not O(data)).
    pub fn report(&self) -> ViolationReport {
        let mut report = ViolationReport::default();
        for (i, _) in self.bound.iter().enumerate() {
            let (is_var, slot) = self.slots[i];
            if is_var {
                for (key, group) in &self.var_state[slot].groups {
                    if !group.violating() {
                        continue;
                    }
                    let members: Vec<(RowId, Value)> =
                        group.members.iter().map(|(r, v)| (*r, v.clone())).collect();
                    report.push_multi(i, key.clone(), members);
                }
            } else {
                let mut rows: Vec<RowId> = self.const_violations[slot].keys().copied().collect();
                rows.sort();
                for r in rows {
                    report.push_single(i, r);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::detect_native;
    use datagen::{dirty_customers, CellNoise};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_batch(table: &Table, det: &IncrementalDetector, cfds: &[Cfd]) {
        let batch = detect_native(table, cfds).unwrap().normalized();
        let inc = det.report().normalized();
        assert_eq!(batch, inc);
        assert_eq!(batch.len() as u64, det.total_violations());
        for (row, v) in batch.vio.iter() {
            assert_eq!(det.vio_of(row), v, "vio mismatch on {row:?}");
        }
    }

    #[test]
    fn build_matches_batch_detection() {
        let d = dirty_customers(300, 0.05, 17);
        let t = d.db.table("customer").unwrap();
        let det = IncrementalDetector::build(t, &d.cfds).unwrap();
        assert_matches_batch(t, &det, &d.cfds);
    }

    #[test]
    fn random_update_stream_stays_consistent() {
        let mut d = dirty_customers(150, 0.04, 23);
        let mut det = IncrementalDetector::build(d.db.table("customer").unwrap(), &d.cfds).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        // Apply 60 random cell updates / deletes / inserts.
        for step in 0..60 {
            let t = d.db.table("customer").unwrap();
            let ids: Vec<RowId> = t.iter().map(|(id, _)| id).collect();
            match step % 3 {
                0 => {
                    // update a random cell to a random other row's value
                    let id = ids[rng.gen_range(0..ids.len())];
                    let col = rng.gen_range(1..6usize);
                    let donor = ids[rng.gen_range(0..ids.len())];
                    let new_val = t.get(donor).unwrap()[col].clone();
                    let old_row: Vec<Value> = t.get(id).unwrap().to_vec();
                    let mut new_row = old_row.clone();
                    new_row[col] = new_val.clone();
                    d.db.update_cell("customer", id, col, new_val).unwrap();
                    det.update(id, &old_row, &new_row);
                }
                1 => {
                    // delete a random row
                    let id = ids[rng.gen_range(0..ids.len())];
                    let old = d.db.delete_row("customer", id).unwrap();
                    det.delete(id, &old);
                }
                _ => {
                    // insert a copy of a random row (forces group growth)
                    let donor = ids[rng.gen_range(0..ids.len())];
                    let row: Vec<Value> = t.get(donor).unwrap().to_vec();
                    let id = d.db.insert_row("customer", row.clone()).unwrap();
                    det.insert(id, &row);
                }
            }
            if step % 10 == 9 {
                assert_matches_batch(d.db.table("customer").unwrap(), &det, &d.cfds);
            }
        }
        assert_matches_batch(d.db.table("customer").unwrap(), &det, &d.cfds);
    }

    #[test]
    fn repairing_noise_restores_zero_violations() {
        let mut d = dirty_customers(120, 0.03, 31);
        let mut det = IncrementalDetector::build(d.db.table("customer").unwrap(), &d.cfds).unwrap();
        // Undo every injected error through the incremental interface.
        let mask: Vec<CellNoise> = d.mask.clone();
        for m in mask.iter().rev() {
            let t = d.db.table("customer").unwrap();
            if !t.contains(m.row) {
                continue;
            }
            let old_row: Vec<Value> = t.get(m.row).unwrap().to_vec();
            let mut new_row = old_row.clone();
            new_row[m.col] = m.original.clone();
            d.db.update_cell("customer", m.row, m.col, m.original.clone())
                .unwrap();
            det.update(m.row, &old_row, &new_row);
        }
        assert_eq!(det.total_violations(), 0);
        assert!(det.report().is_empty());
    }

    #[test]
    fn insert_then_delete_is_identity() {
        let d = dirty_customers(80, 0.05, 41);
        let t = d.db.table("customer").unwrap();
        let mut det = IncrementalDetector::build(t, &d.cfds).unwrap();
        let before_total = det.total_violations();
        let row: Vec<Value> = t.iter().next().unwrap().1.to_vec();
        det.insert(RowId(9999), &row);
        det.delete(RowId(9999), &row);
        assert_eq!(det.total_violations(), before_total);
        assert_matches_batch(t, &det, &d.cfds);
    }
}
