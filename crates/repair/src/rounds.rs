//! The reusable plan/resolve core of BatchRepair.
//!
//! Historically the detect→resolve round loop lived inside `batch.rs`,
//! hard-wired to a `minidb::Database` plus a snapshot cache. Sharded
//! repair needs the *same* loop — the resolution semantics of \[8\] must be
//! byte-identical whether the relation lives in one heap table or is
//! partitioned across cluster shards — so the loop is factored over a
//! small storage surface, [`RepairStore`]:
//!
//! * `detect` — the round's violation report (single-node: the cached
//!   columnar detect; cluster: the scatter/gather exchange merge). The
//!   loop `normalized()`s the report, which is exactly why both engines
//!   drive identical resolutions: their reports are `normalized()`-equal
//!   by the detection equivalence properties.
//! * `row` / `set_cell` — point reads and the cell-write that keeps
//!   derived state (cached snapshots, shard placement) in lock-step.
//! * `value_counts` — distinct values with occurrence counts for the
//!   active-domain pool, counted over dictionary codes instead of a
//!   per-round row walk (see `active_domains`).
//!
//! [`repair_rounds`] then is the whole algorithm: constant violations
//! first (they establish pins), variable groups merged into global
//! equivalence classes ([`crate::eqclass`]) with cost-ordered target
//! values, LHS breaks when pins conflict, to fixpoint under an iteration
//! bound. Everything observable — the change list, its order, the costs —
//! depends only on the normalized reports and the store's point reads, so
//! two stores over the same logical relation produce the same repair.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use cfd::{BoundCfd, Cfd, CfdResult, Pattern};
use detect::violation::{ViolationKind, ViolationReport};
use minidb::{RowId, Schema, Value};

use crate::eqclass::{CellRef, EqClasses};

/// Global-registry handles for the repair loop's telemetry. After every
/// run, the `repair_rounds_total` delta equals [`RepairResult::iterations`]
/// and the `repair_changes_total` delta equals the change-list length
/// (pinned by `tests/metrics_invariants.rs`).
struct RepairObs {
    runs: Arc<obs::Counter>,
    rounds: Arc<obs::Counter>,
    changes: Arc<obs::Counter>,
    changes_per_round: Arc<obs::Histogram>,
    resolve_ns: Arc<obs::Histogram>,
}

fn repair_obs() -> &'static RepairObs {
    static OBS: OnceLock<RepairObs> = OnceLock::new();
    OBS.get_or_init(|| RepairObs {
        runs: obs::counter("repair_runs_total"),
        rounds: obs::counter("repair_rounds_total"),
        changes: obs::counter("repair_changes_total"),
        changes_per_round: obs::histogram("repair_changes_per_round"),
        resolve_ns: obs::histogram("repair_resolve_ns"),
    })
}

/// Why a cell was changed.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeReason {
    /// Assigned the RHS constant of a constant CFD.
    ConstantRhs {
        /// Violated CFD index.
        cfd_idx: usize,
    },
    /// Changed an LHS cell so a constant CFD's pattern no longer applies.
    ConstantLhsBreak {
        /// Violated CFD index.
        cfd_idx: usize,
    },
    /// Equalized the RHS of a variable CFD's violating group.
    VariableMerge {
        /// Violated CFD index.
        cfd_idx: usize,
    },
    /// Removed a tuple from a violating group by breaking its LHS key
    /// (used when pins conflict; introduces a fresh sentinel value).
    LhsBreak {
        /// Violated CFD index.
        cfd_idx: usize,
    },
}

/// One applied cell modification.
#[derive(Debug, Clone, PartialEq)]
pub struct CellChange {
    /// Row.
    pub row: RowId,
    /// Column index.
    pub col: usize,
    /// Value before.
    pub old: Value,
    /// Value after.
    pub new: Value,
    /// Cost charged by the model.
    pub cost: f64,
    /// Why.
    pub reason: ChangeReason,
    /// Iteration in which the change was applied.
    pub iteration: usize,
}

/// Outcome of a repair run.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairResult {
    /// All applied changes, in order.
    pub changes: Vec<CellChange>,
    /// Iterations used.
    pub iterations: usize,
    /// Sum of change costs.
    pub total_cost: f64,
    /// Violations that could not be resolved within the bound (empty on
    /// the workloads in this repo; never silently dropped).
    pub residual: ViolationReport,
}

impl RepairResult {
    /// Net changed cells (last change per cell wins).
    pub fn changed_cells(&self) -> usize {
        let mut set = std::collections::HashSet::new();
        for c in &self.changes {
            set.insert((c.row, c.col));
        }
        set.len()
    }
}

/// Repair configuration.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Iteration bound for the detect→resolve loop.
    pub max_iterations: usize,
    /// Cell confidence weights.
    pub weights: crate::cost::WeightModel,
    /// Use the similarity term of the cost model; `false` switches to 0/1
    /// costs (ablation A2).
    pub use_similarity: bool,
}

impl Default for RepairConfig {
    fn default() -> RepairConfig {
        RepairConfig {
            max_iterations: 32,
            weights: crate::cost::WeightModel::uniform(),
            use_similarity: true,
        }
    }
}

/// The distinct values of one column with their live occurrence counts —
/// the per-column entry of [`RepairStore::value_counts`].
pub type ColumnCounts = Vec<(Value, u64)>;

/// The storage surface the repair loop runs against: one logical relation
/// with point reads, lock-step cell writes, violation detection and
/// dictionary-backed value statistics. Implemented by the single-node
/// table + snapshot-cache store (`batch_repair`) and by the sharded
/// cluster (`ShardedQualityServer::repair`).
pub trait RepairStore {
    /// Schema of the audited relation.
    fn schema(&self) -> CfdResult<Schema>;

    /// Live row count.
    fn len(&self) -> usize;

    /// True when the relation holds no live rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current values of one row (`None` when the row is not live).
    fn row(&self, id: RowId) -> Option<Vec<Value>>;

    /// Overwrite one cell, keeping every derived structure (cached
    /// snapshots, shard state) in lock-step; returns the previous value.
    fn set_cell(&mut self, id: RowId, col: usize, value: Value) -> CfdResult<Value>;

    /// Detect current violations of `cfds` (the loop normalizes the
    /// report itself).
    fn detect(&mut self, cfds: &[Cfd]) -> CfdResult<ViolationReport>;

    /// Distinct values with live occurrence counts for each column in
    /// `cols` — the raw material of the active-domain pool.
    /// Implementations count over dictionary codes (one add per row, one
    /// decode per *distinct* value), not over cloned row values.
    fn value_counts(&mut self, cols: &[usize]) -> CfdResult<Vec<(usize, ColumnCounts)>>;
}

/// Run the detect→resolve loop of \[8\] against `store` — see the module
/// docs. The change sequence is deterministic given the store's data:
/// reports are normalized before resolution, and candidate orderings are
/// value-sorted.
pub fn repair_rounds<S: RepairStore>(
    store: &mut S,
    cfds: &[Cfd],
    cfg: &RepairConfig,
) -> CfdResult<RepairResult> {
    let schema = store.schema()?;
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(&schema))
        .collect::<CfdResult<_>>()?;
    // The domain pool only ever serves constant-patterned LHS breaks, so
    // it is scoped to the union of the LHS columns (all inside the
    // detection projection — the store's dictionaries cover them).
    let lhs_cols: Vec<usize> = {
        let mut v: Vec<usize> = bound
            .iter()
            .flat_map(|b| b.lhs_cols.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut eq = EqClasses::new();
    let mut changes: Vec<CellChange> = Vec::new();
    let mut iterations = 0usize;

    for iter in 0..cfg.max_iterations {
        iterations = iter + 1;
        let round_span = obs::trace::span("repair.round");
        round_span.attr("round", iter);
        // Normalized order makes the whole repair deterministic (hash maps
        // inside detection would otherwise reorder resolutions), and keeps
        // the resolution sequence independent of snapshot row order — the
        // patched snapshot swap-removes, a fresh encode scans arena order,
        // and the cluster merge walks shards in partial-arrival order.
        let report = store.detect(cfds)?.normalized();
        if report.is_empty() {
            break;
        }
        // Resolve time only — the detect above is timed by the engine's
        // own instrumentation (cached columnar scan or cluster exchange).
        let resolve_t0 = Instant::now();
        let changes_before = changes.len();
        let consts: Vec<_> = report
            .violations
            .iter()
            .filter(|v| matches!(v.kind, ViolationKind::SingleTuple { .. }))
            .cloned()
            .collect();
        // The domain pool only feeds constant-violation resolution, so a
        // round without constant violations (variable-only rule sets, or
        // every round once the constants drain) skips the counting — in
        // the cluster that is a whole cross-shard dictionary merge saved.
        let domains = if consts.is_empty() {
            HashMap::new()
        } else {
            active_domains(store, &lhs_cols)?
        };
        // Constant violations first (they establish pins); variable
        // violations are handled in the same iteration when the constants
        // are done or stuck — a few unresolvable constants must not starve
        // group resolution.
        let mut const_progress = false;
        for v in &consts {
            let ViolationKind::SingleTuple { row } = v.kind else {
                unreachable!("filtered")
            };
            const_progress |= resolve_constant(
                store,
                &bound,
                v.cfd_idx,
                row,
                &mut eq,
                cfg,
                &domains,
                iter,
                &mut changes,
            )?;
        }
        let mut var_progress = false;
        if consts.is_empty() || !const_progress {
            for v in &report.violations {
                let ViolationKind::MultiTuple { key: _, rows } = &v.kind else {
                    continue;
                };
                var_progress |= resolve_variable(
                    store,
                    &bound,
                    v.cfd_idx,
                    rows,
                    &mut eq,
                    cfg,
                    iter,
                    &mut changes,
                )?;
            }
        }
        let o = repair_obs();
        o.resolve_ns.record(resolve_t0.elapsed().as_nanos() as u64);
        o.changes_per_round
            .record((changes.len() - changes_before) as u64);
        round_span.attr("changes", changes.len() - changes_before);
        if !const_progress && !var_progress {
            break; // defensive: avoid spinning without effect
        }
    }

    let residual = store.detect(cfds)?;
    let o = repair_obs();
    o.runs.inc();
    o.rounds.add(iterations as u64);
    o.changes.add(changes.len() as u64);
    let total_cost = changes.iter().map(|c| c.cost).sum();
    Ok(RepairResult {
        changes,
        iterations,
        total_cost,
        residual,
    })
}

/// Distinct values per column (the "active domain" candidate pool), off
/// the store's dictionary statistics — no per-round row walk, no per-cell
/// `Value` hashing.
///
/// Two filters keep repair artifacts and noise out of the pool: fresh
/// sentinels from earlier LHS breaks are excluded (they are not domain
/// values), and values must reach a small support threshold — typo-corrupt
/// cells are almost always unique, and without the threshold the
/// similarity term of the cost model would happily "fix" an LHS by
/// assigning a nearby typo variant.
fn active_domains<S: RepairStore>(
    store: &mut S,
    cols: &[usize],
) -> CfdResult<HashMap<usize, Vec<Value>>> {
    let min_support = 2.max(store.len() / 1000) as u64;
    Ok(store
        .value_counts(cols)?
        .into_iter()
        .map(|(c, counted)| {
            let mut v: Vec<Value> = counted
                .into_iter()
                .filter(|(v, n)| *n >= min_support && !v.is_null() && !is_fresh(v))
                .map(|(v, _)| v)
                .collect();
            v.sort_by(|a, b| a.total_cmp(b));
            (c, v)
        })
        .collect())
}

fn change_cost(cfg: &RepairConfig, row: RowId, col: usize, old: &Value, new: &Value) -> f64 {
    if cfg.use_similarity {
        cfg.weights.change_cost(row, col, old, new)
    } else {
        cfg.weights.weight(row, col) * crate::cost::uniform_cost(old, new)
    }
}

/// Would `row_vals` single-violate any constant CFD?
fn const_violates(bound: &[BoundCfd], row_vals: &[Value]) -> bool {
    bound.iter().any(|b| b.single_tuple_violation(row_vals))
}

#[allow(clippy::too_many_arguments)]
fn resolve_constant<S: RepairStore>(
    store: &mut S,
    bound: &[BoundCfd],
    cfd_idx: usize,
    row: RowId,
    eq: &mut EqClasses,
    cfg: &RepairConfig,
    domains: &HashMap<usize, Vec<Value>>,
    iter: usize,
    changes: &mut Vec<CellChange>,
) -> CfdResult<bool> {
    let b = &bound[cfd_idx];
    let Some(current) = store.row(row) else {
        return Ok(false); // row vanished
    };
    if !b.single_tuple_violation(&current) {
        return Ok(false); // already resolved by an earlier change
    }
    let a = b
        .cfd
        .rhs_pat
        .constant()
        .expect("constant CFD has constant RHS")
        .clone();
    let rhs_cell = CellRef::new(row, b.rhs_col);

    // Candidate 1: assign the RHS constant (unless pinned elsewhere or it
    // would trip another constant rule).
    let mut best: Option<(f64, usize, Value, ChangeReason)> = None;
    let rhs_pin = eq.pinned(rhs_cell);
    let rhs_allowed = rhs_pin.as_ref().is_none_or(|p| p.strong_eq(&a));
    if rhs_allowed {
        let mut sim = current.clone();
        sim[b.rhs_col] = a.clone();
        if !const_violates(bound, &sim) {
            let cost = change_cost(cfg, row, b.rhs_col, &current[b.rhs_col], &a);
            best = Some((
                cost,
                b.rhs_col,
                a.clone(),
                ChangeReason::ConstantRhs { cfd_idx },
            ));
        }
    }

    // Candidates 2..k: break a constant-patterned LHS cell.
    for (j, pat) in b.cfd.lhs_pat.iter().enumerate() {
        let Pattern::Const(c) = pat else { continue };
        let col = b.lhs_cols[j];
        if eq.pinned(CellRef::new(row, col)).is_some() {
            continue; // pinned LHS cells are not breakable
        }
        let Some(pool) = domains.get(&col) else {
            continue;
        };
        for v in pool {
            if v.strong_eq(c) || v.strong_eq(&current[col]) {
                continue;
            }
            let mut sim = current.clone();
            sim[col] = v.clone();
            if const_violates(bound, &sim) {
                continue;
            }
            let cost = change_cost(cfg, row, col, &current[col], v);
            if best.as_ref().is_none_or(|(bc, ..)| cost < *bc) {
                best = Some((
                    cost,
                    col,
                    v.clone(),
                    ChangeReason::ConstantLhsBreak { cfd_idx },
                ));
            }
        }
    }

    // Last resort chain: force the RHS constant even if simulation
    // complains (a later iteration deals with the fallout); when the RHS is
    // pinned to something else, first try a fresh-sentinel LHS break, and
    // if every constant-patterned LHS cell is pinned too, overwrite the
    // stale RHS pin — a pin recorded for a pattern that no longer matches
    // must not deadlock the repair.
    let (cost, col, new_val, reason) = match best {
        Some(t) => t,
        None => {
            let unpinned_lhs = b.cfd.lhs_pat.iter().enumerate().find(|(j, p)| {
                !p.is_wild() && eq.pinned(CellRef::new(row, b.lhs_cols[*j])).is_none()
            });
            match (rhs_allowed, unpinned_lhs) {
                (true, _) | (false, None) => {
                    let cost = change_cost(cfg, row, b.rhs_col, &current[b.rhs_col], &a);
                    (
                        cost,
                        b.rhs_col,
                        a.clone(),
                        ChangeReason::ConstantRhs { cfd_idx },
                    )
                }
                (false, Some((j, _))) => {
                    let col = b.lhs_cols[j];
                    let fresh = fresh_value(row, col);
                    (
                        cfg.weights.weight(row, col),
                        col,
                        fresh,
                        ChangeReason::LhsBreak { cfd_idx },
                    )
                }
            }
        }
    };

    let old = store.set_cell(row, col, new_val.clone())?;
    // Constant assignments pin the cell's *class* ([8]: everything that
    // must equal this cell inherits the forced value). Fresh sentinels are
    // detached first — an LHS break severs the equality links through the
    // broken cell, and pinning without detaching would poison every cell
    // ever merged with it.
    match reason {
        ChangeReason::ConstantRhs { .. } => {
            eq.repin(CellRef::new(row, col), new_val.clone());
        }
        ChangeReason::LhsBreak { .. } => {
            let cell = CellRef::new(row, col);
            eq.detach(cell);
            eq.repin(cell, new_val.clone());
        }
        _ => {}
    }
    changes.push(CellChange {
        row,
        col,
        old,
        new: new_val,
        cost,
        reason,
        iteration: iter,
    });
    Ok(true)
}

#[allow(clippy::too_many_arguments)]
fn resolve_variable<S: RepairStore>(
    store: &mut S,
    bound: &[BoundCfd],
    cfd_idx: usize,
    members: &[(RowId, Value)],
    eq: &mut EqClasses,
    cfg: &RepairConfig,
    iter: usize,
    changes: &mut Vec<CellChange>,
) -> CfdResult<bool> {
    let b = &bound[cfd_idx];
    // Re-verify the group against current data.
    let mut current: Vec<(RowId, Value)> = Vec::with_capacity(members.len());
    let mut key: Option<Vec<Value>> = None;
    for (row, _) in members {
        let Some(vals) = store.row(*row) else {
            continue;
        };
        if !b.lhs_matches(&vals) {
            continue;
        }
        let k = b.lhs_key(&vals);
        match &key {
            None => key = Some(k),
            Some(existing) if *existing == k => {}
            Some(_) => continue, // moved to another group since detection
        }
        let rhs = vals[b.rhs_col].clone();
        if rhs.is_null() {
            continue;
        }
        current.push((*row, rhs));
    }
    if !detect::native::group_violates(&current) {
        return Ok(false);
    }

    // Merge the group's RHS cells into one equivalence class ([8]): cells
    // linked through *any* CFD's group must take one value — for the
    // cluster these are the **global** classes built over the exchange's
    // merged per-group partials, so members on different shards still
    // land in one class. Merges that would join conflicting pinned
    // classes are refused; those members resolve via LHS breaks below.
    let cells: Vec<CellRef> = current
        .iter()
        .map(|(r, _)| CellRef::new(*r, b.rhs_col))
        .collect();
    for w in cells.windows(2) {
        let _ = eq.merge(w[0], w[1]);
    }
    let pins: Vec<Option<Value>> = cells.iter().map(|c| eq.pinned(*c)).collect();

    // Candidate values come from the whole class (so that groups of other
    // CFDs sharing these cells pull toward one global choice), with the
    // current group's values always included. Fresh sentinels are never
    // targets: they mean "unknown, flagged for review".
    let class_values: Vec<(RowId, Value)> = {
        let mut vals: Vec<(RowId, Value)> = eq
            .members(cells[0])
            .into_iter()
            .filter(|c| c.col == b.rhs_col)
            .filter_map(|c| store.row(c.row).map(|r| (c.row, r[b.rhs_col].clone())))
            .filter(|(_, v)| !v.is_null())
            .collect();
        vals.extend(current.iter().cloned());
        vals.sort_by_key(|(r, _)| *r);
        vals.dedup_by_key(|(r, _)| *r);
        vals
    };

    let usable_pins: Vec<&Value> = pins.iter().flatten().filter(|p| !is_fresh(p)).collect();
    let target = if !usable_pins.is_empty() {
        // A pinned constant wins (majority vote among non-sentinel pins).
        let mut votes: HashMap<&Value, usize> = HashMap::new();
        for p in &usable_pins {
            *votes.entry(p).or_default() += 1;
        }
        let mut vote_list: Vec<(&Value, usize)> = votes.into_iter().collect();
        vote_list.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.render().cmp(&b.0.render())));
        vote_list[0].0.clone()
    } else {
        let mut candidates: Vec<&Value> = class_values
            .iter()
            .map(|(_, v)| v)
            .filter(|v| !is_fresh(v))
            .collect();
        candidates.sort_by(|a, b| a.total_cmp(b));
        candidates.dedup_by(|a, b| a.strong_eq(b));
        // Sorted candidates, strict `<`: the first-seen minimum wins ties.
        let mut best: Option<(f64, Value)> = None;
        for cand in &candidates {
            let total: f64 = class_values
                .iter()
                .map(|(r, v)| change_cost(cfg, *r, b.rhs_col, v, cand))
                .sum();
            if best.as_ref().is_none_or(|(bc, _)| total < *bc) {
                best = Some((total, (*cand).clone()));
            }
        }
        match best {
            Some((_, t)) => t,
            // Every usable value is a sentinel: keep the smallest as the
            // nominal target; incompatible members LHS-break out below.
            None => {
                let mut vals: Vec<&Value> = current.iter().map(|(_, v)| v).collect();
                vals.sort_by_key(|a| a.render());
                (*vals.first().expect("group is nonempty")).clone()
            }
        }
    };

    let mut progressed = false;
    for ((row, val), pin) in current.iter().zip(pins) {
        if val.strong_eq(&target) {
            continue;
        }
        // A pin incompatible with the target means this member cannot take
        // the class value — it leaves the group via an LHS break instead.
        // (Triggering a constant rule is fine: the next iteration's
        // constant pass cascades the fix, and pins bound the recursion.)
        let compatible = pin.as_ref().is_none_or(|p| p.strong_eq(&target));
        if compatible {
            let cost = change_cost(cfg, *row, b.rhs_col, val, &target);
            let old = store.set_cell(*row, b.rhs_col, target.clone())?;
            changes.push(CellChange {
                row: *row,
                col: b.rhs_col,
                old,
                new: target.clone(),
                cost,
                reason: ChangeReason::VariableMerge { cfd_idx },
                iteration: iter,
            });
            progressed = true;
        } else {
            // Leave the group: break the LHS key with a fresh sentinel on
            // the first unpinned LHS cell.
            let Some((j, _)) = b
                .lhs_cols
                .iter()
                .enumerate()
                .find(|(_, &col)| eq.pinned(CellRef::new(*row, col)).is_none())
            else {
                continue; // fully pinned: residual, reported honestly
            };
            let col = b.lhs_cols[j];
            let fresh = fresh_value(*row, col);
            let cost = cfg.weights.weight(*row, col);
            let old = store.set_cell(*row, col, fresh.clone())?;
            // Sentinel cells are detached from their class (the break
            // severs the equality links through this cell) and pinned so
            // later merges cannot overwrite "unknown, needs review".
            let cell = CellRef::new(*row, col);
            eq.detach(cell);
            eq.repin(cell, fresh.clone());
            changes.push(CellChange {
                row: *row,
                col,
                old,
                new: fresh,
                cost,
                reason: ChangeReason::LhsBreak { cfd_idx },
                iteration: iter,
            });
            progressed = true;
        }
    }
    Ok(progressed)
}

/// Fresh sentinel value for LHS breaks — never collides with real data and
/// flags the cell for human review (the demo's "pop-up" would surface it).
pub fn fresh_value(row: RowId, col: usize) -> Value {
    Value::str(format!("\u{22a5}fix{}c{}", row.0, col))
}

/// Is this value a fresh sentinel produced by [`fresh_value`]?
pub fn is_fresh(v: &Value) -> bool {
    matches!(v, Value::Str(s) if s.starts_with('\u{22a5}'))
}
