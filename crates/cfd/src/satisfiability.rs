//! Consistency (satisfiability) analysis for CFD sets.
//!
//! A set Σ of CFDs is *consistent* iff some **nonempty** instance satisfies
//! it (\[3\] §3). Because every subset of a satisfying instance also satisfies
//! Σ (CFD violations never disappear when tuples are removed), Σ is
//! consistent iff some **single tuple** satisfies it; and a single tuple can
//! only violate CFDs whose RHS pattern is a constant. So consistency
//! reduces to a constraint-satisfaction search for a witness tuple, over
//! per-attribute candidate sets of: constants appearing in Σ plus one fresh
//! value (infinite domains), or the declared finite domain.
//!
//! The problem is NP-complete with finite domains (\[3\] Thm 3.2); the solver
//! below is a backtracking search with unit propagation of constant rules,
//! guarded by a node budget.

use std::collections::HashMap;

use minidb::Value;

use crate::dependency::Cfd;
use crate::domain::DomainSpec;
use crate::error::{CfdError, CfdResult};
use crate::pattern::Pattern;

/// Outcome of a consistency check.
#[derive(Debug, Clone, PartialEq)]
pub enum Consistency {
    /// Σ is satisfiable; a witness tuple is included (attr → value).
    Consistent(Vec<(String, Value)>),
    /// No nonempty instance satisfies Σ.
    Inconsistent,
}

impl Consistency {
    /// True iff consistent.
    pub fn is_consistent(&self) -> bool {
        matches!(self, Consistency::Consistent(_))
    }
}

/// Default node budget for the backtracking search.
pub const DEFAULT_NODE_BUDGET: u64 = 5_000_000;

/// Check whether `cfds` (over one relation) admits a nonempty satisfying
/// instance. Attributes not mentioned in any CFD are unconstrained and
/// ignored. Uses [`DEFAULT_NODE_BUDGET`].
pub fn check_consistency(cfds: &[Cfd], domains: &DomainSpec) -> CfdResult<Consistency> {
    check_consistency_budgeted(cfds, domains, DEFAULT_NODE_BUDGET)
}

/// [`check_consistency`] with an explicit search budget.
pub fn check_consistency_budgeted(
    cfds: &[Cfd],
    domains: &DomainSpec,
    budget: u64,
) -> CfdResult<Consistency> {
    let mut solver = WitnessSolver::new(cfds, domains, budget)?;
    match solver.solve()? {
        Some(assign) => {
            let mut witness: Vec<(String, Value)> =
                solver.attrs.iter().cloned().zip(assign).collect();
            witness.sort_by(|a, b| a.0.cmp(&b.0));
            Ok(Consistency::Consistent(witness))
        }
        None => Ok(Consistency::Inconsistent),
    }
}

/// Constant-RHS rule over attribute slots: if all `conds` hold then
/// slot `rhs` must equal `value`.
#[derive(Debug, Clone)]
struct Rule {
    conds: Vec<(usize, Value)>, // (slot, required constant); wildcards drop out
    rhs: usize,
    value: Value,
}

struct WitnessSolver {
    attrs: Vec<String>,
    candidates: Vec<Vec<Value>>,
    rules: Vec<Rule>,
    budget: u64,
    nodes: u64,
}

impl WitnessSolver {
    fn new(cfds: &[Cfd], domains: &DomainSpec, budget: u64) -> CfdResult<WitnessSolver> {
        let mut attr_ids: HashMap<String, usize> = HashMap::new();
        let mut attrs: Vec<String> = Vec::new();
        let mut constants: Vec<Vec<Value>> = Vec::new();
        let slot = |name: &str,
                    attrs: &mut Vec<String>,
                    constants: &mut Vec<Vec<Value>>,
                    attr_ids: &mut HashMap<String, usize>| {
            let key = name.to_ascii_lowercase();
            *attr_ids.entry(key.clone()).or_insert_with(|| {
                attrs.push(key);
                constants.push(Vec::new());
                attrs.len() - 1
            })
        };
        // First pass: collect attributes and constants.
        for c in cfds {
            for (a, p) in c.lhs.iter().zip(&c.lhs_pat) {
                let s = slot(a, &mut attrs, &mut constants, &mut attr_ids);
                if let Some(v) = p.constant() {
                    constants[s].push(v.clone());
                }
            }
            let s = slot(&c.rhs, &mut attrs, &mut constants, &mut attr_ids);
            if let Some(v) = c.rhs_pat.constant() {
                constants[s].push(v.clone());
            }
        }
        let candidates: Vec<Vec<Value>> = attrs
            .iter()
            .zip(&constants)
            .map(|(a, cs)| domains.candidates(a, cs, 1))
            .collect();
        // Second pass: build constant-RHS rules.
        let mut rules = Vec::new();
        for c in cfds {
            let Some(v) = c.rhs_pat.constant() else {
                continue; // variable CFDs cannot be violated by one tuple
            };
            let rhs = attr_ids[&c.rhs.to_ascii_lowercase()];
            let mut conds = Vec::new();
            for (a, p) in c.lhs.iter().zip(&c.lhs_pat) {
                if let Pattern::Const(cv) = p {
                    conds.push((attr_ids[&a.to_ascii_lowercase()], cv.clone()));
                }
            }
            rules.push(Rule {
                conds,
                rhs,
                value: v.clone(),
            });
        }
        if candidates.iter().any(|c| c.is_empty()) {
            return Err(CfdError::Malformed(
                "attribute with an empty declared domain".into(),
            ));
        }
        Ok(WitnessSolver {
            attrs,
            candidates,
            rules,
            budget,
            nodes: 0,
        })
    }

    fn solve(&mut self) -> CfdResult<Option<Vec<Value>>> {
        let n = self.attrs.len();
        if n == 0 {
            return Ok(Some(Vec::new())); // no constrained attributes at all
        }
        let mut assign: Vec<Option<Value>> = vec![None; n];
        if self.search(&mut assign)? {
            Ok(Some(
                assign.into_iter().map(|v| v.expect("complete")).collect(),
            ))
        } else {
            Ok(None)
        }
    }

    /// Unit propagation: apply every rule whose conditions are all satisfied
    /// by the current partial assignment. Returns `None` on conflict, or the
    /// list of slots this call assigned (the undo trail).
    fn propagate(&self, assign: &mut [Option<Value>]) -> Option<Vec<usize>> {
        let mut trail = Vec::new();
        loop {
            let mut changed = false;
            for r in &self.rules {
                let fires = r
                    .conds
                    .iter()
                    .all(|(s, v)| matches!(&assign[*s], Some(x) if x.strong_eq(v)));
                if !fires {
                    continue;
                }
                match &assign[r.rhs] {
                    Some(x) if x.strong_eq(&r.value) => {}
                    Some(_) => {
                        for s in trail {
                            assign[s] = None;
                        }
                        return None;
                    }
                    None => {
                        // Forced value must be admissible for the slot.
                        if !self.candidates[r.rhs].iter().any(|c| c.strong_eq(&r.value)) {
                            for s in trail {
                                assign[s] = None;
                            }
                            return None;
                        }
                        assign[r.rhs] = Some(r.value.clone());
                        trail.push(r.rhs);
                        changed = true;
                    }
                }
            }
            if !changed {
                return Some(trail);
            }
        }
    }

    fn search(&mut self, assign: &mut Vec<Option<Value>>) -> CfdResult<bool> {
        self.nodes += 1;
        if self.nodes > self.budget {
            return Err(CfdError::Budget);
        }
        let Some(trail) = self.propagate(assign) else {
            return Ok(false);
        };
        let next = assign.iter().position(Option::is_none);
        let Some(slot) = next else {
            return Ok(true); // complete and conflict-free
        };
        let cands = self.candidates[slot].clone();
        for v in cands {
            assign[slot] = Some(v);
            if self.search(assign)? {
                return Ok(true);
            }
            assign[slot] = None;
        }
        for s in trail {
            assign[s] = None;
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_cfds;

    fn consistent(src: &str) -> bool {
        let cfds = parse_cfds(src).unwrap();
        check_consistency(&cfds, &DomainSpec::all_infinite())
            .unwrap()
            .is_consistent()
    }

    #[test]
    fn papers_constraint_set_is_consistent() {
        assert!(consistent(
            "customer: [CNT, ZIP] -> [CITY]\n\
             customer: [CNT='UK', ZIP=_] -> [STR=_]\n\
             customer: [CC] -> [CNT]\n\
             customer: [CC='44'] -> [CNT='UK']",
        ));
    }

    #[test]
    fn conflicting_constant_rules_with_wildcard_lhs_are_inconsistent() {
        // Every tuple matches both patterns but B cannot be b1 and b2.
        assert!(!consistent(
            "r: [A=_] -> [B='b1']\n\
             r: [A=_] -> [B='b2']",
        ));
    }

    #[test]
    fn conflicting_rules_on_disjoint_conditions_are_consistent() {
        // Conditions differ, a witness picks A outside {a1, a2} or either.
        assert!(consistent(
            "r: [A='a1'] -> [B='b1']\n\
             r: [A='a2'] -> [B='b2']",
        ));
    }

    #[test]
    fn chained_propagation_detects_deep_conflicts() {
        // A='x' forces B='y' forces C='z', but a third rule forces C='w'
        // whenever B='y'. Only consistent by avoiding A='x'… which a
        // wildcard rule then forbids.
        assert!(!consistent(
            "r: [A=_] -> [B='y']\n\
             r: [B='y'] -> [C='z']\n\
             r: [B='y'] -> [C='w']",
        ));
        assert!(consistent(
            "r: [A='x'] -> [B='y']\n\
             r: [B='y'] -> [C='z']",
        ));
    }

    #[test]
    fn finite_domain_flips_the_verdict() {
        // A witness over infinite domains picks A outside {true, false}, so
        // only the wildcard rule fires and B='3' works. Declaring A boolean
        // forces one of the first two rules to fire, conflicting with B='3'.
        let src = "r: [A=true] -> [B='1']\n\
                   r: [A=false] -> [B='2']\n\
                   r: [C=_] -> [B='3']";
        let cfds = parse_cfds(src).unwrap();
        let inf = DomainSpec::all_infinite();
        assert!(check_consistency(&cfds, &inf).unwrap().is_consistent());
        let dom = DomainSpec::all_infinite()
            .with_finite("A", vec![Value::Bool(true), Value::Bool(false)]);
        assert!(!check_consistency(&cfds, &dom).unwrap().is_consistent());
    }

    #[test]
    fn witness_satisfies_all_rules() {
        let cfds = parse_cfds(
            "r: [A='x'] -> [B='y']\n\
             r: [B='y'] -> [C='z']",
        )
        .unwrap();
        let Consistency::Consistent(w) =
            check_consistency(&cfds, &DomainSpec::all_infinite()).unwrap()
        else {
            panic!("expected consistent")
        };
        let lookup: std::collections::HashMap<_, _> = w.into_iter().collect();
        // If the witness sets A='x' then B must be 'y', etc.
        if lookup["a"].strong_eq(&Value::str("x")) {
            assert!(lookup["b"].strong_eq(&Value::str("y")));
        }
        if lookup["b"].strong_eq(&Value::str("y")) {
            assert!(lookup["c"].strong_eq(&Value::str("z")));
        }
    }

    #[test]
    fn empty_set_is_trivially_consistent() {
        assert!(consistent(""));
    }

    #[test]
    fn variable_cfds_never_cause_inconsistency() {
        assert!(consistent(
            "r: [A=_] -> [B=_]\n\
             r: [B=_] -> [A=_]\n\
             r: [A='x', B='y'] -> [C=_]",
        ));
    }

    #[test]
    fn empty_lhs_constant_rules() {
        // [] -> [B='x'] forces B='x' unconditionally.
        assert!(consistent("r: [] -> [B='x']"));
        assert!(!consistent("r: [] -> [B='x']\nr: [] -> [B='y']"));
    }

    #[test]
    fn budget_exhaustion_reports_error() {
        let cfds = parse_cfds(
            "r: [A='1'] -> [B='1']\n\
             r: [B='1'] -> [C='1']\n\
             r: [C='1'] -> [D='1']\n\
             r: [D='1'] -> [E='1']",
        )
        .unwrap();
        let r = check_consistency_budgeted(&cfds, &DomainSpec::all_infinite(), 1);
        assert_eq!(r, Err(CfdError::Budget));
    }
}
