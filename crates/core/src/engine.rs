//! The Constraint Engine (Fig. 1): manages the CFD set, stores tableaux
//! relationally inside the database, and runs the static analyses —
//! consistency on registration ("users are informed whether the specified
//! set of CFDs makes sense") and optional minimal-cover reduction.

use cfd::cover::minimal_cover;
use cfd::dependency::group_into_tableaux;
use cfd::encode::encode_tableau;
use cfd::parse::parse_cfds;
use cfd::satisfiability::check_consistency;
use cfd::{Cfd, CfdError, CfdResult, Consistency, DomainSpec};
use minidb::Database;

/// Prefix for the relational tableau storage tables.
pub const TABLEAU_PREFIX: &str = "__cfd_tableau_";

/// The constraint engine: the registered CFD set plus analysis state.
#[derive(Debug, Clone, Default)]
pub struct ConstraintEngine {
    cfds: Vec<Cfd>,
    domains: DomainSpec,
    /// Verdict from the last consistency check.
    last_verdict: Option<bool>,
}

impl ConstraintEngine {
    /// Empty engine with all-infinite domains.
    pub fn new() -> ConstraintEngine {
        ConstraintEngine::default()
    }

    /// Declare attribute domains used by the static analyses.
    pub fn with_domains(mut self, domains: DomainSpec) -> ConstraintEngine {
        self.domains = domains;
        self
    }

    /// The registered constraints.
    pub fn cfds(&self) -> &[Cfd] {
        &self.cfds
    }

    /// Register CFDs from the textual notation; the whole set (old + new)
    /// is consistency-checked and registration is **rejected** if the
    /// result is unsatisfiable.
    pub fn register_text(&mut self, text: &str) -> CfdResult<Consistency> {
        let new = parse_cfds(text)?;
        self.register(new)
    }

    /// Register parsed CFDs with the same consistency gate.
    pub fn register(&mut self, new: Vec<Cfd>) -> CfdResult<Consistency> {
        let mut candidate = self.cfds.clone();
        candidate.extend(new);
        let verdict = check_consistency(&candidate, &self.domains)?;
        if verdict.is_consistent() {
            self.cfds = candidate;
            self.last_verdict = Some(true);
        } else {
            self.last_verdict = Some(false);
        }
        Ok(verdict)
    }

    /// Replace the constraint set with its minimal cover.
    pub fn reduce_to_cover(&mut self) -> CfdResult<usize> {
        let before = self.cfds.len();
        self.cfds = minimal_cover(&self.cfds, &self.domains)?;
        Ok(before - self.cfds.len())
    }

    /// Re-run the consistency check on demand.
    pub fn check(&mut self) -> CfdResult<Consistency> {
        let v = check_consistency(&self.cfds, &self.domains)?;
        self.last_verdict = Some(v.is_consistent());
        Ok(v)
    }

    /// Store the pattern tableaux relationally in `db` (tables named
    /// `__cfd_tableau_{i}`), mirroring \[3\]'s relational representation.
    /// Returns the created table names.
    pub fn store_tableaux(&self, db: &mut Database, relation: &str) -> CfdResult<Vec<String>> {
        let schema = db
            .table(relation)
            .map_err(|e| CfdError::Malformed(e.to_string()))?
            .schema()
            .clone();
        let mut names = Vec::new();
        for (i, t) in group_into_tableaux(&self.cfds).iter().enumerate() {
            let name = format!("{TABLEAU_PREFIX}{i}");
            db.register_table(encode_tableau(&name, t, &schema)?);
            names.push(name);
        }
        Ok(names)
    }

    /// Number of registered CFDs.
    pub fn len(&self) -> usize {
        self.cfds.len()
    }

    /// True if no CFDs are registered.
    pub fn is_empty(&self) -> bool {
        self.cfds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_gates_on_consistency() {
        let mut e = ConstraintEngine::new();
        let v = e
            .register_text("customer: [CC='44'] -> [CNT='UK']")
            .unwrap();
        assert!(v.is_consistent());
        assert_eq!(e.len(), 1);
        // An addition that makes the set unsatisfiable is rejected.
        let v = e
            .register_text("customer: [A=_] -> [B='1']\ncustomer: [A=_] -> [B='2']")
            .unwrap();
        assert!(!v.is_consistent());
        assert_eq!(e.len(), 1, "inconsistent batch must not be adopted");
    }

    #[test]
    fn cover_reduction_removes_redundancy() {
        let mut e = ConstraintEngine::new();
        e.register_text(
            "r: [A] -> [B]\n\
             r: [B] -> [C]\n\
             r: [A] -> [C]",
        )
        .unwrap();
        let removed = e.reduce_to_cover().unwrap();
        assert_eq!(removed, 1);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn tableaux_are_stored_relationally() {
        let mut e = ConstraintEngine::new();
        e.register_text(
            "customer: [CNT, ZIP] -> [CITY]\n\
             customer: [CC='44'] -> [CNT='UK']\n\
             customer: [CC=_] -> [CNT=_]",
        )
        .unwrap();
        let mut db = Database::new();
        db.execute("CREATE TABLE customer (NAME TEXT, CNT TEXT, CITY TEXT, ZIP TEXT, STR TEXT, CC TEXT, AC TEXT)").unwrap();
        let names = e.store_tableaux(&mut db, "customer").unwrap();
        assert_eq!(names.len(), 2); // (CNT,ZIP)->CITY and CC->CNT
                                    // The CC → CNT tableau holds both pattern rows, queryable via SQL.
        let rows = db
            .query(&format!("SELECT COUNT(*) AS n FROM {}", &names[1]))
            .unwrap();
        let n = rows.get(0, "n").unwrap().as_int().unwrap();
        assert!(n == 2 || n == 1);
        let total: i64 = names
            .iter()
            .map(|t| {
                db.query(&format!("SELECT COUNT(*) AS n FROM {t}"))
                    .unwrap()
                    .get(0, "n")
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 3);
    }
}
