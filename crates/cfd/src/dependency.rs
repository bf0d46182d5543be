//! Conditional functional dependencies and their schema bindings.
//!
//! A CFD φ = (X → A, tp) couples an embedded FD `X → A` with a pattern
//! tuple `tp` over `X ∪ {A}` whose cells are constants or `_`. We keep the
//! paper's normal form: a single RHS attribute per CFD (multi-attribute
//! input is split by [`crate::parse::parse_cfds`]).

use std::fmt;

use minidb::{Schema, Value};

use crate::error::{CfdError, CfdResult};
use crate::pattern::Pattern;

/// A plain functional dependency `X → A` (single RHS attribute).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fd {
    /// Left-hand-side attribute names.
    pub lhs: Vec<String>,
    /// Right-hand-side attribute name.
    pub rhs: String,
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] -> [{}]", self.lhs.join(", "), self.rhs)
    }
}

/// A conditional functional dependency in normal form.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfd {
    /// Relation the CFD is declared on.
    pub relation: String,
    /// LHS attribute names `X` (may be empty: a constant rule on `A` alone).
    pub lhs: Vec<String>,
    /// RHS attribute name `A`.
    pub rhs: String,
    /// LHS pattern cells, parallel to `lhs`.
    pub lhs_pat: Vec<Pattern>,
    /// RHS pattern cell.
    pub rhs_pat: Pattern,
}

impl Cfd {
    /// Construct and structurally validate a CFD.
    pub fn new(
        relation: impl Into<String>,
        lhs: Vec<(String, Pattern)>,
        rhs: impl Into<String>,
        rhs_pat: Pattern,
    ) -> CfdResult<Cfd> {
        let (lhs_names, lhs_pats): (Vec<_>, Vec<_>) = lhs.into_iter().unzip();
        let rhs = rhs.into();
        for (i, n) in lhs_names.iter().enumerate() {
            if lhs_names[..i].iter().any(|p| p.eq_ignore_ascii_case(n)) {
                return Err(CfdError::Malformed(format!("duplicate LHS attribute {n}")));
            }
            if n.eq_ignore_ascii_case(&rhs) {
                return Err(CfdError::Malformed(format!(
                    "attribute {n} appears on both sides"
                )));
            }
        }
        Ok(Cfd {
            relation: relation.into(),
            lhs: lhs_names,
            rhs,
            lhs_pat: lhs_pats,
            rhs_pat,
        })
    }

    /// A pure FD `X → A` viewed as a CFD (all-wildcard pattern).
    pub fn from_fd(relation: impl Into<String>, fd: &Fd) -> Cfd {
        Cfd {
            relation: relation.into(),
            lhs: fd.lhs.clone(),
            rhs: fd.rhs.clone(),
            lhs_pat: vec![Pattern::Wild; fd.lhs.len()],
            rhs_pat: Pattern::Wild,
        }
    }

    /// Is this a *constant* CFD (all LHS cells and the RHS cell constants)?
    pub fn is_constant(&self) -> bool {
        self.rhs_pat.constant().is_some() && self.lhs_pat.iter().all(|p| !p.is_wild())
    }

    /// Is this a *variable* CFD (RHS pattern `_`)?
    pub fn is_variable(&self) -> bool {
        self.rhs_pat.is_wild()
    }

    /// Is this a plain FD in disguise (every cell `_`)?
    pub fn is_plain_fd(&self) -> bool {
        self.rhs_pat.is_wild() && self.lhs_pat.iter().all(Pattern::is_wild)
    }

    /// Bind attribute names to column indices of `schema`.
    pub fn bind(&self, schema: &Schema) -> CfdResult<BoundCfd> {
        let lhs_cols = self
            .lhs
            .iter()
            .map(|a| {
                schema
                    .index_of(a)
                    .ok_or_else(|| CfdError::UnknownAttribute(a.clone()))
            })
            .collect::<CfdResult<Vec<_>>>()?;
        let rhs_col = schema
            .index_of(&self.rhs)
            .ok_or_else(|| CfdError::UnknownAttribute(self.rhs.clone()))?;
        Ok(BoundCfd {
            cfd: self.clone(),
            lhs_cols,
            rhs_col,
        })
    }
}

impl fmt::Display for Cfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [", self.relation)?;
        for (i, (a, p)) in self.lhs.iter().zip(&self.lhs_pat).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}={p}")?;
        }
        write!(f, "] -> [{}={}]", self.rhs, self.rhs_pat)
    }
}

/// A CFD bound to a concrete schema: attribute names resolved to positions.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCfd {
    /// The source CFD.
    pub cfd: Cfd,
    /// Column indices of the LHS attributes.
    pub lhs_cols: Vec<usize>,
    /// Column index of the RHS attribute.
    pub rhs_col: usize,
}

impl BoundCfd {
    /// Does `row` match the LHS pattern `tp[X]`?
    pub fn lhs_matches(&self, row: &[Value]) -> bool {
        self.lhs_cols
            .iter()
            .zip(&self.cfd.lhs_pat)
            .all(|(&c, p)| p.matches(&row[c]))
    }

    /// Does `row` match the RHS pattern `tp[A]`? (Wild always matches.)
    pub fn rhs_matches(&self, row: &[Value]) -> bool {
        self.cfd.rhs_pat.matches(&row[self.rhs_col])
    }

    /// Is `row` a single-tuple violation: LHS matches, RHS is a constant,
    /// and the row's RHS value is non-null and different?
    ///
    /// NULL in the RHS is *not* flagged, mirroring the SQL query
    /// `... AND t.A <> tp.A` which is UNKNOWN on NULL.
    pub fn single_tuple_violation(&self, row: &[Value]) -> bool {
        match self.cfd.rhs_pat.constant() {
            None => false,
            Some(a) => {
                self.lhs_matches(row) && {
                    let v = &row[self.rhs_col];
                    !v.is_null() && !v.strong_eq(a)
                }
            }
        }
    }

    /// Project the LHS values of `row` (the group key for multi-tuple
    /// violation detection).
    pub fn lhs_key(&self, row: &[Value]) -> Vec<Value> {
        self.lhs_cols.iter().map(|&c| row[c].clone()).collect()
    }
}

/// Group a set of CFDs by embedded FD, yielding one pattern tableau per FD —
/// the representation the merged SQL detection queries operate on.
#[derive(Debug, Clone, PartialEq)]
pub struct Tableau {
    /// Relation name.
    pub relation: String,
    /// The shared embedded FD.
    pub fd: Fd,
    /// Pattern rows: `(tp[X], tp[A])`, with the index of the source CFD in
    /// the original input slice.
    pub rows: Vec<(Vec<Pattern>, Pattern, usize)>,
}

/// Partition `cfds` into tableaux keyed by `(relation, embedded FD)`
/// (case-insensitive on names; attribute order is normalized).
pub fn group_into_tableaux(cfds: &[Cfd]) -> Vec<Tableau> {
    let mut out: Vec<Tableau> = Vec::new();
    for (idx, c) in cfds.iter().enumerate() {
        // Normalize: sort LHS attributes (with their pattern cells).
        let mut pairs: Vec<(String, Pattern)> = c
            .lhs
            .iter()
            .map(|s| s.to_ascii_lowercase())
            .zip(c.lhs_pat.iter().cloned())
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let fd = Fd {
            lhs: pairs.iter().map(|(a, _)| a.clone()).collect(),
            rhs: c.rhs.to_ascii_lowercase(),
        };
        let rel = c.relation.to_ascii_lowercase();
        let pats: Vec<Pattern> = pairs.into_iter().map(|(_, p)| p).collect();
        match out.iter_mut().find(|t| t.relation == rel && t.fd == fd) {
            Some(t) => t.rows.push((pats, c.rhs_pat.clone(), idx)),
            None => out.push(Tableau {
                relation: rel,
                fd,
                rows: vec![(pats, c.rhs_pat.clone(), idx)],
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(
            ["NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"]
                .iter()
                .map(|n| Column::new(*n, DataType::Str))
                .collect(),
        )
        .unwrap()
    }

    fn phi2() -> Cfd {
        // [CNT='UK', ZIP=_] -> [STR=_]
        Cfd::new(
            "customer",
            vec![
                ("CNT".into(), Pattern::s("UK")),
                ("ZIP".into(), Pattern::Wild),
            ],
            "STR",
            Pattern::Wild,
        )
        .unwrap()
    }

    fn phi4() -> Cfd {
        // [CC='44'] -> [CNT='UK']
        Cfd::new(
            "customer",
            vec![("CC".into(), Pattern::s("44"))],
            "CNT",
            Pattern::s("UK"),
        )
        .unwrap()
    }

    fn row(vals: &[&str]) -> Vec<Value> {
        vals.iter().map(|v| Value::str(*v)).collect()
    }

    #[test]
    fn classification() {
        assert!(phi2().is_variable());
        assert!(!phi2().is_plain_fd());
        assert!(phi4().is_constant());
        let fd = Cfd::from_fd(
            "customer",
            &Fd {
                lhs: vec!["CNT".into(), "ZIP".into()],
                rhs: "CITY".into(),
            },
        );
        assert!(fd.is_plain_fd());
    }

    #[test]
    fn rejects_overlapping_sides_and_duplicates() {
        assert!(Cfd::new(
            "r",
            vec![("A".into(), Pattern::Wild), ("a".into(), Pattern::Wild)],
            "B",
            Pattern::Wild
        )
        .is_err());
        assert!(Cfd::new("r", vec![("A".into(), Pattern::Wild)], "A", Pattern::Wild).is_err());
    }

    #[test]
    fn binding_resolves_case_insensitively() {
        let b = phi2().bind(&schema()).unwrap();
        assert_eq!(b.lhs_cols, vec![1, 3]);
        assert_eq!(b.rhs_col, 4);
        let missing = Cfd::new(
            "r",
            vec![("NOPE".into(), Pattern::Wild)],
            "CNT",
            Pattern::Wild,
        )
        .unwrap()
        .bind(&schema());
        assert!(missing.is_err());
    }

    #[test]
    fn single_tuple_violation_semantics() {
        let b = phi4().bind(&schema()).unwrap();
        // CC=44 but CNT=US: violation.
        let bad = row(&["x", "US", "NYC", "1", "s", "44", "131"]);
        assert!(b.single_tuple_violation(&bad));
        // CC=44, CNT=UK: fine.
        let good = row(&["x", "UK", "EDI", "1", "s", "44", "131"]);
        assert!(!b.single_tuple_violation(&good));
        // CC=01: pattern does not apply.
        let na = row(&["x", "US", "NYC", "1", "s", "01", "131"]);
        assert!(!b.single_tuple_violation(&na));
        // CC=44, CNT=NULL: not flagged (SQL semantics).
        let mut withnull = bad.clone();
        withnull[1] = Value::Null;
        assert!(!b.single_tuple_violation(&withnull));
    }

    #[test]
    fn variable_cfd_never_single_tuple_violates() {
        let b = phi2().bind(&schema()).unwrap();
        let r = row(&["x", "UK", "EDI", "EH1", "street", "44", "131"]);
        assert!(!b.single_tuple_violation(&r));
        assert!(b.lhs_matches(&r));
    }

    #[test]
    fn tableau_grouping_merges_same_embedded_fd() {
        // φ3: [CC=_] -> [CNT=_] and φ4 share the FD CC -> CNT.
        let phi3 = Cfd::new(
            "customer",
            vec![("CC".into(), Pattern::Wild)],
            "CNT",
            Pattern::Wild,
        )
        .unwrap();
        let ts = group_into_tableaux(&[phi3, phi4(), phi2()]);
        assert_eq!(ts.len(), 2);
        let cc_cnt = ts.iter().find(|t| t.fd.rhs == "cnt").unwrap();
        assert_eq!(cc_cnt.rows.len(), 2);
    }

    #[test]
    fn display_roundtrips_shape() {
        let s = phi2().to_string();
        assert_eq!(s, "customer: [CNT='UK', ZIP=_] -> [STR=_]");
    }
}
