//! Attribute domain declarations for static analysis.
//!
//! Consistency and implication of CFDs are sensitive to whether attributes
//! range over infinite domains (strings, integers) or finite ones (booleans,
//! enumerated codes): the problems are NP-complete / coNP-complete in the
//! presence of finite domains (\[3\] Thm 3.2/3.5). `DomainSpec` lets callers
//! declare finite domains; undeclared attributes are treated as infinite.

use std::collections::HashMap;

use minidb::Value;

/// Finite-domain declarations, keyed by lower-cased attribute name.
#[derive(Debug, Clone, Default)]
pub struct DomainSpec {
    finite: HashMap<String, Vec<Value>>,
}

impl DomainSpec {
    /// All attributes infinite.
    pub fn all_infinite() -> DomainSpec {
        DomainSpec::default()
    }

    /// Declare a finite domain for `attr`.
    pub fn with_finite(mut self, attr: &str, values: Vec<Value>) -> DomainSpec {
        self.finite.insert(attr.to_ascii_lowercase(), values);
        self
    }

    /// The declared finite domain of `attr`, if any.
    pub fn finite_domain(&self, attr: &str) -> Option<&[Value]> {
        self.finite
            .get(&attr.to_ascii_lowercase())
            .map(Vec::as_slice)
    }

    /// Candidate values for a witness search on `attr`: the declared finite
    /// domain if any; otherwise the constants observed in the constraint set
    /// plus `extra_fresh` sentinel values guaranteed distinct from them.
    ///
    /// One fresh value per tuple-variable suffices: every value outside the
    /// constants of Σ behaves identically w.r.t. pattern matching, and two
    /// sentinels let a two-tuple search choose "equal outside constants" vs
    /// "unequal outside constants".
    pub fn candidates(&self, attr: &str, constants: &[Value], extra_fresh: usize) -> Vec<Value> {
        if let Some(dom) = self.finite_domain(attr) {
            return dom.to_vec();
        }
        let mut out: Vec<Value> = Vec::with_capacity(constants.len() + extra_fresh);
        for c in constants {
            if !out.iter().any(|v| v.strong_eq(c)) {
                out.push(c.clone());
            }
        }
        for k in 0..extra_fresh {
            let mut n = k;
            loop {
                let candidate = Value::str(format!("\u{22a5}{attr}#{n}"));
                if !out.iter().any(|v| v.strong_eq(&candidate)) {
                    out.push(candidate);
                    break;
                }
                n += extra_fresh.max(1);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_dedupe_constants_and_add_fresh() {
        let d = DomainSpec::all_infinite();
        let consts = vec![Value::str("UK"), Value::str("UK"), Value::str("US")];
        let c = d.candidates("cnt", &consts, 2);
        assert_eq!(c.len(), 4);
        assert!(c.iter().filter(|v| v.strong_eq(&Value::str("UK"))).count() == 1);
    }

    #[test]
    fn finite_domain_wins_over_constants() {
        let d = DomainSpec::all_infinite()
            .with_finite("flag", vec![Value::Bool(true), Value::Bool(false)]);
        let c = d.candidates("FLAG", &[Value::Bool(true)], 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn fresh_values_avoid_collisions_with_constants() {
        let d = DomainSpec::all_infinite();
        let consts = vec![Value::str("\u{22a5}a#0")];
        let c = d.candidates("a", &consts, 1);
        assert_eq!(c.len(), 2);
        assert!(!c[1].strong_eq(&c[0]));
    }
}
