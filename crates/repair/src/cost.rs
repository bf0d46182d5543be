//! The repair cost model of Cong et al. (VLDB 2007, \[8\]).
//!
//! The cost of changing a cell value `v` to `v'` is
//! `w(t, A) · dist(v, v') / max(|v|, |v'|)` where `dist` is the
//! Damerau–Levenshtein distance (restricted / optimal-string-alignment
//! variant) and `w` a per-cell confidence weight. Similar values are cheap
//! to substitute — the model prefers repairs that look like typo fixes.

use std::collections::HashMap;

use minidb::{RowId, Value};

/// Restricted Damerau–Levenshtein (optimal string alignment) distance:
/// insertions, deletions, substitutions and adjacent transpositions.
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    // Three rolling rows are enough for the OSA recurrence.
    let mut prev2: Vec<usize> = vec![0; m + 1];
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur: Vec<usize> = vec![0; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let sub_cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (prev[j] + 1) // deletion
                .min(cur[j - 1] + 1) // insertion
                .min(prev[j - 1] + sub_cost); // substitution
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(prev2[j - 2] + 1); // transposition
            }
            cur[j] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Normalized distance in `[0, 1]`: `dist / max(len)` for strings; 0/1
/// equality for other types; `NULL` vs non-NULL costs 1.
pub fn normalized_distance(a: &Value, b: &Value) -> f64 {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => {
            let ml = x.chars().count().max(y.chars().count());
            if ml == 0 {
                return 0.0;
            }
            damerau_levenshtein(x, y) as f64 / ml as f64
        }
        _ => {
            if a.strong_eq(b) {
                0.0
            } else {
                1.0
            }
        }
    }
}

/// Per-cell confidence weights `w(t, A)`; higher weight = more trusted =
/// more expensive to change. Defaults to 1.0 everywhere.
#[derive(Debug, Clone)]
pub struct WeightModel {
    default: f64,
    cells: HashMap<(RowId, usize), f64>,
    columns: HashMap<usize, f64>,
}

impl Default for WeightModel {
    fn default() -> WeightModel {
        WeightModel {
            default: 1.0,
            cells: HashMap::new(),
            columns: HashMap::new(),
        }
    }
}

impl WeightModel {
    /// Uniform weights.
    pub fn uniform() -> WeightModel {
        WeightModel::default()
    }

    /// Set a column-level weight.
    pub fn with_column(mut self, col: usize, w: f64) -> WeightModel {
        self.columns.insert(col, w);
        self
    }

    /// Set a single cell's weight.
    pub fn set_cell(&mut self, row: RowId, col: usize, w: f64) {
        self.cells.insert((row, col), w);
    }

    /// `w(t, A)`.
    pub fn weight(&self, row: RowId, col: usize) -> f64 {
        if let Some(w) = self.cells.get(&(row, col)) {
            return *w;
        }
        self.columns.get(&col).copied().unwrap_or(self.default)
    }

    /// Full change cost `w(t,A) · ndist(old, new)`.
    pub fn change_cost(&self, row: RowId, col: usize, old: &Value, new: &Value) -> f64 {
        self.weight(row, col) * normalized_distance(old, new)
    }
}

/// Cost of a change that ignores similarity (`0/1` distance) — the ablation
/// A2 baseline showing why the similarity term matters.
pub fn uniform_cost(old: &Value, new: &Value) -> f64 {
    if old.strong_eq(new) {
        0.0
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dl_distance_basics() {
        assert_eq!(damerau_levenshtein("", ""), 0);
        assert_eq!(damerau_levenshtein("abc", "abc"), 0);
        assert_eq!(damerau_levenshtein("abc", ""), 3);
        assert_eq!(damerau_levenshtein("kitten", "sitting"), 3);
        // transposition counts 1
        assert_eq!(damerau_levenshtein("ab", "ba"), 1);
        assert_eq!(damerau_levenshtein("EDI", "EDG"), 1);
    }

    #[test]
    fn dl_is_symmetric_and_triangleish() {
        let pairs = [("london", "lodnon"), ("zip", "zap"), ("a", "abcd")];
        for (a, b) in pairs {
            assert_eq!(damerau_levenshtein(a, b), damerau_levenshtein(b, a));
        }
    }

    #[test]
    fn normalized_distance_is_unit_interval() {
        let a = Value::str("EH4 1DT");
        let b = Value::str("EH4 1DX");
        let d = normalized_distance(&a, &b);
        assert!(d > 0.0 && d < 0.3, "one char over seven: {d}");
        assert_eq!(normalized_distance(&a, &a), 0.0);
        assert_eq!(normalized_distance(&Value::Int(1), &Value::Int(2)), 1.0);
        assert_eq!(normalized_distance(&Value::Null, &Value::str("x")), 1.0);
    }

    #[test]
    fn weights_override_hierarchy() {
        let mut w = WeightModel::uniform().with_column(2, 5.0);
        w.set_cell(RowId(7), 2, 0.5);
        assert_eq!(w.weight(RowId(0), 0), 1.0);
        assert_eq!(w.weight(RowId(0), 2), 5.0);
        assert_eq!(w.weight(RowId(7), 2), 0.5);
    }

    #[test]
    fn similar_values_cost_less() {
        let w = WeightModel::uniform();
        let typo = w.change_cost(
            RowId(0),
            0,
            &Value::str("Mayfield Rd"),
            &Value::str("Mayfeild Rd"),
        );
        let swap = w.change_cost(
            RowId(0),
            0,
            &Value::str("Mayfield Rd"),
            &Value::str("Oak Ave"),
        );
        assert!(
            typo < swap,
            "typo fix {typo} must be cheaper than replacement {swap}"
        );
    }
}
