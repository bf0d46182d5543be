//! Shard routing: which shard owns a row.
//!
//! A [`ShardRouter`] decides placement **at insert time** from the row's
//! values; from then on the shard tables remember the placement (row ids
//! are global, and exactly one shard table holds each live row), so
//! routing never has to be re-derivable from data. That makes
//! round-robin — which balances perfectly but is value-blind — a
//! first-class citizen next to hash-by-key.
//!
//! Placement affects *performance*, never *results*: detection is exact
//! under any router (the scatter/gather exchange reconciles split groups).
//! A [`HashRouter`] keyed on a CFD's LHS columns keeps each of that CFD's
//! groups on one shard, collapsing its exchange to local conflicts; a
//! mis-keyed or round-robin placement just pays more merge work.

use std::hash::{Hash, Hasher};

use detect::fxhash::FxHasher;
use minidb::Value;

/// Chooses the shard (`0..n_shards`) for a row about to be inserted.
pub trait ShardRouter: Send {
    /// Route one row. Stateful routers (round-robin) advance per call —
    /// the cluster calls this exactly once per successful insert.
    fn route(&mut self, row: &[Value], n_shards: usize) -> usize;

    /// Short label for benchmarks and debug output.
    fn name(&self) -> &'static str;
}

/// Routes by hashing a fixed set of key columns (all columns when empty).
///
/// Uses the deterministic [`FxHasher`] — placement is reproducible across
/// runs and processes, which the benchmarks and property tests rely on.
#[derive(Debug, Clone, Default)]
pub struct HashRouter {
    key_cols: Vec<usize>,
}

impl HashRouter {
    /// Router hashing the given schema positions (empty = whole row).
    pub fn new(key_cols: Vec<usize>) -> HashRouter {
        HashRouter { key_cols }
    }
}

impl ShardRouter for HashRouter {
    fn route(&mut self, row: &[Value], n_shards: usize) -> usize {
        let mut h = FxHasher::default();
        if self.key_cols.is_empty() {
            row.hash(&mut h);
        } else {
            for &c in &self.key_cols {
                row[c].hash(&mut h);
            }
        }
        (h.finish() % n_shards.max(1) as u64) as usize
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Routes rows to shards in rotation — perfectly balanced, value-blind
/// (the worst case for exchange volume: every group is split).
#[derive(Debug, Clone, Default)]
pub struct RoundRobinRouter {
    next: usize,
}

impl ShardRouter for RoundRobinRouter {
    fn route(&mut self, _row: &[Value], n_shards: usize) -> usize {
        let s = self.next % n_shards.max(1);
        self.next = self.next.wrapping_add(1);
        s
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_router_is_deterministic_and_key_scoped() {
        let mut r = HashRouter::new(vec![0]);
        let a = vec![Value::str("k"), Value::str("x")];
        let b = vec![Value::str("k"), Value::str("y")];
        let s = r.route(&a, 8);
        assert_eq!(s, r.route(&a, 8), "same row, same shard");
        assert_eq!(s, r.route(&b, 8), "column 1 is outside the key");
        let mut whole = HashRouter::default();
        assert_eq!(whole.route(&a, 8), whole.route(&a.clone(), 8));
    }

    #[test]
    fn round_robin_rotates() {
        let mut r = RoundRobinRouter::default();
        let row = vec![Value::Null];
        let got: Vec<usize> = (0..5).map(|_| r.route(&row, 3)).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn single_shard_swallows_everything() {
        let row = vec![Value::str("z")];
        assert_eq!(HashRouter::default().route(&row, 1), 0);
        assert_eq!(RoundRobinRouter::default().route(&row, 1), 0);
    }
}
