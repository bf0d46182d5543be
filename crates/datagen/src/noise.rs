//! Controlled noise injection with a ground-truth mask.
//!
//! The repair-quality experiments (\[8\]'s methodology) need to know exactly
//! which cells were dirtied and what their original values were; the
//! injector records a [`CellNoise`] entry per corrupted cell.

use minidb::{RowId, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a single cell was corrupted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoiseKind {
    /// One character edited / inserted / deleted (a typo).
    Typo,
    /// Replaced by a value drawn from another row of the same column
    /// (an entity mix-up: the kind CFDs catch).
    Swap,
}

/// Ground-truth record of one injected error.
#[derive(Debug, Clone, PartialEq)]
pub struct CellNoise {
    /// Row that was dirtied.
    pub row: RowId,
    /// Column index.
    pub col: usize,
    /// Original (clean) value.
    pub original: Value,
    /// Injected dirty value.
    pub dirty: Value,
    /// Which corruption was applied.
    pub kind: NoiseKind,
}

/// Noise injection parameters.
#[derive(Debug, Clone)]
pub struct NoiseConfig {
    /// Fraction of **cells** to corrupt, over `rows × |columns|`.
    pub rate: f64,
    /// Probability that a corruption is a [`NoiseKind::Typo`] (the rest are
    /// swaps). Swaps are the errors CFD detection is designed to catch;
    /// typos additionally exercise the similarity term of the repair cost
    /// model.
    pub typo_fraction: f64,
    /// Columns eligible for corruption (indices into the schema).
    pub columns: Vec<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl NoiseConfig {
    /// Corrupt `rate` of cells across `columns`, all swaps.
    pub fn swaps(rate: f64, columns: Vec<usize>, seed: u64) -> NoiseConfig {
        NoiseConfig {
            rate,
            typo_fraction: 0.0,
            columns,
            seed,
        }
    }
}

/// Inject noise into `table` in place; returns the ground-truth mask in
/// injection order. Each targeted cell is corrupted at most once.
pub fn inject_noise(table: &mut Table, cfg: &NoiseConfig) -> Vec<CellNoise> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let ids: Vec<RowId> = table.iter().map(|(id, _)| id).collect();
    if ids.is_empty() || cfg.columns.is_empty() {
        return Vec::new();
    }
    let total_cells = ids.len() * cfg.columns.len();
    let n_errors = ((total_cells as f64) * cfg.rate).round() as usize;
    // Pre-collect per-column value pools for swaps.
    let pools: Vec<Vec<Value>> = cfg
        .columns
        .iter()
        .map(|&c| {
            let mut vs: Vec<Value> = table.iter().map(|(_, r)| r[c].clone()).collect();
            vs.dedup();
            vs
        })
        .collect();
    let mut mask: Vec<CellNoise> = Vec::with_capacity(n_errors);
    let mut touched: std::collections::HashSet<(RowId, usize)> = std::collections::HashSet::new();
    let mut attempts = 0usize;
    while mask.len() < n_errors && attempts < n_errors * 20 {
        attempts += 1;
        let row = ids[rng.gen_range(0..ids.len())];
        let col_pos = rng.gen_range(0..cfg.columns.len());
        let col = cfg.columns[col_pos];
        if !touched.insert((row, col)) {
            continue;
        }
        let original = table.get(row).expect("live row")[col].clone();
        let kind = if rng.gen_bool(cfg.typo_fraction.clamp(0.0, 1.0)) {
            NoiseKind::Typo
        } else {
            NoiseKind::Swap
        };
        let dirty = match kind {
            NoiseKind::Typo => typo(&original, &mut rng),
            NoiseKind::Swap => {
                // Draw a different value from the column pool.
                let pool = &pools[col_pos];
                let mut v = pool[rng.gen_range(0..pool.len())].clone();
                let mut tries = 0;
                while v.strong_eq(&original) && tries < 16 {
                    v = pool[rng.gen_range(0..pool.len())].clone();
                    tries += 1;
                }
                if v.strong_eq(&original) {
                    typo(&original, &mut rng) // degenerate pool: fall back
                } else {
                    v
                }
            }
        };
        if dirty.strong_eq(&original) {
            touched.remove(&(row, col));
            continue;
        }
        table
            .update_cell(row, col, dirty.clone())
            .expect("same-type update");
        mask.push(CellNoise {
            row,
            col,
            original,
            dirty,
            kind,
        });
    }
    mask
}

/// Apply a one-character typo to a value (strings only; other types get a
/// numeric nudge).
fn typo(v: &Value, rng: &mut StdRng) -> Value {
    match v {
        Value::Str(s) if !s.is_empty() => {
            let chars: Vec<char> = s.chars().collect();
            let pos = rng.gen_range(0..chars.len());
            let mut out: String = String::with_capacity(s.len() + 1);
            let replacement = (b'a' + rng.gen_range(0..26u8)) as char;
            match rng.gen_range(0..3u8) {
                0 => {
                    // substitute
                    for (i, c) in chars.iter().enumerate() {
                        out.push(if i == pos { replacement } else { *c });
                    }
                }
                1 => {
                    // insert
                    for (i, c) in chars.iter().enumerate() {
                        if i == pos {
                            out.push(replacement);
                        }
                        out.push(*c);
                    }
                }
                _ => {
                    // delete (keep at least one char)
                    if chars.len() == 1 {
                        out.push(replacement);
                    } else {
                        for (i, c) in chars.iter().enumerate() {
                            if i != pos {
                                out.push(*c);
                            }
                        }
                    }
                }
            }
            Value::str(out)
        }
        Value::Str(_) => Value::str("x"),
        Value::Int(i) => Value::Int(i + 1),
        Value::Float(f) => Value::Float(f + 1.0),
        Value::Bool(b) => Value::Bool(!b),
        Value::Null => Value::str("x"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::customer::{generate_customers, CustomerConfig};

    fn table() -> Table {
        generate_customers(&CustomerConfig {
            rows: 200,
            ..CustomerConfig::default()
        })
    }

    #[test]
    fn mask_matches_table_contents() {
        let mut t = table();
        let mask = inject_noise(
            &mut t,
            &NoiseConfig {
                rate: 0.05,
                typo_fraction: 0.3,
                columns: vec![1, 2, 3, 4, 5],
                seed: 42,
            },
        );
        assert!(!mask.is_empty());
        for m in &mask {
            let cell = &t.get(m.row).unwrap()[m.col];
            assert!(cell.strong_eq(&m.dirty));
            assert!(!cell.strong_eq(&m.original));
        }
    }

    #[test]
    fn rate_controls_error_count() {
        let mut t = table();
        let cols = vec![1, 2, 3, 4, 5];
        let mask = inject_noise(&mut t, &NoiseConfig::swaps(0.02, cols.clone(), 1));
        let expected = (200.0 * cols.len() as f64 * 0.02).round() as usize;
        assert_eq!(mask.len(), expected);
    }

    #[test]
    fn injection_is_deterministic() {
        let mut t1 = table();
        let mut t2 = table();
        let cfg = NoiseConfig {
            rate: 0.03,
            typo_fraction: 0.5,
            columns: vec![2, 4],
            seed: 99,
        };
        let m1 = inject_noise(&mut t1, &cfg);
        let m2 = inject_noise(&mut t2, &cfg);
        assert_eq!(m1, m2);
    }

    #[test]
    fn zero_rate_leaves_table_untouched() {
        let mut t = table();
        let before: Vec<_> = t.iter().map(|(_, r)| r.to_vec()).collect();
        let mask = inject_noise(&mut t, &NoiseConfig::swaps(0.0, vec![1], 5));
        assert!(mask.is_empty());
        let after: Vec<_> = t.iter().map(|(_, r)| r.to_vec()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn each_cell_corrupted_at_most_once() {
        let mut t = table();
        let mask = inject_noise(&mut t, &NoiseConfig::swaps(0.2, vec![1, 2], 3));
        let mut seen = std::collections::HashSet::new();
        for m in &mask {
            assert!(seen.insert((m.row, m.col)), "cell corrupted twice");
        }
    }
}
