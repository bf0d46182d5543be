//! A second workload: a HOSP-style provider relation.
//!
//! The US "Hospital Compare" data is the other standard benchmark in the
//! CFD-repair literature (\[8\] and follow-ups evaluate on it). We generate
//! a synthetic equivalent with the same dependency structure:
//!
//! ```text
//! hosp(PROVIDER, HOSPITAL, CITY, STATE, ZIP, PHONE, MEASURE, CONDITION)
//! ```
//!
//! * `PROVIDER` is a key for the hospital attributes;
//! * `ZIP → CITY, STATE` (geography);
//! * `MEASURE → CONDITION` (the measure-code dictionary);
//! * plus constant rules binding a few concrete codes, mirroring how
//!   domain dictionaries show up as constant CFDs.

use minidb::{Schema, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cfd::parse::parse_cfds;
use cfd::Cfd;

/// Attributes of the HOSP-style relation.
pub const HOSP_ATTRS: [&str; 8] = [
    "PROVIDER",
    "HOSPITAL",
    "CITY",
    "STATE",
    "ZIP",
    "PHONE",
    "MEASURE",
    "CONDITION",
];

const STATES: [(&str, &[&str]); 4] = [
    ("AL", &["BIRMINGHAM", "DOTHAN", "MOBILE"]),
    ("AK", &["ANCHORAGE", "JUNEAU"]),
    ("AZ", &["PHOENIX", "TUCSON", "MESA"]),
    ("AR", &["LITTLE ROCK", "FAYETTEVILLE"]),
];

const MEASURES: [(&str, &str); 6] = [
    ("AMI-1", "Heart Attack"),
    ("AMI-2", "Heart Attack"),
    ("HF-1", "Heart Failure"),
    ("HF-2", "Heart Failure"),
    ("PN-1", "Pneumonia"),
    ("SCIP-1", "Surgical Infection Prevention"),
];

/// The CFD set the literature uses over HOSP-like data, in our notation.
pub const HOSP_CFDS: &str = "\
-- provider is a key for hospital identity
hosp: [PROVIDER] -> [HOSPITAL]
hosp: [PROVIDER] -> [PHONE]
hosp: [PROVIDER] -> [ZIP]
-- geography
hosp: [ZIP] -> [CITY]
hosp: [ZIP] -> [STATE]
-- measure-code dictionary
hosp: [MEASURE] -> [CONDITION]
-- concrete dictionary entries as constant CFDs
hosp: [MEASURE='AMI-1'] -> [CONDITION='Heart Attack']
hosp: [MEASURE='HF-1'] -> [CONDITION='Heart Failure']
hosp: [MEASURE='PN-1'] -> [CONDITION='Pneumonia']
";

/// The HOSP CFD set, parsed (9 CFDs in normal form).
pub fn hosp_cfds() -> Vec<Cfd> {
    parse_cfds(HOSP_CFDS).expect("HOSP CFDs parse")
}

/// The HOSP schema (all TEXT).
pub fn hosp_schema() -> Schema {
    Schema::of_strings(&HOSP_ATTRS)
}

/// Configuration for the HOSP generator.
#[derive(Debug, Clone)]
pub struct HospConfig {
    /// Number of rows (provider×measure observations).
    pub rows: usize,
    /// Number of distinct providers (controls duplication: each provider
    /// appears in rows/providers observations on average).
    pub providers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HospConfig {
    fn default() -> HospConfig {
        HospConfig {
            rows: 1000,
            providers: 100,
            seed: 0x405,
        }
    }
}

/// Generate a clean HOSP-style table satisfying [`HOSP_CFDS`] by
/// construction. Rows are (provider, measure) observations, so providers
/// repeat across rows — the duplication the variable CFDs need to bite.
pub fn generate_hosp(cfg: &HospConfig) -> Table {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut t = Table::new("hosp", hosp_schema());
    // Fixed provider master data (functions of the provider id).
    let providers: Vec<(String, String, usize, usize, String, String)> = (0..cfg.providers)
        .map(|p| {
            let (_state, cities) = STATES[p % STATES.len()];
            let city_idx = rng.gen_range(0..cities.len());
            let zip = format!("{:05}", 10000 + (p % STATES.len()) * 1000 + city_idx * 37);
            let phone = format!("{:03}-{:04}", 200 + p % 700, 1000 + p * 7 % 9000);
            (
                format!("P{p:05}"),
                format!("{} GENERAL HOSPITAL {p}", cities[city_idx]),
                p % STATES.len(),
                city_idx,
                zip,
                phone,
            )
        })
        .collect();
    for _ in 0..cfg.rows {
        let p = rng.gen_range(0..providers.len());
        let (provider, hospital, state_idx, city_idx, zip, phone) = &providers[p];
        let (state, cities) = STATES[*state_idx];
        let (measure, condition) = MEASURES[rng.gen_range(0..MEASURES.len())];
        t.insert(vec![
            Value::str(provider),
            Value::str(hospital),
            Value::str(cities[*city_idx]),
            Value::str(state),
            Value::str(zip),
            Value::str(phone),
            Value::str(measure),
            Value::str(condition),
        ])
        .expect("generated row fits schema");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn clean_hosp_satisfies_its_cfds() {
        let t = generate_hosp(&HospConfig::default());
        let cfds = hosp_cfds();
        for c in &cfds {
            let b = c.bind(t.schema()).unwrap();
            // constant rules
            if c.rhs_pat.constant().is_some() {
                for (_, row) in t.iter() {
                    if b.lhs_matches(row) {
                        assert!(b.rhs_matches(row), "{c} broken");
                    }
                }
            } else {
                // variable rules: group agreement
                let mut map: HashMap<Vec<minidb::Value>, minidb::Value> = HashMap::new();
                for (_, row) in t.iter() {
                    if !b.lhs_matches(row) {
                        continue;
                    }
                    let key = b.lhs_key(row);
                    let v = row[b.rhs_col].clone();
                    if let Some(prev) = map.insert(key, v.clone()) {
                        assert!(prev.strong_eq(&v), "{c} broken");
                    }
                }
            }
        }
    }

    #[test]
    fn providers_repeat_across_rows() {
        let t = generate_hosp(&HospConfig {
            rows: 500,
            providers: 50,
            seed: 1,
        });
        let mut counts: HashMap<String, usize> = HashMap::new();
        for (_, row) in t.iter() {
            *counts.entry(row[0].to_string()).or_default() += 1;
        }
        assert!(counts.values().any(|&n| n > 1), "need duplicate providers");
        assert!(counts.len() <= 50);
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = HospConfig::default();
        let a: Vec<_> = generate_hosp(&cfg)
            .iter()
            .map(|(_, r)| r.to_vec())
            .collect();
        let b: Vec<_> = generate_hosp(&cfg)
            .iter()
            .map(|(_, r)| r.to_vec())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn measure_dictionary_is_consistent() {
        // The MEASURES table itself must satisfy MEASURE → CONDITION.
        let mut seen: HashMap<&str, &str> = HashMap::new();
        for (m, c) in MEASURES {
            if let Some(prev) = seen.insert(m, c) {
                assert_eq!(prev, c);
            }
        }
    }
}
