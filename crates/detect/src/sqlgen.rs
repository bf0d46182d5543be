//! SQL generation for CFD violation detection (\[3\] §5–6).
//!
//! For each pattern tableau (the CFDs sharing an embedded FD `X → A`) two
//! queries are generated over the data joined with the encoded tableau
//! (wildcards = NULL):
//!
//! * **QC** catches single-tuple violations: tuples matching a pattern's
//!   LHS whose RHS differs from the pattern's RHS constant;
//! * **QV** catches multi-tuple violations: per pattern row with wildcard
//!   RHS, LHS-groups holding more than one distinct RHS value.
//!
//! Both are *merged* queries — one pass covers every pattern row of the
//! tableau. The per-pattern variants (one query per CFD with constants
//! inlined) are generated for the A1 ablation.

use cfd::encode::PATTERN_ID_COLUMN;
use cfd::{Pattern, Tableau};

/// The generated detection SQL for one tableau.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionSql {
    /// Name the encoded tableau must be registered under.
    pub tableau_table: String,
    /// Single-tuple violation query (None if no constant-RHS pattern row).
    pub qc: Option<String>,
    /// Multi-tuple group query (None if no variable pattern row).
    pub qv: Option<String>,
    /// Attribution query template: joins the data back to the materialized
    /// QV result (named `{v}`) to fetch the member rows of each group.
    pub attribution: Option<String>,
}

/// Build the LHS match predicate `(tp.B IS NULL OR t.B = tp.B) AND …`.
fn match_predicate(lhs: &[String]) -> String {
    if lhs.is_empty() {
        return "1 = 1".to_string();
    }
    lhs.iter()
        .map(|a| format!("(tp.{a} IS NULL OR t.{a} = tp.{a})"))
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// Generate the merged QC/QV queries for `tableau`, assuming its encoding
/// is registered as `tableau_table` and the data as `tableau.relation`.
pub fn merged_detection_sql(tableau: &Tableau, tableau_table: &str) -> DetectionSql {
    let rel = &tableau.relation;
    let lhs = &tableau.fd.lhs;
    let a = &tableau.fd.rhs;
    let on = match_predicate(lhs);
    let has_const = tableau.rows.iter().any(|(_, p, _)| !p.is_wild());
    let has_var = tableau.rows.iter().any(|(_, p, _)| p.is_wild());

    let qc = has_const.then(|| {
        format!(
            "SELECT t.__rowid AS rid, tp.{pid} AS pat \
             FROM {rel} t JOIN {tableau_table} tp ON {on} \
             WHERE tp.{a} IS NOT NULL AND t.{a} <> tp.{a}",
            pid = PATTERN_ID_COLUMN,
        )
    });

    let (qv, attribution) = if has_var {
        let key_cols: Vec<String> = lhs.iter().map(|c| format!("t.{c}")).collect();
        let select_keys = if key_cols.is_empty() {
            String::new()
        } else {
            format!(", {}", key_cols.join(", "))
        };
        let group_by = {
            let mut keys = vec![format!("tp.{PATTERN_ID_COLUMN}")];
            keys.extend(key_cols.iter().cloned());
            keys.join(", ")
        };
        let qv = format!(
            "SELECT tp.{pid} AS pat{select_keys} \
             FROM {rel} t JOIN {tableau_table} tp ON {on} \
             WHERE tp.{a} IS NULL AND t.{a} IS NOT NULL \
             GROUP BY {group_by} \
             HAVING COUNT(DISTINCT t.{a}) > 1",
            pid = PATTERN_ID_COLUMN,
        );
        let attr_on = if lhs.is_empty() {
            "1 = 1".to_string()
        } else {
            lhs.iter()
                .map(|c| format!("t.{c} IS NOT DISTINCT FROM v.{c}"))
                .collect::<Vec<_>>()
                .join(" AND ")
        };
        let key_select = if lhs.is_empty() {
            String::new()
        } else {
            format!(
                ", {}",
                lhs.iter()
                    .map(|c| format!("v.{c} AS {c}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        let attribution = format!(
            "SELECT v.pat AS pat, t.__rowid AS rid, t.{a} AS rhs{key_select} \
             FROM {rel} t JOIN {{v}} v ON {attr_on} \
             WHERE t.{a} IS NOT NULL",
        );
        (Some(qv), Some(attribution))
    } else {
        (None, None)
    };

    DetectionSql {
        tableau_table: tableau_table.to_string(),
        qc,
        qv,
        attribution,
    }
}

/// Per-pattern (non-merged) queries for the A1 ablation: one `(QC | QV)`
/// pair of SQL strings per pattern row, constants inlined. Returns
/// `(cfd_idx, kind, sql)` where kind distinguishes single/group queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerPatternKind {
    /// Single-tuple query: yields `rid`.
    Single,
    /// Group query: yields the LHS key columns; attribution is done by the
    /// caller re-scanning with the same inlined predicate.
    Group,
}

/// Generate per-pattern detection SQL (see [`PerPatternKind`]).
pub fn per_pattern_sql(tableau: &Tableau) -> Vec<(usize, PerPatternKind, String)> {
    let rel = &tableau.relation;
    let lhs = &tableau.fd.lhs;
    let a = &tableau.fd.rhs;
    let mut out = Vec::new();
    for (pats, rhs_pat, cfd_idx) in &tableau.rows {
        let mut conds: Vec<String> = Vec::new();
        for (attr, p) in lhs.iter().zip(pats) {
            if let Pattern::Const(v) = p {
                conds.push(format!("t.{attr} = {}", v.sql_literal()));
            }
        }
        match rhs_pat {
            Pattern::Const(v) => {
                conds.push(format!("t.{a} <> {}", v.sql_literal()));
                let where_clause = conds.join(" AND ");
                out.push((
                    *cfd_idx,
                    PerPatternKind::Single,
                    format!("SELECT t.__rowid AS rid FROM {rel} t WHERE {where_clause}"),
                ));
            }
            Pattern::Wild => {
                conds.push(format!("t.{a} IS NOT NULL"));
                let where_clause = conds.join(" AND ");
                let keys: Vec<String> = lhs.iter().map(|c| format!("t.{c}")).collect();
                let select = if keys.is_empty() {
                    "1".to_string()
                } else {
                    keys.join(", ")
                };
                let group = if keys.is_empty() {
                    String::new()
                } else {
                    format!(" GROUP BY {}", keys.join(", "))
                };
                out.push((
                    *cfd_idx,
                    PerPatternKind::Group,
                    format!(
                        "SELECT {select} FROM {rel} t WHERE {where_clause}{group} \
                         HAVING COUNT(DISTINCT t.{a}) > 1"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd::dependency::group_into_tableaux;
    use cfd::parse::parse_cfds;

    fn tableaux(src: &str) -> Vec<Tableau> {
        group_into_tableaux(&parse_cfds(src).unwrap())
    }

    #[test]
    fn merged_sql_contains_wildcard_predicate_and_having() {
        let ts = tableaux(
            "customer: [CNT, ZIP] -> [CITY]\n\
             customer: [CNT='UK', ZIP=_] -> [CITY=_]",
        );
        let sql = merged_detection_sql(&ts[0], "tab0");
        assert!(sql.qc.is_none(), "no constant RHS patterns here");
        let qv = sql.qv.unwrap();
        assert!(qv.contains("(tp.cnt IS NULL OR t.cnt = tp.cnt)"), "{qv}");
        assert!(qv.contains("HAVING COUNT(DISTINCT t.city) > 1"), "{qv}");
        assert!(qv.contains("GROUP BY tp.__pat, t.cnt, t.zip"), "{qv}");
    }

    #[test]
    fn merged_sql_qc_compares_rhs_constants() {
        let ts = tableaux("customer: [CC='44'] -> [CNT='UK']");
        let sql = merged_detection_sql(&ts[0], "tab0");
        let qc = sql.qc.unwrap();
        assert!(
            qc.contains("tp.cnt IS NOT NULL AND t.cnt <> tp.cnt"),
            "{qc}"
        );
        assert!(sql.qv.is_none());
    }

    #[test]
    fn attribution_uses_null_safe_join() {
        let ts = tableaux("customer: [CNT, ZIP] -> [CITY]");
        let sql = merged_detection_sql(&ts[0], "tab0");
        let attr = sql.attribution.unwrap();
        assert!(attr.contains("t.cnt IS NOT DISTINCT FROM v.cnt"), "{attr}");
        assert!(attr.contains("{v}"), "{attr}");
    }

    #[test]
    fn per_pattern_inlines_constants() {
        let ts = tableaux(
            "customer: [CC='44'] -> [CNT='UK']\n\
             customer: [CC=_] -> [CNT=_]",
        );
        let qs = per_pattern_sql(&ts[0]);
        assert_eq!(qs.len(), 2);
        let single = qs
            .iter()
            .find(|(_, k, _)| *k == PerPatternKind::Single)
            .unwrap();
        assert!(single.2.contains("t.cc = '44'"), "{}", single.2);
        assert!(single.2.contains("t.cnt <> 'UK'"), "{}", single.2);
        let group = qs
            .iter()
            .find(|(_, k, _)| *k == PerPatternKind::Group)
            .unwrap();
        assert!(group.2.contains("GROUP BY t.cc"), "{}", group.2);
    }

    #[test]
    fn empty_lhs_generates_valid_sql() {
        let ts = tableaux("r: [] -> [B='x']");
        let sql = merged_detection_sql(&ts[0], "tab0");
        let qc = sql.qc.unwrap();
        assert!(qc.contains("ON 1 = 1"), "{qc}");
    }
}
