//! Relational encoding of pattern tableaux (\[3\] §5).
//!
//! Each tableau (the pattern rows of all CFDs sharing an embedded FD) is
//! stored as a table whose columns are the FD's attributes plus a pattern-id
//! column. Wildcards are encoded as SQL `NULL`, so the match predicate in
//! generated SQL is `(tp.B IS NULL OR t.B = tp.B)` — constants in tableaux
//! are required to be non-null, which keeps the encoding unambiguous.

use minidb::{Column, DataType, Schema, Table, Value};

use crate::dependency::Tableau;
use crate::error::{CfdError, CfdResult};
use crate::pattern::Pattern;

/// Name of the pattern-id column in encoded tableaux.
pub const PATTERN_ID_COLUMN: &str = "__pat";

/// Encode `tableau` as a relation named `name`.
///
/// Columns: one per LHS attribute (in tableau order), one for the RHS
/// attribute, then [`PATTERN_ID_COLUMN`] holding the index of the source
/// CFD. Cell types are taken from `data_schema` when the attribute exists
/// there, defaulting to TEXT.
pub fn encode_tableau(name: &str, tableau: &Tableau, data_schema: &Schema) -> CfdResult<Table> {
    let mut cols: Vec<Column> = Vec::with_capacity(tableau.fd.lhs.len() + 2);
    for a in tableau
        .fd
        .lhs
        .iter()
        .chain(std::iter::once(&tableau.fd.rhs))
    {
        let dtype = data_schema
            .index_of(a)
            .map(|i| data_schema.column(i).dtype)
            .unwrap_or(DataType::Str);
        cols.push(Column::new(a.clone(), dtype));
    }
    cols.push(Column::not_null(PATTERN_ID_COLUMN, DataType::Int));
    let schema = Schema::new(cols).map_err(|e| CfdError::Malformed(e.to_string()))?;
    let mut t = Table::new(name.to_string(), schema);
    for (lhs_pats, rhs_pat, cfd_idx) in &tableau.rows {
        let mut row: Vec<Value> = Vec::with_capacity(lhs_pats.len() + 2);
        for p in lhs_pats.iter().chain(std::iter::once(rhs_pat)) {
            match p {
                Pattern::Wild => row.push(Value::Null),
                Pattern::Const(v) => {
                    if v.is_null() {
                        return Err(CfdError::Malformed(
                            "NULL constant in pattern tableau".into(),
                        ));
                    }
                    row.push(v.clone());
                }
            }
        }
        row.push(Value::Int(*cfd_idx as i64));
        t.insert(row)
            .map_err(|e| CfdError::Malformed(e.to_string()))?;
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::group_into_tableaux;
    use crate::parse::parse_cfds;
    use minidb::RowId;

    fn customer_schema() -> Schema {
        Schema::of_strings(&["NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"])
    }

    #[test]
    fn encodes_wildcards_as_null_and_constants_verbatim() {
        let cfds = parse_cfds(
            "customer: [CC=_] -> [CNT=_]\n\
             customer: [CC='44'] -> [CNT='UK']",
        )
        .unwrap();
        let ts = group_into_tableaux(&cfds);
        assert_eq!(ts.len(), 1);
        let t = encode_tableau("tab0", &ts[0], &customer_schema()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.schema().names(), vec!["cc", "cnt", "__pat"]);
        let r0 = t.get(RowId(0)).unwrap();
        assert!(r0[0].is_null() && r0[1].is_null());
        assert_eq!(r0[2], Value::Int(0));
        let r1 = t.get(RowId(1)).unwrap();
        assert_eq!(r1[0], Value::str("44"));
        assert_eq!(r1[1], Value::str("UK"));
        assert_eq!(r1[2], Value::Int(1));
    }

    #[test]
    fn pattern_id_points_into_original_slice() {
        let cfds = parse_cfds(
            "customer: [CNT, ZIP] -> [CITY]\n\
             customer: [CC='44'] -> [CNT='UK']\n\
             customer: [CNT='US', ZIP=_] -> [CITY=_]",
        )
        .unwrap();
        let ts = group_into_tableaux(&cfds);
        let city = ts.iter().find(|t| t.fd.rhs == "city").unwrap();
        let enc = encode_tableau("x", city, &customer_schema()).unwrap();
        let pat_col = enc.schema().require(PATTERN_ID_COLUMN).unwrap();
        let ids: Vec<i64> = enc
            .iter()
            .map(|(_, r)| r[pat_col].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![0, 2]);
    }
}
