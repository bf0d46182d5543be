//! The `Database`: catalog + statement execution.

use std::collections::HashMap;

use crate::error::{DbError, DbResult};
use crate::exec::{eval, execute_plan, QueryResult, TableSource};
use crate::plan::{plan_select, CatalogView, PhysExpr, PlannedQuery};
use crate::schema::{Column, Schema};
use crate::sql::ast::{InsertSource, SelectStmt, Statement};
use crate::sql::parser::{parse_script, parse_statement};
use crate::table::{RowId, Table};
use crate::value::{DataType, Value};

/// Outcome of executing one SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// A query produced rows.
    Rows(QueryResult),
    /// A DML/DDL statement affected this many rows (0 for DDL).
    Affected(usize),
}

impl ExecOutcome {
    /// Unwrap the row set, panicking on DML outcomes (test helper).
    pub fn rows(self) -> QueryResult {
        match self {
            ExecOutcome::Rows(r) => r,
            ExecOutcome::Affected(n) => panic!("expected rows, got Affected({n})"),
        }
    }
}

/// An in-memory relational database: named tables.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: HashMap<String, Table>, // keyed by lower-cased name
}

fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    // ------------------------------------------------------------ catalog

    /// Create a table; errors if the name is taken.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> DbResult<()> {
        let name = name.into();
        let k = key(&name);
        if self.tables.contains_key(&k) {
            return Err(DbError::TableExists(name));
        }
        self.tables.insert(k, Table::new(name, schema));
        Ok(())
    }

    /// Register an already-built table (used for tableau encodings and
    /// materialized query results). Replaces any existing table of the name.
    pub fn register_table(&mut self, table: Table) {
        self.tables.insert(key(table.name()), table);
    }

    /// Drop a table.
    pub fn drop_table(&mut self, name: &str) -> DbResult<()> {
        if self.tables.remove(&key(name)).is_none() {
            return Err(DbError::UnknownTable(name.to_string()));
        }
        Ok(())
    }

    /// Get a table by name.
    pub fn table(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(&key(name))
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Get a table mutably.
    pub fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        self.tables
            .get_mut(&key(name))
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.values().map(|t| t.name().to_string()).collect();
        names.sort();
        names
    }

    /// True if the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&key(name))
    }

    /// The mutation epoch of a table (see [`Table::epoch`]) — the freshness
    /// probe snapshot caches key on.
    pub fn table_epoch(&self, name: &str) -> DbResult<u64> {
        Ok(self.table(name)?.epoch())
    }

    // ----------------------------------------------------------- writes

    /// Insert a row; returns the new row id.
    pub fn insert_row(&mut self, table: &str, row: Vec<Value>) -> DbResult<RowId> {
        self.table_mut(table)?.insert(row)
    }

    /// Delete a row; returns the old values.
    pub fn delete_row(&mut self, table: &str, id: RowId) -> DbResult<Vec<Value>> {
        self.table_mut(table)?.delete(id)
    }

    /// Update a single cell; returns the old value.
    pub fn update_cell(
        &mut self,
        table: &str,
        id: RowId,
        col: usize,
        value: Value,
    ) -> DbResult<Value> {
        let t = self.table_mut(table)?;
        // A dead row id is reported before the value is checked.
        t.get(id)?;
        t.update_cell(id, col, value)
    }

    // --------------------------------------------------------------- SQL

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> DbResult<ExecOutcome> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Execute a `;`-separated script; returns the outcome of each statement.
    pub fn execute_script(&mut self, sql: &str) -> DbResult<Vec<ExecOutcome>> {
        let stmts = parse_script(sql)?;
        stmts.iter().map(|s| self.execute_statement(s)).collect()
    }

    /// Run a `SELECT` and return its rows (errors on non-queries).
    pub fn query(&self, sql: &str) -> DbResult<QueryResult> {
        let stmt = parse_statement(sql)?;
        match stmt {
            Statement::Select(sel) => self.run_select(&sel),
            _ => Err(DbError::Plan("expected a SELECT statement".into())),
        }
    }

    /// Plan a `SELECT` (for inspection / EXPLAIN).
    pub fn plan(&self, sql: &str) -> DbResult<PlannedQuery> {
        let stmt = parse_statement(sql)?;
        match stmt {
            Statement::Select(sel) => plan_select(&CatalogAdapter(self), &sel),
            _ => Err(DbError::Plan("expected a SELECT statement".into())),
        }
    }

    fn run_select(&self, sel: &SelectStmt) -> DbResult<QueryResult> {
        let planned = plan_select(&CatalogAdapter(self), sel)?;
        let rows = execute_plan(&SourceAdapter(self), &planned.plan)?;
        Ok(QueryResult {
            columns: planned.columns,
            rows,
        })
    }

    fn execute_statement(&mut self, stmt: &Statement) -> DbResult<ExecOutcome> {
        match stmt {
            Statement::Select(sel) => Ok(ExecOutcome::Rows(self.run_select(sel)?)),
            Statement::CreateTable(ct) => {
                if ct.if_not_exists && self.has_table(&ct.name) {
                    return Ok(ExecOutcome::Affected(0));
                }
                let cols = ct
                    .columns
                    .iter()
                    .map(|(n, dt, not_null)| {
                        if *not_null {
                            Column::not_null(n.clone(), *dt)
                        } else {
                            Column::new(n.clone(), *dt)
                        }
                    })
                    .collect();
                self.create_table(ct.name.clone(), Schema::new(cols)?)?;
                Ok(ExecOutcome::Affected(0))
            }
            Statement::DropTable { name, if_exists } => {
                if *if_exists && !self.has_table(name) {
                    return Ok(ExecOutcome::Affected(0));
                }
                self.drop_table(name)?;
                Ok(ExecOutcome::Affected(0))
            }
            Statement::Insert(ins) => {
                let target_schema = self.table(&ins.table)?.schema().clone();
                // Map provided columns to schema positions.
                let positions: Vec<usize> = match &ins.columns {
                    Some(cols) => cols
                        .iter()
                        .map(|c| target_schema.require(c))
                        .collect::<DbResult<_>>()?,
                    None => (0..target_schema.arity()).collect(),
                };
                let source_rows: Vec<Vec<Value>> = match &ins.source {
                    InsertSource::Values(rows) => {
                        let mut out = Vec::with_capacity(rows.len());
                        for exprs in rows {
                            let mut row = Vec::with_capacity(exprs.len());
                            for e in exprs {
                                // VALUES expressions must be constant.
                                let phys = constant_phys(e)?;
                                row.push(eval(&phys, &[])?);
                            }
                            out.push(row);
                        }
                        out
                    }
                    InsertSource::Query(sel) => self.run_select(sel)?.rows,
                };
                let mut n = 0;
                for src_row in source_rows {
                    if src_row.len() != positions.len() {
                        return Err(DbError::Constraint(format!(
                            "INSERT provides {} values for {} columns",
                            src_row.len(),
                            positions.len()
                        )));
                    }
                    let mut full = vec![Value::Null; target_schema.arity()];
                    for (pos, v) in positions.iter().zip(src_row) {
                        full[*pos] = v;
                    }
                    self.insert_row(&ins.table, full)?;
                    n += 1;
                }
                Ok(ExecOutcome::Affected(n))
            }
            Statement::Update(up) => {
                let t = self.table(&up.table)?;
                let schema = t.schema().clone();
                let scope = table_scope(&up.table, &schema);
                let assignments: Vec<(usize, PhysExpr)> = up
                    .assignments
                    .iter()
                    .map(|(c, e)| {
                        let col = schema.require(c)?;
                        let phys = resolve_over(e, &scope)?;
                        Ok((col, phys))
                    })
                    .collect::<DbResult<_>>()?;
                let pred = match &up.where_clause {
                    Some(w) => Some(resolve_over(w, &scope)?),
                    None => None,
                };
                // Two passes: evaluate against a snapshot, then apply.
                let mut updates: Vec<(RowId, Vec<(usize, Value)>)> = Vec::new();
                for (id, row) in t.iter() {
                    let mut ext: Vec<Value> = row.to_vec();
                    ext.push(Value::Int(id.0 as i64));
                    let hit = match &pred {
                        Some(p) => eval(p, &ext)?.as_bool() == Some(true),
                        None => true,
                    };
                    if hit {
                        let mut cells = Vec::with_capacity(assignments.len());
                        for (col, e) in &assignments {
                            cells.push((*col, eval(e, &ext)?));
                        }
                        updates.push((id, cells));
                    }
                }
                let n = updates.len();
                for (id, cells) in updates {
                    for (col, v) in cells {
                        self.update_cell(&up.table, id, col, v)?;
                    }
                }
                Ok(ExecOutcome::Affected(n))
            }
            Statement::Delete(del) => {
                let t = self.table(&del.table)?;
                let schema = t.schema().clone();
                let scope = table_scope(&del.table, &schema);
                let pred = match &del.where_clause {
                    Some(w) => Some(resolve_over(w, &scope)?),
                    None => None,
                };
                let mut doomed = Vec::new();
                for (id, row) in t.iter() {
                    let mut ext: Vec<Value> = row.to_vec();
                    ext.push(Value::Int(id.0 as i64));
                    let hit = match &pred {
                        Some(p) => eval(p, &ext)?.as_bool() == Some(true),
                        None => true,
                    };
                    if hit {
                        doomed.push(id);
                    }
                }
                let n = doomed.len();
                for id in doomed {
                    self.delete_row(&del.table, id)?;
                }
                Ok(ExecOutcome::Affected(n))
            }
        }
    }

    /// Materialize a query result as a table named `name` (replacing any
    /// previous table of that name). Column types are inferred from the
    /// first non-null value of each column; all-null columns become TEXT.
    pub fn materialize(&mut self, name: &str, result: &QueryResult) -> DbResult<()> {
        let mut cols = Vec::with_capacity(result.columns.len());
        for (i, cname) in result.columns.iter().enumerate() {
            let dtype = result
                .rows
                .iter()
                .find_map(|r| r[i].data_type())
                .unwrap_or(DataType::Str);
            cols.push(Column::new(cname.clone(), dtype));
        }
        let schema = Schema::new(cols)?;
        let mut t = Table::new(name.to_string(), schema);
        for row in &result.rows {
            t.insert(row.clone())?;
        }
        self.register_table(t);
        Ok(())
    }
}

fn table_scope(table: &str, schema: &Schema) -> crate::plan::Scope {
    use crate::plan::{Scope, ScopeCol, ROWID_COLUMN};
    let alias = table.to_ascii_lowercase();
    let mut cols: Vec<ScopeCol> = schema
        .columns()
        .iter()
        .map(|c| ScopeCol {
            alias: alias.clone(),
            name: c.name.clone(),
            hidden: false,
        })
        .collect();
    cols.push(ScopeCol {
        alias,
        name: ROWID_COLUMN.to_string(),
        hidden: true,
    });
    Scope { cols }
}

fn resolve_over(expr: &crate::sql::ast::Expr, scope: &crate::plan::Scope) -> DbResult<PhysExpr> {
    crate::plan::resolve_standalone(expr, scope)
}

fn constant_phys(expr: &crate::sql::ast::Expr) -> DbResult<PhysExpr> {
    let empty = crate::plan::Scope::default();
    crate::plan::resolve_standalone(expr, &empty)
        .map_err(|_| DbError::Plan("INSERT VALUES must be constant expressions".into()))
}

struct CatalogAdapter<'a>(&'a Database);

impl CatalogView for CatalogAdapter<'_> {
    fn table_columns(&self, table: &str) -> Option<Vec<String>> {
        self.0
            .tables
            .get(&key(table))
            .map(|t| t.schema().names().iter().map(|s| s.to_string()).collect())
    }
}

struct SourceAdapter<'a>(&'a Database);

impl TableSource for SourceAdapter<'_> {
    fn table(&self, name: &str) -> DbResult<&Table> {
        self.0.table(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE customer (name TEXT, cnt TEXT, city TEXT, zip TEXT)")
            .unwrap();
        db.execute(
            "INSERT INTO customer VALUES \
             ('mike', 'UK', 'EDI', 'EH4 1DT'), \
             ('rick', 'UK', 'LDN', 'EH4 1DT'), \
             ('joe',  'US', 'NYC', '01202'),  \
             ('jim',  'US', 'NYC', '01202'),  \
             ('ben',  'US', 'PHI', '01202')",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_star_and_where() {
        let db = db();
        let r = db.query("SELECT * FROM customer WHERE cnt = 'UK'").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.columns, vec!["name", "cnt", "city", "zip"]);
    }

    #[test]
    fn rowid_is_stable_and_selectable() {
        let db = db();
        let r = db
            .query("SELECT __rowid, name FROM customer ORDER BY __rowid")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert_eq!(r.rows[4][0], Value::Int(4));
    }

    #[test]
    fn group_by_having_count_distinct() {
        let db = db();
        // Which (cnt, zip) groups have more than one distinct city? (a
        // multi-tuple FD violation pattern)
        let r = db
            .query(
                "SELECT cnt, zip, COUNT(DISTINCT city) AS n FROM customer \
                 GROUP BY cnt, zip HAVING COUNT(DISTINCT city) > 1 ORDER BY cnt",
            )
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0, "cnt").unwrap(), &Value::str("UK"));
        assert_eq!(r.get(0, "n").unwrap(), &Value::Int(2));
        assert_eq!(r.get(1, "cnt").unwrap(), &Value::str("US"));
        assert_eq!(r.get(1, "n").unwrap(), &Value::Int(2));
    }

    #[test]
    fn join_on_complex_predicate_with_null_wildcards() {
        let mut db = db();
        db.execute("CREATE TABLE tab (cnt TEXT, zip TEXT)").unwrap();
        // NULL plays the wildcard role in the tableau encoding.
        db.execute("INSERT INTO tab VALUES ('UK', NULL)").unwrap();
        let r = db
            .query(
                "SELECT c.name FROM customer c JOIN tab p \
                 ON (p.cnt IS NULL OR c.cnt = p.cnt) AND (p.zip IS NULL OR c.zip = p.zip) \
                 ORDER BY c.name",
            )
            .unwrap();
        let names: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["mike", "rick"]);
    }

    #[test]
    fn left_join_pads_with_nulls() {
        let mut db = db();
        db.execute("CREATE TABLE cc (cnt TEXT, code TEXT)").unwrap();
        db.execute("INSERT INTO cc VALUES ('UK', '44')").unwrap();
        let r = db
            .query(
                "SELECT c.name, x.code FROM customer c LEFT JOIN cc x ON c.cnt = x.cnt \
                 ORDER BY c.name",
            )
            .unwrap();
        assert_eq!(r.len(), 5);
        let ben = r
            .rows
            .iter()
            .find(|row| row[0] == Value::str("ben"))
            .unwrap();
        assert!(ben[1].is_null());
    }

    #[test]
    fn update_and_delete_with_where() {
        let mut db = db();
        let n = db
            .execute("UPDATE customer SET city = 'BOS' WHERE zip = '01202'")
            .unwrap();
        assert_eq!(n, ExecOutcome::Affected(3));
        let r = db
            .query("SELECT COUNT(*) AS n FROM customer WHERE city = 'BOS'")
            .unwrap();
        assert_eq!(r.get(0, "n").unwrap(), &Value::Int(3));
        let n = db.execute("DELETE FROM customer WHERE cnt = 'UK'").unwrap();
        assert_eq!(n, ExecOutcome::Affected(2));
        assert_eq!(db.table("customer").unwrap().len(), 3);
    }

    #[test]
    fn sql_statements_advance_the_table_epoch() {
        let mut db = db();
        let e0 = db.table_epoch("customer").unwrap();
        db.execute("UPDATE customer SET city = 'BOS' WHERE zip = '01202'")
            .unwrap();
        let e1 = db.table_epoch("customer").unwrap();
        assert_eq!(e1, e0 + 3, "one epoch bump per updated row");
        db.execute("DELETE FROM customer WHERE cnt = 'UK'").unwrap();
        assert_eq!(db.table_epoch("customer").unwrap(), e1 + 2);
        // Reads leave the epoch alone.
        db.query("SELECT * FROM customer").unwrap();
        assert_eq!(db.table_epoch("customer").unwrap(), e1 + 2);
    }

    #[test]
    fn insert_select_roundtrip() {
        let mut db = db();
        db.execute("CREATE TABLE uk (name TEXT, cnt TEXT, city TEXT, zip TEXT)")
            .unwrap();
        let n = db
            .execute("INSERT INTO uk SELECT * FROM customer WHERE cnt = 'UK'")
            .unwrap();
        assert_eq!(n, ExecOutcome::Affected(2));
        assert_eq!(db.table("uk").unwrap().len(), 2);
    }

    #[test]
    fn distinct_order_limit_offset() {
        let db = db();
        let r = db
            .query("SELECT DISTINCT cnt FROM customer ORDER BY cnt LIMIT 1 OFFSET 1")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("US")]]);
    }

    #[test]
    fn materialize_registers_queryable_table() {
        let mut db = db();
        let r = db
            .query("SELECT cnt, COUNT(*) AS n FROM customer GROUP BY cnt")
            .unwrap();
        db.materialize("per_cnt", &r).unwrap();
        let r2 = db.query("SELECT n FROM per_cnt WHERE cnt = 'US'").unwrap();
        assert_eq!(r2.rows[0][0], Value::Int(3));
    }

    #[test]
    fn aggregates_without_group_by() {
        let db = db();
        let r = db
            .query("SELECT COUNT(*) AS n, MIN(name) AS lo, MAX(name) AS hi FROM customer")
            .unwrap();
        assert_eq!(r.get(0, "n").unwrap(), &Value::Int(5));
        assert_eq!(r.get(0, "lo").unwrap(), &Value::str("ben"));
        assert_eq!(r.get(0, "hi").unwrap(), &Value::str("rick"));
    }

    #[test]
    fn self_join_via_where_equi_conditions() {
        let db = db();
        // Pairs of distinct tuples agreeing on (cnt, zip) but not city:
        // the textbook FD-violation query.
        let r = db
            .query(
                "SELECT a.name, b.name FROM customer a, customer b \
                 WHERE a.cnt = b.cnt AND a.zip = b.zip AND a.city <> b.city",
            )
            .unwrap();
        // (mike, rick) x2 and (joe/jim vs ben) x4
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn script_execution() {
        let mut db = Database::new();
        let out = db
            .execute_script(
                "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2); SELECT COUNT(*) FROM t",
            )
            .unwrap();
        assert_eq!(out.len(), 3);
        let ExecOutcome::Rows(r) = &out[2] else {
            panic!()
        };
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    #[test]
    fn if_exists_variants_do_not_error() {
        let mut db = Database::new();
        db.execute("DROP TABLE IF EXISTS nope").unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("CREATE TABLE IF NOT EXISTS t (a INT)").unwrap();
    }

    #[test]
    fn not_null_constraint_enforced_via_sql() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT NOT NULL)").unwrap();
        assert!(db.execute("INSERT INTO t VALUES (NULL)").is_err());
    }
}
