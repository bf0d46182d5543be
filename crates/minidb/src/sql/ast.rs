//! Abstract syntax for the supported SQL subset.

use crate::value::{DataType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Statement {
    /// `SELECT ...`
    Select(SelectStmt),
    /// `INSERT INTO t [(cols)] VALUES (...), ... | SELECT ...`
    Insert(InsertStmt),
    /// `UPDATE t SET c = e, ... [WHERE p]`
    Update(UpdateStmt),
    /// `DELETE FROM t [WHERE p]`
    Delete(DeleteStmt),
    /// `CREATE TABLE [IF NOT EXISTS] t (col type [NOT NULL], ...)`
    CreateTable(CreateTableStmt),
    /// `DROP TABLE [IF EXISTS] t`
    DropTable { name: String, if_exists: bool },
}

/// A `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub projections: Vec<SelectItem>,
    /// `FROM` clause: first table plus joins (comma joins become cross joins).
    pub from: Vec<FromItem>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT`.
    pub limit: Option<usize>,
    /// `OFFSET`.
    pub offset: Option<usize>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A `FROM` entry: a base table with an optional alias and how it joins the
/// tables to its left.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    /// Table name.
    pub table: String,
    /// Optional alias.
    pub alias: Option<String>,
    /// How this item combines with everything before it.
    pub join: JoinSpec,
}

/// Join specification.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum JoinSpec {
    /// First `FROM` entry.
    Leading,
    /// Comma or `CROSS JOIN`.
    Cross,
    /// `[INNER] JOIN ... ON p`.
    Inner(Expr),
    /// `LEFT [OUTER] JOIN ... ON p`.
    Left(Expr),
}

/// `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Key expression (may be an output alias or 1-based position).
    pub expr: Expr,
    /// Ascending?
    pub asc: bool,
}

/// `INSERT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    /// Target table.
    pub table: String,
    /// Optional explicit column list.
    pub columns: Option<Vec<String>>,
    /// Source of rows.
    pub source: InsertSource,
}

/// Rows for an `INSERT`.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum InsertSource {
    /// `VALUES (...), (...)` — expressions must be constant.
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO ... SELECT ...`
    Query(Box<SelectStmt>),
}

/// `UPDATE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `SET col = expr` assignments.
    pub assignments: Vec<(String, Expr)>,
    /// Optional predicate.
    pub where_clause: Option<Expr>,
}

/// `DELETE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// Optional predicate.
    pub where_clause: Option<Expr>,
}

/// `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTableStmt {
    /// Table name.
    pub name: String,
    /// Column definitions `(name, type, not_null)`.
    pub columns: Vec<(String, DataType, bool)>,
    /// `IF NOT EXISTS`?
    pub if_not_exists: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    And,
    Or,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// Null-safe equality: `IS NOT DISTINCT FROM`.
    NullSafeEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Not,
    Neg,
}

/// Scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ScalarFn {
    Coalesce,
    Upper,
    Lower,
    Length,
    Abs,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AggFn {
    /// `COUNT(*)` (arg is `None`) or `COUNT(expr)`.
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference, optionally qualified.
    Column {
        /// Table or alias qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Unary operator application.
    Unary { op: UnOp, expr: Box<Expr> },
    /// Binary operator application.
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] IN (e1, ..., en)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (pattern is an expression, usually literal).
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi`.
    Between {
        expr: Box<Expr>,
        lo: Box<Expr>,
        hi: Box<Expr>,
        negated: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// Scalar function call.
    Func { func: ScalarFn, args: Vec<Expr> },
    /// Aggregate call; `distinct` only meaningful for COUNT/SUM/AVG.
    Aggregate {
        func: AggFn,
        /// `None` means `COUNT(*)`.
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
}

impl Expr {
    /// Unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    /// Qualified column reference.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            table: Some(table.into()),
            name: name.into(),
        }
    }

    /// Literal expression.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `left op right`.
    pub fn bin(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Does this expression (sub)tree contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Literal(_) | Expr::Column { .. } => false,
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.contains_aggregate() || lo.contains_aggregate() || hi.contains_aggregate()
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                operand.as_deref().is_some_and(Expr::contains_aggregate)
                    || branches
                        .iter()
                        .any(|(w, t)| w.contains_aggregate() || t.contains_aggregate())
                    || else_expr.as_deref().is_some_and(Expr::contains_aggregate)
            }
            Expr::Func { args, .. } => args.iter().any(Expr::contains_aggregate),
        }
    }
}
