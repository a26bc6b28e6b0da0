//! Expression AST and evaluation.
//!
//! Expressions evaluate one row at a time: [`Expr::eval`] returns an owned
//! [`Value`], [`Expr::eval_ref`] borrows the literals and cells it reads.
//! AND/OR evaluate their right operand only when the left one has not
//! decided the result, so `FALSE AND 1 / 0` does not error, and an IN list
//! stops at its first match.

use std::borrow::Cow;
use std::fmt;

use crate::error::SqlError;
use crate::schema::Schema;
use crate::value::Value;

/// Binary operators, loosest first when displayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `OR`
    Or,
    /// `AND`
    And,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

impl BinOp {
    /// SQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::Neq => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A (possibly qualified) column reference.
    Column {
        /// Table qualifier, lowercase.
        table: Option<String>,
        /// Column name, lowercase.
        name: String,
    },
    /// `left op right`.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `op expr`.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Function call — scalar (`UPPER`, `ABS`, …) or aggregate
    /// (`COUNT`, `SUM`, …). Aggregates are split out by the planner.
    Function {
        /// Uppercased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// NOT form?
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// Operand.
        expr: Box<Expr>,
        /// Pattern literal/expression.
        pattern: Box<Expr>,
        /// NOT form?
        negated: bool,
    },
    /// `expr [NOT] IN (v, …)`.
    InList {
        /// Operand.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// NOT form?
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Operand.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// NOT form?
        negated: bool,
    },
    /// `*` — only valid in `COUNT(*)` and as a projection.
    Wildcard,
}

/// Aggregate function names the engine recognises.
pub const AGGREGATE_FUNCTIONS: &[&str] = &["COUNT", "COUNT_DISTINCT", "SUM", "AVG", "MIN", "MAX"];

impl Expr {
    /// Convenience constructors.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            table: None,
            name: name.to_lowercase(),
        }
    }

    /// Qualified column reference.
    pub fn qcol(table: &str, name: &str) -> Expr {
        Expr::Column {
            table: Some(table.to_lowercase()),
            name: name.to_lowercase(),
        }
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Binary helper.
    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Does this subtree contain an aggregate function call?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, args } => {
                AGGREGATE_FUNCTIONS.contains(&name.as_str())
                    || args.iter().any(Expr::contains_aggregate)
            }
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            _ => false,
        }
    }

    /// The AND-ed factors of this expression, left to right (just the
    /// expression itself when it is not an `AND`).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary {
                    left,
                    op: BinOp::And,
                    right,
                } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Every column referenced by this subtree, as `(table, name)` pairs.
    pub fn referenced_columns(&self, out: &mut Vec<(Option<String>, String)>) {
        match self {
            Expr::Column { table, name } => out.push((table.clone(), name.clone())),
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.referenced_columns(out),
            Expr::Function { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                expr.referenced_columns(out);
                pattern.referenced_columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.referenced_columns(out);
                for e in list {
                    e.referenced_columns(out);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.referenced_columns(out);
                low.referenced_columns(out);
                high.referenced_columns(out);
            }
            Expr::Literal(_) | Expr::Wildcard => {}
        }
    }

    /// Evaluate against a row. Aggregate calls are an error here — the
    /// planner must have rewritten them into column references first.
    pub fn eval(&self, row: &[Value], schema: &Schema) -> Result<Value, SqlError> {
        self.eval_ref(row, schema).map(Cow::into_owned)
    }

    /// [`Expr::eval`] that borrows the literals and cells it reads instead
    /// of cloning them, so a filter such as `category = 'Books'` allocates
    /// nothing per row.
    pub fn eval_ref<'a>(
        &'a self,
        row: &'a [Value],
        schema: &Schema,
    ) -> Result<Cow<'a, Value>, SqlError> {
        let v = match self {
            Expr::Literal(v) => return Ok(Cow::Borrowed(v)),
            Expr::Column { table, name } => {
                return Ok(Cow::Borrowed(&row[schema.resolve(table.as_deref(), name)?]))
            }
            Expr::Binary { left, op, right } => {
                eval_binary(&*left.eval_ref(row, schema)?, *op, || right.eval_ref(row, schema))?
            }
            Expr::Unary { op, expr } => match (op, expr.eval_ref(row, schema)?.as_ref()) {
                (UnOp::Neg, Value::Int(i)) => Value::Int(-i),
                (UnOp::Neg, Value::Float(f)) => Value::Float(-f),
                (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                (_, Value::Null) => Value::Null,
                (UnOp::Neg, other) => {
                    return Err(SqlError::Execution(format!("cannot negate {other:?}")))
                }
                (UnOp::Not, other) => {
                    return Err(SqlError::Execution(format!("cannot NOT {other:?}")))
                }
            },
            Expr::Function { name, args } => {
                if AGGREGATE_FUNCTIONS.contains(&name.as_str()) {
                    return Err(SqlError::Plan(format!(
                        "aggregate {name} not allowed in this context"
                    )));
                }
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval(row, schema))
                    .collect::<Result<_, _>>()?;
                eval_scalar_function(name, &vals)?
            }
            Expr::IsNull { expr, negated } => {
                Value::Bool(expr.eval_ref(row, schema)?.is_null() != *negated)
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval_ref(row, schema)?;
                let p = pattern.eval_ref(row, schema)?;
                match (v.as_ref(), p.as_ref()) {
                    (Value::Null, _) | (_, Value::Null) => Value::Null,
                    (Value::Text(s), Value::Text(pat)) => {
                        Value::Bool(like_match(s, pat) != *negated)
                    }
                    _ => return Err(SqlError::Execution("LIKE requires text operands".into())),
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_ref(row, schema)?;
                if v.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval_ref(row, schema)?;
                    if iv.is_null() {
                        saw_null = true;
                        continue;
                    }
                    if v.group_eq(&iv) {
                        return Ok(Cow::Owned(Value::Bool(!*negated)));
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval_ref(row, schema)?;
                let lo = low.eval_ref(row, schema)?;
                let hi = high.eval_ref(row, schema)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        let inside = a != std::cmp::Ordering::Less
                            && b != std::cmp::Ordering::Greater;
                        Value::Bool(inside != *negated)
                    }
                    _ => Value::Null,
                }
            }
            Expr::Wildcard => return Err(SqlError::Plan("`*` is not a value expression".into())),
        };
        Ok(Cow::Owned(v))
    }
}

/// Evaluate a binary operation with SQL NULL semantics and short-circuiting
/// AND/OR. `right` is lazy so `false AND err()` does not error.
fn eval_binary<'a>(
    left: &Value,
    op: BinOp,
    right: impl FnOnce() -> Result<Cow<'a, Value>, SqlError>,
) -> Result<Value, SqlError> {
    use std::cmp::Ordering;
    match op {
        BinOp::And => match left {
            Value::Bool(false) => Ok(Value::Bool(false)),
            Value::Bool(true) => match right()?.as_ref() {
                Value::Bool(b) => Ok(Value::Bool(*b)),
                Value::Null => Ok(Value::Null),
                other => Err(SqlError::Execution(format!("AND with {other:?}"))),
            },
            Value::Null => match right()?.as_ref() {
                Value::Bool(false) => Ok(Value::Bool(false)),
                Value::Bool(true) | Value::Null => Ok(Value::Null),
                other => Err(SqlError::Execution(format!("AND with {other:?}"))),
            },
            other => Err(SqlError::Execution(format!("AND with {other:?}"))),
        },
        BinOp::Or => match left {
            Value::Bool(true) => Ok(Value::Bool(true)),
            Value::Bool(false) => match right()?.as_ref() {
                Value::Bool(b) => Ok(Value::Bool(*b)),
                Value::Null => Ok(Value::Null),
                other => Err(SqlError::Execution(format!("OR with {other:?}"))),
            },
            Value::Null => match right()?.as_ref() {
                Value::Bool(true) => Ok(Value::Bool(true)),
                Value::Bool(false) | Value::Null => Ok(Value::Null),
                other => Err(SqlError::Execution(format!("OR with {other:?}"))),
            },
            other => Err(SqlError::Execution(format!("OR with {other:?}"))),
        },
        BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let right = right()?;
            let right = right.as_ref();
            if left.is_null() || right.is_null() {
                return Ok(Value::Null);
            }
            let ord = left.sql_cmp(right).ok_or_else(|| {
                SqlError::Execution(format!(
                    "cannot compare {:?} with {:?}",
                    left.data_type(),
                    right.data_type()
                ))
            })?;
            let b = match op {
                BinOp::Eq => ord == Ordering::Equal,
                BinOp::Neq => ord != Ordering::Equal,
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let right = right()?;
            let right = right.as_ref();
            if left.is_null() || right.is_null() {
                return Ok(Value::Null);
            }
            // String concatenation via `+` (convenient for Text-to-SQL output).
            if let (Value::Text(a), Value::Text(b), BinOp::Add) = (left, right, op) {
                return Ok(Value::Text(format!("{a}{b}")));
            }
            match (left.as_i64(), right.as_i64()) {
                (Some(a), Some(b)) => match op {
                    BinOp::Add => Ok(Value::Int(a.wrapping_add(b))),
                    BinOp::Sub => Ok(Value::Int(a.wrapping_sub(b))),
                    BinOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
                    BinOp::Div => {
                        if b == 0 {
                            Err(SqlError::Execution("division by zero".into()))
                        } else {
                            Ok(Value::Int(a / b))
                        }
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            Err(SqlError::Execution("division by zero".into()))
                        } else {
                            Ok(Value::Int(a % b))
                        }
                    }
                    _ => unreachable!(),
                },
                _ => {
                    let a = left.as_f64().ok_or_else(|| {
                        SqlError::Execution(format!("arithmetic on {left:?}"))
                    })?;
                    let b = right.as_f64().ok_or_else(|| {
                        SqlError::Execution(format!("arithmetic on {right:?}"))
                    })?;
                    match op {
                        BinOp::Add => Ok(Value::Float(a + b)),
                        BinOp::Sub => Ok(Value::Float(a - b)),
                        BinOp::Mul => Ok(Value::Float(a * b)),
                        BinOp::Div => {
                            if b == 0.0 {
                                Err(SqlError::Execution("division by zero".into()))
                            } else {
                                Ok(Value::Float(a / b))
                            }
                        }
                        BinOp::Mod => {
                            if b == 0.0 {
                                Err(SqlError::Execution("division by zero".into()))
                            } else {
                                Ok(Value::Float(a % b))
                            }
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
    }
}

/// Evaluate a scalar function.
pub fn eval_scalar_function(name: &str, args: &[Value]) -> Result<Value, SqlError> {
    let arity_err = |want: &str| {
        Err(SqlError::Execution(format!(
            "{name} expects {want} argument(s), got {}",
            args.len()
        )))
    };
    match name {
        "ABS" => match args {
            [Value::Int(i)] => Ok(Value::Int(i.abs())),
            [Value::Float(f)] => Ok(Value::Float(f.abs())),
            [Value::Null] => Ok(Value::Null),
            [_] => Err(SqlError::Execution("ABS requires a number".into())),
            _ => arity_err("1"),
        },
        "UPPER" => match args {
            [Value::Text(s)] => Ok(Value::Text(s.to_uppercase())),
            [Value::Null] => Ok(Value::Null),
            [_] => Err(SqlError::Execution("UPPER requires text".into())),
            _ => arity_err("1"),
        },
        "LOWER" => match args {
            [Value::Text(s)] => Ok(Value::Text(s.to_lowercase())),
            [Value::Null] => Ok(Value::Null),
            [_] => Err(SqlError::Execution("LOWER requires text".into())),
            _ => arity_err("1"),
        },
        "LENGTH" => match args {
            [Value::Text(s)] => Ok(Value::Int(s.chars().count() as i64)),
            [Value::Null] => Ok(Value::Null),
            [_] => Err(SqlError::Execution("LENGTH requires text".into())),
            _ => arity_err("1"),
        },
        "ROUND" => match args {
            [v] => match v.as_f64() {
                Some(f) => Ok(Value::Float(f.round())),
                None if v.is_null() => Ok(Value::Null),
                None => Err(SqlError::Execution("ROUND requires a number".into())),
            },
            [v, Value::Int(d)] => match v.as_f64() {
                Some(f) => {
                    let m = 10f64.powi(*d as i32);
                    Ok(Value::Float((f * m).round() / m))
                }
                None if v.is_null() => Ok(Value::Null),
                None => Err(SqlError::Execution("ROUND requires a number".into())),
            },
            _ => arity_err("1 or 2"),
        },
        "COALESCE" => {
            for v in args {
                if !v.is_null() {
                    return Ok(v.clone());
                }
            }
            Ok(Value::Null)
        }
        "SUBSTR" | "SUBSTRING" => match args {
            [Value::Text(s), Value::Int(start)] => {
                let start = (*start - 1).max(0) as usize;
                Ok(Value::Text(s.chars().skip(start).collect()))
            }
            [Value::Text(s), Value::Int(start), Value::Int(len)] => {
                let start = (*start - 1).max(0) as usize;
                let len = (*len).max(0) as usize;
                Ok(Value::Text(s.chars().skip(start).take(len).collect()))
            }
            [Value::Null, ..] => Ok(Value::Null),
            _ => arity_err("2 or 3"),
        },
        other => Err(SqlError::Execution(format!("unknown function {other}"))),
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (any single char),
/// case-sensitive.
///
/// Iterative two-pointer matcher with single-`%` backtracking: on a
/// mismatch we re-anchor at the most recent `%`, consuming one more text
/// character. Only the last `%` ever needs revisiting, so the worst case
/// is O(n·m) — unlike the naive recursive matcher, which is exponential
/// on patterns like `%a%a%a%…` — and no per-call allocation is needed.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let mut t = s.chars();
    let mut p = pattern.chars();
    // Resume state for the last `%`: (pattern after the `%`, text position
    // the `%` started absorbing from).
    let mut star: Option<(std::str::Chars, std::str::Chars)> = None;
    loop {
        let mut p_next = p.clone();
        match p_next.next() {
            Some('%') => {
                star = Some((p_next.clone(), t.clone()));
                p = p_next;
                continue;
            }
            Some(pc) => {
                let mut t_next = t.clone();
                if let Some(tc) = t_next.next() {
                    if pc == '_' || pc == tc {
                        p = p_next;
                        t = t_next;
                        continue;
                    }
                }
            }
            None => {
                if t.clone().next().is_none() {
                    return true;
                }
            }
        }
        // Mismatch: let the last `%` absorb one more character and retry.
        match &mut star {
            Some((sp, st)) => {
                if st.next().is_none() {
                    return false;
                }
                t = st.clone();
                p = sp.clone();
            }
            None => return false,
        }
    }
}

/// Mirror a comparison operator so `scalar op col` becomes `col op' scalar`.
pub(crate) fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(Value::Text(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Column { table, name } => match table {
                Some(t) => write!(f, "{t}.{name}"),
                None => f.write_str(name),
            },
            Expr::Binary { left, op, right } => {
                write!(f, "({left} {} {right})", op.as_str())
            }
            Expr::Unary { op, expr } => match op {
                UnOp::Neg => write!(f, "(-{expr})"),
                UnOp::Not => write!(f, "(NOT {expr})"),
            },
            Expr::Function { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("))")
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Wildcard => f.write_str("*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::schema::Column;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
            Column::new("score", DataType::Float),
        ])
        .unwrap()
    }

    fn row() -> Row {
        Row::new(vec![
            Value::Int(7),
            Value::Text("alice".into()),
            Value::Float(3.5),
        ])
    }

    fn eval(e: &Expr) -> Value {
        e.eval(&row(), &schema()).unwrap()
    }

    #[test]
    fn column_lookup() {
        assert_eq!(eval(&Expr::col("id")), Value::Int(7));
        assert_eq!(eval(&Expr::col("NAME")), Value::Text("alice".into()));
    }

    #[test]
    fn arithmetic_int_and_float() {
        let e = Expr::binary(Expr::col("id"), BinOp::Add, Expr::lit(3i64));
        assert_eq!(eval(&e), Value::Int(10));
        let e = Expr::binary(Expr::col("score"), BinOp::Mul, Expr::lit(2i64));
        assert_eq!(eval(&e), Value::Float(7.0));
        let e = Expr::binary(Expr::lit(7i64), BinOp::Div, Expr::lit(2i64));
        assert_eq!(eval(&e), Value::Int(3));
        let e = Expr::binary(Expr::lit(7i64), BinOp::Mod, Expr::lit(4i64));
        assert_eq!(eval(&e), Value::Int(3));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = Expr::binary(Expr::lit(1i64), BinOp::Div, Expr::lit(0i64));
        assert!(e.eval(&row(), &schema()).is_err());
        let e = Expr::binary(Expr::lit(1.0), BinOp::Div, Expr::lit(0.0));
        assert!(e.eval(&row(), &schema()).is_err());
    }

    #[test]
    fn comparison_and_null_semantics() {
        let e = Expr::binary(Expr::col("id"), BinOp::Gt, Expr::lit(5i64));
        assert_eq!(eval(&e), Value::Bool(true));
        let e = Expr::binary(Expr::lit(Value::Null), BinOp::Eq, Expr::lit(1i64));
        assert_eq!(eval(&e), Value::Null);
    }

    #[test]
    fn and_or_short_circuit_and_three_valued() {
        // false AND <error> = false (short circuit).
        let err = Expr::binary(Expr::lit(1i64), BinOp::Div, Expr::lit(0i64));
        let e = Expr::binary(
            Expr::lit(false),
            BinOp::And,
            Expr::binary(err.clone(), BinOp::Eq, Expr::lit(1i64)),
        );
        assert_eq!(eval(&e), Value::Bool(false));
        // true OR <error> = true.
        let e = Expr::binary(
            Expr::lit(true),
            BinOp::Or,
            Expr::binary(err, BinOp::Eq, Expr::lit(1i64)),
        );
        assert_eq!(eval(&e), Value::Bool(true));
        // NULL AND false = false; NULL AND true = NULL.
        let null = Expr::lit(Value::Null);
        let null_bool = Expr::binary(null.clone(), BinOp::Eq, Expr::lit(1i64));
        let e = Expr::binary(null_bool.clone(), BinOp::And, Expr::lit(false));
        assert_eq!(eval(&e), Value::Bool(false));
        let e = Expr::binary(null_bool.clone(), BinOp::And, Expr::lit(true));
        assert_eq!(eval(&e), Value::Null);
        // NULL OR true = true.
        let e = Expr::binary(null_bool, BinOp::Or, Expr::lit(true));
        assert_eq!(eval(&e), Value::Bool(true));
    }

    #[test]
    fn like_matching() {
        assert!(like_match("alice", "a%"));
        assert!(like_match("alice", "%ice"));
        assert!(like_match("alice", "a_ice"));
        assert!(like_match("alice", "%li%"));
        assert!(!like_match("alice", "b%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
    }

    #[test]
    fn like_wildcard_combinations() {
        assert!(like_match("alice", "%"));
        assert!(like_match("alice", "%%%"));
        assert!(like_match("alice", "_____"));
        assert!(!like_match("alice", "______"));
        assert!(like_match("alice", "%_"));
        assert!(like_match("alice", "_%e"));
        assert!(!like_match("alice", "%x%"));
        assert!(like_match("", ""));
        assert!(!like_match("a", ""));
        // Unicode text is matched per character, not per byte.
        assert!(like_match("héllo", "h_llo"));
        assert!(like_match("héllo", "%é%"));
    }

    #[test]
    fn like_adversarial_patterns_stay_fast() {
        // Exponential blow-up cases for the old recursive matcher: a long
        // run of `a`s against stacked `%a` segments with a final mismatch.
        // The iterative matcher must answer (quickly) rather than hang.
        let text: String = "a".repeat(2000);
        let miss = format!("{}b", "%a".repeat(25));
        assert!(!like_match(&text, &miss));
        let hit = "%a".repeat(25);
        assert!(like_match(&text, &hit));
        // Many stars with single-char anchors.
        let pattern = format!("a%{}%a", "_%".repeat(20));
        assert!(like_match(&text, &pattern));
        // Backtracking must re-anchor correctly mid-pattern.
        assert!(like_match("abcabcabc", "%abc%abc"));
        assert!(!like_match("abcabcab", "%abc%abcx"));
        assert!(like_match("mississippi", "%iss%ipp%"));
        assert!(!like_match("mississippi", "%iss%ippx%"));
    }

    #[test]
    fn like_expr_and_negation() {
        let e = Expr::Like {
            expr: Box::new(Expr::col("name")),
            pattern: Box::new(Expr::lit("al%")),
            negated: false,
        };
        assert_eq!(eval(&e), Value::Bool(true));
        let e = Expr::Like {
            expr: Box::new(Expr::col("name")),
            pattern: Box::new(Expr::lit("al%")),
            negated: true,
        };
        assert_eq!(eval(&e), Value::Bool(false));
    }

    #[test]
    fn in_list_with_null_semantics() {
        let mk = |list: Vec<Expr>, negated| Expr::InList {
            expr: Box::new(Expr::col("id")),
            list,
            negated,
        };
        assert_eq!(
            eval(&mk(vec![Expr::lit(7i64), Expr::lit(9i64)], false)),
            Value::Bool(true)
        );
        assert_eq!(eval(&mk(vec![Expr::lit(9i64)], false)), Value::Bool(false));
        // Not found but NULL present → NULL.
        assert_eq!(
            eval(&mk(vec![Expr::lit(9i64), Expr::lit(Value::Null)], false)),
            Value::Null
        );
        assert_eq!(eval(&mk(vec![Expr::lit(9i64)], true)), Value::Bool(true));
    }

    #[test]
    fn between_inclusive() {
        let mk = |lo: i64, hi: i64, negated| Expr::Between {
            expr: Box::new(Expr::col("id")),
            low: Box::new(Expr::lit(lo)),
            high: Box::new(Expr::lit(hi)),
            negated,
        };
        assert_eq!(eval(&mk(7, 10, false)), Value::Bool(true));
        assert_eq!(eval(&mk(1, 7, false)), Value::Bool(true));
        assert_eq!(eval(&mk(8, 10, false)), Value::Bool(false));
        assert_eq!(eval(&mk(8, 10, true)), Value::Bool(true));
    }

    #[test]
    fn is_null_checks() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::lit(Value::Null)),
            negated: false,
        };
        assert_eq!(eval(&e), Value::Bool(true));
        let e = Expr::IsNull {
            expr: Box::new(Expr::col("id")),
            negated: true,
        };
        assert_eq!(eval(&e), Value::Bool(true));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(
            eval_scalar_function("UPPER", &[Value::Text("ab".into())]).unwrap(),
            Value::Text("AB".into())
        );
        assert_eq!(
            eval_scalar_function("LENGTH", &[Value::Text("héllo".into())]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval_scalar_function("ABS", &[Value::Int(-4)]).unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            eval_scalar_function("ROUND", &[Value::Float(2.567), Value::Int(1)]).unwrap(),
            Value::Float(2.6)
        );
        assert_eq!(
            eval_scalar_function("COALESCE", &[Value::Null, Value::Int(3)]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_scalar_function("SUBSTR", &[Value::Text("hello".into()), Value::Int(2), Value::Int(3)])
                .unwrap(),
            Value::Text("ell".into())
        );
        assert!(eval_scalar_function("NOPE", &[]).is_err());
        assert!(eval_scalar_function("UPPER", &[Value::Int(1)]).is_err());
    }

    #[test]
    fn string_concat_with_plus() {
        let e = Expr::binary(Expr::lit("ab"), BinOp::Add, Expr::lit("cd"));
        assert_eq!(eval(&e), Value::Text("abcd".into()));
    }

    #[test]
    fn unary_ops() {
        let e = Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(Expr::col("id")),
        };
        assert_eq!(eval(&e), Value::Int(-7));
        let e = Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(Expr::lit(true)),
        };
        assert_eq!(eval(&e), Value::Bool(false));
    }

    #[test]
    fn contains_aggregate_detection() {
        let agg = Expr::Function {
            name: "SUM".into(),
            args: vec![Expr::col("id")],
        };
        assert!(agg.contains_aggregate());
        let nested = Expr::binary(Expr::lit(1i64), BinOp::Add, agg);
        assert!(nested.contains_aggregate());
        assert!(!Expr::col("id").contains_aggregate());
        let scalar = Expr::Function {
            name: "UPPER".into(),
            args: vec![Expr::col("name")],
        };
        assert!(!scalar.contains_aggregate());
    }

    #[test]
    fn referenced_columns_walks_tree() {
        let e = Expr::binary(
            Expr::qcol("t", "a"),
            BinOp::Add,
            Expr::Function {
                name: "ABS".into(),
                args: vec![Expr::col("b")],
            },
        );
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(
            cols,
            vec![
                (Some("t".to_string()), "a".to_string()),
                (None, "b".to_string())
            ]
        );
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = Expr::binary(Expr::col("a"), BinOp::And, Expr::lit(true));
        assert_eq!(e.to_string(), "(a AND true)");
        let e = Expr::lit("o'brien");
        assert_eq!(e.to_string(), "'o''brien'");
    }

    #[test]
    fn eval_aggregate_directly_errors() {
        let agg = Expr::Function {
            name: "COUNT".into(),
            args: vec![Expr::Wildcard],
        };
        assert!(agg.eval(&row(), &schema()).is_err());
    }
}
