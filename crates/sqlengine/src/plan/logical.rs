//! Logical plan representation and the planner that builds it from an AST.

use std::sync::Arc;

use crate::catalog::Database;
use crate::error::SqlError;
use crate::expr::{Expr, AGGREGATE_FUNCTIONS};
use crate::parser::{JoinKind, SelectItem, SelectStmt};
use crate::schema::{Column, Schema, SchemaRef};
use crate::value::DataType;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-NULL values.
    Count,
    /// `COUNT(DISTINCT expr)` — counts distinct non-NULL values.
    CountDistinct,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl AggFunc {
    /// Parse an (uppercased) function name; `star` says whether the single
    /// argument was `*`.
    pub fn parse(name: &str, star: bool) -> Option<AggFunc> {
        match (name, star) {
            ("COUNT", true) => Some(AggFunc::CountStar),
            ("COUNT", false) => Some(AggFunc::Count),
            ("COUNT_DISTINCT", false) => Some(AggFunc::CountDistinct),
            ("SUM", false) => Some(AggFunc::Sum),
            ("AVG", false) => Some(AggFunc::Avg),
            ("MIN", false) => Some(AggFunc::Min),
            ("MAX", false) => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// Result type given the input type.
    pub fn output_type(&self, input: DataType) -> DataType {
        match self {
            AggFunc::CountStar | AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => input,
        }
    }
}

/// A relational logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a base table (optionally with an embedded filter and column
    /// projection, both installed by the optimizer).
    Scan {
        /// Catalog table name.
        table: String,
        /// Name the table is known by in this query (alias or name).
        qualifier: String,
        /// Output schema (qualified, possibly pruned).
        schema: SchemaRef,
        /// Pruned column indices into the base table, if any.
        projection: Option<Vec<usize>>,
        /// Pushed-down predicate, if any.
        filter: Option<Expr>,
    },
    /// Keep rows satisfying `predicate`.
    Filter {
        /// Input node.
        input: Box<LogicalPlan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Join two inputs on a condition.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// INNER or LEFT.
        kind: JoinKind,
        /// Join condition.
        on: Expr,
    },
    /// Group and aggregate.
    Aggregate {
        /// Input node.
        input: Box<LogicalPlan>,
        /// Group-key expressions with output names.
        group_exprs: Vec<(Expr, String)>,
        /// Aggregates: function, argument, output name.
        aggregates: Vec<(AggFunc, Expr, String)>,
    },
    /// Evaluate expressions into output columns.
    Project {
        /// Input node.
        input: Box<LogicalPlan>,
        /// Expressions with output names.
        exprs: Vec<(Expr, String)>,
    },
    /// Sort by column positions of the input schema.
    Sort {
        /// Input node.
        input: Box<LogicalPlan>,
        /// `(column index, descending)` keys.
        keys: Vec<(usize, bool)>,
    },
    /// Keep only the first `keep` columns (drops hidden sort keys).
    Strip {
        /// Input node.
        input: Box<LogicalPlan>,
        /// Number of leading columns to keep.
        keep: usize,
    },
    /// Remove duplicate rows.
    Distinct {
        /// Input node.
        input: Box<LogicalPlan>,
    },
    /// Keep at most `n` rows.
    Limit {
        /// Input node.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
    /// Concatenate the outputs of several arms (UNION ALL); `dedupe`
    /// removes duplicate rows (plain UNION).
    Union {
        /// The arms, in order. All arms share the first arm's arity.
        inputs: Vec<LogicalPlan>,
        /// Remove duplicates?
        dedupe: bool,
    },
    /// Literal rows (used for `SELECT` without `FROM`).
    Values {
        /// Output schema.
        schema: SchemaRef,
        /// Row count to emit (each row is empty; projections supply values).
        rows: usize,
    },
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> SchemaRef {
        match self {
            LogicalPlan::Scan { schema, .. } | LogicalPlan::Values { schema, .. } => {
                schema.clone()
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Strip { input, keep } => {
                let s = input.schema();
                Arc::new(Schema::new_unchecked(s.columns()[..*keep].to_vec()))
            }
            LogicalPlan::Join { left, right, .. } => {
                Arc::new(left.schema().join(&right.schema()))
            }
            LogicalPlan::Union { inputs, .. } => {
                inputs.first().map(|i| i.schema()).unwrap_or_else(|| {
                    Arc::new(Schema::new_unchecked(vec![]))
                })
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                aggregates,
            } => {
                let in_schema = input.schema();
                let mut cols = Vec::with_capacity(group_exprs.len() + aggregates.len());
                for (e, name) in group_exprs {
                    cols.push(Column::new(name.clone(), expr_type(e, &in_schema)));
                }
                for (f, e, name) in aggregates {
                    cols.push(Column::new(
                        name.clone(),
                        f.output_type(expr_type(e, &in_schema)),
                    ));
                }
                Arc::new(Schema::new_unchecked(cols))
            }
            LogicalPlan::Project { input, exprs } => {
                let in_schema = input.schema();
                let cols = exprs
                    .iter()
                    .map(|(e, name)| Column::new(name.clone(), expr_type(e, &in_schema)))
                    .collect();
                Arc::new(Schema::new_unchecked(cols))
            }
        }
    }

    /// The plan's `Scan` nodes in pre-order (left input before right, union
    /// arms in order): the order in which both executors consume them.
    pub fn scans(&self) -> Vec<&LogicalPlan> {
        fn walk<'a>(plan: &'a LogicalPlan, out: &mut Vec<&'a LogicalPlan>) {
            match plan {
                LogicalPlan::Scan { .. } => out.push(plan),
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Strip { input, .. }
                | LogicalPlan::Distinct { input }
                | LogicalPlan::Limit { input, .. } => walk(input, out),
                LogicalPlan::Join { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
                LogicalPlan::Union { inputs, .. } => {
                    for i in inputs {
                        walk(i, out);
                    }
                }
                LogicalPlan::Values { .. } => {}
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Pretty-print the plan tree (for EXPLAIN-style output and tests).
    pub fn display_indent(&self) -> String {
        fn walk(plan: &LogicalPlan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            match plan {
                LogicalPlan::Scan {
                    table,
                    projection,
                    filter,
                    ..
                } => {
                    out.push_str(&format!("{pad}Scan: {table}"));
                    if let Some(p) = projection {
                        out.push_str(&format!(" projection={p:?}"));
                    }
                    if let Some(f) = filter {
                        out.push_str(&format!(" filter={f}"));
                    }
                    out.push('\n');
                }
                LogicalPlan::Filter { input, predicate } => {
                    out.push_str(&format!("{pad}Filter: {predicate}\n"));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Join {
                    left,
                    right,
                    kind,
                    on,
                } => {
                    out.push_str(&format!("{pad}Join({kind:?}): {on}\n"));
                    walk(left, depth + 1, out);
                    walk(right, depth + 1, out);
                }
                LogicalPlan::Aggregate {
                    input,
                    group_exprs,
                    aggregates,
                } => {
                    let groups: Vec<String> =
                        group_exprs.iter().map(|(e, _)| e.to_string()).collect();
                    let aggs: Vec<String> = aggregates
                        .iter()
                        .map(|(f, e, _)| format!("{f:?}({e})"))
                        .collect();
                    out.push_str(&format!(
                        "{pad}Aggregate: groups=[{}] aggs=[{}]\n",
                        groups.join(", "),
                        aggs.join(", ")
                    ));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Project { input, exprs } => {
                    let cols: Vec<String> = exprs
                        .iter()
                        .map(|(e, n)| format!("{e} AS {n}"))
                        .collect();
                    out.push_str(&format!("{pad}Project: {}\n", cols.join(", ")));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Sort { input, keys } => {
                    out.push_str(&format!("{pad}Sort: {keys:?}\n"));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Strip { input, keep } => {
                    out.push_str(&format!("{pad}Strip: keep={keep}\n"));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Distinct { input } => {
                    out.push_str(&format!("{pad}Distinct\n"));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Limit { input, n } => {
                    out.push_str(&format!("{pad}Limit: {n}\n"));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Union { inputs, dedupe } => {
                    out.push_str(&format!(
                        "{pad}Union: {} arm(s){}\n",
                        inputs.len(),
                        if *dedupe { " distinct" } else { " all" }
                    ));
                    for i in inputs {
                        walk(i, depth + 1, out);
                    }
                }
                LogicalPlan::Values { rows, .. } => {
                    out.push_str(&format!("{pad}Values: {rows} row(s)\n"));
                }
            }
        }
        let mut s = String::new();
        walk(self, 0, &mut s);
        s
    }
}

/// Best-effort static type of an expression (defaults to Float for
/// arithmetic, Text otherwise — only used for display schemas).
fn expr_type(e: &Expr, schema: &Schema) -> DataType {
    match e {
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Text),
        Expr::Column { table, name } => schema
            .resolve(table.as_deref(), name)
            .map(|i| schema.columns()[i].data_type)
            .unwrap_or(DataType::Text),
        Expr::Binary { op, left, right } => match op {
            crate::expr::BinOp::And
            | crate::expr::BinOp::Or
            | crate::expr::BinOp::Eq
            | crate::expr::BinOp::Neq
            | crate::expr::BinOp::Lt
            | crate::expr::BinOp::Le
            | crate::expr::BinOp::Gt
            | crate::expr::BinOp::Ge => DataType::Bool,
            _ => {
                let lt = expr_type(left, schema);
                let rt = expr_type(right, schema);
                if lt == DataType::Float || rt == DataType::Float {
                    DataType::Float
                } else {
                    lt
                }
            }
        },
        Expr::Unary { op, expr } => match op {
            crate::expr::UnOp::Neg => expr_type(expr, schema),
            crate::expr::UnOp::Not => DataType::Bool,
        },
        Expr::Function { name, args } => match name.as_str() {
            "LENGTH" => DataType::Int,
            "ROUND" => DataType::Float,
            "UPPER" | "LOWER" | "SUBSTR" | "SUBSTRING" => DataType::Text,
            "ABS" | "COALESCE" => args
                .first()
                .map(|a| expr_type(a, schema))
                .unwrap_or(DataType::Float),
            _ => DataType::Float,
        },
        Expr::IsNull { .. } | Expr::Like { .. } | Expr::InList { .. } | Expr::Between { .. } => {
            DataType::Bool
        }
        Expr::Wildcard => DataType::Text,
    }
}

/// Plans `SELECT` statements against a database.
pub struct Planner<'a> {
    db: &'a Database,
}

impl<'a> Planner<'a> {
    /// Create a planner over `db`.
    pub fn new(db: &'a Database) -> Self {
        Planner { db }
    }

    /// Build the logical plan for a `SELECT` (including UNION chains).
    pub fn plan_select(&self, stmt: &SelectStmt) -> Result<LogicalPlan, SqlError> {
        if stmt.union.is_some() {
            return self.plan_union(stmt);
        }
        self.plan_select_core(stmt)
    }

    /// Plan a UNION chain: each arm planned independently, the final arm's
    /// trailing ORDER BY/LIMIT lifted onto the whole union (standard SQL
    /// binding). ORDER BY on a union must use output positions (`ORDER BY
    /// 1`) or the first arm's output column names.
    fn plan_union(&self, stmt: &SelectStmt) -> Result<LogicalPlan, SqlError> {
        // Flatten the chain.
        let mut arms: Vec<SelectStmt> = Vec::new();
        let mut dedupe = false;
        let mut cursor = stmt.clone();
        loop {
            match cursor.union.take() {
                Some((next, all)) => {
                    if !all {
                        dedupe = true;
                    }
                    arms.push(cursor);
                    cursor = *next;
                }
                None => {
                    arms.push(cursor);
                    break;
                }
            }
        }
        // Lift the final arm's ORDER BY / LIMIT onto the union.
        let last = arms.last_mut().expect("at least one arm");
        let order_by = std::mem::take(&mut last.order_by);
        let limit = last.limit.take();

        let mut inputs = Vec::with_capacity(arms.len());
        for arm in &arms {
            inputs.push(self.plan_select_core(arm)?);
        }
        let first_schema = inputs[0].schema();
        for (i, input) in inputs.iter().enumerate().skip(1) {
            if input.schema().len() != first_schema.len() {
                return Err(SqlError::Plan(format!(
                    "UNION arms disagree on column count: arm 1 has {}, arm {} has {}",
                    first_schema.len(),
                    i + 1,
                    input.schema().len()
                )));
            }
        }
        let mut plan = LogicalPlan::Union { inputs, dedupe };

        if !order_by.is_empty() {
            let schema = plan.schema();
            let mut keys = Vec::with_capacity(order_by.len());
            for (e, desc) in &order_by {
                let idx = match e {
                    Expr::Literal(crate::value::Value::Int(n)) => {
                        let n = *n;
                        if n < 1 || n as usize > schema.len() {
                            return Err(SqlError::Plan(format!(
                                "ORDER BY position {n} is out of range for the union"
                            )));
                        }
                        (n - 1) as usize
                    }
                    Expr::Column { table: None, name } => schema
                        .columns()
                        .iter()
                        .position(|c| &c.name == name)
                        .ok_or_else(|| {
                            SqlError::Plan(format!(
                                "ORDER BY over a UNION must name an output column;                                  `{name}` is not one"
                            ))
                        })?,
                    other => {
                        return Err(SqlError::Plan(format!(
                            "ORDER BY over a UNION must use output columns or                              positions, not `{other}`"
                        )))
                    }
                };
                keys.push((idx, *desc));
            }
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        if let Some(n) = limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    /// Build the logical plan for one (union-free) `SELECT` arm.
    fn plan_select_core(&self, stmt: &SelectStmt) -> Result<LogicalPlan, SqlError> {
        // 1. FROM + JOINs.
        let mut plan = match &stmt.from {
            Some(tref) => self.scan(tref.name.as_str(), tref.effective_name())?,
            None => LogicalPlan::Values {
                schema: Arc::new(Schema::new_unchecked(vec![])),
                rows: 1,
            },
        };
        for join in &stmt.joins {
            let right = self.scan(join.table.name.as_str(), join.table.effective_name())?;
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(right),
                kind: join.kind,
                on: join.on.clone(),
            };
        }

        // 2. WHERE.
        if let Some(f) = &stmt.filter {
            if f.contains_aggregate() {
                return Err(SqlError::Plan(
                    "aggregate functions are not allowed in WHERE (use HAVING)".into(),
                ));
            }
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: f.clone(),
            };
        }

        // 3. Expand wildcards into concrete projection expressions.
        let input_schema = plan.schema();
        let mut proj: Vec<(Expr, Option<String>)> = Vec::new();
        for item in &stmt.projections {
            match item {
                SelectItem::Wildcard => {
                    if stmt.from.is_none() {
                        return Err(SqlError::Plan("SELECT * requires a FROM clause".into()));
                    }
                    for c in input_schema.columns() {
                        proj.push((
                            Expr::Column {
                                table: c.table.clone(),
                                name: c.name.clone(),
                            },
                            Some(c.name.clone()),
                        ));
                    }
                }
                SelectItem::QualifiedWildcard(t) => {
                    let t = t.to_lowercase();
                    let cols: Vec<&Column> = input_schema
                        .columns()
                        .iter()
                        .filter(|c| c.table.as_deref() == Some(t.as_str()))
                        .collect();
                    if cols.is_empty() {
                        return Err(SqlError::Plan(format!("unknown table alias `{t}` in {t}.*")));
                    }
                    for c in cols {
                        proj.push((
                            Expr::Column {
                                table: c.table.clone(),
                                name: c.name.clone(),
                            },
                            Some(c.name.clone()),
                        ));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    proj.push((expr.clone(), alias.clone()));
                }
            }
        }

        // 4. Aggregation.
        let has_aggregates = proj.iter().any(|(e, _)| e.contains_aggregate())
            || !stmt.group_by.is_empty()
            || stmt
                .having
                .as_ref()
                .map(|h| h.contains_aggregate())
                .unwrap_or(false);

        let mut order_keys: Vec<(Expr, bool)> = stmt.order_by.clone();

        // Name output columns from the *original* expressions so aggregate
        // rewriting doesn't leak generated names like `agg0` into results.
        let mut proj: Vec<(Expr, String)> = proj
            .into_iter()
            .map(|(e, alias)| {
                let name = alias.unwrap_or_else(|| default_name(&e));
                (e, name)
            })
            .collect();

        if has_aggregates {
            let mut rewriter = AggRewriter::new(&stmt.group_by);
            let rewritten_proj: Vec<(Expr, String)> = proj
                .iter()
                .map(|(e, a)| Ok((rewriter.rewrite(e)?, a.clone())))
                .collect::<Result<_, SqlError>>()?;
            let rewritten_having = match &stmt.having {
                Some(h) => Some(rewriter.rewrite(h)?),
                None => None,
            };
            let rewritten_order: Vec<(Expr, bool)> = order_keys
                .iter()
                .map(|(e, d)| Ok((rewriter.rewrite(e)?, *d)))
                .collect::<Result<_, SqlError>>()?;

            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_exprs: rewriter.group_out,
                aggregates: rewriter.agg_out,
            };
            if let Some(h) = rewritten_having {
                plan = LogicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: h,
                };
            }
            proj = rewritten_proj;
            order_keys = rewritten_order;
        } else if stmt.having.is_some() {
            return Err(SqlError::Plan("HAVING requires GROUP BY or aggregates".into()));
        }

        // 5. Output columns are already named.
        let named: Vec<(Expr, String)> = proj;
        let visible = named.len();

        // 6. ORDER BY → hidden sort keys appended to the projection.
        //    Keys that are aliases or 1-based positions resolve directly.
        let mut exprs = named;
        let mut sort_keys: Vec<(usize, bool)> = Vec::new();
        for (key, desc) in &order_keys {
            let idx = match key {
                Expr::Literal(crate::value::Value::Int(n)) => {
                    let n = *n;
                    if n < 1 || n as usize > visible {
                        return Err(SqlError::Plan(format!(
                            "ORDER BY position {n} is out of range"
                        )));
                    }
                    (n - 1) as usize
                }
                Expr::Column { table: None, name } => {
                    match exprs[..visible].iter().position(|(_, n)| n == name) {
                        Some(i) => i,
                        None => {
                            exprs.push((key.clone(), format!("__sort{}", sort_keys.len())));
                            exprs.len() - 1
                        }
                    }
                }
                _ => {
                    // Matching expression already projected?
                    match exprs[..visible].iter().position(|(e, _)| e == key) {
                        Some(i) => i,
                        None => {
                            exprs.push((key.clone(), format!("__sort{}", sort_keys.len())));
                            exprs.len() - 1
                        }
                    }
                }
            };
            sort_keys.push((idx, *desc));
        }
        let hidden = exprs.len() - visible;
        if stmt.distinct && hidden > 0 {
            return Err(SqlError::Plan(
                "ORDER BY with DISTINCT must reference selected columns".into(),
            ));
        }

        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
        };
        if stmt.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }
        if !sort_keys.is_empty() {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: sort_keys,
            };
        }
        if let Some(n) = stmt.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        if hidden > 0 {
            plan = LogicalPlan::Strip {
                input: Box::new(plan),
                keep: visible,
            };
        }
        Ok(plan)
    }

    fn scan(&self, table: &str, qualifier: &str) -> Result<LogicalPlan, SqlError> {
        let t = self.db.table(table)?;
        Ok(LogicalPlan::Scan {
            table: t.name.clone(),
            qualifier: qualifier.to_lowercase(),
            schema: Arc::new(t.schema.qualify(qualifier)),
            projection: None,
            filter: None,
        })
    }
}

/// Default output column name for an expression.
fn default_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.to_lowercase(),
        other => other.to_string(),
    }
}

/// Rewrites expressions for aggregate queries: aggregate calls become
/// references to generated `aggN` columns, and group-by expressions become
/// references to their group-key output columns.
struct AggRewriter {
    group_in: Vec<Expr>,
    /// Group expressions with output names, in GROUP BY order.
    group_out: Vec<(Expr, String)>,
    /// Aggregates discovered during rewriting.
    agg_out: Vec<(AggFunc, Expr, String)>,
}

impl AggRewriter {
    fn new(group_by: &[Expr]) -> Self {
        let group_out = group_by
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let name = match e {
                    Expr::Column { name, .. } => name.clone(),
                    _ => format!("grp{i}"),
                };
                (e.clone(), name)
            })
            .collect();
        AggRewriter {
            group_in: group_by.to_vec(),
            group_out,
            agg_out: Vec::new(),
        }
    }

    fn rewrite(&mut self, e: &Expr) -> Result<Expr, SqlError> {
        // A group-by expression anywhere in the tree becomes its key column.
        if let Some(i) = self.group_in.iter().position(|g| g == e) {
            return Ok(Expr::col(&self.group_out[i].1));
        }
        match e {
            Expr::Function { name, args } if AGGREGATE_FUNCTIONS.contains(&name.as_str()) => {
                let star = matches!(args.as_slice(), [Expr::Wildcard]);
                if !star && args.len() != 1 {
                    return Err(SqlError::Plan(format!(
                        "{name} takes exactly one argument"
                    )));
                }
                let func = AggFunc::parse(name, star)
                    .ok_or_else(|| SqlError::Plan(format!("unknown aggregate {name}")))?;
                if !star && args[0].contains_aggregate() {
                    return Err(SqlError::Plan("nested aggregates are not allowed".into()));
                }
                let arg = if star { Expr::Wildcard } else { args[0].clone() };
                // Reuse an identical aggregate if already present.
                let key = format!("{func:?}:{arg}");
                if let Some((_, _, name)) = self
                    .agg_out
                    .iter()
                    .find(|(f, a, _)| format!("{f:?}:{a}") == key && *f == func)
                {
                    return Ok(Expr::col(name));
                }
                let out_name = format!("agg{}", self.agg_out.len());
                self.agg_out.push((func, arg, out_name.clone()));
                Ok(Expr::col(&out_name))
            }
            Expr::Binary { left, op, right } => Ok(Expr::Binary {
                left: Box::new(self.rewrite(left)?),
                op: *op,
                right: Box::new(self.rewrite(right)?),
            }),
            Expr::Unary { op, expr } => Ok(Expr::Unary {
                op: *op,
                expr: Box::new(self.rewrite(expr)?),
            }),
            Expr::Function { name, args } => Ok(Expr::Function {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| self.rewrite(a))
                    .collect::<Result<_, _>>()?,
            }),
            Expr::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(self.rewrite(expr)?),
                negated: *negated,
            }),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Ok(Expr::Like {
                expr: Box::new(self.rewrite(expr)?),
                pattern: Box::new(self.rewrite(pattern)?),
                negated: *negated,
            }),
            Expr::InList {
                expr,
                list,
                negated,
            } => Ok(Expr::InList {
                expr: Box::new(self.rewrite(expr)?),
                list: list
                    .iter()
                    .map(|a| self.rewrite(a))
                    .collect::<Result<_, _>>()?,
                negated: *negated,
            }),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Ok(Expr::Between {
                expr: Box::new(self.rewrite(expr)?),
                low: Box::new(self.rewrite(low)?),
                high: Box::new(self.rewrite(high)?),
                negated: *negated,
            }),
            other => Ok(other.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::parser::Statement;
    use crate::schema::Column;
    use crate::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "orders",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("user_id", DataType::Int),
                Column::new("amount", DataType::Float),
                Column::new("category", DataType::Text),
            ])
            .unwrap(),
            false,
        )
        .unwrap();
        db.create_table(
            "users",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ])
            .unwrap(),
            false,
        )
        .unwrap();
        db
    }

    fn plan(sql: &str) -> LogicalPlan {
        let db = db();
        let stmt = match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        Planner::new(&db).plan_select(&stmt).unwrap()
    }

    fn plan_err(sql: &str) -> SqlError {
        let db = db();
        let stmt = match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        Planner::new(&db).plan_select(&stmt).unwrap_err()
    }

    #[test]
    fn simple_select_shape() {
        let p = plan("SELECT id, amount FROM orders WHERE amount > 10");
        let txt = p.display_indent();
        assert!(txt.starts_with("Project:"), "{txt}");
        assert!(txt.contains("Filter:"));
        assert!(txt.contains("Scan: orders"));
    }

    #[test]
    fn wildcard_expands_all_columns() {
        let p = plan("SELECT * FROM orders");
        assert_eq!(p.schema().len(), 4);
        assert_eq!(p.schema().columns()[0].name, "id");
    }

    #[test]
    fn qualified_wildcard_expands_one_side() {
        let p = plan("SELECT o.* FROM orders o JOIN users u ON o.user_id = u.id");
        assert_eq!(p.schema().len(), 4);
    }

    #[test]
    fn unknown_alias_in_wildcard_errors() {
        let e = plan_err("SELECT x.* FROM orders o");
        assert!(matches!(e, SqlError::Plan(_)));
    }

    #[test]
    fn aggregate_plan_shape() {
        let p = plan("SELECT category, SUM(amount) AS total FROM orders GROUP BY category");
        let txt = p.display_indent();
        assert!(txt.contains("Aggregate:"), "{txt}");
        assert!(txt.contains("Sum"));
        let schema = p.schema();
        assert_eq!(schema.columns()[0].name, "category");
        assert_eq!(schema.columns()[1].name, "total");
    }

    #[test]
    fn identical_aggregates_are_shared() {
        let p = plan(
            "SELECT SUM(amount), SUM(amount) + 1 FROM orders",
        );
        fn find_agg(p: &LogicalPlan) -> Option<usize> {
            match p {
                LogicalPlan::Aggregate { aggregates, .. } => Some(aggregates.len()),
                LogicalPlan::Project { input, .. }
                | LogicalPlan::Filter { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Strip { input, .. }
                | LogicalPlan::Distinct { input }
                | LogicalPlan::Limit { input, .. } => find_agg(input),
                _ => None,
            }
        }
        assert_eq!(find_agg(&p), Some(1));
    }

    #[test]
    fn having_becomes_filter_above_aggregate() {
        let p = plan(
            "SELECT category FROM orders GROUP BY category HAVING COUNT(*) > 2",
        );
        let txt = p.display_indent();
        let filter_pos = txt.find("Filter:").unwrap();
        let agg_pos = txt.find("Aggregate:").unwrap();
        assert!(filter_pos < agg_pos, "{txt}");
    }

    #[test]
    fn having_without_aggregate_context_errors() {
        let e = plan_err("SELECT id FROM orders HAVING id > 2");
        // HAVING with aggregate-free select list but no GROUP BY: the
        // HAVING itself has no aggregate → rejected.
        assert!(matches!(e, SqlError::Plan(_)));
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let e = plan_err("SELECT id FROM orders WHERE SUM(amount) > 5");
        assert!(e.to_string().contains("HAVING"));
    }

    #[test]
    fn order_by_alias_resolves_to_visible_column() {
        let p = plan("SELECT amount AS a FROM orders ORDER BY a DESC");
        match &p {
            LogicalPlan::Sort { keys, .. } => assert_eq!(keys, &vec![(0, true)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_position() {
        let p = plan("SELECT id, amount FROM orders ORDER BY 2");
        match &p {
            LogicalPlan::Sort { keys, .. } => assert_eq!(keys, &vec![(1, false)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_position_out_of_range_errors() {
        assert!(plan_err("SELECT id FROM orders ORDER BY 3")
            .to_string()
            .contains("out of range"));
    }

    #[test]
    fn order_by_hidden_key_strips() {
        let p = plan("SELECT id FROM orders ORDER BY amount");
        match &p {
            LogicalPlan::Strip { keep, .. } => assert_eq!(*keep, 1),
            other => panic!("expected Strip, got {other:?}"),
        }
        assert_eq!(p.schema().len(), 1);
    }

    #[test]
    fn distinct_with_hidden_order_key_rejected() {
        let e = plan_err("SELECT DISTINCT id FROM orders ORDER BY amount");
        assert!(e.to_string().contains("DISTINCT"));
    }

    #[test]
    fn select_without_from() {
        let p = plan("SELECT 1 + 1 AS two");
        assert_eq!(p.schema().columns()[0].name, "two");
        let txt = p.display_indent();
        assert!(txt.contains("Values"));
    }

    #[test]
    fn group_by_expression_rewrites_in_projection() {
        let p = plan("SELECT amount * 2, COUNT(*) FROM orders GROUP BY amount * 2");
        let txt = p.display_indent();
        assert!(txt.contains("Aggregate:"), "{txt}");
    }

    #[test]
    fn nested_aggregate_rejected() {
        let e = plan_err("SELECT SUM(COUNT(*)) FROM orders");
        assert!(e.to_string().contains("nested"));
    }

    #[test]
    fn default_output_names() {
        let p = plan("SELECT id, SUM(amount) FROM orders GROUP BY id");
        let s = p.schema();
        assert_eq!(s.columns()[0].name, "id");
        assert_eq!(s.columns()[1].name, "sum");
    }

    #[test]
    fn agg_output_types() {
        assert_eq!(AggFunc::Count.output_type(DataType::Text), DataType::Int);
        assert_eq!(AggFunc::Avg.output_type(DataType::Int), DataType::Float);
        assert_eq!(AggFunc::Sum.output_type(DataType::Int), DataType::Int);
        assert_eq!(AggFunc::Min.output_type(DataType::Text), DataType::Text);
    }

    #[test]
    fn agg_parse() {
        assert_eq!(AggFunc::parse("COUNT", true), Some(AggFunc::CountStar));
        assert_eq!(AggFunc::parse("SUM", false), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse("SUM", true), None);
        assert_eq!(AggFunc::parse("MEDIAN", false), None);
    }
}
