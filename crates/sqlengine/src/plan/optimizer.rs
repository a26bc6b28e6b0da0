//! Rule-based logical-plan optimizer.
//!
//! Three classic rules, applied to fixpoint in one pass each (the rules do
//! not enable each other more than once in this plan algebra):
//!
//! 1. **Constant folding** — expression subtrees without column references
//!    are pre-evaluated.
//! 2. **Predicate pushdown** — filters migrate through joins toward scans,
//!    and land inside [`LogicalPlan::Scan`] nodes.
//! 3. **Projection pruning** — scans read only the columns the rest of the
//!    plan actually uses.
//!
//! Benchmark E4 (`sql_bench`) measures these rules' effect.

use std::collections::HashSet;
use std::sync::Arc;

use crate::error::SqlError;
use crate::expr::{BinOp, Expr};
use crate::parser::JoinKind;
use crate::row::Row;
use crate::schema::{Schema, SchemaRef};
use crate::value::Value;

use super::logical::LogicalPlan;

/// The optimizer. Stateless; configuration selects rules (for ablations).
#[derive(Debug, Clone, Copy)]
pub struct Optimizer {
    /// Enable constant folding.
    pub fold_constants: bool,
    /// Enable predicate pushdown.
    pub pushdown_predicates: bool,
    /// Enable projection pruning.
    pub prune_projections: bool,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer {
            fold_constants: true,
            pushdown_predicates: true,
            prune_projections: true,
        }
    }
}

impl Optimizer {
    /// All rules on.
    pub fn new() -> Self {
        Optimizer::default()
    }

    /// Every rule off (the ablation baseline).
    pub fn disabled() -> Self {
        Optimizer {
            fold_constants: false,
            pushdown_predicates: false,
            prune_projections: false,
        }
    }

    /// Optimize a plan.
    pub fn optimize(&self, plan: LogicalPlan) -> Result<LogicalPlan, SqlError> {
        let mut plan = plan;
        if self.fold_constants {
            plan = fold_plan(plan)?;
        }
        if self.pushdown_predicates {
            plan = pushdown(plan)?;
        }
        if self.prune_projections {
            plan = prune(plan)?;
        }
        Ok(plan)
    }
}

// ---------- rule 1: constant folding ----------

/// Fold constants in every expression of the plan.
fn fold_plan(plan: LogicalPlan) -> Result<LogicalPlan, SqlError> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(fold_plan(*input)?),
            predicate: fold_expr(predicate),
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(fold_plan(*input)?),
            exprs: exprs
                .into_iter()
                .map(|(e, n)| (fold_expr(e), n))
                .collect(),
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => LogicalPlan::Join {
            left: Box::new(fold_plan(*left)?),
            right: Box::new(fold_plan(*right)?),
            kind,
            on: fold_expr(on),
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => LogicalPlan::Aggregate {
            input: Box::new(fold_plan(*input)?),
            group_exprs: group_exprs
                .into_iter()
                .map(|(e, n)| (fold_expr(e), n))
                .collect(),
            aggregates: aggregates
                .into_iter()
                .map(|(f, e, n)| (f, fold_expr(e), n))
                .collect(),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(fold_plan(*input)?),
            keys,
        },
        LogicalPlan::Strip { input, keep } => LogicalPlan::Strip {
            input: Box::new(fold_plan(*input)?),
            keep,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(fold_plan(*input)?),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(fold_plan(*input)?),
            n,
        },
        LogicalPlan::Union { inputs, dedupe } => LogicalPlan::Union {
            inputs: inputs
                .into_iter()
                .map(fold_plan)
                .collect::<Result<_, _>>()?,
            dedupe,
        },
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) => leaf,
    })
}

/// Fold one expression: evaluate column-free subtrees.
pub fn fold_expr(e: Expr) -> Expr {
    // Recurse first so inner folds expose outer opportunities.
    let e = match e {
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(fold_expr(*left)),
            op,
            right: Box::new(fold_expr(*right)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(fold_expr(*expr)),
        },
        Expr::Function { name, args } => Expr::Function {
            name,
            args: args.into_iter().map(fold_expr).collect(),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(fold_expr(*expr)),
            negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(fold_expr(*expr)),
            pattern: Box::new(fold_expr(*pattern)),
            negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(fold_expr(*expr)),
            list: list.into_iter().map(fold_expr).collect(),
            negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(fold_expr(*expr)),
            low: Box::new(fold_expr(*low)),
            high: Box::new(fold_expr(*high)),
            negated,
        },
        other => other,
    };
    if matches!(e, Expr::Literal(_) | Expr::Column { .. } | Expr::Wildcard) {
        return e;
    }
    let mut cols = Vec::new();
    e.referenced_columns(&mut cols);
    if !cols.is_empty() || e.contains_aggregate() {
        return e;
    }
    // Column-free: evaluate against an empty row. Errors (e.g. division by
    // zero) must surface at execution time, so keep the original on error.
    let empty_schema = Schema::new_unchecked(vec![]);
    match e.eval(&Row::default(), &empty_schema) {
        Ok(v) => Expr::Literal(v),
        Err(_) => e,
    }
}

// ---------- rule 2: predicate pushdown ----------

/// Rebuild a conjunction from factors.
fn join_conjuncts(mut parts: Vec<Expr>) -> Option<Expr> {
    let mut acc = parts.pop()?;
    while let Some(p) = parts.pop() {
        acc = Expr::binary(p, BinOp::And, acc);
    }
    Some(acc)
}

/// Can `e` be evaluated using only columns of `schema`?
fn bound_by(e: &Expr, schema: &SchemaRef) -> bool {
    let mut cols = Vec::new();
    e.referenced_columns(&mut cols);
    cols.iter()
        .all(|(t, n)| schema.resolve(t.as_deref(), n).is_ok())
}

/// Push filters down toward scans.
fn pushdown(plan: LogicalPlan) -> Result<LogicalPlan, SqlError> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = pushdown(*input)?;
            push_filter(input, predicate)?
        }
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(pushdown(*input)?),
            exprs,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => LogicalPlan::Join {
            left: Box::new(pushdown(*left)?),
            right: Box::new(pushdown(*right)?),
            kind,
            on,
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => LogicalPlan::Aggregate {
            input: Box::new(pushdown(*input)?),
            group_exprs,
            aggregates,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(pushdown(*input)?),
            keys,
        },
        LogicalPlan::Strip { input, keep } => LogicalPlan::Strip {
            input: Box::new(pushdown(*input)?),
            keep,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(pushdown(*input)?),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(pushdown(*input)?),
            n,
        },
        LogicalPlan::Union { inputs, dedupe } => LogicalPlan::Union {
            inputs: inputs
                .into_iter()
                .map(pushdown)
                .collect::<Result<_, _>>()?,
            dedupe,
        },
        leaf => leaf,
    })
}

/// Push one filter predicate into `input` as far as possible.
fn push_filter(input: LogicalPlan, predicate: Expr) -> Result<LogicalPlan, SqlError> {
    match input {
        LogicalPlan::Scan {
            table,
            qualifier,
            schema,
            projection,
            filter,
        } => {
            let merged = match filter {
                Some(f) => Expr::binary(f, BinOp::And, predicate),
                None => predicate,
            };
            Ok(LogicalPlan::Scan {
                table,
                qualifier,
                schema,
                projection,
                filter: Some(merged),
            })
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let parts = predicate.conjuncts().into_iter().cloned();
            let lschema = left.schema();
            let rschema = right.schema();
            let mut push_left = Vec::new();
            let mut push_right = Vec::new();
            let mut keep = Vec::new();
            for p in parts {
                if bound_by(&p, &lschema) {
                    push_left.push(p);
                } else if bound_by(&p, &rschema) && kind == JoinKind::Inner {
                    // Right-side pushdown through a LEFT join would change
                    // NULL-extension semantics; only legal for INNER.
                    push_right.push(p);
                } else {
                    keep.push(p);
                }
            }
            let mut new_left = *left;
            if let Some(f) = join_conjuncts(push_left) {
                new_left = push_filter(new_left, f)?;
            }
            let mut new_right = *right;
            if let Some(f) = join_conjuncts(push_right) {
                new_right = push_filter(new_right, f)?;
            }
            let joined = LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                kind,
                on,
            };
            Ok(match join_conjuncts(keep) {
                Some(f) => LogicalPlan::Filter {
                    input: Box::new(joined),
                    predicate: f,
                },
                None => joined,
            })
        }
        LogicalPlan::Filter {
            input,
            predicate: inner,
        } => {
            // Merge adjacent filters, then continue pushing.
            push_filter(*input, Expr::binary(inner, BinOp::And, predicate))
        }
        other => Ok(LogicalPlan::Filter {
            input: Box::new(other),
            predicate,
        }),
    }
}

// ---------- rule 3: projection pruning ----------

/// Prune unused columns from scans.
fn prune(plan: LogicalPlan) -> Result<LogicalPlan, SqlError> {
    // Collect, per scan qualifier, the columns needed above it.
    // Strategy: walk top-down carrying the set of needed (qualifier, name)
    // pairs; at a scan, install a projection if the needed set is a proper
    // subset. `None` means "everything" (e.g. below Distinct on *).
    prune_node(plan, None)
}

type Needed = HashSet<(Option<String>, String)>;

fn expr_needs(e: &Expr, needed: &mut Needed) {
    let mut cols = Vec::new();
    e.referenced_columns(&mut cols);
    for c in cols {
        needed.insert(c);
    }
}

fn prune_node(plan: LogicalPlan, needed: Option<&Needed>) -> Result<LogicalPlan, SqlError> {
    Ok(match plan {
        LogicalPlan::Project { input, exprs } => {
            let mut need = HashSet::new();
            for (e, _) in &exprs {
                expr_needs(e, &mut need);
            }
            LogicalPlan::Project {
                input: Box::new(prune_node(*input, Some(&need))?),
                exprs,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => {
            let mut need = HashSet::new();
            for (e, _) in &group_exprs {
                expr_needs(e, &mut need);
            }
            for (_, e, _) in &aggregates {
                expr_needs(e, &mut need);
            }
            LogicalPlan::Aggregate {
                input: Box::new(prune_node(*input, Some(&need))?),
                group_exprs,
                aggregates,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut need = needed.cloned().unwrap_or_default();
            let pass_all = needed.is_none();
            expr_needs(&predicate, &mut need);
            LogicalPlan::Filter {
                input: Box::new(prune_node(
                    *input,
                    if pass_all { None } else { Some(&need) },
                )?),
                predicate,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let (lneeded, rneeded);
            let (lref, rref) = match needed {
                Some(n) => {
                    let mut need = n.clone();
                    expr_needs(&on, &mut need);
                    let lschema = left.schema();
                    let rschema = right.schema();
                    lneeded = need
                        .iter()
                        .filter(|(t, c)| lschema.resolve(t.as_deref(), c).is_ok())
                        .cloned()
                        .collect::<Needed>();
                    rneeded = need
                        .iter()
                        .filter(|(t, c)| rschema.resolve(t.as_deref(), c).is_ok())
                        .cloned()
                        .collect::<Needed>();
                    (Some(&lneeded), Some(&rneeded))
                }
                None => (None, None),
            };
            LogicalPlan::Join {
                left: Box::new(prune_node(*left, lref)?),
                right: Box::new(prune_node(*right, rref)?),
                kind,
                on,
            }
        }
        // Sort keys are positional — pruning below would shift positions,
        // so stop propagating the needed-set there.
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(prune_node(*input, None)?),
            keys,
        },
        LogicalPlan::Strip { input, keep } => LogicalPlan::Strip {
            input: Box::new(prune_node(*input, None)?),
            keep,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(prune_node(*input, None)?),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(prune_node(*input, None)?),
            n,
        },
        // Union output is positional across arms — don't prune below.
        LogicalPlan::Union { inputs, dedupe } => LogicalPlan::Union {
            inputs: inputs
                .into_iter()
                .map(|i| prune_node(i, None))
                .collect::<Result<_, _>>()?,
            dedupe,
        },
        LogicalPlan::Scan {
            table,
            qualifier,
            schema,
            projection,
            filter,
        } => {
            let needed = match needed {
                Some(n) => n,
                None => {
                    return Ok(LogicalPlan::Scan {
                        table,
                        qualifier,
                        schema,
                        projection,
                        filter,
                    })
                }
            };
            // The scan's own filter needs its columns too.
            let mut need = needed.clone();
            if let Some(f) = &filter {
                expr_needs(f, &mut need);
            }
            let mut keep_indices: Vec<usize> = Vec::new();
            for (i, c) in schema.columns().iter().enumerate() {
                let wanted = need.iter().any(|(t, n)| {
                    n == &c.name
                        && match t {
                            Some(t) => c.table.as_deref() == Some(t.as_str()),
                            None => true,
                        }
                });
                if wanted {
                    keep_indices.push(i);
                }
            }
            if keep_indices.len() == schema.len() {
                return Ok(LogicalPlan::Scan {
                    table,
                    qualifier,
                    schema,
                    projection,
                    filter,
                });
            }
            let new_schema = Arc::new(Schema::new_unchecked(
                keep_indices
                    .iter()
                    .map(|&i| schema.columns()[i].clone())
                    .collect(),
            ));
            // Compose with an existing projection if present.
            let base_indices = match &projection {
                Some(prev) => keep_indices.iter().map(|&i| prev[i]).collect(),
                None => keep_indices,
            };
            LogicalPlan::Scan {
                table,
                qualifier,
                schema: new_schema,
                projection: Some(base_indices),
                filter,
            }
        }
        leaf @ LogicalPlan::Values { .. } => leaf,
    })
}

/// Simplify a filter that folded to a constant TRUE (drop) or FALSE
/// (replace input with empty Values). Exposed for the executor to use.
pub fn simplify_constant_filter(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => match &predicate {
            Expr::Literal(Value::Bool(true)) => simplify_constant_filter(*input),
            Expr::Literal(Value::Bool(false)) | Expr::Literal(Value::Null) => {
                LogicalPlan::Values {
                    schema: input.schema(),
                    rows: 0,
                }
            }
            _ => LogicalPlan::Filter {
                input: Box::new(simplify_constant_filter(*input)),
                predicate,
            },
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(simplify_constant_filter(*input)),
            exprs,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => LogicalPlan::Join {
            left: Box::new(simplify_constant_filter(*left)),
            right: Box::new(simplify_constant_filter(*right)),
            kind,
            on,
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => LogicalPlan::Aggregate {
            input: Box::new(simplify_constant_filter(*input)),
            group_exprs,
            aggregates,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(simplify_constant_filter(*input)),
            keys,
        },
        LogicalPlan::Strip { input, keep } => LogicalPlan::Strip {
            input: Box::new(simplify_constant_filter(*input)),
            keep,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(simplify_constant_filter(*input)),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(simplify_constant_filter(*input)),
            n,
        },
        LogicalPlan::Union { inputs, dedupe } => LogicalPlan::Union {
            inputs: inputs.into_iter().map(simplify_constant_filter).collect(),
            dedupe,
        },
        leaf => leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::parser::{parse, Statement};
    use crate::plan::logical::Planner;
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

    fn optimized(sql: &str) -> LogicalPlan {
        let db = db();
        let stmt = match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let plan = Planner::new(&db).plan_select(&stmt).unwrap();
        Optimizer::new().optimize(plan).unwrap()
    }

    #[test]
    fn constant_folding_in_filter() {
        let p = optimized("SELECT id FROM orders WHERE amount > 2 + 3");
        let txt = p.display_indent();
        assert!(txt.contains("5"), "{txt}");
        assert!(!txt.contains("(2 + 3)"), "{txt}");
    }

    #[test]
    fn fold_expr_preserves_errors() {
        // 1/0 must NOT fold away — the error belongs to execution.
        let e = Expr::binary(Expr::lit(1i64), BinOp::Div, Expr::lit(0i64));
        let folded = fold_expr(e.clone());
        assert_eq!(folded, e);
    }

    #[test]
    fn fold_expr_handles_nested() {
        let e = Expr::binary(
            Expr::binary(Expr::lit(2i64), BinOp::Mul, Expr::lit(3i64)),
            BinOp::Add,
            Expr::col("x"),
        );
        let folded = fold_expr(e);
        assert_eq!(
            folded,
            Expr::binary(Expr::lit(6i64), BinOp::Add, Expr::col("x"))
        );
    }

    #[test]
    fn filter_lands_in_scan() {
        let p = optimized("SELECT id FROM orders WHERE amount > 10");
        let txt = p.display_indent();
        // No standalone Filter node; predicate embedded in scan.
        assert!(!txt.contains("\nFilter"), "{txt}");
        assert!(txt.contains("Scan: orders"), "{txt}");
        assert!(txt.contains("filter="), "{txt}");
    }

    #[test]
    fn join_pushdown_splits_sides() {
        let p = optimized(
            "SELECT o.id FROM orders o JOIN users u ON o.user_id = u.id \
             WHERE o.amount > 10 AND u.name = 'bob'",
        );
        let txt = p.display_indent();
        // Both scans should carry their own filter.
        let scan_lines: Vec<&str> = txt.lines().filter(|l| l.contains("Scan:")).collect();
        assert_eq!(scan_lines.len(), 2);
        assert!(scan_lines.iter().all(|l| l.contains("filter=")), "{txt}");
    }

    #[test]
    fn left_join_keeps_right_side_filters_above() {
        let p = optimized(
            "SELECT o.id FROM orders o LEFT JOIN users u ON o.user_id = u.id \
             WHERE u.name = 'bob'",
        );
        let txt = p.display_indent();
        // users scan must NOT have the filter; it stays above the join.
        let users_scan = txt.lines().find(|l| l.contains("Scan: users")).unwrap();
        assert!(!users_scan.contains("filter="), "{txt}");
        assert!(txt.contains("Filter:"), "{txt}");
    }

    #[test]
    fn projection_pruning_installs_indices() {
        let p = optimized("SELECT amount FROM orders");
        let txt = p.display_indent();
        assert!(txt.contains("projection=[2]"), "{txt}");
    }

    #[test]
    fn pruning_keeps_filter_columns() {
        let p = optimized("SELECT amount FROM orders WHERE id = 3");
        let txt = p.display_indent();
        // Needs both id (filter) and amount (projection).
        assert!(txt.contains("projection=[0, 2]"), "{txt}");
    }

    #[test]
    fn select_star_prunes_nothing() {
        let p = optimized("SELECT * FROM orders");
        let txt = p.display_indent();
        assert!(!txt.contains("projection="), "{txt}");
    }

    #[test]
    fn disabled_optimizer_is_identity() {
        let db = db();
        let stmt = match parse("SELECT id FROM orders WHERE amount > 2 + 3").unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let plan = Planner::new(&db).plan_select(&stmt).unwrap();
        let same = Optimizer::disabled().optimize(plan.clone()).unwrap();
        assert_eq!(plan, same);
    }

    #[test]
    fn split_and_join_conjuncts_roundtrip() {
        let e = Expr::binary(
            Expr::binary(Expr::col("a"), BinOp::Gt, Expr::lit(1i64)),
            BinOp::And,
            Expr::binary(Expr::col("b"), BinOp::Lt, Expr::lit(2i64)),
        );
        let parts: Vec<Expr> = e.conjuncts().into_iter().cloned().collect();
        assert_eq!(parts.len(), 2);
        let rebuilt = join_conjuncts(parts.clone()).unwrap();
        assert_eq!(rebuilt.conjuncts(), parts.iter().collect::<Vec<_>>());
        assert_eq!(rebuilt, e);
    }

    #[test]
    fn simplify_false_filter_empties_plan() {
        let db = db();
        let stmt = match parse("SELECT id FROM orders WHERE 1 = 2").unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let plan = Planner::new(&db).plan_select(&stmt).unwrap();
        // Fold to FALSE first, then simplify. Pushdown puts it in the scan,
        // so simplify before pushdown.
        let folded = fold_plan(plan).unwrap();
        let simplified = simplify_constant_filter(folded);
        let txt = simplified.display_indent();
        assert!(txt.contains("Values: 0"), "{txt}");
    }
}
