//! The recursive plan executor.
//!
//! Each node pulls the full output of its children (materialised execution;
//! fine for an in-memory engine). Joins pick a physical strategy at run
//! time: equi-join conjuncts in the `ON` clause trigger a **hash join**,
//! anything else falls back to a nested-loop join.
//!
//! Execution runs in two phases: `scan_plan` reads every table scan
//! from the catalog, then `finish_plan` runs the operators over the
//! owned batches without touching the catalog.

use std::collections::HashMap;

use crate::catalog::{Database, Table};
use crate::error::SqlError;
use crate::expr::{BinOp, Expr};
use crate::parser::JoinKind;
use crate::plan::logical::LogicalPlan;
use crate::row::{Row, RowBatch};
use crate::schema::SchemaRef;
use crate::value::{DataType, GroupKey, Value};

use super::aggregate::Accumulator;

/// Execute a logical plan to completion: `scan_plan`, then
/// `finish_plan` over the scanned rows.
pub fn execute_plan(plan: &LogicalPlan, db: &Database) -> Result<RowBatch, SqlError> {
    finish_plan(plan, scan_plan(plan, db)?)
}

/// Phase 1: read every `Scan` node of `plan` from the catalog, in
/// [`LogicalPlan::scans`] order. This is the only phase that touches `db`.
pub(crate) fn scan_plan(plan: &LogicalPlan, db: &Database) -> Result<Vec<RowBatch>, SqlError> {
    plan.scans().into_iter().map(|scan| scan_table(scan, db)).collect()
}

/// Phase 2: run the plan's operators over batches from [`scan_plan`]. No
/// catalog access, so a caller may run it after releasing its lock.
pub(crate) fn finish_plan(plan: &LogicalPlan, scans: Vec<RowBatch>) -> Result<RowBatch, SqlError> {
    run(plan, &mut scans.into_iter())
}

/// Project and filter one table scan, narrowed by a fresh index when one
/// applies.
fn scan_table(scan: &LogicalPlan, db: &Database) -> Result<RowBatch, SqlError> {
    let LogicalPlan::Scan {
        table,
        schema,
        projection,
        filter,
        ..
    } = scan
    else {
        unreachable!("scan_table takes Scan nodes");
    };
    let t = db.table(table)?;
    let mut rows = Vec::new();
    let mut emit = |row: &Row| -> Result<(), SqlError> {
        let projected = match projection {
            Some(idx) => Row::new(idx.iter().map(|&i| row[i].clone()).collect()),
            None => row.clone(),
        };
        if let Some(f) = filter {
            if !f.eval(&projected, schema)?.is_truthy() {
                return Ok(());
            }
        }
        rows.push(projected);
        Ok(())
    };
    if t.is_paged() {
        let pager = t.pager().expect("paged table");
        let heap = t.heap().expect("paged table");
        // Index path: equality or range conjuncts on a B+-tree
        // column narrow the scan to ascending row ordinals.
        let candidates = match filter {
            Some(f) => paged_index_candidates(t, schema, projection, f)?,
            None => None,
        };
        match candidates {
            Some(ords) => {
                let fetched = heap.fetch_many(&mut pager.pool(), &ords)?;
                for vals in fetched {
                    emit(&Row::new(vals))?;
                }
            }
            None => {
                // Stream page by page: resident memory stays
                // bounded by the pool, not the table.
                for i in 0..heap.page_count() {
                    for vals in heap.read_page(&mut pager.pool(), i)? {
                        emit(&Row::new(vals))?;
                    }
                }
            }
        }
        return Ok(RowBatch::new(schema.clone(), rows));
    }
    // Index path: an equality conjunct on an indexed column narrows
    // the scan to the index's posting list.
    let candidates = filter
        .as_ref()
        .and_then(|f| index_candidates(t, schema, projection, f));
    match candidates {
        Some(ids) => {
            for id in ids {
                emit(&t.rows[id])?;
            }
        }
        None => {
            for row in &t.rows {
                emit(row)?;
            }
        }
    }
    Ok(RowBatch::new(schema.clone(), rows))
}

/// The operator tree over pre-scanned batches, consumed in scan order.
fn run(
    plan: &LogicalPlan,
    scans: &mut std::vec::IntoIter<RowBatch>,
) -> Result<RowBatch, SqlError> {
    match plan {
        LogicalPlan::Scan { .. } => Ok(scans.next().expect("one batch per scan")),

        LogicalPlan::Union { inputs, dedupe } => {
            let schema = plan.schema();
            let mut rows = Vec::new();
            for input in inputs {
                let batch = run(input, scans)?;
                if batch.schema.len() != schema.len() {
                    return Err(SqlError::Execution(format!(
                        "UNION arm arity mismatch: {} vs {}",
                        schema.len(),
                        batch.schema.len()
                    )));
                }
                rows.extend(batch.rows);
            }
            if *dedupe {
                let mut seen: std::collections::HashSet<Vec<GroupKey>> =
                    std::collections::HashSet::new();
                rows.retain(|r| {
                    let key: Vec<GroupKey> =
                        r.values().iter().map(Value::group_key).collect();
                    seen.insert(key)
                });
            }
            Ok(RowBatch::new(schema, rows))
        }

        LogicalPlan::Values { schema, rows } => Ok(RowBatch::new(
            schema.clone(),
            (0..*rows).map(|_| Row::default()).collect(),
        )),

        LogicalPlan::Filter { input, predicate } => {
            let batch = run(input, scans)?;
            let mut rows = Vec::with_capacity(batch.rows.len());
            for row in batch.rows {
                if predicate.eval(&row, &batch.schema)?.is_truthy() {
                    rows.push(row);
                }
            }
            Ok(RowBatch::new(batch.schema, rows))
        }

        LogicalPlan::Project { input, exprs } => {
            let batch = run(input, scans)?;
            let out_schema = plan.schema();
            let mut rows = Vec::with_capacity(batch.rows.len());
            for row in &batch.rows {
                let mut vals = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    vals.push(e.eval(row, &batch.schema)?);
                }
                rows.push(Row::new(vals));
            }
            Ok(RowBatch::new(out_schema, rows))
        }

        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => execute_join(left, right, *kind, on, scans),

        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => {
            let batch = run(input, scans)?;
            let out_schema = plan.schema();
            // Group rows by key; keep first-seen order for determinism.
            let mut order: Vec<Vec<GroupKey>> = Vec::new();
            let mut groups: HashMap<Vec<GroupKey>, (Row, Vec<Accumulator>)> = HashMap::new();
            for row in &batch.rows {
                let mut key = Vec::with_capacity(group_exprs.len());
                let mut key_vals = Vec::with_capacity(group_exprs.len());
                for (e, _) in group_exprs {
                    let v = e.eval(row, &batch.schema)?;
                    key.push(v.group_key());
                    key_vals.push(v);
                }
                let entry = groups.entry(key.clone()).or_insert_with(|| {
                    order.push(key.clone());
                    (
                        Row::new(key_vals),
                        aggregates
                            .iter()
                            .map(|(f, _, _)| Accumulator::new(*f))
                            .collect(),
                    )
                });
                for ((_, arg, _), acc) in aggregates.iter().zip(entry.1.iter_mut()) {
                    let v = match arg {
                        Expr::Wildcard => Value::Int(1), // ignored by COUNT(*)
                        e => e.eval(row, &batch.schema)?,
                    };
                    acc.update(&v)?;
                }
            }
            // Global aggregate over empty input still emits one row.
            if groups.is_empty() && group_exprs.is_empty() {
                let accs: Vec<Accumulator> = aggregates
                    .iter()
                    .map(|(f, _, _)| Accumulator::new(*f))
                    .collect();
                let vals: Vec<Value> = accs.iter().map(Accumulator::finish).collect();
                return Ok(RowBatch::new(out_schema, vec![Row::new(vals)]));
            }
            let mut rows = Vec::with_capacity(order.len());
            for key in order {
                let (key_row, accs) = groups.remove(&key).expect("group vanished");
                let mut vals = key_row.into_values();
                vals.extend(accs.iter().map(Accumulator::finish));
                rows.push(Row::new(vals));
            }
            Ok(RowBatch::new(out_schema, rows))
        }

        LogicalPlan::Sort { input, keys } => {
            let mut batch = run(input, scans)?;
            batch.rows.sort_by(|a, b| {
                for (idx, desc) in keys {
                    let ord = a[*idx].total_cmp(&b[*idx]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(batch)
        }

        LogicalPlan::Strip { input, keep } => {
            let batch = run(input, scans)?;
            let out_schema = plan.schema();
            let rows = batch
                .rows
                .into_iter()
                .map(|r| {
                    let mut vals = r.into_values();
                    vals.truncate(*keep);
                    Row::new(vals)
                })
                .collect();
            Ok(RowBatch::new(out_schema, rows))
        }

        LogicalPlan::Distinct { input } => {
            let batch = run(input, scans)?;
            let mut seen: HashMap<Vec<GroupKey>, ()> = HashMap::new();
            let mut rows = Vec::new();
            for row in batch.rows {
                let key: Vec<GroupKey> = row.values().iter().map(Value::group_key).collect();
                if seen.insert(key, ()).is_none() {
                    rows.push(row);
                }
            }
            Ok(RowBatch::new(batch.schema, rows))
        }

        LogicalPlan::Limit { input, n } => {
            let mut batch = run(input, scans)?;
            batch.rows.truncate(*n);
            Ok(batch)
        }
    }
}

/// If `filter` contains an equality conjunct `col = literal` whose column
/// carries a fresh hash index, return the matching row positions.
fn index_candidates(
    t: &Table,
    schema: &SchemaRef,
    projection: &Option<Vec<usize>>,
    filter: &Expr,
) -> Option<Vec<usize>> {
    let mut conjuncts = Vec::new();
    fn split(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } => {
                split(left, out);
                split(right, out);
            }
            other => out.push(other.clone()),
        }
    }
    split(filter, &mut conjuncts);
    for c in &conjuncts {
        let Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        let (col, value) = match (left.as_ref(), right.as_ref()) {
            (Expr::Column { table, name }, Expr::Literal(v)) => ((table, name), v),
            (Expr::Literal(v), Expr::Column { table, name }) => ((table, name), v),
            _ => continue,
        };
        let Ok(scan_pos) = schema.resolve(col.0.as_deref(), col.1) else {
            continue;
        };
        let base_pos = match projection {
            Some(p) => p[scan_pos],
            None => scan_pos,
        };
        if let Some(idx) = t.index_if_fresh(base_pos) {
            return Some(idx.lookup(value).to_vec());
        }
    }
    None
}

/// What a single conjunct contributes to a paged index probe.
enum PagedProbe {
    /// Conjunct can't use the tree — try the next one.
    Skip,
    /// Conjunct can never be truthy — the scan yields nothing.
    Empty,
    /// Probe the tree with these bounds.
    Range(std::ops::Bound<Value>, std::ops::Bound<Value>),
}

/// Convert a comparison against `lit` on a column of type `ty` into B+-tree
/// bounds. `op` is normalised so the column is on the left. Cross-type
/// Int/Float comparisons are rewritten into same-type bounds so the probe
/// never under-selects; anything not provably safe falls back to a full
/// scan (`Skip`). The filter re-checks every candidate, so over-selection
/// is always fine.
fn paged_bounds(op: BinOp, lit: &Value, ty: DataType) -> PagedProbe {
    use std::ops::Bound::{Excluded, Included, Unbounded};
    let same = matches!(
        (lit, ty),
        (Value::Int(_), DataType::Int)
            | (Value::Float(_), DataType::Float)
            | (Value::Text(_), DataType::Text)
            | (Value::Bool(_), DataType::Bool)
    );
    if same {
        if let Value::Float(f) = lit {
            if f.is_nan() {
                return PagedProbe::Skip;
            }
        }
        let v = lit.clone();
        return match op {
            BinOp::Eq => PagedProbe::Range(Included(v.clone()), Included(v)),
            BinOp::Gt => PagedProbe::Range(Excluded(v), Unbounded),
            BinOp::Ge => PagedProbe::Range(Included(v), Unbounded),
            BinOp::Lt => PagedProbe::Range(Unbounded, Excluded(v)),
            BinOp::Le => PagedProbe::Range(Unbounded, Included(v)),
            _ => PagedProbe::Skip,
        };
    }
    match (lit, ty) {
        // Int literal against a Float column: exact as f64 for |i| < 2^53,
        // and the engine's comparison semantics already go through the same
        // widening, so bounds stay aligned with the filter.
        (Value::Int(i), DataType::Float) => paged_bounds(op, &Value::Float(*i as f64), ty),
        (Value::Float(f), DataType::Int) => {
            if !f.is_finite() || *f < -(2f64.powi(63)) || *f >= 2f64.powi(63) {
                return PagedProbe::Skip;
            }
            let whole = f.fract() == 0.0;
            match op {
                BinOp::Eq if whole => {
                    let v = Value::Int(*f as i64);
                    PagedProbe::Range(Included(v.clone()), Included(v))
                }
                BinOp::Eq => PagedProbe::Empty,
                BinOp::Gt | BinOp::Ge => {
                    let lo = if whole {
                        let v = Value::Int(*f as i64);
                        if op == BinOp::Gt {
                            Excluded(v)
                        } else {
                            Included(v)
                        }
                    } else {
                        // fract != 0 implies |f| < 2^52, so ceil/floor stay
                        // comfortably inside i64.
                        Included(Value::Int(f.ceil() as i64))
                    };
                    PagedProbe::Range(lo, Unbounded)
                }
                BinOp::Lt | BinOp::Le => {
                    let hi = if whole {
                        let v = Value::Int(*f as i64);
                        if op == BinOp::Lt {
                            Excluded(v)
                        } else {
                            Included(v)
                        }
                    } else {
                        Included(Value::Int(f.floor() as i64))
                    };
                    PagedProbe::Range(Unbounded, hi)
                }
                _ => PagedProbe::Skip,
            }
        }
        _ => PagedProbe::Skip,
    }
}

/// If `filter` contains an equality or range conjunct on a column carrying a
/// fresh B+-tree, return matching row ordinals (ascending). `Ok(None)` means
/// fall back to a full heap scan.
fn paged_index_candidates(
    t: &Table,
    schema: &SchemaRef,
    projection: &Option<Vec<usize>>,
    filter: &Expr,
) -> Result<Option<Vec<usize>>, SqlError> {
    let (Some(heap), Some(pager)) = (t.heap(), t.pager()) else {
        return Ok(None);
    };
    let mut conjuncts = Vec::new();
    fn split(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } => {
                split(left, out);
                split(right, out);
            }
            other => out.push(other.clone()),
        }
    }
    split(filter, &mut conjuncts);
    // Resolve a column expression to its base-table position.
    let base_pos = |table: &Option<String>, name: &String| -> Option<usize> {
        let scan_pos = schema.resolve(table.as_deref(), name).ok()?;
        Some(match projection {
            Some(p) => p[scan_pos],
            None => scan_pos,
        })
    };
    for c in &conjuncts {
        let probe = match c {
            Expr::Binary { left, op, right }
                if matches!(
                    op,
                    BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                ) =>
            {
                // Normalise `lit OP col` to `col FLIP(OP) lit`.
                let (pos, norm_op, lit) = match (left.as_ref(), right.as_ref()) {
                    (Expr::Column { table, name }, Expr::Literal(v)) => {
                        match base_pos(table, name) {
                            Some(p) => (p, *op, v),
                            None => continue,
                        }
                    }
                    (Expr::Literal(v), Expr::Column { table, name }) => {
                        let flipped = match op {
                            BinOp::Eq => BinOp::Eq,
                            BinOp::Lt => BinOp::Gt,
                            BinOp::Le => BinOp::Ge,
                            BinOp::Gt => BinOp::Lt,
                            BinOp::Ge => BinOp::Le,
                            _ => unreachable!(),
                        };
                        match base_pos(table, name) {
                            Some(p) => (p, flipped, v),
                            None => continue,
                        }
                    }
                    _ => continue,
                };
                if lit.is_null() {
                    continue;
                }
                let Some(tree) = t.btree_if_fresh(pos) else {
                    continue;
                };
                let ty = t.schema.columns()[pos].data_type;
                (tree, paged_bounds(norm_op, lit, ty))
            }
            Expr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                let (Expr::Column { table, name }, Expr::Literal(lo), Expr::Literal(hi)) =
                    (expr.as_ref(), low.as_ref(), high.as_ref())
                else {
                    continue;
                };
                let Some(pos) = base_pos(table, name) else {
                    continue;
                };
                if lo.is_null() || hi.is_null() {
                    continue;
                }
                let Some(tree) = t.btree_if_fresh(pos) else {
                    continue;
                };
                let ty = t.schema.columns()[pos].data_type;
                let probe = match (
                    paged_bounds(BinOp::Ge, lo, ty),
                    paged_bounds(BinOp::Le, hi, ty),
                ) {
                    (PagedProbe::Empty, _) | (_, PagedProbe::Empty) => PagedProbe::Empty,
                    (PagedProbe::Range(l, _), PagedProbe::Range(_, h)) => PagedProbe::Range(l, h),
                    _ => PagedProbe::Skip,
                };
                (tree, probe)
            }
            _ => continue,
        };
        let (tree, probe) = probe;
        match probe {
            PagedProbe::Skip => continue,
            PagedProbe::Empty => return Ok(Some(Vec::new())),
            PagedProbe::Range(lo, hi) => {
                fn as_ref(b: &std::ops::Bound<Value>) -> std::ops::Bound<&Value> {
                    match b {
                        std::ops::Bound::Included(v) => std::ops::Bound::Included(v),
                        std::ops::Bound::Excluded(v) => std::ops::Bound::Excluded(v),
                        std::ops::Bound::Unbounded => std::ops::Bound::Unbounded,
                    }
                }
                let mut ords = tree.range(&mut pager.pool(), as_ref(&lo), as_ref(&hi))?;
                // Defensive: a stale-but-unmarked tree could carry ordinals
                // past the current heap; a full scan would never see them.
                ords.retain(|&o| o < heap.len());
                return Ok(Some(ords));
            }
        }
    }
    Ok(None)
}

/// Equi-join key pairs extracted from an ON conjunction, plus the residual
/// predicate that must still be evaluated per candidate pair. Shared with
/// the vectorized executor so both pick the same physical join.
pub(super) struct JoinKeys {
    pub(super) left_exprs: Vec<Expr>,
    pub(super) right_exprs: Vec<Expr>,
    pub(super) residual: Option<Expr>,
}

/// Pull `l.x = r.y` style conjuncts out of `on`.
pub(super) fn extract_equi_keys(on: &Expr, lschema: &SchemaRef, rschema: &SchemaRef) -> JoinKeys {
    fn bound_by(e: &Expr, schema: &SchemaRef) -> bool {
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        !cols.is_empty()
            && cols
                .iter()
                .all(|(t, n)| schema.resolve(t.as_deref(), n).is_ok())
    }
    let mut conjuncts = Vec::new();
    fn split(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } => {
                split(left, out);
                split(right, out);
            }
            other => out.push(other.clone()),
        }
    }
    split(on, &mut conjuncts);

    let mut keys = JoinKeys {
        left_exprs: Vec::new(),
        right_exprs: Vec::new(),
        residual: None,
    };
    let mut residuals = Vec::new();
    for c in conjuncts {
        if let Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = &c
        {
            if bound_by(left, lschema) && bound_by(right, rschema) {
                keys.left_exprs.push((**left).clone());
                keys.right_exprs.push((**right).clone());
                continue;
            }
            if bound_by(right, lschema) && bound_by(left, rschema) {
                keys.left_exprs.push((**right).clone());
                keys.right_exprs.push((**left).clone());
                continue;
            }
        }
        residuals.push(c);
    }
    keys.residual = residuals.into_iter().reduce(|a, b| Expr::binary(a, BinOp::And, b));
    keys
}

fn execute_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    kind: JoinKind,
    on: &Expr,
    scans: &mut std::vec::IntoIter<RowBatch>,
) -> Result<RowBatch, SqlError> {
    let lbatch = run(left, scans)?;
    let rbatch = run(right, scans)?;
    let out_schema = SchemaRef::new(lbatch.schema.join(&rbatch.schema));
    let keys = extract_equi_keys(on, &lbatch.schema, &rbatch.schema);

    let mut rows = Vec::new();
    if !keys.left_exprs.is_empty() {
        // Hash join: build on the right side.
        let mut table: HashMap<Vec<GroupKey>, Vec<usize>> = HashMap::new();
        for (i, rrow) in rbatch.rows.iter().enumerate() {
            let mut key = Vec::with_capacity(keys.right_exprs.len());
            let mut null_key = false;
            for e in &keys.right_exprs {
                let v = e.eval(rrow, &rbatch.schema)?;
                if v.is_null() {
                    null_key = true;
                    break;
                }
                key.push(v.group_key());
            }
            if !null_key {
                table.entry(key).or_default().push(i);
            }
        }
        for lrow in &lbatch.rows {
            let mut key = Vec::with_capacity(keys.left_exprs.len());
            let mut null_key = false;
            for e in &keys.left_exprs {
                let v = e.eval(lrow, &lbatch.schema)?;
                if v.is_null() {
                    null_key = true;
                    break;
                }
                key.push(v.group_key());
            }
            let mut matched = false;
            if !null_key {
                if let Some(candidates) = table.get(&key) {
                    for &ri in candidates {
                        let joined = lrow.join(&rbatch.rows[ri]);
                        let ok = match &keys.residual {
                            Some(p) => p.eval(&joined, &out_schema)?.is_truthy(),
                            None => true,
                        };
                        if ok {
                            rows.push(joined);
                            matched = true;
                        }
                    }
                }
            }
            if !matched && kind == JoinKind::Left {
                let pad = Row::new(vec![Value::Null; rbatch.schema.len()]);
                rows.push(lrow.join(&pad));
            }
        }
    } else {
        // Nested-loop join.
        for lrow in &lbatch.rows {
            let mut matched = false;
            for rrow in &rbatch.rows {
                let joined = lrow.join(rrow);
                if on.eval(&joined, &out_schema)?.is_truthy() {
                    rows.push(joined);
                    matched = true;
                }
            }
            if !matched && kind == JoinKind::Left {
                let pad = Row::new(vec![Value::Null; rbatch.schema.len()]);
                rows.push(lrow.join(&pad));
            }
        }
    }
    Ok(RowBatch::new(out_schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::parser::{parse, Statement};
    use crate::plan::logical::Planner;
    use crate::plan::optimizer::Optimizer;
    use crate::schema::{Column, Schema};
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
        {
            let t = db.table_mut("orders").unwrap();
            for (id, uid, amt, cat) in [
                (1, 1, 10.0, "books"),
                (2, 1, 20.0, "tech"),
                (3, 2, 30.0, "books"),
                (4, 3, 40.0, "tech"),
            ] {
                t.insert_row(vec![
                    Value::Int(id),
                    Value::Int(uid),
                    Value::Float(amt),
                    Value::Text(cat.into()),
                ])
                .unwrap();
            }
        }
        {
            let t = db.table_mut("users").unwrap();
            for (id, name) in [(1, "alice"), (2, "bob")] {
                t.insert_row(vec![Value::Int(id), Value::Text(name.into())])
                    .unwrap();
            }
        }
        db
    }

    fn run(sql: &str) -> RowBatch {
        let db = db();
        let stmt = match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let plan = Planner::new(&db).plan_select(&stmt).unwrap();
        let plan = Optimizer::new().optimize(plan).unwrap();
        execute_plan(&plan, &db).unwrap()
    }

    fn cell(b: &RowBatch, r: usize, c: usize) -> String {
        b.rows[r][c].to_string()
    }

    #[test]
    fn scan_filter_project() {
        let b = run("SELECT id FROM orders WHERE amount > 15");
        assert_eq!(b.len(), 3);
        assert_eq!(cell(&b, 0, 0), "2");
    }

    #[test]
    fn inner_hash_join() {
        let b = run(
            "SELECT o.id, u.name FROM orders o JOIN users u ON o.user_id = u.id ORDER BY o.id",
        );
        assert_eq!(b.len(), 3); // order 4 has no user
        assert_eq!(cell(&b, 0, 1), "alice");
        assert_eq!(cell(&b, 2, 1), "bob");
    }

    #[test]
    fn left_join_pads_nulls() {
        let b = run(
            "SELECT o.id, u.name FROM orders o LEFT JOIN users u ON o.user_id = u.id ORDER BY o.id",
        );
        assert_eq!(b.len(), 4);
        assert_eq!(cell(&b, 3, 1), "NULL");
    }

    #[test]
    fn nested_loop_join_on_inequality() {
        let b = run("SELECT o.id FROM orders o JOIN users u ON o.user_id < u.id");
        // user_id 1 < 2 (orders 1,2). user_id 2,3: no.
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn join_with_residual_condition() {
        let b = run(
            "SELECT o.id FROM orders o JOIN users u ON o.user_id = u.id AND o.amount > 15",
        );
        assert_eq!(b.len(), 2); // orders 2 and 3
    }

    #[test]
    fn group_by_with_aggregates() {
        let b = run(
            "SELECT category, COUNT(*), SUM(amount) FROM orders GROUP BY category ORDER BY category",
        );
        assert_eq!(b.len(), 2);
        assert_eq!(cell(&b, 0, 0), "books");
        assert_eq!(cell(&b, 0, 1), "2");
        assert_eq!(cell(&b, 0, 2), "40.0");
        assert_eq!(cell(&b, 1, 2), "60.0");
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let b = run("SELECT COUNT(*), SUM(amount), MIN(amount) FROM orders WHERE id > 100");
        assert_eq!(b.len(), 1);
        assert_eq!(cell(&b, 0, 0), "0");
        assert_eq!(cell(&b, 0, 1), "NULL");
        assert_eq!(cell(&b, 0, 2), "NULL");
    }

    #[test]
    fn having_filters_groups() {
        let b = run(
            "SELECT category FROM orders GROUP BY category HAVING SUM(amount) > 50",
        );
        assert_eq!(b.len(), 1);
        assert_eq!(cell(&b, 0, 0), "tech");
    }

    #[test]
    fn order_by_desc_and_limit() {
        let b = run("SELECT id FROM orders ORDER BY amount DESC LIMIT 2");
        assert_eq!(b.len(), 2);
        assert_eq!(cell(&b, 0, 0), "4");
        assert_eq!(cell(&b, 1, 0), "3");
    }

    #[test]
    fn order_by_hidden_key_is_stripped() {
        let b = run("SELECT category FROM orders ORDER BY amount DESC");
        assert_eq!(b.schema.len(), 1);
        assert_eq!(cell(&b, 0, 0), "tech");
    }

    #[test]
    fn distinct_dedups() {
        let b = run("SELECT DISTINCT category FROM orders ORDER BY category");
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn select_expression_without_from() {
        let b = run("SELECT 2 * 21 AS answer");
        assert_eq!(b.len(), 1);
        assert_eq!(cell(&b, 0, 0), "42");
        assert_eq!(b.schema.columns()[0].name, "answer");
    }

    #[test]
    fn aggregate_expression_in_projection() {
        let b = run("SELECT SUM(amount) / COUNT(*) FROM orders");
        assert_eq!(cell(&b, 0, 0), "25.0");
    }

    #[test]
    fn scalar_function_in_query() {
        let b = run("SELECT UPPER(category) FROM orders WHERE id = 1");
        assert_eq!(cell(&b, 0, 0), "BOOKS");
    }

    #[test]
    fn join_null_keys_never_match() {
        let mut db = db();
        db.table_mut("orders")
            .unwrap()
            .insert_row(vec![
                Value::Int(5),
                Value::Null,
                Value::Float(1.0),
                Value::Text("misc".into()),
            ])
            .unwrap();
        let stmt = match parse(
            "SELECT o.id FROM orders o JOIN users u ON o.user_id = u.id",
        )
        .unwrap()
        {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let plan = Planner::new(&db).plan_select(&stmt).unwrap();
        let b = execute_plan(&plan, &db).unwrap();
        assert_eq!(b.len(), 3); // NULL user_id does not join
    }

    #[test]
    fn optimized_and_unoptimized_agree() {
        let db = db();
        let sqls = [
            "SELECT id FROM orders WHERE amount > 10 + 5",
            "SELECT o.id, u.name FROM orders o JOIN users u ON o.user_id = u.id WHERE u.name = 'alice' ORDER BY o.id",
            "SELECT category, SUM(amount) FROM orders GROUP BY category ORDER BY category",
            "SELECT DISTINCT category FROM orders ORDER BY category",
        ];
        for sql in sqls {
            let stmt = match parse(sql).unwrap() {
                Statement::Select(s) => s,
                other => panic!("{other:?}"),
            };
            let plan = Planner::new(&db).plan_select(&stmt).unwrap();
            let raw = execute_plan(&plan, &db).unwrap();
            let opt = Optimizer::new().optimize(plan).unwrap();
            let optimized = execute_plan(&opt, &db).unwrap();
            assert_eq!(raw.rows, optimized.rows, "plans disagree for {sql}");
        }
    }
}
