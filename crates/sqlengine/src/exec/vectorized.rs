//! The columnar (vectorized) plan executor.
//!
//! The logical plans are the same ones [`super::executor`] interprets;
//! only the physical representation changes. Tables are scanned as
//! [`Chunk`]s from the catalog's [`ColumnTable`] mirror, predicates run
//! via [`Expr::eval_batch`] producing **selection vectors** (row ids that
//! survive a filter), and aggregation folds typed columns through
//! [`Accumulator::update_col`]. Joins and sorts re-batch through column
//! gathers. As in the row executor, `scan_plan` reads the catalog and
//! `finish_plan` runs the operators on the scanned chunks.
//!
//! ## Equivalence contract
//!
//! For every plan, this executor must return the same `RowBatch` — same
//! rows, same order — as the row executor (property-tested in
//! `tests/columnar_props.rs`). Two deliberate asymmetries exist on
//! *error* paths only: when several rows would each raise an error, the
//! two executors may surface a different one of them (batch evaluation
//! is eager per operand where the row loop interleaves), and the row
//! executor's index-narrowed scans may skip a row whose filter would
//! error. Error *presence* on scans without index narrowing is
//! identical.

use std::collections::HashMap;

use crate::catalog::Database;
use crate::col::{Chunk, ColumnTable, ColumnVec, CHUNK_ROWS};
use crate::error::SqlError;
use crate::expr::Expr;
use crate::parser::JoinKind;
use crate::plan::logical::LogicalPlan;
use crate::row::{Row, RowBatch};
use crate::schema::SchemaRef;
use crate::value::{GroupKey, Value};

use super::aggregate::Accumulator;
use super::executor::extract_equi_keys;

/// Scan counters of one plan execution, exported to the `sql.exec` span
/// (see [`crate::engine::Engine::prepare`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Chunks read by table scans.
    pub chunks: u64,
    /// Rows read by table scans (pre-filter).
    pub rows_scanned: u64,
}

/// A schema plus column-major row chunks: the columnar counterpart of
/// [`RowBatch`] flowing between operators.
pub(crate) struct ColBatch {
    schema: SchemaRef,
    chunks: Vec<Chunk>,
}

impl ColBatch {
    fn rows(&self) -> usize {
        self.chunks.iter().map(|c| c.len).sum()
    }

    fn from_rows(schema: SchemaRef, rows: &[Row]) -> ColBatch {
        let width = schema.len();
        let chunks = if width == 0 {
            if rows.is_empty() {
                Vec::new()
            } else {
                vec![Chunk::zero_width(rows.len())]
            }
        } else {
            ColumnTable::from_rows(rows, width).into_chunks()
        };
        ColBatch { schema, chunks }
    }

    fn into_row_batch(self) -> RowBatch {
        let mut rows = Vec::with_capacity(self.rows());
        for chunk in &self.chunks {
            for i in 0..chunk.len {
                rows.push(chunk.row(i));
            }
        }
        RowBatch::new(self.schema, rows)
    }

    /// All chunks concatenated into one (for cross-chunk operators like
    /// sort). Zero-copy when there is a single chunk already.
    fn concat(&self) -> Chunk {
        if self.chunks.len() == 1 {
            return self.chunks[0].clone();
        }
        let total = self.rows();
        let width = self.schema.len();
        let mut columns = Vec::with_capacity(width);
        for c in 0..width {
            let parts: Vec<&ColumnVec> =
                self.chunks.iter().map(|ch| &ch.columns[c]).collect();
            columns.push(ColumnVec::concat(&parts));
        }
        Chunk::new(columns, total)
    }
}

/// Execute a logical plan with the columnar executor.
///
/// Scans read the catalog's columnar mirror when it is fresh (see
/// [`crate::catalog::Table::refresh_columnar`]) and fall back to a
/// one-shot conversion of row storage otherwise, so results never depend
/// on cache state.
pub fn execute_plan_columnar(
    plan: &LogicalPlan,
    db: &Database,
) -> Result<RowBatch, SqlError> {
    let mut stats = ExecStats::default();
    execute_plan_columnar_with_stats(plan, db, &mut stats)
}

/// [`execute_plan_columnar`] with scan counters reported into `stats`.
pub fn execute_plan_columnar_with_stats(
    plan: &LogicalPlan,
    db: &Database,
    stats: &mut ExecStats,
) -> Result<RowBatch, SqlError> {
    finish_plan(plan, scan_plan(plan, db, stats)?)
}

/// Phase 1: read every `Scan` node of `plan` from the catalog, in
/// [`LogicalPlan::scans`] order. This is the only phase that touches `db`.
pub(crate) fn scan_plan(
    plan: &LogicalPlan,
    db: &Database,
    stats: &mut ExecStats,
) -> Result<Vec<ColBatch>, SqlError> {
    plan.scans()
        .into_iter()
        .map(|scan| scan_table(scan, db, stats))
        .collect()
}

/// Phase 2: run the plan's operators over batches from [`scan_plan`]. No
/// catalog access, so a caller may run it after releasing its lock.
pub(crate) fn finish_plan(plan: &LogicalPlan, scans: Vec<ColBatch>) -> Result<RowBatch, SqlError> {
    Ok(exec(plan, &mut scans.into_iter())?.into_row_batch())
}

/// Project and filter one table scan, chunk by chunk.
fn scan_table(
    scan: &LogicalPlan,
    db: &Database,
    stats: &mut ExecStats,
) -> Result<ColBatch, SqlError> {
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
    // One scan chunk: project, filter, keep survivors. Shared by
    // the mirror path and the paged streaming path below.
    let mut chunks = Vec::new();
    let scan_chunk = |chunk: &Chunk,
                      stats: &mut ExecStats,
                      chunks: &mut Vec<Chunk>|
     -> Result<(), SqlError> {
        stats.chunks += 1;
        stats.rows_scanned += chunk.len as u64;
        // Match the row executor: project first, filter on the
        // projected row shape.
        let projected = match projection {
            Some(idx) => chunk.project(idx),
            None => chunk.clone(),
        };
        let kept = match filter {
            Some(f) => {
                let mask = f.eval_batch(&projected, schema, None)?;
                let sel = truthy_selection(&mask);
                match sel {
                    Some(sel) => projected.gather(&sel),
                    None => projected,
                }
            }
            None => projected,
        };
        if !kept.is_empty() {
            chunks.push(kept);
        }
        Ok(())
    };
    if t.is_paged() {
        // Paged tables have no columnar mirror; stream heap pages
        // through the buffer pool, re-batching rows into
        // CHUNK_ROWS-row chunks so chunk boundaries match the
        // in-memory mirror's.
        let pager = t.pager().expect("paged table");
        let heap = t.heap().expect("paged table");
        let width = t.schema.len();
        let mut buf: Vec<Row> = Vec::with_capacity(CHUNK_ROWS);
        for i in 0..heap.page_count() {
            for vals in heap.read_page(&mut pager.pool(), i)? {
                buf.push(Row::new(vals));
                if buf.len() == CHUNK_ROWS {
                    let ct = ColumnTable::from_rows(&buf, width);
                    for chunk in ct.chunks() {
                        scan_chunk(chunk, stats, &mut chunks)?;
                    }
                    buf.clear();
                }
            }
        }
        if !buf.is_empty() {
            let ct = ColumnTable::from_rows(&buf, width);
            for chunk in ct.chunks() {
                scan_chunk(chunk, stats, &mut chunks)?;
            }
        }
        return Ok(ColBatch {
            schema: schema.clone(),
            chunks,
        });
    }
    let fallback;
    let ct: &ColumnTable = match t.columnar() {
        Some(ct) => ct,
        None => {
            fallback = ColumnTable::from_rows(&t.rows, t.schema.len());
            &fallback
        }
    };
    for chunk in ct.chunks() {
        scan_chunk(chunk, stats, &mut chunks)?;
    }
    Ok(ColBatch {
        schema: schema.clone(),
        chunks,
    })
}

/// The operator tree over pre-scanned batches, consumed in scan order.
fn exec(
    plan: &LogicalPlan,
    scans: &mut std::vec::IntoIter<ColBatch>,
) -> Result<ColBatch, SqlError> {
    match plan {
        LogicalPlan::Scan { .. } => Ok(scans.next().expect("one batch per scan")),

        LogicalPlan::Values { schema, rows } => Ok(ColBatch {
            schema: schema.clone(),
            chunks: if *rows == 0 {
                Vec::new()
            } else {
                vec![Chunk::zero_width(*rows)]
            },
        }),

        LogicalPlan::Filter { input, predicate } => {
            let batch = exec(input, scans)?;
            let mut chunks = Vec::with_capacity(batch.chunks.len());
            for chunk in &batch.chunks {
                let mask = predicate.eval_batch(chunk, &batch.schema, None)?;
                let kept = match truthy_selection(&mask) {
                    Some(sel) => chunk.gather(&sel),
                    None => chunk.clone(),
                };
                if !kept.is_empty() {
                    chunks.push(kept);
                }
            }
            Ok(ColBatch {
                schema: batch.schema,
                chunks,
            })
        }

        LogicalPlan::Project { input, exprs } => {
            let batch = exec(input, scans)?;
            let out_schema = plan.schema();
            let mut chunks = Vec::with_capacity(batch.chunks.len());
            for chunk in &batch.chunks {
                let mut columns = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    columns.push(e.eval_batch(chunk, &batch.schema, None)?);
                }
                chunks.push(Chunk::new(columns, chunk.len));
            }
            Ok(ColBatch {
                schema: out_schema,
                chunks,
            })
        }

        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => exec_join(left, right, *kind, on, scans),

        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => {
            let batch = exec(input, scans)?;
            let out_schema = plan.schema();
            let mut order: Vec<Vec<GroupKey>> = Vec::new();
            let mut groups: HashMap<Vec<GroupKey>, (Row, Vec<Accumulator>)> =
                HashMap::new();
            for chunk in &batch.chunks {
                let mut key_cols = Vec::with_capacity(group_exprs.len());
                for (e, _) in group_exprs {
                    key_cols.push(e.eval_batch(chunk, &batch.schema, None)?);
                }
                // `None` marks `COUNT(*)` whose argument is never evaluated.
                let mut agg_cols: Vec<Option<ColumnVec>> =
                    Vec::with_capacity(aggregates.len());
                for (_, arg, _) in aggregates {
                    agg_cols.push(match arg {
                        Expr::Wildcard => None,
                        e => Some(e.eval_batch(chunk, &batch.schema, None)?),
                    });
                }
                for i in 0..chunk.len {
                    let key: Vec<GroupKey> =
                        key_cols.iter().map(|c| c.group_key_at(i)).collect();
                    let entry = groups.entry(key.clone()).or_insert_with(|| {
                        order.push(key.clone());
                        (
                            Row::new(key_cols.iter().map(|c| c.value_at(i)).collect()),
                            aggregates
                                .iter()
                                .map(|(f, _, _)| Accumulator::new(*f))
                                .collect(),
                        )
                    });
                    for (col, acc) in agg_cols.iter().zip(entry.1.iter_mut()) {
                        match col {
                            Some(c) => acc.update_col(c, i)?,
                            None => acc.update(&Value::Int(1))?,
                        }
                    }
                }
            }
            if groups.is_empty() && group_exprs.is_empty() {
                let accs: Vec<Accumulator> = aggregates
                    .iter()
                    .map(|(f, _, _)| Accumulator::new(*f))
                    .collect();
                let vals: Vec<Value> = accs.iter().map(Accumulator::finish).collect();
                return Ok(ColBatch::from_rows(out_schema, &[Row::new(vals)]));
            }
            let mut rows = Vec::with_capacity(order.len());
            for key in order {
                let (key_row, accs) = groups.remove(&key).expect("group vanished");
                let mut vals = key_row.into_values();
                vals.extend(accs.iter().map(Accumulator::finish));
                rows.push(Row::new(vals));
            }
            Ok(ColBatch::from_rows(out_schema, &rows))
        }

        LogicalPlan::Sort { input, keys } => {
            let batch = exec(input, scans)?;
            let chunk = batch.concat();
            let mut idx: Vec<u32> = (0..chunk.len as u32).collect();
            idx.sort_by(|&a, &b| {
                for (col, desc) in keys {
                    let ord = chunk.columns[*col]
                        .value_at(a as usize)
                        .total_cmp(&chunk.columns[*col].value_at(b as usize));
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let sorted = chunk.gather(&idx);
            Ok(ColBatch {
                schema: batch.schema,
                chunks: if sorted.is_empty() { Vec::new() } else { vec![sorted] },
            })
        }

        LogicalPlan::Strip { input, keep } => {
            let batch = exec(input, scans)?;
            let out_schema = plan.schema();
            let cols: Vec<usize> = (0..*keep).collect();
            let chunks = batch.chunks.iter().map(|c| c.project(&cols)).collect();
            Ok(ColBatch {
                schema: out_schema,
                chunks,
            })
        }

        LogicalPlan::Distinct { input } => {
            let batch = exec(input, scans)?;
            let mut seen: HashMap<Vec<GroupKey>, ()> = HashMap::new();
            let chunks = dedupe_chunks(&batch.chunks, &mut seen);
            Ok(ColBatch {
                schema: batch.schema,
                chunks,
            })
        }

        LogicalPlan::Limit { input, n } => {
            let batch = exec(input, scans)?;
            let mut chunks = Vec::new();
            let mut remaining = *n;
            for chunk in &batch.chunks {
                if remaining == 0 {
                    break;
                }
                if chunk.len <= remaining {
                    remaining -= chunk.len;
                    chunks.push(chunk.clone());
                } else {
                    let idx: Vec<u32> = (0..remaining as u32).collect();
                    chunks.push(chunk.gather(&idx));
                    remaining = 0;
                }
            }
            Ok(ColBatch {
                schema: batch.schema,
                chunks,
            })
        }

        LogicalPlan::Union { inputs, dedupe } => {
            let schema = plan.schema();
            let mut chunks = Vec::new();
            for input in inputs {
                let batch = exec(input, scans)?;
                if batch.schema.len() != schema.len() {
                    return Err(SqlError::Execution(format!(
                        "UNION arm arity mismatch: {} vs {}",
                        schema.len(),
                        batch.schema.len()
                    )));
                }
                chunks.extend(batch.chunks);
            }
            if *dedupe {
                let mut seen: HashMap<Vec<GroupKey>, ()> = HashMap::new();
                chunks = dedupe_chunks(&chunks, &mut seen);
            }
            Ok(ColBatch { schema, chunks })
        }
    }
}

/// Selection vector of rows where `mask` is `TRUE` (SQL truthiness: NULL
/// and non-boolean values do not qualify). Returns `None` when every row
/// qualifies, so callers can skip the gather.
fn truthy_selection(mask: &ColumnVec) -> Option<Vec<u32>> {
    let n = mask.len();
    let mut sel = Vec::with_capacity(n);
    match mask {
        ColumnVec::Bool { data, nulls } => {
            if !nulls.any_null() && data.iter().all(|&b| b) {
                return None;
            }
            for (i, &b) in data.iter().enumerate() {
                if b && !nulls.is_null(i) {
                    sel.push(i as u32);
                }
            }
        }
        other => {
            for i in 0..n {
                if other.value_at(i).is_truthy() {
                    sel.push(i as u32);
                }
            }
            if sel.len() == n {
                return None;
            }
        }
    }
    Some(sel)
}

/// Keep only first occurrences (by whole-row [`GroupKey`]) across chunks.
fn dedupe_chunks(
    chunks: &[Chunk],
    seen: &mut HashMap<Vec<GroupKey>, ()>,
) -> Vec<Chunk> {
    let mut out = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let mut sel = Vec::with_capacity(chunk.len);
        for i in 0..chunk.len {
            let key: Vec<GroupKey> =
                chunk.columns.iter().map(|c| c.group_key_at(i)).collect();
            if seen.insert(key, ()).is_none() {
                sel.push(i as u32);
            }
        }
        let kept = if sel.len() == chunk.len {
            chunk.clone()
        } else {
            chunk.gather(&sel)
        };
        if !kept.is_empty() {
            out.push(kept);
        }
    }
    out
}

fn exec_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    kind: JoinKind,
    on: &Expr,
    scans: &mut std::vec::IntoIter<ColBatch>,
) -> Result<ColBatch, SqlError> {
    let lbatch = exec(left, scans)?;
    let rbatch = exec(right, scans)?;
    let out_schema = SchemaRef::new(lbatch.schema.join(&rbatch.schema));
    let keys = extract_equi_keys(on, &lbatch.schema, &rbatch.schema);

    // The probe/pad logic below materialises joined rows; join output is
    // usually far smaller than its inputs, so this is where the row
    // format re-enters.
    let mut rows = Vec::new();
    let rwidth = rbatch.schema.len();

    if !keys.left_exprs.is_empty() {
        // Hash join: build on the right side, keyed by vectorized key
        // columns. NULL in any key never matches (SQL equality).
        let mut rrows: Vec<Row> = Vec::with_capacity(rbatch.rows());
        let mut table: HashMap<Vec<GroupKey>, Vec<u32>> = HashMap::new();
        for chunk in &rbatch.chunks {
            let mut key_cols = Vec::with_capacity(keys.right_exprs.len());
            for e in &keys.right_exprs {
                key_cols.push(e.eval_batch(chunk, &rbatch.schema, None)?);
            }
            for i in 0..chunk.len {
                let global = rrows.len() as u32;
                rrows.push(chunk.row(i));
                if key_cols.iter().any(|c| c.is_null(i)) {
                    continue;
                }
                let key: Vec<GroupKey> =
                    key_cols.iter().map(|c| c.group_key_at(i)).collect();
                table.entry(key).or_default().push(global);
            }
        }
        for chunk in &lbatch.chunks {
            let mut key_cols = Vec::with_capacity(keys.left_exprs.len());
            for e in &keys.left_exprs {
                key_cols.push(e.eval_batch(chunk, &lbatch.schema, None)?);
            }
            for i in 0..chunk.len {
                let null_key = key_cols.iter().any(|c| c.is_null(i));
                let mut matched = false;
                if !null_key {
                    let key: Vec<GroupKey> =
                        key_cols.iter().map(|c| c.group_key_at(i)).collect();
                    if let Some(candidates) = table.get(&key) {
                        let lrow = chunk.row(i);
                        for &ri in candidates {
                            let joined = lrow.join(&rrows[ri as usize]);
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
                    let pad = Row::new(vec![Value::Null; rwidth]);
                    rows.push(chunk.row(i).join(&pad));
                }
            }
        }
    } else {
        // Nested-loop join, row-major like the row executor.
        let rrows: Vec<Row> = rbatch
            .chunks
            .iter()
            .flat_map(|c| (0..c.len).map(move |i| c.row(i)))
            .collect();
        for chunk in &lbatch.chunks {
            for i in 0..chunk.len {
                let lrow = chunk.row(i);
                let mut matched = false;
                for rrow in &rrows {
                    let joined = lrow.join(rrow);
                    if on.eval(&joined, &out_schema)?.is_truthy() {
                        rows.push(joined);
                        matched = true;
                    }
                }
                if !matched && kind == JoinKind::Left {
                    let pad = Row::new(vec![Value::Null; rwidth]);
                    rows.push(lrow.join(&pad));
                }
            }
        }
    }
    Ok(ColBatch::from_rows(out_schema, &rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::exec::execute_plan;
    use crate::parser::{parse, Statement};
    use crate::plan::logical::Planner;
    use crate::plan::optimizer::Optimizer;

    fn seeded() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE orders (id INT, user_id INT, amount FLOAT, category TEXT)")
            .unwrap();
        e.execute("CREATE TABLE users (id INT, name TEXT)").unwrap();
        e.execute(
            "INSERT INTO orders VALUES \
             (1, 1, 10.0, 'books'), (2, 1, 20.0, 'tech'), \
             (3, 2, 30.0, 'books'), (4, 3, 40.0, 'tech'), \
             (5, NULL, 5.5, NULL)",
        )
        .unwrap();
        e.execute("INSERT INTO users VALUES (1, 'alice'), (2, 'bob')")
            .unwrap();
        e
    }

    fn both(e: &Engine, sql: &str) -> (RowBatch, RowBatch, ExecStats) {
        let stmt = match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let db = e.database();
        let plan = Planner::new(db).plan_select(&stmt).unwrap();
        let plan = Optimizer::new().optimize(plan).unwrap();
        let row = execute_plan(&plan, db).unwrap();
        let mut stats = ExecStats::default();
        let col = execute_plan_columnar_with_stats(&plan, db, &mut stats).unwrap();
        (row, col, stats)
    }

    #[test]
    fn matches_row_executor_on_core_queries() {
        let e = seeded();
        for sql in [
            "SELECT * FROM orders",
            "SELECT id FROM orders WHERE amount > 15",
            "SELECT id, amount * 2 FROM orders WHERE category = 'books'",
            "SELECT category, COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount) \
             FROM orders GROUP BY category ORDER BY category",
            "SELECT COUNT(*), SUM(amount) FROM orders WHERE id > 100",
            "SELECT o.id, u.name FROM orders o JOIN users u ON o.user_id = u.id ORDER BY o.id",
            "SELECT o.id, u.name FROM orders o LEFT JOIN users u ON o.user_id = u.id ORDER BY o.id",
            "SELECT o.id FROM orders o JOIN users u ON o.user_id = u.id AND o.amount > 15",
            "SELECT o.id FROM orders o JOIN users u ON o.user_id < u.id",
            "SELECT DISTINCT category FROM orders ORDER BY category",
            "SELECT id FROM orders ORDER BY amount DESC LIMIT 2",
            "SELECT category FROM orders GROUP BY category HAVING SUM(amount) > 50",
            "SELECT id FROM orders WHERE category IS NULL",
            "SELECT id FROM orders WHERE category LIKE 'b%'",
            "SELECT id FROM orders WHERE id IN (1, 3, NULL)",
            "SELECT id FROM orders WHERE amount BETWEEN 10 AND 30",
            "SELECT id FROM orders UNION SELECT id FROM users ORDER BY 1",
            "SELECT id FROM orders UNION ALL SELECT id FROM users",
            "SELECT 2 * 21 AS answer",
            "SELECT UPPER(category) FROM orders WHERE id = 1",
        ] {
            let (row, col, _) = both(&e, sql);
            assert_eq!(row.schema.columns(), col.schema.columns(), "schema: {sql}");
            assert_eq!(row.rows, col.rows, "rows: {sql}");
        }
    }

    #[test]
    fn scan_stats_count_chunks_and_rows() {
        let e = seeded();
        let (_, _, stats) = both(&e, "SELECT COUNT(*) FROM orders");
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.rows_scanned, 5);
        let (_, _, stats) =
            both(&e, "SELECT o.id FROM orders o JOIN users u ON o.user_id = u.id");
        assert_eq!(stats.chunks, 2);
        assert_eq!(stats.rows_scanned, 7);
    }

    #[test]
    fn errors_match_row_executor_presence() {
        let e = seeded();
        // Comparing text to int errors on both paths.
        let stmt = match parse("SELECT id FROM orders WHERE category > 1").unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let db = e.database();
        let plan = Planner::new(db).plan_select(&stmt).unwrap();
        assert!(execute_plan(&plan, db).is_err());
        assert!(execute_plan_columnar(&plan, db).is_err());
    }
}
