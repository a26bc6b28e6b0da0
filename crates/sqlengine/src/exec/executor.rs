//! The recursive plan executor.
//!
//! Each node pulls the full output of its children (materialised execution;
//! fine for an in-memory engine), except for the streaming pipelines below.
//! Joins pick a physical strategy at run time: equi-join conjuncts in the
//! `ON` clause trigger a **hash join**, anything else falls back to a
//! nested-loop join.
//!
//! Execution runs in two phases. `scan_plan`, the only phase that touches
//! the catalog, probes indexes and takes every scanned table's
//! [`Snapshot`] through [`Table::scan`], sharing the table's row chunks
//! and copying no row. `finish_plan` then reads the rows in place, one
//! pass per pipeline:
//!
//! - a scan runs its filter on each source row and copies only the
//!   projected cells of the rows that pass;
//! - an aggregate over a scan feeds each passing row into its sink (the
//!   group table and its accumulators);
//! - an aggregate over an inner equi-join of two scans builds the hash
//!   table on the right scan's rows and streams each left row's matches
//!   into the sink without building joined rows;
//! - a `Limit` over a `Sort` keeps a bounded top-n: over a projected scan
//!   it ranks the passing rows in place and projects only the rows it
//!   keeps; over any other input it selects `n` rows without sorting the
//!   rest.
//!
//! Group keys, aggregate arguments, join keys and projections are bound
//! to row positions once per plan and read cells in place. Group, join and
//! DISTINCT keys hash with `Value::key_hash` from a `KeySeed` that
//! each engine draws once.
//!
//! Which error a failing statement reports: a single pass evaluates a
//! scan's filter and the operator above it (an aggregate, or a top-n's
//! projection) row by row, so when both fail on different rows, the
//! earlier row's error is reported. Across the two scans of a join, a
//! failing left filter is reported before any error on the right side, as
//! when the left input is materialised first.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::ops::Bound::{self, Excluded, Included, Unbounded};

use crate::catalog::{Database, Snapshot, Table};
use crate::error::SqlError;
use crate::expr::{flip_cmp, BinOp, Expr};
use crate::parser::JoinKind;
use crate::plan::logical::{AggFunc, LogicalPlan};
use crate::row::{Row, RowBatch};
use crate::schema::{Schema, SchemaRef};
use crate::value::{DataType, Value};

use super::aggregate::Accumulator;

/// Execute a logical plan to completion: `scan_plan`, then
/// `finish_plan` over its scans, under a fresh `KeySeed`.
pub fn execute_plan(plan: &LogicalPlan, db: &Database) -> Result<RowBatch, SqlError> {
    finish_plan(plan, scan_plan(plan, db)?, KeySeed::default())
}

/// Phase 1: snapshot every `Scan` node's table, narrowed by a fresh index
/// when one applies, in [`LogicalPlan::scans`] order. This is the only
/// phase that touches `db`, and it copies no row.
pub(crate) fn scan_plan(plan: &LogicalPlan, db: &Database) -> Result<Vec<Snapshot>, SqlError> {
    plan.scans()
        .into_iter()
        .map(|scan| {
            let LogicalPlan::Scan {
                table,
                schema,
                projection,
                filter,
                ..
            } = scan
            else {
                unreachable!("scans() yields Scan nodes");
            };
            let t = db.table(table)?;
            let ids = match filter {
                Some(f) => index_candidates(t, schema, projection, f)?,
                None => None,
            };
            Ok(t.scan(ids))
        })
        .collect()
}

/// Phase 2: run the plan's operators over the scans from [`scan_plan`].
/// No catalog access, so a caller may run it after releasing its lock.
pub(crate) fn finish_plan(
    plan: &LogicalPlan,
    scans: Vec<Snapshot>,
    seed: KeySeed,
) -> Result<RowBatch, SqlError> {
    run(
        plan,
        &mut Exec {
            scans: scans.into_iter(),
            seed,
        },
    )
}

/// The seed every key hash of a statement starts from. An engine draws
/// one when it is built, so the hash layout differs between engines and
/// processes; no result depends on it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeySeed(u64);

impl Default for KeySeed {
    /// A seed from the standard library's per-process random hash keys.
    fn default() -> Self {
        KeySeed(RandomState::new().hash_one(0u64))
    }
}

/// What the operators of one statement share.
struct Exec {
    /// The statement's scans, consumed in [`LogicalPlan::scans`] order.
    scans: std::vec::IntoIter<Snapshot>,
    seed: KeySeed,
}

impl Exec {
    /// An empty key index under the statement's seed.
    fn key_index(&self) -> KeyIndex {
        KeyIndex::new(self.seed)
    }
}

/// One `Scan` node over its snapshot.
struct ScanRows<'p> {
    rows: Snapshot,
    /// Schema the filter reads the input rows through.
    source: SchemaRef,
    /// The scan's output schema.
    schema: &'p SchemaRef,
    projection: Option<&'p [usize]>,
    filter: Option<&'p Expr>,
}

impl<'p> ScanRows<'p> {
    fn new(scan: &'p LogicalPlan, ex: &mut Exec) -> Self {
        let LogicalPlan::Scan {
            schema,
            projection,
            filter,
            ..
        } = scan
        else {
            unreachable!("ScanRows reads Scan nodes");
        };
        let rows = ex.scans.next().expect("one snapshot per scan");
        ScanRows {
            source: source_schema(scan, rows.schema()),
            rows,
            schema,
            projection: projection.as_deref(),
            filter: filter.as_ref(),
        }
    }

    /// Stream the input rows that pass the scan's filter. Nothing is
    /// copied, and the rows stay readable while `self` lives.
    fn for_each<'a>(
        &'a self,
        mut f: impl FnMut(&'a [Value]) -> Result<(), SqlError>,
    ) -> Result<(), SqlError> {
        self.rows
            .for_each(|row| match passes(self.filter, row, &self.source)? {
                true => f(row),
                false => Ok(()),
            })
    }

    /// Bind `e`, an expression over the scan's output, to the input rows.
    fn bind(&self, e: &'p Expr) -> Binding<'p> {
        Binding::new(e, self.schema, |i| Binding::Col(source_pos(self.projection, i)))
    }

    /// The scan's output: the projected cells of every passing row. Each
    /// chunk is released once read, so a write racing the rest of the
    /// scan need not copy it.
    fn collect(self) -> Result<RowBatch, SqlError> {
        let mut rows = Vec::new();
        self.rows.drain(|row| {
            if passes(self.filter, row, &self.source)? {
                rows.push(Row::new(match self.projection {
                    Some(idx) => idx.iter().map(|&i| row[i].clone()).collect(),
                    None => row.to_vec(),
                }));
            }
            Ok(())
        })?;
        Ok(RowBatch::new(self.schema.clone(), rows))
    }
}

/// Schema a scan's filter reads its source rows through: the whole table
/// (schema `table`) under the scan's qualifier, or the scan's own schema
/// when it keeps every column.
fn source_schema(scan: &LogicalPlan, table: &Schema) -> SchemaRef {
    match scan {
        LogicalPlan::Scan {
            projection: Some(_),
            qualifier,
            ..
        } => SchemaRef::new(table.qualify(qualifier)),
        LogicalPlan::Scan { schema, .. } => schema.clone(),
        _ => unreachable!("source_schema reads Scan nodes"),
    }
}

/// Source position of a scan's output column `i`.
fn source_pos(projection: Option<&[usize]>, i: usize) -> usize {
    projection.map_or(i, |p| p[i])
}

/// Whether `row` passes a scan's `filter`, read in place through `schema`.
fn passes(filter: Option<&Expr>, row: &[Value], schema: &Schema) -> Result<bool, SqlError> {
    match filter {
        Some(p) => Ok(p.eval_ref(row, schema)?.is_truthy()),
        None => Ok(true),
    }
}

/// A pipeline's input: one row, or an inner-join pair (left, right) read
/// in place, without building the joined row.
#[derive(Clone, Copy)]
struct Input<'r>(&'r [Value], Option<&'r [Value]>);

/// An expression bound to the rows a pipeline reads.
enum Binding<'p> {
    /// A column, read in place at this position of the input row (the
    /// left row of a join pair).
    Col(usize),
    /// A column of a join pair's right row.
    Right(usize),
    /// A literal.
    Const(&'p Value),
    /// Anything else, evaluated per row (single-row inputs only).
    Eval(&'p Expr),
}

/// The value `COUNT(*)` folds per row (ignored by its accumulator).
static COUNT_STAR: Value = Value::Int(1);

impl<'p> Binding<'p> {
    /// Bind `e`, an expression over `schema`; `place` says where column
    /// `i` of `schema` sits in the input. A column that does not resolve
    /// stays [`Binding::Eval`], so it fails per row as unbound.
    fn new(e: &'p Expr, schema: &Schema, place: impl Fn(usize) -> Binding<'p>) -> Binding<'p> {
        match e {
            Expr::Column { table, name } => match schema.resolve(table.as_deref(), name) {
                Ok(i) => place(i),
                Err(_) => Binding::Eval(e),
            },
            Expr::Literal(v) => Binding::Const(v),
            e => Binding::Eval(e),
        }
    }

    /// [`Binding::new`] for an aggregate argument: `*` reads as a constant.
    fn arg(e: &'p Expr, schema: &Schema, place: impl Fn(usize) -> Binding<'p>) -> Binding<'p> {
        match e {
            Expr::Wildcard => Binding::Const(&COUNT_STAR),
            e => Binding::new(e, schema, place),
        }
    }

    /// The cell a column or literal reads for `input`, in place; `None`
    /// for [`Binding::Eval`].
    #[inline]
    fn cell<'r>(&self, input: Input<'r>) -> Option<&'r Value>
    where
        'p: 'r,
    {
        match (self, input) {
            (Binding::Col(i), Input(row, _)) => Some(&row[*i]),
            (Binding::Right(i), Input(_, Some(right))) => Some(&right[*i]),
            (Binding::Const(v), _) => Some(*v),
            (Binding::Eval(_), _) => None,
            (Binding::Right(_), Input(_, None)) => unreachable!("right columns read join pairs"),
        }
    }
}

/// Cell `i` of `bound` for `input`: read in place, or, for a
/// [`Binding::Eval`], the value evaluated into `evals[i]`.
#[inline]
fn bound_cell<'v>(
    bound: &[Binding<'v>],
    evals: &'v [Value],
    input: Input<'v>,
    i: usize,
) -> &'v Value {
    match bound[i].cell(input) {
        Some(v) => v,
        None => &evals[i],
    }
}

/// Evaluate the [`Binding::Eval`] entries of `bound` on `row`, read
/// through `schema`, into the same positions of `evals`, in order.
fn eval_into(
    bound: &[Binding<'_>],
    row: &[Value],
    schema: &Schema,
    evals: &mut [Value],
) -> Result<(), SqlError> {
    for (b, slot) in bound.iter().zip(evals) {
        if let Binding::Eval(e) = b {
            *slot = e.eval_ref(row, schema)?.into_owned();
        }
    }
    Ok(())
}

/// Evaluate a join key on `row` as [`eval_into`] does, stopping with
/// `false` at the first NULL cell: a NULL join key matches nothing.
fn join_key(
    keys: &[Binding<'_>],
    row: &[Value],
    schema: &Schema,
    evals: &mut [Value],
) -> Result<bool, SqlError> {
    for (i, k) in keys.iter().enumerate() {
        if let Binding::Eval(e) = k {
            evals[i] = e.eval_ref(row, schema)?.into_owned();
        }
        if bound_cell(keys, evals, Input(row, None), i).is_null() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Whether the stored key cells `stored` match, cell by cell under `eq`,
/// the key whose cells `cell` reads.
#[inline]
fn same_key<'v>(
    stored: &[Value],
    cell: impl Fn(usize) -> &'v Value,
    eq: impl Fn(&Value, &Value) -> bool,
) -> bool {
    stored.iter().enumerate().all(|(i, v)| eq(v, cell(i)))
}

/// Hashes a precomputed `u64` hash to itself.
#[derive(Default)]
struct PassHasher(u64);

impl Hasher for PassHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PassHasher hashes u64 keys only")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Hash chains over keys that the caller stores: entry `i` is the `i`-th
/// key pushed, found by its [`Value::key_hash`] from the statement's seed.
struct KeyIndex {
    seed: u64,
    /// Key hash → the newest entry with that hash.
    heads: HashMap<u64, usize, BuildHasherDefault<PassHasher>>,
    /// The next older entry with the same hash.
    next: Vec<Option<usize>>,
}

impl KeyIndex {
    fn new(seed: KeySeed) -> Self {
        KeyIndex {
            seed: seed.0,
            heads: HashMap::default(),
            next: Vec::new(),
        }
    }

    /// The hash of the `n`-cell key whose cells `cell` reads.
    #[inline]
    fn hash<'v>(&self, n: usize, cell: impl Fn(usize) -> &'v Value) -> u64 {
        (0..n).fold(self.seed, |h, i| cell(i).key_hash(h))
    }

    /// The entries with hash `hash`, newest first.
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.heads.get(&hash).copied(), |&i| self.next[i])
    }

    /// The entry with hash `hash` that `same` accepts, or else a new
    /// entry (the next index) with that hash; `true` when new.
    fn find_or_push(&mut self, hash: u64, same: impl Fn(usize) -> bool) -> (usize, bool) {
        if let Some(i) = self.chain(hash).find(|&i| same(i)) {
            return (i, false);
        }
        let i = self.next.len();
        self.next.push(self.heads.insert(hash, i));
        (i, true)
    }
}

/// The build side of a hash join: rows grouped by their join key, and the
/// probe that streams each probe row's matches to a callback.
struct JoinTable<'p, 'r> {
    build_keys: Vec<Binding<'p>>,
    build_schema: SchemaRef,
    probe_keys: Vec<Binding<'p>>,
    probe_schema: SchemaRef,
    /// Distinct build keys, under group identity.
    index: KeyIndex,
    /// The cells of each key of `index`, key after key.
    keys: Vec<Value>,
    /// Positions in `rows` of each key's build rows, ascending.
    hits: Vec<Vec<usize>>,
    /// The build rows, in build order.
    rows: Vec<&'r [Value]>,
    /// The current row's evaluated key cells (see [`join_key`]).
    evals: Vec<Value>,
}

impl<'p: 'r, 'r> JoinTable<'p, 'r> {
    fn new(
        build_keys: Vec<Binding<'p>>,
        build_schema: SchemaRef,
        probe_keys: Vec<Binding<'p>>,
        probe_schema: SchemaRef,
        index: KeyIndex,
    ) -> Self {
        JoinTable {
            evals: vec![Value::Null; build_keys.len()],
            build_keys,
            build_schema,
            probe_keys,
            probe_schema,
            index,
            keys: Vec::new(),
            hits: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Add one build row; a row with a NULL key never matches and is
    /// left out.
    fn insert(&mut self, row: &'r [Value]) -> Result<(), SqlError> {
        if !join_key(&self.build_keys, row, &self.build_schema, &mut self.evals)? {
            return Ok(());
        }
        let n = self.build_keys.len();
        let (keys, evals, stored) = (&self.build_keys, &self.evals, &self.keys);
        let cell = |i| bound_cell(keys, evals, Input(row, None), i);
        let hash = self.index.hash(n, cell);
        let (k, new) = self.index.find_or_push(hash, |k| {
            same_key(&stored[k * n..][..n], cell, Value::same_group)
        });
        if new {
            self.keys.extend((0..n).map(|i| cell(i).clone()));
            self.hits.push(Vec::new());
        }
        self.hits[k].push(self.rows.len());
        self.rows.push(row);
        Ok(())
    }

    /// Call `on_pair` with each build row whose key is `=` to `row`'s, in
    /// build order. Returns whether any call returned `true`.
    fn probe(
        &mut self,
        row: &'r [Value],
        mut on_pair: impl FnMut(&'r [Value]) -> Result<bool, SqlError>,
    ) -> Result<bool, SqlError> {
        if !join_key(&self.probe_keys, row, &self.probe_schema, &mut self.evals)? {
            return Ok(false);
        }
        let n = self.probe_keys.len();
        let (keys, evals, stored) = (&self.probe_keys, &self.evals, &self.keys);
        let cell = |i| bound_cell(keys, evals, Input(row, None), i);
        let hash = self.index.hash(n, cell);
        // `=` compares INT and FLOAT by value, so one probe key can equal
        // several build keys: INT 1 and FLOAT 1.0.
        let mut found = self
            .index
            .chain(hash)
            .filter(|&k| same_key(&stored[k * n..][..n], cell, Value::sql_eq));
        let Some(first) = found.next() else {
            return Ok(false);
        };
        let mut matched = false;
        match found.next() {
            None => {
                for &at in &self.hits[first] {
                    matched |= on_pair(self.rows[at])?;
                }
            }
            Some(second) => {
                let mut all: Vec<usize> = [first, second]
                    .into_iter()
                    .chain(found)
                    .flat_map(|k| self.hits[k].iter().copied())
                    .collect();
                all.sort_unstable();
                for at in all {
                    matched |= on_pair(self.rows[at])?;
                }
            }
        }
        Ok(matched)
    }
}

/// Hash aggregation: the group table and its accumulators. Groups come
/// out in first-seen order.
struct AggSink<'p> {
    keys: Vec<Binding<'p>>,
    args: Vec<Binding<'p>>,
    funcs: Vec<AggFunc>,
    /// Schema [`Binding::Eval`] expressions read input rows through.
    schema: SchemaRef,
    groups: KeyIndex,
    /// The key cells of each group, group after group.
    group_keys: Vec<Value>,
    /// The accumulators of each group, group after group.
    accs: Vec<Accumulator>,
    /// The current row's evaluated key cells (see [`eval_into`]).
    evals: Vec<Value>,
}

impl<'p> AggSink<'p> {
    /// Bind an `Aggregate` node's keys and arguments, expressions over
    /// `input`, to input rows read through `schema`; `place` says where a
    /// column of `input` sits in the input rows.
    fn new(
        group_exprs: &'p [(Expr, String)],
        aggregates: &'p [(AggFunc, Expr, String)],
        input: &Schema,
        schema: SchemaRef,
        groups: KeyIndex,
        place: impl Fn(usize) -> Binding<'p>,
    ) -> Self {
        let keys: Vec<_> = group_exprs
            .iter()
            .map(|(e, _)| Binding::new(e, input, &place))
            .collect();
        let mut sink = AggSink {
            evals: vec![Value::Null; keys.len()],
            keys,
            args: aggregates.iter().map(|(_, e, _)| Binding::arg(e, input, &place)).collect(),
            funcs: aggregates.iter().map(|(f, _, _)| *f).collect(),
            schema,
            groups,
            group_keys: Vec::new(),
            accs: Vec::new(),
        };
        if sink.keys.is_empty() {
            // A global aggregate has its one group, even over empty input.
            sink.open_group();
        }
        sink
    }

    /// Add fresh accumulators for a new group.
    fn open_group(&mut self) {
        self.accs
            .extend(self.funcs.iter().map(|f| Accumulator::new(*f)));
    }

    /// Whether every key and argument reads bound columns or constants
    /// (what a join pair requires).
    fn all_bound(&self) -> bool {
        self.keys.iter().chain(&self.args).all(|b| !matches!(b, Binding::Eval(_)))
    }

    /// Fold one input row into its group.
    fn feed(&mut self, input: Input<'_>) -> Result<(), SqlError> {
        let g = match self.keys.is_empty() {
            true => 0,
            false => self.group(input)?,
        };
        let m = self.args.len();
        for (arg, acc) in self.args.iter().zip(&mut self.accs[g * m..]) {
            match arg.cell(input) {
                Some(v) => acc.update(v)?,
                None => {
                    let Binding::Eval(e) = arg else {
                        unreachable!("only Eval bindings lack a cell")
                    };
                    acc.update(e.eval_ref(input.0, &self.schema)?.as_ref())?
                }
            }
        }
        Ok(())
    }

    /// The group of `input`'s key, opened when first seen.
    fn group(&mut self, input: Input<'_>) -> Result<usize, SqlError> {
        eval_into(&self.keys, input.0, &self.schema, &mut self.evals)?;
        let n = self.keys.len();
        let (keys, evals, stored) = (&self.keys, &self.evals, &self.group_keys);
        let cell = |i| bound_cell(keys, evals, input, i);
        let hash = self.groups.hash(n, cell);
        let (g, new) = self.groups.find_or_push(hash, |g| {
            same_key(&stored[g * n..][..n], cell, Value::same_group)
        });
        if new {
            self.group_keys.extend((0..n).map(|i| cell(i).clone()));
            self.open_group();
        }
        Ok(g)
    }

    /// One row per group: its key, then each aggregate.
    fn finish(self, schema: SchemaRef) -> RowBatch {
        let (n, m) = (self.keys.len(), self.funcs.len());
        // A global aggregate has one group; a grouped one, a key per group.
        let groups = self.group_keys.len().checked_div(n).unwrap_or(1);
        let mut keys = self.group_keys.into_iter();
        let mut accs = self.accs.iter();
        let rows = (0..groups)
            .map(|_| {
                let mut vals = Vec::with_capacity(n + m);
                vals.extend(keys.by_ref().take(n));
                vals.extend(accs.by_ref().take(m).map(Accumulator::finish));
                Row::new(vals)
            })
            .collect();
        RowBatch::new(schema, rows)
    }
}

/// An `Aggregate` node in one pass over its input. A scan, or an inner
/// equi-join of two scans whose keys and arguments all bind to columns,
/// feeds the sink straight from the scans' rows; any other input is
/// materialised first.
fn aggregate(
    input: &LogicalPlan,
    group_exprs: &[(Expr, String)],
    aggregates: &[(AggFunc, Expr, String)],
    out_schema: SchemaRef,
    ex: &mut Exec,
) -> Result<RowBatch, SqlError> {
    match input {
        LogicalPlan::Scan { .. } => {
            let scan = ScanRows::new(input, ex);
            let place = |i| Binding::Col(source_pos(scan.projection, i));
            let (source, groups) = (scan.source.clone(), ex.key_index());
            let mut sink =
                AggSink::new(group_exprs, aggregates, scan.schema, source, groups, place);
            scan.for_each(|row| sink.feed(Input(row, None)))?;
            Ok(sink.finish(out_schema))
        }
        LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            on,
        } if matches!(
            (left.as_ref(), right.as_ref()),
            (LogicalPlan::Scan { .. }, LogicalPlan::Scan { .. })
        ) =>
        {
            let (lschema, rschema) = (left.schema(), right.schema());
            let keys = extract_equi_keys(on, &lschema, &rschema);
            let (l, r) = (ScanRows::new(left, ex), ScanRows::new(right, ex));
            let (lproj, rproj) = (l.projection, r.projection);
            let place = |i: usize| match i.checked_sub(lschema.len()) {
                None => Binding::Col(source_pos(lproj, i)),
                Some(j) => Binding::Right(source_pos(rproj, j)),
            };
            let joined = lschema.join(&rschema);
            let (schema, groups) = (out_schema.clone(), ex.key_index());
            let mut sink = AggSink::new(group_exprs, aggregates, &joined, schema, groups, place);
            if keys.left_exprs.is_empty() || keys.residual.is_some() || !sink.all_bound() {
                let (lbatch, rbatch) = (l.collect()?, r.collect()?);
                let batch = execute_join(lbatch, rbatch, JoinKind::Inner, on, ex)?;
                return aggregate_batch(&batch, group_exprs, aggregates, out_schema, ex);
            }
            let mut table = JoinTable::new(
                keys.right_exprs.iter().map(|e| r.bind(e)).collect(),
                r.source.clone(),
                keys.left_exprs.iter().map(|e| l.bind(e)).collect(),
                l.source.clone(),
                ex.key_index(),
            );
            if let Err(e) = r.for_each(|row| table.insert(row)) {
                // Materialising left before right reports a failing left
                // filter first; so does this pass.
                l.for_each(|_| Ok(()))?;
                return Err(e);
            }
            l.for_each(|lrow| {
                table.probe(lrow, |rrow| sink.feed(Input(lrow, Some(rrow))).map(|()| true))?;
                Ok(())
            })?;
            Ok(sink.finish(out_schema))
        }
        _ => {
            let batch = run(input, ex)?;
            aggregate_batch(&batch, group_exprs, aggregates, out_schema, ex)
        }
    }
}

/// An `Aggregate` node over materialised input.
fn aggregate_batch(
    batch: &RowBatch,
    group_exprs: &[(Expr, String)],
    aggregates: &[(AggFunc, Expr, String)],
    out_schema: SchemaRef,
    ex: &Exec,
) -> Result<RowBatch, SqlError> {
    let (schema, groups) = (batch.schema.clone(), ex.key_index());
    let mut sink = AggSink::new(
        group_exprs,
        aggregates,
        &batch.schema,
        schema,
        groups,
        Binding::Col,
    );
    for row in &batch.rows {
        sink.feed(Input(row, None))?;
    }
    Ok(sink.finish(out_schema))
}

/// The first row of each set of rows with equal group keys, in order.
fn dedupe(rows: Vec<Row>, mut index: KeyIndex) -> Vec<Row> {
    let mut kept: Vec<Row> = Vec::new();
    for row in rows {
        let cell = |i: usize| &row[i];
        let hash = index.hash(row.len(), cell);
        let (_, new) = index.find_or_push(hash, |k| same_key(&kept[k], cell, Value::same_group));
        if new {
            kept.push(row);
        }
    }
    kept
}

/// How `keys`, `(position, descending)` pairs, order two rows whose cells
/// `a` and `b` read.
fn sort_order<'a, 'b>(
    keys: &[(usize, bool)],
    a: impl Fn(usize) -> &'a Value,
    b: impl Fn(usize) -> &'b Value,
) -> Ordering {
    for &(pos, desc) in keys {
        let ord = a(pos).total_cmp(b(pos));
        let ord = if desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// The first `n` items of a stream in a given order, ties in arrival
/// order: the items a stable sort of the whole stream truncated to `n`
/// keeps. Items are buffered and the buffer is cut back to its `n` best
/// whenever it reaches `max(2n, 64)`, so it never reserves room for `n`;
/// after a cut, an item must rank before the `n`-th best to be kept.
struct TopN<T> {
    n: usize,
    /// Kept items with their arrival numbers. After a cut, entry `n - 1`
    /// is the `n`-th best.
    kept: Vec<(usize, T)>,
    arrived: usize,
    cut: bool,
}

impl<T> TopN<T> {
    fn new(n: usize) -> Self {
        TopN {
            n,
            kept: Vec::new(),
            arrived: 0,
            cut: false,
        }
    }

    /// Offer the next item, ordered by `cmp`; hands it back when it cannot
    /// be among the first `n`.
    fn offer(&mut self, item: T, cmp: impl Fn(&T, &T) -> Ordering) -> Option<T> {
        let keep = match (self.n, self.cut) {
            (0, _) => false,
            (_, false) => true,
            (n, true) => cmp(&item, &self.kept[n - 1].1).is_lt(),
        };
        if !keep {
            return Some(item);
        }
        self.kept.push((self.arrived, item));
        self.arrived += 1;
        if self.kept.len() >= self.n.saturating_mul(2).max(64) {
            self.kept
                .select_nth_unstable_by(self.n - 1, |a, b| cmp(&a.1, &b.1).then(a.0.cmp(&b.0)));
            self.kept.truncate(self.n);
            self.cut = true;
        }
        None
    }

    /// The first `n` items, in order.
    fn finish(mut self, cmp: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
        self.kept
            .sort_unstable_by(|a, b| cmp(&a.1, &b.1).then(a.0.cmp(&b.0)));
        self.kept.truncate(self.n);
        self.kept.into_iter().map(|(_, item)| item).collect()
    }
}

/// A scan row ranked by a top-n, with its evaluated projections (empty
/// when every projection reads a column or a literal).
type Ranked<'r> = (&'r [Value], Vec<Value>);

/// Projection `p` of a ranked row.
fn ranked_cell<'v>(cols: &[Binding<'v>], r: &'v Ranked<'_>, p: usize) -> &'v Value {
    bound_cell(cols, &r.1, Input(r.0, None), p)
}

/// A `Limit` over a `Sort`: the first `n` rows in the sort's order, ties
/// in input order. Over a projected scan, the passing rows are ranked in
/// place and only the `n` kept are projected; a projection that can fail
/// is still evaluated on every passing row. Any other input is run first,
/// and `n` of its rows are selected without sorting the rest.
fn top_n(
    input: &LogicalPlan,
    keys: &[(usize, bool)],
    n: usize,
    ex: &mut Exec,
) -> Result<RowBatch, SqlError> {
    let (scan, exprs) = match input {
        LogicalPlan::Project { input: scan, exprs }
            if matches!(**scan, LogicalPlan::Scan { .. }) =>
        {
            (ScanRows::new(scan, ex), exprs)
        }
        _ => {
            let batch = run(input, ex)?;
            let cmp = |a: &Row, b: &Row| sort_order(keys, |p| &a[p], |p| &b[p]);
            let mut top = TopN::new(n);
            for row in batch.rows {
                top.offer(row, cmp);
            }
            return Ok(RowBatch::new(batch.schema, top.finish(cmp)));
        }
    };
    let cols: Vec<Binding> = exprs.iter().map(|(e, _)| scan.bind(e)).collect();
    let computed = cols.iter().any(|c| matches!(c, Binding::Eval(_)));
    let cmp = |a: &Ranked, b: &Ranked| {
        sort_order(
            keys,
            |p| ranked_cell(&cols, a, p),
            |p| ranked_cell(&cols, b, p),
        )
    };
    let mut top = TopN::new(n);
    let mut evals = Vec::new();
    scan.for_each(|row| {
        if computed {
            evals.resize(cols.len(), Value::Null);
            eval_into(&cols, row, &scan.source, &mut evals)?;
        }
        if let Some((_, back)) = top.offer((row, std::mem::take(&mut evals)), cmp) {
            evals = back;
        }
        Ok(())
    })?;
    let rows = top
        .finish(cmp)
        .iter()
        .map(|r| {
            Row::new(
                (0..cols.len())
                    .map(|p| ranked_cell(&cols, r, p).clone())
                    .collect(),
            )
        })
        .collect();
    Ok(RowBatch::new(input.schema(), rows))
}

/// The operator tree over the scans' snapshots, consumed in scan order.
fn run(plan: &LogicalPlan, ex: &mut Exec) -> Result<RowBatch, SqlError> {
    match plan {
        LogicalPlan::Scan { .. } => ScanRows::new(plan, ex).collect(),

        LogicalPlan::Union {
            inputs,
            dedupe: distinct,
        } => {
            let schema = plan.schema();
            let mut rows = Vec::new();
            for input in inputs {
                let batch = run(input, ex)?;
                if batch.schema.len() != schema.len() {
                    return Err(SqlError::Execution(format!(
                        "UNION arm arity mismatch: {} vs {}",
                        schema.len(),
                        batch.schema.len()
                    )));
                }
                rows.extend(batch.rows);
            }
            if *distinct {
                rows = dedupe(rows, ex.key_index());
            }
            Ok(RowBatch::new(schema, rows))
        }

        LogicalPlan::Values { schema, rows } => Ok(RowBatch::new(
            schema.clone(),
            (0..*rows).map(|_| Row::default()).collect(),
        )),

        LogicalPlan::Filter { input, predicate } => {
            let batch = run(input, ex)?;
            let mut rows = Vec::with_capacity(batch.rows.len());
            for row in batch.rows {
                if predicate.eval_ref(&row, &batch.schema)?.is_truthy() {
                    rows.push(row);
                }
            }
            Ok(RowBatch::new(batch.schema, rows))
        }

        LogicalPlan::Project { input, exprs } => {
            let batch = run(input, ex)?;
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
        } => {
            let (lbatch, rbatch) = (run(left, ex)?, run(right, ex)?);
            execute_join(lbatch, rbatch, *kind, on, ex)
        }

        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => aggregate(input, group_exprs, aggregates, plan.schema(), ex),

        LogicalPlan::Sort { input, keys } => {
            let mut batch = run(input, ex)?;
            batch
                .rows
                .sort_by(|a, b| sort_order(keys, |p| &a[p], |p| &b[p]));
            Ok(batch)
        }

        LogicalPlan::Strip { input, keep } => {
            let batch = run(input, ex)?;
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
            let batch = run(input, ex)?;
            Ok(RowBatch::new(
                batch.schema,
                dedupe(batch.rows, ex.key_index()),
            ))
        }

        LogicalPlan::Limit { input, n } => match input.as_ref() {
            LogicalPlan::Sort { input, keys } => top_n(input, keys, *n, ex),
            _ => {
                let mut batch = run(input, ex)?;
                batch.rows.truncate(*n);
                Ok(batch)
            }
        },
    }
}

/// What a single conjunct contributes to an index probe.
enum Probe {
    /// Conjunct can't use the index — try the next one.
    Skip,
    /// Conjunct can never be truthy — the scan yields nothing.
    Empty,
    /// Probe the index with these bounds.
    Range(Bound<Value>, Bound<Value>),
}

/// Convert a comparison against `lit` on a column of type `ty` into index
/// bounds. `op` is normalised so the column is on the left. Cross-type
/// Int/Float comparisons are rewritten into same-type bounds so the probe
/// never under-selects; anything not provably safe falls back to a full
/// scan (`Skip`). The filter re-checks every candidate, so over-selection
/// is always fine.
fn probe_bounds(op: BinOp, lit: &Value, ty: DataType) -> Probe {
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
                return Probe::Skip;
            }
        }
        let v = lit.clone();
        return match op {
            BinOp::Eq => Probe::Range(Included(v.clone()), Included(v)),
            BinOp::Gt => Probe::Range(Excluded(v), Unbounded),
            BinOp::Ge => Probe::Range(Included(v), Unbounded),
            BinOp::Lt => Probe::Range(Unbounded, Excluded(v)),
            BinOp::Le => Probe::Range(Unbounded, Included(v)),
            _ => Probe::Skip,
        };
    }
    match (lit, ty) {
        // Int literal against a Float column: the widened literal is the
        // bound. Past 2^53 it may round; no FLOAT then equals `i`, and
        // no FLOAT lies between `i` and its rounding, so strict bounds
        // become inclusive.
        (Value::Int(i), DataType::Float) => {
            let f = *i as f64;
            let op = match op {
                _ if f as i128 == *i as i128 => op,
                BinOp::Eq => return Probe::Empty,
                BinOp::Gt => BinOp::Ge,
                BinOp::Lt => BinOp::Le,
                op => op,
            };
            probe_bounds(op, &Value::Float(f), ty)
        }
        (Value::Float(f), DataType::Int) => {
            // Outside i64's range no INT bound exists.
            if !f.is_finite() || f.abs() >= 2f64.powi(63) {
                return Probe::Skip;
            }
            let whole = f.fract() == 0.0;
            let at = |v: f64, inclusive: bool| {
                let v = Value::Int(v as i64);
                if inclusive {
                    Included(v)
                } else {
                    Excluded(v)
                }
            };
            match op {
                BinOp::Eq if whole => Probe::Range(at(*f, true), at(*f, true)),
                BinOp::Eq => Probe::Empty,
                BinOp::Gt | BinOp::Ge if whole => Probe::Range(at(*f, op == BinOp::Ge), Unbounded),
                BinOp::Gt | BinOp::Ge => Probe::Range(at(f.ceil(), true), Unbounded),
                BinOp::Lt | BinOp::Le if whole => Probe::Range(Unbounded, at(*f, op == BinOp::Le)),
                BinOp::Lt | BinOp::Le => Probe::Range(Unbounded, at(f.floor(), true)),
                _ => Probe::Skip,
            }
        }
        _ => Probe::Skip,
    }
}

/// If `filter` contains an equality or range conjunct on a column with a
/// fresh index, return the matching row positions (ascending) from the
/// first such conjunct. `Ok(None)` means scan the whole table.
fn index_candidates(
    t: &Table,
    schema: &SchemaRef,
    projection: &Option<Vec<usize>>,
    filter: &Expr,
) -> Result<Option<Vec<usize>>, SqlError> {
    // The base-table position of an indexed column reference.
    let indexed = |e: &Expr| -> Option<usize> {
        let Expr::Column { table, name } = e else {
            return None;
        };
        let scan_pos = schema.resolve(table.as_deref(), name).ok()?;
        let pos = projection.as_ref().map_or(scan_pos, |p| p[scan_pos]);
        t.has_fresh_index(pos).then_some(pos)
    };
    let literal = |e: &Expr| match e {
        Expr::Literal(v) if !v.is_null() => Some(v.clone()),
        _ => None,
    };
    for c in filter.conjuncts() {
        let (pos, probe) = match c {
            Expr::Binary { left, op, right }
                if matches!(
                    op,
                    BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                ) =>
            {
                // Normalise `lit OP col` to `col FLIP(OP) lit`.
                let (pos, op, lit) = match (indexed(left), literal(right)) {
                    (Some(pos), Some(lit)) => (pos, *op, lit),
                    _ => match (literal(left), indexed(right)) {
                        (Some(lit), Some(pos)) => (pos, flip_cmp(*op), lit),
                        _ => continue,
                    },
                };
                let ty = t.schema.columns()[pos].data_type;
                (pos, probe_bounds(op, &lit, ty))
            }
            Expr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                let (Some(pos), Some(lo), Some(hi)) = (indexed(expr), literal(low), literal(high))
                else {
                    continue;
                };
                let ty = t.schema.columns()[pos].data_type;
                let probe = match (
                    probe_bounds(BinOp::Ge, &lo, ty),
                    probe_bounds(BinOp::Le, &hi, ty),
                ) {
                    (Probe::Empty, _) | (_, Probe::Empty) => Probe::Empty,
                    (Probe::Range(l, _), Probe::Range(_, h)) => Probe::Range(l, h),
                    _ => Probe::Skip,
                };
                (pos, probe)
            }
            _ => continue,
        };
        match probe {
            Probe::Skip => continue,
            Probe::Empty => return Ok(Some(Vec::new())),
            Probe::Range(lo, hi) => return t.probe(pos, lo.as_ref(), hi.as_ref()).map(Some),
        }
    }
    Ok(None)
}

/// Equi-join key pairs extracted from an ON conjunction, plus the residual
/// predicate that must still be evaluated per candidate pair.
struct JoinKeys {
    left_exprs: Vec<Expr>,
    right_exprs: Vec<Expr>,
    residual: Option<Expr>,
}

/// Pull `l.x = r.y` style conjuncts out of `on`.
fn extract_equi_keys(on: &Expr, lschema: &SchemaRef, rschema: &SchemaRef) -> JoinKeys {
    fn bound_by(e: &Expr, schema: &SchemaRef) -> bool {
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        !cols.is_empty()
            && cols
                .iter()
                .all(|(t, n)| schema.resolve(t.as_deref(), n).is_ok())
    }
    let mut keys = JoinKeys {
        left_exprs: Vec::new(),
        right_exprs: Vec::new(),
        residual: None,
    };
    let mut residuals = Vec::new();
    for c in on.conjuncts() {
        if let Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = c
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
        residuals.push(c.clone());
    }
    keys.residual = residuals.into_iter().reduce(|a, b| Expr::binary(a, BinOp::And, b));
    keys
}

/// Join two materialised inputs.
fn execute_join(
    lbatch: RowBatch,
    rbatch: RowBatch,
    kind: JoinKind,
    on: &Expr,
    ex: &Exec,
) -> Result<RowBatch, SqlError> {
    let out_schema = SchemaRef::new(lbatch.schema.join(&rbatch.schema));
    let keys = extract_equi_keys(on, &lbatch.schema, &rbatch.schema);
    let pad = Row::new(vec![Value::Null; rbatch.schema.len()]);

    let mut rows = Vec::new();
    if !keys.left_exprs.is_empty() {
        // Hash join: build on the right side.
        fn bind<'p>(exprs: &'p [Expr], schema: &Schema) -> Vec<Binding<'p>> {
            exprs.iter().map(|e| Binding::new(e, schema, Binding::Col)).collect()
        }
        let mut table = JoinTable::new(
            bind(&keys.right_exprs, &rbatch.schema),
            rbatch.schema.clone(),
            bind(&keys.left_exprs, &lbatch.schema),
            lbatch.schema.clone(),
            ex.key_index(),
        );
        for rrow in &rbatch.rows {
            table.insert(rrow)?;
        }
        for lrow in &lbatch.rows {
            let matched = table.probe(lrow, |rrow| {
                let joined = lrow.join(rrow);
                let keep = match &keys.residual {
                    Some(p) => p.eval_ref(&joined, &out_schema)?.is_truthy(),
                    None => true,
                };
                if keep {
                    rows.push(joined);
                }
                Ok(keep)
            })?;
            if !matched && kind == JoinKind::Left {
                rows.push(lrow.join(&pad));
            }
        }
    } else {
        // Nested-loop join.
        for lrow in &lbatch.rows {
            let mut matched = false;
            for rrow in &rbatch.rows {
                let joined = lrow.join(rrow);
                if on.eval_ref(&joined, &out_schema)?.is_truthy() {
                    rows.push(joined);
                    matched = true;
                }
            }
            if !matched && kind == JoinKind::Left {
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
        execute_plan(&plan(sql, &db), &db).unwrap()
    }

    fn cell(b: &RowBatch, r: usize, c: usize) -> String {
        b.rows[r][c].to_string()
    }

    fn plan(sql: &str, db: &Database) -> LogicalPlan {
        let Statement::Select(stmt) = parse(sql).unwrap() else {
            panic!("not a SELECT: {sql}");
        };
        let plan = Planner::new(db).plan_select(&stmt).unwrap();
        Optimizer::new().optimize(plan).unwrap()
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
