//! Tuple-at-a-time plan execution.
//!
//! Every base-table access goes through the unified access interface:
//! open a key-sequential access on the chosen path (path zero = storage
//! method), then — for access paths that don't cover the query — fetch
//! each record from the storage method by its record key ("first the
//! access path is accessed to obtain a record key, which is then used to
//! access the relation record in the storage method").

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dmx_core::{
    AccessPath, AccessQuery, Evaluator, ExecCtx, Frame, RelationDescriptor, ScanItem, ScanManager,
};
use dmx_expr::Expr;
use dmx_types::{key::encode_values, DmxError, FieldId, RecordKey, Result, ScanId, TxnId, Value};

use crate::planner::{AccessPlan, Plan, PlannedItem};
use crate::semantic::AggKind;

/// A stream of rows.
pub trait RowSource {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>>;
}

/// Per-plan-node row counters for EXPLAIN ANALYZE. Counters are numbered
/// in the same pre-order as [`Plan::explain_rows`] and keyed by node
/// identity, so inner plans re-instantiated per outer row (nested-loop
/// right sides) accumulate into one counter.
pub struct PlanProfile {
    index: HashMap<usize, usize>,
    counters: Vec<AtomicU64>,
}

impl PlanProfile {
    /// Builds a profile with one counter per node of `plan`.
    pub fn new(plan: &Plan) -> PlanProfile {
        fn walk(p: &Plan, index: &mut HashMap<usize, usize>) {
            let i = index.len();
            index.insert(p as *const Plan as usize, i);
            for c in p.children() {
                walk(c, index);
            }
        }
        let mut index = HashMap::new();
        walk(plan, &mut index);
        let counters = (0..index.len()).map(|_| AtomicU64::new(0)).collect();
        PlanProfile { index, counters }
    }

    fn counter(&self, node: &Plan) -> Option<&AtomicU64> {
        self.index
            .get(&(node as *const Plan as usize))
            .and_then(|i| self.counters.get(*i))
    }

    /// Rows produced by each node, in pre-order.
    pub fn actuals(&self) -> Vec<u64> {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// Counts the rows a node hands to its parent.
struct Profiled<'p> {
    inner: Box<dyn RowSource + 'p>,
    rows_out: &'p AtomicU64,
}

impl RowSource for Profiled<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        let r = self.inner.next(ctx)?;
        if r.is_some() {
            self.rows_out.fetch_add(1, Ordering::Relaxed);
        }
        Ok(r)
    }
}

/// Instantiates a plan subtree. `outer` supplies the accumulated outer
/// row an inner access may be parameterised by.
pub fn build<'p>(
    plan: &'p Plan,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
) -> Result<Box<dyn RowSource + 'p>> {
    build_profiled(plan, ctx, outer, None)
}

fn build_profiled<'p>(
    plan: &'p Plan,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
    profile: Option<&'p PlanProfile>,
) -> Result<Box<dyn RowSource + 'p>> {
    let src: Box<dyn RowSource + 'p> = match plan {
        Plan::Access(a) => Box::new(AccessOp::open(a, ctx, outer)?),
        Plan::NlJoin {
            left,
            right,
            filter,
        } => Box::new(NlJoinOp {
            left: build_profiled(left, ctx, outer, profile)?,
            right_plan: right,
            filter: filter.as_ref(),
            cur_left: None,
            right: None,
            profile,
        }),
        Plan::JoinIndexJoin {
            left,
            right,
            att,
            swapped,
            filter,
        } => Box::new(JoinIndexJoinOp::open(
            ctx,
            left,
            right,
            *att,
            *swapped,
            filter.as_ref(),
        )?),
        Plan::Filter { input, pred } => Box::new(FilterOp {
            input: build_profiled(input, ctx, outer, profile)?,
            pred,
        }),
        Plan::Project { input, exprs } => Box::new(ProjectOp {
            input: build_profiled(input, ctx, outer, profile)?,
            exprs,
        }),
        Plan::Aggregate {
            input,
            group_by,
            items,
        } => Box::new(AggOp {
            input: Some(build_profiled(input, ctx, outer, profile)?),
            group_by,
            items,
            out: Vec::new(),
            pos: 0,
            done: false,
        }),
        Plan::Sort { input, keys } => Box::new(SortOp {
            input: Some(build_profiled(input, ctx, outer, profile)?),
            keys,
            out: Vec::new(),
            pos: 0,
            done: false,
        }),
        Plan::Limit { input, n } => Box::new(LimitOp {
            input: build_profiled(input, ctx, outer, profile)?,
            left: *n,
        }),
    };
    Ok(match profile.and_then(|p| p.counter(plan)) {
        Some(c) => Box::new(Profiled {
            inner: src,
            rows_out: c,
        }),
        None => src,
    })
}

/// Drains a plan into materialized rows.
pub fn run_to_rows(plan: &Plan, ctx: &ExecCtx<'_>) -> Result<Vec<Vec<Value>>> {
    let mut src = build(plan, ctx, None)?;
    let mut rows = Vec::new();
    while let Some(r) = src.next(ctx)? {
        rows.push(r);
    }
    Ok(rows)
}

/// Drains one base-table access into `(record key, full row)` pairs: the
/// targets of an `UPDATE`/`DELETE`, all materialized before the first
/// write so the statement never meets its own effects. The caller runs
/// it with snapshot reads off, so every target comes back S-locked and
/// re-read under its lock, with the gaps the access passed fenced.
pub fn run_targets(access: &AccessPlan, ctx: &ExecCtx<'_>) -> Result<Vec<(RecordKey, Vec<Value>)>> {
    let mut op = AccessOp::open(access, ctx, None)?;
    let mut targets = Vec::new();
    while let Some(t) = op.next_keyed(ctx)? {
        targets.push(t);
    }
    Ok(targets)
}

/// Drains a plan into materialized rows while counting the rows each
/// node produced. Returns the rows and the per-node actual row counts in
/// the pre-order of [`Plan::explain_rows`].
pub fn run_analyzed(plan: &Plan, ctx: &ExecCtx<'_>) -> Result<(Vec<Vec<Value>>, Vec<u64>)> {
    let profile = PlanProfile::new(plan);
    let mut rows = Vec::new();
    {
        let mut src = build_profiled(plan, ctx, None, Some(&profile))?;
        while let Some(r) = src.next(ctx)? {
            rows.push(r);
        }
    }
    Ok((rows, profile.actuals()))
}

// Operators take the evaluator (the function registry's read guard) once
// per row they work on, after the pull that produced the row returned: a
// guard held across a pull would be taken again by the operator or scan
// below, and a registration waiting between the two would wedge both.

/// A scan registered with the scan manager, closed when its operator
/// lets go of it — drained, cut short by a `LIMIT` or a join that needs
/// no more of it, or abandoned by a failing statement. Left open, it
/// would stay registered until the transaction ends, asked for its
/// position at every savepoint.
struct OpenScan {
    scans: Arc<ScanManager>,
    txn: TxnId,
    id: ScanId,
}

impl OpenScan {
    fn open(ctx: &ExecCtx<'_>, id: ScanId) -> Self {
        OpenScan {
            scans: ctx.db.scans().clone(),
            txn: ctx.txn.id(),
            id,
        }
    }
}

impl Drop for OpenScan {
    fn drop(&mut self) {
        self.scans.close(self.txn, self.id);
    }
}

/// A full-width row with `values` at the positions `fields` names and
/// NULL elsewhere: what a projecting scan or a covering path supplies.
fn scatter(width: usize, values: Vec<Value>, fields: &[FieldId]) -> Vec<Value> {
    let mut row = vec![Value::Null; width];
    for (v, f) in values.into_iter().zip(fields) {
        if let Some(slot) = row.get_mut(*f as usize) {
            *slot = v;
        }
    }
    row
}

// ----------------------------------------------------------------------

struct AccessOp<'p> {
    plan: &'p AccessPlan,
    /// `None` once exhausted, and from the start when the access is
    /// parameterised by an outer value that is NULL (NULL joins nothing:
    /// no scan is opened).
    scan: Option<OpenScan>,
    /// What the scan last handed over: the qualifying items of one page.
    frame: Frame,
    /// The plan's residual with the outer row's values in it.
    residual: Option<Expr>,
    width: usize,
}

impl<'p> AccessOp<'p> {
    /// Opens on a copy of the plan's query and predicates bound to the
    /// outer row; the plan itself may be cached and shared.
    fn open(plan: &'p AccessPlan, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<Self> {
        let (params, joins_nothing) = match plan.outer_param {
            None => (&[] as &[Value], false),
            Some(slot) => {
                let row = outer.ok_or_else(|| {
                    DmxError::Internal("parameterised access opened without outer row".into())
                })?;
                (row, row.get(slot).is_none_or(Value::is_null))
            }
        };
        let bound = |e: &Option<Expr>| e.as_ref().map(|e| e.bind(params));
        let scan = plan
            .query
            .bind(params)
            .filter(|_| !joins_nothing)
            .map(|q| {
                let (pushed, reads) = (bound(&plan.pushed), plan.reads.clone());
                let id = ctx
                    .db
                    .open_scan(ctx.txn, plan.rd.id, plan.path, q, pushed, reads)?;
                Ok::<_, DmxError>(OpenScan::open(ctx, id))
            })
            .transpose()?;
        Ok(AccessOp {
            plan,
            scan,
            frame: Frame::new(),
            residual: bound(&plan.residual),
            width: plan.rd.schema.len(),
        })
    }

    /// The next qualifying record with the storage-method record key it
    /// lives under (what a write to it is addressed by).
    fn next_keyed(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<(RecordKey, Vec<Value>)>> {
        loop {
            let Some(ScanItem { key, values }) = self.frame.pop_front() else {
                let Some(scan) = &self.scan else {
                    return Ok(None);
                };
                ctx.db.scan_next_frame(ctx.txn, scan.id, &mut self.frame)?;
                if self.frame.is_empty() {
                    self.scan = None;
                }
                continue;
            };
            if let Some(row) = self.assemble(ctx, &key, values)? {
                return Ok(Some((key, row)));
            }
        }
    }

    fn assemble(
        &self,
        ctx: &ExecCtx<'_>,
        key: &RecordKey,
        values: Option<Vec<Value>>,
    ) -> Result<Option<Vec<Value>>> {
        let values = values.unwrap_or_default();
        let row = match (&self.plan.use_covered, self.plan.path) {
            // covering path: the row from the access-path key alone
            (Some(cov), _) => scatter(self.width, values, cov),
            // the fields the scan was asked to read, of a record that
            // passed the pushed predicate in the buffer pool; ascending,
            // so as many as the row is wide are the row
            (None, AccessPath::StorageMethod) => match &self.plan.reads {
                Some(reads) if reads.len() < self.width => scatter(self.width, values, reads),
                _ => values,
            },
            (None, AccessPath::Attachment(_, _)) => {
                // two-step access: record key from the path, record from
                // the storage method (residual filtered in the pool)
                return ctx
                    .db
                    .fetch(ctx.txn, self.plan.rd.id, key, None, self.residual.as_ref());
            }
        };
        match &self.residual {
            Some(res) if !ctx.evaluator().matches(res, &row)? => Ok(None),
            _ => Ok(Some(row)),
        }
    }
}

impl RowSource for AccessOp<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        Ok(self.next_keyed(ctx)?.map(|(_, row)| row))
    }
}

// ----------------------------------------------------------------------

struct NlJoinOp<'p> {
    left: Box<dyn RowSource + 'p>,
    right_plan: &'p Plan,
    filter: Option<&'p Expr>,
    cur_left: Option<Vec<Value>>,
    right: Option<Box<dyn RowSource + 'p>>,
    profile: Option<&'p PlanProfile>,
}

impl RowSource for NlJoinOp<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        loop {
            if self.right.is_none() {
                let Some(lrow) = self.left.next(ctx)? else {
                    return Ok(None);
                };
                self.right = Some(build_profiled(
                    self.right_plan,
                    ctx,
                    Some(&lrow),
                    self.profile,
                )?);
                self.cur_left = Some(lrow);
            }
            let Some(right) = self.right.as_mut() else {
                // Just assigned above; looping rebuilds it for the next
                // left row.
                continue;
            };
            let rrow = right.next(ctx)?;
            match rrow {
                None => {
                    self.right = None;
                    self.cur_left = None;
                }
                Some(r) => {
                    let Some(mut row) = self.cur_left.clone() else {
                        // `cur_left` is set together with `right`; if it is
                        // gone, restart from the next left row.
                        self.right = None;
                        continue;
                    };
                    row.extend(r);
                    if let Some(f) = self.filter {
                        if !ctx.evaluator().matches(f, &row)? {
                            continue;
                        }
                    }
                    return Ok(Some(row));
                }
            }
        }
    }
}

// ----------------------------------------------------------------------

struct JoinIndexJoinOp<'p> {
    left: &'p RelationDescriptor,
    right: &'p RelationDescriptor,
    swapped: bool,
    filter: Option<&'p Expr>,
    /// `None` once exhausted.
    scan: Option<OpenScan>,
}

impl<'p> JoinIndexJoinOp<'p> {
    fn open(
        ctx: &ExecCtx<'_>,
        left: &'p RelationDescriptor,
        right: &'p RelationDescriptor,
        att: (dmx_types::AttTypeId, dmx_types::AttInstanceId),
        swapped: bool,
        filter: Option<&'p Expr>,
    ) -> Result<Self> {
        // the pair scan lives on whichever relation carries the instance
        // we planned with (the FROM-left one)
        let scan = ctx.db.open_scan(
            ctx.txn,
            left.id,
            AccessPath::Attachment(att.0, att.1),
            AccessQuery::All,
            None,
            None,
        )?;
        Ok(JoinIndexJoinOp {
            left,
            right,
            swapped,
            filter,
            scan: Some(OpenScan::open(ctx, scan)),
        })
    }
}

impl RowSource for JoinIndexJoinOp<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        loop {
            let Some(scan) = &self.scan else {
                return Ok(None);
            };
            let Some(item) = ctx.db.scan_next(ctx.txn, scan.id)? else {
                self.scan = None;
                return Ok(None);
            };
            let pair_right = match item.values.as_ref().and_then(|v| v.first()) {
                Some(Value::Bytes(b)) => RecordKey::new(b.clone()),
                _ => return Err(DmxError::Internal("join index pair shape".into())),
            };
            // pair = (join-index-left key, join-index-right key); map onto
            // FROM-order tables
            let (lkey, rkey) = if self.swapped {
                (pair_right, item.key)
            } else {
                (item.key, pair_right)
            };
            let Some(lrow) = ctx.db.fetch(ctx.txn, self.left.id, &lkey, None, None)? else {
                continue;
            };
            let Some(rrow) = ctx.db.fetch(ctx.txn, self.right.id, &rkey, None, None)? else {
                continue;
            };
            let mut row = lrow;
            row.extend(rrow);
            if let Some(f) = self.filter {
                if !ctx.evaluator().matches(f, &row)? {
                    continue;
                }
            }
            return Ok(Some(row));
        }
    }
}

// ----------------------------------------------------------------------

struct FilterOp<'p> {
    input: Box<dyn RowSource + 'p>,
    pred: &'p Expr,
}

impl RowSource for FilterOp<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        while let Some(row) = self.input.next(ctx)? {
            if ctx.evaluator().matches(self.pred, &row)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

struct ProjectOp<'p> {
    input: Box<dyn RowSource + 'p>,
    exprs: &'p [Expr],
}

impl RowSource for ProjectOp<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        let Some(row) = self.input.next(ctx)? else {
            return Ok(None);
        };
        let eval = ctx.evaluator();
        let mut out = Vec::with_capacity(self.exprs.len());
        for e in self.exprs {
            out.push(eval.value(e, &row)?);
        }
        Ok(Some(out))
    }
}

struct LimitOp<'p> {
    input: Box<dyn RowSource + 'p>,
    left: u64,
}

impl RowSource for LimitOp<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        if self.left == 0 {
            return Ok(None);
        }
        match self.input.next(ctx)? {
            Some(r) => {
                self.left -= 1;
                Ok(Some(r))
            }
            None => Ok(None),
        }
    }
}

struct SortOp<'p> {
    input: Option<Box<dyn RowSource + 'p>>,
    keys: &'p [(usize, bool)],
    out: Vec<Vec<Value>>,
    pos: usize,
    done: bool,
}

impl RowSource for SortOp<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        if !self.done {
            let Some(mut input) = self.input.take() else {
                self.done = true;
                return Ok(None);
            };
            while let Some(r) = input.next(ctx)? {
                self.out.push(r);
            }
            let keys = self.keys;
            self.out.sort_by(|a, b| {
                for (idx, desc) in keys {
                    let ord = a[*idx].total_cmp(&b[*idx]);
                    if ord != std::cmp::Ordering::Equal {
                        return if *desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.done = true;
        }
        if self.pos >= self.out.len() {
            return Ok(None);
        }
        self.pos += 1;
        Ok(Some(self.out[self.pos - 1].clone()))
    }
}

// ----------------------------------------------------------------------

struct AggState {
    representative: Vec<Value>,
    count: u64,
    per_item: Vec<ItemAcc>,
}

enum ItemAcc {
    Scalar,
    Count(u64),
    Sum {
        int: i64,
        float: f64,
        any_float: bool,
        seen: bool,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
    Avg {
        sum: f64,
        n: u64,
    },
}

struct AggOp<'p> {
    input: Option<Box<dyn RowSource + 'p>>,
    group_by: &'p [Expr],
    items: &'p [PlannedItem],
    out: Vec<Vec<Value>>,
    pos: usize,
    done: bool,
}

impl AggOp<'_> {
    fn make_accs(items: &[PlannedItem]) -> Vec<ItemAcc> {
        items
            .iter()
            .map(|i| match i {
                PlannedItem::Scalar(_) => ItemAcc::Scalar,
                PlannedItem::Agg(AggKind::Count | AggKind::CountStar, _) => ItemAcc::Count(0),
                PlannedItem::Agg(AggKind::Sum, _) => ItemAcc::Sum {
                    int: 0,
                    float: 0.0,
                    any_float: false,
                    seen: false,
                },
                PlannedItem::Agg(AggKind::Min, _) => ItemAcc::MinMax {
                    best: None,
                    is_min: true,
                },
                PlannedItem::Agg(AggKind::Max, _) => ItemAcc::MinMax {
                    best: None,
                    is_min: false,
                },
                PlannedItem::Agg(AggKind::Avg, _) => ItemAcc::Avg { sum: 0.0, n: 0 },
            })
            .collect()
    }

    fn accumulate(&self, eval: &Evaluator<'_>, st: &mut AggState, row: &[Value]) -> Result<()> {
        st.count += 1;
        for (acc, item) in st.per_item.iter_mut().zip(self.items) {
            let arg = match item {
                PlannedItem::Agg(_, Some(e)) => Some(eval.value(e, &row)?),
                _ => None,
            };
            match (acc, item) {
                (ItemAcc::Scalar, _) => {}
                (ItemAcc::Count(n), PlannedItem::Agg(AggKind::CountStar, _)) => *n += 1,
                (ItemAcc::Count(n), _) => {
                    if !arg.as_ref().map(|v| v.is_null()).unwrap_or(true) {
                        *n += 1;
                    }
                }
                (
                    ItemAcc::Sum {
                        int,
                        float,
                        any_float,
                        seen,
                    },
                    _,
                ) => match arg {
                    Some(Value::Int(i)) => {
                        *int += i;
                        *float += i as f64;
                        *seen = true;
                    }
                    Some(Value::Float(x)) => {
                        *float += x;
                        *any_float = true;
                        *seen = true;
                    }
                    Some(Value::Null) | None => {}
                    Some(other) => return Err(DmxError::TypeMismatch(format!("SUM({other})"))),
                },
                (ItemAcc::MinMax { best, is_min }, _) => {
                    if let Some(v) = arg {
                        if !v.is_null() {
                            let replace = match best {
                                None => true,
                                Some(b) => {
                                    let ord = v.total_cmp(b);
                                    if *is_min {
                                        ord == std::cmp::Ordering::Less
                                    } else {
                                        ord == std::cmp::Ordering::Greater
                                    }
                                }
                            };
                            if replace {
                                *best = Some(v);
                            }
                        }
                    }
                }
                (ItemAcc::Avg { sum, n }, _) => {
                    if let Some(v) = arg {
                        if !v.is_null() {
                            *sum += v.as_float()?;
                            *n += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(&self, eval: &Evaluator<'_>, st: AggState) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(self.items.len());
        for (acc, item) in st.per_item.into_iter().zip(self.items) {
            out.push(match (acc, item) {
                (ItemAcc::Scalar, PlannedItem::Scalar(e)) => {
                    if st.representative.is_empty() {
                        Value::Null
                    } else {
                        eval.value(e, &st.representative)?
                    }
                }
                (ItemAcc::Count(n), _) => Value::Int(n as i64),
                (
                    ItemAcc::Sum {
                        int,
                        float,
                        any_float,
                        seen,
                    },
                    _,
                ) => {
                    if !seen {
                        Value::Null
                    } else if any_float {
                        Value::Float(float)
                    } else {
                        Value::Int(int)
                    }
                }
                (ItemAcc::MinMax { best, .. }, _) => best.unwrap_or(Value::Null),
                (ItemAcc::Avg { sum, n }, _) => {
                    if n == 0 {
                        Value::Null
                    } else {
                        Value::Float(sum / n as f64)
                    }
                }
                (ItemAcc::Scalar, _) => unreachable!(),
            });
        }
        Ok(out)
    }
}

impl RowSource for AggOp<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        if !self.done {
            let Some(mut input) = self.input.take() else {
                self.done = true;
                return Ok(None);
            };
            let mut groups: BTreeMap<Vec<u8>, AggState> = BTreeMap::new();
            while let Some(row) = input.next(ctx)? {
                let eval = ctx.evaluator();
                let mut key_vals = Vec::with_capacity(self.group_by.len());
                for g in self.group_by {
                    key_vals.push(eval.value(g, &row)?);
                }
                let key = encode_values(&key_vals);
                let st = groups.entry(key).or_insert_with(|| AggState {
                    representative: row.clone(),
                    count: 0,
                    per_item: Self::make_accs(self.items),
                });
                self.accumulate(&eval, st, &row)?;
            }
            if groups.is_empty() && self.group_by.is_empty() {
                // aggregates over an empty input yield one row
                groups.insert(
                    Vec::new(),
                    AggState {
                        representative: Vec::new(),
                        count: 0,
                        per_item: Self::make_accs(self.items),
                    },
                );
            }
            let eval = ctx.evaluator();
            for (_, st) in groups {
                let row = self.finish(&eval, st)?;
                self.out.push(row);
            }
            self.done = true;
        }
        if self.pos >= self.out.len() {
            return Ok(None);
        }
        self.pos += 1;
        Ok(Some(self.out[self.pos - 1].clone()))
    }
}
