//! Plan execution, a frame at a time where the rows come in frames.
//!
//! Every base-table access goes through the unified access interface:
//! open a key-sequential access on the chosen path (path zero = storage
//! method), then — for access paths that don't cover the query — fetch
//! each record from the storage method by its record key ("first the
//! access path is accessed to obtain a record key, which is then used to
//! access the relation record in the storage method").
//!
//! A scan hands up what one pinned page holds ([`Frame`]); the access
//! node hands the same on as rows of just the fields it read
//! ([`RowFrame`], [`RowSource::fields`]), and filter, projection and
//! aggregation work on those. A row as wide as its table is built only
//! for a parent that asks for rows one at a time — a join, a sort, a
//! limit, EXPLAIN ANALYZE's counting wrapper.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dmx_core::{
    AccessPath, AccessQuery, Evaluator, ExecCtx, Frame, RelationDescriptor, ScanItem, ScanManager,
};
use dmx_expr::eval::MappedSource;
use dmx_expr::{Expr, FieldSource};
use dmx_types::{key::encode_value, DmxError, FieldId, RecordKey, Result, ScanId, TxnId, Value};

use crate::planner::{AccessPlan, Plan, PlannedItem};
use crate::semantic::AggKind;

/// The unit a plan node hands its parent: the rows that came of one frame
/// of the scan below, in order. Like [`Frame`] it has no size of its own,
/// and the caller keeps and reuses it from one pull to the next.
pub type RowFrame = VecDeque<Vec<Value>>;

/// A stream of rows.
///
/// A node implements [`RowSource::next`]; that is all one needs, and
/// [`RowSource::next_frame`] then hands its rows out one to a frame.
/// Overriding `next_frame` pays for a node that gets its input in frames
/// and works on each row by itself. An override keeps `next` and
/// `next_frame` views of one stream (a parent uses one of them, but
/// which is the parent's business), and takes the evaluator after the
/// pull that filled the frame — see the note on guards below.
pub trait RowSource {
    /// The next row, as wide as the node's output.
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>>;

    /// Appends the next rows to `frame`, which arrives empty: as many as
    /// came of one frame below, at least one unless the node is
    /// exhausted. Each holds the fields [`RowSource::fields`] names.
    fn next_frame(&mut self, ctx: &ExecCtx<'_>, frame: &mut RowFrame) -> Result<()> {
        frame.extend(self.next(ctx)?);
        Ok(())
    }

    /// The fields of the node's output that a row of `next_frame` holds,
    /// in the row's order — what a scan was asked to read, or what a
    /// covering path supplies. `None`: the rows are whole, as `next`'s
    /// always are.
    fn fields(&self) -> Option<&[FieldId]> {
        None
    }

    /// Makes this the node that [`build`] with `outer` would make: the
    /// inner side of a join, moved on to the join's next outer row. A
    /// node that can keeps what it has open. `Ok(false)`, the default:
    /// it cannot, and the join drops it and builds another.
    fn rebind(&mut self, _ctx: &ExecCtx<'_>, _outer: &[Value]) -> Result<bool> {
        Ok(false)
    }
}

/// Runs `f` over `row`, whose values are the fields `fields` names
/// (`None`: all of them, in order).
fn over<T>(row: &[Value], fields: Option<&[FieldId]>, f: impl FnOnce(&dyn FieldSource) -> T) -> T {
    match fields {
        Some(fields) => f(&MappedSource::new(row, fields)),
        None => f(&row),
    }
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

    fn rebind(&mut self, ctx: &ExecCtx<'_>, outer: &[Value]) -> Result<bool> {
        self.inner.rebind(ctx, outer)
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
            out: Vec::new().into_iter(),
        }),
        Plan::Sort { input, keys } => Box::new(SortOp {
            input: Some(build_profiled(input, ctx, outer, profile)?),
            keys,
            out: Vec::new().into_iter(),
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

/// Drains a plan into materialized rows, a frame at a time.
pub fn run_to_rows(plan: &Plan, ctx: &ExecCtx<'_>) -> Result<Vec<Vec<Value>>> {
    let mut src = build(plan, ctx, None)?;
    // The planner tops every plan with a node whose rows are whole; a
    // bare access of a few fields is asked for them one at a time.
    let whole = src.fields().is_none();
    let (mut rows, mut frame) = (Vec::new(), RowFrame::new());
    loop {
        if whole {
            src.next_frame(ctx, &mut frame)?;
        } else {
            frame.extend(src.next(ctx)?);
        }
        if frame.is_empty() {
            return Ok(rows);
        }
        rows.extend(frame.drain(..));
    }
}

/// Drains one base-table access into `(record key, full row)` pairs: the
/// targets of an `UPDATE`/`DELETE`, all materialized before the first
/// write so the statement never meets its own effects, each row read
/// under a lock on its key that the transaction keeps. A storage
/// method's [`AccessQuery::Record`] is the one record fetched by key
/// under its X lock. Anything else opens the access, which the caller
/// runs with snapshot reads off, so every target comes back S-locked
/// and re-read under its lock, with the gaps the access passed fenced.
pub fn run_targets(access: &AccessPlan, ctx: &ExecCtx<'_>) -> Result<Vec<(RecordKey, Vec<Value>)>> {
    if let (AccessPath::StorageMethod, AccessQuery::Record(key)) = (access.path, &access.query) {
        // `pushed` holds every conjunct of the `WHERE`
        let row = ctx
            .db
            .fetch_target(ctx.txn, access.rd.id, key, access.pushed.as_ref())?;
        return Ok(row.map(|row| (key.clone(), row)).into_iter().collect());
    }
    let mut op = AccessOp::open(access, ctx, None)?;
    let mut targets = Vec::new();
    let (width, fields) = (op.width, op.fields);
    // A write reads every column, so `fields` is `None` and the row is
    // handed on as it came.
    while op.pull(ctx, |key, row| {
        targets.push((key, scatter(width, row, fields)))
    })? {}
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
// per frame they work on — once per row when rows come one at a time —
// after the pull that produced it returned, and let go of it before the
// next: a guard held across a pull (`next`, `next_frame`, a scan's
// `scan_next_frame` or `scan_rebind`, a `fetch`) would be taken again by
// the operator or scan below, and a registration waiting between the two
// would wedge both.

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

/// The row as wide as its table that `values` — the fields `fields`
/// names: what a projecting scan or a covering path supplies — stand
/// for, NULL elsewhere. `None`: `values` is that row already.
fn scatter(width: usize, values: Vec<Value>, fields: Option<&[FieldId]>) -> Vec<Value> {
    let Some(fields) = fields else {
        return values;
    };
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
    /// `None` until an outer row has something to look up (NULL joins
    /// nothing: no scan is opened for it); then open, re-bound from one
    /// outer row to the next, until the operator drops.
    scan: Option<OpenScan>,
    /// The scan has more for the outer row it is bound to.
    live: bool,
    /// What the scan last handed over: the qualifying items of one page
    /// (of a two-step access, those whose record is yet to be fetched).
    frame: Frame,
    /// Rows of the last frame that `next` has yet to hand out.
    rows: RowFrame,
    /// The plan's residual with the outer row's values in it.
    residual: Option<Expr>,
    /// What a row of a frame holds ([`RowSource::fields`]).
    fields: Option<&'p [FieldId]>,
    width: usize,
}

impl<'p> AccessOp<'p> {
    fn open(plan: &'p AccessPlan, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<Self> {
        let width = plan.rd.schema.len();
        let fields = match (&plan.use_covered, plan.path) {
            // covering path: the row from the access-path key alone
            (Some(cov), _) => Some(cov.as_slice()),
            // the fields the scan was asked to read; ascending, so as
            // many as the row is wide are the row
            (None, AccessPath::StorageMethod) => {
                plan.reads.as_deref().filter(|reads| reads.len() < width)
            }
            // two-step access: the record, fetched whole
            (None, AccessPath::Attachment(_, _)) => None,
        };
        let mut op = AccessOp {
            plan,
            scan: None,
            live: false,
            frame: Frame::new(),
            rows: RowFrame::new(),
            residual: None,
            fields,
            width,
        };
        op.bind(ctx, outer)?;
        Ok(op)
    }

    /// Binds a copy of the plan's query and predicates to the outer row
    /// (the plan itself may be cached and shared) and puts the scan at
    /// the start of what they ask for: opened if this is the first outer
    /// row with anything to look up, re-bound after that. `false`: the
    /// scan cannot be re-bound, and the join builds a new access.
    fn bind(&mut self, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<bool> {
        let plan = self.plan;
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
        self.rows.clear();
        self.frame.clear();
        self.residual = bound(&plan.residual);
        let query = plan.query.bind(params).filter(|_| !joins_nothing);
        self.live = query.is_some();
        let Some(query) = query else {
            return Ok(true);
        };
        let pushed = bound(&plan.pushed);
        if let Some(scan) = &self.scan {
            return ctx
                .db
                .scan_rebind(ctx.txn, scan.id, &query, pushed.as_ref());
        }
        let (rel, reads) = (plan.rd.id, plan.reads.clone());
        let id = ctx
            .db
            .open_scan(ctx.txn, rel, plan.path, query, pushed, reads)?;
        self.scan = Some(OpenScan::open(ctx, id));
        Ok(true)
    }

    /// Hands `sink` what the scan's next frame holds — each qualifying
    /// record's storage-method record key (what a write to it is
    /// addressed by) and its [`RowSource::fields`] — after the residual.
    /// `false` once the scan has no more.
    fn pull(
        &mut self,
        ctx: &ExecCtx<'_>,
        mut sink: impl FnMut(RecordKey, Vec<Value>),
    ) -> Result<bool> {
        let Some(scan) = self.scan.as_ref().filter(|_| self.live) else {
            return Ok(false);
        };
        if self.frame.is_empty() {
            ctx.db.scan_next_frame(ctx.txn, scan.id, &mut self.frame)?;
            self.live = !self.frame.is_empty();
            if !self.live {
                return Ok(false);
            }
        }
        let two_step =
            self.plan.use_covered.is_none() && self.plan.path != AccessPath::StorageMethod;
        if two_step {
            // record key from the path, record from the storage method
            // (residual filtered in the pool) — one record a pull, so
            // that none is fetched, or locked, that nobody asks for
            let (rel, residual) = (self.plan.rd.id, self.residual.as_ref());
            while let Some(ScanItem { key, .. }) = self.frame.pop_front() {
                if let Some(row) = ctx.db.fetch(ctx.txn, rel, &key, None, residual)? {
                    sink(key, row);
                    break;
                }
            }
            return Ok(true);
        }
        // records that passed the pushed predicate in the buffer pool, or
        // covered keys: the residual runs on the fields as they came
        let eval = self.residual.as_ref().map(|res| (res, ctx.evaluator()));
        for ScanItem { key, values } in self.frame.drain(..) {
            let values = values.unwrap_or_default();
            if let Some((res, eval)) = &eval {
                if !over(&values, self.fields, |src| eval.matches(res, src))? {
                    continue;
                }
            }
            sink(key, values);
        }
        Ok(true)
    }
}

impl RowSource for AccessOp<'_> {
    /// The one-row view of `next_frame`, the row widened to its table's.
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        if self.rows.is_empty() {
            let mut rows = std::mem::take(&mut self.rows);
            let res = self.next_frame(ctx, &mut rows);
            self.rows = rows;
            res?;
        }
        let row = self.rows.pop_front();
        Ok(row.map(|row| scatter(self.width, row, self.fields)))
    }

    fn next_frame(&mut self, ctx: &ExecCtx<'_>, frame: &mut RowFrame) -> Result<()> {
        frame.append(&mut self.rows);
        while frame.is_empty() && self.pull(ctx, |_, row| frame.push_back(row))? {}
        Ok(())
    }

    fn fields(&self) -> Option<&[FieldId]> {
        self.fields
    }

    fn rebind(&mut self, ctx: &ExecCtx<'_>, outer: &[Value]) -> Result<bool> {
        self.bind(ctx, Some(outer))
    }
}

// ----------------------------------------------------------------------

struct NlJoinOp<'p> {
    left: Box<dyn RowSource + 'p>,
    right_plan: &'p Plan,
    filter: Option<&'p Expr>,
    /// The left row being joined, while its right side has more.
    cur_left: Option<Vec<Value>>,
    /// Built for the first left row and re-bound to each one after it —
    /// or, when it cannot be, dropped and built again.
    right: Option<Box<dyn RowSource + 'p>>,
    profile: Option<&'p PlanProfile>,
}

impl RowSource for NlJoinOp<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        loop {
            let Some(lrow) = &self.cur_left else {
                let Some(lrow) = self.left.next(ctx)? else {
                    return Ok(None);
                };
                let rebound = match &mut self.right {
                    Some(right) => right.rebind(ctx, &lrow)?,
                    None => false,
                };
                if !rebound {
                    // the old side's scans close before the new one's open
                    self.right = None;
                    let right = build_profiled(self.right_plan, ctx, Some(&lrow), self.profile)?;
                    self.right = Some(right);
                }
                self.cur_left = Some(lrow);
                continue;
            };
            let Some(right) = self.right.as_mut() else {
                return Err(DmxError::Internal("join lost its right side".into()));
            };
            let Some(rrow) = right.next(ctx)? else {
                self.cur_left = None;
                continue;
            };
            let mut row = Vec::with_capacity(lrow.len() + rrow.len());
            row.extend_from_slice(lrow);
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

impl ProjectOp<'_> {
    fn project(&self, eval: &Evaluator<'_>, src: &dyn FieldSource) -> Result<Vec<Value>> {
        // sized here: collected through `Result`, an iterator has lost
        // its length, and a result row would keep the slack of growing
        let mut out = Vec::with_capacity(self.exprs.len());
        for e in self.exprs {
            out.push(eval.value(e, src)?);
        }
        Ok(out)
    }
}

impl RowSource for ProjectOp<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        let Some(row) = self.input.next(ctx)? else {
            return Ok(None);
        };
        self.project(&ctx.evaluator(), &row).map(Some)
    }

    fn next_frame(&mut self, ctx: &ExecCtx<'_>, frame: &mut RowFrame) -> Result<()> {
        self.input.next_frame(ctx, frame)?;
        if frame.is_empty() {
            return Ok(());
        }
        let eval = ctx.evaluator();
        let fields = self.input.fields();
        for row in frame.iter_mut() {
            *row = over(row, fields, |src| self.project(&eval, src))?;
        }
        Ok(())
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
    /// `None` once drained into `out`.
    input: Option<Box<dyn RowSource + 'p>>,
    keys: &'p [(usize, bool)],
    /// The sorted rows, moved out one at a time.
    out: std::vec::IntoIter<Vec<Value>>,
}

impl RowSource for SortOp<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        if let Some(mut input) = self.input.take() {
            let mut rows = Vec::new();
            while let Some(r) = input.next(ctx)? {
                rows.push(r);
            }
            let keys = self.keys;
            rows.sort_by(|a, b| {
                for (idx, desc) in keys {
                    let ord = a[*idx].total_cmp(&b[*idx]);
                    if ord != std::cmp::Ordering::Equal {
                        return if *desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.out = rows.into_iter();
        }
        Ok(self.out.next())
    }
}

// ----------------------------------------------------------------------

struct AggState {
    /// The group's first row as it came (the input's
    /// [`RowSource::fields`]), kept when a select item reads it.
    representative: Option<Vec<Value>>,
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
    /// `None` once drained into `out`.
    input: Option<Box<dyn RowSource + 'p>>,
    group_by: &'p [Expr],
    items: &'p [PlannedItem],
    /// One row per group, moved out one at a time.
    out: std::vec::IntoIter<Vec<Value>>,
}

impl AggOp<'_> {
    fn new_state(&self) -> AggState {
        AggState {
            representative: None,
            per_item: Self::make_accs(self.items),
        }
    }

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

    fn accumulate(
        &self,
        eval: &Evaluator<'_>,
        st: &mut AggState,
        src: &dyn FieldSource,
    ) -> Result<()> {
        for (acc, item) in st.per_item.iter_mut().zip(self.items) {
            let arg = match item {
                PlannedItem::Agg(_, Some(e)) => Some(eval.value(e, src)?),
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

    /// A group's output row; `fields` are what its representative holds.
    fn finish(
        &self,
        eval: &Evaluator<'_>,
        st: AggState,
        fields: Option<&[FieldId]>,
    ) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(self.items.len());
        for (acc, item) in st.per_item.into_iter().zip(self.items) {
            out.push(match (acc, item) {
                (ItemAcc::Scalar, PlannedItem::Scalar(e)) => match &st.representative {
                    // no row at all: aggregates over an empty input
                    None => Value::Null,
                    Some(row) => over(row, fields, |src| eval.value(e, src))?,
                },
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
                (ItemAcc::Scalar, PlannedItem::Agg(..)) => {
                    return Err(DmxError::Internal("aggregate without accumulator".into()))
                }
            });
        }
        Ok(out)
    }

    /// Reads the input to its end, a frame at a time — rows of just the
    /// fields the scan read, no wider one built — into one state per
    /// group, and the states into `out` in the order of their encoded
    /// keys (the order the groups' values sort in).
    fn drain(&mut self, ctx: &ExecCtx<'_>, mut input: Box<dyn RowSource + '_>) -> Result<()> {
        // outlive the input, in the representatives
        let fields = input.fields().map(<[_]>::to_vec);
        let fields = fields.as_deref();
        let keeps_row = self
            .items
            .iter()
            .any(|i| matches!(i, PlannedItem::Scalar(_)));
        // Without GROUP BY there is one group, there before its first
        // row: aggregates over an empty input yield one row.
        let mut only = self.group_by.is_empty().then(|| self.new_state());
        let mut groups: HashMap<Vec<u8>, AggState> = HashMap::new();
        let (mut frame, mut key) = (RowFrame::new(), Vec::new());
        loop {
            input.next_frame(ctx, &mut frame)?;
            if frame.is_empty() {
                break;
            }
            let eval = ctx.evaluator();
            for row in frame.drain(..) {
                over(&row, fields, |src| {
                    let add_to = |st: &mut AggState| {
                        if keeps_row && st.representative.is_none() {
                            st.representative = Some(row.clone());
                        }
                        self.accumulate(&eval, st, src)
                    };
                    if let Some(st) = &mut only {
                        return add_to(st);
                    }
                    // looked up by the key as it is put together: only a
                    // new group gets a key, and a state, of its own
                    key.clear();
                    for g in self.group_by {
                        encode_value(&eval.value(g, src)?, &mut key);
                    }
                    if let Some(st) = groups.get_mut(key.as_slice()) {
                        return add_to(st);
                    }
                    let mut st = self.new_state();
                    add_to(&mut st)?;
                    groups.insert(key.clone(), st);
                    Ok(())
                })?;
            }
        }
        drop(input); // its scans close here, not when the last row is handed out
        let mut groups: Vec<_> = groups.into_iter().collect();
        groups.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        let eval = ctx.evaluator();
        let states = only.into_iter().chain(groups.into_iter().map(|(_, st)| st));
        let out: Result<Vec<_>> = states.map(|st| self.finish(&eval, st, fields)).collect();
        self.out = out?.into_iter();
        Ok(())
    }
}

impl RowSource for AggOp<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        if let Some(input) = self.input.take() {
            self.drain(ctx, input)?;
        }
        Ok(self.out.next())
    }
}
