//! Plan construction: cost-based access-path selection and join strategy
//! choice.
//!
//! For every base table the planner hands the eligible predicates to the
//! storage method ("access path zero") and to each access-path attachment
//! instance; each returns a [`PathChoice`] with its estimated cost, and
//! the cheapest (plus the cost of fetching uncovered fields) wins. Joins
//! prefer a join index linking the two relations, then an index
//! nested-loop probe, then a plain nested loop.

use std::collections::BTreeSet;
use std::sync::Arc;

use dmx_core::{AccessPath, AccessQuery, Cost, Database, PathChoice, RelationDescriptor};
use dmx_expr::{analyze, CmpOp, Expr};
use dmx_types::{DmxError, FieldId, Result};

use crate::ast::{AstExpr, OrderTarget, SelectStmt, Stmt, TableRef};
use crate::semantic::{AggKind, Binder, BoundItem, BoundTable};

/// Per-probe I/O estimate for an index nested-loop join.
const PROBE_COST: f64 = 3.0;

/// How an inner-join access builds its query from the outer row.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeKind {
    /// Encode the outer value and range-scan the index prefix.
    IndexPrefix,
    /// Encode the outer value as a hash probe.
    HashKey,
    /// Encode the outer value as the storage method's record-key prefix
    /// (B-tree-organized relations).
    SmKeyPrefix,
}

/// A parameterized probe: the inner access's query is built from one
/// outer-row value at execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSpec {
    /// Offset of the join value in the *outer* (accumulated) row.
    pub outer_offset: usize,
    pub kind: ProbeKind,
}

/// One base-table access.
#[derive(Clone)]
pub struct AccessPlan {
    pub rd: Arc<RelationDescriptor>,
    pub path: AccessPath,
    pub query: AccessQuery,
    /// Predicate pushed into the storage method scan (local field ids).
    pub pushed: Option<Expr>,
    /// Predicate evaluated against the assembled row (local field ids);
    /// handed to the storage-method fetch so it runs in the buffer pool.
    pub residual: Option<Expr>,
    /// Fields the chosen path covers, when the plan can skip the
    /// storage-method fetch entirely.
    pub use_covered: Option<Vec<FieldId>>,
    pub probe: Option<ProbeSpec>,
    /// Estimated rows out (for join ordering decisions & EXPLAIN).
    pub rows_est: f64,
    /// Total estimated access cost including the uncovered-fetch
    /// surcharge (for join order / strategy decisions).
    pub cost_est: f64,
}

/// The physical plan.
pub enum Plan {
    Access(AccessPlan),
    NlJoin {
        left: Box<Plan>,
        /// Re-instantiated per outer row (may carry a probe).
        right: Box<Plan>,
        /// Cross-table predicate over the concatenated row.
        filter: Option<Expr>,
    },
    JoinIndexJoin {
        left: Arc<RelationDescriptor>,
        right: Arc<RelationDescriptor>,
        att: (dmx_types::AttTypeId, dmx_types::AttInstanceId),
        /// True when the pair's left key belongs to the FROM-order right
        /// table (the join index was created with sides swapped).
        swapped: bool,
        filter: Option<Expr>,
    },
    Filter {
        input: Box<Plan>,
        pred: Expr,
    },
    Project {
        input: Box<Plan>,
        exprs: Vec<Expr>,
    },
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<Expr>,
        items: Vec<PlannedItem>,
    },
    Sort {
        input: Box<Plan>,
        /// (output column, descending)
        keys: Vec<(usize, bool)>,
    },
    Limit {
        input: Box<Plan>,
        n: u64,
    },
}

/// Output item in an aggregate plan.
pub enum PlannedItem {
    Scalar(Expr),
    Agg(AggKind, Option<Expr>),
}

/// A compiled SELECT: plan + output names + dependencies.
pub struct CompiledSelect {
    pub plan: Plan,
    pub columns: Vec<String>,
    pub deps: Vec<dmx_core::DepKey>,
}

/// Rewrites column offsets through `f`.
pub fn remap_columns(e: &Expr, f: &dyn Fn(FieldId) -> FieldId) -> Expr {
    match e {
        Expr::Const(v) => Expr::Const(v.clone()),
        Expr::Column(c) => Expr::Column(f(*c)),
        Expr::Param(p) => Expr::Param(*p),
        Expr::Cmp(op, l, r) => Expr::Cmp(
            *op,
            Box::new(remap_columns(l, f)),
            Box::new(remap_columns(r, f)),
        ),
        Expr::And(v) => Expr::And(v.iter().map(|e| remap_columns(e, f)).collect()),
        Expr::Or(v) => Expr::Or(v.iter().map(|e| remap_columns(e, f)).collect()),
        Expr::Not(i) => Expr::Not(Box::new(remap_columns(i, f))),
        Expr::Arith(op, l, r) => Expr::Arith(
            *op,
            Box::new(remap_columns(l, f)),
            Box::new(remap_columns(r, f)),
        ),
        Expr::Neg(i) => Expr::Neg(Box::new(remap_columns(i, f))),
        Expr::IsNull(i, n) => Expr::IsNull(Box::new(remap_columns(i, f)), *n),
        Expr::Like(i, p) => Expr::Like(Box::new(remap_columns(i, f)), p.clone()),
        Expr::Encloses(l, r) => {
            Expr::Encloses(Box::new(remap_columns(l, f)), Box::new(remap_columns(r, f)))
        }
        Expr::Intersects(l, r) => {
            Expr::Intersects(Box::new(remap_columns(l, f)), Box::new(remap_columns(r, f)))
        }
        Expr::Func(n, args) => Expr::Func(
            n.clone(),
            args.iter().map(|e| remap_columns(e, f)).collect(),
        ),
    }
}

/// Which tables (by index into the binder) an expression references.
fn tables_of(e: &Expr, tables: &[BoundTable]) -> BTreeSet<usize> {
    let cols = analyze::columns(e);
    let mut out = BTreeSet::new();
    for c in cols {
        let c = c as usize;
        for (i, t) in tables.iter().enumerate() {
            if c >= t.offset && c < t.offset + t.rd.schema.len() {
                out.insert(i);
            }
        }
    }
    out
}

/// Chooses the cheapest access path for one table. `eligible` uses local
/// field ids; `needed_fields` is the full set of (local) fields the
/// query must read from this table, so covering-path decisions account
/// for projected columns, not just filtered ones. Returns the winning
/// choice, the residual predicates, and the total estimated cost
/// (access plus uncovered-fetch surcharge).
pub fn choose_path(
    db: &Arc<Database>,
    rd: &Arc<RelationDescriptor>,
    eligible: &[Expr],
    needed_fields: &BTreeSet<FieldId>,
) -> Result<(PathChoice, Vec<Expr>, f64)> {
    let sm = db.registry().storage(rd.sm)?;
    let mut best = sm.estimate(rd, eligible);
    let mut best_fetch = fetch_surcharge(&best, eligible, needed_fields);
    for (att_id, insts) in rd.attached_types() {
        let Ok(att) = db.registry().attachment(att_id) else {
            continue;
        };
        for inst in insts {
            if let Some(choice) = att.estimate(rd, inst, eligible) {
                let surcharge = fetch_surcharge(&choice, eligible, needed_fields);
                if choice.cost.total() + surcharge < best.cost.total() + best_fetch {
                    best = choice;
                    best_fetch = surcharge;
                }
            }
        }
    }
    // residual = eligible minus what the chosen path fully applies
    let residual: Vec<Expr> = eligible
        .iter()
        .filter(|p| !best.applied.contains(p))
        .cloned()
        .collect();
    let total = best.cost.total() + best_fetch;
    Ok((best, residual, total))
}

/// Extra cost of fetching records the path does not cover: a path must
/// supply every needed field (projection, grouping, filters) to skip the
/// per-row record fetch.
fn fetch_surcharge(
    choice: &PathChoice,
    eligible: &[Expr],
    needed_fields: &BTreeSet<FieldId>,
) -> f64 {
    match (&choice.path, &choice.covered) {
        (AccessPath::StorageMethod, _) => 0.0,
        (_, Some(covered)) => {
            let mut needed = needed_fields.clone();
            for e in eligible {
                needed.extend(analyze::columns(e));
            }
            if needed.iter().all(|c| covered.contains(c)) {
                // covering path: no record fetches at all
                0.0
            } else {
                // ~0.2 page transfers per fetched record: the buffer pool
                // absorbs most fetches once a table's hot pages are
                // resident, so charging full transfers would make a
                // selective index path lose to scanning a small table.
                choice.rows_out * 0.2
            }
        }
        _ => choice.rows_out * 0.2,
    }
}

/// Builds the access plan for one table given its local predicates and
/// the full set of fields the query needs from it.
fn plan_table(
    db: &Arc<Database>,
    rd: &Arc<RelationDescriptor>,
    local_preds: Vec<Expr>,
    needed_fields: &BTreeSet<FieldId>,
) -> Result<AccessPlan> {
    let (choice, residual, cost_est) = choose_path(db, rd, &local_preds, needed_fields)?;
    let residual_expr = combine(residual);
    let (pushed, use_covered) = match &choice.path {
        AccessPath::StorageMethod => (combine(local_preds.clone()), None),
        AccessPath::Attachment(_, _) => {
            let use_covered = match &choice.covered {
                Some(cov)
                    if needed_fields.iter().all(|f| cov.contains(f))
                        && residual_expr
                            .as_ref()
                            .map(|e| analyze::columns(e).iter().all(|c| cov.contains(c)))
                            .unwrap_or(true) =>
                {
                    Some(cov.clone())
                }
                _ => None,
            };
            (None, use_covered)
        }
    };
    Ok(AccessPlan {
        rd: rd.clone(),
        path: choice.path,
        query: choice.query,
        pushed,
        residual: residual_expr,
        use_covered,
        probe: None,
        rows_est: choice.rows_out,
        cost_est,
    })
}

/// Plans the target access of an `UPDATE`/`DELETE`: the statement's
/// `WHERE`, split into conjuncts, goes through the same chooser as a
/// one-table SELECT that reads every column. The binder comes back for
/// the statement's other expressions (`SET` right-hand sides).
pub fn plan_targets(
    db: &Arc<Database>,
    table: &str,
    where_: Option<&AstExpr>,
) -> Result<(Binder, AccessPlan)> {
    let binder = Binder::new(
        db,
        &[TableRef {
            table: table.to_string(),
            alias: None,
        }],
    )?;
    let rd = binder.tables[0].rd.clone();
    let preds: Vec<Expr> = match where_ {
        Some(w) => analyze::conjuncts(&binder.bind_expr(w)?)
            .into_iter()
            .cloned()
            .collect(),
        None => Vec::new(),
    };
    let whole_row: BTreeSet<FieldId> = (0..rd.schema.len() as FieldId).collect();
    let mut access = plan_table(db, &rd, preds.clone(), &whole_row)?;
    if let AccessPath::Attachment(_, _) = access.path {
        // The write needs the record itself, and an entry read before
        // its record lock was granted may describe a writer that has
        // since rolled back: every conjunct is checked again on the
        // record fetched under the lock, not only the path's residual.
        access.use_covered = None;
        access.residual = combine(preds);
    }
    Ok((binder, access))
}

fn combine(preds: Vec<Expr>) -> Option<Expr> {
    let mut it = preds.into_iter();
    let first = it.next()?;
    Some(it.fold(first, |acc, p| acc.and(p)))
}

/// Looks for a join-index pair linking `left`/`right` on `(lf, rf)`.
fn find_join_index(
    db: &Arc<Database>,
    left: &Arc<RelationDescriptor>,
    right: &Arc<RelationDescriptor>,
    lf: FieldId,
    rf: FieldId,
) -> Option<(dmx_types::AttTypeId, dmx_types::AttInstanceId, bool)> {
    let ji_type = db.registry().attachment_id_by_name("joinindex").ok()?;
    let l_insts = left.attachment_instances(ji_type)?;
    let r_insts = right.attachment_instances(ji_type)?;
    for li in l_insts {
        let ld = dmx_attach::join_index::JiDesc::decode(&li.desc).ok()?;
        if ld.fields != vec![lf] {
            continue;
        }
        for ri in r_insts {
            if ri.name != li.name {
                continue;
            }
            let rdsc = dmx_attach::join_index::JiDesc::decode(&ri.desc).ok()?;
            if rdsc.fields != vec![rf] || rdsc.trees != ld.trees {
                continue;
            }
            if ld.is_left && !rdsc.is_left {
                // pairs are (left-table key, right-table key)
                return Some((ji_type, li.instance, false));
            }
            if !ld.is_left && rdsc.is_left {
                return Some((ji_type, li.instance, true));
            }
        }
    }
    None
}

/// Looks for an index (or keyed storage method) on `rd.field` usable as
/// an inner probe target.
fn find_probe_path(
    db: &Arc<Database>,
    rd: &Arc<RelationDescriptor>,
    field: FieldId,
) -> Option<(AccessPath, ProbeKind, Option<Vec<FieldId>>)> {
    // btree index with this leading field
    if let Ok(t) = db.registry().attachment_id_by_name("btree") {
        if let Some(insts) = rd.attachment_instances(t) {
            for inst in insts {
                if let Ok(d) = dmx_attach::btree_index::IxDesc::decode(&inst.desc) {
                    if d.fields.first() == Some(&field) {
                        return Some((
                            AccessPath::Attachment(t, inst.instance),
                            ProbeKind::IndexPrefix,
                            Some(d.fields),
                        ));
                    }
                }
            }
        }
    }
    // hash index on exactly this field
    if let Ok(t) = db.registry().attachment_id_by_name("hash") {
        if let Some(insts) = rd.attachment_instances(t) {
            for inst in insts {
                if let Ok(d) = dmx_attach::hash_index::HashDesc::decode(&inst.desc) {
                    if d.fields == vec![field] {
                        return Some((
                            AccessPath::Attachment(t, inst.instance),
                            ProbeKind::HashKey,
                            Some(d.fields),
                        ));
                    }
                }
            }
        }
    }
    // B-tree-organized storage with this leading key field
    if let Ok(sm) = db.registry().storage(rd.sm) {
        if sm.name() == "btree" {
            if let Some(ord) = sm.scan_ordering(rd) {
                if ord.first() == Some(&field) {
                    return Some((AccessPath::StorageMethod, ProbeKind::SmKeyPrefix, None));
                }
            }
        }
    }
    None
}

/// Compiles a SELECT into a physical plan.
pub fn plan_select(db: &Arc<Database>, sel: &SelectStmt) -> Result<CompiledSelect> {
    if sel.from.is_empty() {
        return Err(DmxError::Planning("FROM clause required".into()));
    }
    let binder = Binder::new(db, &sel.from)?;
    let items = binder.bind_items(&sel.items)?;
    let where_bound = match &sel.where_ {
        Some(w) => Some(binder.bind_expr(w)?),
        None => None,
    };
    let group_by: Vec<Expr> = sel
        .group_by
        .iter()
        .map(|g| binder.bind_expr(g))
        .collect::<Result<_>>()?;

    // classify conjuncts
    let conjuncts: Vec<Expr> = where_bound
        .as_ref()
        .map(|w| analyze::conjuncts(w).into_iter().cloned().collect())
        .unwrap_or_default();
    let n = binder.tables.len();
    let mut per_table: Vec<Vec<Expr>> = vec![Vec::new(); n];
    let mut cross: Vec<Expr> = Vec::new();
    for c in conjuncts {
        let ts = tables_of(&c, &binder.tables);
        let mut it = ts.iter();
        if let (Some(&i), None) = (it.next(), it.next()) {
            let off = binder.tables[i].offset;
            per_table[i].push(remap_columns(&c, &|f| f - off as FieldId));
        } else {
            cross.push(c);
        }
    }

    // fields each table must supply (projection + filters + grouping)
    let mut needed_global: BTreeSet<FieldId> = BTreeSet::new();
    for item in &items {
        match item {
            BoundItem::Scalar(e, _) => needed_global.extend(analyze::columns(e)),
            BoundItem::Agg(_, Some(e), _) => needed_global.extend(analyze::columns(e)),
            BoundItem::Agg(_, None, _) => {}
        }
    }
    for e in group_by.iter().chain(cross.iter()) {
        needed_global.extend(analyze::columns(e));
    }
    let needed_local = |i: usize| -> BTreeSet<FieldId> {
        let t = &binder.tables[i];
        let mut out: BTreeSet<FieldId> = needed_global
            .iter()
            .filter(|&&c| (c as usize) >= t.offset && (c as usize) < t.offset + t.rd.schema.len())
            .map(|&c| c - t.offset as FieldId)
            .collect();
        for p in &per_table[i] {
            out.extend(analyze::columns(p));
        }
        out
    };

    // deps: every referenced relation
    let mut deps: Vec<dmx_core::DepKey> = binder
        .tables
        .iter()
        .map(|t| dmx_core::DepKey::Relation(t.rd.id))
        .collect();

    // Build the join tree left-deep. Default is FROM order; with two
    // tables and *published statistics* the estimator may flip the
    // outer/inner roles (without statistics the guesses reproduce the
    // historical FROM-order plan exactly).
    let mut order: Vec<usize> = (0..n).collect();
    if n == 2
        && binder
            .tables
            .iter()
            .any(|t| t.rd.stats.table_stats().is_some())
    {
        // Probe availability per direction, and whether a join index
        // links the FROM-order pair (a join index always wins, so the
        // order must not be rotated away from it).
        let mut probe_into = [false; 2];
        let mut has_join_index = false;
        for c in &cross {
            if let Expr::Cmp(CmpOp::Eq, l, r) = c {
                if let (Expr::Column(a), Expr::Column(b)) = (l.as_ref(), r.as_ref()) {
                    let ta = table_of_col(*a, &binder.tables);
                    let tb = table_of_col(*b, &binder.tables);
                    if let (Some(ta), Some(tb)) = (ta, tb) {
                        if ta == tb {
                            continue;
                        }
                        let fa = *a - binder.tables[ta].offset as FieldId;
                        let fb = *b - binder.tables[tb].offset as FieldId;
                        probe_into[tb] |= find_probe_path(db, &binder.tables[tb].rd, fb).is_some();
                        probe_into[ta] |= find_probe_path(db, &binder.tables[ta].rd, fa).is_some();
                        let (f0, f1) = if ta == 0 { (fa, fb) } else { (fb, fa) };
                        has_join_index |=
                            find_join_index(db, &binder.tables[0].rd, &binder.tables[1].rd, f0, f1)
                                .is_some();
                    }
                }
            }
        }
        if !has_join_index {
            let ap0 = plan_table(
                db,
                &binder.tables[0].rd,
                per_table[0].clone(),
                &needed_local(0),
            )?;
            let ap1 = plan_table(
                db,
                &binder.tables[1].rd,
                per_table[1].clone(),
                &needed_local(1),
            )?;
            let nl_cost = |outer: &AccessPlan, inner: &AccessPlan, probe: bool| {
                outer.cost_est
                    + outer.rows_est.max(0.0) * if probe { PROBE_COST } else { inner.cost_est }
            };
            if nl_cost(&ap1, &ap0, probe_into[0]) < nl_cost(&ap0, &ap1, probe_into[1]) {
                order = vec![1, 0];
            }
        }
    }

    // Physical row layout under the chosen order; a trailing Project
    // restores FROM-order layout when the two differ.
    let mut phys_offset = vec![0usize; n];
    {
        let mut acc = 0usize;
        for &ti in &order {
            phys_offset[ti] = acc;
            acc += binder.tables[ti].rd.schema.len();
        }
    }
    let to_phys = |c: FieldId| -> FieldId {
        match table_of_col(c, &binder.tables) {
            Some(t) => (phys_offset[t] + (c as usize - binder.tables[t].offset)) as FieldId,
            None => c,
        }
    };

    let first = order[0];
    let mut plan = Plan::Access(plan_table(
        db,
        &binder.tables[first].rd,
        per_table[first].clone(),
        &needed_local(first),
    )?);
    let mut joined: Vec<usize> = vec![first];
    for &ti in order.iter().skip(1) {
        let t = &binder.tables[ti];
        // find an equi-join conjunct between the joined set and table ti
        let mut equi: Option<(usize, FieldId, FieldId, Expr)> = None;
        for c in &cross {
            if let Expr::Cmp(CmpOp::Eq, l, r) = c {
                if let (Expr::Column(a), Expr::Column(b)) = (l.as_ref(), r.as_ref()) {
                    let ta = table_of_col(*a, &binder.tables);
                    let tb = table_of_col(*b, &binder.tables);
                    if let (Some(ta), Some(tb)) = (ta, tb) {
                        if joined.contains(&ta) && tb == ti {
                            equi = Some((
                                ta,
                                *a - binder.tables[ta].offset as FieldId,
                                *b - binder.tables[tb].offset as FieldId,
                                c.clone(),
                            ));
                            break;
                        }
                        if joined.contains(&tb) && ta == ti {
                            equi = Some((
                                tb,
                                *b - binder.tables[tb].offset as FieldId,
                                *a - binder.tables[ta].offset as FieldId,
                                c.clone(),
                            ));
                            break;
                        }
                    }
                }
            }
        }
        let mut inner = plan_table(db, &t.rd, per_table[ti].clone(), &needed_local(ti))?;
        let mut used_join_index = false;
        if let Some((outer_t, outer_f, inner_f, ref cond)) = equi {
            // join index? (only for plain 2-table joins in FROM order)
            if n == 2 && joined.len() == 1 && first == 0 && outer_t == 0 {
                if let Some((att, inst, swapped)) =
                    find_join_index(db, &binder.tables[0].rd, &t.rd, outer_f, inner_f)
                {
                    let rest: Vec<Expr> = cross.iter().filter(|c| *c != cond).cloned().collect();
                    // single-table predicates still apply after assembly
                    let mut extra: Vec<Expr> = rest;
                    for (pi, preds) in per_table.iter().enumerate() {
                        let off = binder.tables[pi].offset as FieldId;
                        for p in preds {
                            extra.push(remap_columns(p, &|f| f + off));
                        }
                    }
                    plan = Plan::JoinIndexJoin {
                        left: binder.tables[0].rd.clone(),
                        right: t.rd.clone(),
                        att: (att, inst),
                        swapped,
                        filter: combine(extra),
                    };
                    deps.push(dmx_core::DepKey::Attachment(
                        binder.tables[0].rd.id,
                        att,
                        inst,
                    ));
                    cross.clear();
                    joined.push(ti);
                    used_join_index = true;
                }
            }
            if !used_join_index {
                // Index nested loop? Published statistics may reveal an
                // inner relation so small that per-row probes lose to
                // re-scanning it (the probe guess wins otherwise).
                let probe_path = find_probe_path(db, &t.rd, inner_f);
                let probe_pays = t.rd.stats.table_stats().is_none() || inner.cost_est > PROBE_COST;
                if let (Some((path, kind, _covered)), true) = (probe_path, probe_pays) {
                    inner.path = path;
                    inner.probe = Some(ProbeSpec {
                        outer_offset: phys_offset[outer_t] + outer_f as usize,
                        kind,
                    });
                    inner.use_covered = None; // probe rows fetch the record
                                              // The pushed/residual split `plan_table` made belongs
                                              // to the path the probe replaces; the probe path
                                              // applies none of the table's own predicates itself.
                    let local = combine(per_table[ti].clone());
                    (inner.pushed, inner.residual) = match inner.path {
                        AccessPath::StorageMethod => (local, None),
                        AccessPath::Attachment(a, ii) => {
                            deps.push(dmx_core::DepKey::Attachment(t.rd.id, a, ii));
                            (None, local)
                        }
                    };
                    // probing applies the equi-join condition
                    cross.retain(|c| c != cond);
                }
            }
        }
        if !used_join_index {
            // remaining cross conjuncts that now have all tables available
            joined.push(ti);
            let avail: BTreeSet<usize> = joined.iter().copied().collect();
            let (now, later): (Vec<Expr>, Vec<Expr>) = cross
                .iter()
                .cloned()
                .partition(|c| tables_of(c, &binder.tables).is_subset(&avail));
            cross = later;
            plan = Plan::NlJoin {
                left: Box::new(plan),
                right: Box::new(Plan::Access(inner)),
                // join filters run over the *physical* row layout
                filter: combine(now).map(|f| remap_columns(&f, &to_phys)),
            };
        }
    }
    // restore FROM-order column layout when the join was reordered
    if order.windows(2).any(|w| w[0] > w[1]) {
        let exprs = binder
            .tables
            .iter()
            .flat_map(|t| {
                (0..t.rd.schema.len())
                    .map(|local| Expr::Column(to_phys((t.offset + local) as FieldId)))
            })
            .collect();
        plan = Plan::Project {
            input: Box::new(plan),
            exprs,
        };
    }
    if let Some(f) = combine(cross) {
        plan = Plan::Filter {
            input: Box::new(plan),
            pred: f,
        };
    }

    // register access-path dependencies of the single-table plan
    if let Plan::Access(ap) = &plan {
        if let AccessPath::Attachment(a, i) = ap.path {
            deps.push(dmx_core::DepKey::Attachment(ap.rd.id, a, i));
        }
    }

    // aggregation / projection
    let has_agg = items.iter().any(|i| matches!(i, BoundItem::Agg(_, _, _)));
    let columns: Vec<String> = items
        .iter()
        .map(|i| match i {
            BoundItem::Scalar(_, n) | BoundItem::Agg(_, _, n) => n.clone(),
        })
        .collect();
    if has_agg || !group_by.is_empty() {
        let planned = items
            .into_iter()
            .map(|i| match i {
                BoundItem::Scalar(e, _) => PlannedItem::Scalar(e),
                BoundItem::Agg(k, e, _) => PlannedItem::Agg(k, e),
            })
            .collect();
        plan = Plan::Aggregate {
            input: Box::new(plan),
            group_by,
            items: planned,
        };
    } else {
        let exprs = items
            .into_iter()
            .map(|i| match i {
                BoundItem::Scalar(e, _) => e,
                BoundItem::Agg(_, _, _) => unreachable!(),
            })
            .collect();
        plan = Plan::Project {
            input: Box::new(plan),
            exprs,
        };
    }

    // order by output columns
    if !sel.order_by.is_empty() {
        let mut keys = Vec::new();
        for k in &sel.order_by {
            let idx = match &k.column {
                OrderTarget::Position(p) => {
                    if *p == 0 || *p > columns.len() {
                        return Err(DmxError::Planning(format!(
                            "ORDER BY position {p} out of range"
                        )));
                    }
                    p - 1
                }
                OrderTarget::Name(n) => columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(n))
                    .ok_or_else(|| DmxError::Planning(format!("ORDER BY unknown column {n}")))?,
            };
            keys.push((idx, k.desc));
        }
        plan = Plan::Sort {
            input: Box::new(plan),
            keys,
        };
    }
    if let Some(nrows) = sel.limit {
        plan = Plan::Limit {
            input: Box::new(plan),
            n: nrows,
        };
    }
    Ok(CompiledSelect {
        plan,
        columns,
        deps,
    })
}

fn table_of_col(col: FieldId, tables: &[BoundTable]) -> Option<usize> {
    let c = col as usize;
    tables
        .iter()
        .position(|t| c >= t.offset && c < t.offset + t.rd.schema.len())
}

impl Plan {
    /// One-line description of this node (no indentation).
    fn node_line(&self) -> String {
        match self {
            Plan::Access(a) => {
                let path = match a.path {
                    AccessPath::StorageMethod => "storage-method".to_string(),
                    AccessPath::Attachment(t, i) => format!("attachment {t}{i}"),
                };
                let probe = match &a.probe {
                    Some(p) => format!(", probe from outer col {}", p.outer_offset),
                    None => String::new(),
                };
                let cov = if a.use_covered.is_some() {
                    ", covered"
                } else {
                    ""
                };
                let query = match (&a.probe, &a.query) {
                    (Some(_), _) => "probe",
                    (None, AccessQuery::All) => "all",
                    (None, AccessQuery::Range(_)) => "range",
                    (None, AccessQuery::KeyEquals(_)) => "key",
                    (None, AccessQuery::Spatial(_, _)) => "spatial",
                };
                format!(
                    "Access {} via {path} [{query}] (~{:.0} rows{probe}{cov})",
                    a.rd.name, a.rows_est
                )
            }
            Plan::NlJoin { filter, .. } => format!(
                "NestedLoopJoin{}",
                if filter.is_some() { " (filtered)" } else { "" }
            ),
            Plan::JoinIndexJoin { left, right, .. } => format!(
                "JoinIndexJoin {} ⋈ {} (precomputed pairs)",
                left.name, right.name
            ),
            Plan::Filter { .. } => "Filter".to_string(),
            Plan::Project { exprs, .. } => format!("Project ({} cols)", exprs.len()),
            Plan::Aggregate {
                group_by, items, ..
            } => format!(
                "Aggregate ({} groups keys, {} items)",
                group_by.len(),
                items.len()
            ),
            Plan::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
            Plan::Limit { n, .. } => format!("Limit {n}"),
        }
    }

    /// Child plans, in description order. `JoinIndexJoin` reads both
    /// relations through the pair scan and has no child plans.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Access(_) | Plan::JoinIndexJoin { .. } => Vec::new(),
            Plan::NlJoin { left, right, .. } => vec![left, right],
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => vec![input],
        }
    }

    /// Renders the plan for EXPLAIN.
    pub fn describe(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        out.push_str(&pad);
        out.push_str(&self.node_line());
        out.push('\n');
        for c in self.children() {
            c.describe(indent + 1, out);
        }
    }

    /// Per-node EXPLAIN ANALYZE metadata in pre-order (the same order
    /// [`exec::PlanProfile`](crate::exec::PlanProfile) numbers its
    /// counters): the indented description, the planner's estimated rows
    /// out where it has one, and whether the node is a base-table access
    /// (those feed the `planner.misestimate` histogram).
    pub fn explain_rows(&self) -> Vec<(String, Option<f64>, bool)> {
        fn walk(p: &Plan, indent: usize, out: &mut Vec<(String, Option<f64>, bool)>) {
            let est = match p {
                Plan::Access(a) => Some(a.rows_est),
                Plan::Limit { n, .. } => Some(*n as f64),
                _ => None,
            };
            out.push((
                format!("{}{}", "  ".repeat(indent), p.node_line()),
                est,
                matches!(p, Plan::Access(_)),
            ));
            for c in p.children() {
                walk(c, indent + 1, out);
            }
        }
        let mut out = Vec::new();
        walk(self, 0, &mut out);
        out
    }
}

/// Cost helper shared with benches: total estimated cost of a choice.
pub fn choice_total(c: &PathChoice) -> f64 {
    c.cost.total()
}

/// Statement classification helper used by the session layer.
pub fn is_query(stmt: &Stmt) -> bool {
    matches!(stmt, Stmt::Select(_) | Stmt::Explain(..))
}

/// Re-exported so benches can build ad-hoc costs.
pub fn cost(io: f64, cpu: f64) -> Cost {
    Cost::new(io, cpu)
}
