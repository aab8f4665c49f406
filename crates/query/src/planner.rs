//! Plan construction: cost-based access-path selection and join strategy
//! choice.
//!
//! For every base table the planner hands the eligible predicates to the
//! storage method ("access path zero") and to each access-path attachment
//! instance; each returns a [`PathChoice`] with its estimated cost, and
//! the cheapest (plus the cost of fetching uncovered fields) wins. The
//! inner side of a join goes through the same chooser: the conjunct that
//! links it to the tables already joined becomes its own predicate
//! `field = $n`, `n` a slot of the outer row, which any path may answer
//! with a lookup by key (a *probe*). A join index linking two relations
//! is a pair scan, a different operator, and wins outright.

use std::collections::BTreeSet;
use std::sync::Arc;

use dmx_core::{AccessPath, AccessQuery, Database, DepKey, PathChoice, RelationDescriptor};
use dmx_expr::{analyze, CmpOp, Expr};
use dmx_types::{DmxError, FieldId, Result};

use crate::ast::{AstExpr, OrderTarget, SelectStmt, TableRef};
use crate::semantic::{AggKind, Binder, BoundItem, BoundTable};

/// What one probe — a lookup of the outer row's value by key — is taken
/// to cost, whatever path serves it. A probe is preferred to an
/// alternative that costs more than this, or to any when the inner
/// relation has no statistics, and join order charges it per outer row.
const PROBE_COST: f64 = 3.0;

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
    /// The fields a storage-method scan is asked for, ascending — what
    /// the query needs of this table plus what the residual looks at —
    /// so that it decodes only those, of only the rows that pass the
    /// pushed predicate. `None` on an access path.
    pub reads: Option<Vec<FieldId>>,
    /// Fields the chosen path covers, when the plan can skip the
    /// storage-method fetch entirely.
    pub use_covered: Option<Vec<FieldId>>,
    /// Set on the inner side of a join whose linking conjunct became this
    /// table's predicate `field = $n`: slot `n` of the outer row. Query
    /// and predicates are bound to that row at open, and a NULL there
    /// joins nothing, so nothing is opened.
    pub outer_param: Option<usize>,
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
        /// Re-instantiated per outer row (may be parameterised by it).
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
    pub deps: Vec<DepKey>,
}

/// Rewrites column offsets through `f`.
pub fn remap_columns(e: &Expr, f: &dyn Fn(FieldId) -> FieldId) -> Expr {
    e.map_leaves(&|leaf| match leaf {
        Expr::Column(c) => Expr::Column(f(*c)),
        other => other.clone(),
    })
}

/// Which tables (by index into the binder) an expression references.
fn tables_of(e: &Expr, tables: &[BoundTable]) -> BTreeSet<usize> {
    analyze::columns(e)
        .into_iter()
        .filter_map(|c| table_of_col(c, tables))
        .collect()
}

/// Chooses the cheapest access path for one table. `eligible` uses local
/// field ids; `needed_fields` is the full set of (local) fields the
/// query must read from this table, so covering-path decisions account
/// for projected columns, not just filtered ones. Returns the winning
/// choice, the residual predicates, and the total estimated cost
/// (access plus uncovered-fetch surcharge).
///
/// Among the offers there may be *probes* (the query is
/// [`AccessQuery::KeyEqualsParam`]: a join's inner side looked up by the
/// outer row's value). Every estimate prices a single opening, and the
/// units are too coarse to rank a few-page rescan against a probe, so
/// when the cheapest offer is not a probe the cheapest probe still
/// replaces it unless statistics show it costs at most `PROBE_COST` (3 units).
pub fn choose_path(
    db: &Arc<Database>,
    rd: &Arc<RelationDescriptor>,
    eligible: &[Expr],
    needed_fields: &BTreeSet<FieldId>,
) -> Result<(PathChoice, Vec<Expr>, f64)> {
    let registry = db.registry();
    let sm = registry.storage(rd.sm)?;
    let attached = rd.attached_types().flat_map(|(att_id, insts)| {
        let att = registry.attachment(att_id).ok();
        insts
            .iter()
            .filter_map(move |inst| att.as_ref()?.estimate(rd, inst, eligible))
    });
    // cheapest offer of each kind; the earliest wins a tie
    let (mut scan, mut probe) = (None::<(f64, PathChoice)>, None::<(f64, PathChoice)>);
    for choice in std::iter::once(sm.estimate(rd, eligible)).chain(attached) {
        let total = choice.cost.total() + fetch_surcharge(&choice, eligible, needed_fields);
        let slot = if is_probe(&choice.query) {
            &mut probe
        } else {
            &mut scan
        };
        if slot.as_ref().is_none_or(|(t, _)| total < *t) {
            *slot = Some((total, choice));
        }
    }
    let (total, best) = match (scan, probe) {
        (Some(s), Some(p)) => {
            if p.0 < s.0 || s.0 > PROBE_COST || rd.stats.table_stats().is_none() {
                p
            } else {
                s
            }
        }
        (s, p) => s
            .or(p)
            .ok_or_else(|| DmxError::Internal("storage method made no offer".into()))?,
    };
    // residual = eligible minus what the chosen path fully applies
    let residual: Vec<Expr> = eligible
        .iter()
        .filter(|p| !best.applied.contains(p))
        .cloned()
        .collect();
    Ok((best, residual, total))
}

/// A probe looks a value of a join's outer row up by key.
fn is_probe(query: &AccessQuery) -> bool {
    matches!(query, AccessQuery::KeyEqualsParam(_))
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
    let (pushed, reads, use_covered) = match &choice.path {
        AccessPath::StorageMethod => {
            let mut reads = needed_fields.clone();
            reads.extend(residual_expr.iter().flat_map(analyze::columns));
            let reads = reads.into_iter().collect();
            (combine(local_preds.clone()), Some(reads), None)
        }
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
            (None, None, use_covered)
        }
    };
    Ok(AccessPlan {
        rd: rd.clone(),
        path: choice.path,
        query: choice.query,
        pushed,
        residual: residual_expr,
        reads,
        use_covered,
        outer_param: None,
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
    let desc = dmx_attach::join_index::JoinIndex::desc;
    for li in l_insts {
        let ld = desc(left, li).ok()?;
        if ld.fields != vec![lf] {
            continue;
        }
        for ri in r_insts {
            if ri.name != li.name {
                continue;
            }
            let rdsc = desc(right, ri).ok()?;
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

/// The first conjunct `outer.g = inner.f` (either operand order) linking
/// table `ti` to a table already in `joined`: the outer table, `g` and
/// `f` as local field ids, and the conjunct itself.
fn equi_link<'c>(
    cross: &'c [Expr],
    tables: &[BoundTable],
    joined: &[usize],
    ti: usize,
) -> Option<(usize, FieldId, FieldId, &'c Expr)> {
    cross.iter().find_map(|c| {
        let Expr::Cmp(CmpOp::Eq, l, r) = c else {
            return None;
        };
        let (Expr::Column(a), Expr::Column(b)) = (l.as_ref(), r.as_ref()) else {
            return None;
        };
        let (ta, tb) = (table_of_col(*a, tables)?, table_of_col(*b, tables)?);
        let local = |c: FieldId, t: usize| c - tables[t].offset as FieldId;
        if joined.contains(&ta) && tb == ti {
            Some((ta, local(*a, ta), local(*b, tb), c))
        } else if joined.contains(&tb) && ta == ti {
            Some((tb, local(*b, tb), local(*a, ta), c))
        } else {
            None
        }
    })
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

    // Physical row layout of a join order: where each table's fields
    // start in the accumulated row.
    let layout = |order: &[usize]| {
        let mut phys_offset = vec![0usize; n];
        let mut acc = 0usize;
        for &ti in order {
            phys_offset[ti] = acc;
            acc += binder.tables[ti].rd.schema.len();
        }
        phys_offset
    };
    // Table `ti` joined to the tables in `joined` (none for the outermost):
    // the conjunct linking it to them, if there is one, is planned as its
    // own predicate `f = $n` (first, so a path sees it before a weaker
    // constraint on the same field), `n` being where the outer value
    // sits in the physical row. Comes back with that conjunct, which the
    // access now answers for.
    let plan_joined = |cross: &[Expr], joined: &[usize], phys_offset: &[usize], ti: usize| {
        let link = equi_link(cross, &binder.tables, joined, ti)
            .map(|(outer_t, g, f, cond)| (phys_offset[outer_t] + g as usize, f, cond));
        let linked = link.map(|(slot, f, _)| {
            Expr::Cmp(
                CmpOp::Eq,
                Box::new(Expr::Column(f)),
                Box::new(Expr::Param(slot)),
            )
        });
        let preds = linked.into_iter().chain(per_table[ti].clone()).collect();
        let mut access = plan_table(db, &binder.tables[ti].rd, preds, &needed_local(ti))?;
        access.outer_param = link.map(|(slot, ..)| slot);
        Ok::<_, DmxError>((access, link.map(|(.., cond)| cond.clone())))
    };

    // A join index linking the two tables of a plain two-table join is a
    // scan of precomputed pairs: no access to choose, no order to decide.
    let join_index = equi_link(&cross, &binder.tables, &[0], 1)
        .filter(|_| n == 2)
        .and_then(|(_, lf, rf, cond)| {
            let (l, r) = (&binder.tables[0].rd, &binder.tables[1].rd);
            Some((find_join_index(db, l, r, lf, rf)?, cond.clone()))
        });
    let mut plan = if let Some(((att, inst, swapped), cond)) = join_index {
        // every other predicate applies after assembly (FROM-order layout)
        let mut extra: Vec<Expr> = cross.drain(..).filter(|c| *c != cond).collect();
        for (t, preds) in binder.tables.iter().zip(&per_table) {
            let off = t.offset as FieldId;
            extra.extend(preds.iter().map(|p| remap_columns(p, &|f| f + off)));
        }
        Plan::JoinIndexJoin {
            left: binder.tables[0].rd.clone(),
            right: binder.tables[1].rd.clone(),
            att: (att, inst),
            swapped,
            filter: combine(extra),
        }
    } else {
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
            let nl_cost = |order: &[usize; 2]| -> Result<f64> {
                let (outer, _) = plan_joined(&cross, &[], &[], order[0])?;
                let (inner, _) = plan_joined(&cross, &[order[0]], &layout(order), order[1])?;
                let per_row = if is_probe(&inner.query) {
                    PROBE_COST
                } else {
                    inner.cost_est
                };
                Ok(outer.cost_est + outer.rows_est.max(0.0) * per_row)
            };
            if nl_cost(&[1, 0])? < nl_cost(&[0, 1])? {
                order = vec![1, 0];
            }
        }
        // A trailing Project restores FROM-order layout when the physical
        // one differs.
        let phys_offset = layout(&order);
        let to_phys = |c: FieldId| -> FieldId {
            match table_of_col(c, &binder.tables) {
                Some(t) => (phys_offset[t] + (c as usize - binder.tables[t].offset)) as FieldId,
                None => c,
            }
        };

        let mut plan = Plan::Access(plan_joined(&cross, &[], &[], order[0])?.0);
        for k in 1..n {
            // bounds: k < n = order.len()
            let (joined, ti) = (&order[..k], order[k]);
            let (inner, link) = plan_joined(&cross, joined, &phys_offset, ti)?;
            cross.retain(|c| Some(c) != link.as_ref());
            // remaining cross conjuncts that now have all tables available
            let avail: BTreeSet<usize> = joined.iter().chain([&ti]).copied().collect();
            let (now, later): (Vec<Expr>, Vec<Expr>) = cross
                .into_iter()
                .partition(|c| tables_of(c, &binder.tables).is_subset(&avail));
            cross = later;
            plan = Plan::NlJoin {
                left: Box::new(plan),
                right: Box::new(Plan::Access(inner)),
                // join filters run over the *physical* row layout
                filter: combine(now).map(|f| remap_columns(&f, &to_phys)),
            };
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
        plan
    };
    if let Some(f) = combine(cross) {
        plan = Plan::Filter {
            input: Box::new(plan),
            pred: f,
        };
    }

    // dependencies: every referenced relation, every access path used
    let mut deps: Vec<DepKey> = binder
        .tables
        .iter()
        .map(|t| DepKey::Relation(t.rd.id))
        .collect();
    plan.attachment_deps(&mut deps);

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
                let probe = match a.outer_param {
                    Some(slot) => format!(", probe from outer col {slot}"),
                    None => String::new(),
                };
                let cov = if a.use_covered.is_some() {
                    ", covered"
                } else {
                    ""
                };
                let reads = match &a.reads {
                    Some(fields) => {
                        let names: Vec<&str> = fields
                            .iter()
                            .map(|&f| a.rd.schema.column(f).map_or("?", |c| c.name.as_str()))
                            .collect();
                        format!(", reads [{}]", names.join(", "))
                    }
                    None => String::new(),
                };
                let query = match a.query {
                    AccessQuery::All => "all",
                    AccessQuery::Range(_) => "range",
                    AccessQuery::KeyEquals(_) => "key",
                    AccessQuery::Record(_) => "record",
                    AccessQuery::KeyEqualsParam(_) => "probe",
                    AccessQuery::Spatial(_, _) => "spatial",
                };
                format!(
                    "Access {} via {path} [{query}] (~{:.0} rows{probe}{cov}{reads})",
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

    /// Estimated rows out of a join input: an access's own estimate, a
    /// nested loop's left estimate × its right side's per-opening one.
    fn rows_est(&self) -> Option<f64> {
        match self {
            Plan::Access(a) => Some(a.rows_est),
            Plan::NlJoin { left, right, .. } => Some(left.rows_est()? * right.rows_est()?),
            _ => None,
        }
    }

    /// Adds the access-path instances the plan reads through: a plan on
    /// one is void once it is dropped.
    fn attachment_deps(&self, deps: &mut Vec<DepKey>) {
        match self {
            Plan::Access(AccessPlan {
                rd,
                path: AccessPath::Attachment(att, inst),
                ..
            }) => deps.push(DepKey::Attachment(rd.id, *att, *inst)),
            Plan::JoinIndexJoin { left, att, .. } => {
                deps.push(DepKey::Attachment(left.id, att.0, att.1))
            }
            _ => {}
        }
        for c in self.children() {
            c.attachment_deps(deps);
        }
    }

    /// Per-node EXPLAIN ANALYZE metadata in pre-order (the same order
    /// [`exec::PlanProfile`](crate::exec::PlanProfile) numbers its
    /// counters): the indented description, the planner's estimated rows
    /// out where it has one, and whether the node is a base-table access
    /// (those feed the `planner.misestimate` histogram). The actual count
    /// of a nested loop's right side is summed over its re-openings, so
    /// its estimate is the per-opening one × the left side's rows.
    pub fn explain_rows(&self) -> Vec<(String, Option<f64>, bool)> {
        fn walk(p: &Plan, indent: usize, opens: f64, out: &mut Vec<(String, Option<f64>, bool)>) {
            let est = match p {
                Plan::Access(a) => Some(a.rows_est * opens),
                Plan::Limit { n, .. } => Some(*n as f64),
                _ => None,
            };
            out.push((
                format!("{}{}", "  ".repeat(indent), p.node_line()),
                est,
                matches!(p, Plan::Access(_)),
            ));
            if let Plan::NlJoin { left, right, .. } = p {
                walk(left, indent + 1, opens, out);
                walk(
                    right,
                    indent + 1,
                    opens * left.rows_est().unwrap_or(1.0),
                    out,
                );
            } else {
                for c in p.children() {
                    walk(c, indent + 1, opens, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, 0, 1.0, &mut out);
        out
    }
}
