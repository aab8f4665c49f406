//! Sessions: statement dispatch, transactions, authorization.

use std::sync::Arc;

use dmx_types::sync::Mutex;

use dmx_attach::check_params;
use dmx_core::{Database, Privilege};
use dmx_expr::eval;
use dmx_txn::Transaction;
use dmx_types::{AttrList, ColumnDef, DmxError, Record, Result, Schema, Value};

use crate::ast::Stmt;
use crate::bind::PlanCache;
use crate::exec;
use crate::parser::parse;
use crate::planner::{plan_select, plan_targets, Plan};
use crate::semantic::Binder;

/// The rows and column names a statement produced.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    fn affected(n: usize) -> QueryResult {
        QueryResult {
            columns: vec!["count".into()],
            rows: vec![vec![Value::Int(n as i64)]],
        }
    }

    fn empty() -> QueryResult {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single value of a single-row, single-column result.
    pub fn scalar(&self) -> Result<&Value> {
        match (self.rows.as_slice(), self.columns.len()) {
            ([row], 1) if !row.is_empty() => Ok(&row[0]),
            _ => Err(DmxError::InvalidArg(format!(
                "expected scalar result, got {}x{}",
                self.rows.len(),
                self.columns.len()
            ))),
        }
    }
}

/// A user session with explicit transaction control.
pub struct Session {
    db: Arc<Database>,
    user: String,
    cache: Arc<PlanCache>,
    txn: Mutex<Option<Arc<Transaction>>>,
    statements: Arc<dmx_types::obs::Counter>,
}

impl Session {
    /// Opens a session as the bootstrap superuser `admin`.
    pub fn new(db: Arc<Database>) -> Session {
        Session::with_user(db, "admin")
    }

    /// Opens a session as a specific user (authorization applies).
    pub fn with_user(db: Arc<Database>, user: &str) -> Session {
        let cache = db.query_state::<PlanCache, _>(PlanCache::default);
        // publish this database's plan cache through `sys.plan_cache`
        // (idempotent: one cache per database, last registration wins)
        let cache_rows = cache.clone();
        db.set_sys_provider(
            "sys.plan_cache",
            Arc::new(move |db: &Database| cache_rows.dump(db)),
        );
        let statements = db.metrics().counter(dmx_types::obs::name::SQL_STATEMENTS);
        Session {
            db,
            user: user.to_string(),
            cache,
            txn: Mutex::new(None),
            statements,
        }
    }

    /// The session's user.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// True while an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.lock().is_some()
    }

    /// Parses and executes one statement. Outside an explicit
    /// transaction, the statement autocommits.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        let stmt = parse(sql)?;
        self.execute_stmt(sql, stmt)
    }

    fn execute_stmt(&self, sql: &str, stmt: Stmt) -> Result<QueryResult> {
        // counted here (not in `execute`) so `SqlExt::execute_sql`'s
        // one-shot sessions are observed too
        self.statements.incr();
        // transaction control first
        match &stmt {
            Stmt::Begin => {
                let mut cur = self.txn.lock();
                if cur.is_some() {
                    return Err(DmxError::TxnState("transaction already open".into()));
                }
                *cur = Some(self.db.begin());
                return Ok(QueryResult::empty());
            }
            Stmt::Commit => {
                let txn = self
                    .txn
                    .lock()
                    .take()
                    .ok_or_else(|| DmxError::TxnState("no open transaction".into()))?;
                self.db.commit(&txn)?;
                return Ok(QueryResult::empty());
            }
            Stmt::Rollback => {
                let txn = self
                    .txn
                    .lock()
                    .take()
                    .ok_or_else(|| DmxError::TxnState("no open transaction".into()))?;
                self.db.abort(&txn)?;
                return Ok(QueryResult::empty());
            }
            Stmt::Savepoint(name) => {
                let cur = self.txn.lock();
                let txn = cur
                    .as_ref()
                    .ok_or_else(|| DmxError::TxnState("no open transaction".into()))?;
                self.db.savepoint(txn, name)?;
                return Ok(QueryResult::empty());
            }
            Stmt::RollbackTo(name) => {
                let cur = self.txn.lock();
                let txn = cur
                    .as_ref()
                    .ok_or_else(|| DmxError::TxnState("no open transaction".into()))?;
                self.db.rollback_to_savepoint(txn, name)?;
                return Ok(QueryResult::empty());
            }
            Stmt::Release(name) => {
                let cur = self.txn.lock();
                let txn = cur
                    .as_ref()
                    .ok_or_else(|| DmxError::TxnState("no open transaction".into()))?;
                self.db.release_savepoint(txn, name)?;
                return Ok(QueryResult::empty());
            }
            Stmt::RepairTable { name } => {
                // The repair pipeline drives its own WAL-logged
                // transactions (and retries), so it cannot run inside
                // the session's open transaction.
                if self.txn.lock().is_some() {
                    return Err(DmxError::TxnState(
                        "REPAIR TABLE manages its own transactions; commit or rollback first"
                            .into(),
                    ));
                }
                self.check(name, Privilege::Control)?;
                let r = dmx_core::repair_relation(&self.db, name);
                if let Err(e) = &r {
                    self.note_enospc(e);
                }
                let outcome = r?;
                return Ok(QueryResult {
                    columns: vec![
                        "relation".into(),
                        "action".into(),
                        "outcome".into(),
                        "attempts".into(),
                        "recovered".into(),
                        "lost".into(),
                    ],
                    rows: vec![vec![
                        Value::Str(outcome.name.clone()),
                        Value::from(outcome.action.as_str()),
                        Value::from(if outcome.healthy {
                            "healthy"
                        } else {
                            "terminal"
                        }),
                        Value::Int(outcome.attempts as i64),
                        Value::Int(outcome.records_recovered as i64),
                        Value::Int(outcome.records_lost as i64),
                    ]],
                });
            }
            _ => {}
        }
        // other statements run in the open transaction or autocommit
        let open = self.txn.lock().clone();
        match open {
            Some(txn) => {
                let r = self.run(&txn, sql, &stmt);
                if let Err(e) = &r {
                    self.note_enospc(e);
                    if e.is_txn_fatal() {
                        // the transaction is dead; clean up the session
                        let _ = self.db.abort(&txn);
                        *self.txn.lock() = None;
                    }
                }
                r
            }
            None => {
                let txn = self.db.begin();
                match self.run(&txn, sql, &stmt) {
                    Ok(r) => {
                        self.db.commit(&txn)?;
                        Ok(r)
                    }
                    Err(e) => {
                        self.note_enospc(&e);
                        let _ = self.db.abort(&txn);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Running out of space degrades the engine to sticky read-only:
    /// the statement aborts cleanly, and further writes are refused
    /// until an operator frees space and clears the mode. DML paths
    /// note this inside the engine; this catches DDL and repair too.
    fn note_enospc(&self, e: &DmxError) {
        if let DmxError::OutOfSpace(m) = e {
            self.db.enter_read_only(m);
        }
    }

    fn check(&self, table: &str, p: Privilege) -> Result<()> {
        let rd = self.db.catalog().get_by_name(table)?;
        self.db.auth().check(&self.user, rd.id, p)
    }

    fn run(&self, txn: &Arc<Transaction>, sql: &str, stmt: &Stmt) -> Result<QueryResult> {
        match stmt {
            Stmt::Select(sel) => {
                for t in &sel.from {
                    self.check(&t.table, Privilege::Select)?;
                }
                let compiled = self.cache.get_or_compile(&self.db, sql, sel)?;
                let ctx = dmx_core::ExecCtx { db: &self.db, txn };
                // Pure reads run against the transaction's snapshot:
                // no record or gap locks, visibility via the version
                // store. The flag is scoped to this statement so the
                // transaction's own DML keeps strict 2PL.
                let prev = txn.set_snapshot_reads(true);
                let rows = exec::run_to_rows(&compiled.plan, &ctx);
                txn.set_snapshot_reads(prev);
                Ok(QueryResult {
                    columns: compiled.columns.clone(),
                    rows: rows?,
                })
            }
            Stmt::Explain(inner, analyze) => {
                if *analyze {
                    return self.explain_analyze(txn, inner);
                }
                match inner.as_ref() {
                    Stmt::Select(sel) => {
                        let compiled = plan_select(&self.db, sel)?;
                        let mut text = String::new();
                        compiled.plan.describe(0, &mut text);
                        Ok(QueryResult {
                            columns: vec!["plan".into()],
                            rows: text.lines().map(|l| vec![Value::from(l)]).collect(),
                        })
                    }
                    Stmt::Insert { .. } | Stmt::Update { .. } | Stmt::Delete { .. } => {
                        self.explain_dml(inner)
                    }
                    _ => Err(DmxError::Planning(
                        "EXPLAIN supports SELECT, INSERT, UPDATE and DELETE".into(),
                    )),
                }
            }
            Stmt::Insert { table, rows } => {
                self.check(table, Privilege::Insert)?;
                let rd = self.db.catalog().get_by_name(table)?;
                let funcs = self.db.services().funcs.read();
                let mut records = Vec::with_capacity(rows.len());
                for row in rows {
                    // VALUES are constant expressions
                    let binder = Binder { tables: Vec::new() };
                    let mut values = Vec::with_capacity(row.len());
                    for e in row {
                        let bound = binder.bind_expr(e)?;
                        values.push(eval(
                            &bound,
                            &dmx_expr::eval::NoFields,
                            dmx_expr::EvalContext::new(&funcs),
                        )?);
                    }
                    records.push(Record::new(values));
                }
                drop(funcs);
                let n = records.len();
                for r in records {
                    self.db.insert(txn, rd.id, r)?;
                }
                Ok(QueryResult::affected(n))
            }
            Stmt::Update {
                table,
                sets,
                where_,
            } => {
                self.check(table, Privilege::Update)?;
                let (binder, access) = plan_targets(&self.db, table, where_.as_ref())?;
                let rd = &access.rd;
                let assignments: Vec<(dmx_types::FieldId, dmx_expr::Expr)> = sets
                    .iter()
                    .map(|(col, e)| Ok((rd.schema.field_id(col)?, binder.bind_expr(e)?)))
                    .collect::<Result<_>>()?;
                // collect targets first (no Halloween problem), then apply
                let ctx = dmx_core::ExecCtx { db: &self.db, txn };
                let targets = exec::run_targets(&access, &ctx)?;
                let n = targets.len();
                let handed = hands_in_bases(rd);
                let funcs = self.db.services().funcs.read();
                let writes: Vec<_> = targets
                    .into_iter()
                    .map(|(key, row)| {
                        // every right-hand side sees the row as it was
                        let mut new = row.clone();
                        for (f, e) in &assignments {
                            new[*f as usize] = eval(e, &row, dmx_expr::EvalContext::new(&funcs))?;
                        }
                        Ok((key, handed.then_some(row), Record::new(new)))
                    })
                    .collect::<Result<_>>()?;
                drop(funcs);
                for (key, base, rec) in writes {
                    self.db.update_with_base(txn, rd.id, &key, base, rec)?;
                }
                Ok(QueryResult::affected(n))
            }
            Stmt::Delete { table, where_ } => {
                self.check(table, Privilege::Delete)?;
                let (_, access) = plan_targets(&self.db, table, where_.as_ref())?;
                let ctx = dmx_core::ExecCtx { db: &self.db, txn };
                let targets = exec::run_targets(&access, &ctx)?;
                let n = targets.len();
                let rel = access.rd.id;
                let handed = hands_in_bases(&access.rd);
                for (key, row) in targets {
                    let base = handed.then_some(row);
                    match self.db.delete_with_base(txn, rel, &key, base) {
                        // An earlier target's cascade deleted this one: it
                        // is gone under the X lock its delete took, which
                        // is what the statement asked for.
                        Err(DmxError::NotFound(_))
                            if !handed && self.db.fetch(txn, rel, &key, None, None)?.is_none() => {}
                        r => r?,
                    }
                }
                Ok(QueryResult::affected(n))
            }
            Stmt::CreateTable {
                name,
                columns,
                using,
                with,
            } => {
                let cols = columns
                    .iter()
                    .map(|c| {
                        if c.not_null {
                            ColumnDef::not_null(&c.name, c.data_type)
                        } else {
                            ColumnDef::new(&c.name, c.data_type)
                        }
                    })
                    .collect();
                let schema = Schema::new(cols)?;
                let sm = using.as_deref().unwrap_or("heap");
                let rel = self.db.create_relation(txn, name, schema, sm, with)?;
                // the creator owns the relation
                self.db
                    .auth()
                    .grant("admin", &self.user, rel, Privilege::Control)?;
                Ok(QueryResult::empty())
            }
            Stmt::CreateIndex {
                name,
                table,
                using,
                columns,
                unique,
                with,
            } => {
                self.check(table, Privilege::Control)?;
                let ty = using.as_deref().unwrap_or("btree");
                let mut pairs: Vec<(String, String)> = with
                    .pairs()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                if with.get("fields").is_none() {
                    pairs.push(("fields".into(), columns.join(",")));
                }
                if *unique && with.get("unique").is_none() {
                    pairs.push(("unique".into(), "true".into()));
                }
                let params = AttrList::from_pairs(pairs)?;
                self.db.create_attachment(txn, table, ty, name, &params)?;
                Ok(QueryResult::empty())
            }
            Stmt::CreateAttachment {
                name,
                table,
                using,
                with,
            } => {
                self.check(table, Privilege::Control)?;
                self.db.create_attachment(txn, table, using, name, with)?;
                Ok(QueryResult::empty())
            }
            Stmt::CreateCheck {
                name,
                table,
                expr,
                deferred,
            } => {
                self.check(table, Privilege::Control)?;
                let binder = Binder::new(
                    &self.db,
                    &[crate::ast::TableRef {
                        table: table.clone(),
                        alias: None,
                    }],
                )?;
                let bound = binder.bind_expr(expr)?;
                let params = check_params(&bound, *deferred)?;
                self.db
                    .create_attachment(txn, table, "check", name, &params)?;
                Ok(QueryResult::empty())
            }
            Stmt::DropTable { name } => {
                self.check(name, Privilege::Control)?;
                self.db.drop_relation(txn, name)?;
                Ok(QueryResult::empty())
            }
            Stmt::DropAttachment { name, table } => {
                self.check(table, Privilege::Control)?;
                self.db.drop_attachment(txn, table, name)?;
                Ok(QueryResult::empty())
            }
            Stmt::Grant {
                privilege,
                table,
                user,
            } => {
                let rd = self.db.catalog().get_by_name(table)?;
                let p = Privilege::parse(privilege)?;
                self.db.auth().grant(&self.user, user, rd.id, p)?;
                Ok(QueryResult::empty())
            }
            Stmt::Revoke {
                privilege,
                table,
                user,
            } => {
                let rd = self.db.catalog().get_by_name(table)?;
                let p = Privilege::parse(privilege)?;
                self.db.auth().revoke(&self.user, user, rd.id, p)?;
                Ok(QueryResult::empty())
            }
            Stmt::AnalyzeTable { name } => {
                self.check(name, Privilege::Control)?;
                let rd = self.db.catalog().get_by_name(name)?;
                // The first ANALYZE registers the statistics attachment
                // as an ordinary attachment: its build is the exact
                // rebuild, and the registration stored the header's
                // counts. Later ones rebuild in place.
                let has_stats = rd.attached_types().any(|(att_id, _)| {
                    self.db
                        .registry()
                        .attachment(att_id)
                        .map(|a| a.name() == "stats")
                        .unwrap_or(false)
                });
                let analyzed = if has_stats {
                    self.db.analyze_relation(txn, name)?
                } else {
                    self.db.check_not_quarantined(rd.id)?;
                    self.db
                        .create_attachment(txn, name, "stats", "stats", &AttrList::new())?;
                    1
                };
                let rows_now = self.db.catalog().get_by_name(name)?.stats.records();
                Ok(QueryResult {
                    columns: vec!["relation".into(), "analyzed".into(), "rows".into()],
                    rows: vec![vec![
                        Value::Str(name.clone()),
                        Value::Int(analyzed as i64),
                        Value::Int(rows_now as i64),
                    ]],
                })
            }
            Stmt::CheckTable { name } => {
                self.check(name, Privilege::Control)?;
                let report = dmx_core::scrub_relation(&self.db, txn, name)?;
                Ok(QueryResult {
                    columns: vec![
                        "relation".into(),
                        "pages_checked".into(),
                        "status".into(),
                        "damage".into(),
                    ],
                    rows: vec![vec![
                        Value::Str(report.name.clone()),
                        Value::Int(report.pages_checked as i64),
                        Value::from(if report.healthy() {
                            "healthy"
                        } else {
                            "quarantined"
                        }),
                        Value::Str(report.damage.join("; ")),
                    ]],
                })
            }
            Stmt::Begin
            | Stmt::Commit
            | Stmt::Rollback
            | Stmt::Savepoint(_)
            | Stmt::RollbackTo(_)
            | Stmt::Release(_)
            | Stmt::RepairTable { .. } => unreachable!("handled above"),
        }
    }

    /// `EXPLAIN` for DML: describes the modification pipeline — the
    /// target's storage method, the planned target access of an
    /// `UPDATE`/`DELETE` and every attachment instance the two-step
    /// dispatcher will invoke — without executing anything.
    fn explain_dml(&self, stmt: &Stmt) -> Result<QueryResult> {
        let (verb, privilege, table, where_) = match stmt {
            Stmt::Insert { table, .. } => ("Insert into", Privilege::Insert, table, None),
            Stmt::Update { table, where_, .. } => {
                ("Update", Privilege::Update, table, Some(where_))
            }
            Stmt::Delete { table, where_ } => {
                ("Delete from", Privilege::Delete, table, Some(where_))
            }
            _ => return Err(DmxError::Planning("EXPLAIN supports DML here".into())),
        };
        self.check(table, privilege)?;
        let rd = self.db.catalog().get_by_name(table)?;
        let sm_name = self
            .db
            .registry()
            .storage(rd.sm)
            .map(|sm| sm.name().to_string())
            .unwrap_or_else(|_| format!("unknown({})", rd.sm.0));
        let mut lines = vec![format!("{verb} {} via {sm_name}", rd.name)];
        if let Some(where_) = where_ {
            let (_, access) = plan_targets(&self.db, table, where_.as_ref())?;
            let mut text = String::new();
            Plan::Access(access).describe(1, &mut text);
            lines.extend(text.lines().map(String::from));
        }
        let mut any = false;
        for (att_id, insts) in rd.attached_types() {
            let type_name = self
                .db
                .registry()
                .attachment(att_id)
                .map(|a| a.name().to_string())
                .unwrap_or_else(|_| format!("unknown({})", att_id.0));
            for inst in insts {
                any = true;
                lines.push(format!(
                    "  attachment {type_name} '{}' fires per record",
                    inst.name
                ));
            }
        }
        if !any {
            lines.push("  no attachments".into());
        }
        Ok(QueryResult {
            columns: vec!["plan".into()],
            rows: lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
        })
    }

    /// `EXPLAIN ANALYZE`: executes the plan with per-node row counters
    /// and reports estimated vs actual rows side by side. Base-table
    /// estimation error feeds the `planner.misestimate` histogram.
    fn explain_analyze(&self, txn: &Arc<Transaction>, inner: &Stmt) -> Result<QueryResult> {
        let Stmt::Select(sel) = inner else {
            return Err(DmxError::Planning("EXPLAIN ANALYZE supports SELECT".into()));
        };
        for t in &sel.from {
            self.check(&t.table, Privilege::Select)?;
        }
        let compiled = plan_select(&self.db, sel)?;
        let ctx = dmx_core::ExecCtx { db: &self.db, txn };
        let prev = txn.set_snapshot_reads(true);
        let analyzed = exec::run_analyzed(&compiled.plan, &ctx);
        txn.set_snapshot_reads(prev);
        let (_rows, actuals) = analyzed?;
        let hist = self.db.metrics().histogram(
            dmx_types::obs::name::PLANNER_MISESTIMATE,
            dmx_types::obs::SIZE_BUCKETS,
        );
        let mut rows = Vec::new();
        for (i, (line, est, is_access)) in compiled.plan.explain_rows().into_iter().enumerate() {
            let actual = actuals.get(i).copied().unwrap_or(0);
            if is_access {
                if let Some(e) = est {
                    hist.record((e - actual as f64).abs().round() as u64);
                }
            }
            rows.push(vec![
                Value::Str(line),
                match est {
                    Some(e) => Value::Int(e.round() as i64),
                    None => Value::Null,
                },
                Value::Int(actual as i64),
            ]);
        }
        Ok(QueryResult {
            columns: vec!["plan".into(), "estimated".into(), "actual".into()],
            rows,
        })
    }
}

/// Autocommit SQL convenience on `Arc<Database>`. Explicit transaction
/// control needs a [`Session`].
pub trait SqlExt {
    /// Executes one statement with autocommit.
    fn execute_sql(&self, sql: &str) -> Result<QueryResult>;
    /// Executes a query and returns its rows.
    fn query_sql(&self, sql: &str) -> Result<Vec<Vec<Value>>>;
}

/// Whether an UPDATE/DELETE on `rd` hands each target's row, read under
/// a lock the statement keeps, to its write as the base image. Only
/// the statement's own writes reach a target of a relation with no
/// attachments; an attachment may cascade into a later target of the
/// same statement, which is then no longer as it was read.
fn hands_in_bases(rd: &dmx_core::RelationDescriptor) -> bool {
    rd.attachment_count() == 0
}

impl SqlExt for Arc<Database> {
    fn execute_sql(&self, sql: &str) -> Result<QueryResult> {
        let stmt = parse(sql)?;
        if matches!(
            stmt,
            Stmt::Begin
                | Stmt::Commit
                | Stmt::Rollback
                | Stmt::Savepoint(_)
                | Stmt::RollbackTo(_)
                | Stmt::Release(_)
        ) {
            return Err(DmxError::TxnState(
                "transaction control requires a Session".into(),
            ));
        }
        Session::new(self.clone()).execute_stmt(sql, stmt)
    }

    fn query_sql(&self, sql: &str) -> Result<Vec<Vec<Value>>> {
        Ok(self.execute_sql(sql)?.rows)
    }
}
