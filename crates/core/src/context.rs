//! The execution context handed to every generic operation.

use std::sync::Arc;

use dmx_expr::{eval, eval_predicate, EvalContext, Expr, FieldSource, FunctionRegistry};
use dmx_lock::{LockMode, LockName};
use dmx_txn::{Sharing, Transaction};
use dmx_types::held::Evaluating;
use dmx_types::sync::RwLockReadGuard;
use dmx_types::{Appended, RecordKey, RelationId, Result, Value};
use dmx_wal::{ExtKind, ExtOp};

use crate::database::Database;
use crate::services::CommonServices;

/// Everything an extension needs while executing a generic operation: the
/// transaction, the common services, and the database itself (so
/// attachments can "access or modify other data in the database by
/// calling the appropriate storage method or attachment routines" —
/// cascading modifications). The database reference is an `&Arc` so
/// extensions can clone owning handles into deferred-action closures.
#[derive(Clone, Copy)]
pub struct ExecCtx<'a> {
    pub db: &'a Arc<Database>,
    pub txn: &'a Arc<Transaction>,
}

impl<'a> ExecCtx<'a> {
    /// The common services environment.
    pub fn services(&self) -> &Arc<CommonServices> {
        self.db.services()
    }

    /// Logs an extension operation on this transaction's undo chain,
    /// returning its token: what a page that the change dirties is taken
    /// for writing against, and stamped with (write-ahead). The record is
    /// the operation's own, which the rest of its relation modification
    /// may join ([`Sharing::Leads`]): its replay may compare page LSNs.
    pub fn log_ext_op(
        &self,
        ext: ExtKind,
        relation: RelationId,
        op: u8,
        payload: Vec<u8>,
    ) -> Appended {
        log_ext_op(self.txn, Sharing::Leads, ext, relation, op, payload)
    }

    /// Acquires a lock through the system lock manager.
    pub fn lock(&self, name: LockName, mode: LockMode) -> Result<()> {
        self.services().locks.lock(self.txn.id(), name, mode)
    }

    /// Record-granularity lock helper.
    pub fn lock_record(&self, rel: RelationId, key: &RecordKey, mode: LockMode) -> Result<()> {
        self.lock(LockName::record(rel, key), mode)
    }

    /// Evaluates a filter predicate against a (possibly buffer-resident)
    /// record through the common-services evaluator.
    pub fn eval_predicate(&self, expr: &Expr, src: &dyn FieldSource) -> Result<bool> {
        self.evaluator().matches(expr, src)
    }

    /// The common-services evaluator with the function registry's guard
    /// taken once: what a scan holds while it filters a frame, and an
    /// operator while it works on one row. It is a read guard — hold it
    /// for a page's worth of work, never across a lock wait, and never
    /// across a pull (a debug build checks the pulls).
    pub fn evaluator(&self) -> Evaluator<'a> {
        Evaluator {
            funcs: self.db.services().funcs.read(),
            _held: Evaluating::enter(),
        }
    }
}

/// [`ExecCtx::log_ext_op`] for a writer that holds only its transaction,
/// sharing its record as `sharing` says.
pub(crate) fn log_ext_op(
    txn: &Transaction,
    sharing: Sharing,
    ext: ExtKind,
    relation: RelationId,
    op: u8,
    payload: Vec<u8>,
) -> Appended {
    let op = ExtOp {
        ext,
        relation,
        op,
        payload,
    };
    Appended::by_log(txn.log_op(op, sharing))
}

/// See [`ExecCtx::evaluator`].
pub struct Evaluator<'a> {
    funcs: RwLockReadGuard<'a, FunctionRegistry>,
    _held: Evaluating,
}

impl Evaluator<'_> {
    /// Whether `src` satisfies the predicate `expr` (NULL is no).
    pub fn matches(&self, expr: &Expr, src: &dyn FieldSource) -> Result<bool> {
        eval_predicate(expr, src, EvalContext::new(&self.funcs))
    }

    /// The value of `expr` over `src`.
    pub fn value(&self, expr: &Expr, src: &dyn FieldSource) -> Result<Value> {
        eval(expr, src, EvalContext::new(&self.funcs))
    }
}
