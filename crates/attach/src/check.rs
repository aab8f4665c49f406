//! Single-record (intra-record) integrity constraints.
//!
//! The paper: "A simple integrity constraint extension descriptor would
//! contain a (Common Service) encoding of the predicate to be tested when
//! records of the relation are inserted or updated." Violations **veto**
//! the modification. In `mode=deferred` the check is queued on the
//! deferred-action queue for the "before transaction enters prepared
//! state" event instead: the record is re-fetched and tested once, after
//! all of the transaction's modifications have been made.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use dmx_core::{Attachment, AttachmentInstance, ExecCtx, Modification, RelationDescriptor};
use dmx_expr::{expr_from_hex, Expr};
use dmx_txn::TxnEvent;
use dmx_types::{AttrList, DmxError, RecordKey, Result, Schema};

/// The CHECK-constraint attachment type.
pub struct CheckConstraint;

/// A constraint instance as its attribute list describes it: the
/// predicate decoded once, not once a row.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckDesc {
    pub deferred: bool,
    pub expr: Expr,
}

impl CheckDesc {
    /// The one parser: `expr_hex`, whose columns must exist, and
    /// `deferred`.
    fn from_attrs(schema: &Schema, attrs: &AttrList) -> Result<CheckDesc> {
        attrs.check_allowed(&["expr_hex", "deferred"], "check constraint")?;
        let expr = expr_from_hex(attrs.require("expr_hex", "check constraint")?)?;
        for c in dmx_expr::columns(&expr) {
            schema.column(c)?;
        }
        Ok(CheckDesc {
            deferred: attrs.get_bool("deferred", false)?,
            expr,
        })
    }
}

/// Builds the DDL attribute list for a check constraint (callers that
/// have an [`Expr`] in hand; the SQL layer produces the same shape).
pub fn check_params(expr: &Expr, deferred: bool) -> Result<AttrList> {
    AttrList::from_pairs([
        ("expr_hex", dmx_expr::expr_to_hex(expr)),
        ("deferred", deferred.to_string()),
    ])
}

impl CheckConstraint {
    /// Queues a deferred re-check of `(relation, key)` at before-prepare.
    fn defer_check(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        inst: &AttachmentInstance,
        d: Arc<CheckDesc>,
        key: &RecordKey,
    ) {
        let db = ctx.db.clone();
        let txn = Arc::downgrade(ctx.txn);
        let rel = rd.id;
        let key = key.clone();
        let name = inst.name.clone();
        // once per (instance, record) per transaction
        let mut h = DefaultHasher::new();
        (rel, &name, key.as_bytes()).hash(&mut h);
        ctx.txn.defer_once(
            TxnEvent::BeforePrepare,
            h.finish(),
            Box::new(move || {
                let Some(txn) = txn.upgrade() else {
                    return Ok(());
                };
                // the record may have been deleted since: then there is
                // nothing to check
                let Some(values) = db.fetch(&txn, rel, &key, None, None)? else {
                    return Ok(());
                };
                let funcs = db.services().funcs.read();
                let ok =
                    dmx_expr::eval_predicate(&d.expr, &values, dmx_expr::EvalContext::new(&funcs))?;
                if ok {
                    Ok(())
                } else {
                    Err(DmxError::ConstraintViolation(format!(
                        "deferred check constraint '{name}' violated"
                    )))
                }
            }),
        );
    }
}

impl Attachment for CheckConstraint {
    fn name(&self) -> &str {
        "check"
    }

    fn create_instance(
        &self,
        _ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<AttrList> {
        CheckDesc::from_attrs(&rd.schema, params)?;
        Ok(params.clone())
    }

    fn on_modify(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        m: &Modification<'_>,
    ) -> Result<()> {
        // The predicate judges the record as it is afterwards; a delete
        // cannot violate an intra-record predicate.
        let Some((key, new)) = m.new() else {
            return Ok(());
        };
        for inst in instances {
            let d = inst.parsed(|attrs| CheckDesc::from_attrs(&rd.schema, attrs))?;
            if d.deferred {
                self.defer_check(ctx, rd, inst, d, key);
            } else if !ctx.eval_predicate(&d.expr, &new.values)? {
                return Err(DmxError::veto(
                    self.name(),
                    format!("check constraint '{}' violated", inst.name),
                ));
            }
        }
        Ok(())
    }
}
