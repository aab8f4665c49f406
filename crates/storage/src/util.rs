//! Shared helpers: projection + buffer-resident filtering, and the one
//! writer of a storage method's record log.

use dmx_core::logged_tree::encode_change;
use dmx_core::{project_values, Evaluator, ExecCtx, KeyRange, RelationDescriptor, ScanItem};
use dmx_expr::Expr;
use dmx_types::{Appended, FieldId, RecordKey, RecordRef, Result, Value};
use dmx_wal::ExtKind;

/// Logs the change of `rd`'s record at `key` from image `before` to
/// `after` (`None` = absent) in the logged-tree format, which the
/// storage methods' replays read back with
/// [`dmx_core::logged_tree::Change`].
pub fn log_change(
    ctx: &ExecCtx<'_>,
    rd: &RelationDescriptor,
    key: &RecordKey,
    before: Option<&[u8]>,
    after: Option<&[u8]>,
) -> Result<Appended> {
    let (op, payload) = encode_change(None, key.as_bytes(), before, after)?;
    Ok(ctx.log_ext_op(ExtKind::Storage(rd.sm), rd.id, op, payload))
}

/// Applies the filter predicate to an encoded record *in place* (no
/// copy-out) and, when it passes, decodes the requested projection
/// (`None` = all fields). Returns `None` when the record fails the
/// filter. The evaluator is the caller's — a scan takes one per page,
/// not one per record.
pub fn filter_project(
    eval: &Evaluator<'_>,
    record_bytes: &[u8],
    fields: Option<&[FieldId]>,
    pred: Option<&Expr>,
) -> Result<Option<Vec<Value>>> {
    let rr = RecordRef::new(record_bytes)?;
    if let Some(p) = pred {
        if !eval.matches(p, &rr)? {
            return Ok(None);
        }
    }
    let values = match fields {
        Some(ids) => rr.fields(ids)?,
        None => rr.to_record()?.values,
    };
    Ok(Some(values))
}

/// [`filter_project`]'s counterpart for a record image that comes from
/// the version store instead of a page: a storage-method scan's item for
/// `values`, or `None` when the record is outside the scan's range or
/// fails its predicate. (Version-sourced records — the snapshot delta
/// sweep in particular — are not pre-filtered by the scan's traversal.)
pub fn item_from_version(
    ctx: &ExecCtx<'_>,
    range: &KeyRange,
    fields: Option<&[FieldId]>,
    pred: Option<&Expr>,
    key: &RecordKey,
    values: &[Value],
) -> Result<Option<ScanItem>> {
    if !range.contains(key.as_bytes()) {
        return Ok(None);
    }
    if let Some(p) = pred {
        if !ctx.eval_predicate(p, &values)? {
            return Ok(None);
        }
    }
    Ok(Some(ScanItem {
        key: key.clone(),
        values: Some(project_values(values, fields)?),
    }))
}
