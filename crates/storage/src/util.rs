//! Shared helpers: projection + buffer-resident filtering.

use dmx_core::ExecCtx;
use dmx_expr::Expr;
use dmx_types::{FieldId, RecordRef, Result, Value};

/// Applies the filter predicate to an encoded record *in place* (no
/// copy-out) and, when it passes, decodes the requested projection
/// (`None` = all fields). Returns `None` when the record fails the
/// filter.
pub fn filter_project(
    ctx: &ExecCtx<'_>,
    record_bytes: &[u8],
    fields: Option<&[FieldId]>,
    pred: Option<&Expr>,
) -> Result<Option<Vec<Value>>> {
    let rr = RecordRef::new(record_bytes)?;
    if let Some(p) = pred {
        if !ctx.eval_predicate(p, &rr)? {
            return Ok(None);
        }
    }
    let values = match fields {
        Some(ids) => rr.fields(ids)?,
        None => rr.to_record()?.values,
    };
    Ok(Some(values))
}
