//! Referential integrity constraints, with cascading deletes.
//!
//! The paper: "the referential integrity attachment to a 'parent'
//! relation would perform record delete operations on the 'child'
//! relation when a 'parent' record is deleted. If the 'child' relation
//! also has a referential integrity attachment, it would perform record
//! delete operations on its 'child' relation. Thus, cascaded deletes can
//! be supported. On insert, the same attachment type on the 'child'
//! relation would test the 'parent' relation for a record with matching
//! referential integrity fields."
//!
//! One constraint = two instances of this type sharing a link name:
//! `role=child` on the referencing relation (checks parent existence on
//! insert/update) and `role=parent` on the referenced relation (restricts
//! or cascades on delete). The instance descriptor embeds the *other*
//! relation's id — the paper's "embedded references to descriptors for
//! other relations whenever the extension involves multiple tables". The
//! constraint holds no state and logs nothing: cascaded deletes go
//! through the dispatcher and carry their own undo records.

use std::sync::Arc;

use dmx_core::{
    AccessPath, AccessQuery, Attachment, AttachmentInstance, CommonServices, ExecCtx, Modification,
    RelationDescriptor,
};
use dmx_expr::{CmpOp, Expr};

use crate::common::{read_u16, read_u32};
use dmx_types::{
    AttrList, DmxError, FieldId, Record, RecordKey, RelationId, Result, Schema, Value,
};

/// The referential-integrity attachment type.
pub struct RefIntegrity;

/// What the parent side does when a referenced record is deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteRule {
    Restrict,
    Cascade,
}

/// Instance descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct RefDesc {
    /// True on the child (referencing) side.
    pub is_child: bool,
    /// Fields of *this* relation participating in the constraint.
    pub fields: Vec<FieldId>,
    /// The other relation.
    pub other: RelationId,
    /// Matching fields of the other relation.
    pub other_fields: Vec<FieldId>,
    /// Parent-side delete rule.
    pub rule: DeleteRule,
}

impl RefDesc {
    pub fn encode(&self) -> Vec<u8> {
        let mut v = vec![
            self.is_child as u8,
            (self.rule == DeleteRule::Cascade) as u8,
        ];
        v.extend_from_slice(&self.other.0.to_le_bytes());
        for list in [&self.fields, &self.other_fields] {
            v.extend_from_slice(&(list.len() as u16).to_le_bytes());
            for f in list {
                v.extend_from_slice(&f.to_le_bytes());
            }
        }
        v
    }

    pub fn decode(b: &[u8]) -> Result<RefDesc> {
        const WHAT: &str = "refint descriptor";
        let corrupt = || DmxError::Corrupt(format!("short {WHAT}"));
        let is_child = *b.first().ok_or_else(corrupt)? != 0;
        let cascade = *b.get(1).ok_or_else(corrupt)? != 0;
        let other = RelationId(read_u32(b, 2, WHAT)?);
        let mut pos = 6usize;
        let mut read_list = || -> Result<Vec<FieldId>> {
            let n = read_u16(b, pos, WHAT)? as usize;
            pos += 2;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(read_u16(b, pos, WHAT)?);
                pos += 2;
            }
            Ok(fields)
        };
        let fields = read_list()?;
        let other_fields = read_list()?;
        Ok(RefDesc {
            is_child,
            fields,
            other,
            other_fields,
            rule: if cascade {
                DeleteRule::Cascade
            } else {
                DeleteRule::Restrict
            },
        })
    }
}

/// Builds an equality predicate `∧ other_fields[i] = values[i]`.
fn match_pred(other_fields: &[FieldId], values: &[Value]) -> Expr {
    Expr::And(
        other_fields
            .iter()
            .zip(values)
            .map(|(&f, v)| {
                Expr::Cmp(
                    CmpOp::Eq,
                    Box::new(Expr::Column(f)),
                    Box::new(Expr::Const(v.clone())),
                )
            })
            .collect(),
    )
}

impl RefIntegrity {
    fn parse(
        params: &AttrList,
        schema: &Schema,
    ) -> Result<(bool, Vec<FieldId>, DeleteRule, String, String)> {
        params.check_allowed(
            &["role", "fields", "other", "other_fields", "on_delete"],
            "referential integrity",
        )?;
        let role = params.require("role", "referential integrity")?;
        let is_child = match role.to_ascii_lowercase().as_str() {
            "child" => true,
            "parent" => false,
            other => {
                return Err(DmxError::InvalidArg(format!(
                    "refint role must be child|parent, got {other}"
                )))
            }
        };
        let fields =
            crate::common::parse_fields(params, "fields", "referential integrity", schema)?;
        let rule = match params
            .get("on_delete")
            .unwrap_or("restrict")
            .to_ascii_lowercase()
            .as_str()
        {
            "restrict" => DeleteRule::Restrict,
            "cascade" => DeleteRule::Cascade,
            other => {
                return Err(DmxError::InvalidArg(format!(
                    "on_delete must be restrict|cascade, got {other}"
                )))
            }
        };
        let other = params
            .require("other", "referential integrity")?
            .to_string();
        let other_fields = params
            .require("other_fields", "referential integrity")?
            .to_string();
        Ok((is_child, fields, rule, other, other_fields))
    }

    /// True when the other relation has at least one record matching the
    /// given values on `other_fields`.
    fn other_has_match(ctx: &ExecCtx<'_>, d: &RefDesc, values: &[Value]) -> Result<bool> {
        let other_rd = ctx.db.catalog().get(d.other)?;
        let pred = match_pred(&d.other_fields, values);
        let inner = ctx.db.open_scan_raw(
            ctx,
            &other_rd,
            AccessPath::StorageMethod,
            AccessQuery::All,
            Some(pred),
            Some(vec![]),
        )?;
        let mut scan = inner;
        Ok(scan.next(ctx)?.is_some())
    }

    /// Collects the record keys of matching records in the other relation.
    fn matching_other_keys(
        ctx: &ExecCtx<'_>,
        d: &RefDesc,
        values: &[Value],
    ) -> Result<Vec<RecordKey>> {
        let other_rd = ctx.db.catalog().get(d.other)?;
        let pred = match_pred(&d.other_fields, values);
        let mut scan = ctx.db.open_scan_raw(
            ctx,
            &other_rd,
            AccessPath::StorageMethod,
            AccessQuery::All,
            Some(pred),
            Some(vec![]),
        )?;
        let mut keys = Vec::new();
        while let Some(item) = scan.next(ctx)? {
            keys.push(item.key);
        }
        Ok(keys)
    }
}

impl Attachment for RefIntegrity {
    fn name(&self) -> &str {
        "refint"
    }

    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<Vec<u8>> {
        let (is_child, fields, rule, other_name, other_fields_spec) =
            Self::parse(params, &rd.schema)?;
        let other_rd = ctx.db.catalog().get_by_name(&other_name)?;
        let mut other_fields = Vec::new();
        for name in other_fields_spec.split(',') {
            let name = name.trim();
            if !name.is_empty() {
                other_fields.push(other_rd.schema.field_id(name)?);
            }
        }
        if other_fields.len() != fields.len() {
            return Err(DmxError::InvalidArg(
                "refint: fields and other_fields must have equal length".into(),
            ));
        }
        Ok(RefDesc {
            is_child,
            fields,
            other: other_rd.id,
            other_fields,
            rule,
        }
        .encode())
    }

    fn destroy_instance(&self, _services: &Arc<CommonServices>, _inst_desc: &[u8]) -> Result<()> {
        Ok(())
    }

    fn on_modify(
        &self,
        ctx: &ExecCtx<'_>,
        _rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        m: &Modification<'_>,
    ) -> Result<()> {
        let veto = |inst: &AttachmentInstance, why: &str| {
            Err(DmxError::veto(
                self.name(),
                format!("'{}': {why}", inst.name),
            ))
        };
        for inst in instances {
            let d = RefDesc::decode(&inst.desc)?;
            let side = |(_, r): (&RecordKey, &Record)| crate::common::field_values(r, &d.fields);
            if d.is_child {
                // The child side judges the record as it is afterwards
                // (deleting a child never violates): its foreign key must
                // reference a parent.
                let Some(values) = m.new().map(side).transpose()? else {
                    continue;
                };
                // SQL rule: NULL foreign keys reference nothing
                if !values.iter().any(|v| v.is_null()) && !Self::other_has_match(ctx, &d, &values)?
                {
                    return veto(inst, "no matching parent record");
                }
                continue;
            }
            // The parent side judges the referenced key that goes away (a
            // new parent violates nothing).
            let Some(old_vals) = m.old().map(side).transpose()? else {
                continue;
            };
            if let Some(new_vals) = m.new().map(side).transpose()? {
                // Changing referenced key fields while children point at
                // them is restricted.
                if old_vals != new_vals && Self::other_has_match(ctx, &d, &old_vals)? {
                    return veto(inst, "referenced key in use by child records");
                }
                continue;
            }
            if old_vals.iter().any(|v| v.is_null()) {
                continue;
            }
            match d.rule {
                DeleteRule::Restrict => {
                    if Self::other_has_match(ctx, &d, &old_vals)? {
                        return veto(inst, "child records exist");
                    }
                }
                DeleteRule::Cascade => {
                    // "Attachments may access or modify other data in the
                    // database by calling the appropriate storage method or
                    // attachment routines. In this manner, modifications
                    // may cascade in the database."
                    for child_key in Self::matching_other_keys(ctx, &d, &old_vals)? {
                        ctx.db.delete(ctx.txn, d.other, &child_key)?;
                    }
                }
            }
        }
        Ok(())
    }
}
