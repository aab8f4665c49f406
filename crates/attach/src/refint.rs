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

use dmx_core::{
    AccessPath, AccessQuery, Attachment, AttachmentInstance, ExecCtx, Modification,
    RelationDescriptor, ScanOps, ASSIGNED_KEYS,
};
use dmx_expr::{CmpOp, Expr};
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

const WHO: &str = "referential integrity";

/// A constraint instance as its attribute list describes it.
#[derive(Debug, Clone, PartialEq)]
pub struct RefDesc {
    /// True on the child (referencing) side.
    pub is_child: bool,
    /// Fields of *this* relation participating in the constraint.
    pub fields: Vec<FieldId>,
    /// The other relation: the id CREATE resolved its name to.
    pub other: RelationId,
    /// Names of the matching fields of the other relation.
    pub other_fields: Vec<String>,
    /// Parent-side delete rule.
    pub rule: DeleteRule,
}

impl RefDesc {
    /// The one parser: `role`, `fields`, `other`, `other_fields` and
    /// `on_delete` as the DDL gave them, and the other relation's id once
    /// assigned (`relation`).
    fn from_attrs(schema: &Schema, attrs: &AttrList) -> Result<RefDesc> {
        attrs.without(&ASSIGNED_KEYS).check_allowed(
            &["role", "fields", "other", "other_fields", "on_delete"],
            WHO,
        )?;
        let is_child = match attrs.require("role", WHO)?.to_ascii_lowercase().as_str() {
            "child" => true,
            "parent" => false,
            other => {
                return Err(DmxError::InvalidArg(format!(
                    "refint role must be child|parent, got {other}"
                )))
            }
        };
        let rule = match attrs
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
        attrs.require("other", WHO)?;
        let fields = crate::common::parse_fields(attrs, "fields", WHO, schema)?;
        let other_fields: Vec<String> = attrs
            .require("other_fields", WHO)?
            .split(',')
            .map(str::trim)
            .filter(|name| !name.is_empty())
            .map(String::from)
            .collect();
        if other_fields.len() != fields.len() {
            return Err(DmxError::InvalidArg(
                "refint: fields and other_fields must have equal length".into(),
            ));
        }
        let other = u32::try_from(attrs.get_u64("relation", 0)?)
            .map_err(|_| DmxError::Corrupt("refint relation id out of range".into()))?;
        Ok(RefDesc {
            is_child,
            fields,
            other: RelationId(other),
            other_fields,
            rule,
        })
    }

    /// The other relation's records whose `other_fields` equal `values`,
    /// scanned for their keys alone.
    fn matches(&self, ctx: &ExecCtx<'_>, values: &[Value]) -> Result<Box<dyn ScanOps>> {
        let other_rd = ctx.db.catalog().get(self.other)?;
        let eq = |(name, v): (&String, &Value)| -> Result<Expr> {
            let field = Box::new(Expr::Column(other_rd.schema.field_id(name)?));
            Ok(Expr::Cmp(
                CmpOp::Eq,
                field,
                Box::new(Expr::Const(v.clone())),
            ))
        };
        let pred: Result<Vec<Expr>> = self.other_fields.iter().zip(values).map(eq).collect();
        ctx.db.open_scan_raw(
            ctx,
            &other_rd,
            AccessPath::StorageMethod,
            AccessQuery::All,
            Some(Expr::And(pred?)),
            Some(vec![]),
        )
    }

    /// True when the other relation has a record matching `values`.
    fn has_match(&self, ctx: &ExecCtx<'_>, values: &[Value]) -> Result<bool> {
        Ok(self.matches(ctx, values)?.next(ctx)?.is_some())
    }
}

impl Attachment for RefIntegrity {
    fn name(&self) -> &str {
        "refint"
    }

    /// Checks `other` and its `other_fields` now, and stores the
    /// relation's id under the assigned key `relation`.
    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<AttrList> {
        let d = RefDesc::from_attrs(&rd.schema, params)?;
        let other_rd = ctx
            .db
            .catalog()
            .get_by_name(params.require("other", WHO)?)?;
        for name in &d.other_fields {
            other_rd.schema.field_id(name)?;
        }
        let mut attrs = params.clone();
        attrs.push("relation", other_rd.id.0.to_string())?;
        Ok(attrs)
    }

    fn on_modify(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
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
            let d = inst.parsed(|attrs| RefDesc::from_attrs(&rd.schema, attrs))?;
            let side = |(_, r): (&RecordKey, &Record)| crate::common::field_values(r, &d.fields);
            if d.is_child {
                // The child side judges the record as it is afterwards
                // (deleting a child never violates): its foreign key must
                // reference a parent.
                let Some(values) = m.new().map(side).transpose()? else {
                    continue;
                };
                // SQL rule: NULL foreign keys reference nothing
                if !values.iter().any(|v| v.is_null()) && !d.has_match(ctx, &values)? {
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
                if old_vals != new_vals && d.has_match(ctx, &old_vals)? {
                    return veto(inst, "referenced key in use by child records");
                }
                continue;
            }
            if old_vals.iter().any(|v| v.is_null()) {
                continue;
            }
            match d.rule {
                DeleteRule::Restrict => {
                    if d.has_match(ctx, &old_vals)? {
                        return veto(inst, "child records exist");
                    }
                }
                DeleteRule::Cascade => {
                    // "Attachments may access or modify other data in the
                    // database by calling the appropriate storage method or
                    // attachment routines. In this manner, modifications
                    // may cascade in the database."
                    let mut scan = d.matches(ctx, &old_vals)?;
                    let mut children = Vec::new();
                    while let Some(child) = scan.next(ctx)? {
                        children.push(child.key);
                    }
                    for key in children {
                        ctx.db.delete(ctx.txn, d.other, &key)?;
                    }
                }
            }
        }
        Ok(())
    }
}
