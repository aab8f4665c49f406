//! Maintained aggregates ("attachments … may have associated storage.
//! This storage can be used to … maintain statistics about relations or
//! precomputed function values for data stored in relations").
//!
//! Each instance maintains `COUNT(*)` and `SUM(<field>)` per group (or a
//! single global group) in a B-tree keyed by the encoded group value.
//! Maintenance is incremental: every relation modification applies a
//! delta through [`LoggedTree::update_cell`], which locks the group's
//! cell, logs its *before- and after-images* and replays them in either
//! direction.

use std::sync::Arc;

use dmx_core::{
    AccessQuery, Attachment, AttachmentInstance, EntryDecoder, Evaluator, ExecCtx, KeyRange,
    LoggedTree, Modification, RelationDescriptor, ScanItem, ScanOps, TreeFile, TreeScan,
    ASSIGNED_KEYS,
};
use dmx_expr::Expr;
use dmx_types::{
    key::{decode_values, encode_values},
    AttrList, DmxError, FieldId, Record, RecordKey, Result, Value,
};

use crate::common::read_u64;

/// The maintained-aggregate attachment type.
pub struct Aggregate;

/// An aggregate instance as its attribute list describes it.
#[derive(Debug, Clone, PartialEq)]
pub struct AggDesc {
    pub tree: TreeFile,
    /// Field whose SUM is maintained.
    pub sum_field: FieldId,
    /// Optional grouping field (`None` = one global group).
    pub group_field: Option<FieldId>,
}

impl AggDesc {
    /// The one parser: `sum` and `group_by` as the DDL gave them, and the
    /// tree once assigned.
    fn from_attrs(rd: &RelationDescriptor, attrs: &AttrList) -> Result<AggDesc> {
        attrs
            .without(&ASSIGNED_KEYS)
            .check_allowed(&["sum", "group_by"], "aggregate")?;
        let [tree] = TreeFile::assigned(attrs)?;
        Ok(AggDesc {
            tree,
            sum_field: rd.schema.field_id(attrs.require("sum", "aggregate")?)?,
            group_field: match attrs.get("group_by") {
                Some(g) => Some(rd.schema.field_id(g)?),
                None => None,
            },
        })
    }

    fn of(rd: &RelationDescriptor, inst: &AttachmentInstance) -> Result<Arc<AggDesc>> {
        inst.parsed(|attrs| Self::from_attrs(rd, attrs))
    }
}

fn encode_cell(count: i64, sum: f64) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&count.to_le_bytes());
    v.extend_from_slice(&sum.to_le_bytes());
    v
}

fn decode_cell(b: &[u8]) -> Result<(i64, f64)> {
    Ok((
        read_u64(b, 0, "aggregate cell")? as i64,
        f64::from_bits(read_u64(b, 8, "aggregate cell")?),
    ))
}

impl Aggregate {
    fn group_key(d: &AggDesc, record: &Record) -> Result<Vec<u8>> {
        match d.group_field {
            None => Ok(encode_values(&[Value::Int(0)])),
            Some(g) => {
                let v = record
                    .values
                    .get(g as usize)
                    .cloned()
                    .ok_or_else(|| DmxError::InvalidArg(format!("no field {g}")))?;
                Ok(encode_values(&[v]))
            }
        }
    }

    fn sum_value(d: &AggDesc, record: &Record) -> Result<f64> {
        match record.values.get(d.sum_field as usize) {
            Some(Value::Null) | None => Ok(0.0),
            Some(v) => v.as_float(),
        }
    }
}

impl Attachment for Aggregate {
    fn name(&self) -> &str {
        "aggregate"
    }

    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<AttrList> {
        AggDesc::from_attrs(rd, params)?;
        TreeFile::assign(&[TreeFile::create(ctx.services())?], params)
    }

    fn on_modify(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        m: &Modification<'_>,
    ) -> Result<()> {
        for inst in instances {
            let d = AggDesc::of(rd, inst)?;
            let cells = LoggedTree::attachment(ctx, rd, inst, d.tree.open_tree(ctx.services()));
            // −old, then +new: one cell update per present side.
            for (side, sign) in [(m.old(), -1), (m.new(), 1)] {
                let Some((_, record)) = side else { continue };
                let dsum = Self::sum_value(&d, record)? * sign as f64;
                cells.update_cell(&Self::group_key(&d, record)?, |before| {
                    let (count, sum) = match before {
                        Some(cell) => decode_cell(cell)?,
                        None => (0, 0.0),
                    };
                    let count = count + sign;
                    Ok((count > 0).then(|| encode_cell(count, sum + dsum)))
                })?;
            }
        }
        Ok(())
    }

    /// Reads the maintained aggregates: each item is
    /// `(group value, count, sum)`.
    fn open_scan(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        query: &AccessQuery,
    ) -> Result<Box<dyn ScanOps>> {
        let tree = AggDesc::of(rd, instance)?.tree.open_tree(ctx.services());
        TreeScan::open(&tree, None, GroupCells, query.clone(), None)
    }
}

/// Decodes `enc(group value) → cell` entries into
/// `(group, count, sum)` summaries.
struct GroupCells;

impl EntryDecoder for GroupCells {
    /// Cells are keyed by the encoded group value.
    fn bind(&mut self, query: AccessQuery, _pred: Option<Expr>) -> Result<KeyRange> {
        query.key_range("aggregate")
    }

    fn item(&self, _eval: &Evaluator<'_>, key: &[u8], cell: &[u8]) -> Result<Option<ScanItem>> {
        let group = decode_values(key, 1)?
            .pop()
            .ok_or_else(|| DmxError::Corrupt("empty aggregate group key".into()))?;
        let (count, sum) = decode_cell(cell)?;
        Ok(Some(ScanItem {
            key: RecordKey::new(key.to_vec()),
            values: Some(vec![group, Value::Int(count), Value::Float(sum)]),
        }))
    }

    fn items_are_record_keys(&self) -> bool {
        false // items are (group, count, sum) summaries
    }
}
