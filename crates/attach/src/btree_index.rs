//! The B-tree index access path.
//!
//! The paper's worked example: after an insert, "the B-tree insert
//! procedure will form an index key by projecting fields from the
//! inserted record, and then insert the index key plus tuple identifier
//! or record key into the B-tree index. … Of course, the B-tree update
//! operation should be able to detect when no indexed fields for a given
//! index are modified."
//!
//! Index entries are `enc(field values) ∥ record_key → record_key`; the
//! appended record key makes duplicate index keys unique. Unique indexes
//! veto inserts whose index-key prefix already exists.

use std::ops::Bound;
use std::sync::Arc;

use dmx_core::access::prefix_successor;
use dmx_core::logged_tree::{lock_delete_gaps, lock_insert_gap};
use dmx_core::{
    project_values, AccessPath, AccessQuery, Attachment, AttachmentInstance, Cost, EntryDecoder,
    Evaluator, ExecCtx, KeyMatch, KeyRange, LoggedTree, Modification, PathChoice, RecordKeyIn,
    RelationDescriptor, ScanItem, ScanOps, TreeFile, TreeScan, ASSIGNED_KEYS,
};
use dmx_expr::Expr;
use dmx_types::{
    key::{decode_values, encode_values},
    AttrList, DmxError, FieldId, Record, RecordKey, Result, Value,
};

use crate::common::{field_values, parse_fields};

/// The B-tree index attachment type.
pub struct BTreeIndex;

const WHO: &str = "btree index";

/// An index instance as its attribute list describes it.
#[derive(Debug, Clone, PartialEq)]
pub struct IxDesc {
    pub tree: TreeFile,
    pub unique: bool,
    pub fields: Vec<FieldId>,
}

impl IxDesc {
    /// The B-tree a stored index list names.
    pub fn decode(desc: &[u8]) -> Result<TreeFile> {
        let [tree] = TreeFile::assigned(&AttrList::decode(desc)?)?;
        Ok(tree)
    }

    /// The one parser: `fields` and `unique` as the DDL gave them, and the
    /// tree once assigned.
    fn from_attrs(rd: &RelationDescriptor, attrs: &AttrList) -> Result<IxDesc> {
        attrs
            .without(&ASSIGNED_KEYS)
            .check_allowed(&["fields", "unique"], WHO)?;
        let [tree] = TreeFile::assigned(attrs)?;
        Ok(IxDesc {
            tree,
            unique: attrs.get_bool("unique", false)?,
            fields: parse_fields(attrs, "fields", WHO, &rd.schema)?,
        })
    }

    fn of(rd: &RelationDescriptor, inst: &AttachmentInstance) -> Result<Arc<IxDesc>> {
        inst.parsed(|attrs| Self::from_attrs(rd, attrs))
    }
}

impl BTreeIndex {
    /// A record's entry: the index-key prefix, the full entry key
    /// `prefix ∥ record key`, and the record key it maps to.
    fn entry<'a>(
        d: &IxDesc,
        (rkey, record): (&'a RecordKey, &Record),
    ) -> Result<(Vec<u8>, Vec<u8>, &'a RecordKey)> {
        let prefix = encode_values(&field_values(record, &d.fields)?);
        let full = [prefix.as_slice(), rkey.as_bytes()].concat();
        Ok((prefix, full, rkey))
    }
}

impl Attachment for BTreeIndex {
    fn name(&self) -> &str {
        "btree"
    }

    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<AttrList> {
        IxDesc::from_attrs(rd, params)?;
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
            let d = IxDesc::of(rd, inst)?;
            let old = m.old().map(|side| Self::entry(&d, side)).transpose()?;
            let new = m.new().map(|side| Self::entry(&d, side)).transpose()?;
            if old == new {
                continue; // no indexed field modified
            }
            let index = LoggedTree::attachment(ctx, rd, inst, d.tree.open_tree(ctx.services()));
            if let Some((_, full, rkey)) = old {
                // The entry belongs to the record whose X lock the
                // dispatcher holds, so its presence is stable before the
                // gap locks.
                if index.tree().get(&full)?.is_some() {
                    lock_delete_gaps(ctx, rd.id, index.tree(), &full)?;
                    index.apply(&full, Some(rkey.as_bytes()), None)?;
                }
            }
            if let Some((prefix, full, rkey)) = new {
                // Fence the entry against locked index-range scans.
                lock_insert_gap(ctx, rd.id, index.tree(), &full)?;
                // Uniqueness is probed under the gap lock: a deleter of the
                // same index key holds that gap, and while this insert
                // waited for it the deleter may have rolled back and put
                // its entry back.
                if d.unique && index.tree().contains_prefix(&prefix)? {
                    return Err(DmxError::veto(
                        self.name(),
                        format!("unique index '{}' violated", inst.name),
                    ));
                }
                index.apply(&full, None, Some(rkey.as_bytes()))?;
            }
        }
        Ok(())
    }

    fn open_scan(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        query: &AccessQuery,
    ) -> Result<Box<dyn ScanOps>> {
        let d = IxDesc::of(rd, instance)?;
        let tree = d.tree.open_tree(ctx.services());
        TreeScan::open(
            &tree,
            Some((rd.id, RecordKeyIn::Value)),
            IndexEntries {
                fields: d.fields.clone(),
            },
            query.clone(),
            None,
        )
    }

    fn estimate(
        &self,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        preds: &[Expr],
    ) -> Option<PathChoice> {
        let d = IxDesc::of(rd, instance).ok()?;
        let records = rd.stats.records();
        // One key's share of the entries when no statistics say.
        let one_key = (1.0 / records.max(1) as f64).max(if d.unique { 0.0 } else { 0.01 });
        let m = KeyMatch::of(&d.fields, preds, &rd.stats, one_key)?;
        // a range with no key fixed before it is expected to hold something
        let rows = (records as f64 * m.fraction).max(if m.fixed > 0 { 0.0 } else { 1.0 });
        Some(PathChoice {
            path: AccessPath::Attachment(instance.att, instance.instance),
            query: m.query,
            cost: Cost::tree(records, rows, 100.0),
            rows_out: rows.max(0.001),
            covered: Some(d.fields.clone()),
            applied: m.applied,
            ordering: Some(d.fields.clone()),
        })
    }
}

/// Decodes `index key ∥ record key → record key` entries into record
/// keys plus the covered (indexed) field values.
struct IndexEntries {
    /// The indexed fields — prefix decode count for covered values, and
    /// the projection [`EntryDecoder::item_from_version`] re-derives from
    /// a record's current values.
    fields: Vec<FieldId>,
}

impl EntryDecoder for IndexEntries {
    /// The range of full keys (`prefix ∥ record_key`) a query over
    /// index-key *prefixes* asks for.
    fn bind(&mut self, query: AccessQuery, _pred: Option<Expr>) -> Result<KeyRange> {
        let kr = query.key_range("btree index")?;
        let lo = match kr.lo {
            // exclude every full key with this exact prefix
            Bound::Excluded(a) => match prefix_successor(&a) {
                Some(s) => Bound::Included(s),
                None => Bound::Excluded(a),
            },
            lo => lo,
        };
        let hi = match kr.hi {
            // include every full key with this exact prefix
            Bound::Included(b) => KeyRange::prefix(b).hi,
            hi => hi,
        };
        Ok(KeyRange { lo, hi })
    }

    fn item(&self, _eval: &Evaluator<'_>, key: &[u8], rkey: &[u8]) -> Result<Option<ScanItem>> {
        // the index key prefix covers the indexed fields
        Ok(Some(ScanItem {
            key: RecordKey::new(rkey.to_vec()),
            values: Some(decode_values(key, self.fields.len())?),
        }))
    }

    fn supports_versioned_read(&self) -> bool {
        true
    }

    fn item_from_version(
        &self,
        _ctx: &ExecCtx<'_>,
        range: &KeyRange,
        key: &RecordKey,
        values: &[Value],
    ) -> Result<Option<ScanItem>> {
        // Covered values re-derived from the record itself, not the
        // (possibly stale or uncommitted) index entry.
        let covered = project_values(values, Some(&self.fields))?;
        // The record's *current* indexed values decide range membership
        // (the entry that surfaced the item may describe older ones).
        let mut full = encode_values(&covered);
        full.extend_from_slice(key.as_bytes());
        Ok(range.contains(&full).then(|| ScanItem {
            key: key.clone(),
            values: Some(covered),
        }))
    }
}
