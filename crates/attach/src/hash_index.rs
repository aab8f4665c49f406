//! The hash-table access path.
//!
//! Equality-only: entries are organized by a 64-bit hash of the indexed
//! field values (`hash ∥ enc(values) ∥ record_key`), so only exact-match
//! probes are supported — the architecturally interesting part is the
//! *relevance determination*: [`HashIndex::estimate`] recognizes only
//! equality predicates over **all** indexed fields, and reports itself
//! irrelevant to ranges (the paper: each access path "can determine the
//! relevance of the predicates to the access path instance").

use std::sync::Arc;

use dmx_core::{
    project_values, AccessPath, AccessQuery, Attachment, AttachmentInstance, Cost, EntryDecoder,
    Evaluator, ExecCtx, KeyMatch, KeyRange, LoggedTree, Modification, PathChoice,
    RelationDescriptor, ScanItem, ScanOps, TreeFile, TreeScan, ASSIGNED_KEYS,
};
use dmx_expr::Expr;
use dmx_types::{
    key::{decode_values, encode_values},
    AttrList, DmxError, FieldId, Record, RecordKey, Result, Value,
};

use crate::common::{field_values, fnv1a, parse_fields};

/// The hash-index attachment type.
pub struct HashIndex;

const WHO: &str = "hash index";

/// A hash-index instance as its attribute list describes it.
#[derive(Debug, Clone, PartialEq)]
pub struct HashDesc {
    pub tree: TreeFile,
    pub fields: Vec<FieldId>,
}

impl HashDesc {
    /// The one parser: `fields` as the DDL gave them, and the tree once
    /// assigned.
    fn from_attrs(rd: &RelationDescriptor, attrs: &AttrList) -> Result<HashDesc> {
        attrs
            .without(&ASSIGNED_KEYS)
            .check_allowed(&["fields"], WHO)?;
        let [tree] = TreeFile::assigned(attrs)?;
        Ok(HashDesc {
            tree,
            fields: parse_fields(attrs, "fields", WHO, &rd.schema)?,
        })
    }

    fn of(rd: &RelationDescriptor, inst: &AttachmentInstance) -> Result<Arc<HashDesc>> {
        inst.parsed(|attrs| Self::from_attrs(rd, attrs))
    }
}

/// The bucket an entry is filed under; stored, so it must not change.
fn hash_bytes(values_enc: &[u8]) -> [u8; 8] {
    fnv1a(values_enc).to_be_bytes()
}

/// `hash ∥ enc(values)` — the probe prefix.
fn probe_prefix(values_enc: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(8 + values_enc.len());
    v.extend_from_slice(&hash_bytes(values_enc));
    v.extend_from_slice(values_enc);
    v
}

impl HashIndex {
    /// A record's entry: the key `hash ∥ values ∥ record key` and the
    /// record key it maps to.
    fn entry<'a>(
        d: &HashDesc,
        (rkey, record): (&'a RecordKey, &Record),
    ) -> Result<(Vec<u8>, &'a RecordKey)> {
        let enc = encode_values(&field_values(record, &d.fields)?);
        let mut full = probe_prefix(&enc);
        full.extend_from_slice(rkey.as_bytes());
        Ok((full, rkey))
    }
}

impl Attachment for HashIndex {
    fn name(&self) -> &str {
        "hash"
    }

    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<AttrList> {
        HashDesc::from_attrs(rd, params)?;
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
            let d = HashDesc::of(rd, inst)?;
            let old = m.old().map(|side| Self::entry(&d, side)).transpose()?;
            let new = m.new().map(|side| Self::entry(&d, side)).transpose()?;
            if old == new {
                continue;
            }
            let index = LoggedTree::attachment(ctx, rd, inst, d.tree.open_tree(ctx.services()));
            if let Some((full, _)) = old {
                // Taking out an absent entry logs nothing.
                index.apply(&full, index.tree().get(&full)?.as_deref(), None)?;
            }
            if let Some((full, rkey)) = new {
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
        let d = HashDesc::of(rd, instance)?;
        let tree = d.tree.open_tree(ctx.services());
        let buckets = BucketEntries {
            fields: d.fields.clone(),
        };
        TreeScan::open(&tree, None, buckets, query.clone(), None)
    }

    fn estimate(
        &self,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        preds: &[Expr],
    ) -> Option<PathChoice> {
        let d = HashDesc::of(rd, instance).ok()?;
        // relevant only when EVERY hashed field equals a constant, or the
        // single one a value bound at open (a join's outer row); the flat
        // 1% guess where statistics do not cover them all
        let m = KeyMatch::of(&d.fields, preds, &rd.stats, 0.01)
            .filter(|m| m.fixed == d.fields.len())?;
        let query = match m.query {
            AccessQuery::Range(_) => AccessQuery::KeyEquals(m.prefix),
            probe => probe,
        };
        let rows = (rd.stats.records() as f64 * m.fraction).max(1.0);
        Some(PathChoice {
            path: AccessPath::Attachment(instance.att, instance.instance),
            query,
            // a hash probe is ~1–2 page touches regardless of size
            cost: Cost::new(1.5, rows),
            rows_out: rows,
            covered: Some(d.fields.clone()),
            applied: m.applied,
            ordering: None, // hash order is meaningless
        })
    }
}

/// Decodes `hash(8) ∥ enc(values) ∥ record key → record key` entries:
/// the indexed values are recoverable, so the probe covers them.
struct BucketEntries {
    /// The hashed fields: how many values an entry's key holds, and what
    /// [`EntryDecoder::item_from_version`] re-derives one from.
    fields: Vec<FieldId>,
}

impl EntryDecoder for BucketEntries {
    /// The entries an exact-key probe asks for; a hash index answers
    /// nothing else.
    fn bind(&mut self, query: AccessQuery, _pred: Option<Expr>) -> Result<KeyRange> {
        match query {
            AccessQuery::KeyEquals(values_enc) => Ok(KeyRange::prefix(probe_prefix(&values_enc))),
            _ => Err(DmxError::Unsupported(
                "hash index supports only exact-key probes".into(),
            )),
        }
    }

    fn item(&self, _eval: &Evaluator<'_>, key: &[u8], rkey: &[u8]) -> Result<Option<ScanItem>> {
        let values = key
            .get(8..)
            .ok_or_else(|| DmxError::Corrupt("short hash index key".into()))?;
        let covered = decode_values(values, self.fields.len())?;
        Ok(Some(ScanItem {
            key: RecordKey::new(rkey.to_vec()),
            values: Some(covered),
        }))
    }

    fn supports_versioned_read(&self) -> bool {
        true
    }

    /// The entry the record's visible image would have, held against the
    /// probed bucket — as the B-tree index holds its own against its
    /// range.
    fn item_from_version(
        &self,
        _ctx: &ExecCtx<'_>,
        range: &KeyRange,
        key: &RecordKey,
        values: &[Value],
    ) -> Result<Option<ScanItem>> {
        let covered = project_values(values, Some(&self.fields))?;
        let mut full = probe_prefix(&encode_values(&covered));
        full.extend_from_slice(key.as_bytes());
        Ok(range.contains(&full).then(|| ScanItem {
            key: key.clone(),
            values: Some(covered),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stored hash index is probed with the hash its entries were filed
    /// under: a different toolchain or key layout must fail here, not
    /// misplace every probe.
    #[test]
    fn the_bucket_hash_is_pinned() {
        assert_eq!(
            hash_bytes(&encode_values(&[Value::Int(1)])),
            [0xA1, 0x08, 0xB7, 0x85, 0x84, 0xE9, 0x96, 0x88]
        );
    }
}
