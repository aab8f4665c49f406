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
    project_values, AccessPath, AccessQuery, Attachment, AttachmentInstance, CommonServices, Cost,
    EntryDecoder, Evaluator, ExecCtx, KeyMatch, KeyRange, LoggedTree, Modification, PathChoice,
    RecordKeyIn, RelationDescriptor, ScanItem, ScanOps, TreeFile, TreeScan,
};
use dmx_expr::Expr;
use dmx_types::{
    key::{decode_values, encode_values},
    AttrList, DmxError, FieldId, FileId, Record, RecordKey, Result, Value,
};

use crate::common::{field_values, parse_fields, read_u16, read_u32};

/// The B-tree index attachment type.
pub struct BTreeIndex;

/// Instance descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct IxDesc {
    pub file: FileId,
    pub root_page: u32,
    pub unique: bool,
    pub fields: Vec<FieldId>,
}

impl IxDesc {
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(11 + self.fields.len() * 2);
        v.extend_from_slice(&self.file.0.to_le_bytes());
        v.extend_from_slice(&self.root_page.to_le_bytes());
        v.push(self.unique as u8);
        v.extend_from_slice(&(self.fields.len() as u16).to_le_bytes());
        for f in &self.fields {
            v.extend_from_slice(&f.to_le_bytes());
        }
        v
    }

    pub fn decode(b: &[u8]) -> Result<IxDesc> {
        const WHAT: &str = "index descriptor";
        let corrupt = || DmxError::Corrupt(format!("short {WHAT}"));
        let file = FileId(read_u32(b, 0, WHAT)?);
        let root_page = read_u32(b, 4, WHAT)?;
        let unique = *b.get(8).ok_or_else(corrupt)? != 0;
        let n = read_u16(b, 9, WHAT)? as usize;
        let mut fields = Vec::with_capacity(n);
        for i in 0..n {
            fields.push(read_u16(b, 11 + 2 * i, WHAT)?);
        }
        Ok(IxDesc {
            file,
            root_page,
            unique,
            fields,
        })
    }

    pub fn tree_file(&self) -> TreeFile {
        TreeFile {
            file: self.file,
            root_page: self.root_page,
        }
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
    ) -> Result<Vec<u8>> {
        params.check_allowed(&["fields", "unique"], "btree index")?;
        let fields = parse_fields(params, "fields", "btree index", &rd.schema)?;
        let unique = params.get_bool("unique", false)?;
        let TreeFile { file, root_page } = TreeFile::create(ctx.services())?;
        Ok(IxDesc {
            file,
            root_page,
            unique,
            fields,
        }
        .encode())
    }

    fn destroy_instance(&self, services: &Arc<CommonServices>, inst_desc: &[u8]) -> Result<()> {
        IxDesc::decode(inst_desc)?.tree_file().destroy(services)
    }

    fn on_modify(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        m: &Modification<'_>,
    ) -> Result<()> {
        for inst in instances {
            let d = IxDesc::decode(&inst.desc)?;
            let old = m.old().map(|side| Self::entry(&d, side)).transpose()?;
            let new = m.new().map(|side| Self::entry(&d, side)).transpose()?;
            if old == new {
                continue; // no indexed field modified
            }
            let index =
                LoggedTree::attachment(ctx, rd, inst, d.tree_file().open_tree(ctx.services()));
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

    fn storage_files(&self, inst_desc: &[u8]) -> Vec<FileId> {
        IxDesc::decode(inst_desc)
            .map(|d| vec![d.file])
            .unwrap_or_default()
    }

    fn reconstruct_params(&self, rd: &RelationDescriptor, inst_desc: &[u8]) -> Result<AttrList> {
        let d = IxDesc::decode(inst_desc)?;
        let names: Vec<&str> = d
            .fields
            .iter()
            .map(|&f| rd.schema.column(f).map(|c| c.name.as_str()))
            .collect::<Result<_>>()?;
        AttrList::from_pairs([
            ("fields".to_string(), names.join(",")),
            ("unique".to_string(), d.unique.to_string()),
        ])
    }

    fn open_scan(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        query: &AccessQuery,
    ) -> Result<Box<dyn ScanOps>> {
        let d = IxDesc::decode(&instance.desc)?;
        let tree = d.tree_file().open_tree(ctx.services());
        TreeScan::open(
            &tree,
            Some((rd.id, RecordKeyIn::Value)),
            IndexEntries { fields: d.fields },
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
        let d = IxDesc::decode(&instance.desc).ok()?;
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
