//! The B-tree-organized storage method.
//!
//! "The records of the relation … may be stored in the leaves of a B-tree
//! index." Record keys are "composed from some subset of the fields of
//! the records" — declared in the DDL attribute list (`key = f1, f2`).
//! Updates that change key fields relocate the record, yielding a new
//! record key (the dispatcher tells attachments about both keys).

use std::sync::Arc;

use dmx_core::logged_tree::{self, lock_delete_gaps, lock_insert_gap};
use dmx_core::{
    AccessQuery, CommonServices, Cost, EntryDecoder, Evaluator, ExecCtx, KeyMatch, KeyRange,
    LoggedTree, PathChoice, RecordKeyIn, RelationDescriptor, Replay, ScanItem, ScanOps,
    StorageMethod, TreeFile, TreeScan,
};
use dmx_expr::Expr;
use dmx_lock::LockMode;
use dmx_types::{
    key::encode_values, AttrList, DmxError, FieldId, FileId, Lsn, Record, RecordKey, Result,
    Schema, Value,
};

use crate::util::{filter_project, item_from_version};

/// The B-tree storage method singleton.
pub struct BTreeStorage;

/// Descriptor: file (u32) + root page_no (u32) + key field count (u16) +
/// field ids.
#[derive(Debug, Clone, PartialEq)]
pub struct BtDesc {
    pub file: FileId,
    pub root_page: u32,
    pub key_fields: Vec<FieldId>,
}

impl BtDesc {
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(10 + self.key_fields.len() * 2);
        v.extend_from_slice(&self.file.0.to_le_bytes());
        v.extend_from_slice(&self.root_page.to_le_bytes());
        v.extend_from_slice(&(self.key_fields.len() as u16).to_le_bytes());
        for f in &self.key_fields {
            v.extend_from_slice(&f.to_le_bytes());
        }
        v
    }

    pub fn decode(desc: &[u8]) -> Result<BtDesc> {
        use dmx_types::bytes::{le_u16, le_u32};
        let corrupt = || DmxError::Corrupt("short btree-sm descriptor".into());
        let file = FileId(le_u32(desc, 0).ok_or_else(corrupt)?);
        let root_page = le_u32(desc, 4).ok_or_else(corrupt)?;
        let n = le_u16(desc, 8).ok_or_else(corrupt)? as usize;
        let mut key_fields = Vec::with_capacity(n);
        for i in 0..n {
            key_fields.push(le_u16(desc, 10 + i * 2).ok_or_else(corrupt)?);
        }
        Ok(BtDesc {
            file,
            root_page,
            key_fields,
        })
    }

    pub fn tree_file(&self) -> TreeFile {
        TreeFile {
            file: self.file,
            root_page: self.root_page,
        }
    }
}

impl BTreeStorage {
    /// The relation's descriptor, decoded once per catalog version.
    fn desc(rd: &RelationDescriptor) -> Result<Arc<BtDesc>> {
        rd.sm_desc.parsed(BtDesc::decode)
    }

    /// The relation's tree inside `ctx`'s transaction. Records are
    /// `record key → record bytes`.
    fn records<'a>(ctx: &ExecCtx<'a>, rd: &RelationDescriptor, d: &BtDesc) -> LoggedTree<'a> {
        LoggedTree::storage(ctx, rd, d.tree_file().open_tree(ctx.services()))
    }

    fn record_key(d: &BtDesc, record: &Record) -> Result<RecordKey> {
        let mut vals = Vec::with_capacity(d.key_fields.len());
        for &f in &d.key_fields {
            let v = record
                .values
                .get(f as usize)
                .ok_or_else(|| DmxError::InvalidArg(format!("no key field {f}")))?;
            if v.is_null() {
                return Err(DmxError::InvalidArg(
                    "B-tree storage key fields may not be NULL".into(),
                ));
            }
            vals.push(v.clone());
        }
        Ok(RecordKey::new(encode_values(&vals)))
    }

    fn parse_key_fields(params: &AttrList, schema: &Schema) -> Result<Vec<FieldId>> {
        let spec = params.require("key", "btree storage")?;
        let mut fields = Vec::new();
        for name in spec.split(',') {
            let name = name.trim();
            if name.is_empty() {
                continue;
            }
            let id = schema.field_id(name)?;
            if fields.contains(&id) {
                return Err(DmxError::InvalidArg(format!("duplicate key field {name}")));
            }
            fields.push(id);
        }
        if fields.is_empty() {
            return Err(DmxError::InvalidArg("empty key field list".into()));
        }
        Ok(fields)
    }
}

impl StorageMethod for BTreeStorage {
    fn name(&self) -> &str {
        "btree"
    }

    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        schema: &Schema,
        params: &AttrList,
    ) -> Result<Vec<u8>> {
        params.check_allowed(&["key"], "btree storage")?;
        let key_fields = Self::parse_key_fields(params, schema)?;
        let TreeFile { file, root_page } = TreeFile::create(ctx.services())?;
        Ok(BtDesc {
            file,
            root_page,
            key_fields,
        }
        .encode())
    }

    fn destroy_instance(&self, services: &Arc<CommonServices>, sm_desc: &[u8]) -> Result<()> {
        BtDesc::decode(sm_desc)?.tree_file().destroy(services)
    }

    fn storage_files(&self, sm_desc: &[u8]) -> Vec<dmx_types::FileId> {
        BtDesc::decode(sm_desc)
            .map(|d| vec![d.file])
            .unwrap_or_default()
    }

    fn insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        record: &Record,
    ) -> Result<RecordKey> {
        let d = Self::desc(rd)?;
        let key = Self::record_key(&d, record)?;
        let records = Self::records(ctx, rd, &d);
        // Record before gap: the per-key acquisition order shared with
        // locking scans (record S, then gap S), so a writer and a scan
        // meeting on one key cannot deadlock across the pair. The DML
        // layer re-locks the key after this call returns; that is a
        // re-grant.
        ctx.lock_record(rd.id, &key, LockMode::X)?;
        lock_insert_gap(ctx, rd.id, records.tree(), key.as_bytes())?;
        // Probe only now: while this insert waited for the record lock,
        // a deleter of the key may have rolled back and put it back. A
        // present key is refused before anything is logged — a logged
        // insert that then failed would make rollback delete the
        // pre-existing record.
        if records.tree().get(key.as_bytes())?.is_some() {
            return Err(DmxError::Duplicate(format!(
                "btree storage key {key:?} already exists"
            )));
        }
        let bytes = record.encode();
        records.apply(key.as_bytes(), None, Some(&bytes))?;
        Ok(key)
    }

    fn update(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        new: &Record,
    ) -> Result<(Record, RecordKey)> {
        let d = Self::desc(rd)?;
        let records = Self::records(ctx, rd, &d);
        // The DML layer holds `key`'s record X lock: this read is stable.
        let old_bytes = records
            .tree()
            .get(key.as_bytes())?
            .ok_or_else(|| DmxError::NotFound(format!("btree record {key:?}")))?;
        let old = Record::decode(&old_bytes)?;
        let new_key = Self::record_key(&d, new)?;
        let new_bytes = new.encode();
        if new_key == *key {
            records.apply(key.as_bytes(), Some(&old_bytes), Some(&new_bytes))?;
            return Ok((old, new_key));
        }
        // Key fields changed: the record moves ("the old record and record
        // key will be used to determine which key to delete … and the new
        // record and record key … inserted"). The relocation deletes the
        // old key (merging its gap into its successor's) and inserts the
        // new one (splitting a gap). Record-before-gap order: X the
        // destination key ahead of every gap acquisition (the old key's
        // record X is already held by the DML layer); the DML layer's
        // post-return lock is a re-grant.
        ctx.lock_record(rd.id, &new_key, LockMode::X)?;
        lock_delete_gaps(ctx, rd.id, records.tree(), key.as_bytes())?;
        lock_insert_gap(ctx, rd.id, records.tree(), new_key.as_bytes())?;
        // The destination is probed under its lock, as in `insert`.
        if records.tree().get(new_key.as_bytes())?.is_some() {
            return Err(DmxError::Duplicate(format!(
                "btree storage key {new_key:?} already exists"
            )));
        }
        records.apply(key.as_bytes(), Some(&old_bytes), None)?;
        records.apply(new_key.as_bytes(), None, Some(&new_bytes))?;
        Ok((old, new_key))
    }

    fn delete(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
    ) -> Result<Record> {
        let d = Self::desc(rd)?;
        let records = Self::records(ctx, rd, &d);
        // Stable for the same reason as in `update`.
        let old_bytes = records
            .tree()
            .get(key.as_bytes())?
            .ok_or_else(|| DmxError::NotFound(format!("btree record {key:?}")))?;
        lock_delete_gaps(ctx, rd.id, records.tree(), key.as_bytes())?;
        records.apply(key.as_bytes(), Some(&old_bytes), None)?;
        Record::decode(&old_bytes)
    }

    fn fetch(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        fields: Option<&[FieldId]>,
        pred: Option<&Expr>,
    ) -> Result<Option<Vec<Value>>> {
        let tree = Self::desc(rd)?.tree_file().open_tree(ctx.services());
        let Some(bytes) = tree.get(key.as_bytes())? else {
            return Ok(None);
        };
        filter_project(&ctx.evaluator(), &bytes, fields, pred)
    }

    fn open_scan(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        range: KeyRange,
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
    ) -> Result<Box<dyn ScanOps>> {
        let tree = Self::desc(rd)?.tree_file().open_tree(ctx.services());
        TreeScan::open(
            &tree,
            Some((rd.id, RecordKeyIn::Key)),
            RecordEntries { pred: None, fields },
            AccessQuery::Range(range),
            pred,
        )
    }

    fn estimate(&self, rd: &RelationDescriptor, preds: &[Expr]) -> PathChoice {
        let records = rd.stats.records();
        let mut choice = PathChoice::full_scan(records, &rd.stats, preds);
        let Ok(d) = Self::desc(rd) else {
            return choice;
        };
        let pages = rd.stats.pages().max(records / 40 + 1);
        choice.cost.io = pages as f64;
        choice.ordering = Some(d.key_fields.clone());
        // Predicates on the key's leading fields make it a range of the
        // tree rather than all of it; every predicate stays pushed down.
        // Constants on every key field name one record: its key is their
        // encoding, as `record_key` makes it.
        let one_key = 1.0 / records.max(1) as f64;
        if let Some(m) = KeyMatch::of(&d.key_fields, preds, &rd.stats, one_key) {
            let rows = records as f64 * m.fraction;
            choice.query = match m.query {
                AccessQuery::Range(_) if m.fixed == d.key_fields.len() => {
                    AccessQuery::Record(RecordKey::new(m.prefix))
                }
                query => query,
            };
            choice.cost = Cost::tree(records, rows, records.max(1) as f64 / pages as f64);
            // overall output is bounded by both the key-range fraction and
            // the residual predicate selectivity
            choice.rows_out = choice.rows_out.min(rows);
        }
        choice
    }

    fn replay(
        &self,
        services: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        _lsn: Lsn,
        dir: Replay<'_>,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        let tree = Self::desc(rd)?.tree_file().open_tree(services);
        logged_tree::replay(&tree, dir, op, payload).map(drop)
    }
}

/// Decodes `record key → record` entries, filtering and projecting
/// the record while it is still in the buffer pool's bytes.
struct RecordEntries {
    pred: Option<Expr>,
    fields: Option<Vec<FieldId>>,
}

impl EntryDecoder for RecordEntries {
    fn bind(&mut self, query: AccessQuery, pred: Option<Expr>) -> Result<KeyRange> {
        self.pred = pred;
        query.storage_range()
    }

    fn item(&self, eval: &Evaluator<'_>, key: &[u8], bytes: &[u8]) -> Result<Option<ScanItem>> {
        let values = filter_project(eval, bytes, self.fields.as_deref(), self.pred.as_ref())?;
        Ok(values.map(|values| ScanItem {
            key: RecordKey::new(key.to_vec()),
            values: Some(values),
        }))
    }

    fn supports_versioned_read(&self) -> bool {
        true
    }

    fn item_from_version(
        &self,
        ctx: &ExecCtx<'_>,
        range: &KeyRange,
        key: &RecordKey,
        values: &[Value],
    ) -> Result<Option<ScanItem>> {
        let (fields, pred) = (self.fields.as_deref(), self.pred.as_ref());
        item_from_version(ctx, range, fields, pred, key, values)
    }
}
