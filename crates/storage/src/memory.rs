//! The temporary (main-memory) storage method.
//!
//! The paper's base system has "a storage method for implementing
//! temporary relations and that storage method is assigned the internal
//! identifier 1" — registration order in [`crate::register_builtin_storage`]
//! preserves that. Instances are *not recoverable*: they vanish at
//! restart (the catalog purges them). Operations are still logged so
//! in-flight rollback (vetoes, savepoints, aborts) works — the paper's
//! partial-rollback machinery applies to temporary relations too; only
//! crash durability is waived.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dmx_types::sync::RwLock;

use dmx_core::access::{decode_position, encode_position};
use dmx_core::logged_tree::{Change, Image};
use dmx_core::{
    project_values, CommonServices, ExecCtx, KeyRange, PathChoice, RelationDescriptor, Replay,
    ScanItem, ScanOps, StorageMethod,
};
use dmx_expr::Expr;
use dmx_types::{AttrList, DmxError, FieldId, Lsn, Record, RecordKey, Result, Schema, Value};

use crate::util::log_change;

/// An ordered `record key → record` table outside the buffer pool, with
/// its logged modifications and their undo: the store under this storage
/// method and under the foreign gateway's simulated server.
pub(crate) struct Table {
    rows: RwLock<BTreeMap<Vec<u8>, Record>>,
    /// Source of synthesized record keys; tables may share one.
    next_key: Arc<AtomicU64>,
}

impl Table {
    pub(crate) fn new(next_key: Arc<AtomicU64>) -> Arc<Table> {
        Arc::new(Table {
            rows: RwLock::new(BTreeMap::new()),
            next_key,
        })
    }

    pub(crate) fn insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        record: &Record,
    ) -> Result<RecordKey> {
        let n = self.next_key.fetch_add(1, Ordering::Relaxed) + 1;
        let key = RecordKey::new(n.to_be_bytes().to_vec());
        // Its undo needs only the key, and nothing is redone.
        log_change(ctx, rd, &key, None, Some(&[]))?;
        self.rows
            .write()
            .insert(key.as_bytes().to_vec(), record.clone());
        Ok(key)
    }

    /// Replaces the record at `key`, which is `old`, by `new` (`None`:
    /// removes it).
    pub(crate) fn replace(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        old: &Record,
        new: Option<&Record>,
    ) -> Result<()> {
        let after = new.map(Record::encode);
        log_change(ctx, rd, key, Some(&old.encode()), after.as_deref())?;
        let mut rows = self.rows.write();
        match new {
            Some(new) => rows.insert(key.as_bytes().to_vec(), new.clone()),
            None => rows.remove(key.as_bytes()),
        };
        Ok(())
    }

    pub(crate) fn fetch(
        &self,
        ctx: &ExecCtx<'_>,
        key: &RecordKey,
        fields: Option<&[FieldId]>,
        pred: Option<&Expr>,
    ) -> Result<Option<Vec<Value>>> {
        let rows = self.rows.read();
        let Some(rec) = rows.get(key.as_bytes()) else {
            return Ok(None);
        };
        if let Some(p) = pred {
            if !ctx.eval_predicate(p, &rec.values)? {
                return Ok(None);
            }
        }
        Ok(Some(project_values(&rec.values, fields)?))
    }

    /// Takes a logged operation back: these tables share no log with
    /// their pages, so undo is the compensating operation.
    pub(crate) fn undo(&self, op: u8, payload: &[u8]) -> Result<()> {
        let change = Change::decode(op, payload)?;
        let mut rows = self.rows.write();
        let current = match change.patches() {
            true => rows.get(change.key).map(Record::encode),
            false => None,
        };
        match change.before(current.as_deref()) {
            Image::Set(Some(old)) => {
                rows.insert(change.key.to_vec(), Record::decode(&old)?);
            }
            Image::Set(None) => {
                rows.remove(change.key);
            }
            Image::Keep => {}
        }
        Ok(())
    }

    /// A key-sequential access; `on_row` runs before each row is examined
    /// (the foreign gateway counts its round trips there).
    pub(crate) fn scan(
        self: Arc<Self>,
        range: KeyRange,
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
        on_row: impl FnMut() + Send + 'static,
    ) -> Box<dyn ScanOps> {
        Box::new(TableScan {
            table: self,
            range,
            pred,
            fields,
            after: None,
            on_row,
        })
    }
}

/// The temporary storage method. Per-instance state lives in the
/// singleton, keyed by a token stored in the instance descriptor.
#[derive(Default)]
pub struct MemoryStorage {
    tables: RwLock<HashMap<u64, Arc<Table>>>,
    next_token: AtomicU64,
}

impl MemoryStorage {
    fn table(&self, rd: &RelationDescriptor) -> Result<Arc<Table>> {
        let token = decode_token(&rd.sm_desc)?;
        self.tables
            .read()
            .get(&token)
            .cloned()
            .ok_or_else(|| DmxError::NotFound(format!("temporary relation {}", rd.name)))
    }
}

fn decode_token(desc: &[u8]) -> Result<u64> {
    dmx_types::bytes::le_u64(desc, 0)
        .ok_or_else(|| DmxError::Corrupt("short memory descriptor".into()))
}

impl StorageMethod for MemoryStorage {
    fn name(&self) -> &str {
        "memory"
    }

    fn is_recoverable(&self) -> bool {
        false
    }

    fn create_instance(
        &self,
        _ctx: &ExecCtx<'_>,
        _schema: &Schema,
        params: &AttrList,
    ) -> Result<Vec<u8>> {
        params.check_allowed(&[], "memory")?;
        let token = self.next_token.fetch_add(1, Ordering::Relaxed) + 1;
        self.tables
            .write()
            .insert(token, Table::new(Arc::default()));
        Ok(token.to_le_bytes().to_vec())
    }

    fn destroy_instance(&self, _services: &Arc<CommonServices>, sm_desc: &[u8]) -> Result<()> {
        let token = decode_token(sm_desc)?;
        self.tables.write().remove(&token);
        Ok(())
    }

    fn insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        record: &Record,
    ) -> Result<RecordKey> {
        self.table(rd)?.insert(ctx, rd, record)
    }

    fn update(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        old: &Record,
        new: &Record,
    ) -> Result<RecordKey> {
        self.table(rd)?.replace(ctx, rd, key, old, Some(new))?;
        Ok(key.clone())
    }

    fn delete(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        old: &Record,
    ) -> Result<()> {
        self.table(rd)?.replace(ctx, rd, key, old, None)
    }

    fn fetch(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        fields: Option<&[FieldId]>,
        pred: Option<&Expr>,
    ) -> Result<Option<Vec<Value>>> {
        self.table(rd)?.fetch(ctx, key, fields, pred)
    }

    fn open_scan(
        &self,
        _ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        range: KeyRange,
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
    ) -> Result<Box<dyn ScanOps>> {
        Ok(self.table(rd)?.scan(range, pred, fields, || {}))
    }

    fn estimate(&self, rd: &RelationDescriptor, preds: &[Expr]) -> PathChoice {
        let mut c = PathChoice::full_scan(rd.stats.records(), &rd.stats, preds);
        c.cost.io = 0.0; // main memory: no page transfers
        c
    }

    fn replay(
        &self,
        _services: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        _lsn: Lsn,
        dir: Replay<'_>,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        match (dir, self.table(rd)) {
            (Replay::Undo(clr), Ok(table)) if clr.repeated().is_none() => table.undo(op, payload),
            // Nothing survives a restart to redo into or to compensate
            // again, and a dropped table has nothing left to undo.
            _ => Ok(()),
        }
    }
}

struct TableScan<F> {
    table: Arc<Table>,
    range: KeyRange,
    pred: Option<Expr>,
    fields: Option<Vec<FieldId>>,
    after: Option<Vec<u8>>,
    on_row: F,
}

impl<F: FnMut() + Send> ScanOps for TableScan<F> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>> {
        loop {
            (self.on_row)();
            let lo: Bound<Vec<u8>> = match &self.after {
                Some(k) => Bound::Excluded(k.clone()),
                None => self.range.lo.clone(),
            };
            let rows = self.table.rows.read();
            let Some((key, rec)) = rows.range((lo, Bound::Unbounded)).next() else {
                return Ok(None);
            };
            if !self.range.contains(key) {
                return Ok(None);
            }
            let (key, rec) = (key.clone(), rec.clone());
            drop(rows);
            self.after = Some(key.clone());
            if let Some(p) = &self.pred {
                if !ctx.eval_predicate(p, &rec.values)? {
                    continue;
                }
            }
            let values = project_values(&rec.values, self.fields.as_deref())?;
            return Ok(Some(ScanItem {
                key: RecordKey::new(key),
                values: Some(values),
            }));
        }
    }

    fn save_position(&self) -> Vec<u8> {
        encode_position(self.after.as_deref())
    }

    fn restore_position(&mut self, pos: &[u8]) -> Result<()> {
        self.after = decode_position(pos)?;
        Ok(())
    }
}
