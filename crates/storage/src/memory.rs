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
use dmx_core::{
    project_values, AccessPath, CommonServices, ExecCtx, KeyRange, PathChoice, RelationDescriptor,
    ScanItem, ScanOps, StorageMethod,
};
use dmx_expr::Expr;
use dmx_types::{
    AttrList, DmxError, FieldId, Lsn, Record, RecordKey, RelationId, Result, Schema, Value,
};
use dmx_wal::ExtKind;

use crate::ops::{decode_key, encode_key, encode_key_record, OP_DELETE, OP_INSERT, OP_UPDATE};

struct Table {
    rows: RwLock<BTreeMap<Vec<u8>, Record>>,
    next_key: AtomicU64,
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

    fn log(ctx: &ExecCtx<'_>, rd: &RelationDescriptor, op: u8, payload: Vec<u8>) -> Lsn {
        ctx.log_ext_op(ExtKind::Storage(rd.sm), rd.id, op, payload)
    }
}

fn decode_token(desc: &[u8]) -> Result<u64> {
    dmx_types::bytes::le_u64(desc, 0)
        .ok_or_else(|| DmxError::Corrupt("short memory descriptor".into()))
}

fn synth_key(n: u64) -> RecordKey {
    RecordKey::new(n.to_be_bytes().to_vec())
}

impl StorageMethod for MemoryStorage {
    fn name(&self) -> &str {
        "memory"
    }

    fn is_recoverable(&self) -> bool {
        false
    }

    fn validate_params(&self, params: &AttrList, _schema: &Schema) -> Result<()> {
        params.check_allowed(&[], "memory")
    }

    fn create_instance(
        &self,
        _ctx: &ExecCtx<'_>,
        _rel: RelationId,
        _schema: &Schema,
        _params: &AttrList,
    ) -> Result<Vec<u8>> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed) + 1;
        self.tables.write().insert(
            token,
            Arc::new(Table {
                rows: RwLock::new(BTreeMap::new()),
                next_key: AtomicU64::new(0),
            }),
        );
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
        let table = self.table(rd)?;
        let key = synth_key(table.next_key.fetch_add(1, Ordering::Relaxed) + 1);
        Self::log(ctx, rd, OP_INSERT, encode_key(key.as_bytes()));
        table
            .rows
            .write()
            .insert(key.as_bytes().to_vec(), record.clone());
        Ok(key)
    }

    fn update(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        new: &Record,
    ) -> Result<(Record, RecordKey)> {
        let table = self.table(rd)?;
        let mut rows = table.rows.write();
        let slot = rows
            .get_mut(key.as_bytes())
            .ok_or_else(|| DmxError::NotFound(format!("temporary record {key:?}")))?;
        let old = slot.clone();
        drop(rows);
        Self::log(
            ctx,
            rd,
            OP_UPDATE,
            encode_key_record(key.as_bytes(), &old.encode()),
        );
        table
            .rows
            .write()
            .insert(key.as_bytes().to_vec(), new.clone());
        Ok((old, key.clone()))
    }

    fn delete(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
    ) -> Result<Record> {
        let table = self.table(rd)?;
        let old = table
            .rows
            .read()
            .get(key.as_bytes())
            .cloned()
            .ok_or_else(|| DmxError::NotFound(format!("temporary record {key:?}")))?;
        Self::log(
            ctx,
            rd,
            OP_DELETE,
            encode_key_record(key.as_bytes(), &old.encode()),
        );
        table.rows.write().remove(key.as_bytes());
        Ok(old)
    }

    fn fetch(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        fields: Option<&[FieldId]>,
        pred: Option<&Expr>,
    ) -> Result<Option<Vec<Value>>> {
        let table = self.table(rd)?;
        let rows = table.rows.read();
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

    fn open_scan(
        &self,
        _ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        range: KeyRange,
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
    ) -> Result<Box<dyn ScanOps>> {
        Ok(Box::new(MemScan {
            table: self.table(rd)?,
            range,
            pred,
            fields,
            after: None,
        }))
    }

    fn estimate(&self, rd: &RelationDescriptor, preds: &[Expr]) -> PathChoice {
        let records = rd.stats.records();
        let ts = rd.stats.table_stats();
        let sel: f64 = preds
            .iter()
            .map(|p| dmx_expr::selectivity(p, ts.as_deref()))
            .product();
        let mut c = PathChoice::full_scan(AccessPath::StorageMethod, 0, records);
        c.cost.io = 0.0; // main memory: no page transfers
        c.rows_out = records as f64 * sel;
        c.applied = preds.to_vec();
        c
    }

    fn undo(
        &self,
        _services: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        _lsn: Lsn,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        // The table may already be gone (dropped); nothing to undo then.
        let Ok(table) = self.table(rd) else {
            return Ok(());
        };
        let (key, old_bytes) = decode_key(payload)?;
        let mut rows = table.rows.write();
        match op {
            OP_INSERT => {
                rows.remove(key);
            }
            OP_DELETE | OP_UPDATE => {
                rows.insert(key.to_vec(), Record::decode(old_bytes)?);
            }
            other => return Err(DmxError::Corrupt(format!("bad memory op {other}"))),
        }
        Ok(())
    }
}

struct MemScan {
    table: Arc<Table>,
    range: KeyRange,
    pred: Option<Expr>,
    fields: Option<Vec<FieldId>>,
    after: Option<Vec<u8>>,
}

impl ScanOps for MemScan {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>> {
        loop {
            let lo: Bound<Vec<u8>> = match &self.after {
                Some(k) => Bound::Excluded(k.clone()),
                None => match &self.range.lo {
                    Bound::Included(b) => Bound::Included(b.clone()),
                    Bound::Excluded(b) => Bound::Excluded(b.clone()),
                    Bound::Unbounded => Bound::Unbounded,
                },
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
