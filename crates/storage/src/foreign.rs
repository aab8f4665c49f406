//! The foreign-database gateway storage method.
//!
//! "Another relation storage method might support access to a foreign
//! database by simulating relation accesses via (remote) accesses to
//! relations in the foreign database." [`RemoteServer`] simulates the
//! foreign system: an autonomous store reachable only through counted
//! round trips. Undo is by *compensating* remote operations (the remote
//! system does not share our log), which is exactly the latitude the
//! paper gives extension implementors in choosing recovery techniques.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dmx_types::sync::RwLock;

use dmx_core::access::{decode_position, encode_position};
use dmx_core::{
    AccessPath, CommonServices, Cost, ExecCtx, KeyRange, PathChoice, RelationDescriptor, ScanItem,
    ScanOps, StorageMethod,
};
use dmx_expr::Expr;
use dmx_types::{
    AttrList, DmxError, FieldId, Lsn, Record, RecordKey, RelationId, Result, Schema, Value,
};
use dmx_wal::ExtKind;

use crate::ops::{decode_key, encode_key, encode_key_record, OP_DELETE, OP_INSERT, OP_UPDATE};

/// Rows fetched per simulated round trip during scans.
pub const SCAN_BATCH: u64 = 100;

/// One simulated remote table: an ordered key -> record map behind its
/// own lock, shared between the server and open scans.
type RemoteTable = Arc<RwLock<BTreeMap<Vec<u8>, Record>>>;

/// A simulated foreign database server.
pub struct RemoteServer {
    name: String,
    tables: RwLock<HashMap<u64, RemoteTable>>,
    next_table: AtomicU64,
    next_key: AtomicU64,
    round_trips: AtomicU64,
}

impl RemoteServer {
    fn new(name: &str) -> Arc<Self> {
        Arc::new(RemoteServer {
            name: name.to_string(),
            tables: RwLock::new(HashMap::new()),
            next_table: AtomicU64::new(0),
            next_key: AtomicU64::new(0),
            round_trips: AtomicU64::new(0),
        })
    }

    /// The server's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total simulated round trips made against this server.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    fn trip(&self) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
    }

    fn table(&self, id: u64) -> Result<RemoteTable> {
        self.tables
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| DmxError::NotFound(format!("remote table {id} on {}", self.name)))
    }
}

/// The gateway storage method. Servers are registered "at the factory"
/// via [`ForeignStorage::register_server`].
#[derive(Default)]
pub struct ForeignStorage {
    servers: RwLock<HashMap<String, Arc<RemoteServer>>>,
}

/// Descriptor: table id (u64 LE) + server name bytes.
fn encode_desc(server: &str, table: u64) -> Vec<u8> {
    let mut v = table.to_le_bytes().to_vec();
    v.extend_from_slice(server.as_bytes());
    v
}

fn decode_desc(desc: &[u8]) -> Result<(String, u64)> {
    let corrupt = || DmxError::Corrupt("short foreign descriptor".into());
    let table = dmx_types::bytes::le_u64(desc, 0).ok_or_else(corrupt)?;
    let server = String::from_utf8(desc.get(8..).ok_or_else(corrupt)?.to_vec())
        .map_err(|_| DmxError::Corrupt("foreign server name not utf8".into()))?;
    Ok((server, table))
}

impl ForeignStorage {
    /// Registers (or returns) a simulated foreign server.
    pub fn register_server(&self, name: &str) -> Arc<RemoteServer> {
        self.servers
            .write()
            .entry(name.to_ascii_lowercase())
            .or_insert_with(|| RemoteServer::new(name))
            .clone()
    }

    /// Looks up a registered server.
    pub fn server(&self, name: &str) -> Result<Arc<RemoteServer>> {
        self.servers
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| DmxError::NotFound(format!("foreign server '{name}'")))
    }

    fn resolve(&self, rd: &RelationDescriptor) -> Result<(Arc<RemoteServer>, u64)> {
        let (server, table) = decode_desc(&rd.sm_desc)?;
        Ok((self.server(&server)?, table))
    }
}

impl StorageMethod for ForeignStorage {
    fn name(&self) -> &str {
        "foreign"
    }

    fn validate_params(&self, params: &AttrList, _schema: &Schema) -> Result<()> {
        params.check_allowed(&["server"], "foreign")?;
        let server = params.require("server", "foreign")?;
        self.server(server).map(|_| ())
    }

    fn create_instance(
        &self,
        _ctx: &ExecCtx<'_>,
        _rel: RelationId,
        _schema: &Schema,
        params: &AttrList,
    ) -> Result<Vec<u8>> {
        let name = params.require("server", "foreign")?;
        let server = self.server(name)?;
        let table = server.next_table.fetch_add(1, Ordering::Relaxed) + 1;
        server
            .tables
            .write()
            .insert(table, Arc::new(RwLock::new(BTreeMap::new())));
        server.trip();
        Ok(encode_desc(name, table))
    }

    fn destroy_instance(&self, _services: &Arc<CommonServices>, sm_desc: &[u8]) -> Result<()> {
        let (name, table) = decode_desc(sm_desc)?;
        if let Ok(server) = self.server(&name) {
            server.tables.write().remove(&table);
            server.trip();
        }
        Ok(())
    }

    fn insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        record: &Record,
    ) -> Result<RecordKey> {
        let (server, table) = self.resolve(rd)?;
        let key = RecordKey::new(
            (server.next_key.fetch_add(1, Ordering::Relaxed) + 1)
                .to_be_bytes()
                .to_vec(),
        );
        ctx.log_ext_op(
            ExtKind::Storage(rd.sm),
            rd.id,
            OP_INSERT,
            encode_key(key.as_bytes()),
        );
        server.trip();
        server
            .table(table)?
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
        let (server, table) = self.resolve(rd)?;
        let t = server.table(table)?;
        server.trip();
        let old = t
            .read()
            .get(key.as_bytes())
            .cloned()
            .ok_or_else(|| DmxError::NotFound(format!("remote record {key:?}")))?;
        ctx.log_ext_op(
            ExtKind::Storage(rd.sm),
            rd.id,
            OP_UPDATE,
            encode_key_record(key.as_bytes(), &old.encode()),
        );
        server.trip();
        t.write().insert(key.as_bytes().to_vec(), new.clone());
        Ok((old, key.clone()))
    }

    fn delete(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
    ) -> Result<Record> {
        let (server, table) = self.resolve(rd)?;
        let t = server.table(table)?;
        server.trip();
        let old = t
            .read()
            .get(key.as_bytes())
            .cloned()
            .ok_or_else(|| DmxError::NotFound(format!("remote record {key:?}")))?;
        ctx.log_ext_op(
            ExtKind::Storage(rd.sm),
            rd.id,
            OP_DELETE,
            encode_key_record(key.as_bytes(), &old.encode()),
        );
        server.trip();
        t.write().remove(key.as_bytes());
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
        let (server, table) = self.resolve(rd)?;
        server.trip();
        let t = server.table(table)?;
        let rows = t.read();
        let Some(rec) = rows.get(key.as_bytes()) else {
            return Ok(None);
        };
        if let Some(p) = pred {
            if !ctx.eval_predicate(p, &rec.values)? {
                return Ok(None);
            }
        }
        match fields {
            None => Ok(Some(rec.values.clone())),
            Some(ids) => ids
                .iter()
                .map(|&i| {
                    rec.values
                        .get(i as usize)
                        .cloned()
                        .ok_or_else(|| DmxError::InvalidArg(format!("no field {i}")))
                })
                .collect::<Result<Vec<_>>>()
                .map(Some),
        }
    }

    fn open_scan(
        &self,
        _ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        range: KeyRange,
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
    ) -> Result<Box<dyn ScanOps>> {
        let (server, table) = self.resolve(rd)?;
        Ok(Box::new(ForeignScan {
            server: server.clone(),
            table: server.table(table)?,
            range,
            pred,
            fields,
            after: None,
            fetched_since_trip: 0,
        }))
    }

    fn estimate(&self, rd: &RelationDescriptor, preds: &[Expr]) -> PathChoice {
        let records = rd.stats.records();
        let ts = rd.stats.table_stats();
        let sel: f64 = preds
            .iter()
            .map(|p| dmx_expr::selectivity(p, ts.as_deref()))
            .product();
        let trips = (records / SCAN_BATCH + 1) as f64;
        PathChoice {
            path: AccessPath::StorageMethod,
            query: dmx_core::AccessQuery::All,
            // model a round trip as ~4 page transfers of latency
            cost: Cost::new(trips * 4.0, records as f64),
            rows_out: records as f64 * sel,
            covered: None,
            applied: preds.to_vec(),
            ordering: None,
        }
    }

    fn undo(
        &self,
        _services: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        _lsn: Lsn,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        // Compensating remote operations.
        let Ok((server, table)) = self.resolve(rd) else {
            return Ok(());
        };
        let Ok(t) = server.table(table) else {
            return Ok(());
        };
        let (key, old_bytes) = decode_key(payload)?;
        server.trip();
        let mut rows = t.write();
        match op {
            OP_INSERT => {
                rows.remove(key);
            }
            OP_DELETE | OP_UPDATE => {
                rows.insert(key.to_vec(), Record::decode(old_bytes)?);
            }
            other => return Err(DmxError::Corrupt(format!("bad foreign op {other}"))),
        }
        Ok(())
    }
}

struct ForeignScan {
    server: Arc<RemoteServer>,
    table: Arc<RwLock<BTreeMap<Vec<u8>, Record>>>,
    range: KeyRange,
    pred: Option<Expr>,
    fields: Option<Vec<FieldId>>,
    after: Option<Vec<u8>>,
    fetched_since_trip: u64,
}

impl ScanOps for ForeignScan {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>> {
        loop {
            if self.fetched_since_trip.is_multiple_of(SCAN_BATCH) {
                self.server.trip(); // fetch the next remote batch
            }
            self.fetched_since_trip += 1;
            let lo: Bound<Vec<u8>> = match &self.after {
                Some(k) => Bound::Excluded(k.clone()),
                None => match &self.range.lo {
                    Bound::Included(b) => Bound::Included(b.clone()),
                    Bound::Excluded(b) => Bound::Excluded(b.clone()),
                    Bound::Unbounded => Bound::Unbounded,
                },
            };
            let rows = self.table.read();
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
            let values = match &self.fields {
                None => rec.values.clone(),
                Some(ids) => ids
                    .iter()
                    .map(|&i| {
                        rec.values
                            .get(i as usize)
                            .cloned()
                            .ok_or_else(|| DmxError::InvalidArg(format!("no field {i}")))
                    })
                    .collect::<Result<Vec<_>>>()?,
            };
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
