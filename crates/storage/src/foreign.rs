//! The foreign-database gateway storage method.
//!
//! "Another relation storage method might support access to a foreign
//! database by simulating relation accesses via (remote) accesses to
//! relations in the foreign database." [`RemoteServer`] simulates the
//! foreign system: an autonomous store reachable only through counted
//! round trips. Undo is by *compensating* remote operations (the remote
//! system does not share our log), which is exactly the latitude the
//! paper gives extension implementors in choosing recovery techniques.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dmx_types::sync::RwLock;

use dmx_core::{
    CommonServices, ExecCtx, KeyRange, PathChoice, RelationDescriptor, Replay, ScanOps,
    StorageMethod,
};
use dmx_expr::Expr;
use dmx_types::{AttrList, DmxError, FieldId, Lsn, Record, RecordKey, Result, Schema, Value};

use crate::memory::Table;

/// Rows fetched per simulated round trip during scans.
pub const SCAN_BATCH: u64 = 100;

/// A simulated foreign database server.
pub struct RemoteServer {
    name: String,
    tables: RwLock<HashMap<u64, Arc<Table>>>,
    next_table: AtomicU64,
    /// Record keys are synthesized per server, across its tables.
    next_key: Arc<AtomicU64>,
    round_trips: AtomicU64,
}

impl RemoteServer {
    fn new(name: &str) -> Arc<Self> {
        Arc::new(RemoteServer {
            name: name.to_string(),
            tables: RwLock::new(HashMap::new()),
            next_table: AtomicU64::new(0),
            next_key: Arc::default(),
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

    fn table(&self, id: u64) -> Result<Arc<Table>> {
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

    fn resolve(&self, rd: &RelationDescriptor) -> Result<(Arc<RemoteServer>, Arc<Table>)> {
        let (server, table) = decode_desc(&rd.sm_desc)?;
        let server = self.server(&server)?;
        let table = server.table(table)?;
        Ok((server, table))
    }
}

impl StorageMethod for ForeignStorage {
    fn name(&self) -> &str {
        "foreign"
    }

    fn create_instance(
        &self,
        _ctx: &ExecCtx<'_>,
        _schema: &Schema,
        params: &AttrList,
    ) -> Result<Vec<u8>> {
        params.check_allowed(&["server"], "foreign")?;
        let name = params.require("server", "foreign")?;
        let server = self.server(name)?;
        let table = server.next_table.fetch_add(1, Ordering::Relaxed) + 1;
        server
            .tables
            .write()
            .insert(table, Table::new(server.next_key.clone()));
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
        server.trip();
        table.insert(ctx, rd, record)
    }

    fn update(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        new: &Record,
    ) -> Result<(Record, RecordKey)> {
        let (server, table) = self.resolve(rd)?;
        server.trip(); // read the old record…
        let old = table.update(ctx, rd, key, new)?;
        server.trip(); // …write the new one
        Ok((old, key.clone()))
    }

    fn delete(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
    ) -> Result<Record> {
        let (server, table) = self.resolve(rd)?;
        server.trip(); // read the old record…
        let old = table.delete(ctx, rd, key)?;
        server.trip(); // …remove it
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
        table.fetch(ctx, key, fields, pred)
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
        let mut fetched_since_trip = 0u64;
        Ok(table.scan(range, pred, fields, move || {
            if fetched_since_trip.is_multiple_of(SCAN_BATCH) {
                server.trip(); // fetch the next remote batch
            }
            fetched_since_trip += 1;
        }))
    }

    fn estimate(&self, rd: &RelationDescriptor, preds: &[Expr]) -> PathChoice {
        let records = rd.stats.records();
        let mut c = PathChoice::full_scan(records, &rd.stats, preds);
        // model a round trip as ~4 page transfers of latency
        c.cost.io = (records / SCAN_BATCH + 1) as f64 * 4.0;
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
        match (dir, self.resolve(rd)) {
            // Compensating remote operations.
            (Replay::Undo(clr), Ok((server, table))) if clr.repeated().is_none() => {
                server.trip();
                table.undo(op, payload)
            }
            // The remote system keeps its own durable state: nothing to
            // redo, no compensation it has not already made, and nothing
            // to undo in a table it no longer has.
            _ => Ok(()),
        }
    }
}
