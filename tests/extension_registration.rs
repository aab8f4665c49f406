//! Figure 2 / F2: the generic data management interfaces are complete
//! enough that a **new extension written entirely outside the library**
//! plugs in through the public API alone — the architecture's headline
//! claim ("the key to supporting data management extensions is to define
//! generic abstractions for relation storage and access, and to view
//! extensions as alternative implementations of the generic
//! abstractions").
//!
//! We implement, from scratch in this test file:
//!  * `vecstore` — a storage method keeping records in an in-memory Vec
//!    (with logical undo, scans, cost estimation, DDL attribute
//!    validation), and
//!  * `audit_count` — an attachment counting modifications per relation,
//!    vetoing when a quota is exceeded, and
//!  * `lookup` — an access path on one field that answers `field = $n`
//!    with a lookup by key, and so serves as the inner side of a join,
//!
//! then drive them through DDL, DML, SQL, veto rollback and abort — all
//! coordinated by the common services, none of which know these types.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use std::sync::RwLock;

use starburst_dmx::core::{
    Attachment, AttachmentInstance, CommonServices, Cost, Database, ExecCtx, KeyRange,
    Modification, PathChoice, RelationDescriptor, Replay, ScanItem, ScanOps, StorageMethod,
};
use starburst_dmx::expr::{sargable, Expr, Sarg, SargOp};
use starburst_dmx::prelude::*;
use starburst_dmx::wal::ExtKind;

// ----------------------------------------------------------------------
// the storage method
// ----------------------------------------------------------------------

type VecTable = Arc<RwLock<Vec<Option<Record>>>>;

#[derive(Default)]
struct VecStore {
    tables: RwLock<HashMap<u64, VecTable>>,
    next: AtomicU64,
}

fn token(desc: &[u8]) -> u64 {
    u64::from_le_bytes(desc[..8].try_into().unwrap())
}

fn key_of(idx: usize) -> RecordKey {
    RecordKey::new((idx as u64).to_be_bytes().to_vec())
}

fn idx_of(key: &RecordKey) -> usize {
    u64::from_be_bytes(key.as_bytes().try_into().unwrap()) as usize
}

const OP_INS: u8 = 1;
const OP_DEL: u8 = 2;
const OP_UPD: u8 = 3;

impl VecStore {
    fn table(&self, rd: &RelationDescriptor) -> Arc<RwLock<Vec<Option<Record>>>> {
        self.tables.read().unwrap()[&token(&rd.sm_desc)].clone()
    }
}

impl StorageMethod for VecStore {
    fn name(&self) -> &str {
        "vecstore"
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
        params.check_allowed(&["capacity"], "vecstore")?;
        let cap = params.get_u64("capacity", 16)? as usize;
        let t = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        self.tables
            .write()
            .unwrap()
            .insert(t, Arc::new(RwLock::new(Vec::with_capacity(cap))));
        Ok(t.to_le_bytes().to_vec())
    }
    fn destroy_instance(&self, _s: &Arc<CommonServices>, desc: &[u8]) -> Result<()> {
        self.tables.write().unwrap().remove(&token(desc));
        Ok(())
    }
    fn insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        record: &Record,
    ) -> Result<RecordKey> {
        let t = self.table(rd);
        let mut rows = t.write().unwrap();
        rows.push(Some(record.clone()));
        let key = key_of(rows.len() - 1);
        ctx.log_ext_op(
            ExtKind::Storage(rd.sm),
            rd.id,
            OP_INS,
            key.as_bytes().to_vec(),
        );
        Ok(key)
    }
    fn update(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        new: &Record,
    ) -> Result<(Record, RecordKey)> {
        let t = self.table(rd);
        let mut rows = t.write().unwrap();
        let slot = rows
            .get_mut(idx_of(key))
            .and_then(|o| o.as_mut())
            .ok_or_else(|| DmxError::NotFound("vecstore record".into()))?;
        let old = slot.clone();
        *slot = new.clone();
        let mut payload = key.as_bytes().to_vec();
        payload.extend_from_slice(&old.encode());
        ctx.log_ext_op(ExtKind::Storage(rd.sm), rd.id, OP_UPD, payload);
        Ok((old, key.clone()))
    }
    fn delete(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
    ) -> Result<Record> {
        let t = self.table(rd);
        let mut rows = t.write().unwrap();
        let slot = rows
            .get_mut(idx_of(key))
            .ok_or_else(|| DmxError::NotFound("vecstore record".into()))?;
        let old = slot
            .take()
            .ok_or_else(|| DmxError::NotFound("vecstore record".into()))?;
        let mut payload = key.as_bytes().to_vec();
        payload.extend_from_slice(&old.encode());
        ctx.log_ext_op(ExtKind::Storage(rd.sm), rd.id, OP_DEL, payload);
        Ok(old)
    }
    fn fetch(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        fields: Option<&[dmx_types::FieldId]>,
        pred: Option<&Expr>,
    ) -> Result<Option<Vec<Value>>> {
        let t = self.table(rd);
        let rows = t.read().unwrap();
        let Some(Some(rec)) = rows.get(idx_of(key)) else {
            return Ok(None);
        };
        if let Some(p) = pred {
            if !ctx.eval_predicate(p, &rec.values)? {
                return Ok(None);
            }
        }
        Ok(Some(match fields {
            None => rec.values.clone(),
            Some(ids) => ids
                .iter()
                .map(|&i| rec.values[i as usize].clone())
                .collect(),
        }))
    }
    fn open_scan(
        &self,
        _ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        _range: KeyRange,
        pred: Option<Expr>,
        fields: Option<Vec<dmx_types::FieldId>>,
    ) -> Result<Box<dyn ScanOps>> {
        Ok(Box::new(VecScan {
            table: self.table(rd),
            pred,
            fields,
            next: 0,
        }))
    }
    fn estimate(&self, rd: &RelationDescriptor, preds: &[Expr]) -> PathChoice {
        let mut c = PathChoice::full_scan(rd.stats.records(), &rd.stats, preds);
        c.cost.io = 0.0;
        c
    }
    fn replay(
        &self,
        _s: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        _lsn: dmx_types::Lsn,
        dir: Replay<'_>,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        if !matches!(dir, Replay::Undo(clr) if clr.repeated().is_none()) {
            // volatile: nothing survives a restart to redo into or to
            // compensate again
            return Ok(());
        }
        let Some(t) = self
            .tables
            .read()
            .unwrap()
            .get(&token(&rd.sm_desc))
            .cloned()
        else {
            return Ok(());
        };
        let mut rows = t.write().unwrap();
        let idx = idx_of(&RecordKey::new(payload[..8].to_vec()));
        match op {
            OP_INS => {
                if let Some(slot) = rows.get_mut(idx) {
                    *slot = None;
                }
            }
            OP_DEL | OP_UPD => {
                let old = Record::decode(&payload[8..])?;
                while rows.len() <= idx {
                    rows.push(None);
                }
                rows[idx] = Some(old);
            }
            _ => return Err(DmxError::Corrupt("bad vecstore op".into())),
        }
        Ok(())
    }
}

struct VecScan {
    table: Arc<RwLock<Vec<Option<Record>>>>,
    pred: Option<Expr>,
    fields: Option<Vec<dmx_types::FieldId>>,
    next: usize,
}

impl ScanOps for VecScan {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>> {
        loop {
            let rec = {
                let rows = self.table.read().unwrap();
                if self.next >= rows.len() {
                    return Ok(None);
                }
                rows[self.next].clone()
            };
            let idx = self.next;
            self.next += 1;
            let Some(rec) = rec else { continue };
            if let Some(p) = &self.pred {
                if !ctx.eval_predicate(p, &rec.values)? {
                    continue;
                }
            }
            let values = match &self.fields {
                None => rec.values.clone(),
                Some(ids) => ids
                    .iter()
                    .map(|&i| rec.values[i as usize].clone())
                    .collect(),
            };
            return Ok(Some(ScanItem {
                key: key_of(idx),
                values: Some(values),
            }));
        }
    }
    fn save_position(&self) -> Vec<u8> {
        (self.next as u64).to_le_bytes().to_vec()
    }
    fn restore_position(&mut self, pos: &[u8]) -> Result<()> {
        self.next = u64::from_le_bytes(pos.try_into().unwrap()) as usize;
        Ok(())
    }
}

// ----------------------------------------------------------------------
// the attachment: per-relation modification quota
// ----------------------------------------------------------------------

#[derive(Default)]
struct QuotaGuard {
    counts: RwLock<HashMap<RelationId, u64>>,
    invocations: AtomicU64,
    /// Calls of its parser, [`QuotaGuard::quota`].
    parses: AtomicU64,
}

impl QuotaGuard {
    /// The one parser: the `quota` attribute.
    fn quota(&self, attrs: &AttrList) -> Result<u64> {
        self.parses.fetch_add(1, Ordering::SeqCst);
        attrs.check_allowed(&["quota"], "audit_count")?;
        attrs.get_u64("quota", u64::MAX)
    }
}

fn find_self(rd: &RelationDescriptor) -> dmx_types::AttTypeId {
    rd.attached_types()
        .find(|(_, insts)| !insts.is_empty())
        .map(|(t, _)| t)
        .unwrap_or_default()
}

impl Attachment for QuotaGuard {
    fn name(&self) -> &str {
        "audit_count"
    }
    fn create_instance(
        &self,
        _ctx: &ExecCtx<'_>,
        _rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<AttrList> {
        self.quota(params)?;
        Ok(params.clone())
    }
    /// Every modification counts the same, whichever sides it has.
    fn on_modify(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        insts: &[AttachmentInstance],
        _m: &Modification<'_>,
    ) -> Result<()> {
        self.invocations.fetch_add(1, Ordering::SeqCst);
        let mut quota = u64::MAX;
        for inst in insts {
            quota = quota.min(*inst.parsed(|attrs| self.quota(attrs))?);
        }
        let mut counts = self.counts.write().unwrap();
        let n = counts.entry(rd.id).or_insert(0);
        if *n >= quota {
            return Err(DmxError::veto("audit_count", "modification quota exceeded"));
        }
        *n += 1;
        // log so rollback restores the count
        ctx.log_ext_op(ExtKind::Attachment(find_self(rd)), rd.id, 1, Vec::new());
        Ok(())
    }
    /// Its own record shape (an empty payload, not a tree change), so
    /// its own replay.
    fn replay(
        &self,
        _s: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        _lsn: dmx_types::Lsn,
        dir: Replay<'_>,
        _op: u8,
        _payload: &[u8],
    ) -> Result<()> {
        if !matches!(dir, Replay::Undo(clr) if clr.repeated().is_none()) {
            return Ok(()); // the counter is volatile
        }
        let mut counts = self.counts.write().unwrap();
        if let Some(n) = counts.get_mut(&rd.id) {
            *n = n.saturating_sub(1);
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// the access path: one field, looked up by key
// ----------------------------------------------------------------------

/// `(instance token, encoded field value, record key)` entries, in memory
/// and unlogged (nothing here rolls a write to an indexed relation back).
#[derive(Default)]
struct Lookup {
    entries: RwLock<BTreeSet<(u64, Vec<u8>, RecordKey)>>,
    next: AtomicU64,
}

/// An instance: the token `create_instance` gave it, and its field.
struct LookupDesc {
    token: u64,
    field: dmx_types::FieldId,
}

impl LookupDesc {
    /// The one parser of a stored list: `field` from the DDL, `token`
    /// added at CREATE.
    fn from_attrs(rd: &RelationDescriptor, attrs: &AttrList) -> Result<LookupDesc> {
        attrs.check_allowed(&["field", "token"], "lookup")?;
        Ok(LookupDesc {
            token: attrs.get_u64("token", 0)?,
            field: rd.schema.field_id(attrs.require("field", "lookup")?)?,
        })
    }

    fn of(rd: &RelationDescriptor, inst: &AttachmentInstance) -> Result<Arc<LookupDesc>> {
        inst.parsed(|attrs| Self::from_attrs(rd, attrs))
    }
}

impl Attachment for Lookup {
    fn name(&self) -> &str {
        "lookup"
    }
    fn create_instance(
        &self,
        _ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<AttrList> {
        params.check_allowed(&["field"], "lookup")?;
        LookupDesc::from_attrs(rd, params)?;
        let mut attrs = params.clone();
        attrs.push(
            "token",
            self.next.fetch_add(1, Ordering::SeqCst).to_string(),
        )?;
        Ok(attrs)
    }
    fn destroy_instance(&self, _s: &Arc<CommonServices>, desc: &[u8]) -> Result<()> {
        let token = AttrList::decode(desc)?.get_u64("token", 0)?;
        let mut entries = self.entries.write().unwrap();
        entries.retain(|(t, ..)| *t != token);
        Ok(())
    }
    /// Old side's entry out, new side's entry in.
    fn on_modify(
        &self,
        _ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        insts: &[AttachmentInstance],
        m: &Modification<'_>,
    ) -> Result<()> {
        let mut entries = self.entries.write().unwrap();
        for inst in insts {
            let d = LookupDesc::of(rd, inst)?;
            let entry = |(key, rec): (&RecordKey, &Record)| {
                let value = &rec.values[d.field as usize];
                let value = dmx_types::key::encode_values(std::slice::from_ref(value));
                (d.token, value, key.clone())
            };
            if let Some(old) = m.old() {
                entries.remove(&entry(old));
            }
            if let Some(new) = m.new() {
                entries.insert(entry(new));
            }
        }
        Ok(())
    }
    /// Only a lookup by key: the record keys filed under the value.
    fn open_scan(
        &self,
        _ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        inst: &AttachmentInstance,
        query: &AccessQuery,
    ) -> Result<Box<dyn ScanOps>> {
        let AccessQuery::KeyEquals(value) = query else {
            return Err(DmxError::Unsupported("lookup: only key lookups".into()));
        };
        let token = LookupDesc::of(rd, inst)?.token;
        let entries = self.entries.read().unwrap();
        let keys = entries
            .iter()
            .filter(|(t, v, _)| *t == token && v == value)
            .map(|(.., key)| key.clone())
            .collect();
        Ok(Box::new(KeyList { keys, next: 0 }))
    }
    /// Relevant to `field = $n` alone, answered with a lookup of the
    /// value bound at open; the planner needs no more to probe it.
    fn estimate(
        &self,
        rd: &RelationDescriptor,
        inst: &AttachmentInstance,
        preds: &[Expr],
    ) -> Option<PathChoice> {
        let d = LookupDesc::of(rd, inst).ok()?;
        let (pred, n) = preds.iter().find_map(|p| match sargable(p)? {
            Sarg {
                field,
                op: SargOp::EqParam(n),
            } if field == d.field => Some((p, n)),
            _ => None,
        })?;
        Some(PathChoice {
            path: AccessPath::Attachment(inst.att, inst.instance),
            query: AccessQuery::KeyEqualsParam(n),
            cost: Cost::new(1.0, 1.0),
            rows_out: 1.0,
            covered: None,
            applied: vec![pred.clone()],
            ordering: None,
        })
    }
}

struct KeyList {
    keys: Vec<RecordKey>,
    next: usize,
}

impl ScanOps for KeyList {
    fn next(&mut self, _ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>> {
        let key = self.keys.get(self.next).cloned();
        self.next += 1;
        Ok(key.map(|key| ScanItem { key, values: None }))
    }
    fn save_position(&self) -> Vec<u8> {
        (self.next as u64).to_le_bytes().to_vec()
    }
    fn restore_position(&mut self, pos: &[u8]) -> Result<()> {
        self.next = u64::from_le_bytes(pos.try_into().unwrap()) as usize;
        Ok(())
    }
}

// ----------------------------------------------------------------------

fn open_with_externals() -> (Arc<Database>, Arc<QuotaGuard>) {
    let reg = starburst_dmx::core::ExtensionRegistry::new();
    starburst_dmx::storage::register_builtin_storage(&reg).unwrap();
    starburst_dmx::attach::register_builtin_attachments(&reg).unwrap();
    // the externally-defined extensions register like any factory ones
    reg.register_storage_method(Arc::new(VecStore::default()))
        .unwrap();
    let guard = Arc::new(QuotaGuard::default());
    reg.register_attachment(guard.clone()).unwrap();
    reg.register_attachment(Arc::new(Lookup::default()))
        .unwrap();
    (Database::open_fresh(reg).unwrap(), guard)
}

#[test]
fn user_defined_storage_method_speaks_full_sql() {
    let (db, _) = open_with_externals();
    db.execute_sql(
        "CREATE TABLE v (id INT NOT NULL, name STRING) USING vecstore WITH (capacity = 8)",
    )
    .unwrap();
    for i in 0..20 {
        db.execute_sql(&format!("INSERT INTO v VALUES ({i}, 'n{i}')"))
            .unwrap();
    }
    // predicates are pushed into the user-defined storage method's scan
    let rows = db
        .query_sql("SELECT name FROM v WHERE id % 2 = 0 AND id < 10 ORDER BY name")
        .unwrap();
    assert_eq!(rows.len(), 5);
    db.execute_sql("UPDATE v SET name = 'even' WHERE id % 2 = 0")
        .unwrap();
    db.execute_sql("DELETE FROM v WHERE id >= 10").unwrap();
    assert_eq!(
        db.query_sql("SELECT COUNT(*) FROM v WHERE name = 'even'")
            .unwrap()[0][0],
        Value::Int(5)
    );
    // bad DDL attribute rejected by the extension's create_instance
    assert!(db
        .execute_sql("CREATE TABLE w (x INT) USING vecstore WITH (color = red)")
        .is_err());
}

#[test]
fn user_defined_storage_method_honors_rollback() {
    let (db, _) = open_with_externals();
    db.execute_sql("CREATE TABLE v (id INT NOT NULL) USING vecstore")
        .unwrap();
    db.execute_sql("INSERT INTO v VALUES (1)").unwrap();
    let sess = Session::new(db.clone());
    sess.execute("BEGIN").unwrap();
    sess.execute("INSERT INTO v VALUES (2)").unwrap();
    sess.execute("UPDATE v SET id = 99 WHERE id = 1").unwrap();
    sess.execute("SAVEPOINT sp").unwrap();
    sess.execute("DELETE FROM v").unwrap();
    sess.execute("ROLLBACK TO SAVEPOINT sp").unwrap();
    assert_eq!(
        sess.execute("SELECT COUNT(*) FROM v").unwrap().rows[0][0],
        Value::Int(2),
        "partial rollback drove the external extension's undo"
    );
    sess.execute("ROLLBACK").unwrap();
    let rows = db.query_sql("SELECT id FROM v").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1)]], "full rollback too");
}

#[test]
fn user_defined_attachment_vetoes_and_counts_once_per_modification() {
    let (db, guard) = open_with_externals();
    db.execute_sql("CREATE TABLE t (x INT NOT NULL)").unwrap();
    // two instances of the type; quota = min(3, 100) = 3
    db.execute_sql("CREATE ATTACHMENT g1 ON t USING audit_count WITH (quota = 3)")
        .unwrap();
    db.execute_sql("CREATE ATTACHMENT g2 ON t USING audit_count WITH (quota = 100)")
        .unwrap();
    for i in 0..3 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
    }
    assert_eq!(
        guard.invocations.load(Ordering::SeqCst),
        3,
        "invoked once per modification, servicing both instances"
    );
    let err = db.execute_sql("INSERT INTO t VALUES (99)").unwrap_err();
    assert!(matches!(err, DmxError::Veto { .. }));
    // the vetoed insert was rolled back out of the heap
    assert_eq!(
        db.query_sql("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(3)
    );
}

#[test]
fn user_extensions_compose_with_builtins() {
    // external storage + built-in check constraint + built-in trigger
    let (db, _) = open_with_externals();
    db.execute_sql(
        "CREATE TABLE audit (event STRING NOT NULL, relation STRING NOT NULL, info STRING)",
    )
    .unwrap();
    db.execute_sql("CREATE TABLE v (id INT NOT NULL) USING vecstore")
        .unwrap();
    db.execute_sql("CREATE CONSTRAINT pos ON v CHECK (id >= 0)")
        .unwrap();
    db.execute_sql(
        "CREATE ATTACHMENT aud ON v USING trigger WITH (on = insert, action = 'audit:audit')",
    )
    .unwrap();
    db.execute_sql("INSERT INTO v VALUES (5)").unwrap();
    assert!(db.execute_sql("INSERT INTO v VALUES (-5)").is_err());
    assert_eq!(
        db.query_sql("SELECT COUNT(*) FROM audit").unwrap()[0][0],
        Value::Int(1),
        "trigger fired for the accepted insert only (vetoed one rolled back)"
    );
}

#[test]
fn user_defined_access_path_is_probed_as_a_join_inner() {
    let (db, _) = open_with_externals();
    db.execute_sql("CREATE TABLE o (id INT NOT NULL, g INT)")
        .unwrap();
    db.execute_sql("INSERT INTO o VALUES (1, 7), (2, NULL), (3, 8), (4, 99), (5, 7)")
        .unwrap();
    db.execute_sql("CREATE TABLE i (f INT, tag INT NOT NULL)")
        .unwrap();
    db.execute_sql("INSERT INTO i VALUES (7, 70), (8, 80), (9, 90), (7, 71), (NULL, 0)")
        .unwrap();
    let q = "SELECT o.id, i.tag FROM o, i WHERE o.g = i.f ORDER BY 1, 2";
    let nested_loop = db.query_sql(q).unwrap();
    assert_eq!(nested_loop.len(), 5);

    // existing records are built in through the default `build`, which
    // drives `on_modify`
    db.execute_sql("CREATE ATTACHMENT by_f ON i USING lookup WITH (field = f)")
        .unwrap();
    let plan = format!("{:?}", db.query_sql(&format!("EXPLAIN {q}")).unwrap());
    assert!(
        plan.contains("Access i via attachment") && plan.contains("[probe]"),
        "{plan}"
    );
    let counts = || {
        let m = db.metrics_snapshot();
        (m.counter("att.probes"), m.counter("scan.opens"))
    };
    let before = counts();
    assert_eq!(db.query_sql(q).unwrap(), nested_loop);
    let (probes, opens) = counts();
    assert_eq!(probes - before.0, 4, "one per non-NULL outer value");
    // `KeyList` has the defaulted `rebind`: the join closes it and opens
    // another per outer value, as it always did
    assert_eq!(opens - before.1, 1 + 4);
}

/// An instance's stored attribute list is parsed once per catalog
/// version: a thousand single-row inserts read the value the first one
/// parsed, and a DDL on the relation makes the next write parse once
/// more.
#[test]
fn an_instance_is_parsed_once_per_catalog_version() {
    let (db, guard) = open_with_externals();
    db.execute_sql("CREATE TABLE q (id INT NOT NULL, v INT)")
        .unwrap();
    db.execute_sql("CREATE ATTACHMENT qg ON q USING audit_count")
        .unwrap();
    let parses = || guard.parses.load(Ordering::SeqCst);
    let created = parses(); // create_instance validates its DDL list
    for i in 0..1_000 {
        db.execute_sql(&format!("INSERT INTO q VALUES ({i}, {i})"))
            .unwrap();
    }
    assert_eq!(parses() - created, 1, "parsed by the first insert alone");
    db.execute_sql("CREATE INDEX q_v ON q (v)").unwrap();
    db.execute_sql("INSERT INTO q VALUES (1000, 1000)").unwrap();
    db.execute_sql("INSERT INTO q VALUES (1001, 1001)").unwrap();
    assert_eq!(parses() - created, 2, "once more for the new version");
}

/// `Database::register_function` reaches SQL: a registered function
/// filters a `SELECT`, and a CHECK constraint's predicate, parsed once
/// with its instance, vetoes an INSERT through it.
#[test]
fn a_registered_function_filters_a_select_and_vetoes_an_insert() {
    let db = starburst_dmx::open_default().unwrap();
    db.register_function("half", |args| match args {
        [Value::Int(v)] => Ok(Value::Int(v / 2)),
        _ => Err(DmxError::InvalidArg("half takes one INT".into())),
    });
    db.execute_sql("CREATE TABLE f (id INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    db.execute_sql("INSERT INTO f VALUES (1, 4), (2, 5), (3, 8)")
        .unwrap();
    let rows = db
        .query_sql("SELECT id FROM f WHERE half(v) = 2 ORDER BY id")
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);

    db.execute_sql("CREATE CONSTRAINT small ON f CHECK (half(v) < 10)")
        .unwrap();
    db.execute_sql("INSERT INTO f VALUES (4, 19)").unwrap();
    let err = db.execute_sql("INSERT INTO f VALUES (5, 20)").unwrap_err();
    assert!(matches!(err, DmxError::Veto { .. }), "{err}");
    let count = db.query_sql("SELECT COUNT(*) FROM f").unwrap();
    assert_eq!(count[0][0], Value::Int(4));
}

/// The keys the engine assigns at CREATE — a tree's `file` and `root`,
/// a constraint's resolved `relation` — cannot come from DDL: each type
/// refuses each of them with `InvalidArg`, before it allocates a file,
/// and takes the same DDL without them.
#[test]
fn ddl_cannot_forge_an_assigned_key() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT, area RECT)")
        .unwrap();
    db.execute_sql("CREATE TABLE p (id INT NOT NULL)").unwrap();
    let ddl = [
        "CREATE INDEX t_b ON t USING btree (v) WITH (unique = false",
        "CREATE INDEX t_h ON t USING hash (v) WITH (fields = v",
        "CREATE INDEX t_r ON t USING rtree (area) WITH (fields = area",
        "CREATE ATTACHMENT t_a ON t USING aggregate WITH (sum = v",
        "CREATE ATTACHMENT t_j ON t USING joinindex WITH (side = left, fields = v",
        "CREATE ATTACHMENT t_f ON t USING refint WITH (role = child, fields = v, other = p, \
         other_fields = id",
    ];
    let created = || {
        db.services()
            .disk
            .stats()
            .files_created
            .load(Ordering::SeqCst)
    };
    let before = created();
    for key in ["file", "root", "relation"] {
        for stmt in ddl {
            let res = db.execute_sql(&format!("{stmt}, {key} = 1)"));
            assert!(
                matches!(res, Err(DmxError::InvalidArg(_))),
                "{stmt}: {res:?}"
            );
        }
        let res = db.execute_sql(&format!(
            "CREATE ATTACHMENT t_s ON t USING stats WITH ({key} = 1)"
        ));
        assert!(
            matches!(res, Err(DmxError::InvalidArg(_))),
            "stats: {res:?}"
        );
    }
    let res = db.execute_sql("CREATE INDEX t_b ON t (v) WITH (file = 1, root = 0)");
    assert!(matches!(res, Err(DmxError::InvalidArg(_))), "{res:?}");
    assert_eq!(created(), before, "no file allocated");
    assert_eq!(db.catalog().get_by_name("t").unwrap().attachment_count(), 0);

    for stmt in ddl {
        db.execute_sql(&format!("{stmt})")).unwrap();
    }
    db.execute_sql("CREATE ATTACHMENT t_s ON t USING stats")
        .unwrap();
    assert_eq!(db.catalog().get_by_name("t").unwrap().attachment_count(), 7);
}
