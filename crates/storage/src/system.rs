//! The system-relation storage method: observability as an extension.
//!
//! The paper's "database publishing" pattern (read-only storage methods
//! surfacing externally-managed data as relations) applies to the
//! engine's own runtime state: metrics, histograms, the catalog, the
//! lock table, the plan cache, the flight-recorder trace and incident
//! reports are all published as ordinary read-only `sys.*` relations.
//! Nothing in the query path special-cases them — `SELECT * FROM
//! sys.metrics` flows through the same planner, locking and scan
//! machinery as any user table; only this storage method knows the rows
//! come from `MetricsRegistry::snapshot()` instead of pages.
//!
//! Each `sys.*` relation's `sm_desc` is a single tag byte (defined with
//! the schemas in `dmx_core::sysrel`). Scans materialize a
//! deterministically-ordered row snapshot at open, so a scan observes
//! one consistent point in time and same-seed runs render byte-identical
//! output. Items are *not* storage-method record keys (the dispatcher
//! skips record locking and re-fetch), mirroring derived-item access
//! paths.

use std::collections::HashMap;
use std::sync::Arc;

use dmx_core::sysrel;
use dmx_core::{
    project_values, Database, ExecCtx, KeyRange, PathChoice, RelationDescriptor, Replay, ScanItem,
    ScanOps, StorageMethod, ASSIGNED_KEYS,
};
use dmx_expr::Expr;
use dmx_lock::LockName;
use dmx_types::{
    AttrList, DmxError, FieldId, Lsn, Record, RecordKey, RelationId, Result, Schema, Value,
};

/// The system-relation storage method singleton.
#[derive(Default)]
pub struct SystemStorage;

impl SystemStorage {
    fn unsupported(&self, op: &str) -> DmxError {
        DmxError::Unsupported(format!(
            "storage method '{}' publishes engine state: {op} not supported",
            self.name()
        ))
    }
}

fn decode_tag(sm_desc: &[u8]) -> Result<u8> {
    sm_desc
        .first()
        .copied()
        .ok_or_else(|| DmxError::Corrupt("empty system-relation descriptor".into()))
}

fn encode_row_key(index: usize) -> RecordKey {
    RecordKey::new((index as u64).to_be_bytes().to_vec())
}

fn decode_row_key(key: &RecordKey) -> Result<usize> {
    let bytes = key.as_bytes();
    let mut buf = [0u8; 8];
    if bytes.len() != buf.len() {
        return Err(DmxError::Corrupt("bad system-relation row key".into()));
    }
    buf.copy_from_slice(bytes);
    Ok(u64::from_be_bytes(buf) as usize)
}

fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

fn lock_name_str(n: &LockName) -> String {
    match n {
        LockName::Catalog => "catalog".to_string(),
        LockName::Relation(r) => format!("relation({})", r.0),
        LockName::Record(r, k) => format!("record({},{k})", r.0),
        LockName::Gap(r, k) => format!("gap({},{k})", r.0),
        LockName::File(f) => format!("file({})", f.0),
    }
}

/// Renders a statistics bound for `sys.statistics` (integers without a
/// decimal point, so same-seed snapshots are byte-stable).
fn stat_value_str(v: Option<&Value>) -> Value {
    match v {
        None => Value::Null,
        Some(Value::Int(i)) => s(i.to_string()),
        Some(Value::Float(f)) => s(format!("{f}")),
        Some(other) => s(format!("{other:?}")),
    }
}

/// Renders a maintained histogram as `lo..hi: c0,c1,…`.
fn render_histogram(h: &dmx_expr::Histogram) -> String {
    let counts: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
    format!("{}..{}: {}", h.lo, h.hi, counts.join(","))
}

/// Sorts rows lexicographically by `Value::total_cmp` over all columns,
/// giving published relations a deterministic presentation order.
fn sort_rows(rows: &mut [Vec<Value>]) {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or_else(|| a.len().cmp(&b.len()))
    });
}

/// Builds the full row set of one `sys.*` relation, in a deterministic
/// order (the natural sort order of its leading columns).
fn materialize(db: &Arc<Database>, tag: u8) -> Result<Vec<Vec<Value>>> {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    match tag {
        sysrel::TAG_METRICS => {
            let snap = db.metrics_snapshot();
            for (n, v) in &snap.counters {
                rows.push(vec![s(n.clone()), s("counter"), Value::Int(*v as i64)]);
            }
            for (n, v) in &snap.gauges {
                rows.push(vec![s(n.clone()), s("gauge"), Value::Int(*v)]);
            }
            for (n, h) in &snap.histograms {
                rows.push(vec![
                    s(n.clone()),
                    s("histogram_count"),
                    Value::Int(h.count as i64),
                ]);
                rows.push(vec![
                    s(n.clone()),
                    s("histogram_sum"),
                    Value::Int(h.sum as i64),
                ]);
            }
            // Trace-ring health: dropped telemetry must never be
            // invisible, so the eviction count rides along here even
            // though it is sink-local (not a registry metric).
            let trace = db.trace();
            rows.push(vec![
                s("trace.evicted"),
                s("counter"),
                Value::Int(trace.evicted() as i64),
            ]);
            rows.push(vec![
                s("trace.recorded"),
                s("counter"),
                Value::Int(trace.total_recorded() as i64),
            ]);
            sort_rows(&mut rows);
        }
        sysrel::TAG_HISTOGRAMS => {
            let snap = db.metrics_snapshot();
            for (n, h) in &snap.histograms {
                for (i, count) in h.buckets.iter().enumerate() {
                    // The overflow bucket (one past the last bound) has a
                    // NULL upper bound.
                    let bound = match h.bounds.get(i) {
                        Some(b) => Value::Int(*b as i64),
                        None => Value::Null,
                    };
                    rows.push(vec![
                        s(n.clone()),
                        Value::Int(i as i64),
                        bound,
                        Value::Int(*count as i64),
                    ]);
                }
            }
        }
        sysrel::TAG_RELATIONS => {
            let quarantined: HashMap<RelationId, String> = db.quarantined().into_iter().collect();
            for rd in db.catalog().list() {
                let sm_name = match db.registry().storage(rd.sm) {
                    Ok(sm) => sm.name().to_string(),
                    Err(_) => format!("unknown({})", rd.sm.0),
                };
                let (records, _, bytes) = rd.stats.snapshot();
                rows.push(vec![
                    Value::Int(rd.id.0 as i64),
                    s(rd.name.clone()),
                    s(sm_name),
                    Value::Int(records as i64),
                    Value::Int(rd.stats.pages() as i64),
                    Value::Int(bytes as i64),
                    Value::Int(rd.attachment_count() as i64),
                    match quarantined.get(&rd.id) {
                        Some(reason) => s(reason.clone()),
                        None => Value::Null,
                    },
                ]);
            }
        }
        sysrel::TAG_ATTACHMENTS => {
            for rd in db.catalog().list() {
                for (att_id, insts) in rd.attached_types() {
                    let type_name = match db.registry().attachment(att_id) {
                        Ok(att) => att.name().to_string(),
                        Err(_) => format!("unknown({})", att_id.0),
                    };
                    for inst in insts {
                        let params = inst.attrs()?.without(&ASSIGNED_KEYS);
                        rows.push(vec![
                            s(rd.name.clone()),
                            s(type_name.clone()),
                            Value::Int(inst.instance.0 as i64),
                            s(inst.name.clone()),
                            s(params.to_string()),
                        ]);
                    }
                }
            }
            sort_rows(&mut rows);
        }
        sysrel::TAG_LOCKS => {
            for lr in db.services().locks.dump() {
                rows.push(vec![
                    s(lock_name_str(&lr.name)),
                    Value::Int(lr.txn.0 as i64),
                    s(format!("{:?}", lr.mode)),
                    s(if lr.waiting { "waiting" } else { "held" }),
                ]);
            }
        }
        sysrel::TAG_PLAN_CACHE => {
            if let Some(provider) = db.sys_provider("sys.plan_cache") {
                rows = provider(db);
            }
        }
        sysrel::TAG_TRACE => {
            for (seq, e) in db.trace().drain_numbered() {
                rows.push(vec![
                    Value::Int(seq as i64),
                    s(e.layer),
                    s(e.op),
                    Value::Int(e.target as i64),
                    Value::Int(e.detail as i64),
                ]);
            }
        }
        sysrel::TAG_INCIDENTS => {
            // Bounded ring of the most recent reports; the incident
            // number is monotone across evictions, so consumers can see
            // gaps where `incidents.evicted` truncated history.
            for (number, report) in db.incidents() {
                let n = Value::Int(number as i64);
                rows.push(vec![
                    n.clone(),
                    s("relation"),
                    s(format!("{}", report.relation.0)),
                ]);
                rows.push(vec![n.clone(), s("reason"), s(report.reason.clone())]);
                for (i, e) in report.events.iter().enumerate() {
                    rows.push(vec![
                        n.clone(),
                        s(format!("event.{i:04}")),
                        s(format!(
                            "{} {} target={} detail={}",
                            e.layer, e.op, e.target, e.detail
                        )),
                    ]);
                }
                rows.push(vec![n, s("metrics"), s(report.metrics.to_json())]);
            }
        }
        sysrel::TAG_REPAIRS => {
            for (i, r) in db.repairs().iter().enumerate() {
                rows.push(vec![
                    Value::Int(i as i64),
                    s(r.name.clone()),
                    s(r.action.as_str()),
                    s(if r.healthy { "healthy" } else { "terminal" }),
                    Value::Int(r.attempts as i64),
                    Value::Int(r.records_recovered as i64),
                    Value::Int(r.records_lost as i64),
                    s(r.detail.clone()),
                ]);
            }
        }
        sysrel::TAG_STATISTICS => {
            // The statistics attachment's live planner snapshots, one
            // row per relation ("*" summary) plus one per tracked field.
            for rd in db.catalog().list() {
                let Some(ts) = rd.stats.table_stats() else {
                    continue;
                };
                let rows_val = Value::Int(ts.rows as i64);
                rows.push(vec![
                    s(rd.name.clone()),
                    s("*"),
                    rows_val.clone(),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ]);
                for (i, cs) in ts.columns.iter().enumerate() {
                    let Some(cs) = cs else { continue };
                    let field = match rd.schema.column(i as FieldId) {
                        Ok(c) => c.name.clone(),
                        Err(_) => format!("field{i}"),
                    };
                    rows.push(vec![
                        s(rd.name.clone()),
                        s(field),
                        rows_val.clone(),
                        Value::Int(cs.nulls as i64),
                        Value::Int(cs.distinct as i64),
                        stat_value_str(cs.min.as_ref()),
                        stat_value_str(cs.max.as_ref()),
                        match &cs.histogram {
                            None => Value::Null,
                            Some(h) => s(render_histogram(h)),
                        },
                    ]);
                }
            }
            sort_rows(&mut rows);
        }
        other => {
            return Err(DmxError::Corrupt(format!(
                "unknown system-relation tag {other}"
            )))
        }
    }
    Ok(rows)
}

impl StorageMethod for SystemStorage {
    fn name(&self) -> &str {
        sysrel::SM_NAME
    }

    /// `sys.*` relations are published by the engine at open; user DDL
    /// cannot create instances of this storage method.
    fn create_instance(
        &self,
        _ctx: &ExecCtx<'_>,
        _schema: &Schema,
        _params: &AttrList,
    ) -> Result<Vec<u8>> {
        Err(self.unsupported("create"))
    }

    fn destroy_instance(
        &self,
        _services: &Arc<dmx_core::CommonServices>,
        _sm_desc: &[u8],
    ) -> Result<()> {
        // No physical storage to release.
        Ok(())
    }

    fn insert(
        &self,
        _ctx: &ExecCtx<'_>,
        _rd: &RelationDescriptor,
        _record: &Record,
    ) -> Result<RecordKey> {
        Err(self.unsupported("insert"))
    }

    fn update(
        &self,
        _ctx: &ExecCtx<'_>,
        _rd: &RelationDescriptor,
        _key: &RecordKey,
        _new: &Record,
    ) -> Result<(Record, RecordKey)> {
        Err(self.unsupported("update"))
    }

    fn delete(
        &self,
        _ctx: &ExecCtx<'_>,
        _rd: &RelationDescriptor,
        _key: &RecordKey,
    ) -> Result<Record> {
        Err(self.unsupported("delete"))
    }

    fn fetch(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        fields: Option<&[FieldId]>,
        pred: Option<&Expr>,
    ) -> Result<Option<Vec<Value>>> {
        let rows = materialize(ctx.db, decode_tag(&rd.sm_desc)?)?;
        let Some(row) = rows.get(decode_row_key(key)?) else {
            return Ok(None);
        };
        if let Some(p) = pred {
            if !ctx.eval_predicate(p, row)? {
                return Ok(None);
            }
        }
        project_values(row, fields).map(Some)
    }

    fn open_scan(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        range: KeyRange,
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
    ) -> Result<Box<dyn ScanOps>> {
        Ok(Box::new(SysScan {
            rows: materialize(ctx.db, decode_tag(&rd.sm_desc)?)?,
            range,
            pred,
            fields,
            next: 0,
        }))
    }

    fn estimate(&self, rd: &RelationDescriptor, preds: &[Expr]) -> PathChoice {
        // Stats are never maintained for published state; assume a small
        // in-memory relation (one "page", a nominal row count).
        let mut c = PathChoice::full_scan(rd.stats.records().max(32), &rd.stats, preds);
        c.cost.io = 1.0;
        c
    }

    fn replay(
        &self,
        _services: &Arc<dmx_core::CommonServices>,
        _rd: &RelationDescriptor,
        _lsn: Lsn,
        _dir: Replay<'_>,
        _op: u8,
        _payload: &[u8],
    ) -> Result<()> {
        // Read-only: nothing is ever logged.
        Ok(())
    }

    fn is_recoverable(&self) -> bool {
        // Published relations are re-created at every open and never
        // stored in the catalog.
        false
    }
}

/// Scan over a materialized row snapshot; the position is the index of
/// the next row.
struct SysScan {
    rows: Vec<Vec<Value>>,
    range: KeyRange,
    pred: Option<Expr>,
    fields: Option<Vec<FieldId>>,
    next: usize,
}

impl ScanOps for SysScan {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>> {
        while self.next < self.rows.len() {
            let index = self.next;
            self.next += 1;
            let key = encode_row_key(index);
            if !self.range.contains(key.as_bytes()) {
                continue;
            }
            let Some(row) = self.rows.get(index) else {
                break;
            };
            if let Some(p) = self.pred.as_ref() {
                if !ctx.eval_predicate(p, row)? {
                    continue;
                }
            }
            let values = project_values(row, self.fields.as_deref())?;
            return Ok(Some(ScanItem {
                key,
                values: Some(values),
            }));
        }
        Ok(None)
    }

    fn save_position(&self) -> Vec<u8> {
        (self.next as u64).to_be_bytes().to_vec()
    }

    fn restore_position(&mut self, pos: &[u8]) -> Result<()> {
        let mut buf = [0u8; 8];
        if pos.len() != buf.len() {
            return Err(DmxError::Corrupt("bad scan position".into()));
        }
        buf.copy_from_slice(pos);
        self.next = u64::from_be_bytes(buf) as usize;
        Ok(())
    }

    fn items_are_record_keys(&self) -> bool {
        // Rows are derived from engine state, not stored records: the
        // dispatcher must not record-lock or re-fetch them.
        false
    }
}
