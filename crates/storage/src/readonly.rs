//! The read-only "database publishing" storage method.
//!
//! The paper motivates "special facilities to support (read-only)
//! optical disk database publishing applications": a write-once medium.
//! This storage method accepts *appends* (the publishing/load phase) and
//! direct/sequential reads, and rejects update and delete — demonstrating
//! that a storage method may support only a subset of the generic
//! operations by returning `Unsupported` (as ENCOMPASS did with its
//! restricted alternative storage). Records pack densely (no tombstone
//! reuse is ever needed) and scans are cheap.

use std::sync::Arc;

use dmx_core::{ExecCtx, KeyRange, PathChoice, RelationDescriptor, Replay, ScanOps, StorageMethod};
use dmx_expr::Expr;
use dmx_page::SlottedPage;
use dmx_types::PageId;
use dmx_types::{AttrList, DmxError, FieldId, Lsn, Record, RecordKey, Result, Schema, Value};

use crate::heap::{
    decode_file_desc, encode_file_desc, parse_rid, redo_page_op, rid, undo_page_op, RidScan,
};
use crate::util::{filter_project, log_change};

/// Page type tag for publishing pages.
pub const PAGE_TYPE_WORM: u8 = 4;

/// The write-once storage method singleton.
pub struct ReadOnlyStorage;

impl ReadOnlyStorage {
    fn unsupported(&self, op: &str) -> DmxError {
        DmxError::Unsupported(format!(
            "storage method '{}' is write-once: {op} not supported",
            self.name()
        ))
    }
}

impl StorageMethod for ReadOnlyStorage {
    fn name(&self) -> &str {
        "readonly"
    }

    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        _schema: &Schema,
        params: &AttrList,
    ) -> Result<Vec<u8>> {
        params.check_allowed(&[], "readonly")?;
        let file = ctx.services().disk.create_file()?;
        let pin = ctx.services().pool.new_page(file)?;
        let mut page = pin.format();
        SlottedPage::init(&mut page);
        page.set_page_type(PAGE_TYPE_WORM);
        Ok(encode_file_desc(file))
    }

    fn destroy_instance(
        &self,
        services: &Arc<dmx_core::CommonServices>,
        sm_desc: &[u8],
    ) -> Result<()> {
        let file = decode_file_desc(sm_desc)?;
        services.pool.discard_file(file);
        services.disk.delete_file(file)
    }

    fn storage_files(&self, sm_desc: &[u8]) -> Vec<dmx_types::FileId> {
        decode_file_desc(sm_desc)
            .map(|f| vec![f])
            .unwrap_or_default()
    }

    fn insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        record: &Record,
    ) -> Result<RecordKey> {
        let file = decode_file_desc(&rd.sm_desc)?;
        let bytes = record.encode();
        let (page_no, slot, new_page) = crate::heap::append_record(
            &ctx.services().pool,
            file,
            &bytes,
            PAGE_TYPE_WORM,
            |p, s| log_change(ctx, rd, &rid(p, s), None, Some(&bytes)),
        )?;
        if new_page {
            rd.stats.on_page_allocated();
        }
        Ok(rid(page_no, slot))
    }

    fn update(
        &self,
        _ctx: &ExecCtx<'_>,
        _rd: &RelationDescriptor,
        _key: &RecordKey,
        _old: &Record,
        _new: &Record,
    ) -> Result<RecordKey> {
        Err(self.unsupported("update"))
    }

    fn delete(
        &self,
        _ctx: &ExecCtx<'_>,
        _rd: &RelationDescriptor,
        _key: &RecordKey,
        _old: &Record,
    ) -> Result<()> {
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
        let file = decode_file_desc(&rd.sm_desc)?;
        let (page_no, slot) = parse_rid(key.as_bytes())?;
        let pin = match ctx.services().pool.fetch(PageId::new(file, page_no)) {
            Ok(p) => p,
            Err(DmxError::NotFound(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let page = pin.read();
        let Some(bytes) = SlottedPage::get(&page, slot) else {
            return Ok(None);
        };
        filter_project(&ctx.evaluator(), bytes, fields, pred)
    }

    fn open_scan(
        &self,
        _ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        range: KeyRange,
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
    ) -> Result<Box<dyn ScanOps>> {
        let file = decode_file_desc(&rd.sm_desc)?;
        Ok(RidScan::open(file, range, pred, fields))
    }

    fn estimate(&self, rd: &RelationDescriptor, preds: &[Expr]) -> PathChoice {
        let mut c = PathChoice::full_scan(rd.stats.records(), &rd.stats, preds);
        // dense packing: slightly cheaper per-record processing
        c.cost.cpu *= 0.5;
        c
    }

    fn replay(
        &self,
        services: &Arc<dmx_core::CommonServices>,
        rd: &RelationDescriptor,
        lsn: Lsn,
        dir: Replay<'_>,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        let file = decode_file_desc(&rd.sm_desc)?;
        match dir {
            // Only inserts exist; rollback of an aborted load tombstones
            // the appended record (an internal operation — the
            // *user-facing* delete remains unsupported).
            Replay::Undo(clr) => undo_page_op(services, file, lsn, clr, op, payload),
            // Write-once pages are never stolen, but no-force means a
            // committed load's pages may have missed disk entirely.
            Replay::Redo(at) => redo_page_op(services, file, PAGE_TYPE_WORM, at, op, payload),
        }
    }
}
