//! The heap storage method: slotted pages, RID record keys.
//!
//! Record keys are record addresses — `(page_no, slot)` packed big-endian
//! so RID order equals physical order. Undo and redo are physiological
//! with page-LSN idempotency checks. Records are logged in the logged-
//! tree format ([`dmx_core::logged_tree::encode_change`]) with both
//! images — old for undo, new for redo; an in-place update of one length
//! carries only the bytes that differ, and the page-LSN check makes undo
//! and redo write them into the image they were taken against — because
//! under steal/no-force a crash can leave a
//! page either ahead of the log's committed state (stolen loser pages,
//! pages stolen before their rollback) or behind it (never-flushed
//! winner pages). Every change — forward, undo or redo — takes its page
//! against the token of the record that describes it (an undo's is its
//! CLR), asked for under the page latch once the change is known to
//! succeed. Slots are never reused
//! across deletes (tombstones persist; their payload bytes are reclaimed
//! by page compaction), which keeps RIDs stable and makes undo of a
//! delete safe under concurrency. Heap pages are the pool's stealable
//! type: redo reconstructs any heap page from the log, so the pool may
//! evict them dirty after forcing the log through the page LSN.

use std::sync::Arc;

use dmx_core::access::{decode_position, encode_position};
use dmx_core::logged_tree::{Change, Image, OP_DELETE, OP_INSERT, OP_PATCH, OP_REPLACE};
use dmx_core::{
    AccessQuery, CommonServices, ExecCtx, Frame, KeyRange, PathChoice, RelationDescriptor, Replay,
    SalvagedRecords, ScanItem, ScanOps, StorageMethod,
};
use dmx_expr::Expr;
use dmx_page::{BufferPool, Page, SlottedPage};
use dmx_types::PageId;
use dmx_types::{
    Appended, AttrList, DmxError, FieldId, FileId, Lsn, Record, RecordKey, Result, Schema, Value,
};
use dmx_wal::Compensation;

use crate::util::{filter_project, item_from_version, log_change};

/// Page type tag for heap data pages.
pub const PAGE_TYPE_HEAP: u8 = 3;

/// The heap storage method (stateless singleton; per-instance state is
/// the file named by the descriptor).
pub struct HeapStorage;

/// Descriptor layout: file id, 4 bytes little-endian.
pub(crate) fn encode_file_desc(file: FileId) -> Vec<u8> {
    file.0.to_le_bytes().to_vec()
}

pub(crate) fn decode_file_desc(desc: &[u8]) -> Result<FileId> {
    dmx_types::bytes::le_u32(desc, 0)
        .map(FileId)
        .ok_or_else(|| DmxError::Corrupt("short heap descriptor".into()))
}

/// RID encoding: page_no (u32 BE) + slot (u16 BE).
pub fn rid(page_no: u32, slot: u16) -> RecordKey {
    RecordKey::new(rid_bytes(page_no, slot).to_vec())
}

fn rid_bytes(page_no: u32, slot: u16) -> [u8; 6] {
    let (p, s) = (page_no.to_be_bytes(), slot.to_be_bytes());
    [p[0], p[1], p[2], p[3], s[0], s[1]]
}

/// Parses a RID key.
pub fn parse_rid(key: &[u8]) -> Result<(u32, u16)> {
    match (
        dmx_types::bytes::array::<4>(key, 0),
        dmx_types::bytes::array::<2>(key, 4),
    ) {
        (Some(p), Some(s)) if key.len() == 6 => Ok((u32::from_be_bytes(p), u16::from_be_bytes(s))),
        _ => Err(DmxError::Corrupt(format!("bad RID length {}", key.len()))),
    }
}

/// Appends `bytes` as a fresh-slot record into the file's last page, or a
/// newly allocated page, logging it through `log` under the page latch
/// once the slot is known. Returns `(page_no, slot, appended_new_page)`.
/// Shared with the read-only storage method.
pub(crate) fn append_record(
    pool: &Arc<BufferPool>,
    file: FileId,
    bytes: &[u8],
    page_type: u8,
    log: impl FnOnce(u32, u16) -> Result<Appended>,
) -> Result<(u32, u16, bool)> {
    if bytes.len() > SlottedPage::MAX_RECORD {
        return Err(DmxError::InvalidArg(format!(
            "record of {} bytes exceeds page capacity",
            bytes.len()
        )));
    }
    let pages = pool.disk().page_count(file)?;
    // Try the last page first, then pages allocated here.
    let mut target = match pages {
        0 => None,
        n => Some(pool.fetch(PageId::new(file, n - 1))?),
    };
    let mut allocated = false;
    loop {
        if let Some(pin) = target {
            let page = pin.exclusive();
            // An allocated page stays all-zero until its first latch
            // holder formats it: after a crash that is whoever appends
            // next, and between concurrent appenders it need not be the
            // one that allocated the page. Formatting only here, under
            // the latch and the record of the append, is what keeps a
            // second appender from writing into a page the first is
            // about to wipe. A page to format has room for any record a
            // page can hold.
            let unformatted = page.page_type() != page_type;
            let slot = match unformatted {
                true => 0,
                false => SlottedPage::slot_count(&page),
            };
            if unformatted || SlottedPage::fits(&page, slot, bytes.len()) {
                let page_no = pin.id().page_no;
                let mut page = page.stamp(log(page_no, slot)?);
                if unformatted {
                    SlottedPage::init(&mut page);
                    page.set_page_type(page_type);
                }
                SlottedPage::insert_at(&mut page, slot, bytes)?;
                return Ok((page_no, slot, allocated));
            }
        }
        target = Some(pool.new_page(file)?.into_pinned());
        allocated = true;
    }
}

/// Physiological undo shared with the read-only storage method: takes
/// back the change logged at `lsn`, stamping the page with the CLR.
pub(crate) fn undo_page_op(
    services: &Arc<CommonServices>,
    file: FileId,
    lsn: Lsn,
    clr: &Compensation<'_>,
    op: u8,
    payload: &[u8],
) -> Result<()> {
    let change = Change::decode(op, payload)?;
    let (page_no, slot) = parse_rid(change.key)?;
    // The page may legitimately be missing at restart (never flushed
    // beyond allocation is impossible — allocation is durable on MemDisk —
    // but the whole file may already be destroyed by a deferred drop).
    let pin = match services.pool.fetch(PageId::new(file, page_no)) {
        Ok(p) => p,
        Err(DmxError::NotFound(_)) => return Ok(()),
        Err(e) => return Err(e),
    };
    let page = pin.exclusive();
    // The operation never reached this page image, or restart finds the
    // compensation already on it: nothing to undo.
    if page.lsn() < lsn || clr.repeated().is_some_and(|c| page.lsn() >= c) {
        return Ok(());
    }
    // Restart repeats history before any undo, so the page holds every
    // change logged before this one's compensation, this change
    // included: an update's slot holds the image the record left, which
    // is what a patch is written into. The presence checks keep an undo
    // that finds anything else a no-op.
    let current = SlottedPage::get(&page, slot);
    match (op, current.is_some(), change.before(current)) {
        (OP_INSERT, true, _) => {
            SlottedPage::delete(&mut page.stamp(clr.appended()), slot);
        }
        (OP_DELETE, false, Image::Set(Some(old))) => {
            room_for(&page, slot, &old)?;
            SlottedPage::insert_at(&mut page.stamp(clr.appended()), slot, &old)?;
        }
        // An update: no record at the slot means its insert never
        // reached this image.
        (OP_REPLACE | OP_PATCH, true, Image::Set(Some(old))) => {
            room_for(&page, slot, &old)?;
            SlottedPage::update(&mut page.stamp(clr.appended()), slot, &old)?;
        }
        _ => {}
    }
    Ok(())
}

/// An undo that cannot put its image back fails before it asks for its
/// CLR: the record stays on the chain, and restart retries it.
fn room_for(page: &Page, slot: u16, image: &[u8]) -> Result<()> {
    match SlottedPage::fits(page, slot, image.len()) {
        true => Ok(()),
        false => Err(DmxError::Io("page full".into())),
    }
}

/// Physiological redo shared with the read-only storage method: replays
/// the operation logged as `at` into the page image on disk, which under
/// steal/no-force may be anywhere from all-zero (allocated, never
/// written) to already containing the operation (stolen after it).
pub(crate) fn redo_page_op(
    services: &Arc<CommonServices>,
    file: FileId,
    page_type: u8,
    at: Appended,
    op: u8,
    payload: &[u8],
) -> Result<()> {
    let change = Change::decode(op, payload)?;
    let (page_no, slot) = parse_rid(change.key)?;
    let pin = match services.pool.fetch(PageId::new(file, page_no)) {
        Ok(p) => p,
        // A later committed transaction dropped the relation; its
        // deferred drop already released the file.
        Err(DmxError::NotFound(_)) => return Ok(()),
        Err(e) => return Err(e),
    };
    let page = pin.exclusive();
    if page.lsn() >= at.lsn() {
        // Page-LSN invariant: this image already reflects every
        // operation at or below its LSN.
        return Ok(());
    }
    let mut page = page.stamp(at);
    // An allocated-but-never-flushed page reads back all-zero: format it
    // before replaying into it.
    if page.page_type() != page_type {
        SlottedPage::init(&mut page);
        page.set_page_type(page_type);
    }
    // Every operation at or below the page LSN is on it, so an update's
    // slot holds the image the record was taken against.
    match (op, change.after(SlottedPage::get(&page, slot))) {
        (OP_INSERT, Image::Set(Some(new))) => SlottedPage::insert_at(&mut page, slot, &new)?,
        (OP_DELETE, _) => {
            SlottedPage::delete(&mut page, slot);
        }
        (_, Image::Set(Some(new))) => SlottedPage::update(&mut page, slot, &new)?,
        _ => {}
    }
    Ok(())
}

impl HeapStorage {
    fn file(rd: &RelationDescriptor) -> Result<FileId> {
        decode_file_desc(&rd.sm_desc)
    }
}

impl StorageMethod for HeapStorage {
    fn name(&self) -> &str {
        "heap"
    }

    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        _schema: &Schema,
        params: &AttrList,
    ) -> Result<Vec<u8>> {
        params.check_allowed(&[], "heap")?;
        let file = ctx.services().disk.create_file()?;
        let pin = ctx.services().pool.new_page(file)?;
        let mut page = pin.format();
        SlottedPage::init(&mut page);
        page.set_page_type(PAGE_TYPE_HEAP);
        Ok(encode_file_desc(file))
    }

    fn destroy_instance(&self, services: &Arc<CommonServices>, sm_desc: &[u8]) -> Result<()> {
        let file = decode_file_desc(sm_desc)?;
        services.pool.discard_file(file);
        services.disk.delete_file(file)
    }

    fn insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        record: &Record,
    ) -> Result<RecordKey> {
        let file = Self::file(rd)?;
        let bytes = record.encode();
        let (page_no, slot, new_page) = append_record(
            &ctx.services().pool,
            file,
            &bytes,
            PAGE_TYPE_HEAP,
            |p, s| log_change(ctx, rd, &rid(p, s), None, Some(&bytes)),
        )?;
        if new_page {
            rd.stats.on_page_allocated();
        }
        Ok(rid(page_no, slot))
    }

    fn update(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        new: &Record,
    ) -> Result<(Record, RecordKey)> {
        let file = Self::file(rd)?;
        let (page_no, slot) = parse_rid(key.as_bytes())?;
        let new_bytes = new.encode();
        let pin = ctx.services().pool.fetch(PageId::new(file, page_no))?;
        let page = pin.exclusive();
        let old_bytes = SlottedPage::get(&page, slot)
            .ok_or_else(|| DmxError::NotFound(format!("heap record {key:?}")))?
            .to_vec();
        let old = Record::decode(&old_bytes)?;
        // Will an in-place update fit (the old payload is reclaimed)?
        if SlottedPage::fits(&page, slot, new_bytes.len()) {
            let at = log_change(ctx, rd, key, Some(&old_bytes), Some(&new_bytes))?;
            SlottedPage::update(&mut page.stamp(at), slot, &new_bytes)?;
            return Ok((old, key.clone()));
        }
        // Relocate: delete here, insert elsewhere (each logged).
        let at = log_change(ctx, rd, key, Some(&old_bytes), None)?;
        SlottedPage::delete(&mut page.stamp(at), slot);
        drop(pin);
        let new_key = self.insert(ctx, rd, new)?;
        Ok((old, new_key))
    }

    fn delete(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
    ) -> Result<Record> {
        let file = Self::file(rd)?;
        let (page_no, slot) = parse_rid(key.as_bytes())?;
        let pin = ctx.services().pool.fetch(PageId::new(file, page_no))?;
        let page = pin.exclusive();
        let old_bytes = SlottedPage::get(&page, slot)
            .ok_or_else(|| DmxError::NotFound(format!("heap record {key:?}")))?
            .to_vec();
        let at = log_change(ctx, rd, key, Some(&old_bytes), None)?;
        SlottedPage::delete(&mut page.stamp(at), slot);
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
        let file = Self::file(rd)?;
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
        // Filter while the record is still in the buffer pool.
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
        Ok(RidScan::open(Self::file(rd)?, range, pred, fields))
    }

    fn estimate(&self, rd: &RelationDescriptor, preds: &[Expr]) -> PathChoice {
        PathChoice::full_scan(rd.stats.records(), &rd.stats, preds)
    }

    fn replay(
        &self,
        services: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        lsn: Lsn,
        dir: Replay<'_>,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        let file = Self::file(rd)?;
        match dir {
            Replay::Undo(clr) => undo_page_op(services, file, lsn, clr, op, payload),
            Replay::Redo(at) => redo_page_op(services, file, PAGE_TYPE_HEAP, at, op, payload),
        }
    }

    fn stealable_page_types(&self) -> &[u8] {
        &[PAGE_TYPE_HEAP]
    }

    fn storage_files(&self, sm_desc: &[u8]) -> Vec<FileId> {
        decode_file_desc(sm_desc)
            .map(|f| vec![f])
            .unwrap_or_default()
    }

    fn salvage(&self, ctx: &ExecCtx<'_>, rd: &RelationDescriptor) -> Result<SalvagedRecords> {
        let file = Self::file(rd)?;
        let pool = &ctx.services().pool;
        let page_count = pool.disk().page_count(file)?;
        let mut out = SalvagedRecords {
            records: Vec::new(),
            pages_lost: 0,
            pages_read: 0,
        };
        for page_no in 0..page_count {
            let pin = match pool.fetch(PageId::new(file, page_no)) {
                Ok(p) => p,
                Err(DmxError::Corrupt(_)) => {
                    // This page is the damage; its records are the losses.
                    out.pages_lost += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            out.pages_read += 1;
            let page = pin.read();
            for slot in 0..SlottedPage::slot_count(&page) {
                let Some(bytes) = SlottedPage::get(&page, slot) else {
                    continue; // tombstone
                };
                // A record that fails to decode on an intact page is
                // damage below the checksum; skip it, keep going.
                match Record::decode(bytes) {
                    Ok(rec) => out.records.push((rid(page_no, slot), rec.values)),
                    Err(_) => continue,
                }
            }
        }
        Ok(out)
    }
}

/// RID-order key-sequential access over a file of slotted pages, with
/// buffer-resident filtering: the scan of the heap and of the write-once
/// storage method.
pub(crate) struct RidScan {
    file: FileId,
    range: KeyRange,
    pred: Option<Expr>,
    fields: Option<Vec<FieldId>>,
    /// Position: the first RID not yet passed. A page read to its end
    /// that is not the file's last is left for good — appends go to the
    /// last page only — so coming back pins the next page, not this one.
    next: (u32, u16),
    /// The file's last page has been read to its end: exhaustion pins
    /// nothing. A restored position looks again.
    done: bool,
}

impl RidScan {
    pub(crate) fn open(
        file: FileId,
        range: KeyRange,
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
    ) -> Box<dyn ScanOps> {
        Box::new(RidScan {
            file,
            range,
            pred,
            fields,
            next: (0, 0),
            done: false,
        })
    }

    /// The one traversal body: reads on from the position to the end of
    /// the first page that yields an item (to the first item, with
    /// `one`), under one page count, pin, page guard and evaluator per
    /// page. The predicate runs on the record where it lies; the record
    /// key and the projection are built for the rows that pass.
    fn pull(&mut self, ctx: &ExecCtx<'_>, one: bool, mut sink: impl FnMut(ScanItem)) -> Result<()> {
        if self.done {
            return Ok(());
        }
        let pool = &ctx.services().pool;
        let page_count = pool.disk().page_count(self.file)?;
        let mut got = false;
        while !got && !self.done && self.next.0 < page_count {
            let (page_no, mut slot) = self.next;
            let pin = pool.fetch(PageId::new(self.file, page_no))?;
            let page = pin.read();
            let eval = ctx.evaluator();
            let slots = SlottedPage::slot_count(&page);
            while slot < slots && !(one && got) {
                let bytes = SlottedPage::get(&page, slot);
                let key = rid_bytes(page_no, slot);
                slot += 1;
                let Some(bytes) = bytes.filter(|_| self.range.contains(&key)) else {
                    continue; // tombstone, or outside the range
                };
                if let Some(values) =
                    filter_project(&eval, bytes, self.fields.as_deref(), self.pred.as_ref())?
                {
                    got = true;
                    sink(ScanItem {
                        key: RecordKey::new(key.to_vec()),
                        values: Some(values),
                    });
                }
            }
            self.done = slot >= slots && page_no + 1 == page_count;
            self.next = match slot >= slots && !self.done {
                true => (page_no + 1, 0),
                false => (page_no, slot),
            };
        }
        Ok(())
    }
}

impl ScanOps for RidScan {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>> {
        let mut first = None;
        self.pull(ctx, true, |item| first = Some(item))?;
        Ok(first)
    }

    fn next_frame(&mut self, ctx: &ExecCtx<'_>, frame: &mut Frame) -> Result<()> {
        self.pull(ctx, false, |item| frame.push_back(item))
    }

    fn supports_versioned_read(&self) -> bool {
        true
    }

    fn item_from_version(
        &self,
        ctx: &ExecCtx<'_>,
        key: &RecordKey,
        values: &[Value],
    ) -> Result<Option<ScanItem>> {
        let (fields, pred) = (self.fields.as_deref(), self.pred.as_ref());
        item_from_version(ctx, &self.range, fields, pred, key, values)
    }

    fn rebind(
        &mut self,
        _ctx: &ExecCtx<'_>,
        query: &AccessQuery,
        pred: Option<&Expr>,
    ) -> Result<bool> {
        self.range = query.clone().storage_range()?;
        self.pred = pred.cloned();
        self.next = (0, 0);
        self.done = false;
        Ok(true)
    }

    // No set_range_locking: RIDs are allocation order, not key
    // order, so next-key gap locks don't define a meaningful range;
    // phantom fencing for heaps stays at the relation lock.

    fn save_position(&self) -> Vec<u8> {
        encode_position(Some(rid(self.next.0, self.next.1).as_bytes()))
    }

    fn restore_position(&mut self, pos: &[u8]) -> Result<()> {
        self.next = match decode_position(pos)? {
            None => (0, 0),
            Some(bytes) => parse_rid(&bytes)?,
        };
        self.done = false;
        Ok(())
    }
}
