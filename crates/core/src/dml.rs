//! The relation modification dispatcher and unified data access.
//!
//! "The execution of relation modification operations proceeds in two
//! steps. The first step, using the storage method identifier from the
//! relation descriptor, calls the appropriate storage method modification
//! routine via the storage method operation vectors. After completing the
//! storage method operation, the extensions attached to the relation are
//! invoked via the attached procedures vectors. … The storage method
//! operation or the procedurally-attached extensions can abort the entire
//! relation modification operation. Common system facilities will be used
//! to undo the effects of completed storage method and attachment
//! modifications if the relation modification operation is aborted."

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use dmx_expr::Expr;
use dmx_lock::{LockMode, LockName};
use dmx_txn::{Footprint, Transaction, VersionImage};
use dmx_types::held;
use dmx_types::obs::Counter;
use dmx_types::{
    AttTypeId, DmxError, FieldId, Record, RecordKey, RelationId, Result, ScanId, Value,
};

use crate::access::{AccessPath, AccessQuery, Frame, ScanItem, ScanOps};
use crate::attachment::Modification;
use crate::context::ExecCtx;
use crate::database::Database;
use crate::descriptor::RelationDescriptor;

/// Projects `values` to `fields` (`None` = all), failing on an
/// out-of-range field id.
pub fn project_values(values: &[Value], fields: Option<&[FieldId]>) -> Result<Vec<Value>> {
    match fields {
        None => Ok(values.to_vec()),
        Some(ids) => ids
            .iter()
            .map(|&f| {
                values
                    .get(f as usize)
                    .cloned()
                    .ok_or_else(|| DmxError::InvalidArg(format!("no field {f}")))
            })
            .collect(),
    }
}

/// The dispatcher's scan decorator: every scan [`Database::open_scan`]
/// registers is the access procedure's own scan wrapped in this. It
/// fences corruption, counts rows, passes derived items (e.g. aggregate
/// groups, covered by the relation-level lock) through untouched, and
/// runs the transaction's [`Protocol`] over what the inner scan hands it
/// — a frame at a time where the protocol allows, with `next` the
/// one-row view of the same body.
struct DispatchScan {
    inner: Box<dyn ScanOps>,
    rd: Arc<RelationDescriptor>,
    path: AccessPath,
    protocol: Protocol,
    /// How many times the scan has been re-bound: a saved position is
    /// one of the binding it was taken under, and of no other.
    binding: u64,
    /// The frame `next` pulls its one item through, kept for reuse.
    one: Frame,
    /// Rows returned so far; flushed into the rows-per-scan histogram
    /// when the scan reports exhaustion.
    rows: u64,
    exhausted: bool,
}

/// What makes an item the inner scan read optimistically (it decodes
/// records in the buffer pool before any lock is granted) safe to
/// return, with the private state each protocol keeps per scan.
enum Protocol {
    /// Every item's record is S-locked as it is handed out — never while
    /// a frame is filled, so the inner scan is asked for one item at a
    /// time (record-level locking maintains scan-position integrity, per
    /// the paper: "the access procedures use locking to maintain the
    /// integrity of the scan position") — and **re-read under its S
    /// lock**: a writer's entire X-hold can fit between the optimistic
    /// read and the lock grant, so "granted without waiting" does not
    /// imply the read was current. Storage-method scans re-fetch the
    /// record (re-applying predicate and projection); access-path scans
    /// re-check record existence (their per-entry values — index keys,
    /// join pairs — are immutable once present).
    Locking {
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
    },
    /// A lock-free read-only scan against the transaction's snapshot:
    /// **no record locks are taken**. Instead every frame is checked
    /// against the version store, page read first: when a record has a
    /// chain, the page (or index-entry) bytes may belong to an in-flight
    /// or recently-aborted writer, so the item is re-derived from the
    /// chain's snapshot-visible image; when it has none, the page state
    /// is committed for every live snapshot (the GC fence guarantees
    /// chains outlive the snapshots that might need them) and the item
    /// is trusted as read.
    ///
    /// When the inner scan exhausts, a *delta sweep* re-derives items for
    /// snapshot-visible records the scan never surfaced — records whose
    /// tree entries an in-flight writer deleted or moved. Delta items are
    /// emitted after the regular stream in record-key order, so same-seed
    /// runs are deterministic; under concurrent writers the scan's overall
    /// key ordering is therefore best-effort (DESIGN.md §6.2).
    Snapshot {
        surfaced: Surfaced,
        /// The delta sweep, once the inner scan exhausted.
        delta: Option<VecDeque<(Vec<u8>, VersionImage)>>,
    },
}

/// The record keys the inner scan surfaced to a snapshot scan's
/// decorator (whether the chain probe then emitted or suppressed them),
/// kept as one byte log in arrival order. Double duty: a concurrent
/// update can relocate a record's tree entry ahead of the scan position,
/// so the inner scan may surface the same record key twice and the
/// second must go; and the delta sweep must not re-emit what the stream
/// handled. Keys the inner scan filtered *internally* (predicate/range)
/// never get here; the delta sweep intentionally re-derives those
/// records from their chains.
///
/// Nothing is looked up in the common case, so nothing is hashed: a key
/// without a chain cannot have been surfaced before — no chain means
/// nobody has written the record since before this snapshot began (the
/// GC fence), so its entry cannot have moved — and cannot be in a sweep,
/// which lists chains. Only a key that arrives *with* a chain, or a
/// non-empty sweep, asks, and the set is built from the log then.
#[derive(Default)]
struct Surfaced {
    /// `u32 len ∥ key` per key. Its length is the scan's half of a saved
    /// position: a restore truncates it in step with the inner rewind,
    /// or keys surfaced again would be dropped instead of re-emitted.
    log: Vec<u8>,
    /// The keys of `log[..indexed]`, for the rare lookup.
    set: HashSet<Vec<u8>>,
    indexed: usize,
}

impl Surfaced {
    fn push(&mut self, key: &[u8]) {
        self.log
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.log.extend_from_slice(key);
    }

    /// Whether `key` was surfaced before, first indexing what the log
    /// gained since the last time anyone asked.
    fn contains(&mut self, key: &[u8]) -> bool {
        while let Some(len) = dmx_types::bytes::le_u32(&self.log, self.indexed) {
            let start = self.indexed + 4;
            let Some(k) = self.log.get(start..start + len as usize) else {
                break;
            };
            self.set.insert(k.to_vec());
            self.indexed = start + len as usize;
        }
        self.set.contains(key)
    }

    fn truncate(&mut self, len: usize) {
        self.log.truncate(len);
        if self.indexed > len {
            self.set.clear();
            self.indexed = 0;
        }
    }
}

impl DispatchScan {
    /// The one protocol body: pulls from the inner scan — what one page
    /// holds when `whole` and the protocol takes no locks, else one item
    /// — until `frame` (empty on entry) holds something the transaction
    /// may see, or the scan is exhausted.
    fn pull(&mut self, ctx: &ExecCtx<'_>, frame: &mut Frame, whole: bool) -> Result<()> {
        let Self {
            inner,
            rd,
            path,
            protocol,
            ..
        } = self;
        while frame.is_empty() {
            match protocol {
                Protocol::Locking { pred, fields } => {
                    let Some(item) = inner.next(ctx)? else {
                        return Ok(());
                    };
                    if !inner.items_are_record_keys() {
                        frame.push_back(item);
                        return Ok(());
                    }
                    ctx.lock_record(rd.id, &item.key, LockMode::S)?;
                    // Re-read under the lock.
                    let sm = ctx.db.registry().storage(rd.sm)?;
                    let kept = if *path == AccessPath::StorageMethod {
                        // `None`: vanished or no longer qualifies
                        sm.fetch(ctx, rd, &item.key, fields.as_deref(), pred.as_ref())?
                            .map(|values| ScanItem {
                                key: item.key,
                                values: Some(values),
                            })
                    } else if inner.supports_versioned_read() {
                        // Re-derive the item from the record's current
                        // state: the optimistically-read entry values may
                        // belong to a concurrent writer that has since
                        // rolled back (the covered-scan staleness race),
                        // so the entry itself cannot be trusted even when
                        // the record exists. `None`: vanished, or no
                        // longer inside this scan.
                        match sm.fetch(ctx, rd, &item.key, None, None)? {
                            Some(values) => inner.item_from_version(ctx, &item.key, &values)?,
                            None => None,
                        }
                    } else {
                        // existence check only (empty projection, no predicate)
                        sm.fetch(ctx, rd, &item.key, Some(&[]), None)?.map(|_| item)
                    };
                    frame.extend(kept);
                }
                Protocol::Snapshot {
                    delta: Some(delta), ..
                } => {
                    while let Some((key, image)) = delta.pop_front() {
                        let VersionImage::Present(values) = image else {
                            continue;
                        };
                        let key = RecordKey::new(key);
                        frame.extend(inner.item_from_version(ctx, &key, &values)?);
                        if !whole && !frame.is_empty() {
                            break;
                        }
                    }
                    return Ok(());
                }
                Protocol::Snapshot { surfaced, delta } => {
                    if whole {
                        inner.next_frame(ctx, frame)?;
                    } else {
                        frame.extend(inner.next(ctx)?);
                    }
                    if frame.is_empty() {
                        // Inner scan exhausted: sweep the chains for
                        // visible records it never surfaced.
                        let mut sweep: VecDeque<_> = ctx
                            .db
                            .versions()
                            .visible_entries(rd.id, ctx.txn.snapshot(), ctx.txn.id())
                            .into();
                        sweep.retain(|(k, _)| !surfaced.contains(k));
                        if !sweep.is_empty() {
                            // Observable: the sweep found snapshot-visible
                            // records the inner scan never surfaced.
                            ctx.db.counters().scan_delta_sweeps.incr();
                            ctx.db.metrics().emit(dmx_types::obs::ObsEvent {
                                layer: "scan",
                                op: "delta_sweep",
                                target: rd.id.0 as u64,
                                detail: sweep.len() as u64,
                            });
                        }
                        *delta = Some(sweep);
                    } else if inner.items_are_record_keys() {
                        admit(ctx, rd, inner.as_ref(), surfaced, frame)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Fences corruption off and counts what a pull produced.
    fn counted(&mut self, ctx: &ExecCtx<'_>, res: Result<()>, produced: usize) -> Result<()> {
        ctx.db.fence_corrupt(self.rd.id, res)?;
        if produced > 0 {
            self.rows += produced as u64;
            ctx.db.counters().scan_rows.add(produced as u64);
        } else if !self.exhausted {
            self.exhausted = true;
            ctx.db.counters().rows_per_scan.record(self.rows);
        }
        Ok(())
    }
}

/// The snapshot protocol over one frame the inner scan just read: page
/// read first, then — once for the frame — the relation's unstamped
/// windows are waited out and the version store is asked, under one lock,
/// which of the frame's records have chains. Those are re-derived from
/// their visible images (or dropped: invisible, no longer qualifying, or
/// surfaced before); the rest are trusted as read.
fn admit(
    ctx: &ExecCtx<'_>,
    rd: &RelationDescriptor,
    inner: &dyn ScanOps,
    surfaced: &mut Surfaced,
    frame: &mut Frame,
) -> Result<()> {
    let versions = ctx.db.versions();
    versions.wait_unstamped(rd.id);
    let keys = frame.iter().map(|item| item.key.as_bytes());
    let chained = versions.visible_among(rd.id, keys, ctx.txn.snapshot(), ctx.txn.id());
    if chained.is_empty() {
        // The common case: no hashing, no lookups.
        for item in frame.iter() {
            surfaced.push(item.key.as_bytes());
        }
        return Ok(());
    }
    ctx.db
        .counters()
        .mvcc_version_reads
        .add(chained.len() as u64);
    let mut chained = chained.into_iter().peekable();
    for (i, item) in std::mem::take(frame).into_iter().enumerate() {
        let Some((_, image)) = chained.next_if(|(at, _)| *at == i) else {
            surfaced.push(item.key.as_bytes());
            frame.push_back(item);
            continue;
        };
        if surfaced.contains(item.key.as_bytes()) {
            // A concurrent writer relocated this record's tree entry past
            // the scan position, resurfacing a key the stream already
            // handled; both probes would re-derive the identical
            // snapshot-visible image, so emit each record at most once.
            continue;
        }
        surfaced.push(item.key.as_bytes());
        if let VersionImage::Present(values) = image {
            frame.extend(inner.item_from_version(ctx, &item.key, &values)?);
        }
    }
    Ok(())
}

impl ScanOps for DispatchScan {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>> {
        let mut one = std::mem::take(&mut self.one);
        let res = self.pull(ctx, &mut one, false);
        let item = one.pop_front();
        self.one = one;
        self.counted(ctx, res, item.is_some() as usize)?;
        Ok(item)
    }

    /// `frame` arrives empty ([`Database::scan_next_frame`] clears it).
    fn next_frame(&mut self, ctx: &ExecCtx<'_>, frame: &mut Frame) -> Result<()> {
        let res = self.pull(ctx, frame, true);
        self.counted(ctx, res, frame.len())
    }

    /// The inner scan moves to `query`; everything the decorator keeps
    /// per stream of items starts over, and the relation lock, the
    /// registration and the protocol stay. A re-bound access path has
    /// been probed once more; nothing has been opened.
    fn rebind(
        &mut self,
        ctx: &ExecCtx<'_>,
        query: &AccessQuery,
        pred: Option<&Expr>,
    ) -> Result<bool> {
        let rebound = self.inner.rebind(ctx, query, pred);
        if !ctx.db.fence_corrupt(self.rd.id, rebound)? {
            return Ok(false);
        }
        if !std::mem::take(&mut self.exhausted) {
            ctx.db.counters().rows_per_scan.record(self.rows);
        }
        self.rows = 0;
        self.binding += 1;
        match &mut self.protocol {
            Protocol::Locking {
                pred: under_lock, ..
            } => *under_lock = pred.cloned(),
            Protocol::Snapshot { surfaced, delta } => {
                surfaced.truncate(0);
                *delta = None;
            }
        }
        if let AccessPath::Attachment(att_id, _) = self.path {
            ctx.db.count_probe(&self.rd, att_id);
        }
        Ok(true)
    }

    /// The binding, then — for a snapshot scan — how much the regular
    /// stream had surfaced, then the inner scan's own position.
    fn save_position(&self) -> Vec<u8> {
        let mut pos = self.binding.to_le_bytes().to_vec();
        if let Protocol::Snapshot { surfaced, .. } = &self.protocol {
            pos.extend_from_slice(&(surfaced.log.len() as u64).to_le_bytes());
        }
        pos.extend_from_slice(&self.inner.save_position());
        pos
    }

    fn restore_position(&mut self, pos: &[u8]) -> Result<()> {
        let corrupt = || DmxError::Corrupt("bad scan position".into());
        if dmx_types::bytes::le_u64(pos, 0) != Some(self.binding) {
            // The inner position is a key of another range.
            return Err(DmxError::InvalidArg(
                "scan position was saved before the scan was re-bound".into(),
            ));
        }
        let mut inner = pos.get(8..).ok_or_else(corrupt)?;
        if let Protocol::Snapshot { surfaced, delta } = &mut self.protocol {
            let n = dmx_types::bytes::le_u64(inner, 0).ok_or_else(corrupt)? as usize;
            if n > surfaced.log.len() {
                return Err(corrupt());
            }
            surfaced.truncate(n);
            // A partial rollback rewinds the inner scan; the delta sweep
            // (if it had started) is discarded and rebuilt at
            // re-exhaustion.
            *delta = None;
            inner = inner.get(8..).ok_or_else(corrupt)?;
        }
        self.inner.restore_position(inner)
    }
}

impl Database {
    /// Stamps a write's after-image into the version store (called by
    /// the DML paths *before* the page mutation they describe, under the
    /// record X lock) and adds the write's share to the relation's
    /// record and byte counts — here, so that whatever retracts the stamp
    /// takes exactly that share back.
    fn stamp(
        &self,
        txn: &Arc<Transaction>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        base: VersionImage,
        image: VersionImage,
    ) {
        self.counters().mvcc_versions_recorded.incr();
        let added = self
            .versions()
            .record_write(txn.id(), rd.id, key.as_bytes(), base, image);
        rd.stats.apply(added.records, added.bytes);
    }

    /// Takes back from each relation's counts what retracted version
    /// stamps had added (a relation dropped meanwhile has none to fix).
    pub(crate) fn take_back(&self, retracted: Vec<(RelationId, Footprint)>) {
        for (rel, added) in retracted {
            if let Ok(rd) = self.catalog().get(rel) {
                rd.stats.apply(-added.records, -added.bytes);
            }
        }
    }

    /// The committed on-page state of `(rel, key)` as a version image,
    /// read under the caller's record X lock (so it is stable) — unless
    /// the caller hands it in as `read`: the whole record as it read it
    /// under a lock on `key` it has held since. A debug build reads the
    /// page anyway and holds the two against each other.
    fn base_image(
        self: &Arc<Self>,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        read: Option<Vec<Value>>,
    ) -> Result<VersionImage> {
        let sm = self.registry().storage(rd.sm)?;
        if let Some(values) = read {
            if cfg!(debug_assertions) {
                // By encoding: a NaN field equals itself there.
                let encoded = |v: &[Value]| Record::new(v.to_vec()).encode();
                let page = sm.fetch(ctx, rd, key, None, None)?;
                assert!(
                    page.as_deref().map(encoded) == Some(encoded(&values)),
                    "handed-in base of {key:?} is {values:?}, the page holds {page:?}"
                );
            }
            return Ok(VersionImage::Present(values));
        }
        Ok(match sm.fetch(ctx, rd, key, None, None)? {
            Some(values) => VersionImage::Present(values),
            None => VersionImage::Absent,
        })
    }

    /// The chain image of `(rel, key)` visible to `txn`'s snapshot
    /// (committed for it, or `txn`'s own write), which overrides
    /// whatever a page read said. `None`: no chain, so the page state is
    /// committed for this snapshot. Called *after* the page read: it
    /// first drains the relation's unstamped-write windows, so a
    /// mutation the page read may have observed either still holds its
    /// window open (we wait out the stamp) or has already published its
    /// chain. Fast path: one atomic load and one hash probe.
    fn visible_image(
        &self,
        txn: &Transaction,
        rel: RelationId,
        key: &[u8],
    ) -> Option<VersionImage> {
        self.versions().wait_unstamped(rel);
        let image = self
            .versions()
            .visible(rel, key, txn.snapshot(), txn.id())?;
        self.counters().mvcc_version_reads.incr();
        Some(image)
    }

    /// Runs one relation operation as a statement: its extension
    /// operations share one log record where they may (one frame per
    /// modification, [`Transaction::modification`]), and on failure the
    /// common recovery log drives the undo of its partial effects back to
    /// the statement's entry point.
    fn with_stmt<T>(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        f: impl FnOnce(&ExecCtx<'_>) -> Result<T>,
    ) -> Result<T> {
        txn.check_active()?;
        let ctx = ExecCtx { db: self, txn };
        let _modifying = txn.modification();
        let start_lsn = txn.last_lsn();
        let vmark = self.versions().mark(txn.id());
        match f(&ctx) {
            Ok(v) => Ok(v),
            Err(e) => {
                self.undo_to(txn, start_lsn)?;
                // The pages are back to their pre-statement state; the
                // chain stamps describing the undone writes follow.
                self.take_back(self.versions().rollback_to_mark(txn.id(), vmark));
                // The statement is cleanly undone; if it died of
                // out-of-space, degrade to read-only so later writes
                // fail fast instead of tearing a commit.
                self.note_enospc(&e);
                Err(e)
            }
        }
    }

    /// Step two of every modification: each attachment type with
    /// instances on `rd` is invoked once with `m` — counted, and when it
    /// vetoes (returns any error) the veto is counted with an event
    /// naming the vetoed relation — then `done` counts the operation.
    fn run_attachments(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        m: &Modification<'_>,
        done: &Counter,
    ) -> Result<()> {
        for (att_id, insts) in rd.attached_types() {
            let att = self.registry().attachment(att_id)?;
            self.counters().att_invocations.incr();
            if let Err(e) = att.on_modify(ctx, rd, insts, m) {
                self.counters().att_vetoes.incr();
                self.metrics().emit(dmx_types::obs::ObsEvent {
                    layer: "att",
                    op: "veto",
                    target: rd.id.0 as u64,
                    detail: 0,
                });
                return Err(e);
            }
        }
        done.incr();
        Ok(())
    }

    /// Converts a [`DmxError::Corrupt`] escaping a relation operation
    /// into quarantine of that relation: the buffer manager already
    /// retried the read, so the damage is persistent — fence the relation
    /// off and keep everything else serving.
    pub(crate) fn fence_corrupt<T>(&self, rel: RelationId, res: Result<T>) -> Result<T> {
        match res {
            Err(DmxError::Corrupt(reason)) => Err(self.quarantine(rel, reason)),
            other => other,
        }
    }

    /// Inserts a record: storage method first, then each attachment type
    /// with instances; a veto rolls the modification back.
    pub fn insert(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        rel: RelationId,
        record: Record,
    ) -> Result<RecordKey> {
        let rd = self.admit(txn, rel, true)?;
        rd.schema.validate(&record.values)?;
        let res = self.with_stmt(txn, |ctx| {
            ctx.lock(LockName::Relation(rel), LockMode::IX)?;
            let sm = self.registry().storage(rd.sm)?;
            // The record key is the page mutation's *output*, so the
            // chain stamp cannot precede it; the unstamped window makes
            // snapshot readers that race the mutation wait for the
            // stamp instead of trusting the uncommitted page bytes.
            let window = self.versions().begin_unstamped(rel);
            let key = sm.insert(ctx, &rd, &record)?;
            ctx.lock_record(rel, &key, LockMode::X)?;
            self.stamp(
                txn,
                &rd,
                &key,
                VersionImage::Absent,
                VersionImage::Present(record.values.clone()),
            );
            drop(window);
            let m = Modification::insert(&key, &record);
            self.run_attachments(ctx, &rd, &m, &self.counters().inserts)?;
            Ok(key)
        });
        self.fence_corrupt(rel, res)
    }

    /// Updates the record at `key`, returning the (possibly relocated)
    /// new record key.
    pub fn update(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        rel: RelationId,
        key: &RecordKey,
        new: Record,
    ) -> Result<RecordKey> {
        self.update_with_base(txn, rel, key, None, new)
    }

    /// [`Database::update`] of a record the caller has read: `base` is
    /// the whole record as read under a lock on `key` the transaction
    /// still holds, with nothing written to it since (the target of an
    /// UPDATE statement), so the write does not read it again. `None`:
    /// the write reads it.
    pub fn update_with_base(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        rel: RelationId,
        key: &RecordKey,
        base: Option<Vec<Value>>,
        new: Record,
    ) -> Result<RecordKey> {
        let rd = self.admit(txn, rel, true)?;
        rd.schema.validate(&new.values)?;
        let res = self.with_stmt(txn, |ctx| {
            ctx.lock(LockName::Relation(rel), LockMode::IX)?;
            ctx.lock_record(rel, key, LockMode::X)?;
            // Stamp *before* the page mutation: a snapshot scan that
            // races the update finds the chain and reads the committed
            // base image instead of trusting the half-updated page.
            let base = self.base_image(ctx, &rd, key, base)?;
            self.stamp(txn, &rd, key, base, VersionImage::Absent);
            let sm = self.registry().storage(rd.sm)?;
            // The (possibly relocated) new key is the mutation's output;
            // same unstamped window as insert until its stamp lands.
            let window = self.versions().begin_unstamped(rel);
            let (old, new_key) = sm.update(ctx, &rd, key, &new)?;
            if new_key != *key {
                ctx.lock_record(rel, &new_key, LockMode::X)?;
            }
            // Now the final location is known: stamp the after-image.
            self.stamp(
                txn,
                &rd,
                &new_key,
                VersionImage::Absent,
                VersionImage::Present(new.values.clone()),
            );
            drop(window);
            let m = Modification::update(key, &old, &new_key, &new);
            self.run_attachments(ctx, &rd, &m, &self.counters().updates)?;
            Ok(new_key)
        });
        self.fence_corrupt(rel, res)
    }

    /// Deletes the record at `key`.
    pub fn delete(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        rel: RelationId,
        key: &RecordKey,
    ) -> Result<()> {
        self.delete_with_base(txn, rel, key, None)
    }

    /// [`Database::delete`] of a record the caller has read, `base` as
    /// in [`Database::update_with_base`].
    pub fn delete_with_base(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        rel: RelationId,
        key: &RecordKey,
        base: Option<Vec<Value>>,
    ) -> Result<()> {
        let rd = self.admit(txn, rel, true)?;
        let res = self.with_stmt(txn, |ctx| {
            ctx.lock(LockName::Relation(rel), LockMode::IX)?;
            ctx.lock_record(rel, key, LockMode::X)?;
            let base = self.base_image(ctx, &rd, key, base)?;
            self.stamp(txn, &rd, key, base, VersionImage::Absent);
            let sm = self.registry().storage(rd.sm)?;
            let old = sm.delete(ctx, &rd, key)?;
            let m = Modification::delete(key, &old);
            self.run_attachments(ctx, &rd, &m, &self.counters().deletes)
        });
        self.fence_corrupt(rel, res)
    }

    /// Direct-by-key access through the storage method, with projection
    /// and buffer-resident filtering.
    pub fn fetch(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        rel: RelationId,
        key: &RecordKey,
        fields: Option<&[FieldId]>,
        pred: Option<&Expr>,
    ) -> Result<Option<Vec<Value>>> {
        txn.check_active()?;
        let rd = self.admit(txn, rel, false)?;
        let ctx = ExecCtx { db: self, txn };
        ctx.lock(LockName::Relation(rel), LockMode::IS)?;
        self.counters().fetches.incr();
        if txn.snapshot_reads() {
            // Snapshot read: no record lock. Page read first, then the
            // chain probe.
            let sm = self.registry().storage(rd.sm)?;
            let page = self.fence_corrupt(rel, sm.fetch(&ctx, &rd, key, fields, pred))?;
            return match self.visible_image(txn, rel, key.as_bytes()) {
                None => Ok(page),
                Some(VersionImage::Absent) => Ok(None),
                Some(VersionImage::Present(values)) => match pred {
                    Some(p) if !ctx.eval_predicate(p, &values)? => Ok(None),
                    _ => Ok(Some(project_values(&values, fields)?)),
                },
            };
        }
        ctx.lock_record(rel, key, LockMode::S)?;
        let sm = self.registry().storage(rd.sm)?;
        self.fence_corrupt(rel, sm.fetch(&ctx, &rd, key, fields, pred))
    }

    /// The target of a write that names one record by its key
    /// ([`AccessQuery::Record`]): X-locks the record, then reads it whole
    /// and holds it against `pred`. It opens no scan and takes no S lock,
    /// gap lock or upgrade, so two writers of one key queue on its X
    /// lock rather than deadlock. `None`: no such record, or it fails
    /// `pred`. The X lock stays either way; on a key that is absent it
    /// is the phantom guard, since an insert X-locks its key before it
    /// probes for it.
    pub fn fetch_target(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        rel: RelationId,
        key: &RecordKey,
        pred: Option<&Expr>,
    ) -> Result<Option<Vec<Value>>> {
        txn.check_active()?;
        let rd = self.admit(txn, rel, true)?;
        let ctx = ExecCtx { db: self, txn };
        ctx.lock(LockName::Relation(rel), LockMode::IX)?;
        ctx.lock_record(rel, key, LockMode::X)?;
        self.counters().fetches.incr();
        let sm = self.registry().storage(rd.sm)?;
        self.fence_corrupt(rel, sm.fetch(&ctx, &rd, key, None, pred))
    }

    /// Opens a key-sequential access via any access path ("access path
    /// zero is … the storage method"), registered with the scan manager
    /// for end-of-transaction cleanup and savepoint position handling.
    pub fn open_scan(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        rel: RelationId,
        path: AccessPath,
        query: AccessQuery,
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
    ) -> Result<ScanId> {
        txn.check_active()?;
        let rd = self.admit(txn, rel, false)?;
        let ctx = ExecCtx { db: self, txn };
        ctx.lock(LockName::Relation(rel), LockMode::IS)?;
        let mut inner = self.fence_corrupt(
            rel,
            self.open_scan_raw(&ctx, &rd, path, query, pred.clone(), fields.clone()),
        )?;
        self.counters().scan_opens.incr();
        let protocol = if txn.snapshot_reads() && inner.supports_versioned_read() {
            // Snapshot scan: zero record locks, zero range locks;
            // visibility comes from the version store.
            self.counters().mvcc_snapshot_scans.incr();
            Protocol::Snapshot {
                surfaced: Surfaced::default(),
                delta: None,
            }
        } else {
            // Locking scan: range locks fence phantoms at the key gaps the
            // scan traverses (only meaningful for ordered record-key scans).
            inner.set_range_locking(true);
            Protocol::Locking { pred, fields }
        };
        let scan = Box::new(DispatchScan {
            inner,
            rd,
            path,
            protocol,
            binding: 0,
            one: Frame::new(),
            rows: 0,
            exhausted: false,
        });
        Ok(self.scans().open(txn.id(), scan))
    }

    /// Access-path dispatch without scan-manager registration (used
    /// internally, e.g. by an attachment's build).
    pub fn open_scan_raw(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        path: AccessPath,
        query: AccessQuery,
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
    ) -> Result<Box<dyn ScanOps>> {
        match path {
            AccessPath::StorageMethod => {
                let range = query.storage_range()?;
                let sm = self.registry().storage(rd.sm)?;
                sm.open_scan(ctx, rd, range, pred, fields)
            }
            AccessPath::Attachment(att_id, inst_id) => {
                let att = self.registry().attachment(att_id)?;
                let insts = rd
                    .attachment_instances(att_id)
                    .ok_or_else(|| DmxError::NotFound(format!("attachment type {att_id}")))?;
                let inst = insts
                    .iter()
                    .find(|i| i.instance == inst_id)
                    .ok_or_else(|| DmxError::NotFound(format!("attachment {att_id}{inst_id}")))?;
                self.count_probe(rd, att_id);
                att.open_scan(ctx, rd, inst, &query)
            }
        }
    }

    /// One more question asked of an access path of type `att_id` on
    /// `rd`: a scan opened on it, or re-bound.
    fn count_probe(&self, rd: &RelationDescriptor, att_id: AttTypeId) {
        self.counters().att_probes.incr();
        self.metrics().emit(dmx_types::obs::ObsEvent {
            layer: "att",
            op: "probe",
            target: rd.id.0 as u64,
            detail: att_id.0 as u64,
        });
    }

    /// Advances a registered scan. Like every pull, never under a latch
    /// or an evaluator (checked in debug builds): the scan may wait for a
    /// lock and take the evaluator itself.
    pub fn scan_next(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        scan: ScanId,
    ) -> Result<Option<ScanItem>> {
        held::assert_may_pull("scan_next");
        txn.check_active()?;
        let ctx = ExecCtx { db: self, txn };
        self.scans().next(&ctx, scan)
    }

    /// Advances a registered scan by one frame — the qualifying items
    /// of the next page with any, under the transaction's protocol (a
    /// locking scan locks what it hands out, so its frames are of one) —
    /// replacing what `frame` held. An empty frame: exhausted. One
    /// registry lookup for the lot; the caller keeps `frame` for the
    /// next call.
    pub fn scan_next_frame(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        scan: ScanId,
        frame: &mut Frame,
    ) -> Result<()> {
        held::assert_may_pull("scan_next_frame");
        txn.check_active()?;
        frame.clear();
        let ctx = ExecCtx { db: self, txn };
        self.scans().next_frame(&ctx, scan, frame)
    }

    /// Re-binds a registered scan: it becomes the scan of `query` and
    /// `pred` that [`Database::open_scan`] on the same relation, path and
    /// fields would have registered, under the relation lock and the
    /// protocol it already has — one more `att.probes` on an access path,
    /// no `scan.opens`. A position saved before is void. `Ok(false)` when
    /// the access procedure's scan cannot ([`ScanOps::rebind`]): nothing
    /// has changed, and the caller closes the scan and opens another.
    pub fn scan_rebind(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        scan: ScanId,
        query: &AccessQuery,
        pred: Option<&Expr>,
    ) -> Result<bool> {
        held::assert_may_pull("scan_rebind");
        txn.check_active()?;
        let ctx = ExecCtx { db: self, txn };
        self.scans().rebind(&ctx, scan, query, pred)
    }

    /// Closes a registered scan.
    pub fn scan_close(&self, txn: &Arc<Transaction>, scan: ScanId) {
        self.scans().close(txn.id(), scan);
    }
}
