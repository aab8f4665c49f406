//! Logged tree operations: the one write-ahead path for tree-backed
//! extensions.
//!
//! The paper's common services carry "write-ahead log + log-driven
//! recovery that drives extension-supplied undo" so that extensions stay
//! small. Every extension that keeps its state in a tree file (the
//! B-tree storage method; the B-tree, hash, join, aggregate, statistics
//! and R-tree attachments) changes it through [`LoggedTree::apply`] and
//! replays it through [`replay`], so the contract is kept in one place:
//!
//! 1. the caller holds the locks that make its presence probe stable
//!    (record X from the dispatcher, plus any gap locks of its own);
//! 2. it probes through [`LoggedTree::tree`] and decides the entry's
//!    after-image;
//! 3. `apply` appends the `ExtOp` record, stamps the returned LSN on
//!    every page the change dirties, and only then installs the image —
//!    the flush hook forces the log through a page's LSN before writing
//!    it, so the change can never reach disk ahead of the record that
//!    lets recovery undo it.
//!
//! The reader's half lives here too: [`TreeScan`] is the one
//! key-sequential access over a tree file — stepping, range bound,
//! next-key S locks and the saved position — and an extension supplies
//! only the [`EntryDecoder`] that turns an entry into a scan item.
//!
//! Undo and redo are one mirror: a logged change is a `(before, after)`
//! pair of images of one key, undo installs `before`, redo installs
//! `after`. Installing an image is idempotent (replace, or
//! absent-tolerant delete), which covers "logged but never applied" and
//! redo over an entry the checkpoint image already holds. Numeric cells
//! log full images rather than deltas for the same reason: replaying a
//! delta twice would double-count, installing an image twice cannot.

use std::ops::Bound;
use std::sync::Arc;

use dmx_btree::{BTree, BTreeCursor, OnDuplicate};
use dmx_lock::{LockMode, LockName};
use dmx_types::{DmxError, FileId, Lsn, PageId, RecordKey, RelationId, Result, Value};
use dmx_wal::ExtKind;

use crate::access::{decode_position, encode_position, KeyRange, ScanItem, ScanOps};
use crate::context::ExecCtx;
use crate::descriptor::{AttachmentInstance, RelationDescriptor};
use crate::services::CommonServices;

/// Op code of an entry insert (`before` absent, `after` = the logged
/// value). Shared by the attachment and storage-method log records.
pub const OP_INSERT: u8 = 1;
/// Op code of an entry delete (`before` = the logged value, `after`
/// absent).
pub const OP_DELETE: u8 = 2;

/// The `(file, root page)` pair a descriptor stores for one tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeFile {
    pub file: FileId,
    pub root_page: u32,
}

impl TreeFile {
    /// Allocates a file holding an empty B-tree.
    pub fn create(services: &Arc<CommonServices>) -> Result<TreeFile> {
        let file = services.disk.create_file()?;
        let tree = BTree::create(&services.pool, file, &services.latches)?;
        Ok(TreeFile {
            file,
            root_page: tree.root().page_no,
        })
    }

    /// The fixed root page.
    pub fn root(self) -> PageId {
        PageId::new(self.file, self.root_page)
    }

    /// Opens the B-tree stored in the file.
    pub fn open_tree(self, services: &Arc<CommonServices>) -> BTree {
        BTree::open(&services.pool, self.root(), &services.latches)
    }

    /// Releases the file, its cached pages and its latch.
    pub fn destroy(self, services: &Arc<CommonServices>) -> Result<()> {
        services.latches.forget(self.root());
        services.pool.discard_file(self.file);
        services.disk.delete_file(self.file)
    }
}

/// X-locks the gap an insert at `key` splits: the gap is named by the
/// key's in-tree successor, with an EOF sentinel past the last key.
/// Conflicts with the S gap locks a locking range scan leaves across the
/// intervals it read, fencing phantoms; snapshot readers take no gap
/// locks and are never blocked by this. (A free function, like
/// [`lock_delete_gaps`], so that `xtask verify` resolves the call and
/// sees the record-level lock in the caller's lock order.)
pub fn lock_insert_gap(
    ctx: &ExecCtx<'_>,
    relation: RelationId,
    tree: &BTree,
    key: &[u8],
) -> Result<()> {
    let succ = tree.seek(Bound::Excluded(key))?.map(|(k, _)| k);
    let gap = LockName::gap(relation, tree.root().file, succ.as_deref());
    ctx.lock(gap, LockMode::X)
}

/// X-locks the two gaps a delete of `key` merges — the one named by
/// `key` and its successor's — so range scans spanning either conflict.
pub fn lock_delete_gaps(
    ctx: &ExecCtx<'_>,
    relation: RelationId,
    tree: &BTree,
    key: &[u8],
) -> Result<()> {
    let gap = LockName::gap(relation, tree.root().file, Some(key));
    ctx.lock(gap, LockMode::X)?;
    lock_insert_gap(ctx, relation, tree, key)
}

/// Which half of a tree entry is the record key its next-key locks name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordKeyIn {
    /// `record key → record` (the B-tree storage method).
    Key,
    /// `index key → record key` (the B-tree index).
    Value,
}

/// Next-key locking state of a cursor over a gap-lockable key space.
struct GapLocks {
    relation: RelationId,
    record_key: RecordKeyIn,
    /// Set by the dispatcher's locking protocol only; raw internal scans
    /// (backfill, scrub, referential probes) leave it off.
    on: bool,
    /// The gap past the last in-range entry is locked once.
    end_locked: bool,
}

/// The range cursor over a tree: resume-after-last-key stepping, the
/// range's upper bound, the saved position and — for the structures
/// writers fence with [`lock_insert_gap`] / [`lock_delete_gaps`] — the
/// reader's side of next-key locking.
pub struct TreeCursor {
    cursor: BTreeCursor,
    file: FileId,
    range: KeyRange,
    gaps: Option<GapLocks>,
}

impl TreeCursor {
    /// A cursor over the entries of `tree` inside `range`. It takes no
    /// locks: hash buckets, aggregate cells and join pairs are not
    /// ordered record-key spaces, so their writers take no gap locks and
    /// their scans stay covered by the relation lock.
    pub fn new(tree: &BTree, range: KeyRange) -> Self {
        TreeCursor {
            cursor: tree.cursor_from(range.lo.clone()),
            file: tree.root().file,
            range,
            gaps: None,
        }
    }

    /// Makes the cursor gap-lockable: once the dispatcher turns range
    /// locking on, it S-locks the record and then the gap below every
    /// entry it passes, so concurrent inserts into the scanned range
    /// conflict (phantom fencing).
    pub fn gap_locked(mut self, relation: RelationId, record_key: RecordKeyIn) -> Self {
        self.gaps = Some(GapLocks {
            relation,
            record_key,
            on: false,
            end_locked: false,
        });
        self
    }

    /// The range the cursor was opened over.
    pub fn range(&self) -> &KeyRange {
        &self.range
    }

    /// The entry after the current position, moving onto it; `None` past
    /// the range or the last entry.
    pub fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let Some((key, value)) = self.cursor.peek()? else {
            // EOF: the gap from the last key to end-of-tree.
            if let Some(g) = self.gaps.as_mut().filter(|g| g.on && !g.end_locked) {
                g.end_locked = true;
                ctx.lock(LockName::gap(g.relation, self.file, None), LockMode::S)?;
            }
            return Ok(None);
        };
        let in_range = self.range.contains(&key);
        if let Some(g) = self
            .gaps
            .as_mut()
            .filter(|g| g.on && (in_range || !g.end_locked))
        {
            // The gap below this entry (even when a predicate then
            // filters it): an insert landing there is a phantom. Past the
            // range it is the gap between the last in-range key and the
            // first key beyond the boundary, taken once.
            //
            // Record S first: writers take record X then gap X on the
            // same key (the DML layer X-locks a record before attachment
            // maintenance runs; a delete of the boundary key holds its
            // record X while asking for this gap), and a shared per-key
            // order keeps a scan and a delete from deadlocking across
            // the pair. The LockingScan wrapper's later record S is a
            // re-grant.
            g.end_locked |= !in_range;
            let record = match g.record_key {
                RecordKeyIn::Key => &key,
                RecordKeyIn::Value => &value,
            };
            ctx.lock_record(g.relation, &RecordKey::new(record.clone()), LockMode::S)?;
            ctx.lock(
                LockName::gap(g.relation, self.file, Some(&key)),
                LockMode::S,
            )?;
        }
        if !in_range {
            return Ok(None);
        }
        self.cursor.advance(&key);
        Ok(Some((key, value)))
    }

    /// Range locking on or off ([`ScanOps::set_range_locking`]); a no-op
    /// for a cursor that is not [`TreeCursor::gap_locked`].
    pub fn set_range_locking(&mut self, on: bool) {
        if let Some(g) = &mut self.gaps {
            g.on = on;
        }
    }

    /// [`ScanOps::save_position`]: after the last key stepped onto, or
    /// at start while the cursor still sits on the range's own bound.
    pub fn save_position(&self) -> Vec<u8> {
        let at = self.cursor.position();
        match at {
            Bound::Excluded(k) if *at != self.range.lo => encode_position(Some(k)),
            _ => encode_position(None),
        }
    }

    /// [`ScanOps::restore_position`]. The end gap is locked again when
    /// the scan re-reaches it: the partial rollback that restored the
    /// position may have changed which entry is the boundary.
    pub fn restore_position(&mut self, pos: &[u8]) -> Result<()> {
        self.cursor.set_position(match decode_position(pos)? {
            Some(k) => Bound::Excluded(k),
            None => self.range.lo.clone(),
        });
        if let Some(g) = &mut self.gaps {
            g.end_locked = false;
        }
        Ok(())
    }
}

/// What a tree-backed access path supplies to [`TreeScan`]: how one
/// entry becomes a scan item. The optional methods mirror the
/// [`ScanOps`] ones of the same name.
pub trait EntryDecoder: Send {
    /// The item for entry `(key, value)`; `None` when a pushed-down
    /// predicate filters it (the scan moves on).
    fn item(&self, ctx: &ExecCtx<'_>, key: Vec<u8>, value: Vec<u8>) -> Result<Option<ScanItem>>;

    fn items_are_record_keys(&self) -> bool {
        true
    }

    fn supports_versioned_read(&self) -> bool {
        false
    }

    /// `range` is the scan's: version-sourced items (the snapshot delta
    /// sweep in particular) are not pre-filtered by the tree traversal.
    fn item_from_version(
        &self,
        _ctx: &ExecCtx<'_>,
        _range: &KeyRange,
        _key: &RecordKey,
        _values: &[Value],
    ) -> Result<Option<ScanItem>> {
        Err(DmxError::Unsupported(
            "scan does not support versioned reads".into(),
        ))
    }
}

/// Key-sequential access over a tree file: a [`TreeCursor`] plus the
/// extension's entry decoder.
pub struct TreeScan<D> {
    cursor: TreeCursor,
    decoder: D,
}

impl<D: EntryDecoder + 'static> TreeScan<D> {
    pub fn open(cursor: TreeCursor, decoder: D) -> Box<dyn ScanOps> {
        Box::new(TreeScan { cursor, decoder })
    }
}

impl<D: EntryDecoder> ScanOps for TreeScan<D> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>> {
        while let Some((key, value)) = self.cursor.next(ctx)? {
            if let Some(item) = self.decoder.item(ctx, key, value)? {
                return Ok(Some(item));
            }
        }
        Ok(None)
    }

    fn save_position(&self) -> Vec<u8> {
        self.cursor.save_position()
    }

    fn restore_position(&mut self, pos: &[u8]) -> Result<()> {
        self.cursor.restore_position(pos)
    }

    fn items_are_record_keys(&self) -> bool {
        self.decoder.items_are_record_keys()
    }

    fn supports_versioned_read(&self) -> bool {
        self.decoder.supports_versioned_read()
    }

    fn item_from_version(
        &self,
        ctx: &ExecCtx<'_>,
        key: &RecordKey,
        values: &[Value],
    ) -> Result<Option<ScanItem>> {
        self.decoder
            .item_from_version(ctx, self.cursor.range(), key, values)
    }

    fn set_range_locking(&mut self, on: bool) {
        self.cursor.set_range_locking(on);
    }
}

/// What the logged path needs from a tree handle.
pub trait LoggedTarget {
    /// Makes `key` hold `image` (`None` = absent), idempotently, stamping
    /// every page it dirties with `lsn`.
    fn install_image(&self, lsn: Lsn, key: &[u8], image: Option<&[u8]>) -> Result<()>;
}

impl LoggedTarget for BTree {
    fn install_image(&self, lsn: Lsn, key: &[u8], image: Option<&[u8]>) -> Result<()> {
        let tree = self.clone().with_wal_lsn(lsn);
        match image {
            Some(value) => tree.insert(key, value, OnDuplicate::Replace),
            None => tree.delete(key).map(drop),
        }
    }
}

/// One extension instance's tree inside one transaction: reads go to
/// [`LoggedTree::tree`], every change through [`LoggedTree::apply`].
pub struct LoggedTree<'a, T = BTree> {
    ctx: ExecCtx<'a>,
    ext: ExtKind,
    relation: RelationId,
    tree: T,
}

impl<'a, T: LoggedTarget> LoggedTree<'a, T> {
    /// The tree of attachment instance `inst` on `rd`.
    pub fn attachment(
        ctx: &ExecCtx<'a>,
        rd: &RelationDescriptor,
        inst: &AttachmentInstance,
        tree: T,
    ) -> Self {
        LoggedTree {
            ctx: *ctx,
            ext: ExtKind::Attachment(inst.att),
            relation: rd.id,
            tree,
        }
    }

    /// The tree `rd`'s storage method keeps its records in.
    pub fn storage(ctx: &ExecCtx<'a>, rd: &RelationDescriptor, tree: T) -> Self {
        LoggedTree {
            ctx: *ctx,
            ext: ExtKind::Storage(rd.sm),
            relation: rd.id,
            tree,
        }
    }

    /// The handle for presence probes and scans.
    pub fn tree(&self) -> &T {
        &self.tree
    }

    /// Logs `(op, payload)` on the transaction's undo chain, then
    /// installs `image` at `key` with the record's LSN stamped. The only
    /// place that sequences append → stamp → apply.
    pub fn apply(&self, op: u8, payload: Vec<u8>, key: &[u8], image: Option<&[u8]>) -> Result<()> {
        let lsn = self.ctx.log_ext_op(self.ext, self.relation, op, payload);
        self.tree.install_image(lsn, key, image)
    }
}

/// Which image of a logged change a replay installs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Replay {
    /// Rollback and restart's undo pass: the before-image.
    Undo,
    /// Restart's redo pass: the after-image.
    Redo,
}

/// `(before, after)` images of one key; `None` = the key is absent.
pub type Images<'a> = (Option<&'a [u8]>, Option<&'a [u8]>);

impl Replay {
    /// The image this direction installs.
    pub fn pick<'a>(self, (before, after): Images<'a>) -> Option<&'a [u8]> {
        match self {
            Replay::Undo => before,
            Replay::Redo => after,
        }
    }
}

/// The images of a logged entry insert or delete of `value`.
pub fn entry_images(op: u8, value: &[u8]) -> Result<Images<'_>> {
    match op {
        OP_INSERT => Ok((None, Some(value))),
        OP_DELETE => Ok((Some(value), None)),
        other => Err(DmxError::Corrupt(format!("bad logged tree op {other}"))),
    }
}

/// Replays the logged change of `key` at `lsn` in direction `dir`.
pub fn replay<T: LoggedTarget>(
    tree: &T,
    lsn: Lsn,
    dir: Replay,
    key: &[u8],
    images: Images<'_>,
) -> Result<()> {
    tree.install_image(lsn, key, dir.pick(images))
}
