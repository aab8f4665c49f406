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
//!    (record X from the dispatcher, plus any gap locks of its own). A
//!    maintained cell is shared by every record of its group, so no
//!    record lock covers it: [`LoggedTree::update_cell`] X-locks the
//!    cell's own name until end of transaction before it reads;
//! 2. it probes through [`LoggedTree::tree`] and decides the entry's
//!    after-image;
//! 3. `apply` logs the change — as one more operation of its relation
//!    modification's record while that is open and unforced, else in a
//!    record of its own — and installs the image through the tree's
//!    writer of the token the log returns — the only way to a writer —
//!    which stamps the record's LSN on every page the change dirties; the
//!    flush hook forces the log through a page's LSN before writing it,
//!    and a force closes the records it takes to new operations, so the
//!    change can never reach disk ahead of the record that lets recovery
//!    undo it.
//!
//! The reader's half lives here too: [`TreeScan`] is the one
//! key-sequential access over a tree file — leaf-at-a-time stepping,
//! range bound, next-key S locks, the saved position and the re-bind —
//! and an extension supplies only the [`EntryDecoder`] that says which
//! keys a query asks for and turns an entry, still in its leaf's page,
//! into a scan item.
//!
//! Undo and redo are one mirror: a logged change is a `(before, after)`
//! pair of images of one key, undo installs `before`, redo installs
//! `after`, each stamped with the token [`Replay`] carries — the CLR's
//! for an undo, the record's own for a redo. Four ops spell every pair
//! ([`encode_change`], read back by [`Change`]) after `u16 len(key) ∥
//! key` — [`OP_INSERT`] `(∅, v)` and [`OP_DELETE`] `(v, ∅)` carry `v`,
//! [`OP_REPLACE`] `(a, b)` carries `u32 len(a) ∥ a ∥ b`, and
//! [`OP_PATCH`], a pair of one length, only the runs of bytes that
//! differ, each with its old and new bytes. An attachment's record first
//! names its tree (the [`TreeFile`], file and root page as two varints),
//! so replay needs no descriptor and outlives a dropped instance.
//!
//! Every replay *sets* bytes; none adds to them, so applying a record
//! twice is harmless, which covers "logged but never applied" and redo
//! over an entry the checkpoint image already holds. A whole image is
//! installed as it is (replace, or absent-tolerant delete). A patch
//! writes its runs into the image the entry holds and is a no-op on an
//! absent entry or one of another length. The convergence rule: in any
//! replay sequence each byte ends with the value the last record that
//! touched it wrote, and a length change is always a whole image, which
//! re-bases the entry. So redo in log order ends at the last record's
//! image even from an entry that already holds a later one (a page
//! written back after the records were), and undo in reverse order ends
//! at the first one's before-image. Numeric cells log the bytes they
//! leave, not deltas, for the same reason: replaying a delta twice would
//! double-count.
//!
//! One writer logs nothing: the build of a new attachment instance
//! ([`crate::Attachment::build`]). While [`Build`] is open, `apply`
//! installs that instance's entries through [`Build::token`], the named
//! unlogged path beside `Appended::UNLOGGED` and `FreshPage::format`. No
//! replay needs those entries: the DDL's commit force-writes the files
//! the instance was created with before its commit point, and undoing
//! the catalog record that entered the instance — a rollback to before
//! the DDL, or restart's undo of a creator that never committed —
//! releases it whole (`undo.rs`).

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;

use dmx_btree::{BTree, OnDuplicate};
use dmx_expr::Expr;
use dmx_lock::{LockMode, LockName};
use dmx_txn::{Sharing, Transaction};
use dmx_types::bytes::{le_u16, le_u32, put_varint, varint, varint_len};
use dmx_types::{
    Appended, AttInstanceId, AttTypeId, AttrList, DmxError, FileId, PageId, RecordKey, RelationId,
    Result, TxnId, Value,
};
use dmx_wal::{Compensation, ExtKind};

use crate::access::{
    decode_position, encode_position, AccessQuery, Frame, KeyRange, ScanItem, ScanOps,
};
use crate::catalog::{CATALOG_EXT, CATALOG_RELATION};
use crate::context::{log_ext_op, Evaluator, ExecCtx};
use crate::descriptor::{AttachmentInstance, RelationDescriptor};
use crate::services::CommonServices;

/// Op code of an entry insert (`before` absent, `after` = the logged
/// value). Shared by the attachment and storage-method log records.
pub const OP_INSERT: u8 = 1;
/// Op code of an entry delete (`before` = the logged value, `after`
/// absent).
pub const OP_DELETE: u8 = 2;
/// Op code of a replacement that changes the entry's length: both
/// images present, logged as `u32 len(before) ∥ before ∥ after`.
pub const OP_REPLACE: u8 = 3;
/// Op code of a replacement between two images of one length, logged
/// as `u32 len ∥ (u16 off ∥ u16 n ∥ old[n] ∥ new[n])*`: the runs of
/// bytes that differ, in ascending order.
pub const OP_PATCH: u8 = 4;

/// Equal bytes between two differing runs that still leave them one
/// run: a run's header is 4 bytes and an equal byte inside a run costs 2
/// (its old and its new copy), so up to two merge at no cost.
const MERGE_GAP: usize = 2;

/// The `(file, root page)` pair a descriptor stores for one tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeFile {
    pub file: FileId,
    pub root_page: u32,
}

impl TreeFile {
    /// What [`TreeFile::assigned`] reads from a DDL list being validated,
    /// before any tree is allocated: a file no disk hands out.
    pub const UNASSIGNED: TreeFile = TreeFile {
        file: FileId(0),
        root_page: 0,
    };

    /// `params` with `trees` added under the assigned keys `file` and
    /// `root`, each a comma-separated list in tree order: the list an
    /// instance's `create_instance` returns.
    pub fn assign(trees: &[TreeFile], params: &AttrList) -> Result<AttrList> {
        let list = |n: fn(&TreeFile) -> u32| {
            let numbers: Vec<String> = trees.iter().map(|t| n(t).to_string()).collect();
            numbers.join(",")
        };
        let mut attrs = params.clone();
        attrs.push("file", list(|t| t.file.0))?;
        attrs.push("root", list(|t| t.root_page))?;
        Ok(attrs)
    }

    /// Every tree a stored list names under `file` and `root`, in order;
    /// none when it names none.
    pub fn named_in(attrs: &AttrList) -> Result<Vec<TreeFile>> {
        let numbers = |key: &str| -> Result<Vec<u32>> {
            let Some(list) = attrs.get(key) else {
                return Ok(Vec::new());
            };
            list.split(',')
                .map(|n| {
                    n.parse()
                        .map_err(|_| DmxError::Corrupt(format!("attribute {key}: '{list}'")))
                })
                .collect()
        };
        let (files, roots) = (numbers("file")?, numbers("root")?);
        if files.len() != roots.len() {
            return Err(DmxError::Corrupt("as many files as roots".into()));
        }
        let trees = files.into_iter().zip(roots);
        Ok(trees
            .map(|(file, root_page)| TreeFile {
                file: FileId(file),
                root_page,
            })
            .collect())
    }

    /// The `N` trees an instance's stored list names, or `N`
    /// [`TreeFile::UNASSIGNED`] while its DDL list is validated.
    pub fn assigned<const N: usize>(attrs: &AttrList) -> Result<[TreeFile; N]> {
        let trees = Self::named_in(attrs)?;
        if trees.is_empty() {
            return Ok([Self::UNASSIGNED; N]);
        }
        trees
            .try_into()
            .map_err(|t: Vec<_>| DmxError::Corrupt(format!("{} trees where {N} belong", t.len())))
    }

    /// Allocates a file holding an empty B-tree, its root on disk before
    /// any log record names the tree: a restart that undoes the records
    /// of a creator that never committed finds a tree to undo them in.
    pub fn create(services: &Arc<CommonServices>) -> Result<TreeFile> {
        let file = services.disk.create_file()?;
        let root_page = BTree::create(&services.pool, file, &services.latches)?
            .root()
            .page_no;
        services.pool.flush_file(file)?;
        Ok(TreeFile { file, root_page })
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

    /// Splits the tree an attachment's log record names off the front of
    /// its payload; the rest is the change [`replay`] takes.
    pub fn named_by(payload: &[u8]) -> Result<(TreeFile, &[u8])> {
        let mut pos = 0;
        let u32_at = |pos: &mut usize| varint(payload, pos).and_then(|v| u32::try_from(v).ok());
        match (u32_at(&mut pos), u32_at(&mut pos)) {
            (Some(file), Some(root_page)) => Ok((
                TreeFile {
                    file: FileId(file),
                    root_page,
                },
                payload.get(pos..).unwrap_or_default(),
            )),
            _ => Err(DmxError::Corrupt("short attachment log payload".into())),
        }
    }
}

/// X-locks the gap an insert at `key` splits: the gap is named by the
/// key's in-tree successor, with an EOF sentinel past the last key.
/// Conflicts with the S gap locks a locking range scan leaves across the
/// intervals it read, fencing phantoms; snapshot readers take no gap
/// locks and are never blocked by this.
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
    /// (a build's, scrub, referential probes) leave it off.
    on: bool,
}

/// The range cursor over a tree: leaf-at-a-time stepping that resumes
/// after the last key passed, the range's upper bound, the saved
/// position and — for the structures writers fence with
/// [`lock_insert_gap`] / [`lock_delete_gaps`] — the reader's side of
/// next-key locking.
pub struct TreeCursor {
    tree: BTree,
    /// Where the next step starts: the range's own lower bound, then
    /// just after the last entry passed.
    from: Bound<Vec<u8>>,
    /// The buffer `from` had before, kept for the next step's key.
    spare: Vec<u8>,
    range: KeyRange,
    gaps: Option<GapLocks>,
    /// The last step met the end — the first key past the range, or the
    /// last leaf's last entry — and, when range locking is on, locked
    /// it: nothing is left to visit and the end is locked once.
    done: bool,
}

impl TreeCursor {
    /// A cursor over the entries of `tree` inside `range`. With `gaps` —
    /// the relation, and the half of an entry that is its record key —
    /// it is gap-lockable: once the dispatcher turns range locking on it
    /// S-locks the record and then the gap below every entry it passes,
    /// so inserts into the scanned range conflict (phantom fencing).
    /// Without, it takes no locks: hash buckets, aggregate cells and
    /// join pairs are not ordered record-key spaces, their writers take
    /// no gap locks and their scans stay covered by the relation lock.
    pub fn new(tree: &BTree, range: KeyRange, gaps: Option<(RelationId, RecordKeyIn)>) -> Self {
        TreeCursor {
            tree: tree.clone(),
            from: range.lo.clone(),
            spare: Vec::new(),
            range,
            gaps: gaps.map(|(relation, record_key)| GapLocks {
                relation,
                record_key,
                on: false,
            }),
            done: false,
        }
    }

    /// Moves the cursor to the start of another range of the same tree
    /// ([`ScanOps::rebind`]): what [`TreeCursor::new`] over `range` would
    /// be, with the gap-locking state it has.
    pub fn rebind(&mut self, range: KeyRange) {
        self.from = range.lo.clone();
        self.range = range;
        self.done = false;
    }

    /// The one traversal body: passes the in-range entries after the
    /// position that the next leaf with any holds — one descent, the
    /// leaf pinned once — handing each to `entry` as it lies in the
    /// page and moving the position onto it. `entry` says whether it
    /// took the entry; with `one` the step ends at the first taken (the
    /// one-row view). `false` once nothing is left: the step that passes
    /// the range's last entry usually sees the end in the same leaf, so
    /// exhaustion costs no descent of its own.
    ///
    /// With range locking on, the step is one entry: its record and gap
    /// are S-locked before `entry` sees a copy of it, and no lock can be
    /// requested under a leaf's guard.
    pub fn step(
        &mut self,
        ctx: &ExecCtx<'_>,
        one: bool,
        mut entry: impl FnMut(&[u8], &[u8]) -> Result<bool>,
    ) -> Result<bool> {
        if self.done {
            return Ok(false);
        }
        if let Some(g) = self.gaps.as_ref().filter(|g| g.on) {
            let file = self.tree.root().file;
            let Some((key, value)) = self.tree.seek(self.from.as_ref().map(Vec::as_slice))? else {
                // EOF: the gap from the last key to end-of-tree.
                self.done = true;
                ctx.lock(LockName::gap(g.relation, file, None), LockMode::S)?;
                return Ok(false);
            };
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
            // the pair. The dispatcher's later record S is a re-grant.
            let in_range = self.range.contains(&key);
            self.done = !in_range;
            let record = match g.record_key {
                RecordKeyIn::Key => &key,
                RecordKeyIn::Value => &value,
            };
            ctx.lock_record(g.relation, &RecordKey::new(record.clone()), LockMode::S)?;
            ctx.lock(LockName::gap(g.relation, file, Some(&key)), LockMode::S)?;
            if in_range {
                entry(&key, &value)?;
                self.from = Bound::Excluded(key);
            }
            return Ok(in_range);
        }
        let mut passed = std::mem::take(&mut self.spare);
        let (mut any, mut past_range) = (false, false);
        let range = &self.range;
        let tree_ended =
            self.tree
                .visit_leaf(self.from.as_ref().map(Vec::as_slice), |key, value| {
                    if !range.contains(key) {
                        past_range = true;
                        return Ok(false);
                    }
                    passed.clear();
                    passed.extend_from_slice(key);
                    any = true;
                    Ok(!(entry(key, value)? && one))
                })?;
        if any {
            let before = std::mem::replace(&mut self.from, Bound::Excluded(passed));
            if let Bound::Included(buf) | Bound::Excluded(buf) = before {
                self.spare = buf;
            }
        } else {
            self.spare = passed;
        }
        self.done = past_range || tree_ended;
        Ok(!self.done)
    }

    /// Range locking on or off ([`ScanOps::set_range_locking`]); a no-op
    /// for a cursor that is not gap-lockable.
    pub fn set_range_locking(&mut self, on: bool) {
        if let Some(g) = &mut self.gaps {
            g.on = on;
        }
    }

    /// [`ScanOps::save_position`]: after the last key passed, or at
    /// start while the cursor still sits on the range's own bound.
    pub fn save_position(&self) -> Vec<u8> {
        match &self.from {
            Bound::Excluded(k) if self.from != self.range.lo => encode_position(Some(k)),
            _ => encode_position(None),
        }
    }

    /// [`ScanOps::restore_position`]. The end is looked for — and its
    /// gap locked — again when the scan re-reaches it: the partial
    /// rollback that restored the position may have changed which entry
    /// is the boundary.
    pub fn restore_position(&mut self, pos: &[u8]) -> Result<()> {
        self.from = match decode_position(pos)? {
            Some(k) => Bound::Excluded(k),
            None => self.range.lo.clone(),
        };
        self.done = false;
        Ok(())
    }
}

/// What a tree-backed access path supplies to [`TreeScan`]: which of
/// its tree's keys a query asks for, and how one entry becomes a scan
/// item. The optional methods mirror the [`ScanOps`] ones of the same
/// name.
pub trait EntryDecoder: Send {
    /// The path's one translation of a query: the key range of its tree
    /// that `query` asks for — or the error a query it cannot answer gets
    /// — having taken `pred` for the pushed-down predicate if the path
    /// has one. [`TreeScan::open`] and [`ScanOps::rebind`] both come
    /// here, so a scan opened and a scan re-bound cover the same keys.
    fn bind(&mut self, query: AccessQuery, pred: Option<Expr>) -> Result<KeyRange>;

    /// The item for entry `(key, value)`, both still in the leaf's page
    /// (no lock may be requested here); `None` when a pushed-down
    /// predicate — run through `eval` on those bytes — filters it (the
    /// scan moves on) and nothing was copied out.
    fn item(&self, eval: &Evaluator<'_>, key: &[u8], value: &[u8]) -> Result<Option<ScanItem>>;

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

impl<D: EntryDecoder> TreeScan<D> {
    /// The scan of `tree` that `query` asks for, as `decoder` reads it
    /// ([`EntryDecoder::bind`]); `gaps` as in [`TreeCursor::new`].
    pub fn open(
        tree: &BTree,
        gaps: Option<(RelationId, RecordKeyIn)>,
        mut decoder: D,
        query: AccessQuery,
        pred: Option<Expr>,
    ) -> Result<Box<dyn ScanOps>>
    where
        D: 'static,
    {
        let cursor = TreeCursor::new(tree, decoder.bind(query, pred)?, gaps);
        Ok(Box::new(TreeScan { cursor, decoder }))
    }

    /// Steps the cursor until a leaf yields an item (the first one, with
    /// `one`) or nothing is left, decoding under one evaluator per leaf
    /// — taken at the leaf's first entry, so after any next-key lock
    /// wait, never across one.
    fn pull(&mut self, ctx: &ExecCtx<'_>, one: bool, mut sink: impl FnMut(ScanItem)) -> Result<()> {
        let Self { cursor, decoder } = self;
        let mut got = false;
        loop {
            let mut eval = None;
            let more = cursor.step(ctx, one, |key, value| {
                let eval = eval.get_or_insert_with(|| ctx.evaluator());
                let took = decoder.item(eval, key, value)?.map(&mut sink).is_some();
                got |= took;
                Ok(took)
            })?;
            if got || !more {
                return Ok(());
            }
        }
    }
}

impl<D: EntryDecoder> ScanOps for TreeScan<D> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>> {
        let mut first = None;
        self.pull(ctx, true, |item| first = Some(item))?;
        Ok(first)
    }

    fn next_frame(&mut self, ctx: &ExecCtx<'_>, frame: &mut Frame) -> Result<()> {
        self.pull(ctx, false, |item| frame.push_back(item))
    }

    fn rebind(
        &mut self,
        _ctx: &ExecCtx<'_>,
        query: &AccessQuery,
        pred: Option<&Expr>,
    ) -> Result<bool> {
        let range = self.decoder.bind(query.clone(), pred.cloned())?;
        self.cursor.rebind(range);
        Ok(true)
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
            .item_from_version(ctx, &self.cursor.range, key, values)
    }

    fn set_range_locking(&mut self, on: bool) {
        self.cursor.set_range_locking(on);
    }
}

/// The unlogged build of one new attachment instance, open while
/// [`crate::Database::create_attachment`] runs the instance's
/// [`crate::Attachment::build`].
pub(crate) struct Build {
    pub(crate) txn: TxnId,
    pub(crate) relation: RelationId,
    pub(crate) att: AttTypeId,
    pub(crate) instance: AttInstanceId,
    /// The instance's storage files, all created with it: what its DDL's
    /// commit force-writes.
    pub(crate) files: Vec<FileId>,
}

impl Build {
    /// Whether `inst` on `relation`, written by `txn`, is what this builds.
    pub(crate) fn builds(
        &self,
        txn: TxnId,
        relation: RelationId,
        inst: &AttachmentInstance,
    ) -> bool {
        (self.txn, self.relation, self.att, self.instance)
            == (txn, relation, inst.att, inst.instance)
    }

    /// The build token for a page of `file`: it stamps nothing, so the
    /// change reaches disk by the DDL commit's force of the instance's
    /// files and by nothing else. A file outside them would keep an
    /// unlogged change no commit writes back: a debug build refuses it,
    /// and a release build logs that change instead (`None`).
    fn token(&self, file: FileId) -> Option<Appended> {
        let own = self.files.contains(&file);
        debug_assert!(
            own,
            "a build writes only its instance's files {:?}, not {file}",
            self.files
        );
        own.then_some(Appended::UNLOGGED)
    }
}

/// What the logged path needs from a tree handle.
pub trait LoggedTarget {
    /// The tree's fixed root page: what an attachment's record names.
    fn root(&self) -> PageId;

    /// The image `key` holds now (`None` = absent): what a replayed
    /// patch writes its runs into.
    fn image(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Makes `key` hold `image` (`None` = absent), idempotently, through
    /// the writer of `at`: every page it dirties carries `at`'s LSN.
    fn install_image(&self, at: Appended, key: &[u8], image: Option<&[u8]>) -> Result<()>;
}

impl LoggedTarget for BTree {
    fn root(&self) -> PageId {
        BTree::root(self)
    }

    fn image(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get(key)
    }

    fn install_image(&self, at: Appended, key: &[u8], image: Option<&[u8]>) -> Result<()> {
        let tree = self.with_wal_lsn(at);
        match image {
            Some(value) => tree.insert(key, value, OnDuplicate::Replace),
            None => tree.delete(key).map(drop),
        }
    }
}

impl<T: LoggedTarget> LoggedTarget for &T {
    fn root(&self) -> PageId {
        (*self).root()
    }

    fn image(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        (*self).image(key)
    }

    fn install_image(&self, at: Appended, key: &[u8], image: Option<&[u8]>) -> Result<()> {
        (*self).install_image(at, key, image)
    }
}

/// One extension instance's tree inside one transaction: reads go to
/// [`LoggedTree::tree`], every change through [`LoggedTree::apply`].
pub struct LoggedTree<'a, T = BTree> {
    txn: &'a Transaction,
    services: &'a CommonServices,
    ext: ExtKind,
    relation: RelationId,
    /// An attachment's records name their tree; the storage method's is
    /// in the relation descriptor replay is handed.
    names_tree: bool,
    /// Open while the instance this tree belongs to is being built.
    build: Option<Arc<Build>>,
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
            txn: ctx.txn,
            services: ctx.db.services(),
            ext: ExtKind::Attachment(inst.att),
            relation: rd.id,
            names_tree: true,
            build: ctx.db.build_of(ctx.txn.id(), rd.id, inst),
            tree,
        }
    }

    /// The tree `rd`'s storage method keeps its records in.
    pub fn storage(ctx: &ExecCtx<'a>, rd: &RelationDescriptor, tree: T) -> Self {
        LoggedTree {
            txn: ctx.txn,
            services: ctx.db.services(),
            ext: ExtKind::Storage(rd.sm),
            relation: rd.id,
            names_tree: false,
            build: None,
            tree,
        }
    }

    /// The system catalog, changed by `txn`: its records name the
    /// catalog's own relation and no tree.
    pub(crate) fn catalog(txn: &'a Transaction, services: &'a CommonServices, catalog: T) -> Self {
        LoggedTree {
            txn,
            services,
            ext: CATALOG_EXT,
            relation: CATALOG_RELATION,
            names_tree: false,
            build: None,
            tree: catalog,
        }
    }

    /// The handle for presence probes and scans.
    pub fn tree(&self) -> &T {
        &self.tree
    }

    /// Logs the change of `key` from `before` to `after` (`None` =
    /// absent) on the transaction's undo chain — in the record of its
    /// relation modification where one is open — then installs `after`
    /// through the writer of the record's token; while the instance is
    /// being built, installs it through the build token and logs nothing.
    /// The only holder of a forward token in a tree-backed extension.
    pub fn apply(&self, key: &[u8], before: Option<&[u8]>, after: Option<&[u8]>) -> Result<()> {
        if before.is_none() && after.is_none() {
            return Ok(()); // absent stays absent: nothing to log
        }
        let file = self.tree.root().file;
        if let Some(at) = self.build.as_ref().and_then(|b| b.token(file)) {
            return self.tree.install_image(at, key, after);
        }
        let named = self.names_tree.then(|| self.tree.root());
        let (op, payload) = encode_change(named, key, before, after)?;
        // A tree replay sets what was logged and compares no page LSN, so
        // the change joins its modification's record.
        let at = log_ext_op(
            self.txn,
            Sharing::Joins,
            self.ext,
            self.relation,
            op,
            payload,
        );
        self.tree.install_image(at, key, after)
    }
}

/// The `(op, payload)` that logs the change of `key` from `before` to
/// `after` (`None` = absent; not both), read back by [`Change::decode`]
/// past the tree name `named` puts first ([`TreeFile::named_by`]). The
/// one writer of the format, shared with the storage methods that log
/// record images.
pub fn encode_change(
    named: Option<PageId>,
    key: &[u8],
    before: Option<&[u8]>,
    after: Option<&[u8]>,
) -> Result<(u8, Vec<u8>)> {
    let too_long = |what: &str| DmxError::InvalidArg(format!("tree {what} too long to log"));
    let klen = u16::try_from(key.len()).map_err(|_| too_long("key"))?;
    let patch = matches!((before, after),
        (Some(a), Some(b)) if a.len() == b.len() && a.len() <= u16::MAX as usize);
    // A patch sizes itself once its runs are known.
    let images = match patch {
        true => 0,
        false => 4 + before.map_or(0, <[u8]>::len) + after.map_or(0, <[u8]>::len),
    };
    let name = named.map_or(0, |root| {
        varint_len(root.file.0.into()) + varint_len(root.page_no.into())
    });
    let mut payload = Vec::with_capacity(name + 2 + key.len() + images);
    if let Some(root) = named {
        put_varint(&mut payload, root.file.0.into());
        put_varint(&mut payload, root.page_no.into());
    }
    payload.extend_from_slice(&klen.to_le_bytes());
    payload.extend_from_slice(key);
    let op = match (before, after) {
        (None, None) => return Err(DmxError::InvalidArg("no image to log".into())),
        (None, Some(v)) => {
            payload.extend_from_slice(v);
            OP_INSERT
        }
        (Some(v), None) => {
            payload.extend_from_slice(v);
            OP_DELETE
        }
        (Some(a), Some(b)) if patch => {
            encode_patch(&mut payload, a, b);
            OP_PATCH
        }
        (Some(a), Some(b)) => {
            let alen = u32::try_from(a.len()).map_err(|_| too_long("image"))?;
            payload.extend_from_slice(&alen.to_le_bytes());
            payload.extend_from_slice(a);
            payload.extend_from_slice(b);
            OP_REPLACE
        }
    };
    Ok((op, payload))
}

/// Appends the patch from `a` to `b` (one length, at most `u16::MAX`):
/// the length, then each run where they differ — runs no more than
/// [`MERGE_GAP`] equal bytes apart are one — with its old and new bytes.
fn encode_patch(payload: &mut Vec<u8>, a: &[u8], b: &[u8]) {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x == y {
            continue;
        }
        match runs.last_mut() {
            Some((off, n)) if i - (*off + *n) <= MERGE_GAP => *n = i + 1 - *off,
            _ => runs.push((i, 1)),
        }
    }
    let bytes: usize = runs.iter().map(|&(_, n)| 4 + 2 * n).sum();
    payload.reserve_exact(4 + bytes);
    payload.extend_from_slice(&(a.len() as u32).to_le_bytes());
    for (off, n) in runs {
        // Offsets and lengths fit: the image is at most u16::MAX long.
        payload.extend_from_slice(&(off as u16).to_le_bytes());
        payload.extend_from_slice(&(n as u16).to_le_bytes());
        for image in [a, b] {
            payload.extend_from_slice(image.get(off..off + n).unwrap_or_default());
        }
    }
}

/// One logged change of a key, read back from its payload (past an
/// attachment's tree name): the one reader of [`encode_change`]'s
/// format.
pub struct Change<'p> {
    /// The key the change is logged under.
    pub key: &'p [u8],
    body: Body<'p>,
}

enum Body<'p> {
    /// Whole images, either side absent.
    Images(Option<&'p [u8]>, Option<&'p [u8]>),
    /// The runs `(offset, old, new)` of a patch of an image `len` long.
    Patch {
        len: usize,
        runs: Vec<(usize, &'p [u8], &'p [u8])>,
    },
}

/// What replaying a [`Change`] leaves at its key.
#[derive(Debug, PartialEq)]
pub enum Image<'p> {
    /// The key is to hold this image (`None` = absent).
    Set(Option<Cow<'p, [u8]>>),
    /// The key is left as it is: a patch met an absent entry or an image
    /// of another length.
    Keep,
}

impl<'p> Change<'p> {
    /// Parses a change logged under `op`; every truncation, a patch run
    /// outside its image and an unknown op are [`DmxError::Corrupt`].
    pub fn decode(op: u8, change: &'p [u8]) -> Result<Change<'p>> {
        let corrupt = || DmxError::Corrupt("short logged tree change".into());
        let klen = le_u16(change, 0).ok_or_else(corrupt)? as usize;
        let (key, body) = change
            .get(2..)
            .and_then(|rest| rest.split_at_checked(klen))
            .ok_or_else(corrupt)?;
        let body = match op {
            OP_INSERT => Body::Images(None, Some(body)),
            OP_DELETE => Body::Images(Some(body), None),
            OP_REPLACE => {
                let alen = le_u32(body, 0).ok_or_else(corrupt)? as usize;
                let (a, b) = body
                    .get(4..)
                    .and_then(|images| images.split_at_checked(alen))
                    .ok_or_else(corrupt)?;
                Body::Images(Some(a), Some(b))
            }
            OP_PATCH => {
                let len = le_u32(body, 0).ok_or_else(corrupt)? as usize;
                let mut rest = body.get(4..).ok_or_else(corrupt)?;
                let mut runs = Vec::new();
                while !rest.is_empty() {
                    let (off, n) = (le_u16(rest, 0), le_u16(rest, 2));
                    let (off, n) = off.zip(n).ok_or_else(corrupt)?;
                    let (off, n) = (off as usize, n as usize);
                    let (old, tail) = rest
                        .get(4..)
                        .and_then(|r| r.split_at_checked(n))
                        .ok_or_else(corrupt)?;
                    let (new, tail) = tail.split_at_checked(n).ok_or_else(corrupt)?;
                    if off + n > len {
                        return Err(DmxError::Corrupt("patch run past its image".into()));
                    }
                    runs.push((off, old, new));
                    rest = tail;
                }
                Body::Patch { len, runs }
            }
            other => return Err(DmxError::Corrupt(format!("bad logged tree op {other}"))),
        };
        Ok(Change { key, body })
    }

    /// Whether what replay leaves depends on the image the key holds
    /// now: a patch's does, a whole image's does not.
    pub fn patches(&self) -> bool {
        matches!(self.body, Body::Patch { .. })
    }

    /// What undo leaves at the key, which holds `current` (read only when
    /// [`Change::patches`]).
    pub fn before(&self, current: Option<&[u8]>) -> Image<'p> {
        self.image(true, current)
    }

    /// What redo leaves at the key, which holds `current` (read only when
    /// [`Change::patches`]).
    pub fn after(&self, current: Option<&[u8]>) -> Image<'p> {
        self.image(false, current)
    }

    fn image(&self, undo: bool, current: Option<&[u8]>) -> Image<'p> {
        match &self.body {
            Body::Images(before, after) => {
                Image::Set(if undo { *before } else { *after }.map(Cow::Borrowed))
            }
            Body::Patch { len, runs } => match current {
                Some(current) if current.len() == *len => {
                    let mut image = current.to_vec();
                    for &(off, old, new) in runs {
                        let bytes = if undo { old } else { new };
                        // Decode checked every run against `len`.
                        if let Some(dst) = image.get_mut(off..off + bytes.len()) {
                            dst.copy_from_slice(bytes);
                        }
                    }
                    Image::Set(Some(Cow::Owned(image)))
                }
                _ => Image::Keep,
            },
        }
    }
}

impl LoggedTree<'_> {
    /// The read-modify-write of a maintained cell (an aggregate group, a
    /// relation's statistics): X-locks the cell until end of
    /// transaction, reads it, lets `decide` turn the image it finds into
    /// the one to leave (`None` = absent), then logs and installs that.
    /// The lock is what makes the read stable and keeps a rollback's
    /// before-image from erasing a concurrent writer's update; writers to
    /// one cell serialise on it until commit.
    pub fn update_cell(
        &self,
        key: &[u8],
        decide: impl FnOnce(Option<&[u8]>) -> Result<Option<Vec<u8>>>,
    ) -> Result<()> {
        // The name hashes the tree file with the key, so it never equals
        // the key-only hash a base record and its gap share (the lock
        // manager pairs those two for its record-before-gap assertion).
        let mut h = DefaultHasher::new();
        self.tree.root().file.hash(&mut h);
        key.hash(&mut h);
        let cell = LockName::Record(self.relation, h.finish());
        self.services.locks.lock(self.txn.id(), cell, LockMode::X)?;
        let before = self.tree.get(key)?;
        let after = decide(before.as_deref())?;
        self.apply(key, before.as_deref(), after.as_deref())
    }
}

/// Which image of a logged change a replay installs, and the token the
/// pages it changes are stamped with.
#[derive(Clone, Copy)]
pub enum Replay<'a> {
    /// Rollback, restart's repeated compensation and its undo of losers:
    /// the before-image, stamped with the undo's compensation record.
    Undo(&'a Compensation<'a>),
    /// Restart's redo pass: the after-image, stamped with the record's
    /// own token.
    Redo(Appended),
}

impl std::fmt::Debug for Replay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Replay::Undo(_) => "Undo",
            Replay::Redo(_) => "Redo",
        })
    }
}

/// Replays the change `(op, change)` logged by [`LoggedTree::apply`] —
/// `change` is the payload, past the tree name of an attachment's record
/// — in direction `dir`: installs the image `dir` picks (a patch's is
/// the entry's own with the runs written in) and returns the image the
/// key is left holding.
pub fn replay<'p, T: LoggedTarget>(
    tree: &T,
    dir: Replay<'_>,
    op: u8,
    change: &'p [u8],
) -> Result<Option<Cow<'p, [u8]>>> {
    let change = Change::decode(op, change)?;
    let current = match change.patches() {
        true => tree.image(change.key)?,
        false => None,
    };
    let image = match dir {
        Replay::Undo(_) => change.before(current.as_deref()),
        Replay::Redo(_) => change.after(current.as_deref()),
    };
    let Image::Set(image) = image else {
        return Ok(current.map(Cow::Owned));
    };
    let at = match dir {
        Replay::Undo(clr) => clr.appended(),
        Replay::Redo(at) => at,
    };
    tree.install_image(at, change.key, image.as_deref())?;
    Ok(image)
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    use dmx_types::{Lsn, TxnId};
    use dmx_wal::{LogBody, LogRecord};

    use super::*;

    const ROOT: PageId = PageId {
        file: FileId(9),
        page_no: 3,
    };

    #[derive(Default)]
    struct Model(RefCell<BTreeMap<Vec<u8>, Vec<u8>>>);

    impl LoggedTarget for Model {
        fn root(&self) -> PageId {
            ROOT
        }

        fn image(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(self.0.borrow().get(key).cloned())
        }

        fn install_image(&self, _at: Appended, key: &[u8], image: Option<&[u8]>) -> Result<()> {
            match image {
                Some(v) => self.0.borrow_mut().insert(key.to_vec(), v.to_vec()),
                None => self.0.borrow_mut().remove(key),
            };
            Ok(())
        }
    }

    /// A compensation whose CLR is already in the log.
    fn any_clr() -> Compensation<'static> {
        Compensation::repeating(&LogRecord {
            lsn: Lsn(2),
            prev_lsn: Lsn(1),
            txn: TxnId(1),
            body: LogBody::Clr {
                undo_next: Lsn::NULL,
            },
        })
    }

    /// The logged layout: an attachment payload is `name + 2 + len(key) +
    /// len(body)` bytes (a storage method's has no tree name), a pair of
    /// two lengths `4 + len(a) + len(b)`, and every truncation is
    /// `Corrupt`. The name is the file and root page as varints, 2 bytes
    /// for `ROOT` and 5 + 4 for the largest.
    #[test]
    fn payload_layout_is_pinned_and_truncation_is_corrupt() {
        let name = 2;
        let (key, a, b) = (&b"key"[..], &b"before"[..], &b"after-image"[..]);
        let cases = [
            (None, Some(b), OP_INSERT, b.len()),
            (Some(a), None, OP_DELETE, a.len()),
            (Some(a), Some(b), OP_REPLACE, 4 + a.len() + b.len()),
        ];
        for (before, after, want_op, body) in cases {
            let (op, payload) = encode_change(Some(ROOT), key, before, after).unwrap();
            assert_eq!(op, want_op);
            assert_eq!(payload[..name], [9, 3]);
            assert_eq!(payload.len(), name + 2 + key.len() + body);
            let (_, unnamed) = encode_change(None, key, before, after).unwrap();
            assert_eq!(unnamed.len(), 2 + key.len() + body);

            let (file, change) = TreeFile::named_by(&payload).unwrap();
            assert_eq!(file.root(), ROOT);
            assert_eq!(change, &unnamed[..]);
            let tree = Model::default();
            let clr = any_clr();
            for (dir, image) in [
                (Replay::Redo(Appended::UNLOGGED), after),
                (Replay::Undo(&clr), before),
            ] {
                assert_eq!(replay(&tree, dir, op, change).unwrap().as_deref(), image);
                assert_eq!(tree.0.borrow().get(key).map(Vec::as_slice), image);
            }
            // A cut inside the tree name, the key or a pair's first image
            // is an error (an entry's value may legitimately be empty).
            let cuts = if op == OP_REPLACE {
                0..name + 2 + key.len() + 4 + a.len()
            } else {
                0..name + 2 + key.len()
            };
            for cut in cuts {
                let short = payload.get(..cut).unwrap();
                let res = TreeFile::named_by(short).and_then(|(_, change)| {
                    replay(&tree, Replay::Redo(Appended::UNLOGGED), op, change)
                });
                assert!(matches!(res, Err(DmxError::Corrupt(_))), "cut at {cut}");
            }
        }
        let far = PageId::new(FileId(u32::MAX), 1 << 21);
        let (_, payload) = encode_change(Some(far), key, Some(a), None).unwrap();
        assert_eq!(
            payload[..9],
            [0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x80, 0x80, 0x80, 0x01]
        );
        assert_eq!(TreeFile::named_by(&payload).unwrap().0.root(), far);
        for cut in 0..9 {
            let res = TreeFile::named_by(&payload[..cut]);
            assert!(matches!(res, Err(DmxError::Corrupt(_))), "cut at {cut}");
        }
        let none = encode_change(Some(ROOT), key, None, None);
        assert!(matches!(none, Err(DmxError::InvalidArg(_))), "{none:?}");
        let res = replay(&Model::default(), Replay::Undo(&any_clr()), 9, &[0, 0]);
        assert!(matches!(res, Err(DmxError::Corrupt(_))), "unknown op");
    }

    /// A pair of one length is a patch: the image's length, then the runs
    /// that differ — two runs at most two equal bytes apart are one — each
    /// with its old and new bytes. Undo writes the old bytes, redo the
    /// new, twice over as well as once; an absent entry or one of another
    /// length is left as it is and handed back. Every cut inside a run is
    /// `Corrupt`, and so is a run past its image.
    #[test]
    fn an_equal_length_pair_logs_the_runs_that_differ() {
        let key = &b"key"[..];
        //      differs at:  1 3  6   10   15
        let a = &b"0123456789abcdef"[..];
        let b = &b"0x2y45z789AbcdeF"[..];
        let (op, payload) = encode_change(Some(ROOT), key, Some(a), Some(b)).unwrap();
        assert_eq!(op, OP_PATCH);
        let mut want = vec![9, 3, 3, 0, b'k', b'e', b'y', 16, 0, 0, 0];
        want.extend_from_slice(&[1, 0, 6, 0]); // 1, 3 and 6 merge: gaps of 1 and 2
        want.extend_from_slice(b"123456x2y45z");
        want.extend_from_slice(&[10, 0, 1, 0]); // three equal bytes apart: a run
        want.extend_from_slice(b"aA");
        want.extend_from_slice(&[15, 0, 1, 0]);
        want.extend_from_slice(b"fF");
        assert_eq!(payload, want);
        let (_, same) = encode_change(None, key, Some(a), Some(a)).unwrap();
        assert_eq!(same, [3, 0, b'k', b'e', b'y', 16, 0, 0, 0], "no runs");

        let (_, change) = TreeFile::named_by(&payload).unwrap();
        let clr = any_clr();
        let redo = Replay::Redo(Appended::UNLOGGED);
        let tree = Model::default();
        tree.0.borrow_mut().insert(key.to_vec(), a.to_vec());
        for (dir, image) in [(redo, b), (redo, b), (Replay::Undo(&clr), a)] {
            assert_eq!(
                replay(&tree, dir, op, change).unwrap().as_deref(),
                Some(image)
            );
            assert_eq!(tree.0.borrow()[key], image);
        }
        // Absent, or another length: kept, and handed back as it is.
        for held in [None, Some(&b"short"[..])] {
            let tree = Model::default();
            if let Some(v) = held {
                tree.0.borrow_mut().insert(key.to_vec(), v.to_vec());
            }
            for dir in [redo, Replay::Undo(&clr)] {
                assert_eq!(replay(&tree, dir, op, change).unwrap().as_deref(), held);
                assert_eq!(tree.0.borrow().get(key).map(Vec::as_slice), held);
            }
        }

        // A cut at a run's end leaves a shorter patch (the frame's
        // checksum is what catches that); a cut anywhere else is Corrupt.
        let run_ends = [11, 27, 33];
        for cut in 0..payload.len() {
            let short = payload.get(..cut).unwrap();
            let res = TreeFile::named_by(short).and_then(|(_, c)| Change::decode(op, c));
            assert_eq!(
                res.is_ok(),
                run_ends.contains(&cut),
                "cut at {cut}: {:?}",
                res.err()
            );
        }
        let past = [&[3, 0][..], key, &[2, 0, 0, 0, 1, 0, 2, 0], b"abAB"].concat();
        let res = Change::decode(OP_PATCH, &past);
        assert!(
            matches!(res, Err(DmxError::Corrupt(_))),
            "run past its image"
        );
    }
}
