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
//! Undo and redo are one mirror: a logged change is a `(before, after)`
//! pair of images of one key, undo installs `before`, redo installs
//! `after`. Installing an image is idempotent (replace, or
//! absent-tolerant delete), which covers "logged but never applied" and
//! redo over an entry the checkpoint image already holds. Numeric cells
//! log full images rather than deltas for the same reason: replaying a
//! delta twice would double-count, installing an image twice cannot.

use std::ops::Bound;
use std::sync::Arc;

use dmx_btree::{BTree, OnDuplicate};
use dmx_lock::{LockMode, LockName};
use dmx_types::{DmxError, FileId, Lsn, PageId, RelationId, Result};
use dmx_wal::ExtKind;

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
