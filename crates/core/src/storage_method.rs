//! The generic storage-method interface.
//!
//! "A storage method implementation must support a well-defined set of
//! relation operations such as delete, insert, destroy relation, and
//! estimate access costs (for query planning). Additionally, storage
//! method implementations must define the notion of a record key and
//! support direct-by-key and key-sequential record accesses to selected
//! fields of the records. The definition and interpretation of record
//! keys is controlled by the storage method implementation."

use std::sync::Arc;

use dmx_expr::Expr;
use dmx_types::{AttrList, DmxError, FieldId, FileId, Record, RecordKey, Result, Schema, Value};

use crate::access::{KeyRange, ScanOps};
use crate::context::ExecCtx;
use crate::cost::PathChoice;
use crate::descriptor::RelationDescriptor;
use crate::logged_tree::Replay;
use crate::services::CommonServices;

/// What a storage method's salvage scan recovered from a damaged
/// instance: every readable record plus an accounting of the pages it
/// could not read (the "lost" report the repair pipeline surfaces).
#[derive(Debug, Clone, PartialEq)]
pub struct SalvagedRecords {
    /// Readable records in record-key order.
    pub records: Vec<(RecordKey, Vec<Value>)>,
    /// Pages skipped because they failed checksum verification even
    /// after the buffer manager's retries.
    pub pages_lost: u64,
    /// Pages read and decoded successfully.
    pub pages_read: u64,
}

/// A relation storage method: one implementation per *type*, registered
/// in the storage-method procedure vector; per-instance state lives in
/// the extension-interpreted `sm_desc` bytes of the relation descriptor
/// and in storage files.
pub trait StorageMethod: Send + Sync {
    /// The type's registered name (used in DDL: `… USING <name>`).
    fn name(&self) -> &str;

    /// Creates a relation instance (allocating files etc.), returning the
    /// storage-method descriptor bytes to embed in the relation
    /// descriptor. The one reader of the DDL attribute list ("storage
    /// method … implementations supply generic operations to validate
    /// and process the attribute lists"): it checks and parses `params`
    /// **before** it allocates anything, so a rejected list leaves
    /// nothing behind.
    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        schema: &Schema,
        params: &AttrList,
    ) -> Result<Vec<u8>>;

    /// Physically releases an instance's storage. Called *deferred* (at
    /// commit of the dropping transaction, or re-driven at restart), so it
    /// must be idempotent.
    fn destroy_instance(&self, services: &Arc<CommonServices>, sm_desc: &[u8]) -> Result<()>;

    /// Inserts a record, returning the record key the storage method
    /// assigned. Must log undo information first (unless
    /// [`StorageMethod::is_recoverable`] is false).
    fn insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        record: &Record,
    ) -> Result<RecordKey>;

    /// Replaces the record at `key`, which is `old`, by `new`, returning
    /// the (possibly new) record key — key-forming storage methods
    /// relocate records whose key fields changed. The dispatcher has read
    /// `old` under `key`'s record X lock and answered an absent record
    /// itself, so the record exists and is `old`: the method does not
    /// read it again, and logs `old`'s encoding as its before-image.
    fn update(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        old: &Record,
        new: &Record,
    ) -> Result<RecordKey>;

    /// Deletes the record at `key`, which is `old` — read, locked and
    /// known to exist as for [`StorageMethod::update`].
    fn delete(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        old: &Record,
    ) -> Result<()>;

    /// Direct-by-key access: returns selected fields of the record at
    /// `key` (all fields when `fields` is `None`), after applying the
    /// filter predicate against the buffer-resident record. `Ok(None)`
    /// when the record does not exist or fails the filter.
    fn fetch(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        fields: Option<&[FieldId]>,
        pred: Option<&Expr>,
    ) -> Result<Option<Vec<Value>>>;

    /// Opens a key-sequential access over a record-key range with early
    /// filtering and projection.
    fn open_scan(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        range: KeyRange,
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
    ) -> Result<Box<dyn ScanOps>>;

    /// Cost estimation: how this storage method would satisfy an access
    /// constrained by `preds` ("access path zero"). `preds` may contain
    /// `field = $n`, a join's outer value ([`crate::cost`]): a keyed
    /// method — one that hands its key fields to
    /// [`KeyMatch::of`](crate::KeyMatch::of) — answers it on its leading
    /// key field with
    /// [`AccessQuery::KeyEqualsParam`](crate::AccessQuery::KeyEqualsParam)
    /// (opened as the `KeyEquals` prefix range); for any other,
    /// [`PathChoice::full_scan`] applies it like every pushed-down
    /// predicate, with the value in it by the time the scan is opened.
    fn estimate(&self, rd: &RelationDescriptor, preds: &[Expr]) -> PathChoice;

    /// Replays a logged operation: `dir` says whether rollback / abort /
    /// restart's undo takes it back or restart's redo pass re-applies it,
    /// and carries the token a changed page is taken against — the
    /// compensation record's for an undo, the record's own for a redo.
    /// `lsn` is the replayed record's LSN, for page-LSN idempotency
    /// checks: under steal/no-force a loser's change may never have
    /// reached disk (undo must verify the operation actually applied), a
    /// committed one may have missed it while other pages of the same
    /// operation were stolen (redo skips pages whose LSN is already ≥
    /// `lsn`), restart repeats every compensation (a page that carries
    /// the CLR's LSN, [`dmx_wal::Compensation::repeated`], has it
    /// already), and restart may crash and repeat any of it.
    /// Non-recoverable storage and methods whose durable state lives
    /// outside the buffer pool (foreign) have nothing to redo and nothing
    /// to repeat.
    fn replay(
        &self,
        services: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        lsn: dmx_types::Lsn,
        dir: Replay<'_>,
        op: u8,
        payload: &[u8],
    ) -> Result<()>;

    /// False for non-recoverable storage (the temporary storage method):
    /// operations are not logged and instances vanish at restart.
    fn is_recoverable(&self) -> bool {
        true
    }

    /// Page types this storage method allows the buffer pool to evict
    /// dirty (steal), because its redo/undo fully reconciles them at
    /// restart. Default empty: the method's pages stay no-steal and a
    /// pool full of its dirty pages reports `BufferFull`.
    fn stealable_page_types(&self) -> &[u8] {
        &[]
    }

    /// The disk files backing an instance, for the integrity scrubber's
    /// checksum page walk. Default empty: the instance is not page-backed
    /// (memory, foreign, system relations) and scrub has nothing to
    /// verify below the scan interface.
    fn storage_files(&self, sm_desc: &[u8]) -> Vec<FileId> {
        let _ = sm_desc;
        Vec::new()
    }

    /// Best-effort recovery scan over a damaged instance: reads every
    /// page, skips the ones that fail verification, and returns whatever
    /// records are still decodable. Unlike [`StorageMethod::open_scan`]
    /// this must tolerate [`DmxError::Corrupt`] per page instead of
    /// failing the whole scan. Default: unsupported — the repair pipeline
    /// reports such relations as terminally damaged.
    fn salvage(&self, ctx: &ExecCtx<'_>, rd: &RelationDescriptor) -> Result<SalvagedRecords> {
        let _ = (ctx, rd);
        Err(DmxError::Unsupported(format!(
            "storage method {} does not support salvage",
            self.name()
        )))
    }
}
