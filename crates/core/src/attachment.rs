//! The generic attachment interface.
//!
//! "Attachments, like storage methods, must support a well-defined set of
//! operations. Unlike storage methods, however, attachment modification
//! operations are not directly invoked by the data management facility
//! user. Instead, attachment modification interfaces are invoked only as
//! side effects of modification operations on relations. … Any attachment
//! can abort the relation operation if the operation violates any
//! restrictions of the attachment." Access-path attachments additionally
//! "supply a mapping from an input key to a record key" and support
//! direct-by-key and key-sequential accesses plus cost estimation.
//!
//! One implementation per attachment *type*; the dispatcher invokes each
//! type **once** per relation modification, passing every instance of the
//! type defined on the relation.

use std::sync::Arc;

use dmx_expr::Expr;
use dmx_types::{AttrList, DmxError, FileId, Record, RecordKey, Result, Schema};

use crate::access::{AccessQuery, ScanOps};
use crate::context::ExecCtx;
use crate::cost::PathChoice;
use crate::descriptor::{AttachmentInstance, RelationDescriptor};
use crate::logged_tree::Replay;
use crate::services::CommonServices;

/// An attachment type: access path, integrity constraint or trigger.
pub trait Attachment: Send + Sync {
    /// The type's registered name (used in DDL: `CREATE ATTACHMENT …
    /// USING <name>` / `CREATE INDEX … USING <name>`).
    fn name(&self) -> &str;

    /// Validates an extension attribute/value list at DDL parse time.
    fn validate_params(&self, params: &AttrList, schema: &Schema) -> Result<()>;

    /// Creates an instance on `rd` (allocating any associated storage —
    /// attachments "may have associated storage", unlike mere triggers),
    /// returning the instance descriptor bytes. The common system
    /// backfills existing records by driving [`Attachment::on_insert`]
    /// afterwards.
    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        name: &str,
        params: &AttrList,
    ) -> Result<Vec<u8>>;

    /// Physically releases an instance's storage; deferred to commit, so
    /// it must be idempotent.
    fn destroy_instance(&self, services: &Arc<CommonServices>, inst_desc: &[u8]) -> Result<()>;

    /// Side effect of a record insert. `Err` (typically
    /// [`DmxError::Veto`]) aborts the relation operation, which the
    /// common recovery facility then partially rolls back.
    fn on_insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        key: &RecordKey,
        new: &Record,
    ) -> Result<()>;

    /// Side effect of a record update. `old_key`/`new_key` differ when
    /// the storage method relocated the record.
    #[allow(clippy::too_many_arguments)]
    fn on_update(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        old_key: &RecordKey,
        new_key: &RecordKey,
        old: &Record,
        new: &Record,
    ) -> Result<()>;

    /// Side effect of a record delete.
    fn on_delete(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        key: &RecordKey,
        old: &Record,
    ) -> Result<()>;

    /// Replays a logged operation: `dir` says whether rollback / restart's
    /// undo pass takes it back or restart's redo pass re-applies it
    /// (under no-force a committed side effect may never have reached
    /// disk). Must be idempotent in both directions — presence-checked or
    /// page-LSN-guarded against `lsn`, the replayed record's LSN.
    /// Attachments without storage (checks, triggers, referential
    /// constraints) answer `Ok(())`: their effects are vetoes, not state.
    fn replay(
        &self,
        services: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        lsn: dmx_types::Lsn,
        dir: Replay,
        op: u8,
        payload: &[u8],
    ) -> Result<()>;

    /// Called once per instance when a database (re)opens, after restart
    /// recovery, so attachments that publish derived *in-memory* state
    /// (e.g. the statistics attachment's planner snapshot) can hydrate it
    /// from their durable storage before the first query plans. Default
    /// no-op. Failures are non-fatal to the open — the instance simply
    /// stays un-hydrated and the scrub/repair pipeline deals with any
    /// real corruption.
    fn activate(
        &self,
        services: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
    ) -> Result<()> {
        let _ = (services, rd, instance);
        Ok(())
    }

    /// The inverse of [`Attachment::activate`]: called when an instance
    /// is dropped, so attachment-published in-memory state is retracted
    /// immediately (the physical storage release stays deferred to
    /// commit). Default no-op.
    fn deactivate(&self, rd: &RelationDescriptor, instance: &AttachmentInstance) {
        let _ = (rd, instance);
    }

    /// Offers a freshly scanned full image of the base relation so the
    /// attachment can rebuild derived state *exactly* (`ANALYZE TABLE`
    /// drives this for every attachment type on the relation). Returns
    /// `true` when the attachment rebuilt something, `false` when the
    /// offer is irrelevant to it (the default — indexes are already
    /// exact by construction).
    fn analyze(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        records: &[Record],
    ) -> Result<bool> {
        let _ = (ctx, rd, instances, records);
        Ok(false)
    }

    // ------------------------------------------------------------------
    // Access-path side (optional). Integrity constraints and triggers
    // keep the defaults.
    // ------------------------------------------------------------------

    /// True when instances of this type can serve data accesses.
    fn supports_access(&self) -> bool {
        false
    }

    /// Opens a key-sequential access over the path. Items carry the
    /// mapped storage-method record keys and, for covering paths, field
    /// values decoded from the access-path key.
    fn open_scan(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        query: &AccessQuery,
    ) -> Result<Box<dyn ScanOps>> {
        let _ = (ctx, rd, instance, query);
        Err(DmxError::Unsupported(format!(
            "attachment {} is not an access path",
            self.name()
        )))
    }

    /// Cost estimation: `None` when no eligible predicate is relevant to
    /// this instance ("the B-tree access path will return a low cost if
    /// there is a predicate on the key of the B-tree, and the R-tree …
    /// will recognize the ENCLOSES predicate").
    fn estimate(
        &self,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        preds: &[Expr],
    ) -> Option<PathChoice> {
        let _ = (rd, instance, preds);
        None
    }

    /// The disk files backing an instance ("attachments may have
    /// associated storage"), for the integrity scrubber's checksum page
    /// walk. Default empty: no associated storage (checks, triggers).
    fn storage_files(&self, inst_desc: &[u8]) -> Vec<FileId> {
        let _ = inst_desc;
        Vec::new()
    }

    /// Reconstructs the DDL attribute list that would re-create this
    /// instance, so the repair pipeline can rebuild a damaged attachment
    /// from its base relation through the *ordinary* registration path
    /// (create instance + backfill). Default: unsupported — the instance
    /// cannot be rebuilt automatically.
    fn reconstruct_params(&self, rd: &RelationDescriptor, inst_desc: &[u8]) -> Result<AttrList> {
        let _ = (rd, inst_desc);
        Err(DmxError::Unsupported(format!(
            "attachment {} cannot reconstruct its creation parameters",
            self.name()
        )))
    }
}
