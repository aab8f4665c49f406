//! The core's [`UndoHandler`]: dispatching recovery work to extensions.
//!
//! The common recovery log "is used to drive the storage method and
//! attachment implementations to undo the partial effects" of aborted
//! work. This module routes each logged extension operation back to its
//! extension through the procedure vectors, and re-drives committed
//! deferred intents (physical drops, catalog images) at restart.

use std::sync::Arc;

use dmx_types::sync::Mutex;
use dmx_types::{Appended, DmxError, Lsn, RelationId, Result, TxnId};
use dmx_wal::{Compensation, ExtKind, LogBody, LogManager, LogRecord, UndoHandler};

use crate::catalog::Catalog;
use crate::logged_tree::Replay;
use crate::registry::ExtensionRegistry;
use crate::services::CommonServices;

const INTENT_DROP_SM: u8 = 1;
const INTENT_DROP_ATT: u8 = 2;
const INTENT_CATALOG: u8 = 3;

/// Encodes a deferred drop of a storage-method instance.
pub fn encode_drop_sm_intent(sm: dmx_types::SmTypeId, sm_desc: &[u8]) -> Vec<u8> {
    let mut v = vec![INTENT_DROP_SM, sm.0];
    v.extend_from_slice(sm_desc);
    v
}

/// Encodes a deferred drop of an attachment instance.
pub fn encode_drop_att_intent(att: dmx_types::AttTypeId, inst_desc: &[u8]) -> Vec<u8> {
    let mut v = vec![INTENT_DROP_ATT, att.0];
    v.extend_from_slice(inst_desc);
    v
}

/// Encodes a catalog-image persist intent.
pub fn encode_catalog_intent(image: &[u8]) -> Vec<u8> {
    let mut v = vec![INTENT_CATALOG];
    v.extend_from_slice(image);
    v
}

/// True when `rec` is a deferred intent carrying a catalog image — the
/// kind restart can use to reconstruct a damaged on-disk catalog file.
pub(crate) fn is_catalog_intent(rec: &LogRecord) -> bool {
    matches!(&rec.body, LogBody::DeferredIntent { payload }
        if payload.first() == Some(&INTENT_CATALOG))
}

/// The handler the recovery driver calls into.
pub struct UndoDispatch {
    pub registry: Arc<ExtensionRegistry>,
    pub catalog: Arc<Catalog>,
    pub services: Arc<CommonServices>,
    /// Relations whose attachment undo hit persistent corruption. The
    /// undo is treated as complete (a CLR is written) because attachment
    /// state is derivable: the caller drains this list and quarantines
    /// each relation so the repair pipeline rebuilds the attachment
    /// instead of recovery failing outright.
    damaged: Mutex<Vec<(RelationId, String)>>,
}

impl UndoDispatch {
    pub fn new(
        registry: Arc<ExtensionRegistry>,
        catalog: Arc<Catalog>,
        services: Arc<CommonServices>,
    ) -> Self {
        UndoDispatch {
            registry,
            catalog,
            services,
            damaged: Mutex::new(Vec::new()),
        }
    }

    /// Drains the relations whose attachment undo found corrupt state.
    pub fn take_damaged(&self) -> Vec<(RelationId, String)> {
        std::mem::take(&mut *self.damaged.lock())
    }

    /// Routes a logged extension operation back to the extension that
    /// wrote it, through the procedure vectors.
    fn replay(&self, rec: &LogRecord, dir: Replay<'_>) -> Result<()> {
        let LogBody::ExtOp {
            ext,
            relation,
            op,
            payload,
        } = &rec.body
        else {
            return Ok(());
        };
        // A relation missing from the catalog. Undo: the same transaction
        // created it (loser DDL, never persisted) — its state is being
        // discarded wholesale, so record-level undo is moot. Redo: the op
        // belongs to a committed transaction, so a *later* committed
        // transaction dropped it — its deferred drop already released the
        // storage, and replaying into freed files would be wrong.
        // (Restart re-drives committed catalog-image intents before the
        // redo pass, so committed CREATEs are visible there.)
        let Ok(rd) = self.catalog.get(*relation) else {
            return Ok(());
        };
        let res = match ext {
            ExtKind::Storage(id) => {
                self.registry
                    .storage(*id)?
                    .replay(&self.services, &rd, rec.lsn, dir, *op, payload)
            }
            ExtKind::Attachment(id) => self.registry.attachment(*id)?.replay(
                &self.services,
                &rd,
                rec.lsn,
                dir,
                *op,
                payload,
            ),
        };
        match res {
            // Corrupt state blocks replay into this relation only: note
            // it for quarantine, report the record as replayed and keep
            // going. Attachment state is derivable from the base, so a
            // rebuild beats a failed restart in either direction; a
            // storage method's committed ops remain in the log, so
            // quarantine-and-repair beats failing the whole database
            // open over one rotten relation. Storage *undo* alone gets
            // no such tolerance — base state is not derivable from
            // anything, and an un-undone loser would silently stand.
            Err(DmxError::Corrupt(reason))
                if matches!(dir, Replay::Redo(_)) || matches!(ext, ExtKind::Attachment(_)) =>
            {
                self.damaged.lock().push((*relation, reason));
                Ok(())
            }
            other => other,
        }
    }
}

impl UndoHandler for UndoDispatch {
    fn undo(&self, rec: &LogRecord, clr: &Compensation<'_>) -> Result<()> {
        self.replay(rec, Replay::Undo(clr))
    }

    /// The record handed over is its own token: it is in the log.
    fn redo(&self, rec: &LogRecord) -> Result<()> {
        self.replay(rec, Replay::Redo(Appended::by_log(rec.lsn)))
    }

    fn redo_deferred(&self, rec: &LogRecord) -> Result<()> {
        let LogBody::DeferredIntent { payload } = &rec.body else {
            return Ok(());
        };
        let Some((&tag, body)) = payload.split_first() else {
            return Err(DmxError::Corrupt("empty deferred intent".into()));
        };
        match tag {
            INTENT_DROP_SM => {
                let (&id, desc) = body
                    .split_first()
                    .ok_or_else(|| DmxError::Corrupt("short drop intent".into()))?;
                let sm = self.registry.storage(dmx_types::SmTypeId(id))?;
                tolerate_missing(sm.destroy_instance(&self.services, desc))
            }
            INTENT_DROP_ATT => {
                let (&id, desc) = body
                    .split_first()
                    .ok_or_else(|| DmxError::Corrupt("short drop intent".into()))?;
                let att = self.registry.attachment(dmx_types::AttTypeId(id))?;
                tolerate_missing(att.destroy_instance(&self.services, desc))
            }
            INTENT_CATALOG => {
                Catalog::write_image(&self.services.disk, body)?;
                self.catalog.restore(body)
            }
            other => Err(DmxError::Corrupt(format!("bad intent tag {other}"))),
        }
    }
}

/// "Released, or already gone": destroys must be idempotent — at
/// restart, or after an earlier attempt, the files may not be there.
pub fn tolerate_missing(r: Result<()>) -> Result<()> {
    match r {
        Err(DmxError::NotFound(_)) => Ok(()),
        other => other,
    }
}

/// The commit-time half of a deferred drop: with what the intent at
/// `intent_lsn` names `destroyed` (or already gone), the intent is logged
/// done, so restart does not release it again.
pub(crate) fn finish_deferred(
    log: &LogManager,
    txn: TxnId,
    intent_lsn: Lsn,
    destroyed: Result<()>,
) -> Result<()> {
    tolerate_missing(destroyed)?;
    log.append(txn, Lsn::NULL, LogBody::DeferredDone { intent_lsn });
    Ok(())
}
