//! The core's [`UndoHandler`]: dispatching recovery work to extensions.
//!
//! The common recovery log "is used to drive the storage method and
//! attachment implementations to undo the partial effects" of aborted
//! work. This module routes each logged extension operation back to its
//! extension through the procedure vectors — and the catalog's own
//! records to the catalog, which installs them in its tree and its map,
//! releasing a relation or an instance whose entering record it takes
//! back — and re-drives committed deferred intents (physical drops) at
//! restart.

use std::sync::Arc;

use dmx_types::sync::Mutex;
use dmx_types::{Appended, DmxError, Lsn, RelationId, Result};
use dmx_wal::{Compensation, ExtKind, LogBody, LogRecord, OpRef, UndoHandler};

use crate::catalog::{Catalog, CATALOG_RELATION};
use crate::descriptor::{AttachmentInstance, RelationDescriptor};
use crate::logged_tree::{self, Change, Image, Replay, OP_INSERT};
use crate::registry::ExtensionRegistry;
use crate::services::CommonServices;

const INTENT_DROP_SM: u8 = 1;
const INTENT_DROP_ATT: u8 = 2;

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

    /// Carries out the release a deferred intent names — unless the
    /// catalog holds the instance again, its DROP rolled back to a
    /// savepoint — tolerating storage already gone.
    pub(crate) fn release(&self, payload: &[u8]) -> Result<()> {
        let [tag, id, desc @ ..] = payload else {
            return Err(DmxError::Corrupt("short deferred intent".into()));
        };
        let held = |rd: &Arc<crate::RelationDescriptor>| match *tag {
            INTENT_DROP_SM => rd.sm.0 == *id && *rd.sm_desc == *desc,
            _ => rd
                .attachment_instances(dmx_types::AttTypeId(*id))
                .is_some_and(|insts| insts.iter().any(|inst| *inst.desc == *desc)),
        };
        if self.catalog.list().iter().any(held) {
            return Ok(());
        }
        tolerate_missing(match *tag {
            INTENT_DROP_SM => self
                .registry
                .storage(dmx_types::SmTypeId(*id))?
                .destroy_instance(&self.services, desc),
            INTENT_DROP_ATT => self
                .registry
                .attachment(dmx_types::AttTypeId(*id))?
                .destroy_instance(&self.services, desc),
            other => Err(DmxError::Corrupt(format!("bad intent tag {other}"))),
        })
    }

    /// Undoing the catalog record that entered a relation or an
    /// attachment instance — a rollback to before its DDL, or restart's
    /// undo of a creator that never committed — releases it: an
    /// instance's published state is retracted, and the storage is
    /// destroyed. Its bootstrap and an instance's build logged nothing to
    /// undo, and nothing else names the relation or the instance any
    /// more. The id high-water mark releases nothing.
    fn release_entered(&self, change: &[u8]) -> Result<()> {
        let change = Change::decode(OP_INSERT, change)?;
        let Image::Set(Some(record)) = change.after(None) else {
            return Ok(());
        };
        if change.key.len() == 4 {
            if change.key == CATALOG_RELATION.0.to_be_bytes() {
                return Ok(());
            }
            let header = [(change.key.to_vec(), record.into_owned())];
            let rd = RelationDescriptor::from_records(&header)?;
            return self.release(&encode_drop_sm_intent(rd.sm, &rd.sm_desc));
        }
        let Some((relation, inst)) = AttachmentInstance::from_record(change.key, &record)? else {
            return Ok(());
        };
        if let Ok(rd) = self.catalog.get(relation) {
            self.registry.attachment(inst.att)?.deactivate(&rd, &inst);
        }
        self.release(&encode_drop_att_intent(inst.att, &inst.desc))
    }

    /// Routes each extension operation of `rec` back to the extension that
    /// wrote it — last to first for an undo, first to last for a redo.
    fn replay(&self, rec: &LogRecord, dir: Replay<'_>) -> Result<()> {
        let mut ops = rec.body.ext_ops();
        let replay = |op| self.replay_op(rec.lsn, op, dir);
        match dir {
            Replay::Undo(_) => ops.rev().try_for_each(replay),
            Replay::Redo(_) => ops.try_for_each(replay),
        }
    }

    /// Routes one logged extension operation of the record at `lsn` back
    /// to the extension that wrote it, through the procedure vectors.
    fn replay_op(&self, lsn: Lsn, op: OpRef<'_>, dir: Replay<'_>) -> Result<()> {
        let OpRef {
            ext,
            relation,
            op,
            payload,
        } = op;
        if relation == CATALOG_RELATION {
            logged_tree::replay(&*self.catalog, dir, op, payload)?;
            return match (dir, op) {
                (Replay::Undo(_), OP_INSERT) => self.release_entered(payload),
                _ => Ok(()),
            };
        }
        // A relation missing from the catalog at its record's time: restart
        // replays in LSN order, so a committed transaction dropped it and
        // its catalog page reached disk ahead of this replay. Its release
        // frees (or freed) the storage, and a file id is never reused, so
        // there is nothing to replay into.
        let Ok(rd) = self.catalog.get(relation) else {
            return Ok(());
        };
        let res = match ext {
            ExtKind::Storage(id) => {
                self.registry
                    .storage(id)?
                    .replay(&self.services, &rd, lsn, dir, op, payload)
            }
            ExtKind::Attachment(id) => {
                self.registry
                    .attachment(id)?
                    .replay(&self.services, &rd, lsn, dir, op, payload)
            }
        };
        match tolerate_missing(res) {
            // (A record whose storage is gone — an instance a committed
            // drop released, or one whose vetoed creation destroyed it —
            // has nothing left to replay into.)
            //
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
                self.damaged.lock().push((relation, reason));
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
        match &rec.body {
            LogBody::DeferredIntent { payload } => self.release(payload),
            _ => Ok(()),
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
