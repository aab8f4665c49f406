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
//! One implementation per attachment *type*; the dispatcher makes **one
//! call** per relation modification, [`Attachment::on_modify`], passing
//! every instance of the type defined on the relation and the paper's
//! "(record key, old record, new record)" as one [`Modification`]:
//! an insert has only a new side, a delete only an old side, an update
//! both (under two record keys when the storage method relocated the
//! record). The rule every implementation follows is *old side out
//! before new side in*.

use std::sync::Arc;

use dmx_expr::Expr;
use dmx_types::{AttrList, DmxError, FileId, Record, RecordKey, Result};

use crate::access::{AccessQuery, ScanOps};
use crate::context::ExecCtx;
use crate::cost::PathChoice;
use crate::descriptor::{AttachmentInstance, RelationDescriptor};
use crate::logged_tree::{self, Replay, TreeFile};
use crate::services::CommonServices;
use crate::undo::tolerate_missing;

/// The attributes the engine assigns an instance at CREATE, which no DDL
/// list may name: `file` and `root`, the trees the instance allocated or
/// adopted ([`TreeFile::assign`]), and `relation`, the id a constraint
/// across relations resolved its other relation's name to. `REPAIR`
/// hands an instance's stored list without them back to
/// [`Attachment::create_instance`].
pub const ASSIGNED_KEYS: [&str; 3] = ["file", "root", "relation"];

/// One relation modification as attachments see it: the record as it
/// was (`old`) and as it is now (`new`), each under the record key it
/// lives at. Built only by [`Modification::insert`],
/// [`Modification::update`] and [`Modification::delete`], so at least one
/// side is always present.
#[derive(Debug, Clone, Copy)]
pub struct Modification<'a> {
    old: Option<(&'a RecordKey, &'a Record)>,
    new: Option<(&'a RecordKey, &'a Record)>,
}

impl<'a> Modification<'a> {
    /// `new` appeared at `key`.
    pub fn insert(key: &'a RecordKey, new: &'a Record) -> Self {
        Modification {
            old: None,
            new: Some((key, new)),
        }
    }

    /// `old` at `old_key` became `new` at `new_key` (the keys differ when
    /// the storage method relocated the record).
    pub fn update(
        old_key: &'a RecordKey,
        old: &'a Record,
        new_key: &'a RecordKey,
        new: &'a Record,
    ) -> Self {
        Modification {
            old: Some((old_key, old)),
            new: Some((new_key, new)),
        }
    }

    /// `old` disappeared from `key`.
    pub fn delete(key: &'a RecordKey, old: &'a Record) -> Self {
        Modification {
            old: Some((key, old)),
            new: None,
        }
    }

    /// The record before the modification; `None` for an insert.
    pub fn old(&self) -> Option<(&'a RecordKey, &'a Record)> {
        self.old
    }

    /// The record after the modification; `None` for a delete. (The
    /// accessor beside [`Modification::old`], not a constructor.)
    #[allow(clippy::new_ret_no_self)]
    pub fn new(&self) -> Option<(&'a RecordKey, &'a Record)> {
        self.new
    }

    /// `"insert"`, `"update"` or `"delete"`: what a trigger's `on=` list
    /// and a hook's `event` name.
    pub fn event(&self) -> &'static str {
        match (self.old, self.new) {
            (None, _) => "insert",
            (Some(_), Some(_)) => "update",
            (Some(_), None) => "delete",
        }
    }

    /// Where the record is afterwards, or where it was when it is gone:
    /// the key a trigger reports and a deferred check re-fetches.
    pub fn key(&self) -> &'a RecordKey {
        match (self.new, self.old) {
            (Some((key, _)), _) | (None, Some((key, _))) => key,
            (None, None) => unreachable!("a modification has a side"),
        }
    }
}

/// An attachment type: access path, integrity constraint or trigger.
pub trait Attachment: Send + Sync {
    /// The type's registered name (used in DDL: `CREATE ATTACHMENT …
    /// USING <name>` / `CREATE INDEX … USING <name>`).
    fn name(&self) -> &str;

    /// Creates an instance on `rd` (allocating any associated storage —
    /// attachments "may have associated storage", unlike mere triggers)
    /// and returns its descriptor: `params` as given, plus what the engine
    /// assigned under [`ASSIGNED_KEYS`] (its trees, say). The catalog
    /// stores that list; the type's one parser reads it once per catalog
    /// version ([`AttachmentInstance::parsed`]), and `REPAIR` hands it
    /// back here without the assigned keys. The one validator of the DDL
    /// list: it checks `params` **before** it allocates anything, so a
    /// rejected list leaves nothing behind (a list naming an assigned key
    /// is refused before it gets here). The common system then fills the
    /// instance from the relation's existing records through
    /// [`Attachment::build`].
    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        name: &str,
        params: &AttrList,
    ) -> Result<AttrList>;

    /// Physically releases an instance's storage; deferred to commit, so
    /// it must be idempotent. The default destroys the trees its stored
    /// list names ([`TreeFile::named_in`]).
    fn destroy_instance(&self, services: &Arc<CommonServices>, inst_desc: &[u8]) -> Result<()> {
        TreeFile::named_in(&AttrList::decode(inst_desc)?)?
            .into_iter()
            .try_for_each(|tree| tolerate_missing(tree.destroy(services)))
    }

    /// The side effect of one relation modification on every instance
    /// of this type: called once, after the storage method has made the
    /// change `m` describes. `Err` (typically [`DmxError::Veto`]) aborts
    /// the relation operation, which the common recovery facility then
    /// partially rolls back.
    ///
    /// An access path derives its entry from each present side, does
    /// nothing when the two are equal ("detect when no indexed fields …
    /// are modified"), and otherwise takes the old side's entry out
    /// **before** it puts the new side's in; a maintained cell subtracts
    /// the old side, then adds the new one. A constraint reads the side
    /// it judges.
    fn on_modify(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        m: &Modification<'_>,
    ) -> Result<()>;

    /// Fills the instance `inst` that [`Attachment::create_instance`] just
    /// made from `records`, every record the relation holds under its
    /// record key. The common system calls it once, with the instance in
    /// the catalog, and nothing the build writes into the instance's own
    /// [`Attachment::storage_files`] is logged ([`crate::logged_tree`]'s
    /// build token): the DDL's commit force-writes those files, and a
    /// rollback to before the DDL, or a crash before its commit, releases
    /// the instance whole. What it writes anywhere else (a trigger's rows,
    /// say) is logged as usual. `Err` fails the DDL statement like a veto.
    ///
    /// The default drives [`Attachment::on_modify`] with each record as an
    /// insert; a type that can compute its state in one pass overrides it.
    fn build(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        inst: &AttachmentInstance,
        records: &[(RecordKey, Record)],
    ) -> Result<()> {
        let instances = std::slice::from_ref(inst);
        records.iter().try_for_each(|(key, record)| {
            self.on_modify(ctx, rd, instances, &Modification::insert(key, record))
        })
    }

    /// Replays a logged operation: `dir` says whether rollback / restart's
    /// undo takes it back or restart's redo pass re-applies it (under
    /// no-force a committed side effect may never have reached disk), and
    /// carries the token what it changes is stamped with. Must be
    /// idempotent in both directions — presence-checked or page-LSN-guarded
    /// against `lsn`, the replayed record's LSN.
    ///
    /// The default reads back what [`crate::LoggedTree::apply`] wrote: the
    /// record names its B-tree ([`TreeFile::named_by`]) and
    /// [`logged_tree::replay`] installs the image `dir` picks. A type that
    /// logs nothing never gets here; only a writer of another record
    /// shape overrides. Anything else fails loudly: a payload that is not
    /// a tree change, or names no B-tree, is [`DmxError::Corrupt`], and
    /// recovery quarantines the relation.
    fn replay(
        &self,
        services: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        lsn: dmx_types::Lsn,
        dir: Replay<'_>,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        let _ = (rd, lsn);
        let (file, change) = TreeFile::named_by(payload)?;
        logged_tree::replay(&file.open_tree(services), dir, op, change).map(drop)
    }

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

    /// Offers a freshly scanned full image of the base relation, as
    /// [`Attachment::build`] gets it, so the attachment can rebuild
    /// derived state *exactly* (`ANALYZE TABLE` drives this for every
    /// attachment type on the relation). Returns `true` when the
    /// attachment rebuilt something, `false` when the offer is irrelevant
    /// to it (the default — indexes are already exact by construction).
    fn analyze(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        records: &[(RecordKey, Record)],
    ) -> Result<bool> {
        let _ = (ctx, rd, instances, records);
        Ok(false)
    }

    // ------------------------------------------------------------------
    // Access-path side (optional). Integrity constraints and triggers
    // keep the defaults.
    // ------------------------------------------------------------------

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
    /// will recognize the ENCLOSES predicate"). A path keyed on fields
    /// states them and asks [`crate::KeyMatch::of`]. One that can look a
    /// key up thereby answers `field = $n` (a join's outer value, see
    /// [`crate::cost`]) with [`AccessQuery::KeyEqualsParam`] and so
    /// becomes eligible as a join's inner side; its `open_scan` then
    /// receives the bound [`AccessQuery::KeyEquals`].
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
    /// walk. The default reads the files its stored list names: none for
    /// checks and triggers.
    fn storage_files(&self, inst_desc: &[u8]) -> Vec<FileId> {
        AttrList::decode(inst_desc)
            .and_then(|attrs| TreeFile::named_in(&attrs))
            .map(|trees| trees.iter().map(|t| t.file).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
// The unit tests build raw disks or logs beneath the fault injector.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::time::Duration;

    use dmx_lock::LockManager;
    use dmx_page::{BufferPool, DiskManager, MemDisk};
    use dmx_types::bytes::put_varint;
    use dmx_types::{Appended, ColumnDef, DataType, Lsn, RelationId, Schema, SmTypeId, Value};
    use dmx_wal::{Compensation, LogManager, LogRecord, StableLog};

    use crate::logged_tree::OP_INSERT;

    /// An attachment that writes only what is its own: no `replay`.
    struct Plain;

    impl Attachment for Plain {
        fn name(&self) -> &str {
            "plain"
        }
        fn create_instance(
            &self,
            _: &ExecCtx<'_>,
            _: &RelationDescriptor,
            _: &str,
            params: &AttrList,
        ) -> Result<AttrList> {
            Ok(params.clone())
        }
        fn on_modify(
            &self,
            _: &ExecCtx<'_>,
            _: &RelationDescriptor,
            _: &[AttachmentInstance],
            _: &Modification<'_>,
        ) -> Result<()> {
            Ok(())
        }
    }

    /// The default `replay` installs what `LoggedTree::apply` writes and
    /// nothing else: a payload that is not a tree change, or that names a
    /// file holding no B-tree, is `Corrupt` in both directions — never a
    /// silent `Ok`.
    #[test]
    fn the_default_replay_installs_tree_changes_and_refuses_anything_else() {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 16);
        let log = Arc::new(LogManager::open(StableLog::new()));
        let locks = Arc::new(LockManager::new(Duration::from_secs(1)));
        let services = CommonServices::new(disk.clone(), pool.clone(), log, locks);
        let schema = Schema::new(vec![ColumnDef::new("x", DataType::Int)]).unwrap();
        let rd = RelationDescriptor::new(RelationId(1), "t", schema, SmTypeId(1), Vec::new());
        let replay =
            |payload: &[u8], op, dir| Plain.replay(&services, &rd, Lsn::NULL, dir, op, payload);
        let clr = Compensation::repeating(&LogRecord {
            lsn: Lsn(2),
            prev_lsn: Lsn(1),
            txn: dmx_types::TxnId(1),
            body: dmx_wal::LogBody::Clr {
                undo_next: Lsn::NULL,
            },
        });
        let redo = Replay::Redo(Appended::UNLOGGED);

        let tree = TreeFile::create(&services).unwrap();
        // `varint file ∥ varint root page`, then `u16 len(key) ∥ key ∥ value`
        let named = |t: TreeFile| {
            let mut name = Vec::new();
            put_varint(&mut name, t.file.0.into());
            put_varint(&mut name, t.root_page.into());
            name
        };
        let insert_k = |t: TreeFile| [named(t), vec![1, 0, b'k', b'v']].concat();
        replay(&insert_k(tree), OP_INSERT, redo).unwrap();
        let got = tree.open_tree(&services).get(b"k").unwrap();
        assert_eq!(got.as_deref(), Some(&b"v"[..]));

        // a file whose root is no B-tree node (a heap page, say)
        let heap = TreeFile {
            file: disk.create_file().unwrap(),
            root_page: 0,
        };
        drop(pool.new_page(heap.file).unwrap());
        let cases = [
            ("empty payload", Vec::new(), OP_INSERT),
            ("short tree name", vec![1, 0x80], OP_INSERT),
            ("unknown op", insert_k(tree), 9),
            (
                "truncated key",
                [named(tree), vec![9, 0, b'k']].concat(),
                OP_INSERT,
            ),
            ("no B-tree in the named file", insert_k(heap), OP_INSERT),
        ];
        for (what, payload, op) in cases {
            for dir in [Replay::Undo(&clr), redo] {
                let res = replay(&payload, op, dir);
                assert!(
                    matches!(res, Err(DmxError::Corrupt(_))),
                    "{what}, {dir:?}: {res:?}"
                );
            }
        }
    }

    #[test]
    fn modification_has_three_shapes_and_reports_where_the_record_is() {
        let (k1, k2) = (RecordKey::new(vec![1]), RecordKey::new(vec![2]));
        let (r1, r2) = (
            Record::new(vec![Value::Int(1)]),
            Record::new(vec![Value::Int(2)]),
        );

        let m = Modification::insert(&k1, &r1);
        assert_eq!((m.old(), m.new()), (None, Some((&k1, &r1))));
        assert_eq!((m.event(), m.key()), ("insert", &k1));

        // A relocating update: the record is at the new side's key.
        let m = Modification::update(&k1, &r1, &k2, &r2);
        assert_eq!((m.old(), m.new()), (Some((&k1, &r1)), Some((&k2, &r2))));
        assert_eq!((m.event(), m.key()), ("update", &k2));

        // Gone: the key it was at.
        let m = Modification::delete(&k2, &r2);
        assert_eq!((m.old(), m.new()), (Some((&k2, &r2)), None));
        assert_eq!((m.event(), m.key()), ("delete", &k2));
    }
}
