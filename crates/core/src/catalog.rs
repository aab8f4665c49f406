//! The catalog: descriptor management.
//!
//! "Instead of requiring each relation storage or access path to store
//! and access its own descriptor data, the common system will maintain
//! and manage relation descriptors. … This strategy allows the common
//! system to fetch the relation descriptors from the system catalogs at
//! query compilation time and store them in the query access plan."
//!
//! The catalog is a relation. File 1 ([`CATALOG_FILE`]) holds a B-tree,
//! root page 0, of the records `RelationDescriptor::records` spells — a
//! header per relation and one record per attachment instance, keyed by
//! big-endian relation id — and, under the catalog's own id 0, the id
//! high-water mark, so a dropped id is never reissued. DDL changes it one
//! record at a time through [`LoggedTree::apply`], and every install of a
//! record — forward, undo or redo — also rebuilds the relation's entry in
//! the in-memory map, so abort, partial rollback and restart restore the
//! catalog the way they restore data. The map is the by-id and by-name
//! cache plans and admission read (`Arc<RelationDescriptor>` snapshots);
//! the `sys.*` relations live only there, published at every open.
//!
//! Restart repeats history: the catalog's records replay in LSN order
//! among the rest, so every record is dispatched against the catalog of
//! its own time. The tree on disk is a sound start for that by one rule:
//! catalog pages reach disk only at quiescent checkpoints and after a
//! DDL's commit point. Every catalog writer holds the Catalog X lock
//! until commit, and tree pages are no-steal. So a relation missing from
//! the catalog at its record's time was dropped by a committed
//! transaction.
//!
//! A header stores its relation's counts as they were when it was
//! written. While restart replays, the header it installs is the newest
//! the log has, so its counts are set; once the database is open, a
//! header undone or rewritten keeps the live counts, which every write
//! since has moved.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dmx_btree::node::{Node, MAX_ENTRY};
use dmx_btree::{BTree, OnDuplicate};
use dmx_txn::Transaction;
use dmx_types::bytes::le_u32;
use dmx_types::sync::RwLock;
use dmx_types::{Appended, DmxError, FileId, PageId, RelationId, Result, SmTypeId};
use dmx_wal::ExtKind;

use crate::context::ExecCtx;
use crate::deps::{DepKey, DependencyRegistry};
use crate::descriptor::RelationDescriptor;
use crate::logged_tree::{LoggedTarget, LoggedTree, TreeFile};
use crate::services::CommonServices;

/// The catalog's file: the first one a fresh disk creates.
pub const CATALOG_FILE: FileId = FileId(1);

/// The catalog's own relation id: what its log records name, and the key
/// of its id high-water record.
pub(crate) const CATALOG_RELATION: RelationId = RelationId(0);

/// The writer the catalog's log records name: slot 0 of the
/// storage-method vector, which no extension takes.
pub(crate) const CATALOG_EXT: ExtKind = ExtKind::Storage(SmTypeId(0));

const TREE: TreeFile = TreeFile {
    file: CATALOG_FILE,
    root_page: 0,
};

const HIGH_WATER: [u8; 4] = CATALOG_RELATION.0.to_be_bytes();

type Records = Vec<(Vec<u8>, Vec<u8>)>;

#[derive(Default)]
struct CatState {
    relations: HashMap<RelationId, Arc<RelationDescriptor>>,
    by_name: HashMap<String, RelationId>,
    next_rel: u32,
}

/// The relation catalog.
pub struct Catalog {
    state: RwLock<CatState>,
    tree: BTree,
    deps: Arc<DependencyRegistry>,
    /// Until [`Catalog::recovered`]: a header installed sets the counts
    /// it stores.
    restarting: AtomicBool,
}

impl Catalog {
    /// The catalog of the database `services` serve: file 1 bootstrapped
    /// on a fresh disk — or where a first open crashed before its root
    /// page reached disk — and the map loaded from the tree. A damaged
    /// catalog page fails here with `Corrupt`, before anything is logged.
    pub(crate) fn open(
        services: &Arc<CommonServices>,
        deps: Arc<DependencyRegistry>,
    ) -> Result<Arc<Catalog>> {
        let disk = &services.disk;
        if !disk.file_exists(CATALOG_FILE) && disk.create_file()? != CATALOG_FILE {
            return Err(DmxError::Internal(format!(
                "catalog file is not {CATALOG_FILE}; disk not fresh?"
            )));
        }
        let root = match disk.page_count(CATALOG_FILE)? {
            0 => services.pool.new_page(CATALOG_FILE)?.into_pinned(),
            _ => services.pool.fetch(TREE.root())?,
        };
        // Page type 0 is the all-zero page of an allocation never
        // written: the tree's unlogged bootstrap, like any TreeFile's,
        // holding the high-water record every insert then replaces.
        if root.read().page_type() == 0 {
            Node::init(&mut root.write(Appended::UNLOGGED), true);
            TREE.open_tree(services)
                .with_wal_lsn(Appended::UNLOGGED)
                .insert(&HIGH_WATER, &0u32.to_le_bytes(), OnDuplicate::Error)?;
            services.pool.flush_file(CATALOG_FILE)?;
        }
        let catalog = Catalog {
            state: RwLock::new(CatState::default()),
            tree: TREE.open_tree(services),
            deps,
            restarting: AtomicBool::new(true),
        };
        let mut entries = catalog.tree.iter_all();
        while let Some((key, _)) = entries.next()? {
            if key.len() == HIGH_WATER.len() {
                catalog.reload(&key)?;
            }
        }
        Ok(Arc::new(catalog))
    }

    /// Ends restart: from now on a header installed keeps the counts of
    /// its live descriptor.
    pub(crate) fn recovered(&self) {
        self.restarting.store(false, Ordering::Relaxed);
    }

    /// Allocates the next relation id.
    pub fn next_relation_id(&self) -> RelationId {
        let mut st = self.state.write();
        st.next_rel += 1;
        RelationId(st.next_rel)
    }

    /// Enters a new relation descriptor in `ctx`'s transaction (fails on
    /// a duplicate name) and raises the id high-water mark to its id.
    pub fn insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: RelationDescriptor,
    ) -> Result<Arc<RelationDescriptor>> {
        if self.get_by_name(&rd.name).is_ok() {
            return Err(DmxError::Duplicate(format!("relation {}", rd.name)));
        }
        let id = rd.id;
        self.write(ctx.txn, ctx.db.services(), self.stored(id)?, Some(&rd))?;
        let high = self.tree.get(&HIGH_WATER)?;
        if high.as_deref().and_then(|v| le_u32(v, 0)).unwrap_or(0) < id.0 {
            LoggedTree::catalog(ctx.txn, ctx.db.services(), self).apply(
                &HIGH_WATER,
                high.as_deref(),
                Some(&id.0.to_le_bytes()),
            )?;
        }
        self.get(id)
    }

    /// Stores a relation's new descriptor version (DDL on attachments),
    /// or — the version unchanged — its current counts (`ANALYZE`). The
    /// name must be unchanged.
    pub fn replace(
        &self,
        ctx: &ExecCtx<'_>,
        rd: RelationDescriptor,
    ) -> Result<Arc<RelationDescriptor>> {
        let stored = self.stored_of(rd.id)?;
        self.write(ctx.txn, ctx.db.services(), stored, Some(&rd))?;
        self.get(rd.id)
    }

    /// Removes a relation in `ctx`'s transaction, returning its
    /// descriptor.
    pub fn remove(&self, ctx: &ExecCtx<'_>, id: RelationId) -> Result<Arc<RelationDescriptor>> {
        let rd = self.get(id)?;
        self.write(ctx.txn, ctx.db.services(), self.stored_of(id)?, None)?;
        Ok(rd)
    }

    /// Enters a descriptor in the map alone: a `sys.*` relation,
    /// published at every open and never stored.
    pub(crate) fn publish(&self, rd: RelationDescriptor) {
        let mut st = self.state.write();
        st.by_name.insert(rd.name.to_ascii_lowercase(), rd.id);
        st.relations.insert(rd.id, Arc::new(rd));
    }

    /// Rewrites, in `txn`, every stored header whose counts moved since
    /// it was written — what the clean-close checkpoint leaves the next
    /// open to cost plans with. Logs nothing when no count moved.
    pub(crate) fn store_counts(&self, txn: &Transaction, services: &CommonServices) -> Result<()> {
        for rd in self.list() {
            let stored = self.stored(rd.id)?;
            if !stored.is_empty() {
                self.write(txn, services, stored, Some(&rd))?;
            }
        }
        Ok(())
    }

    /// Descriptor by id.
    pub fn get(&self, id: RelationId) -> Result<Arc<RelationDescriptor>> {
        self.state
            .read()
            .relations
            .get(&id)
            .cloned()
            .ok_or_else(|| DmxError::NotFound(format!("relation {id}")))
    }

    /// Descriptor by name (case-insensitive).
    pub fn get_by_name(&self, name: &str) -> Result<Arc<RelationDescriptor>> {
        let st = self.state.read();
        let id = st
            .by_name
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DmxError::NotFound(format!("relation {name}")))?;
        Ok(st.relations[id].clone())
    }

    /// All descriptors, by id order.
    pub fn list(&self) -> Vec<Arc<RelationDescriptor>> {
        let st = self.state.read();
        let mut v: Vec<_> = st.relations.values().cloned().collect();
        v.sort_by_key(|rd| rd.id);
        v
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.state.read().relations.len()
    }

    /// True when no relations exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records the tree holds for relation `id`, in key order.
    fn stored(&self, id: RelationId) -> Result<Records> {
        let prefix = id.0.to_be_bytes();
        let mut cursor = self.tree.cursor_from(Bound::Included(prefix.to_vec()));
        let mut records = Vec::new();
        while let Some((key, value)) = cursor.next()? {
            if !key.starts_with(&prefix) {
                break;
            }
            records.push((key, value));
        }
        Ok(records)
    }

    /// [`Catalog::stored`] of a relation DDL may change: a published one
    /// is not.
    fn stored_of(&self, id: RelationId) -> Result<Records> {
        let rd = self.get(id)?;
        let stored = self.stored(id)?;
        if stored.is_empty() {
            return Err(DmxError::Unsupported(format!(
                "system relation {} has no stored descriptor",
                rd.name
            )));
        }
        Ok(stored)
    }

    /// The one writer: turns `stored` — what the tree holds for a
    /// relation — into the records of `rd` (`None`: none), one logged
    /// change per record that differs, in key order. A record too big
    /// for one tree entry is refused before anything is logged.
    fn write(
        &self,
        txn: &Transaction,
        services: &CommonServices,
        stored: Records,
        rd: Option<&RelationDescriptor>,
    ) -> Result<()> {
        let new: BTreeMap<Vec<u8>, Vec<u8>> = rd
            .map(|rd| rd.records().into_iter().collect())
            .unwrap_or_default();
        if let Some(len) = new
            .iter()
            .map(|(k, v)| k.len() + v.len())
            .find(|&n| n > MAX_ENTRY)
        {
            return Err(DmxError::InvalidArg(format!(
                "a descriptor record of {len} bytes exceeds one catalog entry ({MAX_ENTRY} bytes)"
            )));
        }
        let old: BTreeMap<Vec<u8>, Vec<u8>> = stored.into_iter().collect();
        let logged = LoggedTree::catalog(txn, services, self);
        for key in old.keys().chain(new.keys()).collect::<BTreeSet<_>>() {
            let (before, after) = (old.get(key), new.get(key));
            if before != after {
                logged.apply(key, before.map(Vec::as_slice), after.map(Vec::as_slice))?;
            }
        }
        Ok(())
    }

    /// Makes the map hold what the tree does for the relation `key`
    /// belongs to: its descriptor rebuilt from its records — keeping the
    /// statistics of an entry already there, with the header's counts
    /// while restarting and the live ones after — or nothing; under the
    /// catalog's own id, the id high-water mark (which never lowers the
    /// next id). A changed descriptor version invalidates the relation's
    /// plans.
    fn reload(&self, key: &[u8]) -> Result<()> {
        let id = key
            .get(..4)
            .and_then(|b| b.try_into().ok())
            .map(|b| RelationId(u32::from_be_bytes(b)))
            .ok_or_else(|| DmxError::Corrupt("short catalog key".into()))?;
        let stored = self.stored(id)?;
        let header = stored.first().filter(|(k, _)| k.len() == HIGH_WATER.len());
        let mut st = self.state.write();
        if id == CATALOG_RELATION {
            if let Some(high) = header.and_then(|(_, v)| le_u32(v, 0)) {
                st.next_rel = st.next_rel.max(high);
            }
            return Ok(());
        }
        let new = header
            .map(|_| RelationDescriptor::from_records(&stored))
            .transpose()?;
        let old = st.relations.remove(&id);
        if let Some(old) = &old {
            st.by_name.remove(&old.name.to_ascii_lowercase());
        }
        let version = new.as_ref().map(|rd| rd.version);
        if let Some(mut rd) = new {
            if let Some(old) = &old {
                if self.restarting.load(Ordering::Relaxed) {
                    let (records, pages, bytes) = rd.stats.snapshot();
                    old.stats.reset(records, pages, bytes);
                }
                rd.stats = old.stats.clone();
            }
            st.by_name.insert(rd.name.to_ascii_lowercase(), id);
            st.relations.insert(id, Arc::new(rd));
        }
        drop(st);
        if old.map(|rd| rd.version) != version {
            self.deps.invalidate(DepKey::Relation(id));
        }
        Ok(())
    }
}

/// The catalog's records install in the tree and the map alike.
impl LoggedTarget for Catalog {
    fn root(&self) -> PageId {
        self.tree.root()
    }

    fn image(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.tree.get(key)
    }

    fn install_image(&self, at: Appended, key: &[u8], image: Option<&[u8]>) -> Result<()> {
        self.tree.install_image(at, key, image)?;
        self.reload(key)
    }
}

#[cfg(test)]
// The unit tests build raw disks or logs beneath the fault injector.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use dmx_lock::LockManager;
    use dmx_page::{BufferPool, DiskManager, MemDisk, Page};
    use dmx_wal::{LogManager, StableLog};
    use std::time::Duration;

    fn services(disk: &Arc<MemDisk>) -> Arc<CommonServices> {
        let disk: Arc<dyn DiskManager> = disk.clone();
        let pool = BufferPool::new(disk.clone(), 8);
        let log = Arc::new(LogManager::open(StableLog::new()));
        let locks = Arc::new(LockManager::new(Duration::from_secs(1)));
        CommonServices::new(disk, pool, log, locks)
    }

    fn open(disk: &Arc<MemDisk>) -> Result<Arc<Catalog>> {
        Catalog::open(&services(disk), Arc::default())
    }

    /// A fresh disk gets file 1 with an empty tree rooted at page 0, on
    /// disk at once; opening it again reads what is there.
    #[test]
    fn a_fresh_disk_bootstraps_file_one() {
        let disk = Arc::new(MemDisk::new());
        assert!(open(&disk).unwrap().is_empty());
        assert_eq!(disk.file_ids(), vec![CATALOG_FILE]);
        let mut page = Page::new();
        disk.read_page(TREE.root(), &mut page).unwrap();
        assert!(page.verify_crc(TREE.root()) && page.page_type() != 0);
        let writes = disk.stats().snapshot().writes;
        assert!(open(&disk).unwrap().is_empty());
        assert_eq!(
            disk.stats().snapshot().writes,
            writes,
            "a reopen writes nothing"
        );
    }

    /// A first open that crashed after allocating the root page but
    /// before writing it left a zero page: the bootstrap is redone.
    /// Damage to a written root is not bootstrap: it fails the open.
    #[test]
    fn a_never_written_root_is_bootstrapped_and_a_damaged_one_is_corrupt() {
        let disk = Arc::new(MemDisk::new());
        let file = disk.create_file().unwrap();
        disk.allocate_page(file).unwrap();
        assert!(open(&disk).unwrap().is_empty());
        let mut page = Page::new();
        disk.read_page(TREE.root(), &mut page).unwrap();
        page.raw_mut()[100] ^= 0x04;
        disk.write_page(TREE.root(), &page).unwrap();
        assert!(matches!(open(&disk), Err(DmxError::Corrupt(_))));
    }
}
