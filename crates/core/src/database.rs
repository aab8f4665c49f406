//! The database facade: wiring the extension architecture together.
//!
//! [`Database`] owns the common services, the procedure-vector registry,
//! the catalog, transaction control (begin / commit / abort / savepoints)
//! and the extended data definition operations (`CREATE … USING <ext>
//! WITH (attr = value, …)`), including the deferred physical release of
//! dropped objects and crash restart.

use std::any::Any;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use dmx_types::sync::{Mutex, RwLock};

use dmx_lock::{LockManager, LockMode, LockName};
use dmx_page::{BufferPool, DiskManager, FaultDisk};
use dmx_txn::{Transaction, TxnEvent, TxnManager, TxnState};
use dmx_types::obs::{
    name as metric, Counter, Histogram, MetricsRegistry, MetricsSnapshot, ObsEvent, RingSink,
    SIZE_BUCKETS,
};
use dmx_types::{
    AttrList, DmxError, FaultInjector, FaultPlan, FileId, Lsn, Record, RecordKey, RelationId,
    Result, Schema, TxnId, Value,
};
use dmx_wal::{LogBody, LogManager, StableLog};

use crate::access::{KeyRange, ScanManager};
use crate::attachment::ASSIGNED_KEYS;
use crate::auth::AuthManager;
use crate::catalog::Catalog;
use crate::context::ExecCtx;
use crate::deps::DependencyRegistry;
use crate::descriptor::{AttachmentInstance, RelationDescriptor};
use crate::logged_tree::Build;
use crate::registry::ExtensionRegistry;
use crate::scrub::RepairOutcome;
use crate::services::CommonServices;
use crate::undo::{encode_drop_att_intent, encode_drop_sm_intent, UndoDispatch};

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Buffer pool capacity in frames.
    pub pool_frames: usize,
    /// Lock-wait timeout (deadlocks are detected much sooner).
    pub lock_timeout: Duration,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            pool_frames: 2048,
            lock_timeout: Duration::from_secs(5),
        }
    }
}

/// The crash-surviving environment: the simulated disk and the durable
/// log. Keep clones of these, drop the [`Database`], and re-open to
/// simulate a crash.
#[derive(Clone)]
pub struct DatabaseEnv {
    pub disk: Arc<dyn DiskManager>,
    pub stable_log: Arc<StableLog>,
}

impl DatabaseEnv {
    /// A fresh in-memory environment. All I/O flows through the fault
    /// layer with an empty (pass-through) plan, so production and
    /// fault-sweep runs exercise the identical code path.
    pub fn fresh() -> Self {
        DatabaseEnv::fresh_with_plan(FaultPlan::default()).0
    }

    /// A fresh environment whose every disk *and* log operation is gated
    /// by one injector executing `plan` — a single global I/O index spans
    /// both devices. The injector is returned for counting, clearing at
    /// simulated reopen, and crash detection.
    pub fn fresh_with_plan(plan: FaultPlan) -> (Self, Arc<FaultInjector>) {
        let injector = FaultInjector::new(plan);
        let env = DatabaseEnv {
            disk: FaultDisk::fresh(injector.clone()),
            stable_log: StableLog::with_injector(injector.clone()),
        };
        (env, injector)
    }
}

/// A user hook callable by trigger-style attachments
/// (registered "at the factory", like all extension code).
pub type HookFn = Arc<dyn Fn(&ExecCtx<'_>, &HookArgs<'_>) -> Result<()> + Send + Sync>;

/// Arguments handed to a user hook.
pub struct HookArgs<'a> {
    pub event: &'a str,
    pub relation: RelationId,
    pub key: &'a RecordKey,
    pub old: Option<&'a Record>,
    pub new: Option<&'a Record>,
}

/// Capacity of the per-database flight-recorder event ring.
const TRACE_RING_CAP: usize = 256;

/// Capacity of the bounded incident-report ring.
const INCIDENT_RING_CAP: usize = 16;

/// The flight recorder's crash-time dump: captured when a relation is
/// quarantined after unrecoverable corruption. Deterministic — it holds
/// event counts and the metric snapshot, never wall-clock times — so two
/// same-seed runs that corrupt the same page produce identical reports.
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentReport {
    /// The relation that was fenced off.
    pub relation: RelationId,
    /// The quarantine reason (checksum mismatch detail, …).
    pub reason: String,
    /// The last events recorded before the incident, oldest first
    /// (bounded by the trace ring capacity).
    pub events: Vec<ObsEvent>,
    /// Every metric at the moment of the incident.
    pub metrics: MetricsSnapshot,
}

/// A row producer for a `sys.*` relation whose contents live outside
/// `core` (e.g. the query layer's plan cache). Providers must not start
/// transactions or take database locks — they read their own state only.
pub type SysProviderFn = Arc<dyn Fn(&Database) -> Vec<Vec<Value>> + Send + Sync>;

/// Pre-resolved handles for the kernel's own metrics, so the DML and
/// scan hot paths never touch the registry maps.
pub(crate) struct CoreCounters {
    pub(crate) inserts: Arc<Counter>,
    pub(crate) updates: Arc<Counter>,
    pub(crate) deletes: Arc<Counter>,
    pub(crate) fetches: Arc<Counter>,
    pub(crate) scan_opens: Arc<Counter>,
    pub(crate) scan_rows: Arc<Counter>,
    pub(crate) scan_delta_sweeps: Arc<Counter>,
    pub(crate) rows_per_scan: Arc<Histogram>,
    pub(crate) att_invocations: Arc<Counter>,
    pub(crate) att_vetoes: Arc<Counter>,
    pub(crate) att_probes: Arc<Counter>,
    pub(crate) att_build_rows: Arc<Counter>,
    pub(crate) quarantines: Arc<Counter>,
    pub(crate) quarantine_cleared: Arc<Counter>,
    pub(crate) incidents_evicted: Arc<Counter>,
    pub(crate) scrub_runs: Arc<Counter>,
    pub(crate) scrub_pages: Arc<Counter>,
    pub(crate) scrub_corrupt: Arc<Counter>,
    pub(crate) repair_attempts: Arc<Counter>,
    pub(crate) repair_rebuilds: Arc<Counter>,
    pub(crate) repair_salvages: Arc<Counter>,
    pub(crate) repair_records_lost: Arc<Counter>,
    pub(crate) repair_failures: Arc<Counter>,
    pub(crate) commits: Arc<Counter>,
    pub(crate) aborts: Arc<Counter>,
    pub(crate) mvcc_snapshot_scans: Arc<Counter>,
    pub(crate) mvcc_version_reads: Arc<Counter>,
    pub(crate) mvcc_versions_recorded: Arc<Counter>,
    pub(crate) mvcc_gc_reclaimed: Arc<Counter>,
}

impl CoreCounters {
    fn new(obs: &MetricsRegistry) -> Self {
        CoreCounters {
            inserts: obs.counter(metric::DML_INSERTS),
            updates: obs.counter(metric::DML_UPDATES),
            deletes: obs.counter(metric::DML_DELETES),
            fetches: obs.counter(metric::DML_FETCHES),
            scan_opens: obs.counter(metric::SCAN_OPENS),
            scan_rows: obs.counter(metric::SCAN_ROWS),
            scan_delta_sweeps: obs.counter(metric::SCAN_DELTA_SWEEPS),
            rows_per_scan: obs.histogram(metric::SCAN_ROWS_PER_SCAN, SIZE_BUCKETS),
            att_invocations: obs.counter(metric::ATT_INVOCATIONS),
            att_vetoes: obs.counter(metric::ATT_VETOES),
            att_probes: obs.counter(metric::ATT_PROBES),
            att_build_rows: obs.counter(metric::ATT_BUILD_ROWS),
            quarantines: obs.counter(metric::QUARANTINE_EVENTS),
            quarantine_cleared: obs.counter(metric::QUARANTINE_CLEARED),
            incidents_evicted: obs.counter(metric::INCIDENTS_EVICTED),
            scrub_runs: obs.counter(metric::SCRUB_RUNS),
            scrub_pages: obs.counter(metric::SCRUB_PAGES),
            scrub_corrupt: obs.counter(metric::SCRUB_CORRUPT),
            repair_attempts: obs.counter(metric::REPAIR_ATTEMPTS),
            repair_rebuilds: obs.counter(metric::REPAIR_REBUILDS),
            repair_salvages: obs.counter(metric::REPAIR_SALVAGES),
            repair_records_lost: obs.counter(metric::REPAIR_RECORDS_LOST),
            repair_failures: obs.counter(metric::REPAIR_FAILURES),
            commits: obs.counter(metric::TXN_COMMITS),
            aborts: obs.counter(metric::TXN_ABORTS),
            mvcc_snapshot_scans: obs.counter(metric::MVCC_SNAPSHOT_SCANS),
            mvcc_version_reads: obs.counter(metric::MVCC_VERSION_READS),
            mvcc_versions_recorded: obs.counter(metric::MVCC_VERSIONS_RECORDED),
            mvcc_gc_reclaimed: obs.counter(metric::MVCC_GC_RECLAIMED),
        }
    }
}

/// The bounded ring of retained incident reports. Mirrors the
/// [`RingSink`] truncation contract: fixed capacity, a monotone total,
/// and eviction oldest-first — the number of a retained entry is
/// `total - len + index`, so numbering survives truncation.
#[derive(Default)]
struct IncidentRing {
    reports: VecDeque<Arc<IncidentReport>>,
    total: u64,
}

/// Savepoint payload: open-scan positions plus the transaction's
/// version-store write-log mark, so partial rollback retracts the chain
/// stamps of the writes it undoes.
struct SavepointState {
    positions: Vec<(dmx_types::ScanId, Vec<u8>)>,
    vmark: usize,
}

/// One entry of the DDL visibility fence (see [`Database::ddl_fence`]).
enum DdlFence {
    /// Created by this still-active transaction: invisible to everyone
    /// else.
    Uncommitted(TxnId),
    /// Creation committed at this csn: invisible to snapshot readers
    /// whose snapshot is older (the relation does not exist as of their
    /// read position).
    Committed(u64),
}

/// The data manager.
pub struct Database {
    config: DatabaseConfig,
    env: DatabaseEnv,
    services: Arc<CommonServices>,
    obs: Arc<MetricsRegistry>,
    counters: CoreCounters,
    registry: Arc<ExtensionRegistry>,
    catalog: Arc<Catalog>,
    txns: TxnManager,
    scans: Arc<ScanManager>,
    deps: Arc<DependencyRegistry>,
    auth: AuthManager,
    hooks: RwLock<HashMap<String, HookFn>>,
    ddl_txns: Mutex<HashSet<TxnId>>,
    /// Storage files created by in-flight DDL transactions. Their
    /// structure bootstrap (fresh tree root, first heap page) is
    /// physical and unlogged, so the commit path force-writes exactly
    /// these files — no pool-wide flush, no tree latches: the creating
    /// transaction owns them exclusively until commit.
    ddl_files: Mutex<HashMap<TxnId, Vec<FileId>>>,
    /// The attachment instances being built unlogged, and how many: the
    /// count spares every other tree writer the lock. It publishes
    /// nothing the lock does not, and a build's writers run on the thread
    /// that opened it, so it is read and written `Relaxed`.
    builds: Mutex<Vec<Arc<Build>>>,
    builds_open: AtomicUsize,
    /// Relations created by transactions that have not committed yet —
    /// or committed after a still-active snapshot — the DDL visibility
    /// fence. Catalog-by-name/by-id resolution at the DML and scan
    /// entry points refuses [`DdlFence::Uncommitted`] entries for every
    /// *other* transaction, so an uncommitted `CREATE` is invisible
    /// outside its creator (DESIGN.md §6.1's visibility leak, closed);
    /// after commit the entry becomes [`DdlFence::Committed`] at the
    /// creator's commit csn so a snapshot reader whose snapshot predates
    /// the CREATE still gets not-found instead of an empty (to its
    /// snapshot) relation. Committed entries fold away once every
    /// active snapshot postdates them.
    ddl_fence: Mutex<HashMap<RelationId, DdlFence>>,
    query_slot: OnceLock<Arc<dyn Any + Send + Sync>>,
    /// Relations whose pages failed checksum verification after retries,
    /// keyed to the reason. DML/scan entry points refuse these with
    /// [`DmxError::RelationQuarantined`]; everything else stays usable.
    quarantined: Mutex<HashMap<RelationId, String>>,
    /// The flight-recorder ring: installed as the default metrics sink so
    /// the last [`TRACE_RING_CAP`] events are always on hand for incident
    /// reports and the `sys.trace` relation.
    trace: Arc<RingSink>,
    /// The last [`INCIDENT_RING_CAP`] incident reports, oldest first.
    incidents: Mutex<IncidentRing>,
    /// Sticky read-only degraded mode: set on out-of-space, first reason
    /// wins, cleared only by operator action or reopen.
    read_only: Mutex<Option<String>>,
    /// Every repair outcome since open (served by `sys.repairs`).
    repairs: Mutex<Vec<RepairOutcome>>,
    /// Relations repair declared permanently damaged. In-memory only:
    /// a reopen resets it and repair may be retried against the
    /// (possibly replaced) media.
    terminal_damage: Mutex<HashMap<RelationId, String>>,
    /// Row producers for `sys.*` relations owned by higher layers.
    sys_providers: Mutex<HashMap<String, SysProviderFn>>,
    /// LSN of the most recent quiescent checkpoint record (written at
    /// open, and at clean close by [`Drop`]). Used to skip the shutdown
    /// checkpoint when the log has not grown since — an untouched
    /// open/close cycle must leave the stable log byte-identical.
    ckpt_lsn: AtomicU64,
}

impl Database {
    /// Opens (or re-opens after a crash) a database over `env` with the
    /// given extension registry. Runs restart recovery: completes
    /// committed deferred intents and undoes loser transactions.
    pub fn open(
        env: DatabaseEnv,
        config: DatabaseConfig,
        registry: Arc<ExtensionRegistry>,
    ) -> Result<Arc<Database>> {
        // One registry per database instance: every component registers
        // its metrics here, so `metrics_snapshot()` sees the whole stack
        // and seeded single-database tests stay deterministic even when
        // the test harness runs other databases in parallel threads.
        let obs = MetricsRegistry::new();
        let pool = BufferPool::with_metrics(env.disk.clone(), config.pool_frames, obs.clone());
        let log = Arc::new(LogManager::open_with_metrics(
            env.stable_log.clone(),
            obs.clone(),
        ));
        let locks = Arc::new(LockManager::with_metrics(config.lock_timeout, obs.clone()));
        let services =
            CommonServices::with_metrics(env.disk.clone(), pool, log.clone(), locks, obs.clone());

        // Steal policy: the pool may write back and evict dirty pages of
        // any page type whose storage method opted in. Everything else
        // (trees, WORM segments, untyped pages) stays no-steal.
        let stealable: Vec<u8> = registry
            .storage_methods()
            .into_iter()
            .filter_map(|(id, _)| registry.storage(id).ok())
            .flat_map(|sm| sm.stealable_page_types().to_vec())
            .collect();
        services.pool.set_stealable_types(&stealable);

        // The catalog first: a damaged catalog page fails the open here,
        // like any checksum failure, before recovery appends anything.
        let deps = Arc::new(DependencyRegistry::default());
        let catalog = Catalog::open(&services, deps.clone())?;

        // Restart recovery (idempotent; trivial on a fresh environment).
        let handler = UndoDispatch::new(registry.clone(), catalog.clone(), services.clone());
        let report = dmx_wal::restart(&log, &handler)?;
        catalog.recovered();

        // Flight recorder: a bounded ring of the most recent events,
        // installed as the default sink so `sys.trace` and incident
        // reports always have data. Event-count-based and bounded, so
        // the determinism gates are unaffected.
        let trace = RingSink::new(TRACE_RING_CAP);
        obs.set_sink(trace.clone());

        let db = Arc::new(Database {
            txns: TxnManager::new_with_metrics(log.clone(), report.max_txn + 1, obs.clone()),
            counters: CoreCounters::new(&obs),
            obs,
            config,
            env,
            services,
            registry,
            catalog,
            scans: ScanManager::new(),
            deps,
            auth: AuthManager::new(),
            hooks: RwLock::new(HashMap::new()),
            ddl_txns: Mutex::new(HashSet::new()),
            ddl_files: Mutex::new(HashMap::new()),
            builds: Mutex::new(Vec::new()),
            builds_open: AtomicUsize::new(0),
            ddl_fence: Mutex::new(HashMap::new()),
            query_slot: OnceLock::new(),
            quarantined: Mutex::new(HashMap::new()),
            trace,
            incidents: Mutex::new(IncidentRing::default()),
            read_only: Mutex::new(None),
            repairs: Mutex::new(Vec::new()),
            terminal_damage: Mutex::new(HashMap::new()),
            sys_providers: Mutex::new(HashMap::new()),
            // No close-time checkpoint until the open's own is written.
            ckpt_lsn: AtomicU64::new(u64::MAX),
        });
        // Attachments whose state restart's undo found corrupt are fenced
        // now that the quarantine machinery exists; the repair pipeline
        // rebuilds them from the base on the next CHECK/REPAIR sweep.
        db.fence_undo_damage(&handler);
        // Non-recoverable (temporary) relations do not survive restart:
        // their descriptors go through the log like any DDL's.
        let temporaries: Vec<RelationId> = db
            .catalog
            .list()
            .iter()
            .filter(|rd| {
                db.registry
                    .storage(rd.sm)
                    .is_ok_and(|sm| !sm.is_recoverable())
            })
            .map(|rd| rd.id)
            .collect();
        if !temporaries.is_empty() {
            db.with_txn(|txn| {
                let ctx = ExecCtx { db: &db, txn };
                ctx.lock(LockName::Catalog, LockMode::X)?;
                temporaries
                    .iter()
                    .try_for_each(|&id| db.catalog.remove(&ctx, id).map(drop))
            })?;
        }
        // Quiescent checkpoint: the flush puts every described page state
        // on disk, so a future restart's redo scan may begin here instead
        // of at the log's origin. Appended only when the log has grown
        // past the previous checkpoint — a reopen of an unchanged
        // database must add nothing (recovery's double-reopen idempotency
        // oracle depends on that).
        db.services.pool.flush_all()?;
        if log.last_lsn() > report.last_checkpoint {
            log.append(TxnId(0), Lsn::NULL, LogBody::Checkpoint);
        }
        log.force_all()?;
        // After the conditional append the log's last record *is* the
        // current checkpoint (appended just now or inherited unchanged).
        db.ckpt_lsn.store(log.last_lsn().0, Ordering::Release);

        // Publish the `sys.*` system relations (when the registry carries
        // the system storage method): in the map alone, afresh at every
        // open.
        if let Ok(sm_id) = db.registry.storage_id_by_name(crate::sysrel::SM_NAME) {
            for (name, tag, schema) in crate::sysrel::tables()? {
                if db.catalog.get_by_name(name).is_err() {
                    let rd = crate::descriptor::RelationDescriptor::new(
                        db.catalog.next_relation_id(),
                        name,
                        schema,
                        sm_id,
                        vec![tag],
                    );
                    db.catalog.publish(rd);
                }
            }
        }
        // Hydrate attachment-published in-memory state (e.g. the
        // statistics attachment's planner snapshot) from durable storage.
        // Failures are non-fatal: the instance stays un-hydrated and the
        // scrub/repair pipeline handles real corruption.
        for rd in db.catalog.list() {
            for (att_id, insts) in rd.attached_types() {
                let Ok(att) = db.registry.attachment(att_id) else {
                    continue;
                };
                for inst in insts {
                    let _ = att.activate(&db.services, &rd, inst);
                }
            }
        }
        Ok(db)
    }

    /// Opens a fresh in-memory database with the given registry.
    pub fn open_fresh(registry: Arc<ExtensionRegistry>) -> Result<Arc<Database>> {
        Database::open(DatabaseEnv::fresh(), DatabaseConfig::default(), registry)
    }

    // -- accessors ------------------------------------------------------

    /// The common services environment.
    pub fn services(&self) -> &Arc<CommonServices> {
        &self.services
    }

    /// The metrics registry shared by every component of this database.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// A point-in-time snapshot of every metric across pagestore, wal,
    /// lock, txn, core and query layers, sorted by name.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// The flight-recorder event ring (the default metrics sink).
    pub fn trace(&self) -> &Arc<RingSink> {
        &self.trace
    }

    /// The most recent incident report, when a relation has been
    /// quarantined since open.
    pub fn last_incident(&self) -> Option<Arc<IncidentReport>> {
        self.incidents.lock().reports.back().cloned()
    }

    /// The retained incident reports, oldest first, each paired with its
    /// monotone incident number (0-based since open). The ring is
    /// bounded: older reports are evicted oldest-first and counted by
    /// [`Database::incidents_evicted`], so numbering survives
    /// truncation (the first retained number is `total - len`).
    pub fn incidents(&self) -> Vec<(u64, Arc<IncidentReport>)> {
        let ring = self.incidents.lock();
        let first = ring.total - ring.reports.len() as u64;
        ring.reports
            .iter()
            .enumerate()
            .map(|(i, r)| (first + i as u64, r.clone()))
            .collect()
    }

    /// How many incident reports have been evicted from the bounded ring.
    pub fn incidents_evicted(&self) -> u64 {
        let ring = self.incidents.lock();
        ring.total - ring.reports.len() as u64
    }

    /// Registers a row producer for a `sys.*` relation whose state lives
    /// in a higher layer (e.g. the plan cache). Last registration wins.
    pub fn set_sys_provider(&self, relation: &str, f: SysProviderFn) {
        self.sys_providers
            .lock()
            .insert(relation.to_ascii_lowercase(), f);
    }

    /// The registered row producer for `relation`, if any.
    pub fn sys_provider(&self, relation: &str) -> Option<SysProviderFn> {
        self.sys_providers
            .lock()
            .get(&relation.to_ascii_lowercase())
            .cloned()
    }

    pub(crate) fn counters(&self) -> &CoreCounters {
        &self.counters
    }

    /// The procedure-vector registry.
    pub fn registry(&self) -> &Arc<ExtensionRegistry> {
        &self.registry
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Scan bookkeeping.
    pub fn scans(&self) -> &Arc<ScanManager> {
        &self.scans
    }

    /// Bound-plan dependency tracking.
    pub fn deps(&self) -> &Arc<DependencyRegistry> {
        &self.deps
    }

    /// The uniform authorization facility.
    pub fn auth(&self) -> &AuthManager {
        &self.auth
    }

    /// The crash-surviving environment (keep clones to simulate crashes).
    pub fn env(&self) -> &DatabaseEnv {
        &self.env
    }

    /// Current configuration.
    pub fn config(&self) -> &DatabaseConfig {
        &self.config
    }

    /// Lazily-initialized slot for the query layer's plan cache.
    pub fn query_state<T, F>(&self, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        if let Some(any) = self.query_slot.get() {
            return match any.clone().downcast::<T>() {
                Ok(t) => t,
                Err(_) => {
                    // A second query layer asked with a different type; the
                    // first registration wins the shared slot and this
                    // caller gets a fresh, unshared instance, not a panic.
                    debug_assert!(false, "query slot initialized with a different type");
                    Arc::new(init())
                }
            };
        }
        let fresh = Arc::new(init());
        let any = self
            .query_slot
            .get_or_init(|| fresh.clone() as Arc<dyn Any + Send + Sync>);
        match any.clone().downcast::<T>() {
            Ok(t) => t,
            Err(_) => {
                debug_assert!(false, "query slot initialized with a different type");
                fresh
            }
        }
    }

    /// Registers a user function for the predicate evaluator.
    pub fn register_function(
        &self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.services.funcs.write().register(name, f);
    }

    /// Registers a named user hook for trigger attachments.
    pub fn register_hook(&self, name: &str, f: HookFn) {
        self.hooks.write().insert(name.to_ascii_lowercase(), f);
    }

    /// Resolves a user hook by name.
    pub fn hook(&self, name: &str) -> Result<HookFn> {
        self.hooks
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| DmxError::NotFound(format!("hook {name}")))
    }

    pub(crate) fn undo_dispatch(&self) -> UndoDispatch {
        UndoDispatch::new(
            self.registry.clone(),
            self.catalog.clone(),
            self.services.clone(),
        )
    }

    /// Quarantines every relation whose attachment undo found corrupt
    /// state during a rollback, so the repair pipeline rebuilds it.
    pub(crate) fn fence_undo_damage(&self, handler: &UndoDispatch) {
        for (rel, reason) in handler.take_damaged() {
            let _ = self.quarantine(rel, format!("undo: {reason}"));
        }
    }

    /// The one log-driven rollback: undoes `txn`'s logged work back to
    /// (not including) the record at `stop` — `Lsn::NULL` for all of it —
    /// through the extensions' replay handlers, fences what an undo found
    /// corrupt, and rewinds the transaction's undo-chain head. Version
    /// stamps are retracted separately ([`Database::take_back`]), after
    /// the pages are restored.
    pub(crate) fn undo_to(&self, txn: &Transaction, stop: Lsn) -> Result<()> {
        let handler = self.undo_dispatch();
        let new_last =
            dmx_wal::rollback_to(&self.services.log, &handler, txn.id(), txn.last_lsn(), stop)?;
        self.fence_undo_damage(&handler);
        txn.set_last_lsn(new_last);
        Ok(())
    }

    // -- transaction control --------------------------------------------

    /// Begins a transaction.
    pub fn begin(&self) -> Arc<Transaction> {
        self.txns.begin()
    }

    /// The record version store (the snapshot-visibility side car shared
    /// with the transaction manager).
    pub fn versions(&self) -> &Arc<dmx_txn::VersionStore> {
        self.txns.versions()
    }

    /// Number of active transactions.
    pub fn active_txns(&self) -> usize {
        self.txns.active_count()
    }

    /// Commits: runs deferred (before-prepare) constraint checks, writes
    /// and forces the commit record (no-force: data pages stay in the
    /// pool and restart redo covers anything not yet on disk), performs
    /// deferred physical actions, and releases locks and scans.
    pub fn commit(&self, txn: &Arc<Transaction>) -> Result<()> {
        let res = self.commit_inner(txn);
        if let Err(e) = &res {
            // Out-of-space at the commit point (data flush or log force)
            // flips the sticky degraded switch.
            self.note_enospc(e);
            match txn.state() {
                // Failed before the commit point: the transaction did not
                // happen — roll it back so its locks release and no torn
                // state survives.
                TxnState::Active => {
                    if self.abort(txn).is_err() {
                        self.end_txn(txn);
                    }
                }
                // Failed after the commit point (deferred actions): the
                // effects stand; restart completes the rest from logged
                // intents. Release resources here.
                _ => self.end_txn(txn),
            }
        }
        res
    }

    fn commit_inner(&self, txn: &Arc<Transaction>) -> Result<()> {
        txn.check_active()?;
        // 1. Deferred integrity constraints may still veto the whole
        //    transaction.
        if let Err(e) = txn.run_deferred(TxnEvent::BeforePrepare) {
            self.abort(txn)?;
            return Err(e);
        }
        // 2. No-force policy (DESIGN.md §6): data pages are *not* flushed
        //    at commit. The commit point below forces only the log; redo
        //    at restart reconstructs any committed page image that never
        //    made it to disk. (The former flush-everything sweep — and
        //    the every-tree-latch pass it needed to avoid capturing torn
        //    multi-page changes — is gone; checkpoints at open and steal
        //    eviction under memory pressure now do the page writing.)
        //    The one exception is DDL: structure bootstrap (a fresh tree
        //    root, a heap's first page) is physical and unlogged, so redo
        //    cannot reconstruct it — a DDL commit force-writes exactly the
        //    files this transaction created. No tree latches are needed:
        //    the creator owns those files exclusively (Catalog X plus the
        //    DDL visibility fence) so no concurrent writer can be mid-way
        //    through a multi-page change in them, and per-file flushing
        //    leaves every other relation's latches untouched.
        //    The catalog's own records are logged like data, so DDL needs
        //    nothing more for durability.
        let did_ddl = self.ddl_txns.lock().remove(&txn.id());
        if did_ddl {
            let created = self.ddl_files.lock().remove(&txn.id()).unwrap_or_default();
            for file in created {
                self.services.pool.flush_file(file)?;
            }
        }
        // 3. The commit point.
        txn.commit_point()?;
        txn.finish(TxnState::Committed);
        self.counters.commits.incr();
        // Publish this transaction's record versions: the effects are
        // durable, and the stamps must become committed versions before
        // the record X locks release in step 5 (a snapshot captured
        // after those locks drop must already see the new images). The
        // DDL fence promotion rides inside the same publication step
        // (under the commit mutex, before the csn store): the relations
        // are real now, but only as of the commit csn — an older
        // snapshot must keep seeing not-found rather than the relation
        // with all of its initial rows invisible, while a snapshot that
        // includes the csn must never catch the fence still Uncommitted
        // and report a committed relation as not-found.
        let commit_csn = self.txns.versions().commit_with(txn.id(), |csn| {
            if did_ddl {
                self.promote_ddl_fences(txn.id(), csn);
            }
        });
        if did_ddl && commit_csn.is_none() {
            // Row-less DDL publishes no csn, so there is no
            // capture-ordering window to close; the currently-published
            // sequence is a safe (conservative) stand-in.
            self.promote_ddl_fences(txn.id(), self.txns.versions().commit_seq());
        }
        // 4. Deferred physical actions (dropped storage release, …): their
        //    completion records ride the next force, and restart redoes
        //    any release whose record did not reach the log.
        let deferred_result = txn.run_deferred(TxnEvent::AtCommit);
        // 5. End-of-transaction: scans closed, locks released.
        self.end_txn(txn);
        deferred_result
    }

    /// Aborts: log-driven full rollback, then cleanup. Idempotent for
    /// already-aborted transactions.
    pub fn abort(&self, txn: &Arc<Transaction>) -> Result<()> {
        match txn.state() {
            TxnState::Aborted => return Ok(()),
            TxnState::Committed => {
                return Err(DmxError::TxnState(
                    "cannot abort a committed transaction".into(),
                ))
            }
            TxnState::Active => {}
        }
        self.undo_to(txn, Lsn::NULL)?;
        txn.abort_point();
        txn.finish(TxnState::Aborted);
        self.counters.aborts.incr();
        // The undo above restored the catalog and released the storage
        // the transaction created; what extensions deferred to abort runs
        // now.
        let _ = txn.run_deferred(TxnEvent::AtAbort);
        self.ddl_txns.lock().remove(&txn.id());
        self.end_txn(txn);
        Ok(())
    }

    fn end_txn(&self, txn: &Arc<Transaction>) {
        // "All key-sequential accesses must be terminated at transaction
        // termination."
        self.scans.close_all(txn.id());
        let _ = txn.run_deferred(TxnEvent::AtEnd);
        // A transaction that did not commit unwinds its chain stamps now
        // — after the WAL undo restored the pages, so a reader that
        // raced the rollback kept resolving through the chains the whole
        // time — and the relations' record counts give back what those
        // stamps had added. No-op when the transaction never wrote (or
        // committed).
        if txn.state() != TxnState::Committed {
            self.take_back(self.txns.versions().abort(txn.id()));
        }
        self.services.locks.unlock_all(txn.id());
        self.txns.deregister(txn.id());
        // The DDL visibility fence: an aborting creator's entries vanish
        // (the relation never existed); commit already promoted its
        // entries to `Committed(csn)` in `commit_inner`. Committed
        // entries fold away once every active snapshot postdates them —
        // from then on no possible reader is old enough to refuse. Both
        // this prune and the version GC below are reclamation decisions
        // and so run under the active-set lock (see
        // `TxnManager::with_active_snapshots`): an unlocked copy of the
        // snapshot set can miss a transaction that is mid-`begin` with
        // an already-captured (older) snapshot.
        self.ddl_files.lock().remove(&txn.id());
        let gc = self.txns.with_active_snapshots(|snaps| {
            let low_water = snaps.iter().map(|s| s.csn).min().unwrap_or(u64::MAX);
            self.ddl_fence.lock().retain(|_, f| match f {
                DdlFence::Uncommitted(owner) => *owner != txn.id(),
                DdlFence::Committed(csn) => *csn > low_water,
            });
            // Low-water version GC: with this transaction gone, chains
            // whose newest committed version predates every remaining
            // snapshot (and that no snapshot captured mid-write) fold
            // away.
            self.txns.versions().gc(snaps)
        });
        if gc.reclaimed > 0 {
            self.counters.mvcc_gc_reclaimed.add(gc.reclaimed as u64);
        }
    }

    /// Promotes `txn`'s [`DdlFence::Uncommitted`] entries to
    /// `Committed(csn)`. Runs inside the version store's commit
    /// publication (so no snapshot can include the csn while a fence
    /// still reads `Uncommitted`), or directly for row-less DDL.
    fn promote_ddl_fences(&self, txn: TxnId, csn: u64) {
        for fence in self.ddl_fence.lock().values_mut() {
            if matches!(fence, DdlFence::Uncommitted(owner) if *owner == txn) {
                *fence = DdlFence::Committed(csn);
            }
        }
    }

    /// Runs `f` in a fresh transaction, committing on success and
    /// aborting on error.
    pub fn with_txn<T>(
        self: &Arc<Self>,
        f: impl FnOnce(&Arc<Transaction>) -> Result<T>,
    ) -> Result<T> {
        let txn = self.begin();
        match f(&txn) {
            Ok(v) => {
                self.commit(&txn)?;
                Ok(v)
            }
            Err(e) => {
                let _ = self.abort(&txn);
                Err(e)
            }
        }
    }

    /// "May this transaction touch this relation": resolves `rel`, then
    /// the checks every DML and scan entry point starts with — its DDL
    /// is visible to `txn`, it is not quarantined and, for a
    /// modification, the engine is writable.
    ///
    /// The DDL visibility fence (DESIGN.md §6.1/§6.2): a relation created
    /// by an uncommitted transaction does not exist for any *other*
    /// transaction — their lookups report not-found exactly as if the
    /// CREATE had never run, because until commit it may not have. A
    /// snapshot reader additionally refuses a relation whose creation
    /// committed *after* its snapshot: to that read position the CREATE
    /// has not happened yet, and admitting it would show an impossible
    /// state (the relation present but all of its initial rows still
    /// invisible).
    pub(crate) fn admit(
        &self,
        txn: &Arc<Transaction>,
        rel: RelationId,
        writes: bool,
    ) -> Result<Arc<crate::descriptor::RelationDescriptor>> {
        let rd = self.catalog.get(rel)?;
        let hidden = match self.ddl_fence.lock().get(&rel) {
            Some(DdlFence::Uncommitted(owner)) => *owner != txn.id(),
            Some(DdlFence::Committed(csn)) => txn.snapshot_reads() && txn.snapshot().csn < *csn,
            None => false,
        };
        if hidden {
            return Err(DmxError::NotFound(format!("relation {}", rd.name)));
        }
        self.check_not_quarantined(rel)?;
        if writes {
            self.check_writable()?;
        }
        Ok(rd)
    }

    // -- quarantine -------------------------------------------------------

    /// Fails with [`DmxError::RelationQuarantined`] when `rel` is
    /// quarantined.
    pub fn check_not_quarantined(&self, rel: RelationId) -> Result<()> {
        match self.quarantined.lock().get(&rel) {
            Some(reason) => Err(DmxError::RelationQuarantined {
                relation: rel,
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Quarantines `rel` (idempotent; the first reason wins) and returns
    /// the typed error to surface. Invoked when a page read comes back
    /// [`DmxError::Corrupt`] even after the buffer manager's retries:
    /// the damage is in the media, so instead of poisoning the process or
    /// erroring every future statement with an untyped failure, the one
    /// bad relation is fenced off while the rest of the database keeps
    /// serving.
    pub(crate) fn quarantine(&self, rel: RelationId, reason: String) -> DmxError {
        let mut q = self.quarantined.lock();
        if !q.contains_key(&rel) {
            self.counters.quarantines.incr();
            self.obs.emit(ObsEvent {
                layer: "core",
                op: "quarantine",
                target: rel.0 as u64,
                detail: 0,
            });
            // Flight recorder: freeze the last events and every metric
            // at the moment of the first quarantine of this relation.
            // The snapshot is taken here (not in the sink) because sinks
            // must not call back into the database.
            let report = IncidentReport {
                relation: rel,
                reason: reason.clone(),
                events: self.trace.snapshot(),
                metrics: self.obs.snapshot(),
            };
            let mut ring = self.incidents.lock();
            ring.reports.push_back(Arc::new(report));
            ring.total += 1;
            while ring.reports.len() > INCIDENT_RING_CAP {
                ring.reports.pop_front();
                self.counters.incidents_evicted.incr();
            }
        }
        let stored = q.entry(rel).or_insert(reason);
        DmxError::RelationQuarantined {
            relation: rel,
            reason: stored.clone(),
        }
    }

    /// Currently quarantined relations with their reasons.
    pub fn quarantined(&self) -> Vec<(RelationId, String)> {
        let mut out: Vec<(RelationId, String)> = self
            .quarantined
            .lock()
            .iter()
            .map(|(r, s)| (*r, s.clone()))
            .collect();
        out.sort_by_key(|(r, _)| *r);
        out
    }

    /// Lifts a quarantine (after repair / operator override). Returns
    /// true when the relation was quarantined. Clearing also forgets any
    /// permanent-damage verdict: the operator may have replaced the
    /// media, so repair deserves a fresh set of attempts. Persistent
    /// damage simply re-fences on the next read.
    pub fn clear_quarantine(&self, rel: RelationId) -> bool {
        let cleared = self.quarantined.lock().remove(&rel).is_some();
        if cleared {
            self.terminal_damage.lock().remove(&rel);
            self.counters.quarantine_cleared.incr();
            self.obs.emit(ObsEvent {
                layer: "core",
                op: "quarantine_clear",
                target: rel.0 as u64,
                detail: 0,
            });
        }
        cleared
    }

    /// Marks `rel` permanently damaged: repair exhausted its retries (or
    /// the storage method cannot salvage). The quarantine stays and the
    /// verdict is reported through [`DmxError::RepairImpossible`].
    pub(crate) fn mark_terminal(&self, rel: RelationId, reason: String) {
        self.terminal_damage.lock().entry(rel).or_insert(reason);
    }

    /// The permanent-damage verdict for `rel`, if any.
    pub fn terminal_damage(&self, rel: RelationId) -> Option<String> {
        self.terminal_damage.lock().get(&rel).cloned()
    }

    // -- degraded mode ----------------------------------------------------

    /// Enters sticky read-only degraded mode (the first reason wins).
    /// Used when a write path reports out-of-space: the failing statement
    /// aborts cleanly, but further writes would hit the same wall at a
    /// worse moment (mid-commit), so the engine fences all writes until
    /// the operator frees space and calls [`Database::clear_read_only`].
    pub fn enter_read_only(&self, reason: &str) {
        let mut ro = self.read_only.lock();
        if ro.is_none() {
            *ro = Some(reason.to_string());
            self.obs.emit(ObsEvent {
                layer: "core",
                op: "read_only",
                target: 0,
                detail: 0,
            });
        }
    }

    /// The degraded-mode reason, when the engine is read-only.
    pub fn read_only_reason(&self) -> Option<String> {
        self.read_only.lock().clone()
    }

    /// Fails with [`DmxError::ReadOnly`] in degraded mode. Called at
    /// every modification entry point (reads keep working).
    pub(crate) fn check_writable(&self) -> Result<()> {
        match &*self.read_only.lock() {
            Some(reason) => Err(DmxError::ReadOnly(reason.clone())),
            None => Ok(()),
        }
    }

    /// Leaves degraded mode (operator has freed space). Returns true
    /// when the engine was read-only.
    pub fn clear_read_only(&self) -> bool {
        self.read_only.lock().take().is_some()
    }

    /// Inspects a statement error on a write path: out-of-space flips
    /// the sticky degraded switch (the statement itself has already been
    /// aborted cleanly by the caller).
    pub(crate) fn note_enospc(&self, e: &DmxError) {
        if let DmxError::OutOfSpace(m) = e {
            self.enter_read_only(m);
        }
    }

    // -- repair log -------------------------------------------------------

    /// Appends a repair outcome row (served by `sys.repairs`).
    pub(crate) fn record_repair(&self, outcome: RepairOutcome) {
        self.repairs.lock().push(outcome);
    }

    /// Every repair outcome since open, in order.
    pub fn repairs(&self) -> Vec<RepairOutcome> {
        self.repairs.lock().clone()
    }

    // -- savepoints -------------------------------------------------------

    /// Establishes a named rollback point, saving open scan positions
    /// ("the storage methods and attachments are driven by the system to
    /// obtain their key-sequential access positions").
    pub fn savepoint(&self, txn: &Arc<Transaction>, name: &str) -> Result<()> {
        txn.check_active()?;
        let state = SavepointState {
            positions: self.scans.save_positions(txn.id()),
            vmark: self.txns.versions().mark(txn.id()),
        };
        txn.savepoint(name, Some(Box::new(state)));
        Ok(())
    }

    /// Partial rollback to a named savepoint: log-driven undo back to the
    /// rollback point, then version-stamp unwind and scan-position restore.
    pub fn rollback_to_savepoint(&self, txn: &Arc<Transaction>, name: &str) -> Result<()> {
        txn.check_active()?;
        let sp = txn.pop_savepoint(name)?;
        self.undo_to(txn, sp.lsn)?;
        if let Some(payload) = sp.payload {
            let state = payload
                .downcast::<SavepointState>()
                .map_err(|_| DmxError::Internal("savepoint payload type".into()))?;
            // The pages are restored; retract the chain stamps of the
            // undone writes so snapshot readers don't keep serving them.
            self.take_back(self.txns.versions().rollback_to_mark(txn.id(), state.vmark));
            self.scans.restore_positions(txn.id(), &state.positions)?;
        }
        Ok(())
    }

    /// Cancels a rollback point without rolling back (the retained scan
    /// positions are discarded).
    pub fn release_savepoint(&self, txn: &Arc<Transaction>, name: &str) -> Result<()> {
        txn.pop_savepoint(name).map(|_| ())
    }

    // -- data definition ---------------------------------------------------

    pub(crate) fn mark_ddl(&self, txn: &Arc<Transaction>) {
        self.ddl_txns.lock().insert(txn.id());
    }

    /// The deferred release of dropped storage ("the actual release of
    /// the relation or access path state is deferred until the
    /// transaction commits"): logs an intent per payload (see
    /// `undo::encode_drop_*`), and at commit carries each out and logs it
    /// done, so a crash after the commit point still completes the
    /// release at restart.
    pub(crate) fn defer_release(&self, txn: &Arc<Transaction>, payloads: Vec<Vec<u8>>) {
        let intents: Vec<(Lsn, Vec<u8>)> = payloads
            .into_iter()
            .map(|payload| {
                let lsn = txn.log(LogBody::DeferredIntent {
                    payload: payload.clone(),
                });
                (lsn, payload)
            })
            .collect();
        let (handler, txn_id) = (self.undo_dispatch(), txn.id());
        txn.defer(
            TxnEvent::AtCommit,
            Box::new(move || {
                for (intent_lsn, payload) in &intents {
                    handler.release(payload)?;
                    let done = LogBody::DeferredDone {
                        intent_lsn: *intent_lsn,
                    };
                    handler.services.log.append(txn_id, Lsn::NULL, done);
                }
                Ok(())
            }),
        );
        self.mark_ddl(txn);
    }

    /// Creates a relation using the named storage method with an
    /// extension-specific attribute/value list.
    pub fn create_relation(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        name: &str,
        schema: Schema,
        sm_name: &str,
        params: &AttrList,
    ) -> Result<RelationId> {
        txn.check_active()?;
        self.check_writable()?;
        let ctx = ExecCtx { db: self, txn };
        ctx.lock(LockName::Catalog, LockMode::X)?;
        if self.catalog.get_by_name(name).is_ok() {
            return Err(DmxError::Duplicate(format!("relation {name}")));
        }
        let sm_id = self.registry.storage_id_by_name(sm_name)?;
        let sm = self.registry.storage(sm_id)?;
        // The instance first: a rejected attribute list uses up no id.
        let sm_desc = sm.create_instance(&ctx, &schema, params)?;
        let rel = self.catalog.next_relation_id();
        let rd =
            crate::descriptor::RelationDescriptor::new(rel, name, schema, sm_id, sm_desc.clone());
        // Until commit, the new relation is visible only to its creator.
        // The fence goes up *before* the name becomes resolvable: a
        // reader that wins the race to the catalog must already find the
        // fence, or it would scan the half-created relation.
        self.ddl_fence
            .lock()
            .insert(rel, DdlFence::Uncommitted(txn.id()));
        if let Err(e) = self.catalog.insert(&ctx, rd) {
            self.ddl_fence.lock().remove(&rel);
            let _ = sm.destroy_instance(&self.services, &sm_desc);
            return Err(e);
        }
        self.mark_ddl(txn);
        // Commit will force-write exactly the files this CREATE made
        // (their structure bootstrap is physical and unlogged).
        self.ddl_files
            .lock()
            .entry(txn.id())
            .or_default()
            .extend(sm.storage_files(&sm_desc));
        // An abort or a rollback to a savepoint before this takes the
        // header record back, and with it releases the storage.
        Ok(rel)
    }

    /// Creates an attachment instance on a relation and builds it from
    /// the relation's existing records ([`Attachment::build`]).
    pub fn create_attachment(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        rel_name: &str,
        type_name: &str,
        att_name: &str,
        params: &AttrList,
    ) -> Result<()> {
        txn.check_active()?;
        self.check_writable()?;
        let ctx = ExecCtx { db: self, txn };
        ctx.lock(LockName::Catalog, LockMode::X)?;
        let old_rd = self.catalog.get_by_name(rel_name)?;
        ctx.lock(LockName::Relation(old_rd.id), LockMode::X)?;
        let att_id = self.registry.attachment_id_by_name(type_name)?;
        let att = self.registry.attachment(att_id)?;
        if let Some(key) = ASSIGNED_KEYS.iter().find(|key| params.get(key).is_some()) {
            return Err(DmxError::InvalidArg(format!(
                "attribute '{key}' is assigned by the engine, not by DDL"
            )));
        }

        let start_lsn = txn.last_lsn();
        let inst_desc = att
            .create_instance(&ctx, &old_rd, att_name, params)?
            .encode();
        let files = att.storage_files(&inst_desc);
        // The descriptor, then the build. A veto (a unique violation, a
        // failed constraint) — or a descriptor the catalog cannot hold —
        // fails the statement with a partial rollback, which takes the
        // descriptor back and with it releases the instance.
        let attached = (|| -> Result<()> {
            let (new_rd, instance) = old_rd.with_attachment(att_id, att_name, inst_desc.clone())?;
            let new_rd = self.catalog.replace(&ctx, new_rd)?;
            let inst = AttachmentInstance {
                att: att_id,
                instance,
                name: att_name.to_string(),
                desc: inst_desc.clone().into(),
            };
            let records = self.scan_records(&ctx, &new_rd)?;
            self.counters.att_build_rows.add(records.len() as u64);
            // Files another instance holds too (a join index's second
            // side adopts its first side's trees) outlive a release of
            // this one, so such an instance builds logged.
            if self.files_held_elsewhere(&files, new_rd.id, &inst) {
                return att.build(&ctx, &new_rd, &inst, &records);
            }
            let build = Build {
                txn: txn.id(),
                relation: new_rd.id,
                att: att_id,
                instance,
                files: files.clone(),
            };
            self.building(build, || att.build(&ctx, &new_rd, &inst, &records))
        })();
        if let Err(e) = attached {
            self.undo_to(txn, start_lsn)?;
            let _ = att.destroy_instance(&self.services, &inst_desc);
            return Err(e);
        }

        self.mark_ddl(txn);
        self.ddl_files
            .lock()
            .entry(txn.id())
            .or_default()
            .extend(files);
        // An abort needs no deferred release: its undo takes back the
        // catalog record that entered the instance, which releases it.
        Ok(())
    }

    /// Every record `rd` holds, under its record key: what a build and
    /// `ANALYZE` are offered.
    fn scan_records(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
    ) -> Result<Vec<(RecordKey, Record)>> {
        let sm = self.registry.storage(rd.sm)?;
        let mut records = Vec::new();
        let mut scan = sm.open_scan(ctx, rd, KeyRange::all(), None, None)?;
        while let Some(item) = scan.next(ctx)? {
            let values = item
                .values
                .ok_or_else(|| DmxError::Internal("storage scan returned no fields".into()))?;
            records.push((item.key, Record::new(values)));
        }
        Ok(records)
    }

    /// Whether a relation, or an instance other than `inst` on
    /// `relation`, holds one of `files`.
    pub(crate) fn files_held_elsewhere(
        &self,
        files: &[FileId],
        relation: RelationId,
        inst: &AttachmentInstance,
    ) -> bool {
        self.catalog.list().iter().any(|rd| {
            let base = self.registry.storage(rd.sm).ok();
            let mut held = base.map_or_else(Vec::new, |sm| sm.storage_files(&rd.sm_desc));
            for (att_id, insts) in rd.attached_types() {
                let Ok(att) = self.registry.attachment(att_id) else {
                    continue;
                };
                let others = insts.iter().filter(|other| {
                    (rd.id, att_id, other.instance) != (relation, inst.att, inst.instance)
                });
                held.extend(others.flat_map(|other| att.storage_files(&other.desc)));
            }
            held.iter().any(|f| files.contains(f))
        })
    }

    /// Runs `f` with `build` open: the instance's tree writers install
    /// through its token ([`crate::LoggedTree::apply`]) until `f` returns.
    fn building<R>(&self, build: Build, f: impl FnOnce() -> R) -> R {
        let build = Arc::new(build);
        self.builds.lock().push(build.clone());
        self.builds_open.fetch_add(1, Ordering::Relaxed);
        let out = f();
        self.builds.lock().retain(|b| !Arc::ptr_eq(b, &build));
        self.builds_open.fetch_sub(1, Ordering::Relaxed);
        out
    }

    /// The open build of `inst` on `relation` by `txn`, if there is one.
    pub(crate) fn build_of(
        &self,
        txn: TxnId,
        relation: RelationId,
        inst: &AttachmentInstance,
    ) -> Option<Arc<Build>> {
        if self.builds_open.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let builds = self.builds.lock();
        builds
            .iter()
            .find(|b| b.builds(txn, relation, inst))
            .cloned()
    }

    /// `ANALYZE TABLE`: scans the relation once and offers the full
    /// record image to every attachment type on it via
    /// [`Attachment::analyze`], so maintained derived state (the
    /// statistics attachment's distinct sketches and histogram bounds)
    /// can be rebuilt *exactly*, then stores the relation's counts in its
    /// catalog header. Returns the number of attachment instances that
    /// rebuilt state. Runs under the Catalog X lock and a relation X lock
    /// so the rebuild observes a stable image.
    pub fn analyze_relation(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        rel_name: &str,
    ) -> Result<usize> {
        txn.check_active()?;
        self.check_writable()?;
        let ctx = ExecCtx { db: self, txn };
        let rd = self.catalog.get_by_name(rel_name)?;
        self.check_not_quarantined(rd.id)?;
        ctx.lock(LockName::Catalog, LockMode::X)?;
        ctx.lock(LockName::Relation(rd.id), LockMode::X)?;
        let records = self.scan_records(&ctx, &rd)?;
        let mut analyzed = 0;
        for (att_id, insts) in rd.attached_types() {
            let att = self.registry.attachment(att_id)?;
            if att.analyze(&ctx, &rd, insts, &records)? {
                analyzed += insts.len();
            }
        }
        self.catalog.replace(&ctx, (*rd).clone())?;
        Ok(analyzed)
    }

    /// Drops a relation: removed from the catalog immediately, physical
    /// storage released *deferred* at commit ("the actual release of the
    /// relation or access path state is deferred until the transaction
    /// commits" so the drop stays undoable without logging the whole
    /// relation).
    pub fn drop_relation(self: &Arc<Self>, txn: &Arc<Transaction>, name: &str) -> Result<()> {
        txn.check_active()?;
        let ctx = ExecCtx { db: self, txn };
        ctx.lock(LockName::Catalog, LockMode::X)?;
        let rd = self.catalog.get_by_name(name)?;
        ctx.lock(LockName::Relation(rd.id), LockMode::X)?;
        self.catalog.remove(&ctx, rd.id)?;
        self.auth.purge_relation(rd.id);
        let mut releases = vec![encode_drop_sm_intent(rd.sm, &rd.sm_desc)];
        for (att_id, insts) in rd.attached_types() {
            releases.extend(
                insts
                    .iter()
                    .map(|i| encode_drop_att_intent(att_id, &i.desc)),
            );
        }
        self.defer_release(txn, releases);
        Ok(())
    }

    /// Drops one attachment instance by name (deferred physical release,
    /// like [`Database::drop_relation`]).
    pub fn drop_attachment(
        self: &Arc<Self>,
        txn: &Arc<Transaction>,
        rel_name: &str,
        att_name: &str,
    ) -> Result<()> {
        txn.check_active()?;
        let ctx = ExecCtx { db: self, txn };
        ctx.lock(LockName::Catalog, LockMode::X)?;
        let old_rd = self.catalog.get_by_name(rel_name)?;
        ctx.lock(LockName::Relation(old_rd.id), LockMode::X)?;
        let (new_rd, att_id, removed) = old_rd.without_attachment(att_name)?;
        self.catalog.replace(&ctx, new_rd)?;
        // Retract attachment-published in-memory state right away; if
        // the transaction aborts, the next maintained change (or reopen)
        // republishes it — until then the planner falls back to guesses.
        if let Ok(att) = self.registry.attachment(att_id) {
            att.deactivate(&old_rd, &removed);
        }
        self.defer_release(txn, vec![encode_drop_att_intent(att_id, &removed.desc)]);
        Ok(())
    }
}

impl Drop for Database {
    /// Clean-shutdown checkpoint (best effort). Under no-force the pool
    /// holds committed page images that exist durably only in the log;
    /// writing them out here — and logging a checkpoint once they are on
    /// disk — lets the next open skip redo entirely instead of replaying
    /// the whole session. Skipped when the log has not grown since the
    /// last checkpoint (an untouched open/close cycle must leave the
    /// stable log byte-identical) and abandoned silently on any I/O
    /// error: a crashed or out-of-space device simply reopens through
    /// restart recovery, which needs no checkpoint to be correct.
    ///
    /// The counts the next open costs plans with go first: every catalog
    /// header whose counts moved is rewritten in one committed
    /// transaction (none when no count moved, or while a transaction is
    /// still active).
    fn drop(&mut self) {
        if self.services.log.last_lsn().0 <= self.ckpt_lsn.load(Ordering::Acquire) {
            return;
        }
        if self.txns.active_count() == 0 {
            let txn = self.txns.begin();
            let stored = self
                .catalog
                .store_counts(&txn, &self.services)
                .and_then(|()| txn.commit_point());
            self.txns.deregister(txn.id());
            if stored.is_err() {
                return;
            }
        }
        if self.services.pool.flush_all().is_err() {
            return; // no checkpoint without every page state on disk
        }
        self.services
            .log
            .append(TxnId(0), Lsn::NULL, LogBody::Checkpoint);
        let _ = self.services.log.force_all();
    }
}
