//! Transactions and the transaction manager.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dmx_types::sync::Mutex;

use dmx_types::{DmxError, Lsn, Result, TxnId};
use dmx_wal::{ExtOp, LogBody, LogManager};

use crate::deferred::{DeferredAction, DeferredQueues, TxnEvent};
use crate::mvcc::{Snapshot, VersionStore};

/// Transaction lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    Active,
    Committed,
    Aborted,
}

/// A named rollback point. `payload` carries whatever the establishing
/// layer saved (dmx-core stores open scan positions there, implementing
/// the paper's scan-position save/restore around partial rollback).
pub struct Savepoint {
    pub name: String,
    pub lsn: Lsn,
    pub payload: Option<Box<dyn Any + Send>>,
}

struct TxnInner {
    state: TxnState,
    last_lsn: Lsn,
    savepoints: Vec<Savepoint>,
    /// Inside a relation modification ([`Transaction::modification`]):
    /// the record its operations join ([`Lsn::NULL`] until one opens).
    /// `None` outside one.
    open: Option<Lsn>,
}

/// How an extension operation's record may share a frame with the other
/// operations of its relation modification ([`Transaction::log_op`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Joins the modification's open record, or opens one. For an
    /// operation whose replay sets what it logged and compares no page
    /// LSN: it may share a record with another operation on its pages.
    Joins,
    /// Opens a record of its own, which later operations may join. For
    /// an operation whose replay compares page LSNs: a page's LSN tells
    /// only which records reached it, so no earlier operation of its
    /// record may have touched its pages.
    Leads,
}

/// A relation modification in progress ([`Transaction::modification`]);
/// dropping it ends the modification.
#[must_use]
pub struct Modifying<'a> {
    txn: &'a Transaction,
    outer: Option<Lsn>,
}

impl Drop for Modifying<'_> {
    fn drop(&mut self) {
        // The record closes with the modification; an enclosing one
        // continues in a record of its own.
        self.txn.inner.lock().open = self.outer.map(|_| Lsn::NULL);
    }
}

/// A transaction handle. Shared via `Arc`; internally synchronized.
pub struct Transaction {
    id: TxnId,
    log: Arc<LogManager>,
    inner: Mutex<TxnInner>,
    queues: Mutex<DeferredQueues>,
    /// The transaction-consistent read position, captured at begin.
    snapshot: Snapshot,
    /// When set, read-only scans run against [`Transaction::snapshot`]
    /// with zero record locks instead of S-locking every returned
    /// record. Writers ignore the flag (2PL + range locks always).
    snapshot_reads: AtomicBool,
}

impl Transaction {
    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The snapshot captured when this transaction began.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot
    }

    /// Whether read-only scans should use snapshot visibility.
    pub fn snapshot_reads(&self) -> bool {
        self.snapshot_reads.load(Ordering::Acquire)
    }

    /// Sets snapshot-read mode, returning the previous value (callers
    /// scope the flag around a statement and restore it after).
    pub fn set_snapshot_reads(&self, on: bool) -> bool {
        self.snapshot_reads.swap(on, Ordering::AcqRel)
    }

    /// Current state.
    pub fn state(&self) -> TxnState {
        self.inner.lock().state
    }

    /// Errors unless the transaction is still active.
    pub fn check_active(&self) -> Result<()> {
        match self.state() {
            TxnState::Active => Ok(()),
            _ => Err(DmxError::TxnAborted(self.id)),
        }
    }

    /// Head of the undo chain (this transaction's most recent log record).
    pub fn last_lsn(&self) -> Lsn {
        self.inner.lock().last_lsn
    }

    /// Appends a log record for this transaction, maintaining the undo
    /// chain, and returns its LSN.
    ///
    /// Begin is logged lazily, just before the transaction's first real
    /// record: a transaction that never writes leaves no trace in the
    /// log, so read-only work (and an untouched open/close cycle) keeps
    /// the stable log byte-identical.
    pub fn log(&self, body: LogBody) -> Lsn {
        let mut inner = self.inner.lock();
        self.append(&mut inner, body)
    }

    fn append(&self, inner: &mut TxnInner, body: LogBody) -> Lsn {
        if inner.last_lsn.is_null() && !matches!(body, LogBody::Begin) {
            inner.last_lsn = self.log.append(self.id, Lsn::NULL, LogBody::Begin);
        }
        let lsn = self.log.append(self.id, inner.last_lsn, body);
        inner.last_lsn = lsn;
        lsn
    }

    /// Starts a relation modification — the storage method's change and
    /// its attachments' side effects — whose extension operations share
    /// one record as far as [`Sharing`] lets them, until the guard drops.
    /// The record open before is closed, so the modification's records
    /// all follow [`Transaction::last_lsn`] as it is now: a rollback to
    /// that point takes back the whole modification and nothing before.
    /// A modification nested in another (a cascade) has records of its
    /// own, and the enclosing one goes on in a new record after it.
    pub fn modification(&self) -> Modifying<'_> {
        let mut inner = self.inner.lock();
        let outer = inner.open.replace(Lsn::NULL);
        Modifying { txn: self, outer }
    }

    /// Logs one extension operation and returns the LSN of the record
    /// that holds it: the modification's open record when `sharing`
    /// joins and that record is still this transaction's last and
    /// unforced ([`LogManager::amend`]), else a record of its own.
    pub fn log_op(&self, op: ExtOp, sharing: Sharing) -> Lsn {
        let mut inner = self.inner.lock();
        let op = match inner.open {
            Some(open)
                if sharing == Sharing::Joins && !open.is_null() && open == inner.last_lsn =>
            {
                match self.log.amend(open, op) {
                    Ok(()) => return open,
                    Err(op) => op,
                }
            }
            _ => op,
        };
        let lsn = self.append(&mut inner, op.into());
        if let Some(open) = &mut inner.open {
            *open = lsn;
        }
        lsn
    }

    /// Overwrites the undo-chain head after a rollback appended CLRs.
    pub fn set_last_lsn(&self, lsn: Lsn) {
        self.inner.lock().last_lsn = lsn;
    }

    /// Establishes a named savepoint and returns its LSN. `payload` is
    /// returned by [`Transaction::pop_savepoint`] so callers can restore
    /// auxiliary state (scan positions) after a partial rollback.
    pub fn savepoint(&self, name: impl Into<String>, payload: Option<Box<dyn Any + Send>>) -> Lsn {
        let lsn = self.log(LogBody::Savepoint);
        self.inner.lock().savepoints.push(Savepoint {
            name: name.into(),
            lsn,
            payload,
        });
        lsn
    }

    /// Removes the most recent savepoint with `name` *and* every savepoint
    /// established after it, returning it. Used both for rollback-to and
    /// for releasing (canceling) a rollback point.
    pub fn pop_savepoint(&self, name: &str) -> Result<Savepoint> {
        let mut inner = self.inner.lock();
        let pos = inner
            .savepoints
            .iter()
            .rposition(|s| s.name == name)
            .ok_or_else(|| DmxError::NotFound(format!("savepoint {name}")))?;
        let sp = inner.savepoints.swap_remove(pos);
        inner.savepoints.truncate(pos);
        Ok(sp)
    }

    /// Names of live savepoints, oldest first.
    pub fn savepoint_names(&self) -> Vec<String> {
        self.inner
            .lock()
            .savepoints
            .iter()
            .map(|s| s.name.clone())
            .collect()
    }

    /// Queues a deferred action.
    pub fn defer(&self, event: TxnEvent, action: DeferredAction) {
        self.queues.lock().enqueue(event, action);
    }

    /// Queues a deferred action at most once per `key` per event.
    pub fn defer_once(&self, event: TxnEvent, key: u64, action: DeferredAction) -> bool {
        self.queues.lock().enqueue_once(event, key, action)
    }

    /// Runs all actions queued for `event`, in order. If one fails the
    /// remaining actions for the event still run for `AtAbort`/`AtEnd`
    /// (cleanup events) but not for `BeforePrepare` (the transaction is
    /// aborting anyway, and constraints report the *first* violation).
    pub fn run_deferred(&self, event: TxnEvent) -> Result<()> {
        // Loop because actions may enqueue further actions for the same
        // event (e.g. a cascading deferred constraint).
        loop {
            let actions = self.queues.lock().drain(event);
            if actions.is_empty() {
                return Ok(());
            }
            let cleanup = matches!(event, TxnEvent::AtAbort | TxnEvent::AtEnd);
            let mut first_err = None;
            for a in actions {
                match a() {
                    Ok(()) => {}
                    Err(e) if cleanup => {
                        first_err.get_or_insert(e);
                    }
                    Err(e) => return Err(e),
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
        }
    }

    /// Writes the commit record and forces the log (the commit point).
    ///
    /// Uses [`LogManager::force_group`] so concurrent committers batch:
    /// whoever wins the flush lock carries every record appended so far,
    /// and the others find their commit record already durable.
    pub fn commit_point(&self) -> Result<()> {
        self.check_active()?;
        // Read-only optimization: a transaction that never logged has
        // nothing to make durable — skip the commit record and the force.
        if self.last_lsn().is_null() {
            return Ok(());
        }
        let lsn = self.log(LogBody::Commit);
        self.log.force_group(lsn)
    }

    /// Writes the abort-complete record (after undo finished). A no-op
    /// for transactions that never logged: there is nothing to mark as
    /// rolled back, and appending would make read-only aborts grow the
    /// log.
    pub fn abort_point(&self) {
        if self.last_lsn().is_null() {
            return;
        }
        self.log(LogBody::Abort);
    }

    /// Transitions to a terminal state.
    pub fn finish(&self, state: TxnState) {
        debug_assert!(state != TxnState::Active);
        self.inner.lock().state = state;
    }
}

/// Creates transactions and tracks the active set.
pub struct TxnManager {
    log: Arc<LogManager>,
    next_id: AtomicU64,
    active: Mutex<HashMap<TxnId, Arc<Transaction>>>,
    begins: Arc<dmx_types::obs::Counter>,
    versions: Arc<VersionStore>,
}

impl TxnManager {
    /// Creates a transaction manager over the shared log.
    pub fn new(log: Arc<LogManager>) -> Self {
        Self::new_starting_at(log, 1)
    }

    /// Creates a transaction manager whose first transaction id is
    /// `first_id` — used after restart so ids never repeat across crashes
    /// (restart analysis replays the durable log by transaction id).
    pub fn new_starting_at(log: Arc<LogManager>, first_id: u64) -> Self {
        Self::new_with_metrics(log, first_id, dmx_types::obs::MetricsRegistry::new())
    }

    /// Like [`TxnManager::new_starting_at`], registering metrics in `obs`.
    pub fn new_with_metrics(
        log: Arc<LogManager>,
        first_id: u64,
        obs: Arc<dmx_types::obs::MetricsRegistry>,
    ) -> Self {
        TxnManager {
            log,
            next_id: AtomicU64::new(first_id.max(1)),
            active: Mutex::new(HashMap::new()),
            begins: obs.counter(dmx_types::obs::name::TXN_BEGINS),
            versions: Arc::new(VersionStore::new()),
        }
    }

    /// The shared version store (snapshot visibility side car).
    pub fn versions(&self) -> &Arc<VersionStore> {
        &self.versions
    }

    /// Snapshots of every active transaction — the version GC's
    /// keep-alive set.
    pub fn active_snapshots(&self) -> Vec<Snapshot> {
        self.active.lock().values().map(|t| t.snapshot()).collect()
    }

    /// Runs `f` on the active-snapshot set *while holding the active-set
    /// lock*, serializing it against [`Self::begin`]. Reclamation
    /// decisions (version GC, the DDL-fence pruner) must run here: a
    /// decision made from an unlocked copy of the set can race a
    /// beginning transaction — the beginner captures its snapshot just
    /// before a commit publishes, the reclaimer reads the set just
    /// before the beginner registers, and state the stale snapshot
    /// still needs is reclaimed. Under the lock, either the beginner is
    /// in the set (its snapshot fences the reclaim) or the beginner's
    /// capture is ordered after everything the reclaimer observed (so
    /// its snapshot postdates whatever was reclaimed).
    pub fn with_active_snapshots<T>(&self, f: impl FnOnce(&[Snapshot]) -> T) -> T {
        let active = self.active.lock();
        let snaps: Vec<Snapshot> = active.values().map(|t| t.snapshot()).collect();
        f(&snaps)
    }

    /// Begins a transaction (logs `Begin`).
    pub fn begin(&self) -> Arc<Transaction> {
        self.begins.incr();
        let id = TxnId(self.next_id.fetch_add(1, Ordering::Relaxed));
        // The active-set lock is held across snapshot capture and
        // registration: [`Self::active_snapshots`] is the keep-alive set
        // for the version GC and the DDL-fence pruner, so a snapshot
        // must never exist outside it — a capture-then-register gap
        // would let a concurrent end-of-transaction reclaim state this
        // snapshot still needs.
        let mut active = self.active.lock();
        // No Begin record yet: [`Transaction::log`] writes it lazily
        // before the first real record, so read-only transactions never
        // touch the log.
        let txn = Arc::new(Transaction {
            id,
            log: self.log.clone(),
            inner: Mutex::new(TxnInner {
                state: TxnState::Active,
                last_lsn: Lsn::NULL,
                savepoints: Vec::new(),
                open: None,
            }),
            queues: Mutex::new(DeferredQueues::default()),
            // Captured eagerly so the read position is fixed at begin
            // even if the first read happens much later.
            snapshot: self.versions.capture(),
            snapshot_reads: AtomicBool::new(false),
        });
        active.insert(id, txn.clone());
        txn
    }

    /// Removes a finished transaction from the active set.
    pub fn deregister(&self, id: TxnId) {
        self.active.lock().remove(&id);
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// A snapshot of active transactions (diagnostics).
    pub fn active_ids(&self) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self.active.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
// The unit tests build raw disks or logs beneath the fault injector.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use dmx_wal::StableLog;
    use std::sync::atomic::AtomicU32;

    fn mgr() -> (Arc<LogManager>, TxnManager) {
        let log = Arc::new(LogManager::open(StableLog::new()));
        let tm = TxnManager::new(log.clone());
        (log, tm)
    }

    #[test]
    fn begin_logs_and_chains() {
        let (log, tm) = mgr();
        let t = tm.begin();
        assert_eq!(t.state(), TxnState::Active);
        assert_eq!(tm.active_count(), 1);
        let l1 = t.log(LogBody::Savepoint);
        assert_eq!(log.record(l1).unwrap().prev_lsn, Lsn(1), "chained to Begin");
        assert_eq!(t.last_lsn(), l1);
        tm.deregister(t.id());
        assert_eq!(tm.active_count(), 0);
    }

    fn op(ext: u8) -> ExtOp {
        ExtOp {
            ext: dmx_wal::ExtKind::Attachment(dmx_types::AttTypeId(ext)),
            relation: dmx_types::RelationId(1),
            op: 1,
            payload: vec![ext],
        }
    }

    /// Inside a modification, joining operations share the record the
    /// first one opened, and a leading one opens a new record the rest
    /// join. Outside, every operation is a record. A nested modification
    /// starts its own record, and the outer one continues in a new record
    /// after it.
    #[test]
    fn a_modifications_operations_share_its_record() {
        let (log, tm) = mgr();
        let t = tm.begin();
        let ops = |lsn| {
            let rec = log.record(lsn).unwrap();
            rec.body.ext_ops().map(|o| o.payload[0]).collect::<Vec<_>>()
        };
        let lone = t.log_op(op(1), Sharing::Joins);
        let (a, b, d, e, f, g) = {
            let _m = t.modification();
            let a = t.log_op(op(2), Sharing::Leads);
            assert_eq!(t.log_op(op(3), Sharing::Joins), a);
            let b = t.log_op(op(4), Sharing::Leads);
            assert_eq!(t.log_op(op(5), Sharing::Joins), b);
            let d = t.log_op(op(7), Sharing::Leads);
            let (e, f) = {
                let _nested = t.modification();
                let e = t.log_op(op(8), Sharing::Joins);
                (e, t.log_op(op(9), Sharing::Joins))
            };
            let g = t.log_op(op(10), Sharing::Joins);
            (a, b, d, e, f, g)
        };
        assert_eq!(e, f);
        let after = t.log_op(op(11), Sharing::Joins);
        let got: Vec<Vec<u8>> = [lone, a, b, d, e, g, after].map(ops).into();
        assert_eq!(
            got,
            [
                vec![1],
                vec![2, 3],
                vec![4, 5],
                vec![7],
                vec![8, 9],
                vec![10],
                vec![11]
            ]
        );
        assert_eq!(log.last_lsn(), after);
    }

    /// An operation joins only the transaction's last record, and only
    /// while no force has taken it.
    #[test]
    fn a_record_closes_when_another_follows_or_a_force_takes_it() {
        let (log, tm) = mgr();
        let t = tm.begin();
        let _m = t.modification();
        let a = t.log_op(op(1), Sharing::Joins);
        t.savepoint("s", None);
        let b = t.log_op(op(2), Sharing::Joins);
        assert!(b > a);
        log.force_all().unwrap();
        let c = t.log_op(op(3), Sharing::Joins);
        assert_eq!(c, Lsn(b.0 + 1), "b was sealed by the force");
        assert_eq!(t.log_op(op(4), Sharing::Joins), c);
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let (_log, tm) = mgr();
        let a = tm.begin();
        let b = tm.begin();
        assert!(b.id() > a.id());
        assert_eq!(tm.active_ids(), vec![a.id(), b.id()]);
    }

    #[test]
    fn commit_point_forces_log() {
        let (log, tm) = mgr();
        let t = tm.begin();
        t.commit_point().unwrap();
        assert_eq!(log.durable_lsn(), log.last_lsn());
        t.finish(TxnState::Committed);
        assert!(t.check_active().is_err());
        assert!(t.commit_point().is_err(), "double commit rejected");
    }

    #[test]
    fn savepoint_stack_semantics() {
        let (_log, tm) = mgr();
        let t = tm.begin();
        t.savepoint("a", None);
        t.savepoint("b", Some(Box::new(7u32)));
        t.savepoint("c", None);
        assert_eq!(t.savepoint_names(), vec!["a", "b", "c"]);
        // popping b also discards c (later savepoints die with it)
        let sp = t.pop_savepoint("b").unwrap();
        assert_eq!(
            *sp.payload.unwrap().downcast::<u32>().unwrap(),
            7,
            "payload returned"
        );
        assert_eq!(t.savepoint_names(), vec!["a"]);
        assert!(t.pop_savepoint("b").is_err());
    }

    #[test]
    fn duplicate_savepoint_names_pop_latest() {
        let (_log, tm) = mgr();
        let t = tm.begin();
        let l1 = t.savepoint("sp", None);
        let l2 = t.savepoint("sp", None);
        assert!(l2 > l1);
        assert_eq!(t.pop_savepoint("sp").unwrap().lsn, l2);
        assert_eq!(t.pop_savepoint("sp").unwrap().lsn, l1);
    }

    #[test]
    fn deferred_actions_can_requeue() {
        let (_log, tm) = mgr();
        let t = tm.begin();
        let hits = Arc::new(AtomicU32::new(0));
        let t2 = t.clone();
        let hits2 = hits.clone();
        t.defer(
            TxnEvent::BeforePrepare,
            Box::new(move || {
                hits2.fetch_add(1, Ordering::SeqCst);
                let hits3 = hits2.clone();
                // cascades: enqueue one more round
                t2.defer(
                    TxnEvent::BeforePrepare,
                    Box::new(move || {
                        hits3.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    }),
                );
                Ok(())
            }),
        );
        t.run_deferred(TxnEvent::BeforePrepare).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn before_prepare_failure_stops_and_propagates() {
        let (_log, tm) = mgr();
        let t = tm.begin();
        let ran_after = Arc::new(AtomicU32::new(0));
        t.defer(
            TxnEvent::BeforePrepare,
            Box::new(|| Err(DmxError::ConstraintViolation("sum < 0".into()))),
        );
        let ra = ran_after.clone();
        t.defer(
            TxnEvent::BeforePrepare,
            Box::new(move || {
                ra.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
        );
        assert!(t.run_deferred(TxnEvent::BeforePrepare).is_err());
        assert_eq!(
            ran_after.load(Ordering::SeqCst),
            0,
            "stopped at first failure"
        );
    }

    #[test]
    fn cleanup_events_run_all_even_on_failure() {
        let (_log, tm) = mgr();
        let t = tm.begin();
        let ran = Arc::new(AtomicU32::new(0));
        t.defer(TxnEvent::AtEnd, Box::new(|| Err(DmxError::Io("x".into()))));
        let r2 = ran.clone();
        t.defer(
            TxnEvent::AtEnd,
            Box::new(move || {
                r2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
        );
        let err = t.run_deferred(TxnEvent::AtEnd).unwrap_err();
        assert_eq!(err, DmxError::Io("x".into()), "first error reported");
        assert_eq!(ran.load(Ordering::SeqCst), 1, "later cleanup still ran");
    }

    #[test]
    fn defer_once_per_transaction() {
        let (_log, tm) = mgr();
        let t = tm.begin();
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..5 {
            let h = hits.clone();
            t.defer_once(
                TxnEvent::BeforePrepare,
                99,
                Box::new(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            );
        }
        t.run_deferred(TxnEvent::BeforePrepare).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}
