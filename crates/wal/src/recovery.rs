//! The log-driven recovery driver.
//!
//! One driver serves all three uses the paper names: *partial rollback*
//! (vetoed relation modifications, application savepoints), *transaction
//! abort*, and *system restart*. The driver walks a transaction's undo
//! chain backwards and hands each extension-operation record to the
//! [`UndoHandler`] (implemented in `dmx-core` by dispatching through the
//! storage-method / attachment procedure vectors). Compensation records
//! (CLRs) make interrupted rollbacks idempotent, and each is the token the
//! pages its undo changes are stamped with ([`Compensation`]).
//!
//! Restart repeats history — redoes every record after the checkpoint in
//! LSN order, losers' included — before it undoes anything, so an undo
//! always finds its record's change on the page. Undo must still be
//! idempotent: restart repeats a compensation wherever a page lacks its
//! CLR, and a page stolen after the undo already has it. Heap undo
//! checks page LSNs; tree undo installs an image.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};

use dmx_types::{Appended, Lsn, Result, TxnId};

use crate::log::LogManager;
use crate::record::{LogBody, LogRecord};

/// The compensation record (CLR) of one undo, and the token the pages
/// the undo changes are stamped with.
///
/// Rollback appends the CLR the first time the undo asks for its token —
/// under the latch of the page it is about to change, so no later record
/// reaches that page ahead of it — or, when the undo changed nothing,
/// once the undo returns. An undo that fails before it asks appends no
/// CLR, and its record stays on the chain to be undone again. Restart's
/// repeated compensation hands over the CLR the log already holds
/// ([`Compensation::repeated`]).
pub struct Compensation<'a> {
    /// Where rollback appends the CLR; `None` once it is in the log.
    pending: Option<PendingClr<'a>>,
    lsn: Cell<Lsn>,
}

struct PendingClr<'a> {
    log: &'a LogManager,
    txn: TxnId,
    prev_lsn: Lsn,
    undo_next: Lsn,
}

impl<'a> Compensation<'a> {
    fn pending(log: &'a LogManager, txn: TxnId, prev_lsn: Lsn, undo_next: Lsn) -> Self {
        Compensation {
            pending: Some(PendingClr {
                log,
                txn,
                prev_lsn,
                undo_next,
            }),
            lsn: Cell::new(Lsn::NULL),
        }
    }

    /// The compensation the record `clr` is in the log for, repeated at
    /// restart. (A replay test may hand any record for it.)
    pub fn repeating(clr: &LogRecord) -> Compensation<'static> {
        Compensation {
            pending: None,
            lsn: Cell::new(clr.lsn),
        }
    }

    /// The CLR's token, appending the CLR the first time it is asked for.
    pub fn appended(&self) -> Appended {
        if let Some(p) = self.pending.as_ref().filter(|_| self.lsn.get().is_null()) {
            let clr = LogBody::Clr {
                undo_next: p.undo_next,
            };
            self.lsn.set(p.log.append(p.txn, p.prev_lsn, clr));
        }
        Appended::by_log(self.lsn.get())
    }

    /// Restart repeating a compensation the log already holds: the CLR's
    /// LSN. A page that carries it has the undo already, and so does an
    /// extension that keeps no pages — its undo completed before the CLR
    /// was written.
    pub fn repeated(&self) -> Option<Lsn> {
        self.pending.is_none().then(|| self.lsn.get())
    }
}

/// Callback surface the recovery driver uses to reach extensions.
pub trait UndoHandler {
    /// Undoes one record's extension operations ([`LogBody::ext_ops`]) —
    /// last to first, the one record's one undo step — stamping what
    /// they change with `clr`'s token. Must be idempotent.
    fn undo(&self, rec: &LogRecord, clr: &Compensation<'_>) -> Result<()>;

    /// Re-applies one record's extension operations, first to last,
    /// during restart's redo pass. Restart repeats history: every record
    /// past the checkpoint is redone in LSN order, whether its
    /// transaction committed, aborted or is a loser, and compensations
    /// and loser undo then take back what was taken back. Under the
    /// steal/no-force policy a page may hold any prefix of its history,
    /// so redo must be idempotent: a page already past the record keeps
    /// what it has.
    fn redo(&self, rec: &LogRecord) -> Result<()>;

    /// Completes a committed transaction's deferred intent during restart
    /// (e.g. physically releasing a dropped relation's file). Must be
    /// idempotent.
    fn redo_deferred(&self, rec: &LogRecord) -> Result<()>;
}

/// Rolls a transaction back to a rollback point: undoes every operation
/// with `lsn > stop_after`, writing a CLR per undone operation — the
/// undo's [`Compensation`].
///
/// `from_lsn` is the transaction's current last LSN; the new last LSN
/// (the final CLR, or `from_lsn` when nothing needed undoing) is returned.
/// Passing `stop_after = Lsn::NULL` performs a full rollback.
pub fn rollback_to(
    log: &LogManager,
    handler: &dyn UndoHandler,
    txn: TxnId,
    from_lsn: Lsn,
    stop_after: Lsn,
) -> Result<Lsn> {
    let mut cur = from_lsn;
    let mut last = from_lsn;
    while !cur.is_null() && cur > stop_after {
        let rec = log.record(cur)?;
        debug_assert_eq!(rec.txn, txn, "undo chain crossed transactions");
        match &rec.body {
            body if body.has_ext_ops() => {
                let clr = Compensation::pending(log, txn, last, rec.prev_lsn);
                handler.undo(&rec, &clr)?;
                last = clr.appended().lsn();
                cur = rec.prev_lsn;
            }
            // A CLR means everything from here back to its undo_next was
            // already undone by an earlier (interrupted) rollback.
            LogBody::Clr { undo_next } => cur = *undo_next,
            _ => cur = rec.prev_lsn,
        }
    }
    Ok(last)
}

/// What restart recovery did.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Loser transactions that were rolled back.
    pub losers: Vec<TxnId>,
    /// Deferred intents of committed transactions that were (re-)executed.
    pub intents_redone: usize,
    /// Extension-operation records the redo pass replayed: every one
    /// after the checkpoint, whatever became of its transaction.
    pub ops_redone: usize,
    /// Compensations the redo pass repeated: one per CLR after the
    /// checkpoint, whatever became of its transaction.
    pub compensations_repeated: usize,
    /// The last durable [`LogBody::Checkpoint`] record ([`Lsn::NULL`] when
    /// none): the point the redo scan started from. The database compares
    /// this against the log end to decide whether opening quiescently
    /// needs to write a fresh checkpoint.
    pub last_checkpoint: Lsn,
    /// Torn/corrupt frames truncated from the durable log tail before
    /// analysis.
    pub tail_truncated: usize,
    /// Highest transaction id seen in the durable log (0 when empty); the
    /// database uses this to restart its transaction-id sequence without
    /// a second log scan.
    pub max_txn: u64,
}

/// What one streaming pass over the durable log establishes: transaction
/// outcomes, deferred-intent status, and how much torn tail was dropped.
struct Analysis {
    /// Loser transactions mapped to their last durable LSN.
    active: HashMap<TxnId, Lsn>,
    /// Transactions with a durable commit record.
    committed: HashSet<TxnId>,
    /// LSN of the last checkpoint record ([`Lsn::NULL`] when none).
    checkpoint: Lsn,
    /// All deferred-intent records, in log order.
    intents: Vec<LogRecord>,
    /// Intent LSNs with a durable completion record.
    done: HashSet<Lsn>,
    /// Highest transaction id seen.
    max_txn: u64,
    /// Frames dropped by the tail scan.
    tail_truncated: usize,
}

/// Truncates the torn/corrupt log tail and, in the same pass, classifies
/// transactions and deferred intents: the tail scan hands each durable
/// record here as it decodes it (no whole-log clone, no second decode).
/// Frame reads retry transient faults like every other I/O path, so
/// `DmxError::IoTransient` never escapes restart.
fn analyze(log: &LogManager) -> Result<Analysis> {
    let mut active: HashMap<TxnId, Lsn> = HashMap::new();
    let mut committed: HashSet<TxnId> = HashSet::new();
    let mut checkpoint = Lsn::NULL;
    let mut intents: Vec<LogRecord> = Vec::new();
    let mut done: HashSet<Lsn> = HashSet::new();
    let mut max_txn = 0u64;
    // A crash mid-force can leave one torn frame; rot can corrupt any
    // frame. Nothing past the first bad frame is trustworthy (LSN chains
    // would dangle), so the tail is dropped.
    let tail_truncated = log.scan_and_truncate_tail(|rec| {
        if rec.txn.0 > max_txn {
            max_txn = rec.txn.0;
        }
        match &rec.body {
            LogBody::Begin => {
                active.insert(rec.txn, rec.lsn);
            }
            LogBody::Commit => {
                active.remove(&rec.txn);
                committed.insert(rec.txn);
            }
            LogBody::Abort => {
                active.remove(&rec.txn);
            }
            LogBody::Checkpoint => checkpoint = rec.lsn,
            LogBody::DeferredIntent { .. } => intents.push(rec.clone()),
            LogBody::DeferredDone { intent_lsn } => {
                done.insert(*intent_lsn);
            }
            _ => {}
        }
        if let Some(last) = active.get_mut(&rec.txn) {
            *last = rec.lsn;
        }
    })?;
    Ok(Analysis {
        active,
        committed,
        checkpoint,
        intents,
        done,
        max_txn,
        tail_truncated,
    })
}

/// System restart recovery (ARIES-shaped): truncates a torn/corrupt log
/// tail, analyzes the durable log, then **repeats history** — walks
/// forward from the last checkpoint redoing every extension-operation
/// record (under steal/no-force any page may lack any of them) and
/// repeating every compensation (a page stolen before its rollback may
/// never have seen the undo), whatever became of their transactions —
/// then completes committed transactions' outstanding deferred intents,
/// and finally undoes loser transactions. Forces the log before
/// returning.
pub fn restart(log: &LogManager, handler: &dyn UndoHandler) -> Result<RestartReport> {
    let analysis = analyze(log)?;
    let checkpoint = analysis.checkpoint;

    // --- repeat history: one forward pass in LSN order ---
    // A record is redone wherever a page lacks it; a CLR carries no image
    // of its own, so the undo it records is driven again — of the record
    // it compensates, stamped with the CLR's token — wherever a page
    // lacks the CLR's LSN. Each page, and the catalog, meets its changes
    // in the order they were made, so every record is dispatched against
    // the catalog of its own time. The pass starts at the checkpoint: a
    // transaction never spans one (checkpoints are written at quiescent
    // open and clean close), so every earlier effect is on disk.
    let (mut ops_redone, mut compensations_repeated) = (0, 0);
    let stable = log.stable();
    for lsn in checkpoint.0 + 1..=stable.len() as u64 {
        let rec = stable.record(Lsn(lsn))?;
        match &rec.body {
            body if body.has_ext_ops() => {
                handler.redo(&rec)?;
                ops_redone += 1;
            }
            LogBody::Clr { undo_next } => {
                if let Some(undone) = compensated(log, &rec, *undo_next)? {
                    handler.undo(&undone, &Compensation::repeating(&rec))?;
                    compensations_repeated += 1;
                }
            }
            _ => {}
        }
    }

    // --- complete committed deferred intents (physical releases) ---
    // After the redo: a release consults the catalog, final only now.
    let mut intents_redone = 0;
    for intent in &analysis.intents {
        if analysis.committed.contains(&intent.txn) && !analysis.done.contains(&intent.lsn) {
            handler.redo_deferred(intent)?;
            log.append(
                intent.txn,
                Lsn::NULL,
                LogBody::DeferredDone {
                    intent_lsn: intent.lsn,
                },
            );
            intents_redone += 1;
        }
    }

    // --- undo losers (deterministic order) ---
    let mut losers: Vec<(TxnId, Lsn)> = analysis.active.into_iter().collect();
    losers.sort_unstable();
    let mut loser_ids = Vec::with_capacity(losers.len());
    for (txn, last) in losers {
        let new_last = rollback_to(log, handler, txn, last, Lsn::NULL)?;
        log.append(txn, new_last, LogBody::Abort);
        loser_ids.push(txn);
    }

    log.force_all()?;
    Ok(RestartReport {
        losers: loser_ids,
        intents_redone,
        ops_redone,
        compensations_repeated,
        last_checkpoint: checkpoint,
        tail_truncated: analysis.tail_truncated,
        max_txn: analysis.max_txn,
    })
}

/// The record the CLR `clr` compensates: the ExtOp of its transaction
/// whose `prev_lsn` is the CLR's `undo_next` — the next record the
/// transaction appended after `undo_next`, so the scan forward from there
/// is short. `None` when the log holds no such record before the CLR.
fn compensated(log: &LogManager, clr: &LogRecord, undo_next: Lsn) -> Result<Option<LogRecord>> {
    for lsn in (undo_next.0 + 1)..clr.lsn.0 {
        let rec = log.record(Lsn(lsn))?;
        if rec.txn == clr.txn && rec.prev_lsn == undo_next {
            return Ok(rec.body.has_ext_ops().then_some(rec));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::StableLog;
    use crate::record::ExtKind;
    use dmx_types::sync::Mutex;
    use dmx_types::{DmxError, RelationId, SmTypeId};
    use std::sync::Arc;

    /// A handler that applies ops to a shadow set: op payload [n] means
    /// "n was applied", on a page of its own whose LSN every change to it
    /// stamps. Redo and undo are gated as `redo_page_op`/`undo_page_op`
    /// gate a heap page: redo only onto a page before its record, undo
    /// only of a change the page holds and whose compensation it lacks.
    #[derive(Default)]
    struct Shadow {
        applied: Mutex<Vec<u8>>,
        pages: Mutex<HashMap<u8, Lsn>>,
        undone: Mutex<Vec<u8>>,
        redone: Mutex<Vec<u8>>,
        deferred: Mutex<Vec<Vec<u8>>>,
    }

    impl Shadow {
        /// Applies `n` and stamps its page with `lsn`, the record's.
        fn apply(&self, n: u8, lsn: Lsn) {
            self.applied.lock().push(n);
            self.pages.lock().insert(n, lsn);
        }

        fn page_lsn(&self, n: u8) -> Lsn {
            self.pages.lock().get(&n).copied().unwrap_or(Lsn::NULL)
        }
    }

    impl UndoHandler for Shadow {
        fn undo(&self, rec: &LogRecord, clr: &Compensation<'_>) -> Result<()> {
            for op in rec.body.ext_ops().rev() {
                let n = op.payload[0];
                let page = self.page_lsn(n);
                if page < rec.lsn || clr.repeated().is_some_and(|c| page >= c) {
                    continue;
                }
                let mut applied = self.applied.lock();
                if let Some(pos) = applied.iter().position(|&b| b == n) {
                    applied.remove(pos);
                    self.pages.lock().insert(n, clr.appended().lsn());
                    self.undone.lock().push(n);
                }
            }
            Ok(())
        }
        fn redo(&self, rec: &LogRecord) -> Result<()> {
            for op in rec.body.ext_ops() {
                let n = op.payload[0];
                if self.page_lsn(n) < rec.lsn {
                    self.apply(n, rec.lsn);
                    self.redone.lock().push(n);
                }
            }
            Ok(())
        }
        fn redo_deferred(&self, rec: &LogRecord) -> Result<()> {
            if let LogBody::DeferredIntent { payload } = &rec.body {
                self.deferred.lock().push(payload.clone());
            }
            Ok(())
        }
    }

    fn op(n: u8) -> LogBody {
        LogBody::ExtOp {
            ext: ExtKind::Storage(SmTypeId(1)),
            relation: RelationId(1),
            op: 0,
            payload: vec![n],
        }
    }

    /// Appends `Begin` + ops, applying them to the shadow, returning
    /// (last_lsn, per-op lsns).
    fn run_ops(log: &LogManager, sh: &Shadow, txn: TxnId, ops: &[u8]) -> (Lsn, Vec<Lsn>) {
        let mut last = log.append(txn, Lsn::NULL, LogBody::Begin);
        let mut lsns = Vec::new();
        for &n in ops {
            last = log.append(txn, last, op(n));
            sh.apply(n, last);
            lsns.push(last);
        }
        (last, lsns)
    }

    #[test]
    fn full_rollback_undoes_in_reverse() {
        let log = LogManager::open(StableLog::new());
        let sh = Shadow::default();
        let (last, _) = run_ops(&log, &sh, TxnId(1), &[1, 2, 3]);
        let new_last = rollback_to(&log, &sh, TxnId(1), last, Lsn::NULL).unwrap();
        assert!(sh.applied.lock().is_empty());
        assert_eq!(*sh.undone.lock(), vec![3, 2, 1], "reverse order");
        // three CLRs were appended and the chain now ends at the last CLR
        assert!(new_last > last);
        assert!(matches!(
            log.record(new_last).unwrap().body,
            LogBody::Clr { .. }
        ));
    }

    #[test]
    fn partial_rollback_stops_at_savepoint() {
        let log = LogManager::open(StableLog::new());
        let sh = Shadow::default();
        let txn = TxnId(1);
        let (mut last, _) = run_ops(&log, &sh, txn, &[1, 2]);
        let sp = log.append(txn, last, LogBody::Savepoint);
        last = sp;
        for n in [3u8, 4] {
            last = log.append(txn, last, op(n));
            sh.apply(n, last);
        }
        rollback_to(&log, &sh, txn, last, sp).unwrap();
        assert_eq!(*sh.applied.lock(), vec![1, 2], "pre-savepoint ops survive");
        assert_eq!(*sh.undone.lock(), vec![4, 3]);
    }

    #[test]
    fn clr_prevents_double_undo() {
        let log = LogManager::open(StableLog::new());
        let sh = Shadow::default();
        let txn = TxnId(1);
        let (last, _) = run_ops(&log, &sh, txn, &[1, 2, 3]);
        let after_first = rollback_to(&log, &sh, txn, last, Lsn::NULL).unwrap();
        // Rolling back again from the new end of chain must be a no-op.
        rollback_to(&log, &sh, txn, after_first, Lsn::NULL).unwrap();
        assert_eq!(*sh.undone.lock(), vec![3, 2, 1], "each op undone once");
    }

    #[test]
    fn restart_undoes_losers_and_keeps_winners() {
        let stable = StableLog::new();
        let sh = Arc::new(Shadow::default());
        {
            let log = LogManager::open(stable.clone());
            // winner commits
            let (w_last, _) = run_ops(&log, &sh, TxnId(1), &[10, 11]);
            log.append(TxnId(1), w_last, LogBody::Commit);
            // loser never commits
            run_ops(&log, &sh, TxnId(2), &[20, 21]);
            log.force_all().unwrap();
        } // crash
        let log = LogManager::open(stable);
        let report = restart(&log, &*sh).unwrap();
        assert_eq!(report.losers, vec![TxnId(2)]);
        assert_eq!(*sh.applied.lock(), vec![10, 11]);
        assert_eq!(*sh.undone.lock(), vec![21, 20]);
    }

    #[test]
    fn restart_ignores_unforced_loser_tail() {
        // Ops that never reached the stable log simply don't exist at
        // restart; the undo pass only sees the durable prefix.
        let stable = StableLog::new();
        let sh = Arc::new(Shadow::default());
        {
            let log = LogManager::open(stable.clone());
            let (last, _) = run_ops(&log, &sh, TxnId(1), &[1]);
            log.force_all().unwrap();
            let unforced = log.append(TxnId(1), last, op(2));
            sh.apply(2, unforced);
        } // crash: op 2 never durable
        let log = LogManager::open(stable);
        restart(&log, &*sh).unwrap();
        assert_eq!(*sh.undone.lock(), vec![1], "only the durable op undone");
    }

    #[test]
    fn restart_completes_committed_deferred_intents_once() {
        let stable = StableLog::new();
        let sh = Arc::new(Shadow::default());
        {
            let log = LogManager::open(stable.clone());
            let t = TxnId(1);
            let l1 = log.append(t, Lsn::NULL, LogBody::Begin);
            let l2 = log.append(
                t,
                l1,
                LogBody::DeferredIntent {
                    payload: b"drop file 7".to_vec(),
                },
            );
            log.append(t, l2, LogBody::Commit);
            // also: an intent of an uncommitted txn must NOT be redone
            let u1 = log.append(TxnId(2), Lsn::NULL, LogBody::Begin);
            log.append(
                TxnId(2),
                u1,
                LogBody::DeferredIntent {
                    payload: b"never".to_vec(),
                },
            );
            log.force_all().unwrap();
        }
        let log = LogManager::open(stable.clone());
        let report = restart(&log, &*sh).unwrap();
        assert_eq!(report.intents_redone, 1);
        assert_eq!(*sh.deferred.lock(), vec![b"drop file 7".to_vec()]);
        // a second crash+restart must not redo it again (DeferredDone logged)
        let log2 = LogManager::open(stable);
        let report2 = restart(&log2, &*sh).unwrap();
        assert_eq!(report2.intents_redone, 0);
        assert_eq!(sh.deferred.lock().len(), 1);
    }

    #[test]
    fn restart_on_empty_log_is_clean() {
        let log = LogManager::open(StableLog::new());
        let sh = Shadow::default();
        let report = restart(&log, &sh).unwrap();
        assert_eq!(report, RestartReport::default());
    }

    #[test]
    fn restart_truncates_corrupt_tail_then_recovers() {
        let stable = StableLog::new();
        let sh = Arc::new(Shadow::default());
        {
            let log = LogManager::open(stable.clone());
            let (w_last, _) = run_ops(&log, &sh, TxnId(1), &[10]);
            log.append(TxnId(1), w_last, LogBody::Commit);
            run_ops(&log, &sh, TxnId(2), &[20]);
            log.force_all().unwrap();
            // a torn frame at the very tail (garbage bytes, bad checksum)
            stable.append_frame(vec![0xDE, 0xAD, 0xBE]).unwrap();
        } // crash
        let log = LogManager::open(stable.clone());
        let report = restart(&log, &*sh).unwrap();
        assert_eq!(report.tail_truncated, 1);
        assert_eq!(report.losers, vec![TxnId(2)]);
        assert_eq!(report.max_txn, 2);
        assert_eq!(*sh.applied.lock(), vec![10], "winner survives");
        assert_eq!(*sh.undone.lock(), vec![20]);
    }

    #[test]
    fn restart_twice_is_idempotent() {
        // "Crash during restart recovery itself": the first recovery
        // completes and forces, then the system crashes again before doing
        // any new work. The second recovery must find a clean log and
        // change nothing.
        let stable = StableLog::new();
        let sh = Arc::new(Shadow::default());
        {
            let log = LogManager::open(stable.clone());
            let (w_last, _) = run_ops(&log, &sh, TxnId(1), &[10, 11]);
            log.append(TxnId(1), w_last, LogBody::Commit);
            run_ops(&log, &sh, TxnId(2), &[20, 21]);
            log.force_all().unwrap();
        } // crash
        {
            let log = LogManager::open(stable.clone());
            let r1 = restart(&log, &*sh).unwrap();
            assert_eq!(r1.losers, vec![TxnId(2)]);
        } // crash again, immediately after recovery
        let log = LogManager::open(stable.clone());
        let r2 = restart(&log, &*sh).unwrap();
        assert!(r2.losers.is_empty(), "loser already aborted durably");
        assert_eq!(r2.intents_redone, 0);
        assert_eq!(*sh.applied.lock(), vec![10, 11]);
        assert_eq!(*sh.undone.lock(), vec![21, 20], "no double undo");
    }

    #[test]
    fn crash_between_intent_redo_and_done_completes_on_next_restart() {
        // The hard window: a committed DeferredIntent's redo starts during
        // restart, but the system crashes before the DeferredDone becomes
        // durable. The next restart must re-drive the (idempotent) intent.
        struct FailOnce {
            inner: Shadow,
            tripped: Mutex<bool>,
        }
        impl UndoHandler for FailOnce {
            fn undo(&self, rec: &LogRecord, clr: &Compensation<'_>) -> Result<()> {
                self.inner.undo(rec, clr)
            }
            fn redo(&self, rec: &LogRecord) -> Result<()> {
                self.inner.redo(rec)
            }
            fn redo_deferred(&self, rec: &LogRecord) -> Result<()> {
                let mut tripped = self.tripped.lock();
                if !*tripped {
                    *tripped = true;
                    return Err(DmxError::Io("simulated crash during restart".into()));
                }
                self.inner.redo_deferred(rec)
            }
        }
        let stable = StableLog::new();
        let sh = FailOnce {
            inner: Shadow::default(),
            tripped: Mutex::new(false),
        };
        {
            let log = LogManager::open(stable.clone());
            let t = TxnId(1);
            let l1 = log.append(t, Lsn::NULL, LogBody::Begin);
            let l2 = log.append(
                t,
                l1,
                LogBody::DeferredIntent {
                    payload: b"drop file 9".to_vec(),
                },
            );
            log.append(t, l2, LogBody::Commit);
            log.force_all().unwrap();
        } // crash
        {
            let log = LogManager::open(stable.clone());
            assert!(restart(&log, &sh).is_err(), "first restart dies mid-redo");
        } // crash during recovery: no DeferredDone reached the stable log
        let log = LogManager::open(stable.clone());
        let report = restart(&log, &sh).unwrap();
        assert_eq!(report.intents_redone, 1);
        assert_eq!(*sh.inner.deferred.lock(), vec![b"drop file 9".to_vec()]);
        // and a third restart finds the DeferredDone and stays quiet
        let log = LogManager::open(stable);
        let report = restart(&log, &sh).unwrap();
        assert_eq!(report.intents_redone, 0);
        assert_eq!(sh.inner.deferred.lock().len(), 1);
    }

    #[test]
    fn restart_redoes_committed_ops_lost_from_volatile_state() {
        // Steal/no-force: a committed transaction's effects may not be on
        // disk at all. A fresh shadow (nothing applied) stands in for the
        // lost pages; restart's redo pass reinstalls every op in log
        // order, the loser's too, and the loser's undo takes it back.
        let stable = StableLog::new();
        {
            let log = LogManager::open(stable.clone());
            let sh = Shadow::default(); // applies are discarded with it
            let (w_last, _) = run_ops(&log, &sh, TxnId(1), &[10, 11]);
            log.append(TxnId(1), w_last, LogBody::Commit);
            run_ops(&log, &sh, TxnId(2), &[20]);
            log.force_all().unwrap();
        } // crash loses every applied effect
        let log = LogManager::open(stable);
        let fresh = Shadow::default();
        let report = restart(&log, &fresh).unwrap();
        assert_eq!(report.ops_redone, 3);
        assert_eq!(*fresh.applied.lock(), vec![10, 11], "winner reinstalled");
        assert_eq!(*fresh.redone.lock(), vec![10, 11, 20], "forward log order");
        assert_eq!(*fresh.undone.lock(), vec![20], "loser redone, then undone");
    }

    #[test]
    fn redo_repeats_ops_compensated_before_commit_then_takes_them_back() {
        // A committed transaction that partially rolled back (savepoint)
        // contains CLRs; restart redoes its compensated ops like any
        // other and then repeats the compensations that took them back.
        let stable = StableLog::new();
        {
            let log = LogManager::open(stable.clone());
            let sh = Shadow::default();
            let txn = TxnId(1);
            let (mut last, _) = run_ops(&log, &sh, txn, &[1]);
            let sp = log.append(txn, last, LogBody::Savepoint);
            last = sp;
            for n in [2u8, 3] {
                last = log.append(txn, last, op(n));
                sh.apply(n, last);
            }
            // roll back to the savepoint, then commit with op 4
            last = rollback_to(&log, &sh, txn, last, sp).unwrap();
            last = log.append(txn, last, op(4));
            sh.apply(4, last);
            log.append(txn, last, LogBody::Commit);
            log.force_all().unwrap();
        } // crash loses all applied state
        let log = LogManager::open(stable);
        let fresh = Shadow::default();
        let report = restart(&log, &fresh).unwrap();
        assert_eq!(report.ops_redone, 4, "every op, compensated or not");
        assert_eq!(report.compensations_repeated, 2);
        assert_eq!(*fresh.redone.lock(), vec![1, 2, 3, 4]);
        assert_eq!(*fresh.undone.lock(), vec![3, 2], "each undone once");
        assert_eq!(*fresh.applied.lock(), vec![1, 4], "2 and 3 compensated");
    }

    #[test]
    fn checkpoint_bounds_redo_scan() {
        let stable = StableLog::new();
        {
            let log = LogManager::open(stable.clone());
            let sh = Shadow::default();
            let (w_last, _) = run_ops(&log, &sh, TxnId(1), &[10]);
            log.append(TxnId(1), w_last, LogBody::Commit);
            // quiescent checkpoint: everything above is durably on disk
            log.append(TxnId(0), Lsn::NULL, LogBody::Checkpoint);
            let (w2, _) = run_ops(&log, &sh, TxnId(2), &[20]);
            log.append(TxnId(2), w2, LogBody::Commit);
            log.force_all().unwrap();
        } // crash
        let log = LogManager::open(stable);
        let fresh = Shadow::default();
        let report = restart(&log, &fresh).unwrap();
        assert_eq!(report.last_checkpoint, Lsn(4));
        assert_eq!(report.ops_redone, 1, "pre-checkpoint op not replayed");
        assert_eq!(*fresh.applied.lock(), vec![20]);
    }

    #[test]
    fn restart_after_crash_mid_rollback_resumes_via_clrs() {
        let stable = StableLog::new();
        let sh = Arc::new(Shadow::default());
        {
            let log = LogManager::open(stable.clone());
            let txn = TxnId(1);
            let (last, lsns) = run_ops(&log, &sh, txn, &[1, 2, 3]);
            // Simulate a crash after undoing only op 3: its CLR, forced,
            // then "crash".
            let clr = Compensation::pending(&log, txn, last, lsns[1]);
            sh.undo(&log.record(lsns[2]).unwrap(), &clr).unwrap();
            clr.appended();
            log.force_all().unwrap();
        }
        let log = LogManager::open(stable);
        restart(&log, &*sh).unwrap();
        assert_eq!(*sh.undone.lock(), vec![3, 2, 1], "3 not undone twice");
        assert!(sh.applied.lock().is_empty());
    }

    /// What a handler was asked, in order: `('r', op)` a redo, `('u', op,
    /// clr)` an undo stamped with `clr` (`None` while rollback has not
    /// appended it yet).
    #[derive(Default)]
    struct Calls(Mutex<Vec<(char, u8, Option<Lsn>)>>);

    impl UndoHandler for Calls {
        fn undo(&self, rec: &LogRecord, clr: &Compensation<'_>) -> Result<()> {
            for op in rec.body.ext_ops().rev() {
                self.0.lock().push(('u', op.payload[0], clr.repeated()));
            }
            Ok(())
        }
        fn redo(&self, rec: &LogRecord) -> Result<()> {
            for op in rec.body.ext_ops() {
                self.0.lock().push(('r', op.payload[0], None));
            }
            Ok(())
        }
        fn redo_deferred(&self, _rec: &LogRecord) -> Result<()> {
            Ok(())
        }
    }

    /// The operations that joined one record are one undo step: rollback
    /// takes them back last to first under a single CLR, restart redoes
    /// each record's first to last — a winner's and an aborted one's — and
    /// repeats the compensation for all of the aborted one's.
    #[test]
    fn a_shared_record_is_one_undo_step() {
        let joined = |n: u8| crate::record::ExtOp {
            ext: ExtKind::Attachment(dmx_types::AttTypeId(1)),
            relation: RelationId(1),
            op: 0,
            payload: vec![n],
        };
        let stable = StableLog::new();
        let a_clr = {
            let log = LogManager::open(stable.clone());
            let sh = Shadow::default();
            let shared = |txn, ops: &[u8]| {
                let begin = log.append(txn, Lsn::NULL, LogBody::Begin);
                let rec = log.append(txn, begin, op(ops[0]));
                for &n in &ops[1..] {
                    log.amend(rec, joined(n)).unwrap();
                }
                for &n in ops {
                    sh.apply(n, rec);
                }
                rec
            };
            let won = shared(TxnId(1), &[1, 2, 3]);
            log.append(TxnId(1), won, LogBody::Commit);
            let lost = shared(TxnId(2), &[4, 5]);
            let a_clr = rollback_to(&log, &sh, TxnId(2), lost, Lsn::NULL).unwrap();
            assert_eq!(a_clr, Lsn(lost.0 + 1), "one CLR for the record");
            assert_eq!(*sh.undone.lock(), [5, 4]);
            log.append(TxnId(2), a_clr, LogBody::Abort);
            log.force_all().unwrap();
            a_clr
        };
        assert_eq!(stable.len(), 7);
        let log = LogManager::open(stable);
        let calls = Calls::default();
        let report = restart(&log, &calls).unwrap();
        assert_eq!((report.ops_redone, report.compensations_repeated), (2, 1));
        assert_eq!(
            *calls.0.lock(),
            [
                ('r', 1, None),
                ('r', 2, None),
                ('r', 3, None),
                ('r', 4, None),
                ('r', 5, None),
                ('u', 5, Some(a_clr)),
                ('u', 4, Some(a_clr)),
            ]
        );
    }

    /// Relation 0 is the catalog: its op 0 enters the relation its
    /// payload names, op 1 removes it. Another relation's op is replayed
    /// only while the catalog holds that relation, as `UndoDispatch`
    /// skips a relation the catalog lacks.
    #[derive(Default)]
    struct Catalogued {
        relations: Mutex<HashSet<u32>>,
        rows: Mutex<Vec<u8>>,
    }

    impl Catalogued {
        fn replay(&self, rec: &LogRecord, undo: bool) {
            for op in rec.body.ext_ops() {
                let (n, mut relations) = (op.payload[0], self.relations.lock());
                if op.relation == RelationId(0) {
                    match (op.op == 0) != undo {
                        true => relations.insert(u32::from(n)),
                        false => relations.remove(&u32::from(n)),
                    };
                } else if relations.contains(&op.relation.0) {
                    let mut rows = self.rows.lock();
                    match undo {
                        true => rows.retain(|&r| r != n),
                        false => rows.push(n),
                    }
                }
            }
        }
    }

    impl UndoHandler for Catalogued {
        fn undo(&self, rec: &LogRecord, _clr: &Compensation<'_>) -> Result<()> {
            self.replay(rec, true);
            Ok(())
        }
        fn redo(&self, rec: &LogRecord) -> Result<()> {
            self.replay(rec, false);
            Ok(())
        }
        fn redo_deferred(&self, _rec: &LogRecord) -> Result<()> {
            Ok(())
        }
    }

    /// Restart meets every record with the catalog of its own time: a
    /// loser's removal of relation 1 from the catalog follows relation
    /// 1's committed rows, which are redone while the catalog still holds
    /// it; the loser's undo then enters it again. (Replaying the catalog
    /// first would find no relation for the rows.)
    #[test]
    fn restart_replays_the_catalog_in_lsn_order() {
        let stable = StableLog::new();
        {
            let log = LogManager::open(stable.clone());
            let body = |relation, op, n| LogBody::ExtOp {
                ext: ExtKind::Storage(SmTypeId(0)),
                relation: RelationId(relation),
                op,
                payload: vec![n],
            };
            // winner: enters relation 1, rows 10 and 11, commit
            let begin = log.append(TxnId(1), Lsn::NULL, LogBody::Begin);
            let mut last = log.append(TxnId(1), begin, body(0, 0, 1));
            for n in [10, 11] {
                last = log.append(TxnId(1), last, body(1, 0, n));
            }
            log.append(TxnId(1), last, LogBody::Commit);
            // loser: removes relation 1, crash
            let begin = log.append(TxnId(2), Lsn::NULL, LogBody::Begin);
            log.append(TxnId(2), begin, body(0, 1, 1));
            log.force_all().unwrap();
        } // crash: nothing reached disk
        let log = LogManager::open(stable);
        let cat = Catalogued::default();
        let report = restart(&log, &cat).unwrap();
        assert_eq!((report.ops_redone, report.losers), (4, vec![TxnId(2)]));
        assert_eq!(*cat.rows.lock(), [10, 11], "the rows met their relation");
        assert_eq!(*cat.relations.lock(), HashSet::from([1]), "removal undone");
    }

    /// A CLR carries no image of its own, so restart drives the undo it
    /// records again — of the record whose `prev_lsn` is its `undo_next`,
    /// stamped with the CLR — in log order among the redos of every
    /// record, for a winner, an aborted transaction and a loser alike;
    /// the loser's rollback then resumes where its CLRs stopped.
    #[test]
    fn restart_repeats_every_compensation_in_log_order() {
        let stable = StableLog::new();
        let (w_clr, a_clr, l_clr) = {
            let log = LogManager::open(stable.clone());
            let sh = Shadow::default();
            // winner: 1, savepoint, 2 rolled back, 3, commit
            let (last, _) = run_ops(&log, &sh, TxnId(1), &[1]);
            let sp = log.append(TxnId(1), last, LogBody::Savepoint);
            let last = log.append(TxnId(1), sp, op(2));
            let last = rollback_to(&log, &sh, TxnId(1), last, sp).unwrap();
            let w_clr = last;
            let last = log.append(TxnId(1), last, op(3));
            log.append(TxnId(1), last, LogBody::Commit);
            // aborted: 4, 5 rolled back in full
            let (last, _) = run_ops(&log, &sh, TxnId(2), &[4, 5]);
            let a_clr = rollback_to(&log, &sh, TxnId(2), last, Lsn::NULL).unwrap();
            log.append(TxnId(2), a_clr, LogBody::Abort);
            // loser: 6, savepoint, 7 rolled back, 8, crash
            let (last, _) = run_ops(&log, &sh, TxnId(3), &[6]);
            let sp = log.append(TxnId(3), last, LogBody::Savepoint);
            let last = log.append(TxnId(3), sp, op(7));
            let l_clr = rollback_to(&log, &sh, TxnId(3), last, sp).unwrap();
            log.append(TxnId(3), l_clr, op(8));
            log.force_all().unwrap();
            (w_clr, a_clr, l_clr)
        };
        let log = LogManager::open(stable);
        let calls = Calls::default();
        let report = restart(&log, &calls).unwrap();
        assert_eq!(report.compensations_repeated, 4);
        let got = calls.0.lock().clone();
        assert_eq!(
            got,
            vec![
                ('r', 1, None),
                ('r', 2, None),
                ('u', 2, Some(w_clr)),
                ('r', 3, None),
                ('r', 4, None),
                ('r', 5, None),
                ('u', 5, Some(Lsn(a_clr.0 - 1))),
                ('u', 4, Some(a_clr)),
                ('r', 6, None),
                ('r', 7, None),
                ('u', 7, Some(l_clr)),
                ('r', 8, None),
                // the loser's rollback: a fresh CLR each, appended after
                ('u', 8, None),
                ('u', 6, None),
            ]
        );
        assert_eq!(report.losers, vec![TxnId(3)]);
    }
}
