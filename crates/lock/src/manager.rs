//! The lock manager.
//!
//! One global table maps [`LockName`]s to entries holding a granted set
//! (one converted mode per transaction) and a FIFO wait queue. Requests
//! block on a condition variable; a waits-for-graph deadlock detector (a
//! waiter waits for its incompatible holders and for whoever is queued
//! ahead of it) runs on every wait tick and aborts the youngest
//! transaction in a cycle by flagging it a victim, which surfaces as
//! [`DmxError::Deadlock`] from its pending request. Strict two-phase
//! locking: transactions release everything at once via
//! [`LockManager::unlock_all`] at commit/abort.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
#[expect(
    clippy::disallowed_types,
    reason = "a lock wait times out in real time; no deadline reaches a metric snapshot"
)]
use std::time::{Duration, Instant};

use dmx_types::sync::{Condvar, Mutex};

use dmx_types::held;
use dmx_types::obs::{name as metric, Counter, MetricsRegistry, ObsEvent};
use dmx_types::{DmxError, Result, TxnId};

use crate::mode::LockMode;
use crate::name::LockName;

#[derive(Debug, Clone, Copy)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
}

#[derive(Debug, Default)]
struct Entry {
    granted: HashMap<TxnId, LockMode>,
    waiting: VecDeque<Waiter>,
}

impl Entry {
    /// Target mode a waiter would end up holding (conversion-aware).
    fn target_mode(&self, w: &Waiter) -> LockMode {
        match self.granted.get(&w.txn) {
            Some(held) => held.sup(w.mode),
            None => w.mode,
        }
    }

    /// Can `w` be granted right now (compatible with every *other*
    /// granted holder)?
    fn grantable(&self, w: &Waiter) -> bool {
        let target = self.target_mode(w);
        self.granted
            .iter()
            .all(|(t, m)| *t == w.txn || target.compatible(*m))
    }

    /// Grants every currently grantable waiter: conversions first (they
    /// jump the queue, the standard anti-starvation rule for upgrades),
    /// then FIFO until the first blocked waiter.
    fn regrant(&mut self) {
        // conversions
        let mut i = 0;
        while i < self.waiting.len() {
            let w = self.waiting[i];
            if self.granted.contains_key(&w.txn) && self.grantable(&w) {
                let target = self.target_mode(&w);
                self.granted.insert(w.txn, target);
                self.waiting.remove(i);
            } else {
                i += 1;
            }
        }
        // FIFO
        while let Some(w) = self.waiting.front().copied() {
            if !self.grantable(&w) {
                break;
            }
            let target = self.target_mode(&w);
            self.granted.insert(w.txn, target);
            self.waiting.pop_front();
        }
    }
}

#[derive(Default)]
struct State {
    table: HashMap<LockName, Entry>,
    /// Names each transaction holds or waits on (for release).
    held: HashMap<TxnId, HashSet<LockName>>,
    /// Transactions chosen as deadlock victims; their pending request
    /// fails on next wake-up.
    victims: HashSet<TxnId>,
}

impl State {
    /// Builds waits-for edges and aborts the youngest member of the first
    /// cycle found. Returns true when a victim was chosen.
    fn detect_deadlock(&mut self) -> bool {
        // edges: waiter -> each incompatible granted holder, and — the
        // queue being FIFO for everything but conversions — every waiter
        // queued ahead of it, compatible or not: it is not granted before
        // they are.
        let mut edges: HashMap<TxnId, HashSet<TxnId>> = HashMap::new();
        for entry in self.table.values() {
            for (i, w) in entry.waiting.iter().enumerate() {
                let target = entry.target_mode(w);
                for (holder, mode) in &entry.granted {
                    if *holder != w.txn && !target.compatible(*mode) {
                        edges.entry(w.txn).or_default().insert(*holder);
                    }
                }
                if !entry.granted.contains_key(&w.txn) {
                    for ahead in entry.waiting.iter().take(i).filter(|a| a.txn != w.txn) {
                        edges.entry(w.txn).or_default().insert(ahead.txn);
                    }
                }
            }
        }
        // DFS cycle search
        fn dfs(
            node: TxnId,
            edges: &HashMap<TxnId, HashSet<TxnId>>,
            visiting: &mut Vec<TxnId>,
            done: &mut HashSet<TxnId>,
        ) -> Option<Vec<TxnId>> {
            if done.contains(&node) {
                return None;
            }
            if let Some(pos) = visiting.iter().position(|&t| t == node) {
                // bounds: `pos` comes from position() over `visiting`.
                return Some(visiting[pos..].to_vec());
            }
            visiting.push(node);
            if let Some(next) = edges.get(&node) {
                for &n in next {
                    if let Some(cycle) = dfs(n, edges, visiting, done) {
                        return Some(cycle);
                    }
                }
            }
            visiting.pop();
            done.insert(node);
            None
        }
        let mut done = HashSet::new();
        let starts: Vec<TxnId> = edges.keys().copied().collect();
        for start in starts {
            let mut visiting = Vec::new();
            if let Some(cycle) = dfs(start, &edges, &mut visiting, &mut done) {
                // Youngest (largest id) transaction dies.
                let Some(victim) = cycle.iter().max().copied() else {
                    continue; // dfs never returns an empty cycle
                };
                // Only a *newly* flagged victim counts as a detection;
                // an already-flagged one just hasn't woken up yet.
                if self.victims.insert(victim) {
                    return true;
                }
            }
        }
        false
    }
}

/// The system-supplied lock manager.
pub struct LockManager {
    state: Mutex<State>,
    cv: Condvar,
    timeout: Duration,
    obs: Arc<MetricsRegistry>,
    acquires: Arc<Counter>,
    waits: Arc<Counter>,
    deadlocks: Arc<Counter>,
    timeouts: Arc<Counter>,
}

/// Debug-build lock-order assertion: acquisitions must follow the
/// catalog → relation → record hierarchy, the discipline that keeps the
/// kernel's own lock requests deadlock-free. Page and tree latches are
/// the hierarchy's leaf, below every lock: no lock is requested while
/// one is held ([`dmx_types::held::assert_unlatched`], checked at every
/// request). Checked per transaction on every *new* name (conversions of
/// a held name are exempt):
///
/// - `Catalog` must be the transaction's first lock (DDL serializes at
///   the top before touching anything finer);
/// - `Relation(r)` must precede any `Record(r, _)` of the same relation
///   (records under a different relation are unordered w.r.t. it);
/// - `Record(r, _)` requires a lock on `Relation(r)` to be already held
///   or requested (the intention-mode parent of hierarchical locking);
/// - `Record(r, h)` may not be requested while the same key's
///   `Gap(r, h)` is held in S mode: scans and writers share one per-key
///   order — record first, then the gap below it — so the two sides
///   cannot deadlock across the pair. Gaps held in X mode are exempt
///   (a writer's next-key sequence holds a neighbour's gap X before an
///   adjacent write requests that record).
#[cfg(debug_assertions)]
fn assert_lock_order(st: &State, txn: TxnId, name: &LockName) {
    let empty = HashSet::new();
    let held = st.held.get(&txn).unwrap_or(&empty);
    if held.contains(name) {
        return; // conversion or repeat of a held/requested name
    }
    match name {
        LockName::Catalog => {
            debug_assert!(
                held.is_empty(),
                "lock-order violation: txn {txn:?} requests Catalog while holding {held:?} \
                 (catalog must be locked before any finer object)"
            );
        }
        LockName::Relation(r) => {
            let finer = held
                .iter()
                .find(|h| matches!(h, LockName::Record(rr, _) | LockName::Gap(rr, _) if rr == r));
            debug_assert!(
                finer.is_none(),
                "lock-order violation: txn {txn:?} requests {name:?} while holding finer \
                 {finer:?} (relation must be locked before its records)"
            );
        }
        LockName::Record(r, h) => {
            debug_assert!(
                held.contains(&LockName::Relation(*r)),
                "lock-order violation: txn {txn:?} requests {name:?} without a lock on \
                 Relation({r:?}) (hierarchical locking requires the intention-mode parent)"
            );
            // Record before gap, per key: scans and writers both lock a
            // key's record ahead of the gap below it ([`LockName::gap`]
            // gives the pair one hash so they can be correlated here).
            // A same-key gap already held in S mode means a scan locked
            // the gap first — the inverted order that deadlocks against
            // a deleter. X-held gaps are exempt: a writer's next-key
            // sequence legitimately holds a neighbour's gap X when an
            // adjacent write then requests that record.
            let gap_held_s = st
                .table
                .get(&LockName::Gap(*r, *h))
                .and_then(|e| e.granted.get(&txn))
                == Some(&LockMode::S);
            debug_assert!(
                !gap_held_s,
                "lock-order violation: txn {txn:?} requests {name:?} while holding the same \
                 key's gap in S mode (the record must be locked before its gap)"
            );
        }
        LockName::Gap(r, _) => {
            debug_assert!(
                held.contains(&LockName::Relation(*r)),
                "lock-order violation: txn {txn:?} requests {name:?} without a lock on \
                 Relation({r:?}) (hierarchical locking requires the intention-mode parent)"
            );
        }
        LockName::File(_) => {}
    }
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new(Duration::from_secs(5))
    }
}

impl LockManager {
    /// Creates a lock manager with the given wait timeout and a private
    /// metrics registry.
    pub fn new(timeout: Duration) -> Self {
        Self::with_metrics(timeout, MetricsRegistry::new())
    }

    /// Creates a lock manager registering its metrics in `obs`.
    pub fn with_metrics(timeout: Duration, obs: Arc<MetricsRegistry>) -> Self {
        let acquires = obs.counter(metric::LOCK_ACQUIRES);
        let waits = obs.counter(metric::LOCK_WAITS);
        let deadlocks = obs.counter(metric::LOCK_DEADLOCKS);
        let timeouts = obs.counter(metric::LOCK_TIMEOUTS);
        LockManager {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            timeout,
            obs,
            acquires,
            waits,
            deadlocks,
            timeouts,
        }
    }

    /// Acquires (or converts to) `mode` on `name` for `txn`, blocking as
    /// needed. Fails with [`DmxError::Deadlock`] when this transaction is
    /// chosen as a deadlock victim, or [`DmxError::LockTimeout`].
    pub fn lock(&self, txn: TxnId, name: LockName, mode: LockMode) -> Result<()> {
        self.lock_waited(txn, name, mode).map(drop)
    }

    /// Like [`LockManager::lock`], additionally reporting whether the
    /// request had to wait (callers that read optimistically before
    /// locking re-validate after a wait).
    pub fn lock_waited(&self, txn: TxnId, name: LockName, mode: LockMode) -> Result<bool> {
        held::assert_unlatched("lock request");
        let mut st = self.state.lock();
        if st.victims.contains(&txn) {
            return Err(DmxError::Deadlock { victim: txn });
        }
        #[cfg(debug_assertions)]
        assert_lock_order(&st, txn, &name);
        let entry = st.table.entry(name).or_default();
        // Fast path: already covered.
        if let Some(held) = entry.granted.get(&txn) {
            if held.covers(mode) {
                self.acquires.incr();
                return Ok(false);
            }
        }
        let w = Waiter { txn, mode };
        // Immediate grant: compatible AND (conversion, or no one queued
        // ahead — plain requests respect FIFO fairness).
        let is_conversion = entry.granted.contains_key(&txn);
        if entry.grantable(&w) && (is_conversion || entry.waiting.is_empty()) {
            let target = entry.target_mode(&w);
            entry.granted.insert(txn, target);
            st.held.entry(txn).or_default().insert(name);
            self.acquires.incr();
            return Ok(false);
        }
        // Enqueue and wait.
        entry.waiting.push_back(w);
        st.held.entry(txn).or_default().insert(name);
        self.waits.incr();
        self.obs.emit(ObsEvent {
            layer: "lock",
            op: "wait",
            target: txn.0,
            detail: mode as u64,
        });
        #[expect(
            clippy::disallowed_types,
            reason = "a lock wait times out in real time; no deadline reaches a metric snapshot"
        )]
        let deadline = Instant::now() + self.timeout;
        loop {
            if st.detect_deadlock() {
                self.deadlocks.incr();
                self.obs.emit(ObsEvent {
                    layer: "lock",
                    op: "deadlock",
                    target: txn.0,
                    detail: 0,
                });
                self.cv.notify_all();
            }
            if st.victims.contains(&txn) {
                Self::remove_waiter(&mut st, txn, name);
                return Err(DmxError::Deadlock { victim: txn });
            }
            if st
                .table
                .get(&name)
                .and_then(|e| e.granted.get(&txn))
                .is_some_and(|held| held.covers(mode))
            {
                self.acquires.incr();
                return Ok(true);
            }
            #[expect(
                clippy::disallowed_types,
                reason = "a lock wait times out in real time; no deadline reaches a metric snapshot"
            )]
            let now = Instant::now();
            if now >= deadline {
                Self::remove_waiter(&mut st, txn, name);
                self.timeouts.incr();
                return Err(DmxError::LockTimeout);
            }
            let tick = Duration::from_millis(10).min(deadline - now);
            st = self.cv.wait_for(st, tick);
        }
    }

    fn remove_waiter(st: &mut State, txn: TxnId, name: LockName) {
        if let Some(entry) = st.table.get_mut(&name) {
            entry.waiting.retain(|w| w.txn != txn);
            entry.regrant();
            let keep = !entry.granted.is_empty() || !entry.waiting.is_empty();
            let still_holds = entry.granted.contains_key(&txn);
            if !keep {
                st.table.remove(&name);
            }
            if !still_holds {
                if let Some(set) = st.held.get_mut(&txn) {
                    set.remove(&name);
                }
            }
        }
    }

    /// Releases everything `txn` holds or waits on, waking blocked
    /// requests; clears any victim flag. Called at commit and abort.
    pub fn unlock_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        st.victims.remove(&txn);
        let names = st.held.remove(&txn).unwrap_or_default();
        for name in names {
            if let Some(entry) = st.table.get_mut(&name) {
                entry.granted.remove(&txn);
                entry.waiting.retain(|w| w.txn != txn);
                entry.regrant();
                if entry.granted.is_empty() && entry.waiting.is_empty() {
                    st.table.remove(&name);
                }
            }
        }
        self.cv.notify_all();
    }

    /// Mode `txn` currently holds on `name`, if any (for tests and
    /// assertions).
    pub fn held_mode(&self, txn: TxnId, name: LockName) -> Option<LockMode> {
        self.state
            .lock()
            .table
            .get(&name)
            .and_then(|e| e.granted.get(&txn).copied())
    }

    /// Number of lock names currently in the table.
    pub fn table_len(&self) -> usize {
        self.state.lock().table.len()
    }

    /// A deterministic point-in-time dump of the lock table: one row per
    /// granted holder and per queued waiter, sorted by lock name, then
    /// transaction, then state (granted before waiting). Feeds the
    /// `sys.locks` system relation.
    pub fn dump(&self) -> Vec<LockRow> {
        fn name_key(n: &LockName) -> (u8, u64, u64) {
            match n {
                LockName::Catalog => (0, 0, 0),
                LockName::Relation(r) => (1, r.0 as u64, 0),
                LockName::Record(r, k) => (2, r.0 as u64, *k),
                LockName::Gap(r, k) => (3, r.0 as u64, *k),
                LockName::File(f) => (4, f.0 as u64, 0),
            }
        }
        let st = self.state.lock();
        let mut rows = Vec::new();
        for (name, entry) in &st.table {
            for (txn, mode) in &entry.granted {
                rows.push(LockRow {
                    name: *name,
                    txn: *txn,
                    mode: *mode,
                    waiting: false,
                });
            }
            for w in &entry.waiting {
                rows.push(LockRow {
                    name: *name,
                    txn: w.txn,
                    mode: w.mode,
                    waiting: true,
                });
            }
        }
        rows.sort_by_key(|r| (name_key(&r.name), r.txn.0, r.waiting));
        rows
    }
}

/// One row of [`LockManager::dump`]: a granted holder or queued waiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRow {
    /// The locked object.
    pub name: LockName,
    /// The transaction holding or requesting it.
    pub txn: TxnId,
    /// Held mode (granted) or requested mode (waiting).
    pub mode: LockMode,
    /// True for a queued waiter, false for a granted holder.
    pub waiting: bool,
}

#[cfg(test)]
// The unit tests build raw disks or logs beneath the fault injector.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use dmx_types::{FileId, RelationId};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn rel(n: u32) -> LockName {
        LockName::Relation(RelationId(n))
    }

    #[test]
    fn grant_compatible_and_reentrant() {
        let lm = LockManager::default();
        lm.lock(TxnId(1), rel(1), LockMode::S).unwrap();
        lm.lock(TxnId(2), rel(1), LockMode::S).unwrap();
        lm.lock(TxnId(1), rel(1), LockMode::S).unwrap(); // re-entrant
        lm.lock(TxnId(1), rel(1), LockMode::IS).unwrap(); // covered
        assert_eq!(lm.held_mode(TxnId(1), rel(1)), Some(LockMode::S));
        lm.unlock_all(TxnId(1));
        lm.unlock_all(TxnId(2));
        assert_eq!(lm.table_len(), 0);
    }

    #[test]
    fn conversion_computes_supremum() {
        let lm = LockManager::default();
        lm.lock(TxnId(1), rel(1), LockMode::S).unwrap();
        lm.lock(TxnId(1), rel(1), LockMode::IX).unwrap();
        assert_eq!(lm.held_mode(TxnId(1), rel(1)), Some(LockMode::SIX));
        lm.unlock_all(TxnId(1));
    }

    #[test]
    fn exclusive_blocks_until_release() {
        let lm = Arc::new(LockManager::default());
        lm.lock(TxnId(1), rel(1), LockMode::X).unwrap();
        let got = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            let lm2 = lm.clone();
            let got2 = got.clone();
            s.spawn(move || {
                lm2.lock(TxnId(2), rel(1), LockMode::S).unwrap();
                got2.store(1, Ordering::SeqCst);
                lm2.unlock_all(TxnId(2));
            });
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(got.load(Ordering::SeqCst), 0, "S blocked behind X");
            lm.unlock_all(TxnId(1));
        });
        assert_eq!(got.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn timeout_fires() {
        let lm = LockManager::new(Duration::from_millis(60));
        lm.lock(TxnId(1), rel(1), LockMode::X).unwrap();
        let err = lm.lock(TxnId(2), rel(1), LockMode::X).unwrap_err();
        assert_eq!(err, DmxError::LockTimeout);
        // the timed-out waiter left no residue
        lm.unlock_all(TxnId(1));
        assert_eq!(lm.table_len(), 0);
    }

    #[test]
    fn deadlock_detected_and_youngest_dies() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        lm.lock(TxnId(1), rel(1), LockMode::X).unwrap();
        lm.lock(TxnId(2), rel(2), LockMode::X).unwrap();
        std::thread::scope(|s| {
            let lm1 = lm.clone();
            let h1 = s.spawn(move || lm1.lock(TxnId(1), rel(2), LockMode::X));
            std::thread::sleep(Duration::from_millis(30));
            let lm2 = lm.clone();
            let h2 = s.spawn(move || lm2.lock(TxnId(2), rel(1), LockMode::X));
            // Youngest = TxnId(2) must be the victim; TxnId(1) proceeds
            // once the victim aborts (releases its locks).
            let r2 = h2.join().unwrap();
            assert_eq!(r2, Err(DmxError::Deadlock { victim: TxnId(2) }));
            lm.unlock_all(TxnId(2));
            let r1 = h1.join().unwrap();
            assert_eq!(r1, Ok(()));
        });
        lm.unlock_all(TxnId(1));
        assert_eq!(lm.table_len(), 0);
    }

    #[test]
    fn cycle_through_a_queued_waiter_is_detected() {
        // T1 holds r1 in S; T2 queues for X behind it; T3, holding r2,
        // queues for S behind T2 — compatible with the holder, blocked by
        // the FIFO queue alone. T1 → r2 then closes T1 → T3 → T2 → T1,
        // whose middle edge no granted holder stands for.
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        lm.lock(TxnId(1), rel(1), LockMode::S).unwrap();
        lm.lock(TxnId(3), rel(2), LockMode::X).unwrap();
        let queued = |txn| {
            while !lm.dump().iter().any(|r| r.waiting && r.txn == txn) {
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            let lm2 = lm.clone();
            let h2 = s.spawn(move || lm2.lock(TxnId(2), rel(1), LockMode::X));
            queued(TxnId(2));
            let lm3 = lm.clone();
            let h3 = s.spawn(move || lm3.lock(TxnId(3), rel(1), LockMode::S));
            queued(TxnId(3));
            let lm1 = lm.clone();
            let h1 = s.spawn(move || lm1.lock(TxnId(1), rel(2), LockMode::X));
            assert_eq!(
                h3.join().unwrap(),
                Err(DmxError::Deadlock { victim: TxnId(3) })
            );
            lm.unlock_all(TxnId(3));
            assert_eq!(h1.join().unwrap(), Ok(()));
            lm.unlock_all(TxnId(1));
            assert_eq!(h2.join().unwrap(), Ok(()));
        });
        lm.unlock_all(TxnId(2));
        assert_eq!(lm.table_len(), 0);
    }

    #[test]
    fn three_transaction_cycle_detected() {
        // T1 holds r1, T2 holds r2, T3 holds r3; then T1→r2, T2→r3,
        // T3→r1 closes a three-node cycle in the waits-for graph. The
        // youngest (largest id) transaction in the cycle must die, and
        // the two survivors complete once the victim's locks release.
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        lm.lock(TxnId(1), rel(1), LockMode::X).unwrap();
        lm.lock(TxnId(2), rel(2), LockMode::X).unwrap();
        lm.lock(TxnId(3), rel(3), LockMode::X).unwrap();
        std::thread::scope(|s| {
            let lm1 = lm.clone();
            let h1 = s.spawn(move || lm1.lock(TxnId(1), rel(2), LockMode::X));
            std::thread::sleep(Duration::from_millis(30));
            let lm2 = lm.clone();
            let h2 = s.spawn(move || lm2.lock(TxnId(2), rel(3), LockMode::X));
            std::thread::sleep(Duration::from_millis(30));
            let lm3 = lm.clone();
            let h3 = s.spawn(move || lm3.lock(TxnId(3), rel(1), LockMode::X));
            let r3 = h3.join().unwrap();
            assert_eq!(r3, Err(DmxError::Deadlock { victim: TxnId(3) }));
            lm.unlock_all(TxnId(3));
            // T2 acquires r3, unblocking nothing yet for T1 (T2 still
            // holds r2), so release T2's locks to let T1 through.
            let r2 = h2.join().unwrap();
            assert_eq!(r2, Ok(()));
            lm.unlock_all(TxnId(2));
            let r1 = h1.join().unwrap();
            assert_eq!(r1, Ok(()));
        });
        lm.unlock_all(TxnId(1));
        assert_eq!(lm.table_len(), 0);
    }

    #[test]
    fn upgrade_deadlock_between_two_readers() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        lm.lock(TxnId(1), rel(1), LockMode::S).unwrap();
        lm.lock(TxnId(2), rel(1), LockMode::S).unwrap();
        std::thread::scope(|s| {
            let lm1 = lm.clone();
            let h1 = s.spawn(move || lm1.lock(TxnId(1), rel(1), LockMode::X));
            std::thread::sleep(Duration::from_millis(30));
            let lm2 = lm.clone();
            let h2 = s.spawn(move || lm2.lock(TxnId(2), rel(1), LockMode::X));
            let r2 = h2.join().unwrap();
            assert_eq!(r2, Err(DmxError::Deadlock { victim: TxnId(2) }));
            lm.unlock_all(TxnId(2));
            let r1 = h1.join().unwrap();
            assert_eq!(r1, Ok(()));
            assert_eq!(lm.held_mode(TxnId(1), rel(1)), Some(LockMode::X));
        });
        lm.unlock_all(TxnId(1));
    }

    #[test]
    fn fifo_fairness_for_plain_requests() {
        // T2 waits for X; T3's S request arrives later and must not starve
        // T2 by sneaking past it.
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        lm.lock(TxnId(1), rel(1), LockMode::S).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            let (lm2, ord2) = (lm.clone(), order.clone());
            s.spawn(move || {
                lm2.lock(TxnId(2), rel(1), LockMode::X).unwrap();
                ord2.lock().push(2);
                lm2.unlock_all(TxnId(2));
            });
            std::thread::sleep(Duration::from_millis(40));
            let (lm3, ord3) = (lm.clone(), order.clone());
            s.spawn(move || {
                lm3.lock(TxnId(3), rel(1), LockMode::S).unwrap();
                ord3.lock().push(3);
                lm3.unlock_all(TxnId(3));
            });
            std::thread::sleep(Duration::from_millis(40));
            lm.unlock_all(TxnId(1));
        });
        assert_eq!(*order.lock(), vec![2, 3], "X granted before later S");
    }

    #[test]
    fn intent_modes_allow_concurrent_record_work() {
        let lm = LockManager::default();
        lm.lock(TxnId(1), rel(1), LockMode::IX).unwrap();
        lm.lock(TxnId(2), rel(1), LockMode::IX).unwrap();
        let ka = LockName::Record(RelationId(1), 11);
        let kb = LockName::Record(RelationId(1), 22);
        lm.lock(TxnId(1), ka, LockMode::X).unwrap();
        lm.lock(TxnId(2), kb, LockMode::X).unwrap();
        // but a table scanner's S blocks behind the IX holders
        let lm_s = LockManager::new(Duration::from_millis(50));
        lm_s.lock(TxnId(1), rel(1), LockMode::IX).unwrap();
        assert_eq!(
            lm_s.lock(TxnId(3), rel(1), LockMode::S).unwrap_err(),
            DmxError::LockTimeout
        );
        lm.unlock_all(TxnId(1));
        lm.unlock_all(TxnId(2));
    }

    #[test]
    fn stress_many_threads_no_lost_grants() {
        // 8 transactions hammer 4 names with mixed modes; strict 2PL is
        // not followed here (unlock_all between rounds), we only check the
        // manager never wedges and always ends empty.
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let lm = lm.clone();
                s.spawn(move || {
                    let txn = TxnId(t + 1);
                    for round in 0..50u32 {
                        let name = rel(round % 4);
                        let mode = if (t + round as u64).is_multiple_of(3) {
                            LockMode::X
                        } else {
                            LockMode::S
                        };
                        match lm.lock(txn, name, mode) {
                            Ok(()) => {}
                            Err(DmxError::Deadlock { .. }) => {}
                            Err(e) => panic!("unexpected {e}"),
                        }
                        lm.unlock_all(txn);
                    }
                });
            }
        });
        assert_eq!(lm.table_len(), 0);
    }

    #[test]
    fn lock_order_allows_the_hierarchy_top_down() {
        let lm = LockManager::default();
        lm.lock(TxnId(1), LockName::Catalog, LockMode::X).unwrap();
        lm.lock(TxnId(1), rel(1), LockMode::IX).unwrap();
        lm.lock(TxnId(1), LockName::Record(RelationId(1), 7), LockMode::X)
            .unwrap();
        // Records of a *different* relation are unordered w.r.t. rel(1).
        lm.lock(TxnId(1), rel(2), LockMode::IS).unwrap();
        lm.unlock_all(TxnId(1));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn lock_order_rejects_catalog_after_finer_locks() {
        let lm = LockManager::default();
        lm.lock(TxnId(1), rel(1), LockMode::IS).unwrap();
        let _ = lm.lock(TxnId(1), LockName::Catalog, LockMode::X);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn lock_order_rejects_record_without_relation_parent() {
        let lm = LockManager::default();
        let _ = lm.lock(TxnId(1), LockName::Record(RelationId(1), 7), LockMode::X);
    }

    /// A page, pinned, in a pool of its own: what a scan reads records
    /// from.
    fn a_page() -> dmx_page::PinnedPage {
        use dmx_page::{BufferPool, DiskManager, MemDisk};
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 1);
        pool.new_page(disk.create_file().unwrap())
            .unwrap()
            .into_pinned()
    }

    #[test]
    fn lock_order_allows_a_page_latch_as_the_leaf() {
        let lm = LockManager::default();
        let pin = a_page();
        lm.lock(TxnId(1), rel(1), LockMode::IS).unwrap();
        lm.lock(TxnId(1), LockName::Record(RelationId(1), 7), LockMode::S)
            .unwrap();
        // The latch below every lock, released before the next request.
        drop(pin.read());
        lm.lock(TxnId(1), LockName::Record(RelationId(1), 8), LockMode::S)
            .unwrap();
        lm.unlock_all(TxnId(1));
    }

    /// A scan that locks each record while the page it read it from is
    /// still latched: a lock wait under a latch, the hierarchy inverted.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock request under 1 page or tree latch")]
    fn lock_order_rejects_locks_requested_under_a_page_latch() {
        let lm = LockManager::default();
        let pin = a_page();
        lm.lock(TxnId(1), rel(1), LockMode::IS).unwrap();
        let _page = pin.read();
        let _ = lm.lock(TxnId(1), LockName::Record(RelationId(1), 7), LockMode::S);
    }

    /// The paired record/gap names for one key (same `u64` hash by
    /// construction, see [`LockName::gap`]).
    fn record_gap_pair(key: &[u8]) -> (LockName, LockName) {
        let record = LockName::record(RelationId(1), &dmx_types::RecordKey::new(key.to_vec()));
        let gap = LockName::gap(RelationId(1), FileId(1), Some(key));
        (record, gap)
    }

    #[test]
    fn lock_order_allows_record_before_gap_and_writer_gap_x() {
        let lm = LockManager::default();
        let (record, gap) = record_gap_pair(b"k");
        // Scan order: record S, then the gap below it.
        lm.lock(TxnId(1), rel(1), LockMode::IS).unwrap();
        lm.lock(TxnId(1), record, LockMode::S).unwrap();
        lm.lock(TxnId(1), gap, LockMode::S).unwrap();
        lm.unlock_all(TxnId(1));
        // Writer next-key sequence: a neighbour's gap X may precede the
        // record request (gap X is exempt from the pairing rule).
        lm.lock(TxnId(2), rel(1), LockMode::IX).unwrap();
        lm.lock(TxnId(2), gap, LockMode::X).unwrap();
        lm.lock(TxnId(2), record, LockMode::X).unwrap();
        lm.unlock_all(TxnId(2));
        // Traversal across keys: gap of one key before the record of
        // another is unordered.
        let (other_record, _) = record_gap_pair(b"m");
        lm.lock(TxnId(3), rel(1), LockMode::IS).unwrap();
        lm.lock(TxnId(3), gap, LockMode::S).unwrap();
        lm.lock(TxnId(3), other_record, LockMode::S).unwrap();
        lm.unlock_all(TxnId(3));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn lock_order_rejects_record_after_same_key_gap_s() {
        let lm = LockManager::default();
        let (record, gap) = record_gap_pair(b"k");
        lm.lock(TxnId(1), rel(1), LockMode::IS).unwrap();
        lm.lock(TxnId(1), gap, LockMode::S).unwrap();
        let _ = lm.lock(TxnId(1), record, LockMode::S);
    }

    #[test]
    fn same_key_scan_and_writer_serialize_without_deadlock() {
        // A range scan and a deleter meeting on one key both follow
        // record-before-gap, so one simply waits for the other instead
        // of closing a Record/Gap cycle the detector must break.
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        let (record, gap) = record_gap_pair(b"k");
        std::thread::scope(|s| {
            for txn in [TxnId(1), TxnId(2)] {
                let lm = lm.clone();
                s.spawn(move || {
                    let (parent, mode) = if txn == TxnId(1) {
                        (LockMode::IS, LockMode::S)
                    } else {
                        (LockMode::IX, LockMode::X)
                    };
                    lm.lock(txn, rel(1), parent).unwrap();
                    lm.lock(txn, record, mode).unwrap();
                    lm.lock(txn, gap, mode).unwrap();
                    lm.unlock_all(txn);
                });
            }
        });
        assert_eq!(lm.table_len(), 0);
    }
}
