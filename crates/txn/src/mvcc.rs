//! Record versioning for snapshot reads.
//!
//! The version store is an in-memory side car to the pages: every DML
//! write stamps an *uncommitted* after-image into a per-record chain
//! keyed `(relation, record key)` **before** it touches the page, and
//! commit turns those stamps into committed versions in one atomic
//! publication step. Read-only scans then run against a transaction-
//! consistent snapshot with zero record locks: a reader first performs
//! its ordinary page read, then consults the chain — if a chain exists
//! the reader uses the chain's visible image (the page bytes may be
//! uncommitted writer state), and if no chain exists the page bytes are
//! trustworthy, because the garbage collector only reclaims a chain
//! once every active snapshot began after the chain's last mutation.
//!
//! Commit visibility ordering: under the commit mutex the committing
//! transaction stamps all of its chains with `commit_seq + 1` and only
//! then publishes the new `commit_seq`. Snapshot capture reads the
//! published counter lock-free, so a snapshot either sees all of a
//! transaction's versions or none of them.
//!
//! Writers stay under strict 2PL (record X locks plus next-key gap
//! locks on the tree paths), so at most one transaction has an
//! uncommitted stamp per chain at any time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dmx_types::sync::{Condvar, Mutex};
use dmx_types::{record, RelationId, TxnId, Value};

/// A record image as of some version: the full record values, or the
/// record's absence (deleted / not yet inserted).
#[derive(Debug, Clone, PartialEq)]
pub enum VersionImage {
    Present(Vec<Value>),
    Absent,
}

impl VersionImage {
    /// The values of a present image.
    pub fn values(&self) -> Option<&[Value]> {
        match self {
            VersionImage::Present(v) => Some(v),
            VersionImage::Absent => None,
        }
    }

    fn footprint(&self) -> Footprint {
        match self {
            VersionImage::Present(v) => Footprint {
                records: 1,
                bytes: record::encoded_len(v) as i64,
            },
            VersionImage::Absent => Footprint::default(),
        }
    }
}

/// What a write adds to its relation's record count and encoded record
/// bytes: `image` minus `base`. The embedding layer keeps the running
/// sums; [`VersionStore::record_write`] reports each write's share and a
/// rollback hands back the shares of the stamps it retracts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    pub records: i64,
    pub bytes: i64,
}

/// A transaction-consistent read position: every version committed at
/// or below `csn` is visible, everything newer (and everything
/// uncommitted) is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// The published commit sequence number at capture time.
    pub csn: u64,
    /// The store's event counter at capture time; fences the garbage
    /// collector (a chain last touched at or after `born` must outlive
    /// this snapshot).
    pub born: u64,
}

/// One committed version in a chain.
#[derive(Debug, Clone)]
struct Version {
    csn: u64,
    image: VersionImage,
}

/// The per-record version chain. `versions` is ascending by `csn` and
/// always starts with a base image (csn 0): the committed state the
/// record had when the chain was created, so visibility never falls off
/// the bottom of the chain.
#[derive(Debug)]
struct Chain {
    versions: Vec<Version>,
    /// The in-flight after-image of the (single, 2PL-serialized) writer.
    uncommitted: Option<(TxnId, VersionImage)>,
    /// Event count of the last mutation (write, rollback, commit stamp);
    /// the GC fence.
    last_touch: u64,
}

impl Chain {
    /// The newest image visible to `snap`, with read-your-own-writes
    /// for `me`.
    fn visible(&self, snap: Snapshot, me: TxnId) -> &VersionImage {
        if let Some((owner, image)) = &self.uncommitted {
            if *owner == me {
                return image;
            }
        }
        // Base version at csn 0 guarantees a match.
        self.versions
            .iter()
            .rev()
            .find(|v| v.csn <= snap.csn)
            .map(|v| &v.image)
            .unwrap_or(&VersionImage::Absent)
    }
}

/// One entry of a transaction's write log: enough to undo the chain
/// stamp on statement/savepoint/transaction rollback.
struct WriteUndo {
    rel: RelationId,
    key: Vec<u8>,
    /// The chain's `uncommitted` slot before this write (None when this
    /// write created the stamp).
    prev: Option<VersionImage>,
    added: Footprint,
}

#[derive(Default)]
struct Chains {
    by_rel: HashMap<RelationId, HashMap<Vec<u8>, Chain>>,
}

/// Counters reported by store operations so the embedding layer can
/// feed its metrics registry (the store itself stays `std`-only and
/// metric-free).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct GcOutcome {
    pub scanned: usize,
    pub reclaimed: usize,
}

/// An open unstamped-write window (see [`VersionStore::begin_unstamped`]).
/// Closing is in `Drop` so an error unwind inside the window cannot
/// leave readers parked forever.
pub struct UnstampedWindow<'a> {
    store: &'a VersionStore,
    rel: RelationId,
}

impl Drop for UnstampedWindow<'_> {
    fn drop(&mut self) {
        {
            let mut open = self.store.unstamped.lock();
            if let Some(n) = open.get_mut(&self.rel) {
                *n -= 1;
                if *n == 0 {
                    open.remove(&self.rel);
                }
            }
            self.store.unstamped_total.fetch_sub(1, Ordering::AcqRel);
        }
        self.store.unstamped_cv.notify_all();
    }
}

/// The version store. One per database; shared by the transaction
/// manager (snapshot capture) and the DML/scan dispatcher.
#[derive(Default)]
pub struct VersionStore {
    /// Published commit sequence: the newest csn whose versions are
    /// fully stamped. Read lock-free by snapshot capture.
    commit_seq: AtomicU64,
    /// Monotone event counter for GC fencing.
    events: AtomicU64,
    /// Serializes commit stamping so `commit_seq` publication is atomic
    /// with respect to the stamps it covers.
    commit_mutex: Mutex<()>,
    /// Total open unstamped-write windows across every relation: the
    /// readers' fast path is a single atomic load that is zero whenever
    /// no writer anywhere is mid-window.
    unstamped_total: AtomicU64,
    /// Open windows per relation — writes whose page mutation may
    /// already be visible while their chain stamp is not (the insert
    /// path learns its record key only from the completed page
    /// mutation). Readers that found a chainless page row wait for that
    /// relation's open windows to close before trusting "no chain →
    /// committed"; a stalled writer (e.g. blocked on another
    /// transaction's 2PL locks inside its window) therefore delays only
    /// readers of its own relation, and they park on `unstamped_cv`
    /// instead of spinning.
    unstamped: Mutex<HashMap<RelationId, u64>>,
    /// Wakes parked readers when a window closes.
    unstamped_cv: Condvar,
    chains: Mutex<Chains>,
    /// Per-transaction write logs (append-only; marks index into them).
    write_logs: Mutex<HashMap<TxnId, Vec<WriteUndo>>>,
}

impl VersionStore {
    /// An empty store.
    pub fn new() -> VersionStore {
        VersionStore::default()
    }

    fn bump(&self) -> u64 {
        self.events.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Captures a snapshot at the current published commit sequence.
    pub fn capture(&self) -> Snapshot {
        Snapshot {
            csn: self.commit_seq.load(Ordering::Acquire),
            born: self.bump(),
        }
    }

    /// Opens an unstamped-write window for `rel` around a page mutation
    /// whose chain stamp can only follow it (insert: the record key is
    /// the mutation's output). The guard closes the window on drop —
    /// after the stamp on success, or on the error unwind (where the
    /// statement rollback restores the page before readers can trust
    /// it again).
    pub fn begin_unstamped(&self, rel: RelationId) -> UnstampedWindow<'_> {
        *self.unstamped.lock().entry(rel).or_insert(0) += 1;
        self.unstamped_total.fetch_add(1, Ordering::AcqRel);
        UnstampedWindow { store: self, rel }
    }

    /// Waits until `rel` has no open unstamped-write window. Readers
    /// call this between their page read and their chain probe: a
    /// window open at page-read time is either still open here (we park
    /// until its stamp lands) or already closed (its stamp is visible
    /// to the probe). Windows opened *after* this returns can only
    /// cover page mutations the completed read did not observe. The
    /// fast path is a single atomic load (zero windows anywhere);
    /// otherwise waiters park on a condvar, scoped to the relation so a
    /// writer stalled inside its window — worst case one lock timeout —
    /// holds up only its own relation's readers, without burning CPU.
    pub fn wait_unstamped(&self, rel: RelationId) {
        if self.unstamped_total.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut open = self.unstamped.lock();
        while open.get(&rel).copied().unwrap_or(0) != 0 {
            // Timed re-check: robust against a wake-up racing the next
            // window's open (windows are short; the tick is a backstop).
            open = self.unstamped_cv.wait_for(open, Duration::from_millis(10));
        }
    }

    /// Records a write: stamps `image` as `txn`'s uncommitted
    /// after-image for `(rel, key)`. Must be called **before** the page
    /// mutation it describes, while the writer holds the record X lock.
    /// `base` is the committed on-page state the writer observed (used
    /// as the chain's base version when the chain does not exist yet;
    /// ignored otherwise). Returns what the write adds to the relation.
    pub fn record_write(
        &self,
        txn: TxnId,
        rel: RelationId,
        key: &[u8],
        base: VersionImage,
        image: VersionImage,
    ) -> Footprint {
        let (was, is) = (base.footprint(), image.footprint());
        let added = Footprint {
            records: is.records - was.records,
            bytes: is.bytes - was.bytes,
        };
        let touch = self.bump();
        let mut chains = self.chains.lock();
        let per_rel = chains.by_rel.entry(rel).or_default();
        let prev = match per_rel.get_mut(key) {
            Some(chain) => {
                let prev = chain.uncommitted.take().map(|(_, img)| img);
                chain.uncommitted = Some((txn, image));
                chain.last_touch = touch;
                prev
            }
            None => {
                per_rel.insert(
                    key.to_vec(),
                    Chain {
                        versions: vec![Version {
                            csn: 0,
                            image: base,
                        }],
                        uncommitted: Some((txn, image)),
                        last_touch: touch,
                    },
                );
                None
            }
        };
        drop(chains);
        self.write_logs
            .lock()
            .entry(txn)
            .or_default()
            .push(WriteUndo {
                rel,
                key: key.to_vec(),
                prev,
                added,
            });
        added
    }

    /// The current length of `txn`'s write log — a rollback mark.
    pub fn mark(&self, txn: TxnId) -> usize {
        self.write_logs.lock().get(&txn).map(Vec::len).unwrap_or(0)
    }

    /// Unwinds `txn`'s chain stamps back to `mark` (statement or
    /// savepoint rollback). The page-level WAL undo runs separately;
    /// this only restores the chains. Returns, per relation, the sum of
    /// what the retracted stamps had added, for the caller to take back.
    pub fn rollback_to_mark(&self, txn: TxnId, mark: usize) -> Vec<(RelationId, Footprint)> {
        let undone: Vec<WriteUndo> = {
            let mut logs = self.write_logs.lock();
            match logs.get_mut(&txn) {
                Some(log) if log.len() > mark => log.split_off(mark),
                _ => return Vec::new(),
            }
        };
        let mut retracted: Vec<(RelationId, Footprint)> = Vec::new();
        let touch = self.bump();
        let mut chains = self.chains.lock();
        for u in undone.into_iter().rev() {
            match retracted.iter_mut().find(|(rel, _)| *rel == u.rel) {
                Some((_, sum)) => {
                    sum.records += u.added.records;
                    sum.bytes += u.added.bytes;
                }
                None => retracted.push((u.rel, u.added)),
            }
            let Some(per_rel) = chains.by_rel.get_mut(&u.rel) else {
                continue;
            };
            let Some(chain) = per_rel.get_mut(&u.key) else {
                continue;
            };
            chain.last_touch = touch;
            match u.prev {
                Some(img) => chain.uncommitted = Some((txn, img)),
                None => {
                    // Do NOT remove the chain, even when this write
                    // created it: a reader that copied the uncommitted
                    // page bytes *before* the WAL undo restored them
                    // must still find the chain afterwards (and read
                    // its base image) — removal would let it trust the
                    // stale copy. The chain lingers as `[base]` until
                    // the GC's born fence says no straddling snapshot
                    // can need it.
                    chain.uncommitted = None;
                }
            }
        }
        retracted
    }

    /// Commits `txn`: stamps every chain it wrote with `commit_seq + 1`
    /// and publishes the new sequence. Returns the assigned csn (or
    /// None for a read-only transaction).
    pub fn commit(&self, txn: TxnId) -> Option<u64> {
        self.commit_with(txn, |_| {})
    }

    /// Like [`VersionStore::commit`], additionally running `publish`
    /// with the assigned csn under the commit mutex *before* the new
    /// sequence becomes visible to snapshot capture. Side tables keyed
    /// by commit visibility (the embedding layer's DDL fence) update
    /// here so a snapshot that includes the csn can never observe the
    /// side table in its pre-commit state. `publish` is not called for
    /// a transaction with no recorded writes (no csn is assigned).
    pub fn commit_with(&self, txn: TxnId, publish: impl FnOnce(u64)) -> Option<u64> {
        let log = self.write_logs.lock().remove(&txn)?;
        if log.is_empty() {
            return None;
        }
        let _guard = self.commit_mutex.lock();
        let csn = self.commit_seq.load(Ordering::Relaxed) + 1;
        let touch = self.bump();
        {
            let mut chains = self.chains.lock();
            for u in &log {
                let Some(chain) = chains
                    .by_rel
                    .get_mut(&u.rel)
                    .and_then(|m| m.get_mut(&u.key))
                else {
                    continue;
                };
                let Some((owner, image)) = chain.uncommitted.take() else {
                    continue;
                };
                if owner != txn {
                    chain.uncommitted = Some((owner, image));
                    continue;
                }
                chain.versions.push(Version { csn, image });
                chain.last_touch = touch;
            }
        }
        publish(csn);
        self.commit_seq.store(csn, Ordering::Release);
        Some(csn)
    }

    /// Aborts `txn`: unwinds every chain stamp. Call after the WAL undo
    /// restored the pages, so readers that raced the undo keep finding
    /// the chains (the GC fence keeps them alive until every snapshot
    /// born before this abort has ended). Returns what
    /// [`VersionStore::rollback_to_mark`] does.
    pub fn abort(&self, txn: TxnId) -> Vec<(RelationId, Footprint)> {
        let retracted = self.rollback_to_mark(txn, 0);
        self.write_logs.lock().remove(&txn);
        retracted
    }

    /// The visible image for `(rel, key)`, or None when no chain exists
    /// (the page bytes are committed state for every live snapshot).
    pub fn visible(
        &self,
        rel: RelationId,
        key: &[u8],
        snap: Snapshot,
        me: TxnId,
    ) -> Option<VersionImage> {
        let chains = self.chains.lock();
        chains
            .by_rel
            .get(&rel)
            .and_then(|m| m.get(key))
            .map(|c| c.visible(snap, me).clone())
    }

    /// [`VersionStore::visible`] for a frame of keys under one lock: the
    /// keys that have a chain, as `(index into keys, visible image)` in
    /// the order of `keys`. Empty — and nothing allocated — when none
    /// has, which is every frame of a relation nobody is writing.
    pub fn visible_among<'k>(
        &self,
        rel: RelationId,
        keys: impl Iterator<Item = &'k [u8]>,
        snap: Snapshot,
        me: TxnId,
    ) -> Vec<(usize, VersionImage)> {
        let chains = self.chains.lock();
        let Some(per_rel) = chains.by_rel.get(&rel).filter(|m| !m.is_empty()) else {
            return Vec::new();
        };
        keys.enumerate()
            .filter_map(|(i, key)| Some((i, per_rel.get(key)?.visible(snap, me).clone())))
            .collect()
    }

    /// Every chain of `rel` with its visible image, sorted by key —
    /// the merge input for a snapshot scan's delta sweep (records whose
    /// tree entries an in-flight writer moved or removed).
    pub fn visible_entries(
        &self,
        rel: RelationId,
        snap: Snapshot,
        me: TxnId,
    ) -> Vec<(Vec<u8>, VersionImage)> {
        let chains = self.chains.lock();
        let Some(per_rel) = chains.by_rel.get(&rel) else {
            return Vec::new();
        };
        let mut out: Vec<(Vec<u8>, VersionImage)> = per_rel
            .iter()
            .map(|(k, c)| (k.clone(), c.visible(snap, me).clone()))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Reclaims chains no live snapshot can need: committed out past
    /// the low-water csn **and** last touched before every active
    /// snapshot began (the born fence — a reader that performed its
    /// optimistic page read while a writer was in flight must still
    /// find the chain afterwards).
    pub fn gc(&self, active: &[Snapshot]) -> GcOutcome {
        let low_water = active
            .iter()
            .map(|s| s.csn)
            .min()
            .unwrap_or_else(|| self.commit_seq.load(Ordering::Acquire));
        let min_born = active
            .iter()
            .map(|s| s.born)
            .min()
            .unwrap_or_else(|| self.events.load(Ordering::Relaxed) + 1);
        let mut out = GcOutcome::default();
        let mut chains = self.chains.lock();
        chains.by_rel.retain(|_, per_rel| {
            per_rel.retain(|_, chain| {
                out.scanned += 1;
                let newest = chain.versions.last().map(|v| v.csn).unwrap_or(0);
                let keep = chain.uncommitted.is_some()
                    || newest > low_water
                    || chain.last_touch >= min_born;
                if keep {
                    // Versions below the low-water mark are unreachable
                    // even when the chain itself must stay.
                    let cut = chain
                        .versions
                        .iter()
                        .rposition(|v| v.csn <= low_water)
                        .unwrap_or(0);
                    if cut > 0 {
                        chain.versions.drain(..cut);
                        // Re-base so visibility never falls off the
                        // bottom: the oldest survivor becomes the base.
                        if let Some(first) = chain.versions.first_mut() {
                            if first.csn > low_water {
                                // can't happen (cut position had csn <=
                                // low_water), but keep the invariant
                                // explicit
                                first.csn = first.csn.min(low_water);
                            }
                        }
                    }
                } else {
                    out.reclaimed += 1;
                }
                keep
            });
            !per_rel.is_empty()
        });
        out
    }

    /// Number of live chains (diagnostics / tests).
    pub fn chain_count(&self) -> usize {
        self.chains.lock().by_rel.values().map(HashMap::len).sum()
    }

    /// The published commit sequence (diagnostics / tests).
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REL: RelationId = RelationId(7);

    fn present(n: i64) -> VersionImage {
        VersionImage::Present(vec![Value::Int(n)])
    }

    #[test]
    fn uncommitted_writes_are_invisible_and_own_writes_visible() {
        let vs = VersionStore::new();
        let reader = vs.capture();
        vs.record_write(TxnId(1), REL, b"k", VersionImage::Absent, present(1));
        // reader (not the writer) sees the base image
        assert_eq!(
            vs.visible(REL, b"k", reader, TxnId(9)),
            Some(VersionImage::Absent)
        );
        // the writer reads its own stamp
        assert_eq!(vs.visible(REL, b"k", reader, TxnId(1)), Some(present(1)));
    }

    #[test]
    fn commit_publishes_atomically_and_snapshots_are_stable() {
        let vs = VersionStore::new();
        vs.record_write(TxnId(1), REL, b"k", VersionImage::Absent, present(1));
        let before = vs.capture();
        vs.commit(TxnId(1)).unwrap();
        let after = vs.capture();
        assert_eq!(
            vs.visible(REL, b"k", before, TxnId(9)),
            Some(VersionImage::Absent),
            "pre-commit snapshot must stay stable"
        );
        assert_eq!(vs.visible(REL, b"k", after, TxnId(9)), Some(present(1)));
    }

    #[test]
    fn abort_restores_the_base_image() {
        let vs = VersionStore::new();
        vs.record_write(TxnId(1), REL, b"k", present(1), present(2));
        let none = Footprint::default();
        assert_eq!(vs.abort(TxnId(1)), vec![(REL, none)], "an update adds none");
        let snap = vs.capture();
        // chain may or may not survive the rollback; if it does, the
        // base image must be what readers see
        if let Some(img) = vs.visible(REL, b"k", snap, TxnId(9)) {
            assert_eq!(img, present(1));
        }
    }

    #[test]
    fn statement_rollback_unwinds_to_mark() {
        let vs = VersionStore::new();
        let t = TxnId(3);
        vs.record_write(t, REL, b"a", VersionImage::Absent, present(1));
        let mark = vs.mark(t);
        vs.record_write(t, REL, b"a", VersionImage::Absent, present(2));
        let added = vs.record_write(t, REL, b"b", VersionImage::Absent, present(3));
        assert_eq!(added.records, 1);
        // The retraction hands back what the two unwound stamps added.
        let twice = Footprint {
            records: 2,
            bytes: 2 * added.bytes,
        };
        assert_eq!(vs.rollback_to_mark(t, mark), vec![(REL, twice)]);
        assert_eq!(vs.rollback_to_mark(t, mark), vec![], "nothing left");
        let snap = vs.capture();
        assert_eq!(vs.visible(REL, b"a", snap, t), Some(present(1)));
        // The unwound chain stays (readers that copied the pre-undo
        // page bytes must still find it) but shows the base image.
        assert_eq!(
            vs.visible(REL, b"b", snap, t),
            Some(VersionImage::Absent),
            "unwound chain shows its base image"
        );
        vs.gc(&[]);
        assert_eq!(vs.chain_count(), 1, "GC folds the unwound chain away");
        vs.commit(t).unwrap();
        let snap = vs.capture();
        assert_eq!(vs.visible(REL, b"a", snap, TxnId(9)), Some(present(1)));
    }

    #[test]
    fn gc_respects_active_snapshots() {
        let vs = VersionStore::new();
        vs.record_write(TxnId(1), REL, b"k", VersionImage::Absent, present(1));
        vs.commit(TxnId(1));
        let old = vs.capture();
        vs.record_write(TxnId(2), REL, b"k", present(1), present(2));
        vs.commit(TxnId(2));
        // `old` still needs version 1: the chain must survive
        let o = vs.gc(&[old]);
        assert_eq!(o.reclaimed, 0);
        assert_eq!(vs.visible(REL, b"k", old, TxnId(9)), Some(present(1)));
        // with no active snapshots everything folds away
        let o = vs.gc(&[]);
        assert_eq!(o.reclaimed, 1);
        assert_eq!(vs.chain_count(), 0);
    }

    #[test]
    fn gc_born_fence_keeps_recently_touched_chains() {
        let vs = VersionStore::new();
        let reader = vs.capture();
        // writer touches the chain after the reader was born, then aborts
        vs.record_write(TxnId(2), REL, b"k", present(1), present(2));
        vs.abort(TxnId(2));
        // the chain (if the abort kept it) or at least nothing the
        // reader needs may be reclaimed while the reader lives
        vs.gc(&[reader]);
        if let Some(img) = vs.visible(REL, b"k", reader, TxnId(9)) {
            assert_eq!(img, present(1));
        }
    }

    #[test]
    fn unstamped_window_blocks_page_trust_until_stamp() {
        let vs = VersionStore::new();
        std::thread::scope(|s| {
            let w = vs.begin_unstamped(REL);
            let h = s.spawn(|| {
                // A reader that saw a chainless page row: it must not
                // probe the chain until the window closes.
                vs.wait_unstamped(REL);
                vs.visible(REL, b"k", vs.capture(), TxnId(9))
            });
            vs.record_write(TxnId(1), REL, b"k", VersionImage::Absent, present(1));
            drop(w);
            assert_eq!(
                h.join().unwrap(),
                Some(VersionImage::Absent),
                "the probe runs after the stamp landed, so it finds the chain"
            );
        });
    }

    #[test]
    fn unstamped_window_is_scoped_to_its_relation() {
        let vs = VersionStore::new();
        let other = RelationId(99);
        let w = vs.begin_unstamped(REL);
        // A reader of a different relation is not delayed by REL's open
        // window (this returns immediately rather than parking).
        vs.wait_unstamped(other);
        drop(w);
        vs.wait_unstamped(REL);
    }

    #[test]
    fn commit_with_runs_publish_before_the_csn_is_visible() {
        let vs = VersionStore::new();
        vs.record_write(TxnId(1), REL, b"k", VersionImage::Absent, present(1));
        let before = vs.commit_seq();
        let csn = vs
            .commit_with(TxnId(1), |csn| {
                // A snapshot captured while `publish` runs must not yet
                // include the csn being assigned.
                assert!(vs.capture().csn < csn);
                assert_eq!(vs.commit_seq(), before);
            })
            .unwrap();
        assert_eq!(vs.commit_seq(), csn);
        // Read-only transactions assign no csn and skip publish.
        vs.commit_with(TxnId(2), |_| panic!("publish for an empty log"));
    }

    #[test]
    fn visible_entries_sorted_and_snapshot_filtered() {
        let vs = VersionStore::new();
        vs.record_write(TxnId(1), REL, b"b", VersionImage::Absent, present(2));
        vs.record_write(TxnId(1), REL, b"a", VersionImage::Absent, present(1));
        vs.commit(TxnId(1));
        let snap = vs.capture();
        vs.record_write(TxnId(2), REL, b"a", present(1), VersionImage::Absent);
        let entries = vs.visible_entries(REL, snap, TxnId(9));
        assert_eq!(
            entries,
            vec![(b"a".to_vec(), present(1)), (b"b".to_vec(), present(2)),]
        );
    }
}
