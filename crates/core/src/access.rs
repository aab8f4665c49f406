//! The unified access interface and scan management.
//!
//! "The internal interface for data access is uniform across relation
//! storage and access path extensions. All accesses take keys as input
//! and return keys and data. … Access path zero is interpreted as an
//! access to the storage method." Scans (key-sequential accesses) have
//! explicit *positions* with the paper's rules: a scan is on / before /
//! after an item; deleting the item at the current position leaves the
//! scan just after it; every scan is closed at transaction termination;
//! and positions are saved when a rollback point is established and
//! restored after a partial rollback.

use std::collections::{HashMap, VecDeque};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dmx_expr::Expr;
use dmx_types::sync::Mutex;

use dmx_types::{
    key::encode_values, AttInstanceId, AttTypeId, DmxError, RecordKey, Rect, Result, ScanId, TxnId,
    Value,
};

use crate::context::ExecCtx;

/// Which access path serves an access. Path zero is the storage method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPath {
    /// "Access path zero": the relation storage method itself.
    StorageMethod,
    /// An attachment instance (type id + instance number, e.g. "B-tree
    /// number 3").
    Attachment(AttTypeId, AttInstanceId),
}

/// A range over opaque key bytes (storage-method record keys for path 0,
/// access-path keys otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRange {
    pub lo: Bound<Vec<u8>>,
    pub hi: Bound<Vec<u8>>,
}

impl KeyRange {
    /// The unbounded range.
    pub fn all() -> Self {
        KeyRange {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }
    }

    /// Every key that starts with `prefix` (all keys for an empty one).
    pub fn prefix(prefix: Vec<u8>) -> Self {
        KeyRange {
            hi: prefix_successor(&prefix).map_or(Bound::Unbounded, Bound::Excluded),
            lo: Bound::Included(prefix),
        }
    }

    /// True when `k` lies inside the range.
    pub fn contains(&self, k: &[u8]) -> bool {
        let lo_ok = match &self.lo {
            Bound::Unbounded => true,
            Bound::Included(b) => k >= b.as_slice(),
            Bound::Excluded(b) => k > b.as_slice(),
        };
        let hi_ok = match &self.hi {
            Bound::Unbounded => true,
            Bound::Included(b) => k <= b.as_slice(),
            Bound::Excluded(b) => k < b.as_slice(),
        };
        lo_ok && hi_ok
    }
}

/// Smallest byte string greater than every string with prefix `b`
/// (`None` when `b` is all-0xFF, i.e. unbounded above).
pub fn prefix_successor(b: &[u8]) -> Option<Vec<u8>> {
    let mut v = b.to_vec();
    while let Some(last) = v.pop() {
        if last != 0xFF {
            v.push(last + 1);
            return Some(v);
        }
    }
    None
}

/// Serializes a key-ordered scan's position: `[0]` = at start,
/// `[1] ∥ key` = after `key`.
pub fn encode_position(after: Option<&[u8]>) -> Vec<u8> {
    match after {
        None => vec![0],
        Some(k) => {
            let mut v = Vec::with_capacity(1 + k.len());
            v.push(1);
            v.extend_from_slice(k);
            v
        }
    }
}

/// Parses a position written by [`encode_position`].
pub fn decode_position(pos: &[u8]) -> Result<Option<Vec<u8>>> {
    match pos.split_first() {
        Some((0, _)) => Ok(None),
        Some((1, rest)) => Ok(Some(rest.to_vec())),
        _ => Err(DmxError::Corrupt("bad scan position".into())),
    }
}

/// Spatial query operators recognized by spatial access paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialOp {
    /// Record rectangles that enclose the query rectangle.
    Encloses,
    /// Record rectangles enclosed by the query rectangle (window query).
    EnclosedBy,
    /// Record rectangles intersecting the query rectangle.
    Intersects,
}

/// The concrete question asked of an access path.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessQuery {
    /// Every entry.
    All,
    /// Entries within an encoded-key range.
    Range(KeyRange),
    /// Entries whose access key is, or for a composite key starts with,
    /// these encoded values — on every path, ordered or hashed.
    KeyEquals(Vec<u8>),
    /// `KeyEquals` of one value known only when the access is opened:
    /// slot `n` of the row handed to [`AccessQuery::bind`] (a join's
    /// outer row). What an `estimate` answers `field = $n` with when it
    /// can look the value up by key.
    KeyEqualsParam(usize),
    /// Exactly the record with this record key: what a storage method's
    /// `estimate` answers when the predicates fix every field its record
    /// key is made of — one whose insert X-locks the key before probing
    /// for it, so that a writer's lock on an absent key keeps it absent.
    /// A write fetches that one record by key
    /// ([`crate::Database::fetch_target`]); a scan opened on it covers
    /// the keys that start with it, which is the record alone.
    Record(RecordKey),
    /// Spatial predicate against the query rectangle.
    Spatial(SpatialOp, Rect),
}

impl AccessQuery {
    /// The query to open with `params` in hand: `KeyEqualsParam(n)`
    /// becomes `KeyEquals` of `params[n]`, anything else is cloned. `None`
    /// when that value is NULL or missing — it equals no key, so there is
    /// nothing to open.
    pub fn bind(&self, params: &[Value]) -> Option<AccessQuery> {
        match self {
            AccessQuery::KeyEqualsParam(n) => params
                .get(*n)
                .filter(|v| !v.is_null())
                .map(|v| AccessQuery::KeyEquals(encode_values(std::slice::from_ref(v)))),
            q => Some(q.clone()),
        }
    }

    /// The key range the query asks for; `what` names the access path
    /// in the error a spatial or still-unbound query gets.
    pub fn key_range(self, what: &str) -> Result<KeyRange> {
        match self {
            AccessQuery::All => Ok(KeyRange::all()),
            AccessQuery::Range(r) => Ok(r),
            AccessQuery::KeyEquals(k) | AccessQuery::Record(RecordKey(k)) => {
                Ok(KeyRange::prefix(k))
            }
            AccessQuery::KeyEqualsParam(n) => {
                Err(DmxError::Internal(format!("{what}: ${n} opened unbound")))
            }
            AccessQuery::Spatial(_, _) => {
                Err(DmxError::Unsupported(format!("{what}: spatial query")))
            }
        }
    }

    /// The range of record keys a storage method's scan covers for this
    /// query: what [`crate::StorageMethod::open_scan`] is opened with,
    /// and what such a scan moves to in [`ScanOps::rebind`].
    pub fn storage_range(self) -> Result<KeyRange> {
        self.key_range("storage method")
    }
}

/// One item produced by a scan: the storage-method record key plus,
/// when available, field values (projected record fields from a storage
/// method, or covered fields from an access path).
#[derive(Debug, Clone, PartialEq)]
pub struct ScanItem {
    pub key: RecordKey,
    pub values: Option<Vec<Value>>,
}

/// The unit a scan hands upward: the qualifying, projected items of one
/// pinned heap page or one tree leaf, in scan order. It has no size of
/// its own — a frame is what one page holds — and the caller keeps and
/// reuses it from one [`ScanOps::next_frame`] to the next.
pub type Frame = VecDeque<ScanItem>;

/// The generic key-sequential access interface implemented by storage
/// methods and access-path attachments.
///
/// An extension implements [`ScanOps::next`]; that is all a scan needs,
/// and [`ScanOps::next_frame`] then hands its items out one to a frame.
/// Overriding `next_frame` pays when the scan reads pages: one pin, one
/// page guard and one evaluator for everything the page holds, the
/// predicate run on the bytes where they lie and only the rows that pass
/// copied out. The override must keep `next` its one-row view (one
/// traversal body, stopped after the first item) and must take **no
/// lock while it fills**: it holds a page guard, locks sit above page
/// guards in the hierarchy (a debug build refuses a lock request under
/// one, [`dmx_types::held`]), and the dispatcher locks each item as it
/// hands it out. A scan that has to lock what it passes — the next-key
/// cursor — fills frames of one.
///
/// [`ScanOps::rebind`] is the other optional method: a join asks its
/// inner scan for a different key range per outer row, and a scan that
/// can move to one spares the join a close and an open each time. The
/// default says it cannot, and the join opens a new scan as it always
/// did. A scan over a tree file ([`crate::TreeScan`]) always can.
pub trait ScanOps: Send {
    /// The item after the current position, advancing the position onto
    /// it. `None` when exhausted.
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>>;

    /// Appends to `frame` the items after the current position that the
    /// next page with any holds, advancing the position onto the last of
    /// them; appends nothing when exhausted.
    fn next_frame(&mut self, ctx: &ExecCtx<'_>, frame: &mut Frame) -> Result<()> {
        frame.extend(self.next(ctx)?);
        Ok(())
    }

    /// Makes this the scan of `query` with `pred` pushed down that a
    /// fresh open on the same path would be: positioned before the first
    /// item, exhaustion forgotten, with the projection, the range-locking
    /// switch and every lock taken so far kept. `Ok(false)`, with nothing
    /// changed, when the scan cannot — the default — and the caller
    /// closes it and opens another.
    fn rebind(
        &mut self,
        _ctx: &ExecCtx<'_>,
        _query: &AccessQuery,
        _pred: Option<&Expr>,
    ) -> Result<bool> {
        Ok(false)
    }

    /// Serializes the current position (the paper's savepoint-time
    /// "obtain their key-sequential access positions").
    fn save_position(&self) -> Vec<u8>;

    /// Restores a previously saved position after a partial rollback.
    fn restore_position(&mut self, pos: &[u8]) -> Result<()>;

    /// True when item keys are storage-method record keys (lockable and
    /// re-readable through the storage method). Access paths that emit
    /// derived items — e.g. maintained-aggregate groups — return false,
    /// and the dispatcher skips record locking/re-validation for them.
    fn items_are_record_keys(&self) -> bool {
        true
    }

    /// True when the scan can re-derive its items from a versioned
    /// record image via [`ScanOps::item_from_version`] — the opt-in for
    /// lock-free snapshot scans. Scans whose per-item state is not a
    /// pure function of `(record key, record values)` (join pairs,
    /// derived aggregates, spatial hits) keep the default `false`, and
    /// for them the dispatcher falls back to the locking protocol.
    fn supports_versioned_read(&self) -> bool {
        false
    }

    /// Re-derives the scan's item for a record given its snapshot-
    /// visible `values`: applies the scan's own range/predicate/
    /// projection and returns `None` when the versioned record does not
    /// qualify. `key` is the storage-method record key.
    fn item_from_version(
        &self,
        _ctx: &ExecCtx<'_>,
        _key: &RecordKey,
        _values: &[Value],
    ) -> Result<Option<ScanItem>> {
        Err(DmxError::Unsupported(
            "scan does not support versioned reads".into(),
        ))
    }

    /// Enables next-key range (gap) locking on this scan: tree scans
    /// S-lock the gap below every entry they return (and the gap just
    /// past the range on exhaustion) so serializable writers cannot
    /// slip phantoms into the scanned range. Only the dispatcher's
    /// locking protocol turns this on — raw internal scans (a build's,
    /// scrub, referential-integrity probes) run without range locks,
    /// exactly as they run without record locks. Default: no-op for
    /// scans without a gap-lockable key space.
    fn set_range_locking(&mut self, _on: bool) {}
}

type SharedScan = Arc<Mutex<Box<dyn ScanOps>>>;

/// Tracks every open scan per transaction so the common system can (a)
/// close them all at transaction termination and (b) save/restore their
/// positions around rollback points.
///
/// Each scan carries its own lock: advancing a scan must **not** hold the
/// registry lock, because a scan may block in the lock manager (record
/// locks) and other transactions' scans have to keep moving — and the
/// deadlock detector must see the blocked request as a lock wait.
#[derive(Default)]
pub struct ScanManager {
    next_id: AtomicU64,
    open: Mutex<HashMap<TxnId, HashMap<ScanId, SharedScan>>>,
}

impl ScanManager {
    /// An empty scan manager.
    pub fn new() -> Arc<Self> {
        Arc::new(ScanManager::default())
    }

    /// Registers an open scan for a transaction.
    pub fn open(&self, txn: TxnId, scan: Box<dyn ScanOps>) -> ScanId {
        let id = ScanId(self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        self.open
            .lock()
            .entry(txn)
            .or_default()
            .insert(id, Arc::new(Mutex::new(scan)));
        id
    }

    /// The scan behind `id` (the registry lock is released before the
    /// scan runs).
    fn scan(&self, txn: TxnId, id: ScanId) -> Result<SharedScan> {
        let open = self.open.lock();
        open.get(&txn)
            .and_then(|scans| scans.get(&id))
            .cloned()
            .ok_or_else(|| DmxError::NotFound(format!("scan {id}")))
    }

    /// Advances a scan by one item.
    pub fn next(&self, ctx: &ExecCtx<'_>, id: ScanId) -> Result<Option<ScanItem>> {
        let scan = self.scan(ctx.txn.id(), id)?;
        let mut guard = scan.lock();
        guard.next(ctx)
    }

    /// Advances a scan by one frame: one registry lookup for what a page
    /// holds.
    pub fn next_frame(&self, ctx: &ExecCtx<'_>, id: ScanId, frame: &mut Frame) -> Result<()> {
        let scan = self.scan(ctx.txn.id(), id)?;
        let mut guard = scan.lock();
        guard.next_frame(ctx, frame)
    }

    /// Re-binds a scan ([`ScanOps::rebind`]) where it is registered.
    pub fn rebind(
        &self,
        ctx: &ExecCtx<'_>,
        id: ScanId,
        query: &AccessQuery,
        pred: Option<&Expr>,
    ) -> Result<bool> {
        let scan = self.scan(ctx.txn.id(), id)?;
        let mut guard = scan.lock();
        guard.rebind(ctx, query, pred)
    }

    /// Closes one scan.
    pub fn close(&self, txn: TxnId, id: ScanId) {
        if let Some(scans) = self.open.lock().get_mut(&txn) {
            scans.remove(&id);
        }
    }

    /// End-of-transaction notification: closes every scan the transaction
    /// had open ("all key-sequential accesses must be terminated at
    /// transaction termination").
    pub fn close_all(&self, txn: TxnId) -> usize {
        self.open.lock().remove(&txn).map(|s| s.len()).unwrap_or(0)
    }

    /// Number of scans a transaction holds open.
    pub fn open_count(&self, txn: TxnId) -> usize {
        self.open.lock().get(&txn).map(|s| s.len()).unwrap_or(0)
    }

    /// Rollback-point establishment: collect every open scan's position.
    pub fn save_positions(&self, txn: TxnId) -> Vec<(ScanId, Vec<u8>)> {
        let scans: Vec<(ScanId, SharedScan)> = {
            let open = self.open.lock();
            open.get(&txn)
                .map(|scans| scans.iter().map(|(id, s)| (*id, s.clone())).collect())
                .unwrap_or_default()
        };
        let mut out: Vec<(ScanId, Vec<u8>)> = scans
            .into_iter()
            .map(|(id, s)| {
                let pos = s.lock().save_position();
                (id, pos)
            })
            .collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Partial-rollback completion: restore saved positions. Scans opened
    /// after the savepoint (not in `saved`) are closed — they did not
    /// exist at the rollback point.
    pub fn restore_positions(&self, txn: TxnId, saved: &[(ScanId, Vec<u8>)]) -> Result<()> {
        let survivors: Vec<(ScanId, SharedScan)> = {
            let mut open = self.open.lock();
            let Some(scans) = open.get_mut(&txn) else {
                return Ok(());
            };
            scans.retain(|id, _| saved.iter().any(|(s, _)| s == id));
            scans.iter().map(|(id, s)| (*id, s.clone())).collect()
        };
        for (id, pos) in saved {
            if let Some((_, s)) = survivors.iter().find(|(sid, _)| sid == id) {
                s.lock().restore_position(pos)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_range_contains() {
        let r = KeyRange {
            lo: Bound::Included(vec![2]),
            hi: Bound::Excluded(vec![9]),
        };
        assert!(r.contains(&[2]));
        assert!(r.contains(&[5, 1]));
        assert!(!r.contains(&[9]));
        assert!(!r.contains(&[1]));
        assert!(KeyRange::all().contains(&[]));
        let p = KeyRange::prefix(vec![7]);
        assert!(p.contains(&[7]) && p.contains(&[7, 0xFF]) && !p.contains(&[8]));
        assert_eq!(KeyRange::prefix(vec![]).hi, Bound::Unbounded);
        assert_eq!(KeyRange::prefix(vec![0xFF]).hi, Bound::Unbounded);
    }

    #[test]
    fn queries_bind_their_parameter_and_name_a_prefix_range() {
        let row = [Value::Int(4), Value::Null];
        let enc = encode_values(&[Value::Int(4)]);
        let probe = AccessQuery::KeyEqualsParam(0);
        assert_eq!(probe.bind(&row), Some(AccessQuery::KeyEquals(enc.clone())));
        // NULL equals no key, and neither does a slot the row lacks
        assert_eq!(AccessQuery::KeyEqualsParam(1).bind(&row), None);
        assert_eq!(AccessQuery::KeyEqualsParam(2).bind(&row), None);
        let range = AccessQuery::Range(KeyRange::prefix(vec![7]));
        assert_eq!(range.bind(&[]), Some(range.clone()));
        assert_eq!(AccessQuery::All.bind(&row), Some(AccessQuery::All));

        // a key, or the leading values of a composite one
        assert_eq!(
            AccessQuery::KeyEquals(enc.clone()).key_range("t").unwrap(),
            KeyRange::prefix(enc)
        );
        // opened unbound is an error, never a scan of everything
        assert!(probe.key_range("t").is_err());
    }

    #[test]
    fn successor_orders_correctly() {
        assert_eq!(prefix_successor(b"ab").unwrap(), b"ac");
        assert_eq!(prefix_successor(&[1, 0xFF]).unwrap(), vec![2]);
        assert_eq!(prefix_successor(&[0xFF, 0xFF]), None);
        // every string with the prefix sorts below the successor
        let p = vec![3u8, 0xFF, 7];
        let succ = prefix_successor(&p).unwrap();
        let mut extended = p.clone();
        extended.extend_from_slice(&[0xFF; 8]);
        assert!(extended < succ);
        assert!(p < succ);
    }

    #[test]
    fn position_roundtrip() {
        assert_eq!(decode_position(&encode_position(None)).unwrap(), None);
        assert_eq!(
            decode_position(&encode_position(Some(b"abc"))).unwrap(),
            Some(b"abc".to_vec())
        );
        assert!(decode_position(&[]).is_err());
        assert!(decode_position(&[7]).is_err());
    }

    // A scriptable scan over a vector of numbered items; position = index.
    struct VecScan {
        items: Vec<u8>,
        pos: usize,
    }
    impl ScanOps for VecScan {
        fn next(&mut self, _ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>> {
            if self.pos >= self.items.len() {
                return Ok(None);
            }
            let item = ScanItem {
                key: RecordKey::new(vec![self.items[self.pos]]),
                values: None,
            };
            self.pos += 1;
            Ok(Some(item))
        }
        fn save_position(&self) -> Vec<u8> {
            vec![self.pos as u8]
        }
        fn restore_position(&mut self, pos: &[u8]) -> Result<()> {
            self.pos = pos[0] as usize;
            Ok(())
        }
    }

    // ScanManager tests that need an ExecCtx live in dml.rs's test module
    // (where a full Database exists); here we exercise the bookkeeping
    // that doesn't need one.
    #[test]
    fn open_close_and_end_of_txn_cleanup() {
        let sm = ScanManager::new();
        let t = TxnId(1);
        let a = sm.open(
            t,
            Box::new(VecScan {
                items: vec![1, 2],
                pos: 0,
            }),
        );
        let b = sm.open(
            t,
            Box::new(VecScan {
                items: vec![3],
                pos: 0,
            }),
        );
        assert_ne!(a, b);
        assert_eq!(sm.open_count(t), 2);
        sm.close(t, a);
        assert_eq!(sm.open_count(t), 1);
        assert_eq!(sm.close_all(t), 1);
        assert_eq!(sm.open_count(t), 0);
        assert_eq!(sm.close_all(t), 0, "idempotent");
    }

    #[test]
    fn save_restore_positions_drops_younger_scans() {
        let sm = ScanManager::new();
        let t = TxnId(2);
        let a = sm.open(
            t,
            Box::new(VecScan {
                items: vec![1, 2, 3],
                pos: 2,
            }),
        );
        let saved = sm.save_positions(t);
        assert_eq!(saved, vec![(a, vec![2])]);
        // a scan opened after the savepoint must be closed on restore
        let _b = sm.open(
            t,
            Box::new(VecScan {
                items: vec![9],
                pos: 0,
            }),
        );
        assert_eq!(sm.open_count(t), 2);
        sm.restore_positions(t, &saved).unwrap();
        assert_eq!(sm.open_count(t), 1);
    }
}
