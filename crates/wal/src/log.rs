//! The log manager.
//!
//! [`StableLog`] is the durable portion of the log: like `MemDisk`, it
//! survives a simulated crash (keep the `Arc`, drop everything else).
//! [`LogManager`] owns the volatile tail and the append path; `force`
//! moves the tail into the stable log one frame at a time (retrying
//! transient faults, so a frame is either fully durable or not appended),
//! and is called by commit and by the buffer pool's write-ahead hook.
//! The bytes of every frame it makes durable are counted in `wal.bytes`
//! and, by the frame's writer, in `wal.bytes.{sm,att}.<type id>` or
//! `wal.bytes.txn`; those outside the frame's payload also in
//! `wal.frame_overhead_bytes`.
//!
//! An optional [`FaultInjector`] gates every frame append and frame read:
//! the stable log shares the injector (and its global I/O counter) with
//! the fault-wrapped disk, so one seeded plan can crash, tear or corrupt
//! any I/O in the system — page or log — by index.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use dmx_types::sync::Mutex;

use dmx_types::fault::{with_io_retries, MAX_IO_RETRIES};
use dmx_types::held;
use dmx_types::obs::{name, Counter, Histogram, MetricsRegistry, ObsEvent, SIZE_BUCKETS};
use dmx_types::{DmxError, FaultDecision, FaultInjector, Lsn, Result, TxnId};

use crate::record::{framed_lens, ExtKind, ExtOp, LogBody, LogRecord};

/// The durable prefix of the log. Records are stored encoded, proving the
/// wire format round-trips; a simulated crash keeps this object and drops
/// the [`LogManager`]. It has no `Default`: `clippy.toml` denies
/// `StableLog::new` outside this crate, and a trait method would be a
/// constructor it cannot name.
pub struct StableLog {
    frames: Mutex<Vec<Vec<u8>>>,
    injector: Mutex<Option<Arc<FaultInjector>>>,
}

impl StableLog {
    /// An empty stable log with no fault injection.
    pub fn new() -> Arc<Self> {
        Arc::new(StableLog {
            frames: Mutex::default(),
            injector: Mutex::default(),
        })
    }

    /// An empty stable log whose every frame I/O consults `injector`.
    /// Share the injector with the fault-wrapped disk so both draw from
    /// one global I/O sequence.
    pub fn with_injector(injector: Arc<FaultInjector>) -> Arc<Self> {
        let log = StableLog::new();
        *log.injector.lock() = Some(injector);
        log
    }

    /// Number of durable records.
    pub fn len(&self) -> usize {
        self.frames.lock().len()
    }

    /// True when no records are durable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a single encoded frame, consulting the injector: the frame
    /// is either appended whole, appended torn (prefix only, then the
    /// injector reports a crash), corrupted in place, or not appended at
    /// all — exactly the outcomes a real log device exhibits. The device
    /// delimits frames: a reader gets back exactly the bytes appended.
    pub fn append_frame(&self, mut frame: Vec<u8>) -> Result<()> {
        self.append_from(&mut frame)
    }

    /// [`StableLog::append_frame`] of `*frame`, moved into the log when
    /// anything of it is appended; a failure that appends nothing leaves
    /// it in place for a retry.
    fn append_from(&self, frame: &mut Vec<u8>) -> Result<()> {
        let decision = match self.injector.lock().as_ref() {
            Some(inj) => inj.decide(true),
            None => FaultDecision::Proceed,
        };
        match decision {
            FaultDecision::FlipByte { raw } => {
                if let Some((off, bit)) = FaultDecision::flip_target(raw, frame.len()) {
                    // bounds: flip_target reduces off modulo frame.len()
                    frame[off] ^= bit;
                }
            }
            FaultDecision::Torn { raw } => {
                let keep = (raw as usize) % (frame.len() + 1);
                frame.truncate(keep);
            }
            other => {
                if let Some(e) = FaultInjector::error_for(other, "log append") {
                    return Err(e);
                }
            }
        }
        self.frames.lock().push(std::mem::take(frame));
        match FaultInjector::error_for(decision, "log append") {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Runs `f` over the raw bytes of frame `idx` (0-based) without
    /// cloning them. Reads consult the injector like any other I/O.
    pub fn with_frame<R>(&self, idx: usize, f: impl FnOnce(&[u8]) -> Result<R>) -> Result<R> {
        let decision = match self.injector.lock().as_ref() {
            Some(inj) => inj.decide(false),
            None => FaultDecision::Proceed,
        };
        if let Some(e) = FaultInjector::error_for(decision, "log read") {
            return Err(e);
        }
        let frames = self.frames.lock();
        let frame = frames
            .get(idx)
            .ok_or_else(|| DmxError::NotFound(format!("log frame {idx}")))?;
        f(frame)
    }

    /// Discards every frame at index `idx` and beyond (restart's
    /// scan-and-truncate of a torn tail).
    pub fn truncate_from(&self, idx: usize) {
        self.frames.lock().truncate(idx);
    }

    /// Decodes the durable record with the given LSN (1-based, dense).
    /// Retries transient read faults so rollback and record lookups never
    /// surface [`DmxError::IoTransient`].
    pub fn record(&self, lsn: Lsn) -> Result<LogRecord> {
        let idx = (lsn.0 as usize)
            .checked_sub(1)
            .ok_or_else(|| DmxError::InvalidArg("lsn 0".into()))?;
        let decode = |frame: &[u8]| LogRecord::decode(lsn, frame);
        with_io_retries(MAX_IO_RETRIES, || self.with_frame(idx, decode)).map_err(|e| match e {
            DmxError::NotFound(_) => DmxError::NotFound(format!("log record {lsn}")),
            other => other,
        })
    }

    /// Decodes all durable records in LSN order. Test/diagnostic
    /// convenience: the restart path streams frames individually through
    /// [`StableLog::with_frame`] instead of materializing this clone.
    pub fn all(&self) -> Result<Vec<LogRecord>> {
        self.frames
            .lock()
            .iter()
            .zip(1..)
            .map(|(f, lsn)| LogRecord::decode(Lsn(lsn), f))
            .collect()
    }
}

struct Volatile {
    /// Records with lsn > durable watermark, in order.
    tail: VecDeque<LogRecord>,
    /// Highest LSN assigned.
    next_lsn: u64,
    /// Highest LSN a force has taken for encoding: a record at or below
    /// it is sealed and [`LogManager::amend`] refuses it.
    sealed: u64,
}

/// Assigns LSNs, maintains per-transaction undo chains, and controls
/// durability.
pub struct LogManager {
    stable: Arc<StableLog>,
    vol: Mutex<Volatile>,
    /// Serializes flushers. Held only while moving frames to the stable
    /// log — never during appends, which need only `vol` — so concurrent
    /// committers queue here while a batch leader writes, and most find
    /// their LSN already durable when they acquire it (group commit).
    flush: Mutex<()>,
    obs: Arc<MetricsRegistry>,
    appends: Arc<Counter>,
    ext_ops: Arc<Counter>,
    forces: Arc<Counter>,
    frames_forced: Arc<Counter>,
    force_batch: Arc<Histogram>,
    bytes: BytesByWriter,
}

/// Durable log bytes ([`name::WAL_BYTES`]), in all, outside payloads and
/// by the writer of each frame. A writer's counter is registered at its
/// first frame and its handle kept, so no frame pays a name lookup.
struct BytesByWriter {
    all: Arc<Counter>,
    overhead: Arc<Counter>,
    txn: Arc<Counter>,
    sm: [OnceLock<Arc<Counter>>; 256],
    att: [OnceLock<Arc<Counter>>; 256],
}

impl BytesByWriter {
    fn new(obs: &MetricsRegistry) -> Self {
        BytesByWriter {
            all: obs.counter(name::WAL_BYTES),
            overhead: obs.counter(name::WAL_FRAME_OVERHEAD_BYTES),
            txn: obs.counter(&format!("{}.txn", name::WAL_BYTES)),
            sm: [const { OnceLock::new() }; 256],
            att: [const { OnceLock::new() }; 256],
        }
    }

    /// Counts a durable frame: its bytes by writer (`None` = a
    /// transaction-control record), `overhead` of them outside payloads.
    fn add(&self, obs: &MetricsRegistry, frame: &Written) {
        self.overhead.add(frame.overhead);
        for &(writer, n) in &frame.by_writer {
            let n = n as u64;
            self.all.add(n);
            let (cells, kind, id) = match writer {
                None => {
                    self.txn.add(n);
                    continue;
                }
                Some(ExtKind::Storage(id)) => (&self.sm, "sm", id.0),
                Some(ExtKind::Attachment(id)) => (&self.att, "att", id.0),
            };
            cells[usize::from(id)]
                .get_or_init(|| obs.counter(&format!("{}.{kind}.{id}", name::WAL_BYTES)))
                .add(n);
        }
    }
}

/// Who wrote the bytes of one encoded frame.
struct Written {
    /// Each writer's bytes, summing to the frame's length: an operation's
    /// header and payload are its extension's, and the frame's own header
    /// and checksum go to its first operation's.
    by_writer: Vec<(Option<ExtKind>, usize)>,
    /// The bytes outside payloads.
    overhead: u64,
}

impl Written {
    fn of(rec: &LogRecord, len: usize) -> Written {
        let (by_writer, payloads) = match &rec.body {
            LogBody::ExtOp { ext, payload, .. } => (vec![(Some(*ext), len)], payload.len()),
            LogBody::ExtOps(ops) => {
                let writers = ops.iter().map(|o| Some(o.ext));
                let mut by_writer: Vec<_> = writers.zip(framed_lens(ops)).collect();
                let framed: usize = by_writer.iter().map(|&(_, n)| n).sum();
                if let Some(first) = by_writer.first_mut() {
                    first.1 += len - framed;
                }
                (by_writer, ops.iter().map(|o| o.payload.len()).sum())
            }
            LogBody::DeferredIntent { payload } => (vec![(None, len)], payload.len()),
            _ => (vec![(None, len)], 0),
        };
        Written {
            by_writer,
            overhead: (len - payloads) as u64,
        }
    }
}

impl LogManager {
    /// Opens a log manager over a (possibly non-empty) stable log with a
    /// private metrics registry; the next LSN continues after the durable
    /// prefix.
    pub fn open(stable: Arc<StableLog>) -> Self {
        Self::open_with_metrics(stable, MetricsRegistry::new())
    }

    /// Opens a log manager registering its metrics in `obs`.
    pub fn open_with_metrics(stable: Arc<StableLog>, obs: Arc<MetricsRegistry>) -> Self {
        let durable = stable.len() as u64;
        let appends = obs.counter(name::WAL_APPENDS);
        let ext_ops = obs.counter(name::WAL_EXT_OPS);
        let forces = obs.counter(name::WAL_FORCES);
        let frames_forced = obs.counter(name::WAL_FRAMES_FORCED);
        let force_batch = obs.histogram(name::WAL_FORCE_BATCH, SIZE_BUCKETS);
        let bytes = BytesByWriter::new(&obs);
        LogManager {
            stable,
            vol: Mutex::new(Volatile {
                tail: VecDeque::new(),
                next_lsn: durable + 1,
                sealed: durable,
            }),
            flush: Mutex::new(()),
            obs,
            appends,
            ext_ops,
            forces,
            frames_forced,
            force_batch,
            bytes,
        }
    }

    /// The stable log (shared with the crash-surviving environment).
    pub fn stable(&self) -> &Arc<StableLog> {
        &self.stable
    }

    /// Appends a record, returning its LSN. `prev_lsn` must be the
    /// transaction's previous record (its undo chain).
    pub fn append(&self, txn: TxnId, prev_lsn: Lsn, body: LogBody) -> Lsn {
        let ops = body.ext_ops().count() as u64;
        let mut vol = self.vol.lock();
        let lsn = Lsn(vol.next_lsn);
        vol.next_lsn += 1;
        vol.tail.push_back(LogRecord {
            lsn,
            prev_lsn,
            txn,
            body,
        });
        drop(vol);
        self.appends.incr();
        self.ext_ops.add(ops);
        lsn
    }

    /// Adds `op` to the record at `lsn` — an extension-operation record
    /// still in the volatile tail that no force has taken — as its last
    /// operation, so it shares that record's frame, LSN and undo step.
    /// Hands `op` back when the record is sealed (a force took it, so its
    /// frame may already be durable without `op`) or holds no operations;
    /// the caller then appends a record of its own.
    ///
    /// The caller owns the write-ahead order: a page the operation
    /// changes is stamped with `lsn`, and since every force seals what it
    /// takes, a page flush that forced `lsn` before this call leaves the
    /// record sealed and the operation in a later one.
    pub fn amend(&self, lsn: Lsn, op: ExtOp) -> std::result::Result<(), ExtOp> {
        let mut vol = self.vol.lock();
        if lsn.0 <= vol.sealed {
            return Err(op);
        }
        let front = vol.tail.front().map_or(Lsn::NULL, |r| r.lsn);
        let idx = lsn.0.checked_sub(front.0).filter(|_| !front.is_null());
        let Some(rec) = idx.and_then(|i| vol.tail.get_mut(i as usize)) else {
            return Err(op);
        };
        rec.body = match std::mem::replace(&mut rec.body, LogBody::Begin) {
            LogBody::ExtOps(mut ops) => {
                ops.push(op);
                LogBody::ExtOps(ops)
            }
            LogBody::ExtOp {
                ext,
                relation,
                op: code,
                payload,
            } => {
                let first = ExtOp {
                    ext,
                    relation,
                    op: code,
                    payload,
                };
                LogBody::ExtOps(vec![first, op])
            }
            other => {
                rec.body = other;
                return Err(op);
            }
        };
        drop(vol);
        self.ext_ops.incr();
        Ok(())
    }

    /// Highest LSN assigned so far ([`Lsn::NULL`] when empty).
    pub fn last_lsn(&self) -> Lsn {
        Lsn(self.vol.lock().next_lsn - 1)
    }

    /// Highest durable LSN.
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.stable.len() as u64)
    }

    /// Makes the log durable up to at least `lsn` (inclusive). Forcing an
    /// already-durable LSN is a no-op. Frames move one at a time with a
    /// bounded retry on transient faults, and a frame leaves the volatile
    /// tail only once durably appended — a mid-force crash leaves a clean
    /// durable prefix plus (at worst) one torn frame for restart's
    /// scan-and-truncate to remove.
    pub fn force(&self, lsn: Lsn) -> Result<()> {
        self.force_upto(lsn, false)
    }

    /// Group-commit force: makes `lsn` durable and, while it holds the
    /// flush lock anyway, flushes the *entire* volatile tail. Concurrent
    /// committers queue on the flush lock while a batch leader writes;
    /// because the leader also carried their (already-appended) commit
    /// records, they find their LSN durable on acquire and return without
    /// doing any I/O of their own — one force serves many commits, which
    /// is what the `wal.force_batch` histogram measures. An explicit
    /// device operation, so never under a latch (debug builds check); the
    /// buffer pool's own write-ahead force goes through [`Self::force`].
    pub fn force_group(&self, lsn: Lsn) -> Result<()> {
        held::assert_unlatched("force_group");
        self.force_upto(lsn, true)
    }

    fn force_upto(&self, lsn: Lsn, to_end: bool) -> Result<()> {
        // Fast path, no locks: already durable (stable only grows).
        if lsn.0 <= self.stable.len() as u64 {
            return Ok(());
        }
        if to_end {
            // Group-commit window: step aside once so other ready
            // committers can append their commit records before anyone
            // snapshots the tail — then one stable write carries the
            // whole batch and the rest free-ride. Without this, commits
            // short enough to fit inside a scheduler quantum never
            // overlap at the flush lock (most visible on a single core)
            // and every commit pays its own force. With no other
            // runnable thread the yield returns immediately.
            std::thread::yield_now();
            if lsn.0 <= self.stable.len() as u64 {
                return Ok(()); // someone's batch carried us while we yielded
            }
        }
        let _flush = self.flush.lock();
        // Snapshot the frames to write under the volatile lock, then
        // release it so appenders are never blocked behind log I/O —
        // that release is what lets a batch accumulate while we write.
        let frames: Vec<(Vec<u8>, Written)> = {
            let mut vol = self.vol.lock();
            let durable = self.stable.len() as u64;
            if lsn.0 <= durable {
                // The previous flush-lock holder's batch covered us: the
                // group-commit free ride (no force of our own).
                return Ok(());
            }
            if lsn.0 >= vol.next_lsn {
                return Err(DmxError::InvalidArg(format!(
                    "cannot force unwritten lsn {lsn}"
                )));
            }
            let end = if to_end { vol.next_lsn - 1 } else { lsn.0 };
            let n = (end - durable) as usize;
            if vol.tail.len() < n {
                return Err(DmxError::Internal(
                    "volatile tail shorter than force target".into(),
                ));
            }
            // What is encoded here is what becomes durable: no operation
            // may join these records any more.
            vol.sealed = vol.sealed.max(end);
            let frame = |rec: &LogRecord| {
                let frame = rec.encode();
                let written = Written::of(rec, frame.len());
                (frame, written)
            };
            vol.tail.iter().take(n).map(frame).collect()
        };
        self.forces.incr();
        let n = frames.len();
        let mut moved = 0usize;
        let mut failed = None;
        for (mut frame, written) in frames {
            match with_io_retries(MAX_IO_RETRIES, || self.stable.append_from(&mut frame)) {
                Ok(()) => {
                    moved += 1;
                    self.bytes.add(&self.obs, &written);
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        // Only durably-appended frames leave the tail; on failure the
        // clean prefix is still counted.
        {
            let mut vol = self.vol.lock();
            for _ in 0..moved {
                vol.tail.pop_front();
            }
        }
        self.frames_forced.add(moved as u64);
        self.force_batch.record(moved as u64);
        if let Some(e) = failed {
            return Err(e);
        }
        self.obs.emit(ObsEvent {
            layer: "wal",
            op: "force",
            target: lsn.0,
            detail: n as u64,
        });
        Ok(())
    }

    /// Forces everything written so far. An explicit device operation,
    /// like [`Self::force_group`].
    pub fn force_all(&self) -> Result<()> {
        held::assert_unlatched("force_all");
        let last = self.last_lsn();
        if last.is_null() {
            return Ok(());
        }
        self.force(last)
    }

    /// Restart's first step: walk the durable frames in order, handing
    /// each record that decodes to `visit` (restart's analysis), and drop
    /// the tail from the first frame that fails to decode — torn, rotted,
    /// or not the frame of its position, whose LSN seeds the checksum —
    /// then resync the LSN counter. Every frame is decoded once here.
    /// Returns the number of frames truncated. Must run before any new
    /// appends; `visit` runs under the log's latch and must not call it.
    pub fn scan_and_truncate_tail(&self, mut visit: impl FnMut(LogRecord)) -> Result<usize> {
        let mut vol = self.vol.lock();
        debug_assert!(
            vol.tail.is_empty(),
            "tail scan must run at restart, before new appends"
        );
        let n = self.stable.len();
        let mut valid = 0usize;
        while valid < n {
            match self.stable.record(Lsn(valid as u64 + 1)) {
                Ok(rec) => {
                    visit(rec);
                    valid += 1;
                }
                Err(DmxError::Corrupt(_)) => break,
                Err(e) => return Err(e),
            }
        }
        let dropped = n - valid;
        if dropped > 0 {
            self.stable.truncate_from(valid);
        }
        vol.next_lsn = valid as u64 + 1;
        vol.sealed = valid as u64;
        Ok(dropped)
    }

    /// Fetches a record by LSN, whether durable or still volatile.
    pub fn record(&self, lsn: Lsn) -> Result<LogRecord> {
        if lsn.is_null() {
            return Err(DmxError::InvalidArg("null lsn".into()));
        }
        // Check the volatile tail first, indexing by its front LSN: while
        // a flush is mid-batch a frame can be in both the stable log and
        // the tail, so indexing the tail relative to `stable.len()` would
        // be off by the not-yet-popped prefix.
        {
            let vol = self.vol.lock();
            if let Some(front) = vol.tail.front() {
                if lsn >= front.lsn {
                    let idx = (lsn.0 - front.lsn.0) as usize;
                    return vol
                        .tail
                        .get(idx)
                        .cloned()
                        .ok_or_else(|| DmxError::NotFound(format!("log record {lsn}")));
                }
            }
        }
        self.stable.record(lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ExtKind, LogBody};
    use dmx_types::{FaultPlan, RelationId, SmTypeId};

    fn ext_op(n: u8) -> LogBody {
        LogBody::ExtOp {
            ext: ExtKind::Storage(SmTypeId(1)),
            relation: RelationId(1),
            op: n,
            payload: vec![n],
        }
    }

    #[test]
    fn lsns_are_dense_and_chained() {
        let log = LogManager::open(StableLog::new());
        let t = TxnId(1);
        let l1 = log.append(t, Lsn::NULL, LogBody::Begin);
        let l2 = log.append(t, l1, ext_op(1));
        let l3 = log.append(t, l2, ext_op(2));
        assert_eq!((l1, l2, l3), (Lsn(1), Lsn(2), Lsn(3)));
        assert_eq!(log.record(l3).unwrap().prev_lsn, l2);
        assert_eq!(log.last_lsn(), Lsn(3));
    }

    #[test]
    fn force_moves_prefix_to_stable() {
        let stable = StableLog::new();
        let log = LogManager::open(stable.clone());
        let t = TxnId(1);
        let l1 = log.append(t, Lsn::NULL, LogBody::Begin);
        let l2 = log.append(t, l1, ext_op(1));
        let l3 = log.append(t, l2, ext_op(2));
        assert_eq!(log.durable_lsn(), Lsn::NULL);
        log.force(l2).unwrap();
        assert_eq!(log.durable_lsn(), l2);
        assert_eq!(stable.len(), 2);
        // records readable from both sides of the watermark
        assert_eq!(log.record(l1).unwrap().body, LogBody::Begin);
        assert_eq!(log.record(l3).unwrap().body, ext_op(2));
        // forcing backwards is a no-op; forcing future lsns errors
        log.force(l1).unwrap();
        assert!(log.force(Lsn(99)).is_err());
        log.force_all().unwrap();
        assert_eq!(log.durable_lsn(), l3);
    }

    #[test]
    fn crash_loses_volatile_tail() {
        let stable = StableLog::new();
        {
            let log = LogManager::open(stable.clone());
            let t = TxnId(1);
            let l1 = log.append(t, Lsn::NULL, LogBody::Begin);
            log.force(l1).unwrap();
            let l2 = log.append(t, l1, ext_op(1));
            let _ = l2; // never forced
        } // crash: LogManager dropped
        assert_eq!(stable.len(), 1);
        let reopened = LogManager::open(stable.clone());
        assert_eq!(reopened.last_lsn(), Lsn(1));
        assert!(reopened.record(Lsn(2)).is_err());
        // new appends continue the sequence after the durable prefix
        let l = reopened.append(TxnId(2), Lsn::NULL, LogBody::Begin);
        assert_eq!(l, Lsn(2));
    }

    #[test]
    fn stable_all_decodes_in_order() {
        let stable = StableLog::new();
        let log = LogManager::open(stable.clone());
        let t = TxnId(3);
        let mut prev = Lsn::NULL;
        for i in 0..5 {
            prev = log.append(t, prev, ext_op(i));
        }
        log.force_all().unwrap();
        let recs = stable.all().unwrap();
        assert_eq!(recs.len(), 5);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.lsn, Lsn(i as u64 + 1));
        }
    }

    #[test]
    fn with_frame_reads_without_clone() {
        let stable = StableLog::new();
        let log = LogManager::open(stable.clone());
        let l1 = log.append(TxnId(1), Lsn::NULL, LogBody::Begin);
        log.force(l1).unwrap();
        let rec = stable.with_frame(0, |f| LogRecord::decode(l1, f)).unwrap();
        assert_eq!(rec.lsn, l1);
        assert!(stable.with_frame(1, |f| LogRecord::decode(l1, f)).is_err());
    }

    /// A frame's LSN is its position: a valid frame appended where
    /// another LSN belongs fails its checksum, and the tail scan drops it
    /// and everything after.
    #[test]
    fn scan_drops_a_valid_frame_at_the_wrong_position() {
        let stable = StableLog::new();
        let log = LogManager::open(stable.clone());
        let mut prev = Lsn::NULL;
        for i in 0..3 {
            prev = log.append(TxnId(1), prev, ext_op(i));
        }
        log.force_all().unwrap();
        let second = stable.with_frame(1, |f| Ok(f.to_vec())).unwrap();
        stable.append_frame(second).unwrap();
        stable
            .append_frame(log.record(Lsn(3)).unwrap().encode())
            .unwrap();
        assert_eq!(stable.len(), 5);
        assert!(matches!(stable.record(Lsn(4)), Err(DmxError::Corrupt(_))));
        let reopened = LogManager::open(stable.clone());
        assert_eq!(reopened.scan_and_truncate_tail(drop).unwrap(), 2);
        assert_eq!(reopened.last_lsn(), Lsn(3));
    }

    fn joined(n: u8) -> ExtOp {
        ExtOp {
            ext: ExtKind::Attachment(dmx_types::AttTypeId(3)),
            relation: RelationId(1),
            op: n,
            payload: vec![n; 3],
        }
    }

    /// An operation joins a record only while no force has taken it: the
    /// forced frame holds what joined before the force, a later operation
    /// is handed back for a record of its own, and a record that holds no
    /// operations is never joined. Frames and operations are counted
    /// apart, and the bytes by writer still sum to the stable log's.
    #[test]
    fn amend_joins_a_record_until_a_force_seals_it() {
        let obs = MetricsRegistry::new();
        let stable = StableLog::new();
        let log = LogManager::open_with_metrics(stable.clone(), obs.clone());
        let t = TxnId(1);
        let l1 = log.append(t, Lsn::NULL, LogBody::Begin);
        assert_eq!(log.amend(l1, joined(9)).unwrap_err(), joined(9));
        let l2 = log.append(t, l1, ext_op(1));
        log.amend(l2, joined(2)).unwrap();
        log.amend(l2, joined(3)).unwrap();
        assert_eq!(log.record(l2).unwrap().body.ext_ops().count(), 3);
        log.force(l2).unwrap();
        assert_eq!(log.amend(l2, joined(4)).unwrap_err(), joined(4));
        let l3 = log.append(t, l2, ext_op(5));
        log.amend(l3, joined(6)).unwrap();
        log.force_all().unwrap();
        assert_eq!(log.amend(l3, joined(7)).unwrap_err(), joined(7));
        assert!(log.amend(Lsn(99), joined(8)).is_err());

        let ops = |r: &LogRecord| r.body.ext_ops().map(|o| o.op).collect::<Vec<_>>();
        let recs = stable.all().unwrap();
        assert_eq!(
            recs.iter().map(ops).collect::<Vec<_>>(),
            [vec![], vec![1, 2, 3], vec![5, 6]]
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counter(name::WAL_APPENDS), 3);
        assert_eq!(snap.counter(name::WAL_EXT_OPS), 5);
        let durable: u64 = (0..stable.len())
            .map(|i| stable.with_frame(i, |f| Ok(f.len() as u64)).unwrap())
            .sum();
        assert_eq!(snap.counter(name::WAL_BYTES), durable);
        let by_writer = snap.counter("wal.bytes.txn")
            + snap.counter("wal.bytes.sm.1")
            + snap.counter("wal.bytes.att.3");
        assert_eq!(by_writer, durable);
        // Six payloads of one byte (the two the records began with) or
        // three (the joined ones): everything else is overhead.
        let payloads = 2 + 3 * 3;
        assert_eq!(
            snap.counter(name::WAL_FRAME_OVERHEAD_BYTES),
            durable - payloads
        );
    }

    /// A force that fails has still sealed what it took — a torn append
    /// may have put part of a frame on the device — so nothing joins
    /// those records; a record appended after them takes operations.
    #[test]
    fn a_failed_force_leaves_its_records_sealed() {
        let inj = FaultInjector::new(FaultPlan::new(5).permanent_at(1));
        let stable = StableLog::with_injector(inj);
        let log = LogManager::open(stable.clone());
        let l1 = log.append(TxnId(1), Lsn::NULL, LogBody::Begin);
        let l2 = log.append(TxnId(1), l1, ext_op(1));
        assert!(log.force(l2).is_err());
        assert_eq!(stable.len(), 1, "the Begin is durable, the operation not");
        assert_eq!(log.amend(l2, joined(2)).unwrap_err(), joined(2));
        let l3 = log.append(TxnId(1), l2, ext_op(3));
        log.amend(l3, joined(4)).unwrap();
        assert_eq!(log.record(l3).unwrap().body.ext_ops().count(), 2);
    }

    #[test]
    fn record_lookup_errors() {
        let log = LogManager::open(StableLog::new());
        assert!(log.record(Lsn::NULL).is_err());
        assert!(log.record(Lsn(1)).is_err());
    }

    #[test]
    fn force_retries_transient_append() {
        // I/O 0 is a transient failure: the first frame append fails once,
        // the force-level retry succeeds, and nothing is lost or doubled.
        let inj = FaultInjector::new(FaultPlan::new(9).transient_at(0));
        let stable = StableLog::with_injector(inj.clone());
        let log = LogManager::open(stable.clone());
        let t = TxnId(1);
        let l1 = log.append(t, Lsn::NULL, LogBody::Begin);
        let l2 = log.append(t, l1, ext_op(1));
        log.force(l2).unwrap();
        assert_eq!(stable.len(), 2);
        assert_eq!(inj.injected(), 1);
        let recs = stable.all().unwrap();
        assert_eq!(recs[0].lsn, l1);
        assert_eq!(recs[1].lsn, l2);
    }

    #[test]
    fn torn_append_leaves_undecodable_tail() {
        let inj = FaultInjector::new(FaultPlan::new(3).torn_at(1));
        let stable = StableLog::with_injector(inj.clone());
        let log = LogManager::open(stable.clone());
        let t = TxnId(1);
        let l1 = log.append(t, Lsn::NULL, LogBody::Begin);
        let l2 = log.append(t, l1, ext_op(1));
        // io 0 appends l1; io 1 tears l2 and crashes
        let err = log.force(l2).unwrap_err();
        assert!(matches!(err, DmxError::Io(_)));
        assert!(inj.is_crashed());
        inj.clear();
        // the tail scan drops at most the torn frame (a tear that kept
        // every byte is a completed write and survives)
        let reopened = LogManager::open(stable.clone());
        let dropped = reopened.scan_and_truncate_tail(drop).unwrap();
        assert!(dropped <= 1, "at most the torn frame is lost");
        let survived = 2 - dropped;
        assert_eq!(stable.len(), survived);
        assert_eq!(reopened.last_lsn(), Lsn(survived as u64));
        // appends continue cleanly after truncation
        let l = reopened.append(TxnId(2), Lsn::NULL, LogBody::Begin);
        assert_eq!(l, Lsn(survived as u64 + 1));
        reopened.force_all().unwrap();
        assert_eq!(stable.len(), survived + 1);
    }

    #[test]
    fn scan_truncates_flipped_tail_record() {
        let inj = FaultInjector::new(FaultPlan::new(4).flip_at(2));
        let stable = StableLog::with_injector(inj);
        let log = LogManager::open(stable.clone());
        let t = TxnId(1);
        let mut prev = Lsn::NULL;
        for i in 0..3 {
            prev = log.append(t, prev, ext_op(i));
        }
        log.force_all().unwrap(); // io 2 (third frame) is flipped
        assert_eq!(stable.len(), 3);
        let reopened = LogManager::open(stable.clone());
        let dropped = reopened.scan_and_truncate_tail(drop).unwrap();
        assert_eq!(dropped, 1, "only the rotted frame is dropped");
        assert_eq!(stable.len(), 2);
        assert_eq!(reopened.last_lsn(), Lsn(2));
    }

    #[test]
    fn scan_on_clean_log_drops_nothing() {
        let stable = StableLog::new();
        let log = LogManager::open(stable.clone());
        let mut prev = Lsn::NULL;
        for i in 0..4 {
            prev = log.append(TxnId(1), prev, ext_op(i));
        }
        log.force_all().unwrap();
        let reopened = LogManager::open(stable.clone());
        assert_eq!(reopened.scan_and_truncate_tail(drop).unwrap(), 0);
        assert_eq!(stable.len(), 4);
    }
}
