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

use crate::record::{ExtKind, LogBody, LogRecord};

/// The durable prefix of the log. Records are stored encoded, proving the
/// wire format round-trips; a simulated crash keeps this object and drops
/// the [`LogManager`].
#[derive(Default)]
pub struct StableLog {
    frames: Mutex<Vec<Vec<u8>>>,
    injector: Mutex<Option<Arc<FaultInjector>>>,
}

impl StableLog {
    /// An empty stable log with no fault injection.
    pub fn new() -> Arc<Self> {
        Arc::new(StableLog::default())
    }

    /// An empty stable log whose every frame I/O consults `injector`.
    /// Share the injector with the fault-wrapped disk so both draw from
    /// one global I/O sequence.
    pub fn with_injector(injector: Arc<FaultInjector>) -> Arc<Self> {
        let log = StableLog::default();
        *log.injector.lock() = Some(injector);
        Arc::new(log)
    }

    /// Installs or removes the fault injector. The crash-sweep harness
    /// uses this at "reopen": the same surviving `StableLog` gets a fresh
    /// (or no) injector for the recovery run.
    pub fn set_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.injector.lock() = injector;
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

    /// Counts a durable frame of `n` bytes, `overhead` of them outside
    /// its payload, that `writer` wrote (`None` = a transaction-control
    /// record).
    fn add(&self, obs: &MetricsRegistry, writer: Option<ExtKind>, n: u64, overhead: u64) {
        self.all.add(n);
        self.overhead.add(overhead);
        let (cells, kind, id) = match writer {
            None => return self.txn.add(n),
            Some(ExtKind::Storage(id)) => (&self.sm, "sm", id.0),
            Some(ExtKind::Attachment(id)) => (&self.att, "att", id.0),
        };
        cells[usize::from(id)]
            .get_or_init(|| obs.counter(&format!("{}.{kind}.{id}", name::WAL_BYTES)))
            .add(n);
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
        let next_lsn = stable.len() as u64 + 1;
        let appends = obs.counter(name::WAL_APPENDS);
        let forces = obs.counter(name::WAL_FORCES);
        let frames_forced = obs.counter(name::WAL_FRAMES_FORCED);
        let force_batch = obs.histogram(name::WAL_FORCE_BATCH, SIZE_BUCKETS);
        let bytes = BytesByWriter::new(&obs);
        LogManager {
            stable,
            vol: Mutex::new(Volatile {
                tail: VecDeque::new(),
                next_lsn,
            }),
            flush: Mutex::new(()),
            obs,
            appends,
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
        lsn
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
        let frames: Vec<(Vec<u8>, Option<ExtKind>, u64)> = {
            let vol = self.vol.lock();
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
            let frame = |rec: &LogRecord| {
                let (writer, payload) = match &rec.body {
                    LogBody::ExtOp { ext, payload, .. } => (Some(*ext), payload.len()),
                    LogBody::DeferredIntent { payload } => (None, payload.len()),
                    _ => (None, 0),
                };
                let frame = rec.encode();
                let overhead = (frame.len() - payload) as u64;
                (frame, writer, overhead)
            };
            vol.tail.iter().take(n).map(frame).collect()
        };
        self.forces.incr();
        let n = frames.len();
        let mut moved = 0usize;
        let mut failed = None;
        for (mut frame, writer, overhead) in frames {
            let len = frame.len() as u64;
            match with_io_retries(MAX_IO_RETRIES, || self.stable.append_from(&mut frame)) {
                Ok(()) => {
                    moved += 1;
                    self.bytes.add(&self.obs, writer, len, overhead);
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

    /// Restart's first step: walk the durable frames in order and drop the
    /// tail from the first frame that fails to decode — torn, rotted, or
    /// not the frame of its position, whose LSN seeds the checksum — then
    /// resync the LSN counter.
    /// Returns the number of frames truncated. Must run before analysis
    /// and before any new appends.
    pub fn scan_and_truncate_tail(&self) -> Result<usize> {
        let mut vol = self.vol.lock();
        debug_assert!(
            vol.tail.is_empty(),
            "tail scan must run at restart, before new appends"
        );
        let n = self.stable.len();
        let mut valid = 0usize;
        while valid < n {
            match self.stable.record(Lsn(valid as u64 + 1)) {
                Ok(_) => valid += 1,
                Err(DmxError::Corrupt(_)) => break,
                Err(e) => return Err(e),
            }
        }
        let dropped = n - valid;
        if dropped > 0 {
            self.stable.truncate_from(valid);
        }
        vol.next_lsn = valid as u64 + 1;
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
        assert_eq!(reopened.scan_and_truncate_tail().unwrap(), 2);
        assert_eq!(reopened.last_lsn(), Lsn(3));
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
        let dropped = reopened.scan_and_truncate_tail().unwrap();
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
        let dropped = reopened.scan_and_truncate_tail().unwrap();
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
        assert_eq!(reopened.scan_and_truncate_tail().unwrap(), 0);
        assert_eq!(stable.len(), 4);
    }
}
