//! Std-only observability: named metrics and a lightweight event sink.
//!
//! The extension architecture funnels every storage method and attachment
//! through generic operation interfaces, which makes those call sites the
//! natural measurement points for the whole system. This module supplies
//! the two primitives the rest of the workspace instruments itself with:
//!
//! * a [`MetricsRegistry`] of named atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s, snapshotable in deterministic (sorted)
//!   order, and
//! * an [`ObsSink`] trace hook fired with [`ObsEvent`]s at operation
//!   boundaries, with a bounded [`RingSink`] as the default consumer.
//!
//! **Determinism rule:** nothing here reads a clock. Metrics count events
//! (I/Os, retries, evictions, lock waits, WAL forces, frames appended,
//! records scanned), never durations, so that two runs of a seeded
//! workload produce identical snapshots. Wall-clock timing belongs only
//! to the bench binary, which wraps whole scenarios in monotonic timers
//! outside the measured system. `clippy.toml` enforces this by
//! denying `Instant`/`SystemTime` (`disallowed-types`) in runtime crates.
//!
//! Hot paths never touch the registry maps: components resolve their
//! `Arc<Counter>` handles once at construction and then pay a single
//! relaxed atomic add per event. Event emission through the sink is
//! gated by one relaxed `AtomicBool` load, so an uninstalled sink costs
//! essentially nothing.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::{Mutex, RwLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A new counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed level that moves both ways (e.g. the number of dirty frames).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A new gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn decr(&self) {
        self.add(-1);
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of event *sizes* (rows per scan, frames per
/// force), never durations. `bounds` are inclusive upper edges; values
/// above the last bound land in an implicit overflow bucket.
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        let mut b: Vec<u64> = bounds.to_vec();
        b.sort_unstable();
        b.dedup();
        let buckets = (0..=b.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: b,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation of size `v`.
    pub fn record(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed sizes.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Bucket upper bounds (sorted; the overflow bucket has no bound).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts, one more entry than `bounds()` (overflow last).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// One traced operation-boundary event. Kept `Copy` and allocation-free
/// so emission is cheap; `target`/`detail` carry op-specific identifiers
/// (a relation id, a page number, a row count) as plain integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsEvent {
    /// Which subsystem fired the event ("pool", "wal", "lock", "dml", ...).
    pub layer: &'static str,
    /// The operation at whose boundary the event fired ("fetch", "force", ...).
    pub op: &'static str,
    /// Primary subject of the event (page number, relation id, txn id...).
    pub target: u64,
    /// Secondary payload (frame count, row count, veto code...).
    pub detail: u64,
}

/// Consumer of [`ObsEvent`]s. Implementations must be cheap and must not
/// call back into the database (events fire while internal locks are held).
pub trait ObsSink: Send + Sync {
    /// Receives one event.
    fn record(&self, event: ObsEvent);
}

/// Default [`ObsSink`]: a bounded ring that keeps the most recent events.
///
/// The ring numbers every event it has ever seen, so consumers can tell
/// when eviction dropped telemetry: the first sequence number of a drain
/// being greater than the last previously-seen sequence (or than zero)
/// means the ring truncated. [`RingSink::evicted`] exposes the total
/// number of dropped events directly.
pub struct RingSink {
    cap: usize,
    buf: Mutex<VecDeque<ObsEvent>>,
    /// Events ever recorded (monotonic; next event gets this sequence).
    total: AtomicU64,
    /// Events dropped from the front because the ring was full.
    evicted: AtomicU64,
}

impl RingSink {
    /// A ring keeping at most `cap` events (oldest evicted first).
    pub fn new(cap: usize) -> Arc<Self> {
        Arc::new(RingSink {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::new()),
            total: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        })
    }

    /// Drains and returns the buffered events, oldest first.
    pub fn drain(&self) -> Vec<ObsEvent> {
        self.buf.lock().drain(..).collect()
    }

    /// Drains the buffered events paired with their global sequence
    /// numbers (0-based over the ring's whole lifetime), oldest first.
    /// A first sequence greater than the previous drain's end reveals
    /// that eviction dropped events in between.
    pub fn drain_numbered(&self) -> Vec<(u64, ObsEvent)> {
        let mut buf = self.buf.lock();
        let total = self.total.load(Ordering::Relaxed);
        let first = total - buf.len() as u64;
        buf.drain(..)
            .enumerate()
            .map(|(i, e)| (first + i as u64, e))
            .collect()
    }

    /// A non-draining copy of the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        self.buf.lock().iter().copied().collect()
    }

    /// Total events dropped because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }
}

impl ObsSink for RingSink {
    fn record(&self, event: ObsEvent) {
        let mut buf = self.buf.lock();
        if buf.len() == self.cap {
            buf.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event);
        self.total.fetch_add(1, Ordering::Relaxed);
    }
}

/// Registry of named metrics plus the optional event sink.
///
/// Registration is idempotent: `counter(name)` returns the same handle
/// for the same name, so independent components may share a metric.
/// Maps are `BTreeMap`s so snapshots list metrics in a deterministic
/// (lexicographic) order regardless of registration order.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    sink_installed: AtomicBool,
    sink: RwLock<Option<Arc<dyn ObsSink>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsRegistry::default())
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_string(), c.clone());
        c
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock();
        if let Some(g) = map.get(name) {
            return g.clone();
        }
        let g = Arc::new(Gauge::new());
        map.insert(name.to_string(), g.clone());
        g
    }

    /// Returns (registering on first use) the histogram named `name` with
    /// the given inclusive bucket upper bounds. Bounds are fixed by the
    /// first registration; later callers receive the existing handle.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::new(bounds));
        map.insert(name.to_string(), h.clone());
        h
    }

    /// Installs (or replaces) the event sink.
    pub fn set_sink(&self, sink: Arc<dyn ObsSink>) {
        *self.sink.write() = Some(sink);
        self.sink_installed.store(true, Ordering::Release);
    }

    /// Removes the event sink.
    pub fn clear_sink(&self) {
        self.sink_installed.store(false, Ordering::Release);
        *self.sink.write() = None;
    }

    /// Emits one event to the sink, if installed. One relaxed atomic load
    /// when no sink is present.
    #[inline]
    pub fn emit(&self, event: ObsEvent) {
        if !self.sink_installed.load(Ordering::Relaxed) {
            return;
        }
        if let Some(sink) = self.sink.read().as_ref() {
            sink.record(event);
        }
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        bounds: v.bounds().to_vec(),
                        buckets: v.bucket_counts(),
                        count: v.count(),
                        sum: v.sum(),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Frozen histogram state inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one more entry than `bounds` (overflow last).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed sizes.
    pub sum: u64,
}

/// Point-in-time metric values, sorted by name. `PartialEq` so tests can
/// assert two seeded runs produced identical observability state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, lexicographic by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every gauge, lexicographic by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, state)` for every histogram, lexicographic by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter named `name`, or 0 when unregistered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Level of the gauge named `name`, or 0 when unregistered.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Number of distinct named metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// True when no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the snapshot as a JSON object (hand-rolled: the workspace
    /// is std-only). Metric names are escaped as JSON strings, so a
    /// future dynamic name (e.g. per-relation, user-influenced) cannot
    /// produce invalid output.
    pub fn to_json(&self) -> String {
        fn clean(name: &str, out: &mut String) {
            out.push('"');
            for c in name.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let mut s = String::new();
        s.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            clean(name, &mut s);
            let _ = write!(s, ":{v}");
        }
        s.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            clean(name, &mut s);
            let _ = write!(s, ":{v}");
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            clean(name, &mut s);
            let _ = write!(s, ":{{\"count\":{},\"sum\":{},\"bounds\":[", h.count, h.sum);
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{b}");
            }
            s.push_str("],\"buckets\":[");
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{b}");
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }
}

/// The workspace metric-name catalog. Components register under these
/// names so snapshots are comparable across runs and documented in one
/// place (DESIGN.md §10 mirrors this list).
pub mod name {
    /// Buffer-pool page fetches served from a resident frame.
    pub const POOL_HITS: &str = "pool.hits";
    /// Buffer-pool page fetches that had to read from disk.
    pub const POOL_MISSES: &str = "pool.misses";
    /// Frames evicted to make room.
    pub const POOL_EVICTIONS: &str = "pool.evictions";
    /// Dirty frames written back to disk.
    pub const POOL_FLUSHES: &str = "pool.flushes";
    /// Page pin attempts that found the frame latch contended.
    pub const POOL_PIN_WAITS: &str = "pool.pin_waits";
    /// Current number of dirty frames (gauge, maintained incrementally).
    pub const POOL_DIRTY: &str = "pool.dirty";
    /// Dirty frames written back by steal eviction (uncommitted data flushed
    /// after forcing the WAL up to the page's LSN).
    pub const POOL_STEALS: &str = "pool.steals";

    /// Log records appended to the volatile tail.
    pub const WAL_APPENDS: &str = "wal.appends";
    /// Extension operations logged: each either appended a record of its
    /// own or joined the open record of its relation modification, so
    /// this over [`WAL_APPENDS`] is the operations a frame carries.
    pub const WAL_EXT_OPS: &str = "wal.ext_ops";
    /// Force (flush-to-stable) calls that had work to do.
    pub const WAL_FORCES: &str = "wal.forces";
    /// Frames moved from the volatile tail to stable storage.
    pub const WAL_FRAMES_FORCED: &str = "wal.frames_forced";
    /// Bytes of the frames moved to stable storage. By writer under
    /// `wal.bytes.sm.<type id>` and `wal.bytes.att.<type id>` (an
    /// extension's records) and `wal.bytes.txn` (every other record),
    /// which sum to it.
    pub const WAL_BYTES: &str = "wal.bytes";
    /// The part of [`WAL_BYTES`] outside the frames' payloads: each
    /// frame's header and checksum, and each joined operation's header.
    pub const WAL_FRAME_OVERHEAD_BYTES: &str = "wal.frame_overhead_bytes";
    /// Histogram: frames moved per force call.
    pub const WAL_FORCE_BATCH: &str = "wal.force_batch";

    /// Lock requests granted (immediately or after waiting).
    pub const LOCK_ACQUIRES: &str = "lock.acquires";
    /// Lock requests that had to enqueue behind a conflict.
    pub const LOCK_WAITS: &str = "lock.waits";
    /// Deadlocks detected (victim aborted).
    pub const LOCK_DEADLOCKS: &str = "lock.deadlocks";
    /// Lock waits abandoned on timeout.
    pub const LOCK_TIMEOUTS: &str = "lock.timeouts";

    /// Transactions begun.
    pub const TXN_BEGINS: &str = "txn.begins";
    /// Transactions committed.
    pub const TXN_COMMITS: &str = "txn.commits";
    /// Transactions rolled back.
    pub const TXN_ABORTS: &str = "txn.aborts";

    /// Generic-operation record inserts.
    pub const DML_INSERTS: &str = "dml.inserts";
    /// Generic-operation record updates.
    pub const DML_UPDATES: &str = "dml.updates";
    /// Generic-operation record deletes.
    pub const DML_DELETES: &str = "dml.deletes";
    /// Generic-operation point fetches.
    pub const DML_FETCHES: &str = "dml.fetches";

    /// Relation scans opened.
    pub const SCAN_OPENS: &str = "scan.opens";
    /// Records produced by scans (post-predicate).
    pub const SCAN_ROWS: &str = "scan.rows";
    /// Histogram: records produced per scan.
    pub const SCAN_ROWS_PER_SCAN: &str = "scan.rows_per_scan";
    /// Snapshot scans whose end-of-stream delta sweep surfaced records a
    /// concurrent writer had deleted or moved (those records are emitted
    /// after the regular stream, so key order was best-effort).
    pub const SCAN_DELTA_SWEEPS: &str = "scan.delta_sweeps";

    /// Attachment side-effect invocations (index maintenance, checks...).
    pub const ATT_INVOCATIONS: &str = "att.invocations";
    /// Attachment vetoes (constraint rejections) observed.
    pub const ATT_VETOES: &str = "att.vetoes";
    /// Attachment access-path probes (scans opened through an attachment).
    pub const ATT_PROBES: &str = "att.probes";
    /// Records offered to the builds of new attachment instances
    /// (`CREATE INDEX`, a first `ANALYZE`, a repair's rebuild): what a
    /// build installs beside [`WAL_APPENDS`] that does not move.
    pub const ATT_BUILD_ROWS: &str = "att.build_rows";

    /// Relations quarantined after unrecoverable corruption.
    pub const QUARANTINE_EVENTS: &str = "quarantine.events";
    /// Quarantines lifted (manually or by the repair pipeline).
    pub const QUARANTINE_CLEARED: &str = "quarantine.cleared";
    /// Incident reports evicted from the bounded incident ring.
    pub const INCIDENTS_EVICTED: &str = "incidents.evicted";

    /// Scrub passes completed (one per `scrub_relation` call).
    pub const SCRUB_RUNS: &str = "scrub.runs";
    /// Pages checksum-verified by the scrubber.
    pub const SCRUB_PAGES: &str = "scrub.pages";
    /// Corruption findings (bad page or base↔attachment disagreement).
    pub const SCRUB_CORRUPT: &str = "scrub.corrupt";

    /// Repair attempts started (including retries).
    pub const REPAIR_ATTEMPTS: &str = "repair.attempts";
    /// Attachments rebuilt from their base relation.
    pub const REPAIR_REBUILDS: &str = "repair.rebuilds";
    /// Base relations salvaged (readable records recovered).
    pub const REPAIR_SALVAGES: &str = "repair.salvages";
    /// Records lost to salvage (unreadable at repair time).
    pub const REPAIR_RECORDS_LOST: &str = "repair.records_lost";
    /// Repairs that ended in the terminal (permanently damaged) state.
    pub const REPAIR_FAILURES: &str = "repair.failures";

    /// SQL statements executed through a session.
    pub const SQL_STATEMENTS: &str = "sql.statements";
    /// Plan-cache lookups served from cache.
    pub const PLAN_CACHE_HITS: &str = "plan.cache_hits";
    /// Plan-cache lookups that compiled a fresh plan.
    pub const PLAN_CACHE_MISSES: &str = "plan.cache_misses";
    /// Histogram: |estimated - actual| row-count error per analyzed
    /// access node (recorded by EXPLAIN ANALYZE).
    pub const PLANNER_MISESTIMATE: &str = "planner.misestimate";

    /// I/O attempts retried after a transient fault or checksum failure.
    pub const IO_RETRIES: &str = "io.retries";

    /// Scans dispatched in lock-free snapshot-visibility mode.
    pub const MVCC_SNAPSHOT_SCANS: &str = "mvcc.snapshot_scans";
    /// Scan/fetch reads that consulted a version chain (a writer was or
    /// had recently been in flight on the record).
    pub const MVCC_VERSION_READS: &str = "mvcc.version_reads";
    /// Uncommitted after-images stamped into the version store by DML.
    pub const MVCC_VERSIONS_RECORDED: &str = "mvcc.versions_recorded";
    /// Version chains reclaimed by the low-water garbage collector.
    pub const MVCC_GC_RECLAIMED: &str = "mvcc.gc_reclaimed";
}

/// Standard bucket bounds for "rows/frames per operation" histograms.
pub const SIZE_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("pool.hits");
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Idempotent registration: same handle under the same name.
        assert_eq!(reg.counter("pool.hits").get(), 5);

        let g = reg.gauge("pool.dirty");
        g.incr();
        g.incr();
        g.decr();
        assert_eq!(g.get(), 1);
        g.add(-3);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("scan.rows_per_scan", &[1, 10, 100]);
        h.record(0);
        h.record(1); // <=1
        h.record(5); // <=10
        h.record(10); // <=10
        h.record(1000); // overflow
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1016);
        assert_eq!(h.bucket_counts(), vec![2, 2, 0, 1]);
    }

    #[test]
    fn snapshot_is_sorted_and_comparable() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        // Register in different orders; snapshots must still agree.
        a.counter("z.last").add(2);
        a.counter("a.first").add(1);
        b.counter("a.first").add(1);
        b.counter("z.last").add(2);
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert_eq!(sa, sb);
        assert_eq!(sa.counters[0].0, "a.first");
        assert_eq!(sa.counter("z.last"), 2);
        assert_eq!(sa.counter("missing"), 0);
    }

    #[test]
    fn ring_sink_bounds_and_drains() {
        let reg = MetricsRegistry::new();
        // No sink installed: emit is a no-op.
        reg.emit(ObsEvent {
            layer: "pool",
            op: "fetch",
            target: 1,
            detail: 0,
        });
        let sink = RingSink::new(2);
        reg.set_sink(sink.clone());
        for i in 0..5 {
            reg.emit(ObsEvent {
                layer: "wal",
                op: "append",
                target: i,
                detail: 0,
            });
        }
        let events = sink.drain();
        assert_eq!(events.len(), 2, "ring keeps only the newest cap events");
        assert_eq!(events[0].target, 3);
        assert_eq!(events[1].target, 4);
        reg.clear_sink();
        reg.emit(ObsEvent {
            layer: "wal",
            op: "append",
            target: 9,
            detail: 0,
        });
        assert!(sink.is_empty());
    }

    #[test]
    fn ring_sink_counts_evictions_and_numbers_events() {
        let sink = RingSink::new(2);
        assert_eq!(sink.evicted(), 0);
        for i in 0..5 {
            sink.record(ObsEvent {
                layer: "wal",
                op: "append",
                target: i,
                detail: 0,
            });
        }
        assert_eq!(sink.evicted(), 3, "5 events through a cap-2 ring drop 3");
        assert_eq!(sink.total_recorded(), 5);
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 2, "snapshot does not drain");
        assert_eq!(sink.len(), 2);
        let numbered = sink.drain_numbered();
        assert_eq!(numbered.len(), 2);
        // Sequences 0..=2 were evicted; the survivors keep their global ids.
        assert_eq!(numbered[0].0, 3);
        assert_eq!(numbered[0].1.target, 3);
        assert_eq!(numbered[1].0, 4);
        assert!(sink.is_empty());
    }

    #[test]
    fn json_escapes_hostile_names() {
        let reg = MetricsRegistry::new();
        reg.counter("evil\"name\\with\ncontrol").add(7);
        let json = reg.snapshot().to_json();
        assert!(
            json.contains("\"evil\\\"name\\\\with\\u000acontrol\":7"),
            "{json}"
        );
    }

    #[test]
    fn json_rendering() {
        let reg = MetricsRegistry::new();
        reg.counter("wal.appends").add(3);
        reg.gauge("pool.dirty").set(2);
        reg.histogram("wal.force_batch", &[1, 8]).record(4);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"wal.appends\":3"), "{json}");
        assert!(json.contains("\"pool.dirty\":2"), "{json}");
        assert!(
            json.contains(
                "\"wal.force_batch\":{\"count\":1,\"sum\":4,\"bounds\":[1,8],\"buckets\":[0,1,0]}"
            ),
            "{json}"
        );
    }
}
