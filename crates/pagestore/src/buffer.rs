//! The buffer pool.
//!
//! Policy (documented in DESIGN.md §6): **steal / no-force**. Commit
//! forces only the log; dirty data pages stay in the pool and reach disk
//! lazily — through checkpoints ([`BufferPool::flush_all`]), targeted
//! flushes ([`BufferPool::flush_file`]), or *steal* eviction. When every
//! frame is dirty, the clock sweep's final pass may write back an
//! unpinned dirty frame whose page type was registered via
//! [`BufferPool::set_stealable_types`] (storage methods opt in; complex
//! multi-page structures stay no-steal and report
//! [`DmxError::BufferFull`] instead). Before any page is written — by
//! flush or by steal — the installed [`WalHook`] is asked to force the
//! log up to that page's LSN: the write-ahead rule, which is what makes
//! stealing uncommitted data safe (restart can always undo it from the
//! durable log).
//!
//! Multi-page operations and flushes are serialized by an *operation
//! gate*: every relation modification holds the gate in read mode for its
//! duration, while `flush_all` takes it in write mode, so a flush never
//! observes a half-done multi-page structural change (e.g. a B-tree split).

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use dmx_types::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use dmx_types::fault::{backoff, with_io_retries, MAX_IO_RETRIES};
use dmx_types::held::{self, Latched};
use dmx_types::obs::{name, Counter, Gauge, MetricsRegistry, ObsEvent};
use dmx_types::{Appended, DmxError, FileId, Lsn, PageId, Result};

use crate::disk::DiskManager;
use crate::page::Page;

/// Installed by the recovery component so the pool can enforce
/// write-ahead logging.
pub trait WalHook: Send + Sync {
    /// Make the log durable up to at least `lsn`.
    fn force(&self, lsn: Lsn) -> Result<()>;
}

struct Frame {
    page: RwLock<Page>,
    pin_count: AtomicU32,
    dirty: AtomicBool,
    ref_bit: AtomicBool,
}

impl Frame {
    fn new() -> Self {
        Frame {
            page: RwLock::new(Page::new()),
            pin_count: AtomicU32::new(0),
            dirty: AtomicBool::new(false),
            ref_bit: AtomicBool::new(false),
        }
    }
}

#[derive(Default)]
struct MapState {
    /// page id -> frame index
    table: HashMap<PageId, usize>,
    /// frame index -> page id (inverse mapping for eviction)
    resident: Vec<Option<PageId>>,
    clock_hand: usize,
}

/// Buffer pool statistics: handles into the pool's [`MetricsRegistry`],
/// resolved once at construction so the hot paths pay a single relaxed
/// atomic add per event.
#[derive(Debug)]
pub struct PoolStats {
    /// Fetches served from a resident frame.
    pub hits: Arc<Counter>,
    /// Fetches that had to read from disk.
    pub misses: Arc<Counter>,
    /// Frames evicted to make room.
    pub evictions: Arc<Counter>,
    /// Dirty frames written back to disk.
    pub flushes: Arc<Counter>,
    /// Dirty frames written back by steal eviction (a subset of
    /// `flushes`): uncommitted data pushed to disk under memory pressure
    /// after forcing the WAL up to the page's LSN.
    pub steals: Arc<Counter>,
    /// Page pin attempts that found the frame latch contended.
    pub pin_waits: Arc<Counter>,
    /// Page reads retried after a transient fault or checksum failure.
    pub retries: Arc<Counter>,
    /// Current number of dirty frames, maintained incrementally on every
    /// clean<->dirty transition (no frame walk).
    pub dirty: Arc<Gauge>,
}

impl PoolStats {
    fn new(reg: &MetricsRegistry) -> Self {
        PoolStats {
            hits: reg.counter(name::POOL_HITS),
            misses: reg.counter(name::POOL_MISSES),
            evictions: reg.counter(name::POOL_EVICTIONS),
            flushes: reg.counter(name::POOL_FLUSHES),
            steals: reg.counter(name::POOL_STEALS),
            pin_waits: reg.counter(name::POOL_PIN_WAITS),
            retries: reg.counter(name::IO_RETRIES),
            dirty: reg.gauge(name::POOL_DIRTY),
        }
    }
}

/// A fixed-size pool of page frames over a [`DiskManager`].
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    frames: Vec<Frame>,
    map: Mutex<MapState>,
    wal: RwLock<Option<Arc<dyn WalHook>>>,
    /// Page types whose frames may be *stolen*: written back (after a WAL
    /// force to the page's LSN) and evicted while dirty. Installed at
    /// database open from the storage-method registry; empty by default,
    /// which degrades to the historical no-steal policy.
    stealable: RwLock<Vec<u8>>,
    /// Serialises [`BufferPool::flush_all`] and [`BufferPool::flush_file`]:
    /// one flush collects and writes its dirty frames at a time.
    op_gate: Mutex<()>,
    obs: Arc<MetricsRegistry>,
    stats: PoolStats,
}

impl BufferPool {
    /// Creates a pool with `capacity` frames and a private metrics
    /// registry (used by component-level tests; the database wires a
    /// shared registry through [`BufferPool::with_metrics`]).
    pub fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Arc<Self> {
        Self::with_metrics(disk, capacity, MetricsRegistry::new())
    }

    /// Creates a pool with `capacity` frames registering its metrics in
    /// `obs`.
    pub fn with_metrics(
        disk: Arc<dyn DiskManager>,
        capacity: usize,
        obs: Arc<MetricsRegistry>,
    ) -> Arc<Self> {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let stats = PoolStats::new(&obs);
        Arc::new(BufferPool {
            disk,
            frames: (0..capacity).map(|_| Frame::new()).collect(),
            map: Mutex::new(MapState {
                table: HashMap::with_capacity(capacity),
                resident: vec![None; capacity],
                clock_hand: 0,
            }),
            wal: RwLock::new(None),
            stealable: RwLock::new(Vec::new()),
            op_gate: Mutex::new(()),
            obs,
            stats,
        })
    }

    /// Installs the write-ahead-log hook (done once at database open).
    pub fn set_wal_hook(&self, hook: Arc<dyn WalHook>) {
        *self.wal.write() = Some(hook);
    }

    /// Declares which page types may be steal-evicted while dirty (done
    /// once at database open, from the union of every registered storage
    /// method's `stealable_page_types()`). Pages of any other type keep
    /// the no-steal behavior: eviction skips them and a pool full of
    /// dirty non-stealable pages reports [`DmxError::BufferFull`].
    pub fn set_stealable_types(&self, types: &[u8]) {
        let mut v = types.to_vec();
        v.sort_unstable();
        v.dedup();
        *self.stealable.write() = v;
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Pool statistics.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Fetches a page, reading it from disk on a miss.
    pub fn fetch(self: &Arc<Self>, pid: PageId) -> Result<PinnedPage> {
        let mut map = self.map.lock();
        if let Some(&idx) = map.table.get(&pid) {
            self.frames[idx].pin_count.fetch_add(1, Ordering::AcqRel);
            self.frames[idx].ref_bit.store(true, Ordering::Relaxed);
            self.stats.hits.incr();
            return Ok(PinnedPage {
                pool: Arc::clone(self),
                frame: idx,
                pid,
            });
        }
        self.stats.misses.incr();
        self.obs.emit(ObsEvent {
            layer: "pool",
            op: "miss",
            target: pid.page_no as u64,
            detail: pid.file.0 as u64,
        });
        let idx = self.claim_victim(&mut map, pid)?;
        // Pin and lock the frame before releasing the map so no other
        // thread can observe the frame before its contents are loaded.
        let frame = &self.frames[idx];
        frame.pin_count.store(1, Ordering::Release);
        frame.ref_bit.store(true, Ordering::Relaxed);
        let mut guard = frame.page.write();
        drop(map);
        if let Err(e) = self.read_verified(pid, &mut guard) {
            // Undo the reservation.
            drop(guard);
            let mut map = self.map.lock();
            map.table.remove(&pid);
            map.resident[idx] = None;
            frame.pin_count.store(0, Ordering::Release);
            return Err(e);
        }
        drop(guard);
        Ok(PinnedPage {
            pool: Arc::clone(self),
            frame: idx,
            pid,
        })
    }

    /// Allocates a fresh page in `file` and pins it, zeroed and dirty.
    pub fn new_page(self: &Arc<Self>, file: FileId) -> Result<FreshPage> {
        // Allocate under the map lock: once the disk reports the page, a
        // concurrent `fetch` of it must find this frame, not miss and
        // load a second copy of the page into another one.
        let mut map = self.map.lock();
        let pid = self.disk.allocate_page(file)?;
        let idx = self.claim_victim(&mut map, pid)?;
        let frame = &self.frames[idx];
        frame.pin_count.store(1, Ordering::Release);
        frame.ref_bit.store(true, Ordering::Relaxed);
        if !frame.dirty.swap(true, Ordering::AcqRel) {
            self.stats.dirty.incr();
        }
        let mut guard = frame.page.write();
        drop(map);
        *guard = Page::new();
        drop(guard);
        Ok(FreshPage(PinnedPage {
            pool: Arc::clone(self),
            frame: idx,
            pid,
        }))
    }

    /// Reads `pid` from disk with checksum verification and a bounded
    /// deterministic retry: transient I/O errors *and* checksum failures
    /// are retried (the corruption may be in the transfer rather than the
    /// media); a checksum that still fails after the retry budget is
    /// promoted to [`DmxError::Corrupt`], which the database layer turns
    /// into relation quarantine.
    fn read_verified(&self, pid: PageId, out: &mut Page) -> Result<()> {
        let mut attempt = 0;
        loop {
            let res = self.disk.read_page(pid, out).and_then(|()| {
                if out.verify_crc(pid) {
                    Ok(())
                } else {
                    Err(DmxError::Corrupt(format!("page {pid} failed checksum")))
                }
            });
            match res {
                Err(e) if attempt < MAX_IO_RETRIES => {
                    let retryable = e.is_transient_io() || matches!(e, DmxError::Corrupt(_));
                    if !retryable {
                        return Err(e);
                    }
                    attempt += 1;
                    self.stats.retries.incr();
                    backoff(attempt)?;
                }
                Err(DmxError::IoTransient(m)) => {
                    return Err(DmxError::Io(format!(
                        "transient i/o did not clear after {attempt} retries: {m}"
                    )))
                }
                other => return other,
            }
        }
    }

    /// Picks a free or evictable frame and installs `pid` in the mapping.
    /// Caller must hold the map lock.
    fn claim_victim(&self, map: &mut MapState, pid: PageId) -> Result<usize> {
        let n = self.frames.len();
        let mut chosen = None;
        // Clock sweep with a reference bit; two full passes preferring
        // clean frames, plus one pass ignoring ref bits in which dirty
        // frames of a stealable page type may be written back and stolen.
        for round in 0..3 * n {
            let idx = (map.clock_hand + round) % n;
            let f = &self.frames[idx];
            if f.pin_count.load(Ordering::Acquire) != 0 {
                continue;
            }
            if f.dirty.load(Ordering::Acquire) {
                // Dirty frames are never discarded. On the final pass a
                // frame whose page type opted into stealing is written
                // back (WAL forced first) and then evicted clean; all
                // other dirty frames stay resident.
                if round < 2 * n {
                    continue;
                }
                let Some(victim) = map.resident[idx] else {
                    continue;
                };
                let page_type = f.page.read().page_type();
                if !self.stealable.read().contains(&page_type) {
                    continue;
                }
                // Safe to write with the map lock held: the frame is
                // unpinned and gaining a new pin requires the map lock,
                // so no mutator can touch the page mid-write.
                self.steal_write(idx, victim)?;
            }
            if round < 2 * n && f.ref_bit.swap(false, Ordering::Relaxed) {
                continue;
            }
            chosen = Some(idx);
            map.clock_hand = (idx + 1) % n;
            break;
        }
        let idx = chosen.ok_or(DmxError::BufferFull)?;
        if let Some(old) = map.resident[idx].take() {
            map.table.remove(&old);
            self.stats.evictions.incr();
            self.obs.emit(ObsEvent {
                layer: "pool",
                op: "evict",
                target: old.page_no as u64,
                detail: old.file.0 as u64,
            });
        }
        map.table.insert(pid, idx);
        map.resident[idx] = Some(pid);
        Ok(idx)
    }

    /// Writes one dirty frame back to disk so it can be stolen: force the
    /// WAL up to the page's LSN (the write-ahead rule — the log must be
    /// able to undo this possibly-uncommitted image), stamp the checksum,
    /// write, and mark the frame clean. Runs *before* the mapping is
    /// removed so an I/O error leaves the pool consistent.
    fn steal_write(&self, idx: usize, pid: PageId) -> Result<()> {
        let frame = &self.frames[idx];
        let mut guard = frame.page.write();
        let lsn = guard.lsn();
        if !lsn.is_null() {
            if let Some(wal) = self.wal.read().clone() {
                wal.force(lsn)?;
            }
        }
        guard.stamp_crc(pid);
        with_io_retries(MAX_IO_RETRIES, || self.disk.write_page(pid, &guard))?;
        if frame.dirty.swap(false, Ordering::AcqRel) {
            self.stats.dirty.decr();
        }
        self.stats.flushes.incr();
        self.stats.steals.incr();
        self.obs.emit(ObsEvent {
            layer: "pool",
            op: "steal",
            target: pid.page_no as u64,
            detail: pid.file.0 as u64,
        });
        Ok(())
    }

    /// Writes every dirty frame to disk (forcing the log first) and marks
    /// them clean, one flush at a time (the operation gate). An explicit
    /// device operation: never under a latch (the pool's own miss and
    /// steal I/O is the exception, see [`crate`]).
    pub fn flush_all(&self) -> Result<()> {
        held::assert_unlatched("flush_all");
        let _gate = self.op_gate.lock();
        self.flush_where(|_| true)
    }

    /// Flushes only the dirty pages of one file (used by deferred drops
    /// and targeted checkpoints).
    pub fn flush_file(&self, file: FileId) -> Result<()> {
        held::assert_unlatched("flush_file");
        let _gate = self.op_gate.lock();
        self.flush_where(|pid| pid.file == file)
    }

    fn flush_where(&self, want: impl Fn(PageId) -> bool) -> Result<()> {
        let map = self.map.lock();
        let mut targets: Vec<(usize, PageId)> = Vec::new();
        let mut max_lsn = Lsn::NULL;
        for (idx, pid) in map.resident.iter().enumerate() {
            let Some(pid) = pid else { continue };
            if !want(*pid) || !self.frames[idx].dirty.load(Ordering::Acquire) {
                continue;
            }
            let lsn = self.frames[idx].page.read().lsn();
            if lsn > max_lsn {
                max_lsn = lsn;
            }
            targets.push((idx, *pid));
        }
        drop(map);
        if targets.is_empty() {
            return Ok(());
        }
        if !max_lsn.is_null() {
            if let Some(wal) = self.wal.read().clone() {
                wal.force(max_lsn)?;
            }
        }
        for (idx, pid) in targets {
            let frame = &self.frames[idx];
            // Write access so the checksum can be stamped over the final
            // image immediately before it leaves the pool.
            let mut guard = frame.page.write();
            guard.stamp_crc(pid);
            with_io_retries(MAX_IO_RETRIES, || self.disk.write_page(pid, &guard))?;
            if frame.dirty.swap(false, Ordering::AcqRel) {
                self.stats.dirty.decr();
            }
            self.stats.flushes.incr();
            self.obs.emit(ObsEvent {
                layer: "pool",
                op: "flush",
                target: pid.page_no as u64,
                detail: pid.file.0 as u64,
            });
        }
        Ok(())
    }

    /// Drops every cached frame of `file` without writing (used when a
    /// relation is physically destroyed).
    pub fn discard_file(&self, file: FileId) {
        let mut map = self.map.lock();
        let doomed: Vec<(usize, PageId)> = map
            .resident
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.filter(|p| p.file == file).map(|p| (i, p)))
            .collect();
        for (idx, pid) in doomed {
            debug_assert_eq!(
                self.frames[idx].pin_count.load(Ordering::Acquire),
                0,
                "discarding pinned page {pid}"
            );
            map.table.remove(&pid);
            map.resident[idx] = None;
            if self.frames[idx].dirty.swap(false, Ordering::AcqRel) {
                self.stats.dirty.decr();
            }
        }
    }

    /// Number of dirty frames, read from the incrementally maintained
    /// gauge (no frame walk, no map lock).
    pub fn dirty_count(&self) -> usize {
        self.stats.dirty.get().max(0) as usize
    }

    /// Number of dirty frames counted by walking every frame. O(frames);
    /// only for tests cross-checking the incremental gauge.
    #[cfg(test)]
    fn dirty_count_walk(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.dirty.load(Ordering::Acquire))
            .count()
    }
}

/// A pinned page handle. The page stays resident while any handle exists;
/// dropping the handle unpins it.
///
/// Write-ahead by type: the page changes only through a [`PageWrite`],
/// and the one way to a `PageWrite` of a page that already exists is an
/// [`Appended`] token — proof that the log record describing the change
/// is in the log — whose LSN it stamps on the page. The pool forces the
/// log through a page's LSN before writing the page, so a change can
/// never reach disk ahead of its record:
///
/// ```
/// # use std::sync::Arc;
/// # use dmx_page::{BufferPool, DiskManager, MemDisk, SlottedPage};
/// # use dmx_types::{Appended, Lsn};
/// # let disk = Arc::new(MemDisk::new());
/// # let pool = BufferPool::new(disk.clone(), 4);
/// # let pid = pool.new_page(disk.create_file()?)?.id();
/// let appended = Appended::by_log(Lsn(7)); // what the log append returned
/// let pin = pool.fetch(pid)?;
/// let mut page = pin.write(appended);
/// SlottedPage::init(&mut page);
/// SlottedPage::insert_at(&mut page, 0, b"r")?;
/// assert_eq!(page.lsn(), Lsn(7));
/// # Ok::<(), dmx_types::DmxError>(())
/// ```
///
/// A page a guard read or latched without a token does not change:
///
/// ```compile_fail
/// # use std::sync::Arc;
/// # use dmx_page::{BufferPool, DiskManager, MemDisk, SlottedPage};
/// # let disk = Arc::new(MemDisk::new());
/// # let pool = BufferPool::new(disk.clone(), 4);
/// # let pid = pool.new_page(disk.create_file()?)?.id();
/// let pin = pool.fetch(pid)?;
/// let mut page = pin.exclusive();
/// SlottedPage::insert_at(&mut page, 0, b"r")?; // no log record, no write
/// # Ok::<(), dmx_types::DmxError>(())
/// ```
pub struct PinnedPage {
    pool: Arc<BufferPool>,
    frame: usize,
    pid: PageId,
}

impl PinnedPage {
    /// The page's id.
    pub fn id(&self) -> PageId {
        self.pid
    }

    /// Shared access to the page image. A contended frame latch counts
    /// one `pool.pin_waits` before blocking.
    pub fn read(&self) -> PageRead<'_> {
        let f = &self.pool.frames[self.frame];
        let guard = f.page.try_read().unwrap_or_else(|| {
            self.pool.stats.pin_waits.incr();
            f.page.read()
        });
        PageRead {
            guard,
            _held: Latched::enter(),
        }
    }

    /// Exclusive access to look before deciding: the frame latch in write
    /// mode over a page that [`ExclusivePage::stamp`] alone makes
    /// mutable (and dirty). A contended frame latch counts one
    /// `pool.pin_waits` before blocking.
    pub fn exclusive(&self) -> ExclusivePage<'_> {
        let f = &self.pool.frames[self.frame];
        let guard = f.page.try_write().unwrap_or_else(|| {
            self.pool.stats.pin_waits.incr();
            f.page.write()
        });
        ExclusivePage {
            pin: self,
            guard,
            _held: Latched::enter(),
        }
    }

    /// The page, mutable, stamped with `by`:
    /// [`PinnedPage::exclusive`] then [`ExclusivePage::stamp`].
    pub fn write(&self, by: Appended) -> PageWrite<'_> {
        self.exclusive().stamp(by)
    }
}

/// A page [`BufferPool::new_page`] just allocated: pinned, zeroed, and
/// described by no log record yet.
pub struct FreshPage(PinnedPage);

impl FreshPage {
    /// The unlogged write of a fresh page: the bootstrap of a structure
    /// (a tree's root, a heap's first page), which DDL commit force-writes
    /// because no log record can redo it. A change a later statement logs
    /// takes the page through [`PinnedPage::write`] like any other.
    pub fn format(&self) -> PageWrite<'_> {
        self.0.write(Appended::UNLOGGED)
    }

    /// The plain pin.
    pub fn into_pinned(self) -> PinnedPage {
        self.0
    }
}

impl Deref for FreshPage {
    type Target = PinnedPage;
    fn deref(&self) -> &PinnedPage {
        &self.0
    }
}

/// Shared access to a pinned page ([`PinnedPage::read`]).
pub struct PageRead<'a> {
    guard: RwLockReadGuard<'a, Page>,
    _held: Latched,
}

impl Deref for PageRead<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.guard
    }
}

/// The write latch over a page that does not change yet
/// ([`PinnedPage::exclusive`]).
pub struct ExclusivePage<'a> {
    pin: &'a PinnedPage,
    guard: RwLockWriteGuard<'a, Page>,
    _held: Latched,
}

impl<'a> ExclusivePage<'a> {
    /// The page, mutable and dirty, with `by`'s LSN on it (LSNs only move
    /// forward). Stamped before the change is made, under the same latch:
    /// a writer checks first that the change will succeed.
    pub fn stamp(self, by: Appended) -> PageWrite<'a> {
        let ExclusivePage {
            pin,
            mut guard,
            _held,
        } = self;
        let pool = &pin.pool;
        if !pool.frames[pin.frame].dirty.swap(true, Ordering::AcqRel) {
            pool.stats.dirty.incr();
        }
        raise_lsn(&mut guard, by.lsn());
        PageWrite { guard, _held }
    }
}

impl Deref for ExclusivePage<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.guard
    }
}

/// A page that may change, stamped with the LSN of the record that
/// describes the change ([`ExclusivePage::stamp`]).
pub struct PageWrite<'a> {
    guard: RwLockWriteGuard<'a, Page>,
    _held: Latched,
}

impl PageWrite<'_> {
    /// Replaces the whole image with `src`'s — a root split moving the
    /// root into a fresh child — keeping this page's stamp.
    pub fn copy_from(&mut self, src: &Page) {
        let stamp = self.lsn();
        *self.guard.raw_mut() = *src.raw();
        raise_lsn(&mut self.guard, stamp);
    }
}

impl Deref for PageWrite<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.guard
    }
}

impl DerefMut for PageWrite<'_> {
    fn deref_mut(&mut self) -> &mut Page {
        &mut self.guard
    }
}

fn raise_lsn(page: &mut Page, lsn: Lsn) {
    if lsn > page.lsn() {
        page.set_lsn(lsn);
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        self.pool.frames[self.frame]
            .pin_count
            .fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use std::sync::atomic::AtomicU64;

    fn setup(frames: usize) -> (Arc<MemDisk>, Arc<BufferPool>, FileId) {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone() as Arc<dyn DiskManager>, frames);
        let file = disk.create_file().unwrap();
        (disk, pool, file)
    }

    #[test]
    fn new_page_then_fetch_hits() {
        let (_d, pool, f) = setup(4);
        let pid = {
            let p = pool.new_page(f).unwrap();
            p.format().body_mut()[0] = 77;
            p.id()
        };
        let before = pool.stats().hits.get();
        let p = pool.fetch(pid).unwrap();
        assert_eq!(p.read().body()[0], 77);
        assert_eq!(pool.stats().hits.get(), before + 1);
    }

    // This test used to be `eviction_is_no_steal` and asserted the global
    // no-steal policy. Under the steal/no-force contract (DESIGN.md §6)
    // stealing is opt-in per page type, so the old assertion survives in a
    // narrower form: dirty pages of a type *not* in the stealable set are
    // still never written back by eviction.
    #[test]
    fn dirty_non_stealable_pages_are_not_stolen() {
        let (disk, pool, f) = setup(2);
        // Two dirty pages fill the pool; their page type (0) is not in
        // the (empty) stealable set.
        let a = pool.new_page(f).unwrap();
        let b = pool.new_page(f).unwrap();
        let (pa, _pb) = (a.id(), b.id());
        drop(a);
        drop(b);
        // A third page cannot enter: everything is dirty, nothing steals.
        assert!(matches!(pool.new_page(f), Err(DmxError::BufferFull)));
        assert_eq!(disk.stats().snapshot().writes, 0, "no-steal wrote nothing");
        assert_eq!(pool.stats().steals.get(), 0);
        // After a flush, frames are clean and evictable.
        pool.flush_all().unwrap();
        let c = pool.new_page(f).unwrap();
        drop(c);
        // The evicted page can be re-read with its data intact.
        let back = pool.fetch(pa).unwrap();
        assert_eq!(back.id(), pa);
    }

    #[test]
    fn steal_evicts_dirty_stealable_page() {
        let (disk, pool, f) = setup(2);
        pool.set_stealable_types(&[3]);
        let mk = |byte: u8| {
            let p = pool.new_page(f).unwrap();
            {
                let mut g = p.format();
                g.set_page_type(3);
                g.body_mut()[9] = byte;
            }
            p.id()
        };
        let (pa, pb) = (mk(0xA1), mk(0xB2));
        // A third page steals a dirty frame: a write-back happens even
        // though no flush was requested.
        let pc = mk(0xC3);
        assert_eq!(pool.stats().steals.get(), 1);
        assert!(disk.stats().snapshot().writes > 0, "steal wrote the victim");
        // Every page — stolen or resident — still reads back intact.
        for (pid, byte) in [(pa, 0xA1), (pb, 0xB2), (pc, 0xC3)] {
            let p = pool.fetch(pid).unwrap();
            assert_eq!(p.read().body()[9], byte);
        }
    }

    #[test]
    fn steal_forces_wal_to_victim_lsn_before_write() {
        struct Probe {
            forced: AtomicU64,
            disk_writes_at_force: AtomicU64,
            disk: Arc<MemDisk>,
        }
        impl WalHook for Probe {
            fn force(&self, lsn: Lsn) -> Result<()> {
                self.forced.store(lsn.0, Ordering::SeqCst);
                self.disk_writes_at_force
                    .store(self.disk.stats().snapshot().writes, Ordering::SeqCst);
                Ok(())
            }
        }
        let (disk, pool, f) = setup(1);
        pool.set_stealable_types(&[3]);
        let probe = Arc::new(Probe {
            forced: AtomicU64::new(0),
            disk_writes_at_force: AtomicU64::new(0),
            disk: disk.clone(),
        });
        pool.set_wal_hook(probe.clone());
        {
            let p = pool.new_page(f).unwrap();
            p.write(Appended::by_log(Lsn(73))).set_page_type(3);
        }
        // The single frame is dirty; the next allocation must steal it.
        let p2 = pool.new_page(f).unwrap();
        drop(p2);
        assert_eq!(pool.stats().steals.get(), 1);
        assert_eq!(probe.forced.load(Ordering::SeqCst), 73);
        assert_eq!(
            probe.disk_writes_at_force.load(Ordering::SeqCst),
            0,
            "log forced before the stolen page was written"
        );
    }

    #[test]
    fn steal_prefers_clean_victims() {
        let (_d, pool, f) = setup(2);
        pool.set_stealable_types(&[3]);
        let mk = |b: u8| {
            let p = pool.new_page(f).unwrap();
            let mut g = p.format();
            g.set_page_type(3);
            g.body_mut()[0] = b;
            drop(g);
            p.id()
        };
        let (pa, _pb) = (mk(1), mk(2));
        pool.flush_all().unwrap();
        // Re-dirty only page A; B stays clean.
        {
            let p = pool.fetch(pa).unwrap();
            p.write(Appended::UNLOGGED).body_mut()[0] = 9;
        }
        // The newcomer evicts clean B rather than stealing dirty A, even
        // though A's type is stealable.
        let p = pool.new_page(f).unwrap();
        drop(p);
        assert_eq!(pool.stats().steals.get(), 0, "clean victim preferred");
        let back = pool.fetch(pa).unwrap();
        assert_eq!(back.read().body()[0], 9, "dirty page stayed resident");
    }

    #[test]
    fn flush_writes_dirty_and_clears() {
        let (disk, pool, f) = setup(4);
        let p = pool.new_page(f).unwrap();
        p.format().body_mut()[1] = 5;
        let pid = p.id();
        drop(p);
        assert_eq!(pool.dirty_count(), 1);
        pool.flush_all().unwrap();
        assert_eq!(pool.dirty_count(), 0);
        let mut img = Page::new();
        disk.read_page(pid, &mut img).unwrap();
        assert_eq!(img.body()[1], 5);
        // flushing again is a no-op
        let w = disk.stats().snapshot().writes;
        pool.flush_all().unwrap();
        assert_eq!(disk.stats().snapshot().writes, w);
    }

    #[test]
    fn wal_hook_forced_before_write() {
        struct Probe {
            forced: AtomicU64,
            disk_writes_at_force: AtomicU64,
            disk: Arc<MemDisk>,
        }
        impl WalHook for Probe {
            fn force(&self, lsn: Lsn) -> Result<()> {
                self.forced.store(lsn.0, Ordering::SeqCst);
                self.disk_writes_at_force
                    .store(self.disk.stats().snapshot().writes, Ordering::SeqCst);
                Ok(())
            }
        }
        let (disk, pool, f) = setup(4);
        let probe = Arc::new(Probe {
            forced: AtomicU64::new(0),
            disk_writes_at_force: AtomicU64::new(0),
            disk: disk.clone(),
        });
        pool.set_wal_hook(probe.clone());
        let p = pool.new_page(f).unwrap();
        drop(p.write(Appended::by_log(Lsn(41))));
        drop(p);
        pool.flush_all().unwrap();
        assert_eq!(probe.forced.load(Ordering::SeqCst), 41);
        assert_eq!(
            probe.disk_writes_at_force.load(Ordering::SeqCst),
            0,
            "log forced before the first page write"
        );
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let (_d, pool, f) = setup(2);
        let a = pool.new_page(f).unwrap();
        let b = pool.new_page(f).unwrap();
        pool.flush_all().unwrap(); // clean, but still pinned
        assert!(matches!(pool.new_page(f), Err(DmxError::BufferFull)));
        drop(a);
        drop(b);
        assert!(pool.new_page(f).is_ok());
    }

    #[test]
    fn discard_file_drops_frames_without_io() {
        let (disk, pool, f) = setup(4);
        let p = pool.new_page(f).unwrap();
        let pid = p.id();
        drop(p);
        pool.discard_file(f);
        assert_eq!(pool.dirty_count(), 0);
        assert_eq!(disk.stats().snapshot().writes, 0);
        // the page can still be fetched from disk (zeroed image)
        let back = pool.fetch(pid).unwrap();
        assert_eq!(back.read().body()[0], 0);
    }

    #[test]
    fn fetch_missing_page_fails_cleanly() {
        let (_d, pool, f) = setup(2);
        assert!(pool.fetch(PageId::new(f, 99)).is_err());
        // pool still fully usable afterwards (reservation rolled back)
        let a = pool.new_page(f).unwrap();
        let b = pool.new_page(f).unwrap();
        drop((a, b));
        pool.flush_all().unwrap();
    }

    #[test]
    fn flush_file_is_selective() {
        let (disk, pool, f1) = setup(8);
        let f2 = disk.create_file().unwrap();
        let p1 = pool.new_page(f1).unwrap();
        let p2 = pool.new_page(f2).unwrap();
        let (pid1, _pid2) = (p1.id(), p2.id());
        drop(p1);
        drop(p2);
        pool.flush_file(f1).unwrap();
        assert_eq!(pool.dirty_count(), 1, "f2's page remains dirty");
        let mut img = Page::new();
        disk.read_page(pid1, &mut img).unwrap();
    }

    #[test]
    fn dirty_gauge_tracks_frame_walk() {
        let (disk, pool, f) = setup(8);
        let f2 = disk.create_file().unwrap();
        // Dirty three pages across two files.
        let pids: Vec<PageId> = [f, f, f2]
            .iter()
            .map(|file| {
                let p = pool.new_page(*file).unwrap();
                p.format().body_mut()[0] = 1;
                p.id()
            })
            .collect();
        assert_eq!(pool.dirty_count(), 3);
        assert_eq!(pool.dirty_count(), pool.dirty_count_walk());
        // Redundant re-dirty must not double count.
        let p = pool.fetch(pids[0]).unwrap();
        p.write(Appended::UNLOGGED).body_mut()[1] = 2;
        drop(p);
        assert_eq!(pool.dirty_count(), 3);
        // Selective flush decrements only the flushed file's frames.
        pool.flush_file(f).unwrap();
        assert_eq!(pool.dirty_count(), 1);
        assert_eq!(pool.dirty_count(), pool.dirty_count_walk());
        // Discard clears the rest without I/O.
        pool.discard_file(f2);
        assert_eq!(pool.dirty_count(), 0);
        assert_eq!(pool.dirty_count(), pool.dirty_count_walk());
        assert_eq!(pool.stats().pin_waits.get(), 0, "uncontended: no waits");
    }

    #[test]
    fn fetch_retries_transient_read() {
        use crate::fault::FaultDisk;
        use dmx_types::{FaultInjector, FaultPlan};
        // I/O sequence: 0 create_file, 1 allocate, 2 flush write, 3 read
        // (fails transient), 4 retried read (succeeds).
        let disk = FaultDisk::fresh(FaultInjector::new(FaultPlan::new(1).transient_at(3)));
        let pool = BufferPool::new(disk.clone() as Arc<dyn DiskManager>, 4);
        let f = disk.create_file().unwrap();
        let pid = {
            let p = pool.new_page(f).unwrap();
            p.format().body_mut()[0] = 3;
            p.id()
        };
        pool.flush_all().unwrap();
        pool.discard_file(f); // force the next fetch to hit the disk
        let p = pool.fetch(pid).unwrap();
        assert_eq!(p.read().body()[0], 3);
        assert_eq!(disk.stats().snapshot().faults_injected, 1);
    }

    #[test]
    fn fetch_promotes_persistent_corruption() {
        use crate::page::PAGE_SIZE;
        let (disk, pool, f) = setup(4);
        let pid = {
            let p = pool.new_page(f).unwrap();
            p.format().body_mut()[0] = 1;
            p.id()
        };
        pool.flush_all().unwrap();
        pool.discard_file(f);
        // Rot one body byte directly in the persisted image, below any
        // wrapper — only the checksum can catch this.
        let mut img = Page::new();
        disk.read_page(pid, &mut img).unwrap();
        img.raw_mut()[PAGE_SIZE - 1] ^= 0x10;
        disk.write_page(pid, &img).unwrap();
        assert!(matches!(pool.fetch(pid), Err(DmxError::Corrupt(_))));
        // the reservation was rolled back; the pool stays usable
        assert!(pool.new_page(f).is_ok());
    }

    #[test]
    fn a_wiped_checksum_field_is_corruption_and_a_fresh_page_is_not() {
        let (disk, pool, f) = setup(4);
        let pid = {
            let p = pool.new_page(f).unwrap();
            p.format().body_mut()[0] = 1;
            p.id()
        };
        pool.flush_all().unwrap();
        pool.discard_file(f);
        // Zero the four checksum bytes (offset 12) of the stamped image: the
        // field now reads "never stamped" over a page that plainly was
        // written.
        let mut img = Page::new();
        disk.read_page(pid, &mut img).unwrap();
        assert_ne!(img.stored_crc(), 0);
        img.put_u32(12, 0);
        disk.write_page(pid, &img).unwrap();
        assert!(matches!(pool.fetch(pid), Err(DmxError::Corrupt(_))));
        assert_eq!(pool.stats().retries.get(), MAX_IO_RETRIES as u64);
        // What "never stamped" does cover: a page the disk allocated and
        // nobody wrote reads back all zero, and fetches.
        let fresh = disk.allocate_page(f).unwrap();
        let p = pool.fetch(fresh).unwrap();
        assert!(p.read().raw().iter().all(|&b| b == 0));
    }

    #[test]
    fn flush_stamps_checksums() {
        let (disk, pool, f) = setup(4);
        let pid = {
            let p = pool.new_page(f).unwrap();
            p.format().body_mut()[7] = 42;
            p.id()
        };
        pool.flush_all().unwrap();
        let mut img = Page::new();
        disk.read_page(pid, &mut img).unwrap();
        assert_ne!(img.stored_crc(), 0, "flush stamped a checksum");
        assert!(img.verify_crc(pid));
    }

    #[test]
    fn concurrent_fetch_same_page() {
        let (_d, pool, f) = setup(8);
        let p = pool.new_page(f).unwrap();
        let pid = p.id();
        p.format().body_mut()[0] = 9;
        drop(p);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        let g = pool.fetch(pid).unwrap();
                        assert_eq!(g.read().body()[0], 9);
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_writers_different_pages() {
        let (_d, pool, f) = setup(16);
        let pids: Vec<PageId> = (0..8).map(|_| pool.new_page(f).unwrap().id()).collect();
        std::thread::scope(|s| {
            for (i, pid) in pids.iter().enumerate() {
                let pool = pool.clone();
                let pid = *pid;
                s.spawn(move || {
                    for k in 0..100u64 {
                        let g = pool.fetch(pid).unwrap();
                        g.write(Appended::UNLOGGED).put_u64(64, k * (i as u64 + 1));
                    }
                });
            }
        });
        for (i, pid) in pids.iter().enumerate() {
            let g = pool.fetch(*pid).unwrap();
            assert_eq!(g.read().get_u64(64), 99 * (i as u64 + 1));
        }
    }
}
