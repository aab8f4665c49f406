//! Per-tree physical latches.
//!
//! One reader/writer latch per tree (keyed by the tree's root page id)
//! serializes structural modification against readers. This is coarse —
//! a real system would crab-latch — but correct, and tree operations are
//! short. Readers only wait for a writer that holds the latch, so a
//! reader may re-take it while it holds it already.
//!
//! Both guards count as latches for the debug-build checks of
//! [`dmx_types::held`]: no lock request, explicit device operation or
//! scan pull while one lives.

use std::collections::HashMap;
use std::sync::Arc;

use dmx_types::sync::{Condvar, Mutex};

use dmx_types::held::Latched;
use dmx_types::PageId;

/// Reader/writer state of one tree latch.
#[derive(Default)]
struct LatchState {
    readers: usize,
    writer: bool,
}

/// A reader/writer latch for one tree. Writer preference is unnecessary at
/// this granularity: tree operations hold the latch only for the duration
/// of one structural operation.
#[derive(Default)]
pub struct TreeLatch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

impl TreeLatch {
    /// Acquires shared read access for the lifetime of the guard.
    pub fn read(&self) -> LatchReadGuard<'_> {
        let mut st = self.state.lock();
        while st.writer {
            st = self.cv.wait(st);
        }
        st.readers += 1;
        LatchReadGuard {
            latch: self,
            _held: Latched::enter(),
        }
    }

    /// Acquires exclusive write access for the lifetime of the guard.
    pub fn write(&self) -> LatchWriteGuard<'_> {
        let mut st = self.state.lock();
        while st.writer || st.readers > 0 {
            st = self.cv.wait(st);
        }
        st.writer = true;
        LatchWriteGuard {
            latch: self,
            _held: Latched::enter(),
        }
    }

    fn release_read(&self) {
        let mut st = self.state.lock();
        st.readers -= 1;
        if st.readers == 0 {
            self.cv.notify_all();
        }
    }

    fn release_write(&self) {
        self.state.lock().writer = false;
        self.cv.notify_all();
    }
}

/// Shared-read RAII guard for [`TreeLatch`].
pub struct LatchReadGuard<'a> {
    latch: &'a TreeLatch,
    _held: Latched,
}

impl Drop for LatchReadGuard<'_> {
    fn drop(&mut self) {
        self.latch.release_read();
    }
}

/// Exclusive-write RAII guard for [`TreeLatch`].
pub struct LatchWriteGuard<'a> {
    latch: &'a TreeLatch,
    _held: Latched,
}

impl Drop for LatchWriteGuard<'_> {
    fn drop(&mut self) {
        self.latch.release_write();
    }
}

/// Shared table of tree latches. One instance per database.
#[derive(Default)]
pub struct LatchTable {
    inner: Mutex<HashMap<PageId, Arc<TreeLatch>>>,
}

impl LatchTable {
    /// An empty latch table.
    pub fn new() -> Arc<Self> {
        Arc::new(LatchTable::default())
    }

    /// The latch for the tree rooted at `root`.
    pub fn latch(&self, root: PageId) -> Arc<TreeLatch> {
        self.inner.lock().entry(root).or_default().clone()
    }

    /// Drops the latch entry for a destroyed tree.
    pub fn forget(&self, root: PageId) {
        self.inner.lock().remove(&root);
    }

    /// Number of live latches (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no latches exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
// The unit tests build raw disks or logs beneath the fault injector.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use dmx_types::FileId;

    #[test]
    fn same_root_same_latch() {
        let t = LatchTable::new();
        let a = t.latch(PageId::new(FileId(1), 0));
        let b = t.latch(PageId::new(FileId(1), 0));
        let c = t.latch(PageId::new(FileId(2), 0));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(t.len(), 2);
        t.forget(PageId::new(FileId(1), 0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn readers_share_writers_exclude() {
        let t = LatchTable::new();
        let l = t.latch(PageId::new(FileId(1), 0));
        let r1 = l.read();
        let r2 = l.read();
        drop((r1, r2));
        let w = l.write();
        drop(w);
        let _w2 = l.write();
    }

    #[test]
    fn write_excludes_concurrent_writers() {
        let t = LatchTable::new();
        let l = t.latch(PageId::new(FileId(9), 0));
        let counter = Arc::new(Mutex::new(0u32));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = Arc::clone(&l);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..50 {
                        let _g = l.write();
                        // With exclusion, the read-modify-write below is
                        // atomic even though the counter lock is released
                        // between the read and the write.
                        let v = *counter.lock();
                        *counter.lock() = v + 1;
                    }
                });
            }
        });
        assert_eq!(*counter.lock(), 200);
    }

    /// A flush is an explicit device operation: under a tree latch it
    /// waits on disk — and on the log force — while every reader of the
    /// tree waits on it. A debug build refuses it at the call.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "flush_all under 1 page or tree latch")]
    fn a_flush_under_a_tree_latch_is_refused() {
        use dmx_page::{BufferPool, MemDisk};
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 4);
        let latch = LatchTable::new().latch(PageId::new(FileId(1), 0));
        let _g = latch.write();
        let _ = pool.flush_all();
    }
}
