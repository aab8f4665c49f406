//! The simulated disk.
//!
//! [`MemDisk`] stands in for the paper's physical storage: files of
//! fixed-size pages with create/delete/allocate/read/write operations.
//! Every operation is counted in [`IoStats`] so experiments can report I/O
//! costs, and the whole disk image can outlive a simulated crash (drop
//! every volatile structure, keep the `Arc<MemDisk>`, reopen).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use dmx_types::sync::Mutex;

use dmx_types::held;
use dmx_types::{DmxError, FileId, PageId, Result};

use crate::page::{Page, PAGE_SIZE};

/// Abstract disk interface. `MemDisk` is the only production
/// implementation; tests may supply fault-injecting wrappers.
pub trait DiskManager: Send + Sync {
    /// Creates a new empty file and returns its id — one no file had
    /// before, a deleted one included: restart repeats a dropped
    /// relation's records against their file ids, which must name no
    /// other file.
    fn create_file(&self) -> Result<FileId>;
    /// Deletes a file and all its pages.
    fn delete_file(&self, file: FileId) -> Result<()>;
    /// Appends a zeroed page to the file, returning its id.
    fn allocate_page(&self, file: FileId) -> Result<PageId>;
    /// Reads a page image.
    fn read_page(&self, pid: PageId, out: &mut Page) -> Result<()>;
    /// Writes a page image.
    fn write_page(&self, pid: PageId, page: &Page) -> Result<()>;
    /// Number of pages ever allocated in the file.
    fn page_count(&self, file: FileId) -> Result<u32>;
    /// True when the file exists.
    fn file_exists(&self, file: FileId) -> bool;
    /// I/O statistics.
    fn stats(&self) -> &IoStats;
}

/// Monotonic counters for simulated I/O.
#[derive(Debug, Default)]
pub struct IoStats {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub allocs: AtomicU64,
    pub files_created: AtomicU64,
    pub files_deleted: AtomicU64,
    /// Faults injected by a wrapping [`crate::FaultDisk`] (0 on a bare
    /// `MemDisk`).
    pub faults_injected: AtomicU64,
}

/// A point-in-time copy of [`IoStats`], subtractable for per-experiment
/// deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub allocs: u64,
    pub files_created: u64,
    pub files_deleted: u64,
    pub faults_injected: u64,
}

impl IoStats {
    /// Captures current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            files_created: self.files_created.load(Ordering::Relaxed),
            files_deleted: self.files_deleted.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }
}

impl IoSnapshot {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            allocs: self.allocs - earlier.allocs,
            files_created: self.files_created - earlier.files_created,
            files_deleted: self.files_deleted - earlier.files_deleted,
            faults_injected: self.faults_injected - earlier.faults_injected,
        }
    }

    /// Total page transfers (reads + writes).
    pub fn io(&self) -> u64 {
        self.reads + self.writes
    }
}

#[derive(Default)]
struct DiskState {
    files: BTreeMap<FileId, Vec<Box<[u8; PAGE_SIZE]>>>,
    next_file: u32,
}

/// In-memory page store with I/O accounting. It has no `Default`:
/// `clippy.toml` denies `MemDisk::new` outside this crate, and a trait
/// method would be a constructor it cannot name.
pub struct MemDisk {
    state: Mutex<DiskState>,
    stats: IoStats,
}

impl MemDisk {
    /// A fresh, empty disk.
    #[expect(
        clippy::new_without_default,
        reason = "a `Default` would build a disk that `disallowed-methods` cannot see"
    )]
    pub fn new() -> Self {
        MemDisk {
            state: Mutex::default(),
            stats: IoStats::default(),
        }
    }

    /// Total bytes "on disk" (for reporting).
    pub fn size_bytes(&self) -> usize {
        let st = self.state.lock();
        st.files.values().map(|f| f.len() * PAGE_SIZE).sum()
    }

    /// Ids of all existing files.
    pub fn file_ids(&self) -> Vec<FileId> {
        self.state.lock().files.keys().copied().collect()
    }
}

impl DiskManager for MemDisk {
    fn create_file(&self) -> Result<FileId> {
        held::assert_unlatched("create_file");
        let mut st = self.state.lock();
        st.next_file += 1;
        let id = FileId(st.next_file);
        st.files.insert(id, Vec::new());
        self.stats.files_created.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    fn delete_file(&self, file: FileId) -> Result<()> {
        held::assert_unlatched("delete_file");
        let mut st = self.state.lock();
        st.files
            .remove(&file)
            .ok_or_else(|| DmxError::NotFound(format!("file {file}")))?;
        self.stats.files_deleted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn allocate_page(&self, file: FileId) -> Result<PageId> {
        let mut st = self.state.lock();
        let f = st
            .files
            .get_mut(&file)
            .ok_or_else(|| DmxError::NotFound(format!("file {file}")))?;
        if f.len() >= u32::MAX as usize {
            return Err(DmxError::Io("file full".into()));
        }
        f.push(Box::new([0u8; PAGE_SIZE]));
        self.stats.allocs.fetch_add(1, Ordering::Relaxed);
        Ok(PageId::new(file, (f.len() - 1) as u32))
    }

    fn read_page(&self, pid: PageId, out: &mut Page) -> Result<()> {
        let st = self.state.lock();
        let f = st
            .files
            .get(&pid.file)
            .ok_or_else(|| DmxError::NotFound(format!("file {}", pid.file)))?;
        let img = f
            .get(pid.page_no as usize)
            .ok_or_else(|| DmxError::NotFound(format!("page {pid}")))?;
        out.raw_mut().copy_from_slice(img.as_slice());
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        let mut st = self.state.lock();
        let f = st
            .files
            .get_mut(&pid.file)
            .ok_or_else(|| DmxError::NotFound(format!("file {}", pid.file)))?;
        let img = f
            .get_mut(pid.page_no as usize)
            .ok_or_else(|| DmxError::NotFound(format!("page {pid}")))?;
        img.copy_from_slice(page.raw());
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn page_count(&self, file: FileId) -> Result<u32> {
        let st = self.state.lock();
        st.files
            .get(&file)
            .map(|f| f.len() as u32)
            .ok_or_else(|| DmxError::NotFound(format!("file {file}")))
    }

    fn file_exists(&self, file: FileId) -> bool {
        self.state.lock().files.contains_key(&file)
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_allocate_read_write() {
        let d = MemDisk::new();
        let f = d.create_file().unwrap();
        let pid = d.allocate_page(f).unwrap();
        assert_eq!(pid.page_no, 0);

        let mut p = Page::new();
        p.body_mut()[0] = 42;
        p.set_lsn(dmx_types::Lsn(9));
        d.write_page(pid, &p).unwrap();

        let mut back = Page::new();
        d.read_page(pid, &mut back).unwrap();
        assert_eq!(back.body()[0], 42);
        assert_eq!(back.lsn(), dmx_types::Lsn(9));
        assert_eq!(d.page_count(f).unwrap(), 1);
    }

    #[test]
    fn missing_objects_error() {
        let d = MemDisk::new();
        let mut p = Page::new();
        assert!(d.read_page(PageId::new(FileId(5), 0), &mut p).is_err());
        assert!(d.allocate_page(FileId(5)).is_err());
        assert!(d.delete_file(FileId(5)).is_err());
        let f = d.create_file().unwrap();
        assert!(d.read_page(PageId::new(f, 3), &mut p).is_err());
    }

    #[test]
    fn delete_file_frees_pages() {
        let d = MemDisk::new();
        let f = d.create_file().unwrap();
        d.allocate_page(f).unwrap();
        assert!(d.file_exists(f));
        d.delete_file(f).unwrap();
        assert!(!d.file_exists(f));
        assert!(d.page_count(f).is_err());
    }

    #[test]
    fn stats_count_operations() {
        let d = MemDisk::new();
        let before = d.stats().snapshot();
        let f = d.create_file().unwrap();
        let pid = d.allocate_page(f).unwrap();
        let p = Page::new();
        d.write_page(pid, &p).unwrap();
        let mut out = Page::new();
        d.read_page(pid, &mut out).unwrap();
        d.read_page(pid, &mut out).unwrap();
        let delta = d.stats().snapshot().since(&before);
        assert_eq!(delta.files_created, 1);
        assert_eq!(delta.allocs, 1);
        assert_eq!(delta.writes, 1);
        assert_eq!(delta.reads, 2);
        assert_eq!(delta.io(), 3);
    }

    #[test]
    fn file_ids_monotonic_and_unique() {
        let d = MemDisk::new();
        let a = d.create_file().unwrap();
        let b = d.create_file().unwrap();
        assert!(b > a);
        assert_eq!(d.file_ids(), vec![a, b]);
    }

    #[test]
    fn a_deleted_files_id_is_never_handed_out_again() {
        let d = MemDisk::new();
        let a = d.create_file().unwrap();
        let b = d.create_file().unwrap();
        d.delete_file(b).unwrap();
        d.delete_file(a).unwrap();
        let c = d.create_file().unwrap();
        assert!(c > b, "{c} reuses a deleted id");
        assert_eq!(d.file_ids(), vec![c]);
    }
}
