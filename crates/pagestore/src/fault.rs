//! Fault-injecting disk wrapper.
//!
//! [`FaultDisk`] interposes a [`FaultInjector`] between callers and a
//! [`MemDisk`], so a seeded [`dmx_types::FaultPlan`] can fail, tear, or
//! corrupt any individual disk operation. The wrapper is the *only*
//! sanctioned way to build a runtime disk (`clippy.toml` denies
//! `MemDisk::new` outside this crate): production code constructs a
//! pass-through plan, test harnesses supply hostile ones, and both
//! exercise the identical code path.
//!
//! Like `MemDisk`, the wrapper survives a simulated crash: keep the
//! `Arc<FaultDisk>`, drop everything else, call
//! [`FaultInjector::clear`], reopen.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use dmx_types::{FaultDecision, FaultInjector, FileId, PageId, Result};

use crate::disk::{DiskManager, IoStats, MemDisk};
use crate::page::{Page, PAGE_SIZE};

/// A [`DiskManager`] that consults a [`FaultInjector`] before every
/// operation. Structural operations (create/delete/allocate) are counted
/// in the same global I/O sequence as page transfers so crash points
/// exist inside DDL, not just DML.
pub struct FaultDisk {
    inner: Arc<MemDisk>,
    injector: Arc<FaultInjector>,
}

impl FaultDisk {
    /// A fresh empty disk behind `injector`.
    pub fn fresh(injector: Arc<FaultInjector>) -> Arc<Self> {
        FaultDisk::over(Arc::new(MemDisk::new()), injector)
    }

    /// Wraps an existing disk image (the crash-survival path: same
    /// `MemDisk`, new wrapper/injector).
    pub fn over(inner: Arc<MemDisk>, injector: Arc<FaultInjector>) -> Arc<Self> {
        Arc::new(FaultDisk { inner, injector })
    }

    /// The wrapped disk image (shared with the crash-surviving
    /// environment).
    pub fn inner(&self) -> &Arc<MemDisk> {
        &self.inner
    }

    /// The injector driving this wrapper.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// Consults the injector for a structural (non-page) operation; flips
    /// degrade to pass-through since there is no image to corrupt.
    fn gate(&self, is_write: bool, what: &str) -> Result<()> {
        let decision = self.injector.decide(is_write);
        if !matches!(decision, FaultDecision::Proceed) {
            self.count_fault();
        }
        match FaultInjector::error_for(decision, what) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn count_fault(&self) {
        self.inner
            .stats()
            .faults_injected
            .fetch_add(1, Ordering::Relaxed);
    }
}

impl DiskManager for FaultDisk {
    fn create_file(&self) -> Result<FileId> {
        self.gate(true, "create_file")?;
        self.inner.create_file()
    }

    fn delete_file(&self, file: FileId) -> Result<()> {
        self.gate(true, "delete_file")?;
        self.inner.delete_file(file)
    }

    fn allocate_page(&self, file: FileId) -> Result<PageId> {
        self.gate(true, "allocate_page")?;
        self.inner.allocate_page(file)
    }

    fn read_page(&self, pid: PageId, out: &mut Page) -> Result<()> {
        let decision = self.injector.decide(false);
        match decision {
            FaultDecision::Proceed => self.inner.read_page(pid, out),
            FaultDecision::FlipByte { raw } => {
                self.count_fault();
                self.inner.read_page(pid, out)?;
                if let Some((off, bit)) = FaultDecision::flip_target(raw, PAGE_SIZE) {
                    // bounds: flip_target reduces off modulo PAGE_SIZE
                    out.raw_mut()[off] ^= bit;
                }
                Ok(())
            }
            other => {
                self.count_fault();
                match FaultInjector::error_for(other, "read_page") {
                    Some(e) => Err(e),
                    None => self.inner.read_page(pid, out),
                }
            }
        }
    }

    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        let decision = self.injector.decide(true);
        match decision {
            FaultDecision::Proceed => self.inner.write_page(pid, page),
            FaultDecision::FlipByte { raw } => {
                self.count_fault();
                let mut dirty = page.clone();
                if let Some((off, bit)) = FaultDecision::flip_target(raw, PAGE_SIZE) {
                    // bounds: flip_target reduces off modulo PAGE_SIZE
                    dirty.raw_mut()[off] ^= bit;
                }
                self.inner.write_page(pid, &dirty)
            }
            FaultDecision::Torn { raw } => {
                self.count_fault();
                // Persist a prefix of the new image over the old one —
                // exactly what a power cut mid-sector-sequence leaves
                // behind — then report the crash.
                let keep = (raw as usize) % PAGE_SIZE;
                let mut merged = Page::new();
                if self.inner.read_page(pid, &mut merged).is_ok() {
                    // bounds: keep < PAGE_SIZE by the modulo above
                    merged.raw_mut()[..keep].copy_from_slice(&page.raw()[..keep]);
                    let _ = self.inner.write_page(pid, &merged);
                }
                match FaultInjector::error_for(decision, "write_page") {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            }
            other => {
                self.count_fault();
                match FaultInjector::error_for(other, "write_page") {
                    Some(e) => Err(e),
                    None => self.inner.write_page(pid, page),
                }
            }
        }
    }

    fn page_count(&self, file: FileId) -> Result<u32> {
        self.inner.page_count(file)
    }

    fn file_exists(&self, file: FileId) -> bool {
        self.inner.file_exists(file)
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_types::{DmxError, FaultPlan};

    fn setup(plan: FaultPlan) -> (Arc<FaultDisk>, FileId, PageId) {
        // Plans in these tests schedule faults at indices ≥ 2 so setup
        // (create at 0, allocate at 1) always succeeds.
        let disk = FaultDisk::fresh(FaultInjector::new(plan));
        let f = disk.create_file().unwrap();
        let pid = disk.allocate_page(f).unwrap();
        (disk, f, pid)
    }

    #[test]
    fn passthrough_behaves_like_memdisk() {
        let (disk, f, pid) = setup(FaultPlan::new(0));
        let mut p = Page::new();
        p.body_mut()[0] = 9;
        disk.write_page(pid, &p).unwrap();
        let mut back = Page::new();
        disk.read_page(pid, &mut back).unwrap();
        assert_eq!(back.body()[0], 9);
        assert_eq!(disk.page_count(f).unwrap(), 1);
        assert_eq!(disk.stats().snapshot().faults_injected, 0);
    }

    #[test]
    fn transient_read_fails_once_then_succeeds() {
        let (disk, _f, pid) = setup(FaultPlan::new(1).transient_at(3));
        disk.write_page(pid, &Page::new()).unwrap(); // io 2
        let mut out = Page::new();
        let err = disk.read_page(pid, &mut out).unwrap_err(); // io 3
        assert!(err.is_transient_io());
        disk.read_page(pid, &mut out).unwrap(); // io 4: clean retry
        assert_eq!(disk.stats().snapshot().faults_injected, 1);
    }

    #[test]
    fn flip_byte_corrupts_persisted_image() {
        let (disk, _f, pid) = setup(FaultPlan::new(5).flip_at(2));
        let mut p = Page::new();
        p.stamp_crc(pid);
        disk.write_page(pid, &p).unwrap(); // io 2: flipped on the way down
        let mut back = Page::new();
        disk.read_page(pid, &mut back).unwrap();
        assert!(!back.verify_crc(pid));
    }

    #[test]
    fn torn_write_persists_prefix_then_crashes() {
        let (disk, _f, pid) = setup(FaultPlan::new(3).torn_at(3));
        let mut old = Page::new();
        old.body_mut().fill(0xAA);
        old.stamp_crc(pid);
        disk.write_page(pid, &old).unwrap(); // io 2
        let mut new = Page::new();
        new.body_mut().fill(0xBB);
        new.stamp_crc(pid);
        let err = disk.write_page(pid, &new).unwrap_err(); // io 3: torn
        assert!(matches!(err, DmxError::Io(_)));
        assert!(disk.injector().is_crashed());
        // all later I/O fails until cleared
        let mut out = Page::new();
        assert!(disk.read_page(pid, &mut out).is_err());
        disk.injector().clear();
        disk.read_page(pid, &mut out).unwrap();
        // the image is a mix of old and new bytes and fails its CRC
        assert!(!out.verify_crc(pid));
        let body = out.body();
        assert!(body.contains(&0xAA) || body.contains(&0xBB));
    }

    #[test]
    fn crash_point_in_ddl_path() {
        let disk = FaultDisk::fresh(FaultInjector::new(FaultPlan::new(0).crash_at(0)));
        assert!(matches!(disk.create_file(), Err(DmxError::Io(_))));
        assert!(disk.injector().is_crashed());
    }
}
