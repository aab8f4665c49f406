//! Slotted page layout.
//!
//! A classic slotted page: a slot directory grows upward after the page
//! header, record payloads grow downward from the end of the page. Slot
//! numbers are stable across deletes (deleted slots become tombstones and
//! may be re-used), which lets heap record ids (page, slot) stay valid for
//! the life of a record and lets recovery re-insert a record at its
//! original slot during undo of a delete.
//!
//! Layout (full-page offsets):
//! ```text
//! 0..16   generic page header (LSN, page type)
//! 16..18  slot_count: u16
//! 18..20  free_end:   u16   offset of the lowest record byte
//! 20..    slot directory, 4 bytes per slot: offset u16, len u16
//!         (offset 0 = tombstone)
//! ...     free space
//! ...PAGE_SIZE  record payloads
//! ```

use crate::buffer::PageWrite;
use crate::page::{Page, PAGE_SIZE};
use dmx_types::{DmxError, Result};

const SLOT_COUNT_OFF: usize = 16;
const FREE_END_OFF: usize = 18;
const DIR_OFF: usize = 20;
const SLOT_BYTES: usize = 4;

/// Namespace for slotted-page operations over [`Page`] images. The
/// readers take any page; the mutators only a [`PageWrite`] — a pooled
/// page taken against the log record of the change (or, formatting a
/// page fresh from the pool, none).
pub struct SlottedPage;

impl SlottedPage {
    /// Largest record payload a single page can hold.
    pub const MAX_RECORD: usize = PAGE_SIZE - DIR_OFF - SLOT_BYTES;

    /// Formats an empty slotted page (leaves the generic header alone).
    pub fn init(page: &mut PageWrite<'_>) {
        page.put_u16(SLOT_COUNT_OFF, 0);
        page.put_u16(FREE_END_OFF, PAGE_SIZE as u16);
    }

    /// Number of slots in the directory (live + tombstones).
    pub fn slot_count(page: &Page) -> u16 {
        page.get_u16(SLOT_COUNT_OFF)
    }

    /// Number of live (non-tombstone) records.
    pub fn live_count(page: &Page) -> u16 {
        (0..Self::slot_count(page))
            .filter(|&s| Self::slot_entry(page, s).0 != 0)
            .count() as u16
    }

    fn slot_entry(page: &Page, slot: u16) -> (u16, u16) {
        let off = DIR_OFF + slot as usize * SLOT_BYTES;
        (page.get_u16(off), page.get_u16(off + 2))
    }

    fn set_slot_entry(page: &mut Page, slot: u16, offset: u16, len: u16) {
        let off = DIR_OFF + slot as usize * SLOT_BYTES;
        page.put_u16(off, offset);
        page.put_u16(off + 2, len);
    }

    /// Contiguous free bytes between the slot directory and the record
    /// heap.
    pub fn free_space(page: &Page) -> usize {
        let free_end = page.get_u16(FREE_END_OFF) as usize;
        let dir_end = DIR_OFF + Self::slot_count(page) as usize * SLOT_BYTES;
        free_end.saturating_sub(dir_end)
    }

    /// Bytes reclaimable by [`SlottedPage::compact`] (tombstoned payloads
    /// and holes).
    pub fn reclaimable(page: &Page) -> usize {
        let live: usize = (0..Self::slot_count(page))
            .map(|s| Self::slot_entry(page, s))
            .filter(|&(off, _)| off != 0)
            .map(|(_, len)| len as usize)
            .sum();
        let used = PAGE_SIZE - page.get_u16(FREE_END_OFF) as usize;
        used - live
    }

    /// Reads a record payload; `None` for tombstones or out-of-range slots.
    pub fn get(page: &Page, slot: u16) -> Option<&[u8]> {
        if slot >= Self::slot_count(page) {
            return None;
        }
        let (off, len) = Self::slot_entry(page, slot);
        if off == 0 {
            return None;
        }
        // A corrupt slot entry yields `None` rather than a panic.
        page.raw().get(off as usize..(off as usize) + len as usize)
    }

    /// Inserts a record, preferring tombstone slots, appending a new slot
    /// otherwise. Compacts if fragmentation blocks an otherwise-fitting
    /// insert. Returns the slot number, or `None` when the page cannot
    /// hold the record.
    pub fn insert(page: &mut PageWrite<'_>, data: &[u8]) -> Option<u16> {
        if data.len() > Self::MAX_RECORD {
            return None;
        }
        let slot = (0..Self::slot_count(page))
            .find(|&s| Self::slot_entry(page, s).0 == 0)
            .unwrap_or_else(|| Self::slot_count(page));
        Self::insert_at(page, slot, data).ok()?;
        Some(slot)
    }

    /// Inserts a record at a specific slot (the slot must be a tombstone or
    /// the next fresh slot). Recovery uses this to undo a delete without
    /// changing the record's id.
    pub fn insert_at(page: &mut PageWrite<'_>, slot: u16, data: &[u8]) -> Result<()> {
        let count = Self::slot_count(page);
        if slot > count {
            return Err(DmxError::InvalidArg(format!(
                "slot {slot} beyond directory end {count}"
            )));
        }
        if slot < count && Self::slot_entry(page, slot).0 != 0 {
            return Err(DmxError::InvalidArg(format!("slot {slot} is occupied")));
        }
        let need = data.len() + if slot == count { SLOT_BYTES } else { 0 };
        // The directory is walked only when the contiguous gap is short,
        // and then compaction follows.
        if Self::free_space(page) < need {
            if Self::free_space(page) + Self::reclaimable(page) < need {
                return Err(DmxError::Io("page full".into()));
            }
            Self::compact(page);
        }
        let free_end = page.get_u16(FREE_END_OFF) as usize;
        let new_off = free_end.saturating_sub(data.len());
        // bounds: free-space accounting above guarantees the range; a
        // corrupt FREE_END is caught by the checked subslice.
        match page.raw_mut().get_mut(new_off..free_end) {
            Some(dst) => dst.copy_from_slice(data),
            None => return Err(DmxError::Corrupt("bad free-end offset".into())),
        }
        page.put_u16(FREE_END_OFF, new_off as u16);
        if slot == count {
            page.put_u16(SLOT_COUNT_OFF, count + 1);
        }
        Self::set_slot_entry(page, slot, new_off as u16, data.len() as u16);
        Ok(())
    }

    /// Tombstones a slot, returning the payload that was there.
    pub fn delete(page: &mut PageWrite<'_>, slot: u16) -> Option<Vec<u8>> {
        let data = Self::get(page, slot)?.to_vec();
        Self::set_slot_entry(page, slot, 0, 0);
        Some(data)
    }

    /// Replaces a record in place, keeping its slot number. Fails with
    /// `Io("page full")` when the page cannot hold the new payload even
    /// after compaction; the caller (heap storage method) then relocates.
    pub fn update(page: &mut PageWrite<'_>, slot: u16, data: &[u8]) -> Result<()> {
        let (off, len) = match Self::get(page, slot) {
            Some(_) => Self::slot_entry(page, slot),
            None => return Err(DmxError::NotFound(format!("slot {slot}"))),
        };
        if data.len() <= len as usize {
            // shrink in place
            let start = off as usize;
            match page.raw_mut().get_mut(start..start + data.len()) {
                Some(dst) => dst.copy_from_slice(data),
                None => return Err(DmxError::Corrupt("bad slot offset".into())),
            }
            Self::set_slot_entry(page, slot, off, data.len() as u16);
            return Ok(());
        }
        // Grow: tombstone then re-insert at the same slot; roll back the
        // tombstone on failure.
        let Some(old) = Self::delete(page, slot) else {
            return Err(DmxError::NotFound(format!("slot {slot}")));
        };
        match Self::insert_at(page, slot, data) {
            Ok(()) => Ok(()),
            Err(e) => {
                // The old payload came off this page, so it always fits
                // back; surface the impossible case instead of panicking.
                Self::insert_at(page, slot, &old)?;
                Err(e)
            }
        }
    }

    /// Whether `slot` can come to hold `len` bytes — by
    /// [`SlottedPage::update`] when it holds a record (whose bytes count as
    /// room), by [`SlottedPage::insert_at`] when it is a tombstone or the
    /// next fresh slot. A writer asks before it stamps the page. The
    /// contiguous gap answers in O(1); the directory is walked for the
    /// reclaimable bytes only when the gap is short, which is when the
    /// write compacts.
    pub fn fits(page: &Page, slot: u16, len: usize) -> bool {
        let need = match Self::get(page, slot) {
            Some(old) if len <= old.len() => return true,
            Some(old) => len - old.len(),
            None if slot < Self::slot_count(page) => len,
            None if slot == Self::slot_count(page) => len + SLOT_BYTES,
            None => return false,
        };
        let gap = Self::free_space(page);
        gap >= need || gap + Self::reclaimable(page) >= need
    }

    /// Repacks live payloads to eliminate holes, in slot order from the
    /// end of the page, reading from one copy of the image. Slot numbers
    /// are preserved.
    pub fn compact(page: &mut PageWrite<'_>) {
        let src = Page::clone(page);
        let mut free_end = PAGE_SIZE;
        for slot in 0..Self::slot_count(&src) {
            let Some(data) = Self::get(&src, slot) else {
                continue;
            };
            free_end -= data.len();
            // bounds: live payloads came off this page, so they re-pack
            // into PAGE_SIZE bytes; checked all the same.
            if let Some(dst) = page.raw_mut().get_mut(free_end..free_end + data.len()) {
                dst.copy_from_slice(data);
            }
            Self::set_slot_entry(page, slot, free_end as u16, data.len() as u16);
        }
        page.put_u16(FREE_END_OFF, free_end as u16);
    }

    /// Slot numbers of live records, ascending.
    pub fn live_slots(page: &Page) -> Vec<u16> {
        (0..Self::slot_count(page))
            .filter(|&s| Self::slot_entry(page, s).0 != 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::buffer::BufferPool;
    use crate::disk::{DiskManager, MemDisk};
    use dmx_types::testrng::TestRng;

    /// Runs `f` over a formatted page fresh from a one-frame pool.
    fn with_fresh(f: impl FnOnce(&mut PageWrite<'_>)) {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 1);
        let pin = pool.new_page(disk.create_file().unwrap()).unwrap();
        let mut p = pin.format();
        SlottedPage::init(&mut p);
        f(&mut p);
    }

    #[test]
    fn insert_and_get() {
        with_fresh(|p| {
            let s0 = SlottedPage::insert(p, b"hello").unwrap();
            let s1 = SlottedPage::insert(p, b"world!").unwrap();
            assert_eq!(s0, 0);
            assert_eq!(s1, 1);
            assert_eq!(SlottedPage::get(p, s0).unwrap(), b"hello");
            assert_eq!(SlottedPage::get(p, s1).unwrap(), b"world!");
            assert_eq!(SlottedPage::get(p, 9), None);
            assert_eq!(SlottedPage::live_count(p), 2);
        });
    }

    #[test]
    fn delete_tombstones_and_slot_reuse() {
        with_fresh(|p| {
            let s0 = SlottedPage::insert(p, b"aaa").unwrap();
            let s1 = SlottedPage::insert(p, b"bbb").unwrap();
            assert_eq!(SlottedPage::delete(p, s0).unwrap(), b"aaa");
            assert_eq!(SlottedPage::get(p, s0), None);
            assert_eq!(SlottedPage::get(p, s1).unwrap(), b"bbb");
            // next insert reuses the tombstone
            let s2 = SlottedPage::insert(p, b"ccc").unwrap();
            assert_eq!(s2, s0);
            assert_eq!(SlottedPage::live_slots(p), vec![0, 1]);
            assert!(SlottedPage::delete(p, 7).is_none());
        });
    }

    #[test]
    fn insert_at_rules() {
        with_fresh(|p| {
            SlottedPage::insert(p, b"x").unwrap();
            // occupied
            assert!(SlottedPage::insert_at(p, 0, b"y").is_err());
            // gap beyond directory end
            assert!(SlottedPage::insert_at(p, 2, b"y").is_err());
            // append at directory end
            SlottedPage::insert_at(p, 1, b"y").unwrap();
            assert_eq!(SlottedPage::get(p, 1).unwrap(), b"y");
            // reinsert into a tombstone restores the original slot
            SlottedPage::delete(p, 0).unwrap();
            SlottedPage::insert_at(p, 0, b"z").unwrap();
            assert_eq!(SlottedPage::get(p, 0).unwrap(), b"z");
        });
    }

    #[test]
    fn update_shrink_grow_and_full() {
        with_fresh(|p| {
            let s = SlottedPage::insert(p, &[7u8; 100]).unwrap();
            SlottedPage::update(p, s, &[1u8; 10]).unwrap();
            assert_eq!(SlottedPage::get(p, s).unwrap(), &[1u8; 10]);
            assert!(SlottedPage::fits(p, s, 500));
            SlottedPage::update(p, s, &[2u8; 500]).unwrap();
            assert_eq!(SlottedPage::get(p, s).unwrap(), &[2u8; 500]);
            // grow beyond capacity fails and preserves the old payload
            assert!(!SlottedPage::fits(p, s, PAGE_SIZE));
            let err = SlottedPage::update(p, s, &[3u8; PAGE_SIZE]).unwrap_err();
            assert!(matches!(err, DmxError::Io(_)));
            assert_eq!(SlottedPage::get(p, s).unwrap(), &[2u8; 500]);
            assert!(!SlottedPage::fits(p, 9, 1));
            assert!(SlottedPage::update(p, 9, b"x").is_err());
        });
    }

    #[test]
    fn fills_page_then_rejects() {
        with_fresh(|p| {
            let rec = [0xABu8; 1000];
            let mut n = 0;
            while SlottedPage::insert(p, &rec).is_some() {
                n += 1;
            }
            assert!(
                n >= 7,
                "8 KiB page should hold at least 7 1000-byte records"
            );
            assert!(SlottedPage::free_space(p) < rec.len() + 4);
            // deleting one makes room again
            SlottedPage::delete(p, 0).unwrap();
            assert!(SlottedPage::insert(p, &rec).is_some());
        });
    }

    #[test]
    fn compaction_defragments() {
        with_fresh(|p| {
            // Fill with alternating sizes, delete every other record,
            // then insert something that only fits after compaction.
            let mut slots = Vec::new();
            while let Some(s) = SlottedPage::insert(p, &[9u8; 512]) {
                slots.push(s);
            }
            for s in slots.iter().step_by(2) {
                SlottedPage::delete(p, *s);
            }
            assert!(SlottedPage::reclaimable(p) > 0);
            let big = vec![5u8; 2048];
            let s = SlottedPage::insert(p, &big).expect("fits after implicit compaction");
            assert_eq!(SlottedPage::get(p, s).unwrap(), &big[..]);
            // survivors intact
            for s in slots.iter().skip(1).step_by(2) {
                assert_eq!(SlottedPage::get(p, *s).unwrap(), &[9u8; 512]);
            }
        });
    }

    #[test]
    fn zero_length_records_are_legal() {
        with_fresh(|p| {
            let s = SlottedPage::insert(p, b"").unwrap();
            assert_eq!(SlottedPage::get(p, s).unwrap(), b"");
            assert_eq!(SlottedPage::delete(p, s).unwrap(), b"");
        });
    }

    /// [`SlottedPage::fits`] by its definition: the contiguous gap plus
    /// the directory walk's reclaimable bytes, whatever the gap.
    fn fits_by_walk(page: &Page, slot: u16, len: usize) -> bool {
        let room = SlottedPage::free_space(page) + SlottedPage::reclaimable(page);
        match SlottedPage::get(page, slot) {
            Some(old) => len <= old.len() || room + old.len() >= len,
            None if slot < SlottedPage::slot_count(page) => room >= len,
            None => slot == SlottedPage::slot_count(page) && room >= len + SLOT_BYTES,
        }
    }

    /// Random op sequences keep the page consistent with a shadow map,
    /// and the gap-first fit answer equal to its definition.
    /// Deterministic seeds replace the old proptest strategy; a failure
    /// reproduces exactly from its seed.
    #[test]
    fn randomized_matches_shadow() {
        for seed in 0..24u64 {
            let mut rng = TestRng::new(0x510_77ED ^ seed);
            with_fresh(|p| {
                let mut shadow: std::collections::HashMap<u16, Vec<u8>> = Default::default();
                for _ in 0..rng.index(120) {
                    let op = rng.below(4) as u8;
                    let slot = rng.below(24) as u16;
                    let data = rng.bytes(299);
                    match op {
                        0 => {
                            let fresh = SlottedPage::slot_count(p);
                            let fits = SlottedPage::fits(p, fresh, data.len());
                            if let Some(s) = SlottedPage::insert(p, &data) {
                                shadow.insert(s, data);
                            } else {
                                assert!(!fits, "seed {seed}");
                            }
                        }
                        1 => {
                            let got = SlottedPage::delete(p, slot);
                            assert_eq!(got, shadow.remove(&slot));
                        }
                        2 => {
                            let fits = SlottedPage::get(p, slot).is_some()
                                && SlottedPage::fits(p, slot, data.len());
                            let ok = SlottedPage::update(p, slot, &data).is_ok();
                            assert_eq!(fits, ok, "seed {seed}");
                            if ok {
                                shadow.insert(slot, data);
                            }
                        }
                        _ => SlottedPage::compact(p),
                    }
                    for (s, v) in &shadow {
                        assert_eq!(SlottedPage::get(p, *s), Some(&v[..]), "seed {seed}");
                    }
                    assert_eq!(SlottedPage::live_count(p) as usize, shadow.len());
                    for slot in 0..SlottedPage::slot_count(p) + 2 {
                        for len in [0, 1, 150, 299, 600, 2048, 6000] {
                            let fits = SlottedPage::fits(p, slot, len);
                            assert_eq!(fits, fits_by_walk(p, slot, len), "seed {seed}");
                        }
                    }
                }
            });
        }
    }
}
