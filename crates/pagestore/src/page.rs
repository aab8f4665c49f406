//! Fixed-size pages.
//!
//! Every page begins with a small generic header (page LSN + page type)
//! that the recovery machinery understands regardless of which extension
//! owns the page; the rest of the page is extension-defined.

use dmx_types::crc::crc32_update;
use dmx_types::{Lsn, PageId};

/// Page size in bytes. 8 KiB, a common unit for slotted-page systems.
pub const PAGE_SIZE: usize = 8192;

/// Size of the generic page header: LSN (8) + page type (1) + padding (3)
/// + CRC32 (4).
pub const PAGE_HEADER_SIZE: usize = 16;

const LSN_OFFSET: usize = 0;
const TYPE_OFFSET: usize = 8;
const CRC_OFFSET: usize = 12;

/// A fixed-size page image.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }
}

impl Page {
    /// A zeroed page.
    pub fn new() -> Self {
        Page::default()
    }

    /// The page LSN: the LSN of the last log record describing a change to
    /// this page. Used by recovery for idempotent undo of physiological
    /// operations.
    pub fn lsn(&self) -> Lsn {
        Lsn(self.get_u64(LSN_OFFSET))
    }

    /// Stamps the page LSN. Crate-private: outside the page store a page
    /// is stamped only by taking it for writing against the token of the
    /// record that describes the change (`PinnedPage::write`).
    pub(crate) fn set_lsn(&mut self, lsn: Lsn) {
        self.put_u64(LSN_OFFSET, lsn.0);
    }

    /// Extension-assigned page type tag (e.g. heap data page, B-tree leaf).
    pub fn page_type(&self) -> u8 {
        self.data[TYPE_OFFSET]
    }

    /// Sets the page type tag.
    pub fn set_page_type(&mut self, t: u8) {
        self.data[TYPE_OFFSET] = t;
    }

    /// Computes the checksum of this image at `pid`: CRC32 over the page's
    /// address (file id and page number, little-endian) and then the whole
    /// image with the stored checksum field counted as zero, mapped away
    /// from zero so that 0 can mean "never stamped" (a freshly allocated
    /// all-zero page verifies without a stamp). The address is not stored:
    /// it seeds the checksum, so an image written to the wrong page fails
    /// its check where it lands.
    pub fn compute_crc(&self, pid: PageId) -> u32 {
        let mut state = 0xFFFF_FFFF;
        state = crc32_update(state, &pid.file.0.to_le_bytes());
        state = crc32_update(state, &pid.page_no.to_le_bytes());
        // bounds: CRC_OFFSET + 4 <= PAGE_HEADER_SIZE < PAGE_SIZE, all consts
        state = crc32_update(state, &self.data[..CRC_OFFSET]);
        state = crc32_update(state, &[0u8; 4]);
        // bounds: CRC_OFFSET + 4 <= PAGE_HEADER_SIZE < PAGE_SIZE, all consts
        state = crc32_update(state, &self.data[CRC_OFFSET + 4..]);
        let crc = state ^ 0xFFFF_FFFF;
        if crc == 0 {
            1
        } else {
            crc
        }
    }

    /// The checksum currently stored in the header (0 = unstamped).
    pub fn stored_crc(&self) -> u32 {
        self.get_u32(CRC_OFFSET)
    }

    /// Stamps the header checksum over the current image, bound for
    /// `pid`: the buffer pool, the one page writer, calls this on every
    /// write-back.
    pub(crate) fn stamp_crc(&mut self, pid: PageId) {
        let crc = self.compute_crc(pid);
        self.put_u32(CRC_OFFSET, crc);
    }

    /// True when the stored checksum matches the image read from `pid`,
    /// or the page was never stamped — which only the all-zero image of a
    /// fresh allocation is: a zero field over any other bytes is a wiped
    /// checksum, not an excuse from one. A `false` return means the bytes
    /// rotted between stamp and read — torn write, bit flip, wild write —
    /// or were stamped for another page: a misdirected write.
    pub fn verify_crc(&self, pid: PageId) -> bool {
        match self.stored_crc() {
            0 => self.data.iter().all(|&b| b == 0),
            stored => stored == self.compute_crc(pid),
        }
    }

    /// The full page image, including the generic header.
    pub fn raw(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable full page image.
    pub fn raw_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// The extension-owned body (everything after the generic header).
    pub fn body(&self) -> &[u8] {
        // bounds: PAGE_HEADER_SIZE < PAGE_SIZE, both compile-time consts
        &self.data[PAGE_HEADER_SIZE..]
    }

    /// Mutable extension-owned body.
    pub fn body_mut(&mut self) -> &mut [u8] {
        // bounds: PAGE_HEADER_SIZE < PAGE_SIZE, both compile-time consts
        &mut self.data[PAGE_HEADER_SIZE..]
    }

    /// Reads `N` little-endian bytes at `off`. Offsets are kernel- or
    /// extension-computed and in-page by contract; an out-of-page access
    /// is a bug, reported loudly in debug builds and read as zeroes in
    /// release (the corruption surfaces in the caller's validation
    /// instead of crashing the server).
    fn read_array<const N: usize>(&self, off: usize) -> [u8; N] {
        let mut out = [0u8; N];
        match self.data.get(off..off.saturating_add(N)) {
            Some(src) => out.copy_from_slice(src),
            None => debug_assert!(false, "page read of {N} bytes at {off} out of page"),
        }
        out
    }

    /// Writes `N` bytes at `off`; see [`Page::read_array`] for the
    /// out-of-page contract.
    fn write_array<const N: usize>(&mut self, off: usize, bytes: [u8; N]) {
        match self.data.get_mut(off..off.saturating_add(N)) {
            Some(dst) => dst.copy_from_slice(&bytes),
            None => debug_assert!(false, "page write of {N} bytes at {off} out of page"),
        }
    }

    /// Reads a little-endian u16 at a byte offset into the *full* page.
    pub fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.read_array(off))
    }

    /// Writes a little-endian u16.
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.write_array(off, v.to_le_bytes());
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.read_array(off))
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.write_array(off, v.to_le_bytes());
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.read_array(off))
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.write_array(off, v.to_le_bytes());
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("lsn", &self.lsn())
            .field("type", &self.page_type())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_types::FileId;

    #[test]
    fn new_page_is_zeroed() {
        let p = Page::new();
        assert_eq!(p.lsn(), Lsn::NULL);
        assert_eq!(p.page_type(), 0);
        assert!(p.raw().iter().all(|&b| b == 0));
    }

    #[test]
    fn header_accessors() {
        let mut p = Page::new();
        p.set_lsn(Lsn(0xDEADBEEF));
        p.set_page_type(3);
        assert_eq!(p.lsn(), Lsn(0xDEADBEEF));
        assert_eq!(p.page_type(), 3);
    }

    #[test]
    fn body_excludes_header() {
        let mut p = Page::new();
        p.body_mut()[0] = 0xAB;
        assert_eq!(p.raw()[PAGE_HEADER_SIZE], 0xAB);
        assert_eq!(p.body().len(), PAGE_SIZE - PAGE_HEADER_SIZE);
        // header untouched by body writes
        assert_eq!(p.lsn(), Lsn::NULL);
    }

    /// The address every test image is checked at.
    const PID: PageId = PageId {
        file: FileId(3),
        page_no: 5,
    };

    #[test]
    fn crc_roundtrip_and_corruption() {
        let mut p = Page::new();
        // unstamped pages verify (fresh allocation)
        assert_eq!(p.stored_crc(), 0);
        assert!(p.verify_crc(PID));

        p.set_lsn(Lsn(12));
        p.body_mut()[100] = 0x77;
        p.stamp_crc(PID);
        assert_ne!(p.stored_crc(), 0);
        assert!(p.verify_crc(PID));

        // stamping is stable: restamping an unmodified page is a no-op
        let stamped = p.stored_crc();
        p.stamp_crc(PID);
        assert_eq!(p.stored_crc(), stamped);

        // any post-stamp mutation is detected, header or body
        p.body_mut()[100] ^= 0x01;
        assert!(!p.verify_crc(PID));
        p.body_mut()[100] ^= 0x01;
        assert!(p.verify_crc(PID));
        p.set_lsn(Lsn(13));
        assert!(!p.verify_crc(PID));

        // a zeroed field excuses nothing but the all-zero page
        p.stamp_crc(PID);
        p.put_u32(CRC_OFFSET, 0);
        assert!(!p.verify_crc(PID));
    }

    /// The address seeds the checksum: an intact image read at another
    /// page, of the same file or another, fails its check.
    #[test]
    fn an_image_fails_its_check_at_any_other_address() {
        let mut p = Page::new();
        p.body_mut()[7] = 0x42;
        p.stamp_crc(PID);
        assert!(p.verify_crc(PID));
        for (file, page_no) in [(3, 4), (3, 6), (2, 5), (4, 5), (5, 3)] {
            assert!(!p.verify_crc(PageId::new(FileId(file), page_no)));
        }
    }

    #[test]
    fn checksum_of_a_fixed_image_is_the_stored_format() {
        let mut p = Page::new();
        p.set_lsn(Lsn(0x0102_0304_0506_0708));
        p.set_page_type(7);
        for (i, b) in p.body_mut().iter_mut().enumerate() {
            *b = (i * 31 + 7) as u8;
        }
        // CRC-32 of the address bytes `03 00 00 00 05 00 00 00` and then
        // the image, checked in: a kernel or an address seed that answers
        // differently cannot read a stored page.
        assert_eq!(p.compute_crc(PID), 0x7216_3A47);
        // The field itself is skipped: stamping does not move the value.
        p.stamp_crc(PID);
        assert_eq!(p.stored_crc(), 0x7216_3A47);
        assert_eq!(p.compute_crc(PID), 0x7216_3A47);
        assert!(p.verify_crc(PID));
    }

    #[test]
    fn scalar_accessors_roundtrip() {
        let mut p = Page::new();
        p.put_u16(100, 0x1234);
        p.put_u32(102, 0xAABBCCDD);
        p.put_u64(106, u64::MAX - 5);
        assert_eq!(p.get_u16(100), 0x1234);
        assert_eq!(p.get_u32(102), 0xAABBCCDD);
        assert_eq!(p.get_u64(106), u64::MAX - 5);
    }
}
