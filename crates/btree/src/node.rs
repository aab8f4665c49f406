//! B+tree node layout.
//!
//! Full-page offsets:
//! ```text
//! 0..16   generic page header
//! 16      flags: bit0 = leaf
//! 17      (pad)
//! 18..20  nkeys: u16
//! 20..24  right sibling page_no (leaves; u32::MAX = none)
//! 24..26  free_end: u16 (lowest cell byte)
//! 26..30  leftmost child page_no (internal nodes)
//! 30..    sorted cell-pointer array, u16 per entry
//! ...     free space ... cells, growing downward
//! cell:   klen u16 | vlen u16 | key | value
//! ```
//! Internal node semantics: an entry `(key, child)` routes keys `>= key`
//! (and `< next entry's key`) to `child`; keys below the first entry go to
//! the leftmost child.

use dmx_page::{Page, PAGE_SIZE};
use dmx_types::{DmxError, Result};

const FLAGS: usize = 16;
const NKEYS: usize = 18;
const RIGHT_SIB: usize = 20;
const FREE_END: usize = 24;
const LEFTMOST: usize = 26;
const PTRS: usize = 30;

/// Sentinel for "no sibling / no child".
pub const NO_PAGE: u32 = u32::MAX;

/// Largest key+value payload a node accepts; guarantees ≥ 4 entries per
/// page so the tree keeps a sane fan-out.
pub const MAX_ENTRY: usize = (PAGE_SIZE - PTRS) / 4 - 8;

/// Page type tag for B-tree nodes (stored in the generic header).
pub const PAGE_TYPE_BTREE: u8 = 2;

/// Namespace for node operations on [`Page`] images.
pub struct Node;

impl Node {
    /// Formats a page as an empty node.
    pub fn init(page: &mut Page, leaf: bool) {
        page.set_page_type(PAGE_TYPE_BTREE);
        page.raw_mut()[FLAGS] = leaf as u8;
        page.put_u16(NKEYS, 0);
        page.put_u32(RIGHT_SIB, NO_PAGE);
        page.put_u16(FREE_END, PAGE_SIZE as u16);
        page.put_u32(LEFTMOST, NO_PAGE);
    }

    pub fn is_leaf(page: &Page) -> bool {
        page.raw()[FLAGS] & 1 == 1
    }

    pub fn nkeys(page: &Page) -> usize {
        page.get_u16(NKEYS) as usize
    }

    pub fn right_sibling(page: &Page) -> Option<u32> {
        match page.get_u32(RIGHT_SIB) {
            NO_PAGE => None,
            p => Some(p),
        }
    }

    pub fn set_right_sibling(page: &mut Page, sib: Option<u32>) {
        page.put_u32(RIGHT_SIB, sib.unwrap_or(NO_PAGE));
    }

    pub fn leftmost_child(page: &Page) -> u32 {
        page.get_u32(LEFTMOST)
    }

    pub fn set_leftmost_child(page: &mut Page, child: u32) {
        page.put_u32(LEFTMOST, child);
    }

    fn cell_at(page: &Page, idx: usize) -> (usize, usize, usize) {
        let ptr = page.get_u16(PTRS + 2 * idx) as usize;
        let klen = page.get_u16(ptr) as usize;
        let vlen = page.get_u16(ptr + 2) as usize;
        (ptr, klen, vlen)
    }

    /// Key of entry `idx`. A corrupt cell pointer yields an empty key in
    /// release builds (and asserts in debug) instead of panicking.
    pub fn key(page: &Page, idx: usize) -> &[u8] {
        let (ptr, klen, _) = Self::cell_at(page, idx);
        page.raw().get(ptr + 4..ptr + 4 + klen).unwrap_or_else(|| {
            debug_assert!(false, "corrupt cell pointer for key {idx}");
            &[]
        })
    }

    /// Value of entry `idx`; same corruption behaviour as [`Node::key`].
    pub fn value(page: &Page, idx: usize) -> &[u8] {
        let (ptr, klen, vlen) = Self::cell_at(page, idx);
        page.raw()
            .get(ptr + 4 + klen..ptr + 4 + klen + vlen)
            .unwrap_or_else(|| {
                debug_assert!(false, "corrupt cell pointer for value {idx}");
                &[]
            })
    }

    /// Child page of entry `idx` (internal nodes store a u32 page_no as
    /// the value). A malformed cell routes to [`NO_PAGE`], which the page
    /// store rejects with a typed error.
    pub fn child(page: &Page, idx: usize) -> u32 {
        match Self::value(page, idx).try_into() {
            Ok(b) => u32::from_le_bytes(b),
            Err(_) => {
                debug_assert!(false, "child cell {idx} is not 4 bytes");
                NO_PAGE
            }
        }
    }

    /// Binary search: `Ok(idx)` exact match, `Err(idx)` insertion point.
    pub fn search(page: &Page, key: &[u8]) -> std::result::Result<usize, usize> {
        let mut lo = 0usize;
        let mut hi = Self::nkeys(page);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match Self::key(page, mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// The child an internal node routes `key` to.
    pub fn route(page: &Page, key: &[u8]) -> u32 {
        debug_assert!(!Self::is_leaf(page));
        match Self::search(page, key) {
            Ok(idx) => Self::child(page, idx),
            Err(0) => Self::leftmost_child(page),
            Err(idx) => Self::child(page, idx - 1),
        }
    }

    /// Bytes of live payload (cells referenced by the pointer array).
    pub fn used_cell_bytes(page: &Page) -> usize {
        (0..Self::nkeys(page))
            .map(|i| {
                let (_, klen, vlen) = Self::cell_at(page, i);
                4 + klen + vlen
            })
            .sum()
    }

    /// Contiguous free bytes.
    pub fn free_space(page: &Page) -> usize {
        let free_end = page.get_u16(FREE_END) as usize;
        free_end.saturating_sub(PTRS + 2 * Self::nkeys(page))
    }

    /// Free bytes after compaction.
    pub fn total_free(page: &Page) -> usize {
        PAGE_SIZE - PTRS - 2 * Self::nkeys(page) - Self::used_cell_bytes(page)
    }

    /// True when `(key, val)` fits (possibly after compaction). The
    /// contiguous gap answers in O(1); the cells are summed only when it
    /// is short, which is when [`Node::insert_at`] compacts or the caller
    /// splits.
    pub fn fits(page: &Page, klen: usize, vlen: usize) -> bool {
        let need = 2 + 4 + klen + vlen;
        Self::free_space(page) >= need || Self::total_free(page) >= need
    }

    /// Writes one `klen | vlen | key | value` cell at `free_end`. The
    /// caller has already reserved `4 + key + val` bytes of cell space.
    fn write_cell(page: &mut Page, free_end: usize, key: &[u8], val: &[u8]) {
        let cell = 4 + key.len() + val.len();
        let Some(dst) = page.raw_mut().get_mut(free_end..free_end + cell) else {
            debug_assert!(false, "cell write out of page bounds");
            return;
        };
        // bounds: `dst` spans exactly `cell` bytes (checked above).
        dst[..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
        dst[2..4].copy_from_slice(&(val.len() as u16).to_le_bytes());
        // bounds: 4 + klen + vlen == cell, so these ranges tile `dst`.
        dst[4..4 + key.len()].copy_from_slice(key);
        dst[4 + key.len()..].copy_from_slice(val);
    }

    /// Rewrites cells contiguously, dropping dead space: packs them in
    /// entry order from the end of the page, reading from one copy of
    /// the image.
    pub fn compact(page: &mut Page) {
        let src = page.clone();
        let mut free_end = PAGE_SIZE;
        for i in 0..Self::nkeys(&src) {
            let (k, v) = (Self::key(&src, i), Self::value(&src, i));
            free_end -= 4 + k.len() + v.len();
            Self::write_cell(page, free_end, k, v);
            page.put_u16(PTRS + 2 * i, free_end as u16);
        }
        page.put_u16(FREE_END, free_end as u16);
    }

    /// Inserts `(key, val)` at sorted position `idx` (from
    /// [`Node::search`]'s `Err`). The caller must have verified
    /// [`Node::fits`]; splits are the tree layer's business.
    pub fn insert_at(page: &mut Page, idx: usize, key: &[u8], val: &[u8]) -> Result<()> {
        let cell = 4 + key.len() + val.len();
        if Self::free_space(page) < cell + 2 {
            if Self::total_free(page) < cell + 2 {
                return Err(DmxError::Internal(
                    "node overflow; caller must split".into(),
                ));
            }
            Self::compact(page);
        }
        let n = Self::nkeys(page);
        debug_assert!(idx <= n);
        // Pointers `idx..n` move up one slot, through a checked subslice.
        if idx <= n {
            if let Some(ptrs) = page.raw_mut().get_mut(PTRS + 2 * idx..PTRS + 2 * (n + 1)) {
                let moved = ptrs.len() - 2;
                ptrs.copy_within(..moved, 2);
            }
        }
        let free_end = (page.get_u16(FREE_END) as usize).saturating_sub(cell);
        Self::write_cell(page, free_end, key, val);
        page.put_u16(FREE_END, free_end as u16);
        page.put_u16(PTRS + 2 * idx, free_end as u16);
        page.put_u16(NKEYS, (n + 1) as u16);
        Ok(())
    }

    /// Removes entry `idx` (pointer removal; cell bytes become dead space).
    pub fn remove_at(page: &mut Page, idx: usize) {
        let n = Self::nkeys(page);
        debug_assert!(idx < n);
        // Pointers `idx + 1..n` move down one slot, through a checked
        // subslice.
        if idx < n {
            if let Some(ptrs) = page.raw_mut().get_mut(PTRS + 2 * idx..PTRS + 2 * n) {
                ptrs.copy_within(2.., 0);
            }
        }
        page.put_u16(NKEYS, (n - 1) as u16);
    }

    /// Replaces the value of entry `idx`.
    pub fn replace_value(page: &mut Page, idx: usize, val: &[u8]) -> Result<()> {
        let (ptr, klen, vlen) = Self::cell_at(page, idx);
        if val.len() == vlen {
            match page
                .raw_mut()
                .get_mut(ptr + 4 + klen..ptr + 4 + klen + vlen)
            {
                Some(dst) => dst.copy_from_slice(val),
                None => {
                    debug_assert!(false, "corrupt cell pointer in replace_value");
                    return Err(DmxError::Internal("corrupt cell pointer".into()));
                }
            }
            return Ok(());
        }
        let key = Self::key(page, idx).to_vec();
        let old = Self::value(page, idx).to_vec();
        Self::remove_at(page, idx);
        if !Self::fits(page, key.len(), val.len()) {
            // The displaced cell came out of this page, so re-inserting it
            // cannot overflow; if it somehow does, surface that error.
            Self::insert_at(page, idx, &key, &old)?;
            return Err(DmxError::Internal(
                "node overflow; caller must split".into(),
            ));
        }
        Self::insert_at(page, idx, &key, val)
    }

    /// Where a full node splits before `(key, …)` enters it at index
    /// `idx`: the index of the first entry that moves to the new right
    /// node. An entry appended past the last key of a node on the tree's
    /// rightmost path starts the new node, and the full node stays full,
    /// so an ascending load packs its pages: a leaf moves nothing, an
    /// internal node moves its last entry, so that each side keeps two
    /// children. Every other split halves the node by bytes.
    pub fn split_point(page: &Page, idx: usize, rightmost: bool) -> usize {
        let n = Self::nkeys(page);
        debug_assert!(n >= 2, "cannot split a node with < 2 entries");
        if rightmost && idx == n {
            return if Self::is_leaf(page) { n } else { n - 1 };
        }
        let total = Self::used_cell_bytes(page);
        // the first index where the left half exceeds 50%
        let mut acc = 0usize;
        let mut split = n / 2; // fallback
        for i in 0..n {
            let (_, klen, vlen) = Self::cell_at(page, i);
            acc += 4 + klen + vlen;
            if acc > total / 2 {
                split = i + 1;
                break;
            }
        }
        split.clamp(1, n - 1)
    }

    /// Moves the entries from index `at` on into `right`. Both pages must
    /// already be initialized with the same leaf-ness; `right` must be
    /// empty. The moved cells are packed into `right` in entry order and
    /// the rest compacted once, as entry-by-entry inserts would leave them.
    pub fn split_into(page: &mut Page, right: &mut Page, at: usize) -> Result<()> {
        let n = Self::nkeys(page);
        debug_assert!(at <= n, "split point {at} past {n} entries");
        debug_assert_eq!(Self::nkeys(right), 0, "split into a non-empty node");
        if at >= n {
            return Ok(());
        }
        let mut free_end = PAGE_SIZE;
        for (j, i) in (at..n).enumerate() {
            let (k, v) = (Self::key(page, i), Self::value(page, i));
            let cell = 4 + k.len() + v.len();
            // Part of a full page always fits in the empty `right` page.
            if free_end < PTRS + 2 * (j + 1) + cell {
                return Err(DmxError::Internal(
                    "node overflow; caller must split".into(),
                ));
            }
            free_end -= cell;
            Self::write_cell(right, free_end, k, v);
            right.put_u16(PTRS + 2 * j, free_end as u16);
        }
        right.put_u16(FREE_END, free_end as u16);
        right.put_u16(NKEYS, (n - at) as u16);
        page.put_u16(NKEYS, at as u16);
        Self::compact(page);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_types::testrng::TestRng;
    use std::collections::BTreeMap;

    fn leaf() -> Page {
        let mut p = Page::new();
        Node::init(&mut p, true);
        p
    }

    #[test]
    fn init_and_flags() {
        let p = leaf();
        assert!(Node::is_leaf(&p));
        assert_eq!(Node::nkeys(&p), 0);
        assert_eq!(Node::right_sibling(&p), None);
        assert_eq!(p.page_type(), PAGE_TYPE_BTREE);
        let mut q = Page::new();
        Node::init(&mut q, false);
        assert!(!Node::is_leaf(&q));
    }

    #[test]
    fn sorted_insert_and_search() {
        let mut p = leaf();
        for k in [b"m", b"a", b"z", b"c"] {
            let idx = Node::search(&p, k).unwrap_err();
            Node::insert_at(&mut p, idx, k, b"v").unwrap();
        }
        assert_eq!(Node::nkeys(&p), 4);
        let keys: Vec<&[u8]> = (0..4).map(|i| Node::key(&p, i)).collect();
        assert_eq!(keys, vec![&b"a"[..], b"c", b"m", b"z"]);
        assert_eq!(Node::search(&p, b"m"), Ok(2));
        assert_eq!(Node::search(&p, b"b"), Err(1));
        assert_eq!(Node::search(&p, b"zz"), Err(4));
    }

    #[test]
    fn remove_and_compact_recover_space() {
        let mut p = leaf();
        for i in 0..10u8 {
            let k = [i];
            let idx = Node::search(&p, &k).unwrap_err();
            Node::insert_at(&mut p, idx, &k, &[0u8; 100]).unwrap();
        }
        let free_before = Node::free_space(&p);
        Node::remove_at(&mut p, 0);
        Node::remove_at(&mut p, 0);
        assert_eq!(Node::nkeys(&p), 8);
        assert_eq!(Node::key(&p, 0), &[2]);
        // dead cells counted by total_free but not contiguous free
        assert!(Node::total_free(&p) > Node::free_space(&p));
        Node::compact(&mut p);
        assert!(Node::free_space(&p) > free_before);
        // survivors intact after compaction
        for i in 0..8usize {
            assert_eq!(Node::key(&p, i), &[(i + 2) as u8]);
            assert_eq!(Node::value(&p, i), &[0u8; 100]);
        }
    }

    #[test]
    fn replace_value_same_and_different_size() {
        let mut p = leaf();
        Node::insert_at(&mut p, 0, b"k", b"aaaa").unwrap();
        Node::replace_value(&mut p, 0, b"bbbb").unwrap();
        assert_eq!(Node::value(&p, 0), b"bbbb");
        Node::replace_value(&mut p, 0, b"cccccccc").unwrap();
        assert_eq!(Node::value(&p, 0), b"cccccccc");
        assert_eq!(Node::key(&p, 0), b"k");
        assert_eq!(Node::nkeys(&p), 1);
    }

    #[test]
    fn internal_routing() {
        let mut p = Page::new();
        Node::init(&mut p, false);
        Node::set_leftmost_child(&mut p, 100);
        // entries: "g" -> 200, "p" -> 300
        Node::insert_at(&mut p, 0, b"g", &200u32.to_le_bytes()).unwrap();
        Node::insert_at(&mut p, 1, b"p", &300u32.to_le_bytes()).unwrap();
        assert_eq!(Node::route(&p, b"a"), 100);
        assert_eq!(Node::route(&p, b"g"), 200, "separator routes right");
        assert_eq!(Node::route(&p, b"m"), 200);
        assert_eq!(Node::route(&p, b"p"), 300);
        assert_eq!(Node::route(&p, b"z"), 300);
        assert_eq!(Node::child(&p, 0), 200);
    }

    #[test]
    fn a_split_halves_by_bytes_unless_it_appends_on_the_rightmost_path() {
        let mut left = leaf();
        for i in 0..20u8 {
            let k = [i];
            Node::insert_at(&mut left, i as usize, &k, &[7u8; 64]).unwrap();
        }
        let half = Node::split_point(&left, 5, true);
        assert_eq!(half, 11, "the first index past half the bytes");
        assert_eq!(Node::split_point(&left, 20, false), half);
        assert_eq!(
            Node::split_point(&left, 20, true),
            20,
            "a leaf moves nothing"
        );
        let mut internal = Page::new();
        Node::init(&mut internal, false);
        for i in 0..20u8 {
            Node::insert_at(&mut internal, i as usize, &[i], &[0u8; 4]).unwrap();
        }
        assert_eq!(
            Node::split_point(&internal, 20, true),
            19,
            "two children a side"
        );
        let mut right = leaf();
        Node::split_into(&mut left, &mut right, half).unwrap();
        let (nl, nr) = (Node::nkeys(&left), Node::nkeys(&right));
        assert_eq!(nl + nr, 20);
        assert!(nl >= 2 && nr >= 2, "roughly balanced: {nl}/{nr}");
        // strict ordering across the split
        assert!(Node::key(&left, nl - 1) < Node::key(&right, 0));
    }

    /// The node's entries, in order.
    fn entries(p: &Page) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..Node::nkeys(p))
            .map(|i| (Node::key(p, i).to_vec(), Node::value(p, i).to_vec()))
            .collect()
    }

    /// Key and value lengths [`check`] asks [`Node::fits`] about.
    const PROBES: [(usize, usize); 6] = [
        (1, 0),
        (4, 40),
        (8, 150),
        (8, 300),
        (8, 1200),
        (16, MAX_ENTRY - 16),
    ];

    /// The node equals `model`, and the gap-first fit answer equals its
    /// definition over the summed cells for a few probe sizes.
    fn check(p: &Page, model: &BTreeMap<Vec<u8>, Vec<u8>>, seed: u64) {
        let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(entries(p), want, "seed {seed}");
        for (k, v) in PROBES {
            let by_sum = Node::total_free(p) >= 6 + k + v;
            assert_eq!(Node::fits(p, k, v), by_sum, "seed {seed}: probe {k}+{v}");
        }
    }

    /// Random operation sequences keep a node equal to a `BTreeMap`
    /// model: inserts, removals, same- and different-length value
    /// replacements, compactions and splits (either half carries on).
    /// Deterministic seeds; a failure reproduces exactly from its seed.
    #[test]
    fn randomized_matches_model() {
        for seed in 0..24u64 {
            let mut rng = TestRng::new(0x0DE_5EED ^ seed);
            let mut p = leaf();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for _ in 0..300 {
                let n = Node::nkeys(&p);
                match rng.below(16) {
                    0..=7 => {
                        let mut key = rng.bytes(7);
                        key.push(rng.below(256) as u8);
                        let val = rng.bytes(300);
                        match Node::search(&p, &key) {
                            Ok(_) => assert!(model.contains_key(&key), "seed {seed}"),
                            Err(idx) if Node::fits(&p, key.len(), val.len()) => {
                                Node::insert_at(&mut p, idx, &key, &val).unwrap();
                                model.insert(key, val);
                            }
                            Err(idx) => {
                                assert!(Node::insert_at(&mut p, idx, &key, &val).is_err());
                            }
                        }
                    }
                    8..=10 if n > 0 => {
                        let idx = rng.index(n);
                        let key = Node::key(&p, idx).to_vec();
                        Node::remove_at(&mut p, idx);
                        model.remove(&key);
                    }
                    11 | 12 if n > 0 => {
                        let idx = rng.index(n);
                        let key = Node::key(&p, idx).to_vec();
                        let val = match rng.below(2) {
                            0 => vec![rng.below(256) as u8; Node::value(&p, idx).len()],
                            _ => rng.bytes(600),
                        };
                        if Node::replace_value(&mut p, idx, &val).is_ok() {
                            model.insert(key, val);
                        }
                    }
                    13 => {
                        Node::compact(&mut p);
                        assert_eq!(Node::free_space(&p), Node::total_free(&p), "seed {seed}");
                    }
                    14 if n >= 2 => {
                        let at = Node::split_point(&p, rng.index(n + 1), rng.below(2) == 0);
                        let mut right = leaf();
                        Node::split_into(&mut p, &mut right, at).unwrap();
                        let moved = match model.keys().nth(at).cloned() {
                            Some(first) => model.split_off(&first),
                            // an append on the rightmost path moves nothing
                            None => BTreeMap::new(),
                        };
                        check(&p, &model, seed);
                        check(&right, &moved, seed);
                        if let (Some(l), Some(r)) = (model.keys().last(), moved.keys().next()) {
                            assert!(l < r, "seed {seed}");
                            for half in [&p, &right] {
                                assert_eq!(Node::free_space(half), Node::total_free(half));
                            }
                        }
                        if rng.below(2) == 0 {
                            (p, model) = (right, moved);
                        }
                    }
                    _ => {}
                }
                check(&p, &model, seed);
            }
        }
    }

    #[test]
    fn fits_respects_capacity() {
        let mut p = leaf();
        assert!(Node::fits(&p, 10, MAX_ENTRY - 10));
        let mut i = 0u32;
        loop {
            let k = i.to_be_bytes();
            if !Node::fits(&p, k.len(), 200) {
                break;
            }
            let idx = Node::search(&p, &k).unwrap_err();
            Node::insert_at(&mut p, idx, &k, &[1u8; 200]).unwrap();
            i += 1;
        }
        assert!(
            i >= 30,
            "8 KiB page should hold ≥30 208-byte cells, got {i}"
        );
        // and a direct overflow insert errors rather than corrupting
        let k = [0xFFu8; 8];
        let end = Node::nkeys(&p);
        assert!(Node::insert_at(&mut p, end, &k, &[1u8; 200]).is_err());
    }
}
