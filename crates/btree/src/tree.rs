//! B+tree operations: descent, insert with splits, delete, seek and
//! cursors.

use std::ops::{Bound, Deref};
use std::sync::Arc;

use dmx_page::{BufferPool, PinnedPage};
use dmx_types::{Appended, DmxError, FileId, PageId, Result};

use crate::latch::{LatchTable, TreeLatch};
use crate::node::{Node, MAX_ENTRY, PAGE_TYPE_BTREE};

/// Upper bound on descent depth. A split leaves every internal node at
/// least two children, so a legitimate tree of this height would hold
/// 2^63 leaves and cannot exist; exceeding it means the routing graph has
/// a cycle (damaged or never-written child pointers) and the descent
/// reports [`DmxError::Corrupt`] instead of spinning.
const MAX_DEPTH: usize = 64;

/// Behaviour when an inserted key already exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnDuplicate {
    /// Fail with [`DmxError::Duplicate`].
    Error,
    /// Replace the stored value.
    Replace,
}

/// A handle to one B+tree, for reading. Cheap to clone; the root page id
/// is stable for the life of the tree, so extension descriptors can
/// persist it. Changes go through the [`BTreeWriter`] of
/// [`BTree::with_wal_lsn`].
#[derive(Clone)]
pub struct BTree {
    pool: Arc<BufferPool>,
    root: PageId,
    latch: Arc<TreeLatch>,
}

/// A B+tree that may change: every page a mutation dirties is taken
/// against the token of the log record the change is part of, and so
/// carries its LSN — the buffer pool forces the log through a page's LSN
/// before writing the page. Reads go through to the [`BTree`].
#[derive(Clone)]
pub struct BTreeWriter {
    tree: BTree,
    at: Appended,
}

/// Structural statistics (tests, cost sanity checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    pub height: usize,
    pub nodes: usize,
    pub entries: usize,
}

impl BTree {
    /// Allocates a new empty tree (a single leaf root) in `file` and
    /// returns it unlogged: a fresh tree is no log record's yet — the DDL
    /// that creates it force-writes its file at commit, and a scratch
    /// tree is nothing restart recovers.
    pub fn create(
        pool: &Arc<BufferPool>,
        file: FileId,
        latches: &LatchTable,
    ) -> Result<BTreeWriter> {
        let page = pool.new_page(file)?;
        Node::init(&mut page.format(), true);
        let root = page.id();
        Ok(BTree::open(pool, root, latches).with_wal_lsn(Appended::UNLOGGED))
    }

    /// Opens an existing tree by its root page.
    pub fn open(pool: &Arc<BufferPool>, root: PageId, latches: &LatchTable) -> BTree {
        BTree {
            pool: pool.clone(),
            root,
            latch: latches.latch(root),
        }
    }

    /// The writer of this tree inside the change whose log record `at`
    /// is.
    pub fn with_wal_lsn(&self, at: Appended) -> BTreeWriter {
        BTreeWriter {
            tree: self.clone(),
            at,
        }
    }

    /// The stable root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    fn page(&self, page_no: u32) -> Result<PinnedPage> {
        self.pool.fetch(PageId::new(self.root.file, page_no))
    }

    /// Fetches a page the descent will interpret as a tree node,
    /// rejecting anything that is not one. A crash can leave an
    /// allocated-but-never-written (zeroed) page behind an otherwise
    /// durable child pointer; interpreting it as a node would route the
    /// descent to page 0 forever.
    fn node(&self, page_no: u32) -> Result<PinnedPage> {
        let pin = self.page(page_no)?;
        let ty = pin.read().page_type();
        if ty != PAGE_TYPE_BTREE {
            return Err(DmxError::Corrupt(format!(
                "page {page_no} of file {} is not a btree node (page type {ty})",
                self.root.file.0
            )));
        }
        Ok(pin)
    }

    /// Typed error for a descent that outran any legitimate tree height.
    fn depth_exceeded(&self) -> DmxError {
        DmxError::Corrupt(format!(
            "btree descent in file {} exceeded depth {MAX_DEPTH} (routing cycle)",
            self.root.file.0
        ))
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _guard = self.latch.read();
        let mut page_no = self.root.page_no;
        for _ in 0..=MAX_DEPTH {
            let pin = self.node(page_no)?;
            let page = pin.read();
            if Node::is_leaf(&page) {
                return Ok(match Node::search(&page, key) {
                    Ok(idx) => Some(Node::value(&page, idx).to_vec()),
                    Err(_) => None,
                });
            }
            page_no = Node::route(&page, key);
        }
        Err(self.depth_exceeded())
    }

    /// First entry at-or-after the bound (walking right siblings across
    /// empty leaves).
    pub fn seek(&self, bound: Bound<&[u8]>) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let mut first = None;
        self.visit_leaf(bound, |k, v| {
            first = Some((k.to_vec(), v.to_vec()));
            Ok(false)
        })?;
        Ok(first)
    }

    /// One descent, one leaf: hands `visit` the entries at-or-after the
    /// bound that the leaf holding the first of them has, in key order
    /// and as they lie in the pinned page (empty leaves are walked
    /// past). `visit` returns whether to go on. Comes back `true` when
    /// the tree has nothing past what was visited — `visit` never said
    /// stop and the leaf has no right sibling — so a range scan that
    /// reached its end inside the leaf needs no second descent to learn
    /// it. `visit` runs under the tree latch and the leaf's page guard:
    /// it must not block, lock or re-enter the tree.
    pub fn visit_leaf(
        &self,
        bound: Bound<&[u8]>,
        mut visit: impl FnMut(&[u8], &[u8]) -> Result<bool>,
    ) -> Result<bool> {
        let _guard = self.latch.read();
        let target: &[u8] = match bound {
            Bound::Included(k) | Bound::Excluded(k) => k,
            Bound::Unbounded => &[],
        };
        // Descend to the leaf covering `target`; its pin is the one the
        // visit runs under.
        let mut page_no = self.root.page_no;
        let mut depth = 0usize;
        let mut pin = loop {
            let pin = self.node(page_no)?;
            let child = {
                let page = pin.read();
                (!Node::is_leaf(&page)).then(|| Node::route(&page, target))
            };
            let Some(child) = child else {
                break pin;
            };
            depth += 1;
            if depth > MAX_DEPTH {
                return Err(self.depth_exceeded());
            }
            page_no = child;
        };
        // Find the first qualifying entry, spilling into right siblings.
        let mut idx = {
            let page = pin.read();
            match bound {
                Bound::Unbounded => 0,
                Bound::Included(k) => match Node::search(&page, k) {
                    Ok(i) | Err(i) => i,
                },
                Bound::Excluded(k) => match Node::search(&page, k) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                },
            }
        };
        loop {
            let page = pin.read();
            let n = Node::nkeys(&page);
            if idx < n {
                for i in idx..n {
                    if !visit(Node::key(&page, i), Node::value(&page, i))? {
                        return Ok(false);
                    }
                }
                return Ok(Node::right_sibling(&page).is_none());
            }
            let Some(sib) = Node::right_sibling(&page) else {
                return Ok(true);
            };
            drop(page);
            pin = self.node(sib)?;
            idx = 0;
        }
    }

    /// True when any stored key starts with `prefix` (used by unique
    /// checks over composite-encoded index keys).
    pub fn contains_prefix(&self, prefix: &[u8]) -> Result<bool> {
        Ok(match self.seek(Bound::Included(prefix))? {
            Some((k, _)) => k.starts_with(prefix),
            None => false,
        })
    }

    /// An ascending cursor whose first step is the first entry within
    /// `from`. Upper bounds belong to the caller: a range scan has to see
    /// the first entry past its range to lock the boundary gap.
    pub fn cursor_from(&self, from: Bound<Vec<u8>>) -> BTreeCursor {
        BTreeCursor {
            tree: self.clone(),
            next_bound: from,
        }
    }

    /// Cursor over every entry.
    pub fn iter_all(&self) -> BTreeCursor {
        self.cursor_from(Bound::Unbounded)
    }

    /// Walks the tree computing structural statistics.
    pub fn stats(&self) -> Result<TreeStats> {
        let _guard = self.latch.read();
        fn rec(tree: &BTree, page_no: u32, depth: usize, st: &mut TreeStats) -> Result<()> {
            if depth > MAX_DEPTH {
                return Err(tree.depth_exceeded());
            }
            let pin = tree.node(page_no)?;
            let page = pin.read();
            st.nodes += 1;
            st.height = st.height.max(depth);
            if Node::is_leaf(&page) {
                st.entries += Node::nkeys(&page);
                return Ok(());
            }
            let children: Vec<u32> = std::iter::once(Node::leftmost_child(&page))
                .chain((0..Node::nkeys(&page)).map(|i| Node::child(&page, i)))
                .collect();
            drop(page);
            drop(pin);
            for c in children {
                rec(tree, c, depth + 1, st)?;
            }
            Ok(())
        }
        let mut st = TreeStats {
            height: 0,
            nodes: 0,
            entries: 0,
        };
        rec(self, self.root.page_no, 1, &mut st)?;
        Ok(st)
    }
}

impl Deref for BTreeWriter {
    type Target = BTree;
    fn deref(&self) -> &BTree {
        &self.tree
    }
}

impl BTreeWriter {
    /// Inserts `(key, val)`. Keys are unique; `on_dup` picks the
    /// duplicate behaviour.
    pub fn insert(&self, key: &[u8], val: &[u8], on_dup: OnDuplicate) -> Result<()> {
        if key.len() + val.len() > MAX_ENTRY {
            return Err(DmxError::InvalidArg(format!(
                "btree entry of {} bytes exceeds max {MAX_ENTRY}",
                key.len() + val.len()
            )));
        }
        if key.is_empty() {
            return Err(DmxError::InvalidArg("empty btree key".into()));
        }
        let _guard = self.latch.write();
        let root = self.root.page_no;
        if let Some((sep, right)) = self.insert_rec(root, key, val, on_dup, true, 0)? {
            self.grow_root(&sep, right)?;
        }
        Ok(())
    }

    /// Recursive insert; returns `Some((separator, new_right_page_no))`
    /// when the visited node split. `rightmost`: the node is on the
    /// tree's rightmost path — the root, or the last child of a node on
    /// it — where an append past the last key splits off a new node
    /// ([`Node::split_point`]).
    fn insert_rec(
        &self,
        page_no: u32,
        key: &[u8],
        val: &[u8],
        on_dup: OnDuplicate,
        rightmost: bool,
        depth: usize,
    ) -> Result<Option<(Vec<u8>, u32)>> {
        if depth > MAX_DEPTH {
            return Err(self.depth_exceeded());
        }
        let pin = self.node(page_no)?;
        let is_leaf = Node::is_leaf(&pin.read());
        if is_leaf {
            let mut page = pin.write(self.at);
            match Node::search(&page, key) {
                Ok(idx) => match on_dup {
                    OnDuplicate::Error => Err(DmxError::Duplicate(format!(
                        "btree key {:02x?}",
                        // bounds: length clamped to key.len().
                        &key[..key.len().min(16)]
                    ))),
                    OnDuplicate::Replace => {
                        if Node::replace_value(&mut page, idx, val).is_ok() {
                            return Ok(None);
                        }
                        // No room even after compaction: remove and fall
                        // through to a fresh (possibly splitting) insert.
                        Node::remove_at(&mut page, idx);
                        drop(page);
                        drop(pin);
                        self.insert_rec(page_no, key, val, OnDuplicate::Error, rightmost, depth)
                    }
                },
                Err(idx) => {
                    if Node::fits(&page, key.len(), val.len()) {
                        Node::insert_at(&mut page, idx, key, val)?;
                        return Ok(None);
                    }
                    // Split the leaf.
                    let right_pin = self.pool.new_page(self.root.file)?;
                    let mut right = right_pin.write(self.at);
                    Node::init(&mut right, true);
                    let at = Node::split_point(&page, idx, rightmost);
                    Node::split_into(&mut page, &mut right, at)?;
                    Node::set_right_sibling(&mut right, Node::right_sibling(&page));
                    Node::set_right_sibling(&mut page, Some(right_pin.id().page_no));
                    // The entry goes left only below the right node's
                    // first key, which it then stays; an append starts
                    // the empty right node. Either way the right node's
                    // first key is the separator.
                    let to_left = Node::nkeys(&right) > 0 && key < Node::key(&right, 0);
                    let target = if to_left { &mut *page } else { &mut *right };
                    // The key cannot be present in either half of a page
                    // that was split because it did not fit, so both the
                    // found and the insertion index are the same slot.
                    let idx = Node::search(target, key).unwrap_or_else(|i| i);
                    Node::insert_at(target, idx, key, val)?;
                    let sep = Node::key(&right, 0).to_vec();
                    Ok(Some((sep, right_pin.id().page_no)))
                }
            }
        } else {
            let (child, last) = {
                let page = pin.read();
                // the last entry's child, or the leftmost if none
                let last = Node::nkeys(&page)
                    .checked_sub(1)
                    .map_or(Node::leftmost_child(&page), |i| Node::child(&page, i));
                (Node::route(&page, key), last)
            };
            let on_right = rightmost && child == last;
            let split = self.insert_rec(child, key, val, on_dup, on_right, depth + 1)?;
            let Some((sep, new_child)) = split else {
                return Ok(None);
            };
            let mut page = pin.write(self.at);
            let idx = match Node::search(&page, &sep) {
                Ok(_) => return Err(DmxError::Internal("duplicate separator".into())),
                Err(i) => i,
            };
            if Node::fits(&page, sep.len(), 4) {
                Node::insert_at(&mut page, idx, &sep, &new_child.to_le_bytes())?;
                return Ok(None);
            }
            // Split the internal node: the right node's first key moves up.
            let right_pin = self.pool.new_page(self.root.file)?;
            let mut right = right_pin.write(self.at);
            Node::init(&mut right, false);
            let at = Node::split_point(&page, idx, rightmost);
            Node::split_into(&mut page, &mut right, at)?;
            let sep_up = Node::key(&right, 0).to_vec();
            let first_child = Node::child(&right, 0);
            Node::set_leftmost_child(&mut right, first_child);
            Node::remove_at(&mut right, 0);
            // Place the pending (sep, new_child) entry.
            let target = if sep < sep_up {
                &mut *page
            } else {
                &mut *right
            };
            match Node::search(target, &sep) {
                Ok(_) => return Err(DmxError::Internal("duplicate separator".into())),
                Err(i) => Node::insert_at(target, i, &sep, &new_child.to_le_bytes())?,
            }
            Ok(Some((sep_up, right_pin.id().page_no)))
        }
    }

    /// Handles a root split: the old root's contents move into a fresh
    /// child so the root page number never changes.
    fn grow_root(&self, sep: &[u8], right: u32) -> Result<()> {
        let root_pin = self.page(self.root.page_no)?;
        let left_pin = self.pool.new_page(self.root.file)?;
        left_pin.write(self.at).copy_from(&root_pin.read());
        let mut root = root_pin.write(self.at);
        Node::init(&mut root, false);
        Node::set_leftmost_child(&mut root, left_pin.id().page_no);
        Node::insert_at(&mut root, 0, sep, &right.to_le_bytes())?;
        Ok(())
    }

    /// Deletes a key, returning its old value. Lazy deletion: nodes are
    /// never merged.
    pub fn delete(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _guard = self.latch.write();
        let mut page_no = self.root.page_no;
        for _ in 0..=MAX_DEPTH {
            let pin = self.node(page_no)?;
            if Node::is_leaf(&pin.read()) {
                let mut page = pin.write(self.at);
                return Ok(match Node::search(&page, key) {
                    Ok(idx) => {
                        let old = Node::value(&page, idx).to_vec();
                        Node::remove_at(&mut page, idx);
                        Some(old)
                    }
                    Err(_) => None,
                });
            }
            page_no = Node::route(&pin.read(), key);
        }
        Err(self.depth_exceeded())
    }
}

/// Ascending cursor. Each step re-descends from the last returned key, so
/// the cursor stays valid across arbitrary concurrent mutation — a scan
/// positioned on a deleted item is simply *after* it (the paper's rule).
pub struct BTreeCursor {
    tree: BTree,
    next_bound: Bound<Vec<u8>>,
}

impl BTreeCursor {
    /// Next entry, or `None` when exhausted. Not an `Iterator`:
    /// positioning is fallible, and `Result<Option<..>>` keeps the I/O
    /// error path explicit at every call site.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let entry = self
            .tree
            .seek(self.next_bound.as_ref().map(Vec::as_slice))?;
        if let Some((k, _)) = &entry {
            self.next_bound = Bound::Excluded(k.clone());
        }
        Ok(entry)
    }
}

#[cfg(test)]
// The unit tests build raw disks or logs beneath the fault injector.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use dmx_page::{DiskManager, MemDisk};
    use dmx_types::key::encode_values;
    use dmx_types::testrng::TestRng;
    use dmx_types::Value;

    fn setup() -> (Arc<BufferPool>, BTreeWriter) {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 256);
        let file = disk.create_file().unwrap();
        let latches = LatchTable::new();
        let tree = BTree::create(&pool, file, &latches).unwrap();
        (pool, tree)
    }

    fn k(i: i64) -> Vec<u8> {
        encode_values(&[Value::Int(i)])
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let (_p, t) = setup();
        t.insert(&k(5), b"five", OnDuplicate::Error).unwrap();
        t.insert(&k(1), b"one", OnDuplicate::Error).unwrap();
        assert_eq!(t.get(&k(5)).unwrap().unwrap(), b"five");
        assert_eq!(t.get(&k(2)).unwrap(), None);
        assert_eq!(t.delete(&k(5)).unwrap().unwrap(), b"five");
        assert_eq!(t.get(&k(5)).unwrap(), None);
        assert_eq!(t.delete(&k(5)).unwrap(), None, "idempotent");
    }

    #[test]
    fn duplicate_handling() {
        let (_p, t) = setup();
        t.insert(&k(1), b"a", OnDuplicate::Error).unwrap();
        assert!(matches!(
            t.insert(&k(1), b"b", OnDuplicate::Error),
            Err(DmxError::Duplicate(_))
        ));
        assert_eq!(t.get(&k(1)).unwrap().unwrap(), b"a");
        t.insert(&k(1), b"bb", OnDuplicate::Replace).unwrap();
        assert_eq!(t.get(&k(1)).unwrap().unwrap(), b"bb");
    }

    #[test]
    fn rejects_bad_entries() {
        let (_p, t) = setup();
        assert!(t.insert(&[], b"v", OnDuplicate::Error).is_err());
        let huge = vec![0u8; MAX_ENTRY + 1];
        assert!(t.insert(&huge, b"", OnDuplicate::Error).is_err());
    }

    #[test]
    fn many_keys_force_splits_and_stay_sorted() {
        let (_p, t) = setup();
        let n = 5000i64;
        let mut order: Vec<i64> = (0..n).collect();
        TestRng::new(42).shuffle(&mut order);
        for i in &order {
            t.insert(&k(*i), &i.to_le_bytes(), OnDuplicate::Error)
                .unwrap();
        }
        let st = t.stats().unwrap();
        assert_eq!(st.entries, n as usize);
        assert!(st.height >= 2, "5000 entries must split: {st:?}");
        assert!(st.nodes > 1);
        // every key findable
        for i in 0..n {
            assert_eq!(
                t.get(&k(i)).unwrap().unwrap(),
                i.to_le_bytes(),
                "key {i} lost"
            );
        }
        // full scan is sorted and complete
        let mut cur = t.iter_all();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        while let Some((key, _)) = cur.next().unwrap() {
            if let Some(p) = &prev {
                assert!(p < &key, "scan out of order");
            }
            prev = Some(key);
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn cursor_starts_within_its_lower_bound() {
        let (_p, t) = setup();
        for i in 0..100i64 {
            t.insert(&k(i), b"", OnDuplicate::Error).unwrap();
        }
        let collect = |from: Bound<Vec<u8>>| -> Vec<Vec<u8>> {
            let mut cur = t.cursor_from(from);
            let mut out = Vec::new();
            while let Some((key, _)) = cur.next().unwrap() {
                out.push(key);
            }
            out
        };
        assert_eq!(collect(Bound::Included(k(10)))[0], k(10));
        assert_eq!(collect(Bound::Excluded(k(10)))[0], k(11));
        assert_eq!(collect(Bound::Included(k(95))).len(), 5);
        assert_eq!(collect(Bound::Excluded(k(99))).len(), 0);
    }

    #[test]
    fn seek_walks_over_emptied_leaves() {
        let (_p, t) = setup();
        // Fill enough to create several leaves, then empty a middle range.
        for i in 0..2000i64 {
            t.insert(&k(i), &[1u8; 64], OnDuplicate::Error).unwrap();
        }
        for i in 500..1500i64 {
            t.delete(&k(i)).unwrap();
        }
        let got = t.seek(Bound::Included(&k(500))).unwrap().unwrap();
        assert_eq!(got.0, k(1500), "seek crossed emptied leaves");
    }

    #[test]
    fn cursor_sees_delete_at_position_as_after() {
        let (_p, t) = setup();
        for i in 0..10i64 {
            t.insert(&k(i), b"", OnDuplicate::Error).unwrap();
        }
        let mut cur = t.iter_all();
        let (first, _) = cur.next().unwrap().unwrap();
        assert_eq!(first, k(0));
        // Delete the item the scan is ON; the scan must continue just
        // after it (the paper's scan rule).
        t.delete(&k(0)).unwrap();
        // Also delete the next item before the scan reaches it.
        t.delete(&k(1)).unwrap();
        let (next, _) = cur.next().unwrap().unwrap();
        assert_eq!(next, k(2));
    }

    /// Leaf visits chained by their last key cover the tree exactly once,
    /// in order, one descent (the leaf pinned once) each;
    /// only the visit that reaches the last leaf's end reports the end.
    #[test]
    fn visit_leaf_hands_out_one_leaf_and_reports_the_end() {
        let (pool, t) = setup();
        let n = 3000i64;
        for i in 0..n {
            t.insert(&k(i), &i.to_le_bytes(), OnDuplicate::Error)
                .unwrap();
        }
        let height = t.stats().unwrap().height as u64;
        assert!(height >= 2);
        let mut seen: Vec<Vec<u8>> = Vec::new();
        let mut leaves = 0;
        loop {
            let last = seen.last().cloned();
            let from = last.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
            let before = seen.len();
            let pins = |p: &BufferPool| p.stats().hits.get() + p.stats().misses.get();
            let before_pins = pins(&pool);
            let ended = t
                .visit_leaf(from, |key, val| {
                    assert_eq!(val.len(), 8);
                    seen.push(key.to_vec());
                    Ok(true)
                })
                .unwrap();
            // one descent; resuming after a leaf's last key lands on that
            // leaf first and steps to its sibling
            let spent = pins(&pool) - before_pins;
            assert!(spent == height || (before > 0 && spent == height + 1));
            assert!(seen.len() > before, "a leaf is never handed out empty");
            leaves += 1;
            if ended {
                break;
            }
        }
        assert!(leaves > 1);
        assert_eq!(seen, (0..n).map(k).collect::<Vec<_>>());
        // past the last key: nothing to visit, and that is the end
        let ended = t.visit_leaf(Bound::Excluded(&k(n - 1)), |_, _| panic!("no entry"));
        assert!(ended.unwrap());
        // a visit that stops early cannot know
        assert!(!t.visit_leaf(Bound::Unbounded, |_, _| Ok(false)).unwrap());
    }

    #[test]
    fn contains_prefix_composite_keys() {
        let (_p, t) = setup();
        // composite (dept, emp) keys
        for (d, e) in [(1i64, 1i64), (1, 2), (3, 1)] {
            let key = encode_values(&[Value::Int(d), Value::Int(e)]);
            t.insert(&key, b"", OnDuplicate::Error).unwrap();
        }
        assert!(t.contains_prefix(&encode_values(&[Value::Int(1)])).unwrap());
        assert!(t.contains_prefix(&encode_values(&[Value::Int(3)])).unwrap());
        assert!(!t.contains_prefix(&encode_values(&[Value::Int(2)])).unwrap());
    }

    #[test]
    fn variable_size_values_and_replace_growth() {
        let (_p, t) = setup();
        // values of wildly different sizes, including replacement growth
        for i in 0..300i64 {
            let val = vec![b'x'; (i as usize * 7) % 900];
            t.insert(&k(i), &val, OnDuplicate::Error).unwrap();
        }
        for i in 0..300i64 {
            let val = vec![b'y'; ((i as usize * 13) % 900) + 1];
            t.insert(&k(i), &val, OnDuplicate::Replace).unwrap();
            assert_eq!(t.get(&k(i)).unwrap().unwrap(), val);
        }
        assert_eq!(t.stats().unwrap().entries, 300);
    }

    #[test]
    fn open_existing_tree() {
        let (pool, t) = setup();
        for i in 0..1000i64 {
            t.insert(&k(i), b"v", OnDuplicate::Error).unwrap();
        }
        let root = t.root();
        drop(t);
        let latches = LatchTable::new();
        let t2 = BTree::open(&pool, root, &latches);
        assert_eq!(t2.get(&k(999)).unwrap().unwrap(), b"v");
        assert_eq!(t2.stats().unwrap().entries, 1000);
    }

    /// Random operation sequences agree with std BTreeMap. Deterministic
    /// seeds replace the old proptest strategy (32 cases preserved); a
    /// failure reproduces exactly from its seed.
    #[test]
    fn randomized_matches_std_btreemap() {
        for seed in 0..32u64 {
            let mut rng = TestRng::new(0xB7EE ^ (seed << 8));
            let (_p, t) = setup();
            let mut shadow = std::collections::BTreeMap::new();
            for _ in 0..rng.index(300) {
                let op = rng.below(3) as u8;
                let key = rng.range_i64(-50, 50);
                let val = rng.bytes(39);
                match op {
                    0 => {
                        let r = t.insert(&k(key), &val, OnDuplicate::Error);
                        if let std::collections::btree_map::Entry::Vacant(e) = shadow.entry(key) {
                            assert!(r.is_ok());
                            e.insert(val);
                        } else {
                            assert!(r.is_err());
                        }
                    }
                    1 => {
                        let got = t.delete(&k(key)).unwrap();
                        assert_eq!(got, shadow.remove(&key));
                    }
                    _ => {
                        let got = t.get(&k(key)).unwrap();
                        assert_eq!(got.as_ref(), shadow.get(&key));
                    }
                }
            }
            // final scan equals shadow iteration
            let mut cur = t.iter_all();
            let mut got = Vec::new();
            while let Some((key, v)) = cur.next().unwrap() {
                got.push((key, v));
            }
            let want: Vec<(Vec<u8>, Vec<u8>)> =
                shadow.iter().map(|(i, v)| (k(*i), v.clone())).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    /// An entry of the split tests: an 8-byte big-endian key, so key
    /// order is `i` order, and a 40-byte value.
    fn entry(i: u64) -> ([u8; 8], [u8; 40]) {
        (i.to_be_bytes(), [i as u8; 40])
    }

    /// Bytes a cell of `entry` takes in a node, its pointer included.
    const ENTRY_CELL: usize = 2 + 4 + 8 + 40;

    /// Free bytes of an empty node: what a page holds.
    fn node_capacity() -> usize {
        let mut p = dmx_page::Page::new();
        Node::init(&mut p, true);
        Node::total_free(&p)
    }

    /// The free bytes of every leaf, left to right along the sibling
    /// links.
    fn leaf_free(t: &BTree) -> Vec<usize> {
        let mut page_no = t.root().page_no;
        loop {
            let pin = t.node(page_no).unwrap();
            let page = pin.read();
            if Node::is_leaf(&page) {
                break;
            }
            page_no = Node::leftmost_child(&page);
        }
        let mut free = Vec::new();
        let mut next = Some(page_no);
        while let Some(page_no) = next {
            let pin = t.node(page_no).unwrap();
            let page = pin.read();
            free.push(Node::total_free(&page));
            next = Node::right_sibling(&page);
        }
        free
    }

    /// The fewest children any internal node at or below `page_no` has
    /// (`usize::MAX` for a leaf).
    fn fewest_children(t: &BTree, page_no: u32) -> usize {
        let pin = t.node(page_no).unwrap();
        let page = pin.read();
        if Node::is_leaf(&page) {
            return usize::MAX;
        }
        let children: Vec<u32> = std::iter::once(Node::leftmost_child(&page))
            .chain((0..Node::nkeys(&page)).map(|i| Node::child(&page, i)))
            .collect();
        drop(page);
        drop(pin);
        children
            .iter()
            .map(|&c| fewest_children(t, c))
            .fold(children.len(), usize::min)
    }

    fn all_keys(t: &BTree) -> Vec<Vec<u8>> {
        let mut cur = t.iter_all();
        let mut keys = Vec::new();
        while let Some((key, _)) = cur.next().unwrap() {
            keys.push(key);
        }
        keys
    }

    /// An ascending load appends past the rightmost key at every split:
    /// the full leaf stays full, so every leaf but the last has no room
    /// for one more entry, and the tree is as small as its entry bytes
    /// allow. An entry past the last key of a leaf that is not the
    /// rightmost still halves it.
    #[test]
    fn an_ascending_load_leaves_every_leaf_but_the_last_full() {
        let (_p, t) = setup();
        let n = 5000u64;
        // even keys, so one fits between any two
        for i in 0..n {
            let (key, val) = entry(2 * i);
            t.insert(&key, &val, OnDuplicate::Error).unwrap();
        }
        let free = leaf_free(&t);
        let (_last, full) = free.split_last().unwrap();
        assert!(full.iter().all(|&f| f < ENTRY_CELL), "{free:?}");
        let st = t.stats().unwrap();
        assert_eq!((st.entries, st.height), (n as usize, 2));
        // packed leaves, and the root above them
        let per_leaf = node_capacity() / ENTRY_CELL;
        let leaves = (n as usize).div_ceil(per_leaf);
        assert!(st.nodes <= leaves + 1, "{st:?}: {leaves} leaves");
        let want: Vec<Vec<u8>> = (0..n).map(|i| entry(2 * i).0.to_vec()).collect();
        assert_eq!(all_keys(&t), want);
        // one past the first leaf's last key
        let (key, val) = entry(2 * per_leaf as u64 - 1);
        t.insert(&key, &val, OnDuplicate::Error).unwrap();
        let free = leaf_free(&t);
        assert_eq!(free.len(), leaves + 1);
        let half = node_capacity() / 2 - 2 * ENTRY_CELL;
        assert!(
            free[..2].iter().all(|&f| node_capacity() - f >= half),
            "{free:?}"
        );
    }

    /// Inserts that are not appends split by bytes as before: a
    /// descending load and a seeded random one leave every leaf but the
    /// last at least half full (less at most an entry either side of the
    /// split), and `iter_all` still hands every key out in order.
    #[test]
    fn descending_and_random_loads_keep_half_full_leaves() {
        let n = 3000u64;
        let mut random: Vec<u64> = (0..n).collect();
        TestRng::new(7).shuffle(&mut random);
        for (load, order) in [("descending", (0..n).rev().collect()), ("random", random)] {
            let (_p, t) = setup();
            for i in order {
                let (key, val) = entry(i);
                t.insert(&key, &val, OnDuplicate::Error).unwrap();
            }
            let free = leaf_free(&t);
            let half = node_capacity() / 2 - 2 * ENTRY_CELL;
            let (_last, rest) = free.split_last().unwrap();
            assert!(rest.len() > 1, "{load}: the load must split");
            assert!(
                rest.iter().all(|&f| node_capacity() - f >= half),
                "{load}: {free:?}"
            );
            let want: Vec<Vec<u8>> = (0..n).map(|i| entry(i).0.to_vec()).collect();
            assert_eq!(all_keys(&t), want, "{load}");
        }
    }

    /// Wide keys give internal nodes a fan-out of 17, so an ascending
    /// load of 1,500 entries splits internal nodes on the rightmost path
    /// at height 3: each split leaves both sides two children or more,
    /// and point reads, cursors and `stats` agree on every entry.
    #[test]
    fn an_internal_append_split_keeps_reads_and_stats_agreeing() {
        let (_p, t) = setup();
        let wide = |i: u64| {
            let mut key = i.to_be_bytes().to_vec();
            key.resize(500, b'.');
            key
        };
        let n = 1500u64;
        for i in 0..n {
            t.insert(&wide(i), &i.to_le_bytes(), OnDuplicate::Error)
                .unwrap();
        }
        let st = t.stats().unwrap();
        assert_eq!(st.entries, n as usize);
        assert!(st.height >= 3, "{st:?}");
        assert!(fewest_children(&t, t.root().page_no) >= 2);
        let free = leaf_free(&t);
        let (_last, full) = free.split_last().unwrap();
        assert!(full.iter().all(|&f| f < 2 + 4 + 500 + 8), "{free:?}");
        for i in (0..n).step_by(37).chain([n - 1]) {
            assert_eq!(t.get(&wide(i)).unwrap().unwrap(), i.to_le_bytes());
            let (key, _) = t.seek(Bound::Included(&wide(i))).unwrap().unwrap();
            assert_eq!(key, wide(i));
            let next = t.cursor_from(Bound::Excluded(wide(i))).next().unwrap();
            assert_eq!(next.map(|(k, _)| k), (i + 1 < n).then(|| wide(i + 1)));
        }
        assert_eq!(all_keys(&t), (0..n).map(wide).collect::<Vec<_>>());
    }

    /// A `Replace` that grows an entry of a packed leaf has no room even
    /// after compaction: the entry comes out and goes back in through a
    /// split — by bytes in the middle or at the front of the tree, an
    /// append for the last entry of the rightmost leaf. Every entry is
    /// still there, in order, with its value.
    #[test]
    fn a_replace_that_grows_an_entry_of_a_packed_leaf_splits_it() {
        let (_p, t) = setup();
        // thirteen leaves' worth: the last leaf is packed too
        let n = (node_capacity() / ENTRY_CELL * 13) as u64;
        let mut model = std::collections::BTreeMap::new();
        for i in 0..n {
            let (key, val) = entry(i);
            t.insert(&key, &val, OnDuplicate::Error).unwrap();
            model.insert(key.to_vec(), val.to_vec());
        }
        let free = leaf_free(&t);
        assert!(free.iter().all(|&f| f < ENTRY_CELL), "{free:?}");
        let leaves = free.len();
        for i in [n / 2, 0, n - 1] {
            let key = entry(i).0;
            let grown = vec![b'g'; 400];
            t.insert(&key, &grown, OnDuplicate::Replace).unwrap();
            model.insert(key.to_vec(), grown);
        }
        assert_eq!(leaf_free(&t).len(), leaves + 3, "one split each");
        assert_eq!(t.stats().unwrap().entries, n as usize);
        let mut cur = t.iter_all();
        let mut got = Vec::new();
        while let Some(kv) = cur.next().unwrap() {
            got.push(kv);
        }
        assert_eq!(got, model.into_iter().collect::<Vec<_>>());
    }
}
