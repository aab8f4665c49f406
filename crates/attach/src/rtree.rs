//! The R-tree spatial access path (Guttman '84).
//!
//! The paper's motivating example: "spatial database applications can
//! make use of an R-tree access path to efficiently compute certain
//! spatial predicates", and its cost-estimation example: "the R-tree
//! access path will recognize the ENCLOSES predicate and report a low
//! cost."
//!
//! Nodes are slotted pages; inner entries are `(bounding rect, child
//! page)`, leaf entries `(rect, record key)`. Insertion follows Guttman:
//! choose-leaf by least enlargement, quadratic split, bounding-rect
//! adjustment up the path. Deletion removes the leaf entry without
//! condensing (bounding rects stay conservative — correct, just looser).
//! The root page number is fixed for the life of the tree.

use std::ops::Deref;
use std::sync::Arc;

use dmx_btree::{LatchTable, TreeLatch};
use dmx_core::logged_tree;
use dmx_core::{
    AccessPath, AccessQuery, Attachment, AttachmentInstance, CommonServices, Cost, ExecCtx,
    LoggedTarget, LoggedTree, Modification, PathChoice, RelationDescriptor, Replay, ScanItem,
    ScanOps, SpatialOp, TreeFile, ASSIGNED_KEYS,
};
use dmx_expr::{analyze, Expr, SargOp};
use dmx_page::{BufferPool, Page, PageWrite, SlottedPage};
use dmx_types::{
    Appended, AttrList, DataType, DmxError, FieldId, FileId, Lsn, PageId, Record, RecordKey, Rect,
    Result, Value,
};

use crate::common::parse_fields;

/// Page type tags.
pub const PAGE_TYPE_RTREE_LEAF: u8 = 5;
pub const PAGE_TYPE_RTREE_INNER: u8 = 6;

/// Minimum fill used by the quadratic split (fraction of entries).
const MIN_FILL_DIV: usize = 4;

/// The R-tree index attachment type.
pub struct RTreeIndex;

const WHO: &str = "rtree index";

/// An R-tree instance as its attribute list describes it.
#[derive(Debug, Clone, PartialEq)]
pub struct RtDesc {
    pub tree: TreeFile,
    pub rect_field: FieldId,
}

impl RtDesc {
    /// The one parser: `fields` names exactly one RECT column; the tree
    /// once assigned.
    fn from_attrs(rd: &RelationDescriptor, attrs: &AttrList) -> Result<RtDesc> {
        attrs
            .without(&ASSIGNED_KEYS)
            .check_allowed(&["fields"], WHO)?;
        let rect_field = match parse_fields(attrs, "fields", WHO, &rd.schema)?[..] {
            [f] if rd.schema.column(f)?.data_type == DataType::Rect => f,
            _ => {
                return Err(DmxError::InvalidArg(
                    "rtree index takes one RECT field".into(),
                ))
            }
        };
        let [tree] = TreeFile::assigned(attrs)?;
        Ok(RtDesc { tree, rect_field })
    }

    fn of(rd: &RelationDescriptor, inst: &AttachmentInstance) -> Result<Arc<RtDesc>> {
        inst.parsed(|attrs| Self::from_attrs(rd, attrs))
    }
}

// ---------------------------------------------------------------------
// node helpers (entries live in slotted pages)
// ---------------------------------------------------------------------

fn entry_rect(data: &[u8]) -> Result<Rect> {
    Rect::from_bytes(data).ok_or_else(|| DmxError::Corrupt("short rtree entry".into()))
}

fn entry_payload(data: &[u8]) -> &[u8] {
    data.get(32..).unwrap_or_else(|| {
        debug_assert!(false, "rtree entry shorter than its rect header");
        &[]
    })
}

fn make_entry(rect: &Rect, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(32 + payload.len());
    v.extend_from_slice(&rect.to_bytes());
    v.extend_from_slice(payload);
    v
}

fn child_of(data: &[u8]) -> u32 {
    match entry_payload(data).get(..4).and_then(|s| s.try_into().ok()) {
        Some(b) => u32::from_le_bytes(b),
        None => {
            debug_assert!(false, "rtree branch entry without a child pointer");
            u32::MAX
        }
    }
}

fn is_leaf(page: &Page) -> bool {
    page.page_type() == PAGE_TYPE_RTREE_LEAF
}

fn entries(page: &Page) -> Vec<Vec<u8>> {
    SlottedPage::live_slots(page)
        .into_iter()
        .filter_map(|s| SlottedPage::get(page, s).map(|d| d.to_vec()))
        .collect()
}

/// `(slot, data)` pairs for every live slot. A slot reported live whose
/// payload has vanished indicates a corrupt page; it is skipped rather
/// than panicked on.
fn live_entries(page: &Page) -> impl Iterator<Item = (u16, &[u8])> {
    SlottedPage::live_slots(page)
        .into_iter()
        .filter_map(move |s| SlottedPage::get(page, s).map(|d| (s, d)))
}

fn bounds(page: &Page) -> Result<Option<Rect>> {
    let mut acc: Option<Rect> = None;
    for (_, d) in live_entries(page) {
        let r = entry_rect(d)?;
        acc = Some(match acc {
            None => r,
            Some(a) => a.union(&r),
        });
    }
    Ok(acc)
}

/// The two entry groups produced by a node split.
type SplitGroups = (Vec<Vec<u8>>, Vec<Vec<u8>>);

/// Guttman's quadratic split: distributes `items` into two groups.
fn quadratic_split(items: Vec<Vec<u8>>) -> Result<SplitGroups> {
    let n = items.len();
    debug_assert!(n >= 2);
    let rects: Vec<Rect> = items
        .iter()
        .map(|e| entry_rect(e))
        .collect::<Result<Vec<_>>>()?;
    // pick seeds: the pair wasting the most area
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::MIN);
    for i in 0..n {
        for j in i + 1..n {
            let waste = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let min_fill = (n / MIN_FILL_DIV).max(1);
    let mut g1: Vec<usize> = vec![s1];
    let mut g2: Vec<usize> = vec![s2];
    let (mut r1, mut r2) = (rects[s1], rects[s2]);
    let mut rest: Vec<usize> = (0..n).filter(|&i| i != s1 && i != s2).collect();
    while !rest.is_empty() {
        // force-assign when a group must take everything left
        if g1.len() + rest.len() <= min_fill {
            g1.append(&mut rest);
            break;
        }
        if g2.len() + rest.len() <= min_fill {
            g2.append(&mut rest);
            break;
        }
        // pick the entry with the greatest preference difference
        let (pos, _) = rest
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                let d1 = r1.enlargement(&rects[i]);
                let d2 = r2.enlargement(&rects[i]);
                (pos, (d1 - d2).abs())
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((0, 0.0)); // rest is non-empty: position 0 exists
        let i = rest.swap_remove(pos);
        let (d1, d2) = (r1.enlargement(&rects[i]), r2.enlargement(&rects[i]));
        if d1 < d2 || (d1 == d2 && r1.area() <= r2.area()) {
            g1.push(i);
            r1 = r1.union(&rects[i]);
        } else {
            g2.push(i);
            r2 = r2.union(&rects[i]);
        }
    }
    let pick = |idx: &[usize]| idx.iter().map(|&i| items[i].clone()).collect::<Vec<_>>();
    Ok((pick(&g1), pick(&g2)))
}

fn write_entries(page: &mut PageWrite<'_>, page_type: u8, items: &[Vec<u8>]) -> Result<()> {
    SlottedPage::init(page);
    page.set_page_type(page_type);
    for e in items {
        SlottedPage::insert(page, e)
            .ok_or_else(|| DmxError::Internal("rtree entries exceed page".into()))?;
    }
    Ok(())
}

/// A handle to one R-tree, for reading; changes go through the
/// [`RTreeWriter`] of [`RTree::with_wal_lsn`].
#[derive(Clone)]
pub struct RTree {
    pool: Arc<BufferPool>,
    root: PageId,
    latch: Arc<TreeLatch>,
}

/// An R-tree that may change: every page a mutation dirties carries the
/// LSN of the log record the change is part of (the protocol of
/// [`dmx_btree::BTreeWriter`]). Reads go through to the [`RTree`].
#[derive(Clone)]
pub struct RTreeWriter {
    tree: RTree,
    at: Appended,
}

impl RTree {
    /// Allocates a new empty tree (leaf root) in `file`: the root is a
    /// page fresh from the pool, formatted unlogged.
    pub fn create(pool: &Arc<BufferPool>, file: FileId, latches: &LatchTable) -> Result<RTree> {
        let pin = pool.new_page(file)?;
        let mut page = pin.format();
        SlottedPage::init(&mut page);
        page.set_page_type(PAGE_TYPE_RTREE_LEAF);
        Ok(RTree::open(pool, pin.id(), latches))
    }

    /// Opens an existing tree.
    pub fn open(pool: &Arc<BufferPool>, root: PageId, latches: &LatchTable) -> RTree {
        RTree {
            pool: pool.clone(),
            root,
            latch: latches.latch(root),
        }
    }

    /// The writer of this tree inside the change whose log record `at`
    /// is.
    pub fn with_wal_lsn(&self, at: Appended) -> RTreeWriter {
        RTreeWriter {
            tree: self.clone(),
            at,
        }
    }

    /// The fixed root page.
    pub fn root(&self) -> PageId {
        self.root
    }

    fn page(&self, page_no: u32) -> Result<dmx_page::PinnedPage> {
        self.pool.fetch(PageId::new(self.root.file, page_no))
    }

    /// True when an entry with exactly `(rect, payload)` exists.
    pub fn contains(&self, rect: &Rect, payload: &[u8]) -> Result<bool> {
        let _g = self.latch.read();
        self.contains_rec(self.root.page_no, rect, payload)
    }

    fn contains_rec(&self, page_no: u32, rect: &Rect, payload: &[u8]) -> Result<bool> {
        let pin = self.page(page_no)?;
        let page = pin.read();
        if is_leaf(&page) {
            for (_, d) in live_entries(&page) {
                if entry_rect(d)? == *rect && entry_payload(d) == payload {
                    return Ok(true);
                }
            }
            return Ok(false);
        }
        let children: Vec<u32> = live_entries(&page)
            .filter_map(|(_, d)| match entry_rect(d) {
                Ok(r) if r.encloses(rect) => Some(child_of(d)),
                _ => None,
            })
            .collect();
        drop(page);
        drop(pin);
        for c in children {
            if self.contains_rec(c, rect, payload)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Collects every `(rect, payload)` satisfying the spatial predicate.
    pub fn search(&self, op: SpatialOp, q: &Rect) -> Result<Vec<(Rect, Vec<u8>)>> {
        let _g = self.latch.read();
        let mut out = Vec::new();
        self.search_rec(self.root.page_no, op, q, &mut out)?;
        Ok(out)
    }

    /// Collects every entry (full scan).
    pub fn all(&self) -> Result<Vec<(Rect, Vec<u8>)>> {
        self.search(
            SpatialOp::Intersects,
            &Rect::new(f64::MIN, f64::MIN, f64::MAX, f64::MAX),
        )
    }

    fn search_rec(
        &self,
        page_no: u32,
        op: SpatialOp,
        q: &Rect,
        out: &mut Vec<(Rect, Vec<u8>)>,
    ) -> Result<()> {
        let pin = self.page(page_no)?;
        let page = pin.read();
        let leaf = is_leaf(&page);
        let mut descend = Vec::new();
        for (_, d) in live_entries(&page) {
            let r = entry_rect(d)?;
            if leaf {
                let hit = match op {
                    SpatialOp::Encloses => r.encloses(q),
                    SpatialOp::EnclosedBy => q.encloses(&r),
                    SpatialOp::Intersects => r.intersects(q),
                };
                if hit {
                    out.push((r, entry_payload(d).to_vec()));
                }
            } else {
                // pruning: a subtree can contain an enclosing record only
                // if its bounding rect itself encloses q; the other ops
                // only need overlap
                let visit = match op {
                    SpatialOp::Encloses => r.encloses(q),
                    SpatialOp::EnclosedBy | SpatialOp::Intersects => r.intersects(q),
                };
                if visit {
                    descend.push(child_of(d));
                }
            }
        }
        drop(page);
        drop(pin);
        for c in descend {
            self.search_rec(c, op, q, out)?;
        }
        Ok(())
    }

    /// Number of entries (diagnostics).
    pub fn len(&self) -> Result<usize> {
        Ok(self.all()?.len())
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

impl Deref for RTreeWriter {
    type Target = RTree;
    fn deref(&self) -> &RTree {
        &self.tree
    }
}

impl RTreeWriter {
    /// Inserts `(rect, payload)`.
    pub fn insert(&self, rect: &Rect, payload: &[u8]) -> Result<()> {
        let _g = self.latch.write();
        if let Some(new_page) = self.insert_rec(self.root.page_no, rect, payload)? {
            self.grow_root(new_page)?;
        }
        Ok(())
    }

    fn insert_rec(&self, page_no: u32, rect: &Rect, payload: &[u8]) -> Result<Option<u32>> {
        let pin = self.page(page_no)?;
        let leaf = is_leaf(&pin.read());
        if leaf {
            let entry = make_entry(rect, payload);
            let mut page = pin.write(self.at);
            if SlottedPage::insert(&mut page, &entry).is_some() {
                return Ok(None);
            }
            // split
            let mut items = entries(&page);
            items.push(entry);
            let (a, b) = quadratic_split(items)?;
            write_entries(&mut page, PAGE_TYPE_RTREE_LEAF, &a)?;
            drop(page);
            let new_pin = self.pool.new_page(self.root.file)?;
            let mut new_page = new_pin.write(self.at);
            write_entries(&mut new_page, PAGE_TYPE_RTREE_LEAF, &b)?;
            return Ok(Some(new_pin.id().page_no));
        }
        // choose subtree: least enlargement, ties by area
        let (slot, child) = {
            let page = pin.read();
            let mut best: Option<(u16, u32, f64, f64)> = None;
            for (s, data) in live_entries(&page) {
                let r = entry_rect(data)?;
                let enl = r.enlargement(rect);
                let area = r.area();
                let better = match &best {
                    None => true,
                    Some((_, _, be, ba)) => enl < *be || (enl == *be && area < *ba),
                };
                if better {
                    best = Some((s, child_of(data), enl, area));
                }
            }
            let (s, c, _, _) = best.ok_or_else(|| DmxError::Corrupt("empty inner node".into()))?;
            (s, c)
        };
        let split = self.insert_rec(child, rect, payload)?;
        // refresh the child's bounding rect
        let child_bounds = {
            let cpin = self.page(child)?;
            let b = bounds(&cpin.read())?;
            b.ok_or_else(|| DmxError::Corrupt("empty rtree child".into()))?
        };
        let mut page = pin.write(self.at);
        SlottedPage::update(
            &mut page,
            slot,
            &make_entry(&child_bounds, &child.to_le_bytes()),
        )?;
        let Some(new_child) = split else {
            return Ok(None);
        };
        let new_bounds = {
            let cpin = self.page(new_child)?;
            let b = bounds(&cpin.read())?;
            b.ok_or_else(|| DmxError::Corrupt("empty rtree split".into()))?
        };
        let new_entry = make_entry(&new_bounds, &new_child.to_le_bytes());
        if SlottedPage::insert(&mut page, &new_entry).is_some() {
            return Ok(None);
        }
        // split this inner node
        let mut items = entries(&page);
        items.push(new_entry);
        let (a, b) = quadratic_split(items)?;
        write_entries(&mut page, PAGE_TYPE_RTREE_INNER, &a)?;
        drop(page);
        let new_pin = self.pool.new_page(self.root.file)?;
        let mut new_page = new_pin.write(self.at);
        write_entries(&mut new_page, PAGE_TYPE_RTREE_INNER, &b)?;
        Ok(Some(new_pin.id().page_no))
    }

    /// After a root split: move the root's content into a fresh sibling
    /// and make the root an inner node over both.
    fn grow_root(&self, new_page: u32) -> Result<()> {
        let root_pin = self.page(self.root.page_no)?;
        let left_pin = self.pool.new_page(self.root.file)?;
        left_pin.write(self.at).copy_from(&root_pin.read());
        let left_bounds =
            bounds(&left_pin.read())?.ok_or_else(|| DmxError::Corrupt("empty root copy".into()))?;
        let right_bounds = {
            let p = self.page(new_page)?;
            let b = bounds(&p.read())?;
            b.ok_or_else(|| DmxError::Corrupt("empty new sibling".into()))?
        };
        let mut root = root_pin.write(self.at);
        write_entries(
            &mut root,
            PAGE_TYPE_RTREE_INNER,
            &[
                make_entry(&left_bounds, &left_pin.id().page_no.to_le_bytes()),
                make_entry(&right_bounds, &new_page.to_le_bytes()),
            ],
        )?;
        Ok(())
    }

    /// Removes the entry with exactly `(rect, payload)`. Returns whether
    /// it was found.
    pub fn delete(&self, rect: &Rect, payload: &[u8]) -> Result<bool> {
        let _g = self.latch.write();
        self.delete_rec(self.root.page_no, rect, payload)
    }

    fn delete_rec(&self, page_no: u32, rect: &Rect, payload: &[u8]) -> Result<bool> {
        let pin = self.page(page_no)?;
        if is_leaf(&pin.read()) {
            let target = {
                let page = pin.read();
                let found = live_entries(&page)
                    .find(|&(_, d)| {
                        entry_rect(d).map(|r| r == *rect).unwrap_or(false)
                            && entry_payload(d) == payload
                    })
                    .map(|(s, _)| s);
                found
            };
            if let Some(s) = target {
                let mut page = pin.write(self.at);
                SlottedPage::delete(&mut page, s);
                return Ok(true);
            }
            return Ok(false);
        }
        let children: Vec<u32> = {
            let page = pin.read();
            live_entries(&page)
                .filter_map(|(_, d)| match entry_rect(d) {
                    Ok(r) if r.encloses(rect) => Some(child_of(d)),
                    _ => None,
                })
                .collect()
        };
        drop(pin);
        for c in children {
            if self.delete_rec(c, rect, payload)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Keys are whole leaf entries (`rect ∥ record key`); the image only says
/// whether the entry is present. Presence-checked, because the tree would
/// otherwise hold an entry twice when a replay meets one already there.
impl LoggedTarget for RTree {
    fn root(&self) -> PageId {
        self.root
    }

    fn image(&self, entry: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self
            .contains(&entry_rect(entry)?, entry_payload(entry))?
            .then(Vec::new))
    }

    fn install_image(&self, at: Appended, entry: &[u8], image: Option<&[u8]>) -> Result<()> {
        let tree = self.with_wal_lsn(at);
        let rect = entry_rect(entry)?;
        let rkey = entry_payload(entry);
        match image {
            Some(_) if tree.contains(&rect, rkey)? => Ok(()),
            Some(_) => tree.insert(&rect, rkey),
            None => tree.delete(&rect, rkey).map(drop),
        }
    }
}

// ---------------------------------------------------------------------
// the attachment
// ---------------------------------------------------------------------

impl RTreeIndex {
    fn tree(services: &Arc<CommonServices>, file: TreeFile) -> RTree {
        RTree::open(&services.pool, file.root(), &services.latches)
    }

    /// The two halves of a record's leaf entry `rect ∥ record key` (the
    /// key it is logged under, with an empty image); `None` when its
    /// rectangle is NULL.
    fn entry<'a>(
        d: &RtDesc,
        (rkey, record): (&'a RecordKey, &Record),
    ) -> Result<Option<(Rect, &'a RecordKey)>> {
        match record.values.get(d.rect_field as usize) {
            Some(Value::Rect(r)) => Ok(Some((*r, rkey))),
            Some(Value::Null) => Ok(None), // NULL rectangles are not indexed
            Some(other) => Err(DmxError::TypeMismatch(format!(
                "rtree field holds {other}, expected RECT"
            ))),
            None => Err(DmxError::InvalidArg("rtree field out of range".into())),
        }
    }
}

impl Attachment for RTreeIndex {
    fn name(&self) -> &str {
        "rtree"
    }

    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<AttrList> {
        RtDesc::from_attrs(rd, params)?;
        let services = ctx.services();
        let file = services.disk.create_file()?;
        let tree = RTree::create(&services.pool, file, &services.latches)?;
        let root_page = tree.root().page_no;
        TreeFile::assign(&[TreeFile { file, root_page }], params)
    }

    fn on_modify(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        m: &Modification<'_>,
    ) -> Result<()> {
        for inst in instances {
            let d = RtDesc::of(rd, inst)?;
            let old = m.old().map(|side| Self::entry(&d, side)).transpose()?;
            let new = m.new().map(|side| Self::entry(&d, side)).transpose()?;
            if old == new {
                continue;
            }
            let index = LoggedTree::attachment(ctx, rd, inst, Self::tree(ctx.services(), d.tree));
            if let Some((rect, rkey)) = old.flatten() {
                if index.tree().contains(&rect, rkey.as_bytes())? {
                    index.apply(&make_entry(&rect, rkey.as_bytes()), Some(&[]), None)?;
                }
            }
            if let Some((rect, rkey)) = new.flatten() {
                index.apply(&make_entry(&rect, rkey.as_bytes()), None, Some(&[]))?;
            }
        }
        Ok(())
    }

    fn replay(
        &self,
        services: &Arc<CommonServices>,
        _rd: &RelationDescriptor,
        _lsn: Lsn,
        dir: Replay<'_>,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        let (file, change) = TreeFile::named_by(payload)?;
        logged_tree::replay(&Self::tree(services, file), dir, op, change).map(drop)
    }

    fn open_scan(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        query: &AccessQuery,
    ) -> Result<Box<dyn ScanOps>> {
        let tree = Self::tree(ctx.services(), RtDesc::of(rd, instance)?.tree);
        let results = match query {
            AccessQuery::Spatial(op, rect) => tree.search(*op, rect)?,
            AccessQuery::All => tree.all()?,
            _ => {
                return Err(DmxError::Unsupported(
                    "rtree serves spatial queries only".into(),
                ))
            }
        };
        Ok(Box::new(RtScan { results, pos: 0 }))
    }

    fn estimate(
        &self,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        preds: &[Expr],
    ) -> Option<PathChoice> {
        let d = RtDesc::of(rd, instance).ok()?;
        // recognize the spatial predicates on our field
        let (op, rect, applied) = preds.iter().find_map(|p| {
            let s = analyze::sargable(p)?;
            if s.field != d.rect_field {
                return None;
            }
            let (op, v) = match &s.op {
                SargOp::Encloses(v) => (SpatialOp::Encloses, v),
                SargOp::EnclosedBy(v) => (SpatialOp::EnclosedBy, v),
                SargOp::Intersects(v) => (SpatialOp::Intersects, v),
                _ => return None,
            };
            let rect = v.as_rect().ok()?;
            Some((op, rect, p.clone()))
        })?;
        let records = rd.stats.records();
        // spatial predicates are typically highly selective (~1%)
        let rows = (records as f64 * 0.01).max(1.0);
        let height = (records.max(2) as f64).log2() / 6.0 + 1.0;
        Some(PathChoice {
            path: AccessPath::Attachment(instance.att, instance.instance),
            query: AccessQuery::Spatial(op, rect),
            cost: Cost::new(height + rows / 50.0, rows),
            rows_out: rows,
            covered: Some(vec![d.rect_field]),
            applied: vec![applied],
            ordering: None,
        })
    }
}

/// Spatial scans materialize their result keys at open (R-tree positions
/// are not byte-ordered); the saved position is the cursor offset.
struct RtScan {
    results: Vec<(Rect, Vec<u8>)>,
    pos: usize,
}

impl ScanOps for RtScan {
    fn next(&mut self, _ctx: &ExecCtx<'_>) -> Result<Option<ScanItem>> {
        let Some((rect, rkey)) = self.results.get(self.pos) else {
            return Ok(None);
        };
        self.pos += 1;
        Ok(Some(ScanItem {
            key: RecordKey::new(rkey.clone()),
            values: Some(vec![Value::Rect(*rect)]),
        }))
    }

    fn save_position(&self) -> Vec<u8> {
        (self.pos as u64).to_le_bytes().to_vec()
    }

    fn restore_position(&mut self, pos: &[u8]) -> Result<()> {
        let arr: [u8; 8] = pos
            .try_into()
            .map_err(|_| DmxError::Corrupt("bad rtree scan position".into()))?;
        self.pos = u64::from_le_bytes(arr) as usize;
        Ok(())
    }
}
