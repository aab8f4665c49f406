//! Clean fixture for the interprocedural effect rules: every entry
//! point appends its WAL record before the page mutation completes,
//! every dirtied page is stamped, lock acquisition follows the declared
//! hierarchy, and no device I/O runs under a live latch guard.

/// Heap-shaped helper: dirties and stamps, WAL coverage comes from the
/// caller's closure (the append completes before this call does).
pub fn append_record(pool: &Pool, log: impl Fn(u32, u16) -> Lsn) -> Result<()> {
    let mut page = pool.page();
    SlottedPage::insert_at(&mut page, 0, b"r")?;
    let lsn = log(0, 0);
    page.set_lsn(lsn);
    Ok(())
}

pub struct GoodStore;

impl GoodStore {
    /// Entry point: the append happens inside `append_record`'s logging
    /// closure, strictly before the mutation applies.
    pub fn insert(&self, ctx: &Ctx) -> Result<()> {
        append_record(&ctx.pool(), |p, s| ctx.log_ext_op(p, s))
    }
}

pub struct LoggedTree;

impl LoggedTree {
    /// The one forward path of tree-backed extensions: append, then
    /// install with every dirtied page stamped from the record's LSN.
    pub fn apply(&self, key: &[u8], before: Option<&[u8]>, after: Option<&[u8]>) -> Result<()> {
        let lsn = self.ctx.log_ext_op(key, before, after);
        self.tree.install_image(lsn, key, after)
    }

    /// The one read-modify-write of a maintained cell: lock, read,
    /// decide, then the logged operation.
    pub fn update_cell(&self, key: &[u8], decide: impl FnOnce() -> Image) -> Result<()> {
        self.ctx.lock_record(self.relation, key, X)?;
        let before = self.tree.get(key)?;
        self.apply(key, before, decide())
    }
}

pub struct GoodIndex;

impl GoodIndex {
    /// Attachment entry: probe through the raw handle, change only
    /// through the logged operation.
    pub fn on_modify(&self, ctx: &Ctx) -> Result<()> {
        let index = LoggedTree::attachment(ctx, file.open_tree(ctx.services()));
        if index.tree().get(b"k")?.is_some() {
            return Ok(());
        }
        index.apply(b"k", None, Some(b"v"))
    }
}

pub struct GoodDb;

impl GoodDb {
    /// Locks strictly coarse-to-fine.
    pub fn ddl(&self, ctx: &Ctx) -> Result<()> {
        ctx.lock(LockName::Catalog, X)?;
        ctx.lock(LockName::Relation(rel), X)?;
        ctx.lock_record(rel, b"k", X)?;
        Ok(())
    }

    /// The latch guard dies with its block before the flush starts.
    pub fn commit(&self) -> Result<()> {
        {
            let _g = self.latch.write();
            self.quiesce();
        }
        self.pool.flush_all()
    }
}

pub struct GoodScan;

impl GoodScan {
    /// Fills the frame under the page guard and takes no lock there:
    /// the guard's block ends before the scan's one lock is requested.
    pub fn next_frame(&mut self, ctx: &Ctx, frame: &mut Frame) -> Result<()> {
        {
            let pin = ctx.pool().fetch(self.page)?;
            let page = pin.read();
            for slot in 0..page.slots() {
                frame.push_back(page.item(slot));
            }
        }
        ctx.lock_record(self.rel, b"boundary", S)
    }
}

pub struct GoodFilter;

impl GoodFilter {
    /// Pulls its input's frame first and takes the evaluator after: the
    /// guard lives for the filtering of one frame and no pull.
    pub fn next_frame(&mut self, ctx: &Ctx, frame: &mut Rows) -> Result<()> {
        self.input.next_frame(ctx, frame)?;
        let eval = ctx.evaluator();
        frame.retain(|row| eval.matches(self.pred, row));
        Ok(())
    }
}
