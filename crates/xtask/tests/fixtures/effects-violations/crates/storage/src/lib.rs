//! Violation fixture for the interprocedural effect rules: the PR 3
//! tree-attachment bug shape (mutate before log), a lock-order
//! inversion, and device I/O under a live latch guard.

pub struct BadIndex;

impl BadIndex {
    /// The pre-fix PR 3 bug shape against the logged-tree call shape:
    /// the raw probe handle is mutated before the logged operation
    /// appends the attachment's record, and no page it dirties carries
    /// the record's LSN. Rule 8 must flag both defects.
    pub fn on_modify(&self, ctx: &Ctx) -> Result<()> {
        let index = LoggedTree::attachment(ctx, file.open_tree(ctx.services()));
        let tree = index.tree();
        tree.insert(b"k")?;
        index.apply(b"k", None, Some(b"v"))
    }
}

pub struct BadStore;

impl BadStore {
    /// Helper dirties unlogged; the entry appends only afterwards, so
    /// the caller never dominates the mutation.
    fn scribble(pool: &Pool) -> Result<()> {
        let mut page = pool.page();
        SlottedPage::insert_at(&mut page, 0, b"r")?;
        page.set_lsn(Lsn(0));
        Ok(())
    }

    pub fn insert(&self, ctx: &Ctx) -> Result<()> {
        Self::scribble(&ctx.pool())?;
        ctx.log_ext_op(0, 0);
        Ok(())
    }
}

pub struct BadDb;

impl BadDb {
    /// Fine-to-coarse: a record lock is held when the catalog lock is
    /// requested, inverting the declared hierarchy.
    pub fn ddl(&self, ctx: &Ctx) -> Result<()> {
        ctx.lock_record(rel, b"k", X)?;
        ctx.lock(LockName::Catalog, X)?;
        Ok(())
    }

    /// The `let`-bound guard lives to the end of the function block, so
    /// the flush runs under it.
    pub fn commit(&self) -> Result<()> {
        let _g = self.latch.write();
        self.pool.flush_all()
    }
}

pub struct BadScan;

impl BadScan {
    /// Locks each record while the page it was read from is still
    /// guarded: a lock wait under a page guard, the hierarchy inverted.
    pub fn next_frame(&mut self, ctx: &Ctx, frame: &mut Frame) -> Result<()> {
        let pin = ctx.pool().fetch(self.page)?;
        let page = pin.read();
        for slot in 0..page.slots() {
            ctx.lock_record(self.rel, page.key(slot), S)?;
            frame.push_back(page.item(slot));
        }
        Ok(())
    }
}

pub struct BadFilter;

impl BadFilter {
    /// Takes the evaluator — the function registry's read guard — and
    /// pulls under it: the input takes the same guard again, and a
    /// registration waiting between the two wedges both.
    pub fn next_frame(&mut self, ctx: &Ctx, frame: &mut Rows) -> Result<()> {
        let eval = ctx.evaluator();
        self.input.next_frame(ctx, frame)?;
        frame.retain(|row| eval.matches(self.pred, row));
        Ok(())
    }
}
