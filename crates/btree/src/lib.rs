//! A page-based B+tree over the buffer pool.
//!
//! Keys are arbitrary byte strings compared with `memcmp` (the
//! order-preserving encoding in `dmx_types::key` makes that equal to value
//! order); values are arbitrary byte strings. The same structure backs
//! two extensions: the B-tree *storage method* (records stored in the
//! leaves, per the paper's "records … stored in the leaves of a B-tree
//! index") and the B-tree *index attachment* (leaf values are storage
//! method record keys).
//!
//! Design notes:
//! * The root page number is fixed for the life of the tree (root splits
//!   copy the old root into a fresh child), so descriptors can store it.
//! * Deletion is by tombstoning within nodes without rebalancing (lazy
//!   deletion, as many production B-trees do); pages reclaim dead space by
//!   compaction on demand.
//! * Cursors re-descend from the last returned key on every step, which
//!   makes scan positions naturally robust to concurrent inserts, splits
//!   and deletes — matching the paper's scan rule that a scan positioned
//!   *on* a deleted item is thereafter *after* it.
//! * Physical concurrency is handled by a per-tree reader/writer latch
//!   ([`latch::LatchTable`]); logical concurrency (who may see what) is
//!   the lock manager's job, one level up.
//! * No logging happens here: the owning extension logs the change
//!   (`LoggedTree::apply` in `dmx-core`) and changes the tree through the
//!   writer [`BTree::with_wal_lsn`] makes of the log's token, which
//!   stamps every page it dirties with the record's LSN. A [`BTree`]
//!   itself only reads:
//!
//! ```compile_fail
//! # use std::sync::Arc;
//! # use dmx_btree::{BTree, LatchTable, OnDuplicate};
//! # use dmx_page::{BufferPool, DiskManager, MemDisk};
//! # let disk = Arc::new(MemDisk::new());
//! # let pool = BufferPool::new(disk.clone(), 16);
//! # let latches = LatchTable::new();
//! # let root = BTree::create(&pool, disk.create_file()?, &latches)?.root();
//! let tree = BTree::open(&pool, root, &latches);
//! tree.insert(b"k", b"v", OnDuplicate::Error)?; // mutated before it is logged
//! # Ok::<(), dmx_types::DmxError>(())
//! ```

pub mod latch;
pub mod node;
pub mod tree;

pub use latch::{LatchTable, TreeLatch};
pub use tree::{BTree, BTreeCursor, BTreeWriter, OnDuplicate, TreeStats};
