//! Paged storage substrate: a simulated disk, slotted pages and a buffer
//! pool.
//!
//! The paper's experiments ran against real 1987 disks; we substitute a
//! [`disk::MemDisk`] that counts every read, write and allocation
//! ([`disk::IoStats`]) so the cost-estimation experiments can report I/O
//! counts, and that supports a *simulated crash*: the disk image survives
//! while all volatile state (buffer pool, transaction tables) is dropped.
//!
//! The [`buffer::BufferPool`] implements a **steal / no-force** policy
//! (DESIGN.md §6): eviction may write back a dirty page belonging to an
//! in-flight transaction after forcing the write-ahead log up to the
//! page's stamped LSN through an installed [`buffer::WalHook`], and
//! commit forces only the log — [`buffer::BufferPool::flush_all`] remains
//! for checkpoints. The pool is the only page writer.
//!
//! Write-ahead is a property of the types: a pooled page changes only
//! through a [`PageWrite`], which [`PinnedPage::write`] hands out against
//! a [`dmx_types::Appended`] token and stamps with its LSN, and which the
//! [`SlottedPage`] mutators require. A page fresh from
//! [`BufferPool::new_page`] may be formatted unlogged
//! ([`FreshPage::format`]).
//!
//! Page guards count as latches for the debug-build checks of
//! [`dmx_types::held`]: no lock request, explicit device operation
//! ([`BufferPool::flush_all`], [`BufferPool::flush_file`], file creation
//! and deletion) or scan pull under one. The pool's own miss and steal
//! I/O — and the log force it makes through the [`WalHook`] — are the
//! exception: a fetch may miss, and a miss may steal, under any latch.

// This crate defines `MemDisk` and its fault-aware wrapper, so it builds
// the raw disk that `clippy.toml` denies everywhere else.
#![allow(clippy::disallowed_methods)]

pub mod buffer;
pub mod disk;
pub mod fault;
pub mod page;
pub mod slotted;

pub use buffer::{BufferPool, ExclusivePage, FreshPage, PageRead, PageWrite, PinnedPage, WalHook};
pub use disk::{DiskManager, IoSnapshot, IoStats, MemDisk};
pub use fault::FaultDisk;
pub use page::{Page, PAGE_SIZE};
pub use slotted::SlottedPage;
