//! Storage-method extensions.
//!
//! Each module implements the [`dmx_core::StorageMethod`] generic
//! interface for one alternative relation storage, per the paper's
//! examples:
//!
//! * [`heap`] — records stored in slotted pages of a disk file; record
//!   keys are record addresses (RIDs). The default recoverable storage.
//! * [`btree_sm`] — "the records of the relation … stored in the leaves
//!   of a B-tree index"; record keys are composed from declared key
//!   fields.
//! * [`memory`] — the base temporary storage method (registered first so
//!   it receives internal identifier **1**, as in the paper); not
//!   recoverable — instances vanish at restart.
//! * [`readonly`] — a write-once "database publishing" storage method for
//!   the paper's read-only optical disk scenario: bulk append, no updates
//!   or deletes, densely packed pages.
//! * [`foreign`] — "access to a foreign database by simulating relation
//!   accesses via (remote) accesses to relations in the foreign
//!   database": operations count simulated round trips; undo is by
//!   compensating remote operations.
//! * [`system`] — observability as an extension: publishes live engine
//!   state (metrics, catalog, locks, traces, incidents) as the read-only
//!   `sys.*` relations.
//!
//! [`register_builtin_storage`] installs all six in the paper's order.

pub mod btree_sm;
pub mod foreign;
pub mod heap;
pub mod memory;
pub mod readonly;
pub mod system;
pub mod util;

use std::sync::Arc;

use dmx_core::ExtensionRegistry;
use dmx_types::Result;

pub use btree_sm::BTreeStorage;
pub use foreign::{ForeignStorage, RemoteServer};
pub use heap::HeapStorage;
pub use memory::MemoryStorage;
pub use readonly::ReadOnlyStorage;
pub use system::SystemStorage;

/// Registers the built-in storage methods "at the factory". The
/// temporary (memory) storage method is registered first and therefore
/// gets type id 1, matching the paper's example.
pub fn register_builtin_storage(registry: &ExtensionRegistry) -> Result<()> {
    registry.register_storage_method(Arc::new(MemoryStorage::default()))?;
    registry.register_storage_method(Arc::new(HeapStorage))?;
    registry.register_storage_method(Arc::new(BTreeStorage))?;
    registry.register_storage_method(Arc::new(ReadOnlyStorage))?;
    registry.register_storage_method(Arc::new(ForeignStorage::default()))?;
    registry.register_storage_method(Arc::new(SystemStorage))?;
    Ok(())
}
