//! Attachment extensions.
//!
//! Each module implements the [`dmx_core::Attachment`] generic interface
//! for one attachment type from the paper's list ("B-tree indexes, hash
//! tables, join indexes, single record integrity constraints, and
//! referential integrity constraints … in principle any type of
//! attachment can be applied to any type of relation"):
//!
//! * [`btree_index`] — the classic secondary index (the paper's worked
//!   example), with unique-constraint vetoes and covering scans;
//! * [`hash_index`] — equality-only access path (relevance
//!   determination rejects range predicates);
//! * [`rtree`] — Guttman R-tree for spatial data, recognizing the
//!   `ENCLOSES` predicate in cost estimation;
//! * [`join_index`] — Valduriez join index spanning two relations;
//! * [`check`] — single-record integrity constraints (immediate veto or
//!   deferred to "before prepared state");
//! * [`refint`] — referential integrity with restrict / cascade delete
//!   rules (the paper's cascading-deletes example);
//! * [`trigger`] — user actions fired by modifications ("within the
//!   database or even outside");
//! * [`aggregate`] — maintained statistics / precomputed aggregates
//!   (attachments "may have associated storage");
//! * [`stats`] — maintained planner statistics (row counts, per-field
//!   null/distinct/min/max/histogram) feeding the cost-estimation
//!   interface and `sys.statistics`.
//!
//! [`register_builtin_attachments`] installs all of them "at the
//! factory".

pub mod aggregate;
pub mod btree_index;
pub mod check;
pub mod common;
pub mod hash_index;
pub mod join_index;
pub mod refint;
pub mod rtree;
pub mod stats;
pub mod trigger;

use std::sync::Arc;

use dmx_core::ExtensionRegistry;
use dmx_types::Result;

pub use aggregate::Aggregate;
pub use btree_index::BTreeIndex;
pub use check::{check_params, CheckConstraint};
pub use hash_index::HashIndex;
pub use join_index::JoinIndex;
pub use refint::RefIntegrity;
pub use rtree::{RTree, RTreeIndex};
pub use stats::Stats;
pub use trigger::Trigger;

/// Registers the built-in attachment types.
pub fn register_builtin_attachments(registry: &ExtensionRegistry) -> Result<()> {
    registry.register_attachment(Arc::new(BTreeIndex))?;
    registry.register_attachment(Arc::new(HashIndex))?;
    registry.register_attachment(Arc::new(RTreeIndex))?;
    registry.register_attachment(Arc::new(JoinIndex))?;
    registry.register_attachment(Arc::new(CheckConstraint))?;
    registry.register_attachment(Arc::new(RefIntegrity))?;
    registry.register_attachment(Arc::new(Trigger))?;
    registry.register_attachment(Arc::new(Aggregate))?;
    registry.register_attachment(Arc::new(Stats))?;
    Ok(())
}
