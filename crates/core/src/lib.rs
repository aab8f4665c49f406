//! The data management extension architecture (the paper's contribution).
//!
//! This crate defines the two generic abstractions and everything that
//! coordinates them:
//!
//! * [`StorageMethod`] — the generic operation set an alternative relation
//!   storage implementation must supply (insert/update/delete, direct-
//!   by-key and key-sequential access with early filtering, DDL parameter
//!   validation, cost estimation, logical undo);
//! * [`Attachment`] — the generic operation set for access paths,
//!   integrity constraints and triggers, invoked *procedurally* as side
//!   effects of relation modifications, with the right to **veto**;
//! * [`registry::ExtensionRegistry`] — the procedure vectors: extensions
//!   are installed "at the factory" and activated by indexing a vector
//!   with their small-integer type id;
//! * [`descriptor::RelationDescriptor`] — the extensible relation
//!   descriptor: a record whose header names the storage method, whose
//!   field 0 is the storage-method descriptor, and whose field *N* holds
//!   the instances of attachment type *N* (absent = no instances);
//! * [`dml`] — the two-step modification dispatcher: storage method first,
//!   then each attachment type with instances; any veto triggers a
//!   log-driven partial rollback of the half-done modification;
//! * [`access`] — the unified access interface ("access path zero is the
//!   storage method"), scan-position rules and the per-transaction scan
//!   registry driving end-of-transaction cleanup and savepoint
//!   save/restore of positions;
//! * [`services::CommonServices`] — the shared execution environment
//!   (buffer pool, log, lock manager, predicate evaluator, latches);
//! * [`logged_tree`] — the one write-ahead path (append → stamp → apply,
//!   and the undo/redo mirror) and the one range cursor (stepping,
//!   bounds, next-key locks, position) every tree-backed extension goes
//!   through;
//! * [`Catalog`], [`deps`], [`auth`] — descriptor management, bound-plan
//!   dependency tracking/invalidation and the uniform authorization
//!   facility;
//! * [`Database`] — the facade wiring it all together, including
//!   DDL with extension attribute/value lists, transaction control with
//!   savepoints, deferred drops and crash restart.
//!
//! An extension reaches the kernel through the root re-exports alone:
//! `catalog` and `database` are private modules (DESIGN §8, DMX004), so a
//! path through either does not resolve.
//!
//! ```compile_fail,E0603
//! use dmx_core::database::Database;
//! ```
//!
//! ```compile_fail,E0603
//! use dmx_core::catalog::Catalog;
//! ```

pub mod access;
pub mod attachment;
pub mod auth;
mod catalog;
pub mod context;
pub mod cost;
mod database;
pub mod deps;
pub mod descriptor;
pub mod dml;
pub mod logged_tree;
pub mod registry;
pub mod scrub;
pub mod services;
pub mod stats;
pub mod storage_method;
pub mod sysrel;
pub mod undo;

pub use access::{
    AccessPath, AccessQuery, Frame, KeyRange, ScanItem, ScanManager, ScanOps, SpatialOp,
};
pub use attachment::{Attachment, Modification, ASSIGNED_KEYS};
pub use auth::{AuthManager, Privilege};
pub use catalog::Catalog;
pub use context::{Evaluator, ExecCtx};
pub use cost::{Cost, KeyMatch, PathChoice};
pub use database::{
    Database, DatabaseConfig, DatabaseEnv, HookArgs, HookFn, IncidentReport, SysProviderFn,
};
pub use deps::{DepKey, DependencyRegistry, PlanId};
pub use descriptor::{AttachmentInstance, Descriptor, RelationDescriptor};
pub use dml::project_values;
pub use logged_tree::{
    EntryDecoder, LoggedTarget, LoggedTree, RecordKeyIn, Replay, TreeCursor, TreeFile, TreeScan,
};
pub use registry::ExtensionRegistry;
pub use scrub::{
    repair_relation, scrub_all, scrub_relation, RepairAction, RepairOutcome, ScrubReport,
};
pub use services::CommonServices;
pub use stats::RelationStats;
pub use storage_method::{SalvagedRecords, StorageMethod};
pub use undo::tolerate_missing;
