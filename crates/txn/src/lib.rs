//! Transactions, transaction events and deferred-action queues.
//!
//! Data management extensions "participate in database events such as
//! transaction commit": the paper's common services include event
//! notification (scans must be closed at end-of-transaction, scan
//! positions saved around rollback points) and **deferred action queues**
//! — an attachment can queue a routine + data to run when the transaction
//! reaches "before prepared state" or commits (used for deferred integrity
//! constraints and for the deferred physical release of dropped objects).
//!
//! This crate provides the [`Transaction`] object (id, undo chain head,
//! savepoint stack, deferred queues) and the [`TxnManager`]. The *commit
//! protocol* itself (run before-prepare queue → log Commit → force →
//! flush pool → run commit queue → release locks → scan cleanup) is
//! orchestrated by `dmx-core`, which owns the participating services.

pub mod deferred;
pub mod mvcc;
pub mod txn;

pub use deferred::{DeferredQueues, TxnEvent};
pub use mvcc::{Footprint, GcOutcome, Snapshot, VersionImage, VersionStore};
pub use txn::{Modifying, Savepoint, Sharing, Transaction, TxnManager, TxnState};
