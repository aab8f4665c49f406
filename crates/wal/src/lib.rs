//! Write-ahead logging and the common log-driven recovery facility.
//!
//! The paper's data management extension architecture "relies on the use
//! of a common recovery facility to drive, not only system restart and
//! transaction abort, but also the *partial rollback* of the actions of
//! the transaction": when an attachment vetoes a relation modification,
//! the common recovery log drives the storage method and the
//! already-executed attachments to undo the partial effects.
//!
//! * [`log::LogManager`] assigns LSNs, keeps per-transaction undo chains
//!   (`prev_lsn`), and separates the *durable* prefix ([`log::StableLog`],
//!   which survives a simulated crash) from the volatile tail.
//! * [`record::LogBody::ExtOp`] records carry extension-interpreted undo
//!   payloads; the recovery driver hands them back to the originating
//!   extension through the [`recovery::UndoHandler`] trait (implemented in
//!   `dmx-core` by dispatch through the procedure vectors). The operations
//!   of one relation modification share a record
//!   ([`record::LogBody::ExtOps`], built by [`log::LogManager::amend`]).
//! * [`recovery`] implements partial rollback to a savepoint, full abort,
//!   and restart recovery (complete committed deferred intents, redo
//!   winners and repeat every compensation in forward passes — the
//!   catalog's records first — then undo losers), writing compensation
//!   records (CLRs) so rollbacks are themselves idempotent; each CLR is
//!   the token its undo's pages are stamped with
//!   ([`recovery::Compensation`]).

// This crate defines `StableLog` and its fault-aware constructor, so it
// builds the raw log that `clippy.toml` denies everywhere else.
#![allow(clippy::disallowed_methods)]

pub mod log;
pub mod record;
pub mod recovery;

pub use log::{LogManager, StableLog};
pub use record::{ExtKind, ExtOp, LogBody, LogRecord, OpRef};
pub use recovery::{restart, rollback_to, Compensation, RestartReport, UndoHandler};
