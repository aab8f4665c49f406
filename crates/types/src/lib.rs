//! Foundational types for the Starburst data management extension
//! architecture (DMX) reproduction.
//!
//! This crate carries the vocabulary shared by every other crate in the
//! workspace: typed [`Value`]s and [`Schema`]s, the record wire format
//! ([`Record`], [`RecordRef`]), the order-preserving key encoding used for
//! storage-method record keys and access-path keys ([`key`]), the
//! attribute/value lists that the paper's extended data definition language
//! passes to extensions ([`AttrList`]), and the identifier newtypes used to
//! index the procedure vectors ([`ids`]).
//!
//! Nothing in here depends on storage, logging or transactions; it is the
//! common record and field value representation the paper calls out as the
//! "most obvious interface convention" of the common services environment.

pub mod attr;
pub mod bytes;
pub mod crc;
pub mod error;
pub mod fault;
pub mod held;
pub mod ids;
pub mod key;
pub mod obs;
pub mod record;
pub mod rect;
pub mod schema;
pub mod sync;
pub mod testrng;
pub mod value;

pub use attr::AttrList;
pub use error::{DmxError, Result};
pub use fault::{FaultDecision, FaultInjector, FaultKind, FaultPlan};
pub use ids::{
    Appended, AttInstanceId, AttTypeId, FieldId, FileId, Lsn, PageId, RelationId, ScanId, SmTypeId,
    TxnId,
};
pub use key::RecordKey;
pub use obs::{
    Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, ObsEvent, ObsSink, RingSink,
};
pub use record::{Record, RecordRef};
pub use rect::Rect;
pub use schema::{ColumnDef, Schema};
pub use value::{DataType, Value};
