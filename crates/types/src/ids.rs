//! Identifier newtypes.
//!
//! The paper makes extension identifiers "small integers that serve as
//! indexes into the vectors of procedures": [`SmTypeId`] and [`AttTypeId`]
//! are exactly those indexes. The remaining ids identify relations, files,
//! pages, transactions, log sequence numbers and open scans.

use std::fmt;

macro_rules! id_u32 {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

macro_rules! id_u64 {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_u32!(
    /// Identifies a relation instance in the catalog.
    RelationId
);
id_u32!(
    /// Identifies a simulated disk file.
    FileId
);
id_u64!(
    /// Identifies a transaction.
    TxnId
);
id_u64!(
    /// Identifies an open key-sequential access (a scan).
    ScanId
);

/// A log sequence number. `Lsn::NULL` marks "no LSN" (e.g. a page never
/// touched by logging, or the end of an undo chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The null LSN, ordered before every real LSN.
    pub const NULL: Lsn = Lsn(0);

    /// True when this is the null LSN.
    pub fn is_null(&self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lsn({})", self.0)
    }
}

/// Proof that the log record describing a page change has been appended:
/// the one key to a mutable pool page (`dmx_page::PinnedPage::write`) and
/// to a tree writer, and the LSN every page it changes is stamped with.
///
/// Only a log append makes one: `ExecCtx::log_ext_op` going forward, the
/// replay dispatch from the record it hands over, and the rollback from
/// the compensation record (CLR) of each undo. Extension crates name the
/// type but call nothing on it — `tests/architecture.rs` denies them
/// `Appended::`, so neither [`Appended::by_log`] nor
/// [`Appended::UNLOGGED`] appears outside the kernel and the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Appended(Lsn);

impl Appended {
    /// The named unlogged path: a token that stamps nothing. For the tests
    /// that forge crash images, for the bootstrap of a fresh structure
    /// (`BTree::create`) — a page no log record describes yet — and for
    /// the build of a new attachment instance (`dmx_core`'s build token),
    /// whose files its DDL's commit force-writes.
    pub const UNLOGGED: Appended = Appended(Lsn::NULL);

    /// The token of the record the log just assigned `lsn`.
    pub fn by_log(lsn: Lsn) -> Appended {
        Appended(lsn)
    }

    /// The record's LSN ([`Lsn::NULL`] for [`Appended::UNLOGGED`]).
    pub fn lsn(self) -> Lsn {
        self.0
    }
}

/// Addresses a page within a simulated disk file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId {
    /// Owning file.
    pub file: FileId,
    /// Zero-based page number inside the file.
    pub page_no: u32,
}

impl PageId {
    /// Convenience constructor.
    pub fn new(file: FileId, page_no: u32) -> Self {
        PageId { file, page_no }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page({}, {})", self.file.0, self.page_no)
    }
}

/// Storage-method type identifier: the index into the storage-method
/// procedure vectors. The paper assigns id 1 to the base temporary storage
/// method; we preserve that convention in `dmx-storage`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SmTypeId(pub u8);

impl fmt::Display for SmTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sm({})", self.0)
    }
}

/// Attachment type identifier: the index into the attachment procedure
/// vectors and the field number of this attachment type's descriptor inside
/// the composite relation descriptor. The paper notes this encoding limits
/// the number of attachment types to "a few dozen"; we enforce a cap in the
/// registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AttTypeId(pub u8);

impl fmt::Display for AttTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Att({})", self.0)
    }
}

/// Identifies one attachment *instance* among the instances of a given type
/// on a given relation (e.g. "access via B-tree number 3").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AttInstanceId(pub u16);

impl fmt::Display for AttInstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Field (column) index within a schema.
pub type FieldId = u16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_null_ordering() {
        assert!(Lsn::NULL.is_null());
        assert!(Lsn::NULL < Lsn(1));
        assert!(!Lsn(1).is_null());
    }

    #[test]
    fn page_id_ordering_groups_by_file() {
        let a = PageId::new(FileId(1), 9);
        let b = PageId::new(FileId(2), 0);
        assert!(a < b);
    }

    #[test]
    fn ids_display() {
        assert_eq!(RelationId(3).to_string(), "RelationId(3)");
        assert_eq!(SmTypeId(1).to_string(), "Sm(1)");
        assert_eq!(AttTypeId(4).to_string(), "Att(4)");
        assert_eq!(PageId::new(FileId(2), 7).to_string(), "Page(2, 7)");
    }
}
