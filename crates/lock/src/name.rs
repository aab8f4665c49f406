//! Lock object names.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use dmx_types::{FileId, RecordKey, RelationId};

/// A lockable object. Record locks name the record by a hash of its
/// storage-method key so the lock table stays bounded regardless of key
/// size (hash collisions merely over-lock, never under-lock, because a
/// collision makes two records share one lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockName {
    /// The whole catalog (DDL serialization point).
    Catalog,
    /// A relation instance (taken in intention mode for record work, or
    /// S/X for scans / DDL).
    Relation(RelationId),
    /// A record within a relation, by key hash.
    Record(RelationId, u64),
    /// The key gap `(pred(k), k]` below a tree entry, by hash of the
    /// entry's key bytes — next-key range locking for phantom
    /// protection. The hash matches [`LockName::record`]'s for the same
    /// bytes, pairing a key's gap with its record (see
    /// [`LockName::gap`]); the EOF gap (above the largest key) hashes
    /// the owning tree file plus a sentinel instead. Same level as
    /// [`LockName::Record`] in the lock hierarchy.
    Gap(RelationId, u64),
    /// A storage file (used by deferred drops).
    File(FileId),
}

impl LockName {
    /// Builds a record lock name from a storage-method record key.
    pub fn record(rel: RelationId, key: &RecordKey) -> LockName {
        let mut h = DefaultHasher::new();
        key.as_bytes().hash(&mut h);
        LockName::Record(rel, h.finish())
    }

    /// Builds a gap lock name for the gap below the tree entry `key`.
    /// The hash covers *only* the key bytes — identical to
    /// [`LockName::record`] — so the gap below entry `k` and the record
    /// named `k` carry the same `u64` and the lock manager's order
    /// assertion can pair them (record before gap, per key). Byte-equal
    /// entries in different trees of one relation therefore share a gap
    /// name: a merged name only over-locks, never under-locks. `None`
    /// names the EOF gap above the largest key, distinguished per tree
    /// by hashing `file` plus a sentinel (no record pairs with it).
    pub fn gap(rel: RelationId, file: FileId, key: Option<&[u8]>) -> LockName {
        let mut h = DefaultHasher::new();
        match key {
            Some(k) => k.hash(&mut h),
            None => {
                0u8.hash(&mut h);
                file.hash(&mut h);
            }
        }
        LockName::Gap(rel, h.finish())
    }

    /// The enclosing relation, when the lock is relation-scoped.
    pub fn relation(&self) -> Option<RelationId> {
        match self {
            LockName::Relation(r) | LockName::Record(r, _) | LockName::Gap(r, _) => Some(*r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_names_are_stable_and_distinguish_relations() {
        let k = RecordKey::new(vec![1, 2, 3]);
        let a = LockName::record(RelationId(1), &k);
        let b = LockName::record(RelationId(1), &k);
        let c = LockName::record(RelationId(2), &k);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gap_and_record_names_pair_by_key_hash() {
        let k = RecordKey::new(vec![1, 2, 3]);
        let LockName::Record(_, rh) = LockName::record(RelationId(1), &k) else {
            unreachable!()
        };
        let LockName::Gap(_, gh) = LockName::gap(RelationId(1), FileId(7), Some(&[1, 2, 3])) else {
            unreachable!()
        };
        // Same key bytes → same hash, so the lock manager can correlate
        // a held gap with a requested record (order assertion).
        assert_eq!(rh, gh);
        // EOF gaps carry no key and stay distinct per tree.
        assert_ne!(
            LockName::gap(RelationId(1), FileId(7), None),
            LockName::gap(RelationId(1), FileId(8), None)
        );
    }

    #[test]
    fn relation_extraction() {
        let k = RecordKey::new(vec![9]);
        assert_eq!(
            LockName::record(RelationId(4), &k).relation(),
            Some(RelationId(4))
        );
        assert_eq!(
            LockName::Relation(RelationId(4)).relation(),
            Some(RelationId(4))
        );
        assert_eq!(LockName::Catalog.relation(), None);
        assert_eq!(LockName::File(FileId(1)).relation(), None);
    }
}
