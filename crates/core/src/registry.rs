//! The procedure vectors.
//!
//! "For each direct or indirect generic operation, there is a vector of
//! addresses for the procedures that implement the corresponding
//! operation. … Storage method and attachment internal identifiers are
//! small integers that serve as indexes into the vectors of procedures."
//!
//! In Rust the per-operation address vectors collapse into one vector of
//! trait objects per abstraction (a trait object *is* a vtable of
//! procedure addresses); activation is still a single indexed load plus
//! an indirect call — experiment E1 measures exactly this. Extensions
//! are registered "at the factory": at database-open time, before any
//! transaction runs.

use std::collections::HashMap;
use std::sync::Arc;

use dmx_types::sync::RwLock;

use dmx_types::{AttTypeId, DmxError, Result, SmTypeId};

use crate::attachment::Attachment;
use crate::storage_method::StorageMethod;

/// Cap on attachment types: the record-oriented relation descriptor
/// "effectively limits the number of different attachment types to a few
/// dozen without … significant storage overhead".
pub const MAX_ATTACHMENT_TYPES: usize = 32;

/// Cap on storage-method types (same small-integer encoding).
pub const MAX_STORAGE_METHODS: usize = 32;

#[derive(Default)]
struct Inner {
    /// Index = small-integer type id; slot 0 reserved (attachment field 0
    /// of the descriptor is the storage-method descriptor).
    storage: Vec<Option<Arc<dyn StorageMethod>>>,
    attach: Vec<Option<Arc<dyn Attachment>>>,
    sm_by_name: HashMap<String, SmTypeId>,
    att_by_name: HashMap<String, AttTypeId>,
}

/// The extension registry: both procedure vectors plus name lookup for
/// DDL.
#[derive(Default)]
pub struct ExtensionRegistry {
    inner: RwLock<Inner>,
}

impl ExtensionRegistry {
    /// An empty registry.
    pub fn new() -> Arc<Self> {
        let reg = ExtensionRegistry::default();
        {
            let mut inner = reg.inner.write();
            inner.storage.resize(1, None); // slot 0 reserved
            inner.attach.resize(1, None);
        }
        Arc::new(reg)
    }

    /// Installs a storage method, assigning the next small-integer id.
    pub fn register_storage_method(&self, sm: Arc<dyn StorageMethod>) -> Result<SmTypeId> {
        let mut inner = self.inner.write();
        let name = sm.name().to_ascii_lowercase();
        if inner.sm_by_name.contains_key(&name) {
            return Err(DmxError::Duplicate(format!("storage method {name}")));
        }
        if inner.storage.len() >= MAX_STORAGE_METHODS {
            return Err(DmxError::InvalidArg("storage-method vector full".into()));
        }
        let id = SmTypeId(inner.storage.len() as u8);
        inner.storage.push(Some(sm));
        inner.sm_by_name.insert(name, id);
        Ok(id)
    }

    /// Installs an attachment type, assigning the next small-integer id
    /// (which is also its descriptor field number).
    pub fn register_attachment(&self, att: Arc<dyn Attachment>) -> Result<AttTypeId> {
        let mut inner = self.inner.write();
        let name = att.name().to_ascii_lowercase();
        if inner.att_by_name.contains_key(&name) {
            return Err(DmxError::Duplicate(format!("attachment type {name}")));
        }
        if inner.attach.len() >= MAX_ATTACHMENT_TYPES {
            return Err(DmxError::InvalidArg("attachment vector full".into()));
        }
        let id = AttTypeId(inner.attach.len() as u8);
        inner.attach.push(Some(att));
        inner.att_by_name.insert(name, id);
        Ok(id)
    }

    /// Activates a storage method by id — the procedure-vector index.
    pub fn storage(&self, id: SmTypeId) -> Result<Arc<dyn StorageMethod>> {
        self.inner
            .read()
            .storage
            .get(id.0 as usize)
            .and_then(|o| o.clone())
            .ok_or_else(|| DmxError::NotFound(format!("storage method {id}")))
    }

    /// Activates an attachment type by id.
    pub fn attachment(&self, id: AttTypeId) -> Result<Arc<dyn Attachment>> {
        self.inner
            .read()
            .attach
            .get(id.0 as usize)
            .and_then(|o| o.clone())
            .ok_or_else(|| DmxError::NotFound(format!("attachment type {id}")))
    }

    /// DDL name lookup.
    pub fn storage_id_by_name(&self, name: &str) -> Result<SmTypeId> {
        self.inner
            .read()
            .sm_by_name
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| DmxError::NotFound(format!("storage method '{name}'")))
    }

    /// DDL name lookup.
    pub fn attachment_id_by_name(&self, name: &str) -> Result<AttTypeId> {
        self.inner
            .read()
            .att_by_name
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| DmxError::NotFound(format!("attachment type '{name}'")))
    }

    /// Registered storage-method names with ids (diagnostics / catalogs).
    pub fn storage_methods(&self) -> Vec<(SmTypeId, String)> {
        let inner = self.inner.read();
        inner
            .storage
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                o.as_ref()
                    .map(|s| (SmTypeId(i as u8), s.name().to_string()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::KeyRange;
    use crate::context::ExecCtx;
    use crate::cost::PathChoice;
    use crate::descriptor::RelationDescriptor;
    use crate::services::CommonServices;
    use crate::storage_method::StorageMethod;
    use dmx_expr::Expr;
    use dmx_types::{AttrList, FieldId, Lsn, Record, RecordKey, Schema, Value};

    struct StubSm(&'static str);

    impl StorageMethod for StubSm {
        fn name(&self) -> &str {
            self.0
        }
        fn create_instance(&self, _: &ExecCtx<'_>, _: &Schema, _: &AttrList) -> Result<Vec<u8>> {
            Ok(vec![])
        }
        fn destroy_instance(&self, _: &Arc<CommonServices>, _: &[u8]) -> Result<()> {
            Ok(())
        }
        fn insert(&self, _: &ExecCtx<'_>, _: &RelationDescriptor, _: &Record) -> Result<RecordKey> {
            Err(DmxError::Unsupported("stub".into()))
        }
        fn update(
            &self,
            _: &ExecCtx<'_>,
            _: &RelationDescriptor,
            _: &RecordKey,
            _: &Record,
            _: &Record,
        ) -> Result<RecordKey> {
            Err(DmxError::Unsupported("stub".into()))
        }
        fn delete(
            &self,
            _: &ExecCtx<'_>,
            _: &RelationDescriptor,
            _: &RecordKey,
            _: &Record,
        ) -> Result<()> {
            Err(DmxError::Unsupported("stub".into()))
        }
        fn fetch(
            &self,
            _: &ExecCtx<'_>,
            _: &RelationDescriptor,
            _: &RecordKey,
            _: Option<&[FieldId]>,
            _: Option<&Expr>,
        ) -> Result<Option<Vec<Value>>> {
            Ok(None)
        }
        fn open_scan(
            &self,
            _: &ExecCtx<'_>,
            _: &RelationDescriptor,
            _: KeyRange,
            _: Option<Expr>,
            _: Option<Vec<FieldId>>,
        ) -> Result<Box<dyn crate::access::ScanOps>> {
            Err(DmxError::Unsupported("stub".into()))
        }
        fn estimate(&self, rd: &RelationDescriptor, preds: &[Expr]) -> PathChoice {
            PathChoice::full_scan(0, &rd.stats, preds)
        }
        fn replay(
            &self,
            _: &Arc<CommonServices>,
            _: &RelationDescriptor,
            _: Lsn,
            _: crate::logged_tree::Replay,
            _: u8,
            _: &[u8],
        ) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn ids_are_sequential_small_integers_starting_at_one() {
        let reg = ExtensionRegistry::new();
        let a = reg
            .register_storage_method(Arc::new(StubSm("alpha")))
            .unwrap();
        let b = reg
            .register_storage_method(Arc::new(StubSm("beta")))
            .unwrap();
        assert_eq!(a, SmTypeId(1), "slot 0 is reserved");
        assert_eq!(b, SmTypeId(2));
        assert_eq!(reg.storage(a).unwrap().name(), "alpha");
        assert_eq!(reg.storage_id_by_name("BETA").unwrap(), b);
    }

    #[test]
    fn duplicate_names_and_unknown_ids_rejected() {
        let reg = ExtensionRegistry::new();
        reg.register_storage_method(Arc::new(StubSm("x"))).unwrap();
        assert!(matches!(
            reg.register_storage_method(Arc::new(StubSm("X"))),
            Err(DmxError::Duplicate(_))
        ));
        assert!(reg.storage(SmTypeId(0)).is_err(), "reserved slot");
        assert!(reg.storage(SmTypeId(9)).is_err());
        assert!(reg.storage_id_by_name("nope").is_err());
        assert!(reg.attachment(AttTypeId(1)).is_err());
    }

    #[test]
    fn vector_capacity_is_capped() {
        let reg = ExtensionRegistry::new();
        // names must be unique; fill to the cap
        let names: Vec<String> = (0..MAX_STORAGE_METHODS + 4)
            .map(|i| format!("sm{i}"))
            .collect();
        let mut registered = 0;
        for name in &names {
            let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
            if reg
                .register_storage_method(Arc::new(StubSm(leaked)))
                .is_ok()
            {
                registered += 1;
            }
        }
        assert_eq!(
            registered,
            MAX_STORAGE_METHODS - 1,
            "slot 0 reserved, rest filled"
        );
        assert_eq!(reg.storage_methods().len(), MAX_STORAGE_METHODS - 1);
    }
}
