//! Clean fixture: a registered storage method with the complete
//! generic operation set, including cost estimation.

pub fn register(reg: &mut Registry) {
    reg.register_storage_method(Arc::new(Complete));
}

pub struct Complete;

impl StorageMethod for Complete {
    fn name(&self) -> &str {
        "complete"
    }
    fn validate_params(&self) {}
    fn create_instance(&self) {}
    fn destroy_instance(&self) {}
    fn insert(&self) {}
    fn update(&self) {}
    fn delete(&self) {}
    fn fetch(&self) {}
    fn open_scan(&self) {}
    fn estimate(&self) {}
    fn replay(&self) {}
}
