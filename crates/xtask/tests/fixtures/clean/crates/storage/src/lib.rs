//! Clean fixture: the storage crate registers its method through the
//! generic interface alone.

pub fn register(reg: &mut Registry) {
    reg.register_storage_method(Arc::new(Plain));
}

pub struct Plain;
