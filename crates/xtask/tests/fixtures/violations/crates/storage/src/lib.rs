//! Violation fixture: a storage crate naming a kernel-internal path.

use dmx_core::database::Database;

pub fn register(reg: &mut Registry) {
    reg.register_storage_method(Arc::new(Plain));
}

pub struct Plain;
