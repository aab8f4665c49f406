//! Violation fixture: the attachment crate's root; its violation is in
//! `keyed.rs`.

pub fn register(reg: &mut Registry) {
    reg.register_attachment(Arc::new(Plain));
}

pub struct Plain;
