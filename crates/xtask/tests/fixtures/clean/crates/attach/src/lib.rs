//! Clean fixture: the attachment crate registers its type. (Which trait
//! methods it implements is rustc's to check, not the verify pass's.)

pub fn register(reg: &mut Registry) {
    reg.register_attachment(Arc::new(Watcher));
}

pub struct Watcher;
