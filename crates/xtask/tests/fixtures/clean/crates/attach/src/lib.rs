//! Clean fixture: a registered attachment with every veto-capable
//! entry point and replay.

pub fn register(reg: &mut Registry) {
    reg.register_attachment(Arc::new(Watcher));
}

pub struct Watcher;

impl Attachment for Watcher {
    fn name(&self) -> &str {
        "watcher"
    }
    fn validate_params(&self) {}
    fn create_instance(&self) {}
    fn destroy_instance(&self) {}
    fn on_modify(&self) {}
    fn replay(&self) {}
}
