//! Violation fixture: an attachment missing its veto entry point and undo.

pub fn register(reg: &mut Registry) {
    reg.register_attachment(Arc::new(Half));
}

pub struct Half;

impl Attachment for Half {
    fn name(&self) -> &str {
        "half"
    }
    fn validate_params(&self) {}
    fn create_instance(&self) {}
    fn destroy_instance(&self) {}
}
