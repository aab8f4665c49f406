//! Violation fixture: a storage crate naming a kernel-internal path, and
//! changing a page under a write-ahead token it made itself.

use dmx_core::database::Database;

pub fn register(reg: &mut Registry) {
    reg.register_storage_method(Arc::new(Plain));
}

pub struct Plain;

impl Plain {
    fn scribble(pin: &PinnedPage) -> Result<()> {
        SlottedPage::insert_at(&mut pin.write(Appended::UNLOGGED), 0, b"r")
    }
}
