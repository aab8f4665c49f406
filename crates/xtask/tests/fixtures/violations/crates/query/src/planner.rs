//! Violation fixture: a planner that knows extensions by name — a
//! storage-method crate path, an attachment type's private descriptor,
//! a by-name registry lookup and a name comparison.

use dmx_storage::heap::HeapDesc;

pub fn find_probe_path(db: &Database, rd: &RelationDescriptor) -> bool {
    let by_name = db.registry().attachment_id_by_name("btree").is_ok();
    let decoded = dmx_attach::btree_index::IxDesc::decode(&rd.desc).is_ok();
    by_name && decoded && db.registry().storage(rd.sm).name() == "btree"
}
