//! Clean fixture: the one extension a planner may name is the join
//! index, whose pair scan is an operator of its own.

pub fn find_join_index(db: &Database, rd: &RelationDescriptor) -> bool {
    let Ok(ji) = db.registry().attachment_id_by_name("joinindex") else {
        return false;
    };
    rd.attachment_instances(ji)
        .iter()
        .any(|i| dmx_attach::join_index::JiDesc::decode(&i.desc).is_ok())
}
