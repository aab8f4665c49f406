//! Clean fixture: a keyed access path states its key fields and asks
//! the one matcher; a spatial path reads the spatial sarg shapes itself.

pub fn estimate(d: &Desc, rd: &RelationDescriptor, preds: &[Expr]) -> Option<PathChoice> {
    let m = KeyMatch::of(&d.fields, preds, &rd.stats, 0.01)?;
    Some(choice(m.query, m.applied, Cost::tree(rd.stats.records(), m.fraction, 100.0)))
}

pub fn spatial(preds: &[Expr]) -> Option<Rect> {
    preds.iter().find_map(|p| match analyze::sargable(p)?.op {
        SargOp::Intersects(v) | SargOp::Encloses(v) | SargOp::EnclosedBy(v) => v.as_rect().ok(),
        _ => None,
    })
}
