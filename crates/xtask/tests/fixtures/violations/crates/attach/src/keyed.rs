//! Violation fixture: an access path that decides keyed relevance for
//! itself — a fourth copy of the walk over `(predicate, sarg)` pairs.

pub fn estimate(d: &Desc, preds: &[Expr]) -> Option<AccessQuery> {
    preds.iter().find_map(|p| match analyze::sargable(p)?.op {
        SargOp::Eq(v) => Some(AccessQuery::KeyEquals(encode_values(&[v]))),
        SargOp::EqParam(n) => Some(AccessQuery::KeyEqualsParam(n)),
        SargOp::Range(op, v) => Some(AccessQuery::Range(range_for(op, &v))),
        SargOp::Intersects(_) => None,
        _ => None,
    })
}
