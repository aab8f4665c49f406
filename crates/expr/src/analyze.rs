//! Predicate analysis for the cost-estimation interface.
//!
//! The query planner hands each storage method / access path a list of
//! "eligible" predicates; the extension determines their *relevance* to
//! its instance and estimates cost. This module provides the shared
//! analysis: conjunct extraction, referenced columns, and recognition of
//! *sargable* predicates (`field op constant`, `field = $n` for a value
//! bound when the access is opened, plus the spatial `ENCLOSES` /
//! `INTERSECTS` forms the R-tree recognizes).

use std::collections::BTreeSet;

use dmx_types::{FieldId, Value};

use crate::ast::{CmpOp, Expr};

/// A sargable predicate an access path can evaluate against its key.
#[derive(Debug, Clone, PartialEq)]
pub struct Sarg {
    /// The base-table field the predicate constrains.
    pub field: FieldId,
    pub op: SargOp,
}

/// The constraint shape.
#[derive(Debug, Clone, PartialEq)]
pub enum SargOp {
    /// `field = v`
    Eq(Value),
    /// `field = $n`: a value known only when the access is opened (slot
    /// `n` of a join's outer row).
    EqParam(usize),
    /// `field op v` for an ordering comparison (Lt/Le/Gt/Ge).
    Range(CmpOp, Value),
    /// `field ENCLOSES rect-const` — the record's rectangle encloses the
    /// constant.
    Encloses(Value),
    /// `rect-const ENCLOSES field` — the record's rectangle lies within
    /// the constant (a window query).
    EnclosedBy(Value),
    /// `field INTERSECTS rect-const` (symmetric).
    Intersects(Value),
}

/// Flattens a predicate into its top-level conjuncts.
pub fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::And(terms) => terms.iter().flat_map(conjuncts).collect(),
        e => vec![e],
    }
}

/// All columns referenced anywhere in the expression.
pub fn columns(expr: &Expr) -> BTreeSet<FieldId> {
    let mut out = BTreeSet::new();
    collect_columns(expr, &mut out);
    out
}

fn collect_columns(expr: &Expr, out: &mut BTreeSet<FieldId>) {
    match expr {
        Expr::Const(_) | Expr::Param(_) => {}
        Expr::Column(id) => {
            out.insert(*id);
        }
        Expr::Cmp(_, l, r)
        | Expr::Arith(_, l, r)
        | Expr::Encloses(l, r)
        | Expr::Intersects(l, r) => {
            collect_columns(l, out);
            collect_columns(r, out);
        }
        Expr::And(v) | Expr::Or(v) => v.iter().for_each(|e| collect_columns(e, out)),
        Expr::Not(e) | Expr::Neg(e) | Expr::IsNull(e, _) | Expr::Like(e, _) => {
            collect_columns(e, out)
        }
        Expr::Func(_, args) => args.iter().for_each(|e| collect_columns(e, out)),
    }
}

/// Recognizes a single conjunct as sargable. Handles both operand orders.
pub fn sargable(expr: &Expr) -> Option<Sarg> {
    match expr {
        Expr::Cmp(op, l, r) => {
            let (field, op, v) = match (l.as_ref(), r.as_ref()) {
                (Expr::Column(f), Expr::Const(v)) => (*f, *op, v.clone()),
                (Expr::Const(v), Expr::Column(f)) => (*f, op.flipped(), v.clone()),
                (Expr::Column(f), Expr::Param(n)) | (Expr::Param(n), Expr::Column(f)) => {
                    return (*op == CmpOp::Eq).then_some(Sarg {
                        field: *f,
                        op: SargOp::EqParam(*n),
                    });
                }
                _ => return None,
            };
            if v.is_null() {
                return None; // `x = NULL` never matches; not index-usable
            }
            match op {
                CmpOp::Eq => Some(Sarg {
                    field,
                    op: SargOp::Eq(v),
                }),
                CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => Some(Sarg {
                    field,
                    op: SargOp::Range(op, v),
                }),
                CmpOp::Ne => None,
            }
        }
        Expr::Encloses(l, r) => match (l.as_ref(), r.as_ref()) {
            (Expr::Column(f), Expr::Const(v)) if !v.is_null() => Some(Sarg {
                field: *f,
                op: SargOp::Encloses(v.clone()),
            }),
            (Expr::Const(v), Expr::Column(f)) if !v.is_null() => Some(Sarg {
                field: *f,
                op: SargOp::EnclosedBy(v.clone()),
            }),
            _ => None,
        },
        Expr::Intersects(l, r) => match (l.as_ref(), r.as_ref()) {
            (Expr::Column(f), Expr::Const(v)) | (Expr::Const(v), Expr::Column(f))
                if !v.is_null() =>
            {
                Some(Sarg {
                    field: *f,
                    op: SargOp::Intersects(v.clone()),
                })
            }
            _ => None,
        },
        _ => None,
    }
}

/// All sargable conjuncts of a predicate.
pub fn sargable_conjuncts(expr: &Expr) -> Vec<Sarg> {
    conjuncts(expr).into_iter().filter_map(sargable).collect()
}

/// A crude textbook selectivity guess used when no statistics apply.
pub fn default_selectivity(expr: &Expr) -> f64 {
    match expr {
        Expr::Cmp(CmpOp::Eq, _, _) => 0.05,
        Expr::Cmp(CmpOp::Ne, _, _) => 0.95,
        Expr::Cmp(_, _, _) => 1.0 / 3.0,
        Expr::And(v) => v.iter().map(default_selectivity).product(),
        Expr::Or(v) => {
            let p_none: f64 = v.iter().map(|e| 1.0 - default_selectivity(e)).product();
            1.0 - p_none
        }
        Expr::Not(e) => 1.0 - default_selectivity(e),
        Expr::IsNull(_, false) => 0.05,
        Expr::IsNull(_, true) => 0.95,
        Expr::Like(_, _) => 0.1,
        Expr::Encloses(_, _) | Expr::Intersects(_, _) => 0.05,
        Expr::Const(Value::Bool(true)) => 1.0,
        Expr::Const(Value::Bool(false)) => 0.0,
        _ => 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_types::Rect;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::And(vec![
            Expr::col_eq(0, 1i64),
            Expr::And(vec![Expr::col_eq(1, 2i64), Expr::col_eq(2, 3i64)]),
        ]);
        assert_eq!(conjuncts(&e).len(), 3);
        assert_eq!(conjuncts(&Expr::col_eq(0, 1i64)).len(), 1);
    }

    #[test]
    fn columns_collects_everywhere() {
        let e = Expr::And(vec![
            Expr::col_eq(3, 1i64),
            Expr::Func("abs".into(), vec![Expr::Column(5)]),
            Expr::Like(Box::new(Expr::Column(1)), "x%".into()),
        ]);
        assert_eq!(columns(&e).into_iter().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn sargable_both_orders_and_flip() {
        let s = sargable(&Expr::col_eq(2, 9i64)).unwrap();
        assert_eq!(s.field, 2);
        assert_eq!(s.op, SargOp::Eq(Value::Int(9)));

        // 5 < col  ≡  col > 5
        let e = Expr::Cmp(
            CmpOp::Lt,
            Box::new(Expr::Const(Value::Int(5))),
            Box::new(Expr::Column(1)),
        );
        let s = sargable(&e).unwrap();
        assert_eq!(s.op, SargOp::Range(CmpOp::Gt, Value::Int(5)));
    }

    #[test]
    fn parameter_equality_is_sargable_in_both_orders() {
        let (col, param) = (|| Box::new(Expr::Column(3)), || Box::new(Expr::Param(7)));
        for e in [
            Expr::Cmp(CmpOp::Eq, col(), param()),
            Expr::Cmp(CmpOp::Eq, param(), col()),
        ] {
            let s = sargable(&e).unwrap();
            assert_eq!((s.field, s.op), (3, SargOp::EqParam(7)));
        }
        assert!(sargable(&Expr::Cmp(CmpOp::Lt, col(), param())).is_none());
    }

    #[test]
    fn non_sargable_forms() {
        // column-to-column
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Column(0)),
            Box::new(Expr::Column(1)),
        );
        assert!(sargable(&e).is_none());
        // != is not index-usable
        assert!(sargable(&Expr::cmp_col(CmpOp::Ne, 0, 1i64)).is_none());
        // NULL constant
        assert!(sargable(&Expr::col_eq(0, Value::Null)).is_none());
        // arithmetic-wrapped column
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Arith(
                crate::ast::BinOp::Add,
                Box::new(Expr::Column(0)),
                Box::new(Expr::Const(Value::Int(1))),
            )),
            Box::new(Expr::Const(Value::Int(5))),
        );
        assert!(sargable(&e).is_none());
    }

    #[test]
    fn spatial_sargs_distinguish_direction() {
        let r = Value::Rect(Rect::new(0.0, 0.0, 1.0, 1.0));
        let e = Expr::Encloses(Box::new(Expr::Column(4)), Box::new(Expr::Const(r.clone())));
        assert_eq!(sargable(&e).unwrap().op, SargOp::Encloses(r.clone()));
        let e = Expr::Encloses(Box::new(Expr::Const(r.clone())), Box::new(Expr::Column(4)));
        assert_eq!(sargable(&e).unwrap().op, SargOp::EnclosedBy(r.clone()));
        let e = Expr::Intersects(Box::new(Expr::Const(r.clone())), Box::new(Expr::Column(4)));
        assert_eq!(sargable(&e).unwrap().op, SargOp::Intersects(r));
    }

    #[test]
    fn sargable_conjuncts_filters() {
        let e = Expr::And(vec![
            Expr::col_eq(0, 1i64),
            Expr::Like(Box::new(Expr::Column(1)), "x%".into()),
            Expr::cmp_col(CmpOp::Gt, 2, 5i64),
        ]);
        let sargs = sargable_conjuncts(&e);
        assert_eq!(sargs.len(), 2);
        assert_eq!(sargs[0].field, 0);
        assert_eq!(sargs[1].field, 2);
    }

    #[test]
    fn default_selectivities_are_probabilities() {
        let exprs = [
            Expr::col_eq(0, 1i64),
            Expr::cmp_col(CmpOp::Gt, 0, 1i64),
            Expr::And(vec![Expr::col_eq(0, 1i64), Expr::col_eq(1, 2i64)]),
            Expr::Or(vec![Expr::col_eq(0, 1i64), Expr::col_eq(1, 2i64)]),
            Expr::Not(Box::new(Expr::col_eq(0, 1i64))),
        ];
        for e in &exprs {
            let s = default_selectivity(e);
            assert!((0.0..=1.0).contains(&s), "{e:?} -> {s}");
        }
        // AND is more selective than either conjunct
        assert!(
            default_selectivity(&exprs[2]) < default_selectivity(&exprs[0]),
            "conjunction tightens"
        );
    }
}
