//! Predicate / scalar expression AST.

use dmx_types::{FieldId, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Applies the operator to an `Ordering`.
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        })
    }
}

/// An expression over the fields of one record.
///
/// Column references are by field index; name resolution happens in the
/// query layer before expressions reach storage methods or attachments.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal.
    Const(Value),
    /// Field of the current record.
    Column(FieldId),
    /// Host variable, bound at evaluation time from
    /// [`crate::eval::EvalContext::params`].
    Param(usize),
    /// Comparison (SQL three-valued logic: NULL operands yield NULL).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction over any number of terms.
    And(Vec<Expr>),
    /// Disjunction over any number of terms.
    Or(Vec<Expr>),
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(BinOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `IS NULL` (`negated = true` for `IS NOT NULL`).
    IsNull(Box<Expr>, bool),
    /// SQL LIKE with `%` and `_` wildcards.
    Like(Box<Expr>, String),
    /// Spatial: left rectangle encloses right (the paper's R-tree example
    /// predicate).
    Encloses(Box<Expr>, Box<Expr>),
    /// Spatial: rectangles overlap.
    Intersects(Box<Expr>, Box<Expr>),
    /// Call of a registered user function (the paper's evaluator "will be
    /// able to call functions that are passed to it").
    Func(String, Vec<Expr>),
}

impl Expr {
    /// `col <op> const` convenience constructor.
    pub fn cmp_col(op: CmpOp, col: FieldId, v: impl Into<Value>) -> Expr {
        Expr::Cmp(
            op,
            Box::new(Expr::Column(col)),
            Box::new(Expr::Const(v.into())),
        )
    }

    /// `col = const` convenience constructor.
    pub fn col_eq(col: FieldId, v: impl Into<Value>) -> Expr {
        Expr::cmp_col(CmpOp::Eq, col, v)
    }

    /// Conjunction of `self` and `other`, flattening nested ANDs.
    pub fn and(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::And(mut a), Expr::And(b)) => {
                a.extend(b);
                Expr::And(a)
            }
            (Expr::And(mut a), e) => {
                a.push(e);
                Expr::And(a)
            }
            (e, Expr::And(mut b)) => {
                b.insert(0, e);
                Expr::And(b)
            }
            (a, b) => Expr::And(vec![a, b]),
        }
    }

    /// A copy of the expression with every leaf (`Const`, `Column`,
    /// `Param`) replaced by `leaf(that leaf)`.
    pub fn map_leaves(&self, leaf: &dyn Fn(&Expr) -> Expr) -> Expr {
        let one = |e: &Expr| Box::new(e.map_leaves(leaf));
        let all = |v: &[Expr]| v.iter().map(|e| e.map_leaves(leaf)).collect();
        match self {
            Expr::Const(_) | Expr::Column(_) | Expr::Param(_) => leaf(self),
            Expr::Cmp(op, l, r) => Expr::Cmp(*op, one(l), one(r)),
            Expr::And(v) => Expr::And(all(v)),
            Expr::Or(v) => Expr::Or(all(v)),
            Expr::Not(i) => Expr::Not(one(i)),
            Expr::Arith(op, l, r) => Expr::Arith(*op, one(l), one(r)),
            Expr::Neg(i) => Expr::Neg(one(i)),
            Expr::IsNull(i, n) => Expr::IsNull(one(i), *n),
            Expr::Like(i, p) => Expr::Like(one(i), p.clone()),
            Expr::Encloses(l, r) => Expr::Encloses(one(l), one(r)),
            Expr::Intersects(l, r) => Expr::Intersects(one(l), one(r)),
            Expr::Func(n, args) => Expr::Func(n.clone(), all(args)),
        }
    }

    /// Substitutes `params[n]` for every `$n`; a `$n` past the end stays
    /// and fails when evaluated.
    pub fn bind(&self, params: &[Value]) -> Expr {
        self.map_leaves(&|leaf| match leaf {
            Expr::Param(n) => params
                .get(*n)
                .map_or(Expr::Param(*n), |v| Expr::Const(v.clone())),
            other => other.clone(),
        })
    }

    /// The always-true predicate.
    pub fn always_true() -> Expr {
        Expr::Const(Value::Bool(true))
    }

    /// True when the expression is the trivial `TRUE` constant.
    pub fn is_trivially_true(&self) -> bool {
        matches!(self, Expr::Const(Value::Bool(true)))
            || matches!(self, Expr::And(v) if v.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_is_involutive_on_order_ops() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flipped().flipped(), op);
        }
    }

    #[test]
    fn matches_orderings() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Le.matches(Equal));
        assert!(CmpOp::Le.matches(Less));
        assert!(!CmpOp::Le.matches(Greater));
        assert!(CmpOp::Ne.matches(Less));
        assert!(!CmpOp::Ne.matches(Equal));
    }

    #[test]
    fn and_flattens() {
        let e = Expr::col_eq(0, 1i64)
            .and(Expr::col_eq(1, 2i64))
            .and(Expr::col_eq(2, 3i64));
        match e {
            Expr::And(v) => assert_eq!(v.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
    }

    #[test]
    fn trivially_true() {
        assert!(Expr::always_true().is_trivially_true());
        assert!(Expr::And(vec![]).is_trivially_true());
        assert!(!Expr::col_eq(0, 1i64).is_trivially_true());
    }
}
