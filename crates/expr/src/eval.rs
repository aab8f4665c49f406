//! Expression evaluation with SQL three-valued logic.
//!
//! Evaluation reads record fields through [`FieldSource`], so the same
//! evaluator serves (a) buffer-pool-resident records via the lazy
//! `RecordRef` (no copy — the paper's stated goal), (b) materialized rows
//! in the executor, and (c) access-path keys that cover only a field
//! subset.

use std::borrow::Cow;
use std::cmp::Ordering;

use dmx_types::{DmxError, FieldId, RecordRef, Result, Value};

use crate::ast::{BinOp, Expr};
use crate::func::FunctionRegistry;

/// Supplies field values for the record an expression is evaluated
/// against.
pub trait FieldSource {
    /// Value of field `id`.
    fn field(&self, id: FieldId) -> Result<Value>;
}

/// Materialized rows.
impl FieldSource for [Value] {
    fn field(&self, id: FieldId) -> Result<Value> {
        self.get(id as usize)
            .cloned()
            .ok_or_else(|| DmxError::InvalidArg(format!("no field {id}")))
    }
}

impl FieldSource for Vec<Value> {
    fn field(&self, id: FieldId) -> Result<Value> {
        self.as_slice().field(id)
    }
}

impl FieldSource for &[Value] {
    fn field(&self, id: FieldId) -> Result<Value> {
        (**self).field(id)
    }
}

/// Buffer-resident encoded records: fields are decoded lazily, in place.
impl FieldSource for RecordRef<'_> {
    fn field(&self, id: FieldId) -> Result<Value> {
        RecordRef::field(self, id)
    }
}

/// A source with no fields (for constant-only expressions).
pub struct NoFields;

impl FieldSource for NoFields {
    fn field(&self, id: FieldId) -> Result<Value> {
        Err(DmxError::InvalidArg(format!(
            "expression references field {id} but no record is in scope"
        )))
    }
}

/// A source that remaps a projected record back to base-table field ids —
/// used when a covering access path supplies only the indexed fields.
pub struct MappedSource<'a, S: FieldSource + ?Sized> {
    inner: &'a S,
    /// `mapping[i]` = base-table field id of inner field `i`.
    mapping: &'a [FieldId],
}

impl<'a, S: FieldSource + ?Sized> MappedSource<'a, S> {
    /// Wraps `inner`, whose field `i` corresponds to base field
    /// `mapping[i]`.
    pub fn new(inner: &'a S, mapping: &'a [FieldId]) -> Self {
        MappedSource { inner, mapping }
    }
}

impl<S: FieldSource + ?Sized> FieldSource for MappedSource<'_, S> {
    fn field(&self, id: FieldId) -> Result<Value> {
        let pos = self.mapping.iter().position(|&m| m == id).ok_or_else(|| {
            DmxError::InvalidArg(format!("field {id} not covered by access path"))
        })?;
        self.inner.field(pos as FieldId)
    }
}

/// Evaluation context: the function registry and host-variable bindings.
#[derive(Clone, Copy)]
pub struct EvalContext<'a> {
    pub funcs: &'a FunctionRegistry,
    pub params: &'a [Value],
}

impl<'a> EvalContext<'a> {
    /// Context with functions but no parameters.
    pub fn new(funcs: &'a FunctionRegistry) -> Self {
        EvalContext { funcs, params: &[] }
    }

    /// Context with parameters bound.
    pub fn with_params(funcs: &'a FunctionRegistry, params: &'a [Value]) -> Self {
        EvalContext { funcs, params }
    }
}

/// Evaluates an expression to a [`Value`] (which may be `Null`).
pub fn eval(expr: &Expr, src: &dyn FieldSource, ctx: EvalContext<'_>) -> Result<Value> {
    match expr {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Column(id) => src.field(*id),
        Expr::Param(i) => ctx
            .params
            .get(*i)
            .cloned()
            .ok_or_else(|| DmxError::InvalidArg(format!("unbound parameter ${i}"))),
        Expr::Cmp(..) | Expr::And(_) | Expr::Or(_) | Expr::Not(_) => {
            Ok(truth(expr, src, ctx)?.map_or(Value::Null, Value::Bool))
        }
        Expr::Arith(op, l, r) => {
            let (lv, rv) = (eval(l, src, ctx)?, eval(r, src, ctx)?);
            arith(*op, &lv, &rv)
        }
        Expr::Neg(e) => match eval(e, src, ctx)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(DmxError::TypeMismatch(format!("cannot negate {other}"))),
        },
        Expr::IsNull(e, negated) => {
            let v = eval(e, src, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Like(e, pattern) => match eval(e, src, ctx)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern))),
            other => Err(DmxError::TypeMismatch(format!("LIKE on {other}"))),
        },
        Expr::Encloses(l, r) => spatial(l, r, src, ctx, |a, b| a.encloses(&b)),
        Expr::Intersects(l, r) => spatial(l, r, src, ctx, |a, b| a.intersects(&b)),
        Expr::Func(name, args) => {
            let f = ctx.funcs.get(name)?.clone();
            let argv = args
                .iter()
                .map(|a| eval(a, src, ctx))
                .collect::<Result<Vec<_>>>()?;
            f(&argv)
        }
    }
}

/// Evaluates a predicate; SQL semantics: NULL counts as not-satisfied.
pub fn eval_predicate(expr: &Expr, src: &dyn FieldSource, ctx: EvalContext<'_>) -> Result<bool> {
    Ok(truth(expr, src, ctx)?.unwrap_or(false))
}

/// The three-valued truth of a boolean expression (`None` = NULL): the
/// connectives and comparisons are worked out here, on `bool`s, so that a
/// filter run against every record of a page builds no [`Value`] for its
/// own intermediate results.
fn truth(expr: &Expr, src: &dyn FieldSource, ctx: EvalContext<'_>) -> Result<Option<bool>> {
    match expr {
        Expr::Cmp(op, l, r) => {
            let (lv, rv) = (operand(l, src, ctx)?, operand(r, src, ctx)?);
            if lv.is_null() || rv.is_null() {
                return Ok(None);
            }
            check_comparable(&lv, &rv)?;
            Ok(Some(op.matches(lv.total_cmp(&rv))))
        }
        Expr::And(terms) => {
            let mut saw_null = false;
            for t in terms {
                match truth(t, src, ctx)? {
                    Some(false) => return Ok(Some(false)),
                    Some(true) => {}
                    None => saw_null = true,
                }
            }
            Ok((!saw_null).then_some(true))
        }
        Expr::Or(terms) => {
            let mut saw_null = false;
            for t in terms {
                match truth(t, src, ctx)? {
                    Some(true) => return Ok(Some(true)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            Ok((!saw_null).then_some(false))
        }
        Expr::Not(e) => Ok(truth(e, src, ctx)?.map(|b| !b)),
        other => match eval(other, src, ctx)? {
            Value::Bool(b) => Ok(Some(b)),
            Value::Null => Ok(None),
            other => Err(bool_expected(&other)),
        },
    }
}

/// A comparison's operand: a constant or a bound parameter is compared
/// where it is, anything else is evaluated.
fn operand<'e>(
    expr: &'e Expr,
    src: &dyn FieldSource,
    ctx: EvalContext<'e>,
) -> Result<Cow<'e, Value>> {
    match expr {
        Expr::Const(v) => Ok(Cow::Borrowed(v)),
        Expr::Param(i) => match ctx.params.get(*i) {
            Some(v) => Ok(Cow::Borrowed(v)),
            None => eval(expr, src, ctx).map(Cow::Owned), // the unbound-parameter error
        },
        _ => eval(expr, src, ctx).map(Cow::Owned),
    }
}

fn bool_expected(v: &Value) -> DmxError {
    DmxError::TypeMismatch(format!("predicate evaluated to non-boolean {v}"))
}

fn check_comparable(a: &Value, b: &Value) -> Result<()> {
    use Value::*;
    let ok = matches!(
        (a, b),
        (Bool(_), Bool(_))
            | (Int(_) | Float(_), Int(_) | Float(_))
            | (Str(_), Str(_))
            | (Bytes(_), Bytes(_))
            | (Rect(_), Rect(_))
    );
    if ok {
        Ok(())
    } else {
        Err(DmxError::TypeMismatch(format!(
            "cannot compare {a} with {b}"
        )))
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use Value::*;
    if l.is_null() || r.is_null() {
        return Ok(Null);
    }
    match (l, r) {
        (Int(a), Int(b)) => {
            let v = match op {
                BinOp::Add => a.checked_add(*b),
                BinOp::Sub => a.checked_sub(*b),
                BinOp::Mul => a.checked_mul(*b),
                BinOp::Div => {
                    if *b == 0 {
                        return Err(DmxError::InvalidArg("division by zero".into()));
                    }
                    a.checked_div(*b)
                }
                BinOp::Mod => {
                    if *b == 0 {
                        return Err(DmxError::InvalidArg("division by zero".into()));
                    }
                    a.checked_rem(*b)
                }
            };
            v.map(Int)
                .ok_or_else(|| DmxError::InvalidArg("integer overflow".into()))
        }
        (Int(_) | Float(_), Int(_) | Float(_)) => {
            let (a, b) = (l.as_float()?, r.as_float()?);
            let v = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(DmxError::InvalidArg("division by zero".into()));
                    }
                    a / b
                }
                BinOp::Mod => a % b,
            };
            Ok(Float(v))
        }
        (Str(a), Str(b)) if op == BinOp::Add => Ok(Str(format!("{a}{b}"))),
        _ => Err(DmxError::TypeMismatch(format!("{l} {op} {r}"))),
    }
}

fn spatial(
    l: &Expr,
    r: &Expr,
    src: &dyn FieldSource,
    ctx: EvalContext<'_>,
    f: impl Fn(dmx_types::Rect, dmx_types::Rect) -> bool,
) -> Result<Value> {
    let (lv, rv) = (eval(l, src, ctx)?, eval(r, src, ctx)?);
    if lv.is_null() || rv.is_null() {
        return Ok(Value::Null);
    }
    Ok(Value::Bool(f(lv.as_rect()?, rv.as_rect()?)))
}

/// SQL LIKE: `%` matches any run, `_` matches one character.
fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            // bounds: `p` is non-empty in these arms and `k` ≤ s.len().
            Some('%') => (0..=s.len()).any(|k| rec(&s[k..], &p[1..])),
            // bounds: `s[1..]` is guarded by the !s.is_empty() check.
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            // bounds: see above; `s.first()` matched so s is non-empty.
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

/// Compares two rows field-wise for ORDER BY / sort-merge uses.
pub fn compare_rows(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = x.total_cmp(y);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use dmx_types::{Record, Rect};

    fn ctx_fixture() -> FunctionRegistry {
        FunctionRegistry::with_builtins()
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Int(7),
            Value::from("ann"),
            Value::Null,
            Value::Float(2.5),
            Value::Rect(Rect::new(0.0, 0.0, 10.0, 10.0)),
        ]
    }

    fn check(expr: &Expr, expect: Value) {
        let funcs = ctx_fixture();
        let ctx = EvalContext::new(&funcs);
        assert_eq!(eval(expr, &row(), ctx).unwrap(), expect, "{expr:?}");
    }

    #[test]
    fn comparisons_and_3vl() {
        check(&Expr::col_eq(0, 7i64), Value::Bool(true));
        check(&Expr::cmp_col(CmpOp::Gt, 3, 2i64), Value::Bool(true));
        // NULL comparison yields NULL, and AND/OR propagate it correctly
        check(&Expr::col_eq(2, 1i64), Value::Null);
        check(
            &Expr::And(vec![Expr::col_eq(2, 1i64), Expr::Const(Value::Bool(false))]),
            Value::Bool(false),
        );
        check(
            &Expr::And(vec![Expr::col_eq(2, 1i64), Expr::Const(Value::Bool(true))]),
            Value::Null,
        );
        check(
            &Expr::Or(vec![Expr::col_eq(2, 1i64), Expr::Const(Value::Bool(true))]),
            Value::Bool(true),
        );
        check(&Expr::Not(Box::new(Expr::col_eq(2, 1i64))), Value::Null);
    }

    #[test]
    fn predicate_nulls_reject() {
        let funcs = ctx_fixture();
        let ctx = EvalContext::new(&funcs);
        assert!(!eval_predicate(&Expr::col_eq(2, 1i64), &row(), ctx).unwrap());
        assert!(
            eval_predicate(&Expr::IsNull(Box::new(Expr::Column(2)), false), &row(), ctx).unwrap()
        );
        assert!(
            !eval_predicate(&Expr::IsNull(Box::new(Expr::Column(0)), false), &row(), ctx).unwrap()
        );
    }

    #[test]
    fn arithmetic_with_coercion_and_errors() {
        check(
            &Expr::Arith(
                BinOp::Add,
                Box::new(Expr::Column(0)),
                Box::new(Expr::Column(3)),
            ),
            Value::Float(9.5),
        );
        check(
            &Expr::Arith(
                BinOp::Mul,
                Box::new(Expr::Const(Value::Int(6))),
                Box::new(Expr::Const(Value::Int(7))),
            ),
            Value::Int(42),
        );
        let funcs = ctx_fixture();
        let ctx = EvalContext::new(&funcs);
        let div0 = Expr::Arith(
            BinOp::Div,
            Box::new(Expr::Const(Value::Int(1))),
            Box::new(Expr::Const(Value::Int(0))),
        );
        assert!(eval(&div0, &row(), ctx).is_err());
        let overflow = Expr::Arith(
            BinOp::Add,
            Box::new(Expr::Const(Value::Int(i64::MAX))),
            Box::new(Expr::Const(Value::Int(1))),
        );
        assert!(eval(&overflow, &row(), ctx).is_err());
        // string concatenation via +
        check(
            &Expr::Arith(
                BinOp::Add,
                Box::new(Expr::Column(1)),
                Box::new(Expr::Const(Value::from("!"))),
            ),
            Value::from("ann!"),
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "he%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b")); // literal works too
    }

    #[test]
    fn spatial_predicates() {
        let inner = Expr::Const(Value::Rect(Rect::new(1.0, 1.0, 2.0, 2.0)));
        let outside = Expr::Const(Value::Rect(Rect::new(20.0, 20.0, 30.0, 30.0)));
        check(
            &Expr::Encloses(Box::new(Expr::Column(4)), Box::new(inner.clone())),
            Value::Bool(true),
        );
        check(
            &Expr::Encloses(Box::new(inner.clone()), Box::new(Expr::Column(4))),
            Value::Bool(false),
        );
        check(
            &Expr::Intersects(Box::new(Expr::Column(4)), Box::new(outside)),
            Value::Bool(false),
        );
    }

    #[test]
    fn params_and_functions() {
        let funcs = ctx_fixture();
        let params = [Value::Int(7)];
        let ctx = EvalContext::with_params(&funcs, &params);
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Column(0)),
            Box::new(Expr::Param(0)),
        );
        assert!(eval_predicate(&e, &row(), ctx).unwrap());
        let e2 = Expr::Func("length".into(), vec![Expr::Column(1)]);
        assert_eq!(eval(&e2, &row(), ctx).unwrap(), Value::Int(3));
        assert!(eval(&Expr::Param(3), &row(), ctx).is_err());
        assert!(eval(&Expr::Func("nope".into(), vec![]), &row(), ctx).is_err());
        // Bound, the same predicate needs no parameters; a slot the values
        // do not reach stays and fails when evaluated.
        let unbound = EvalContext::new(&funcs);
        let both = e.clone().and(Expr::Not(Box::new(Expr::Param(3))));
        let bound = both.bind(&params);
        assert_eq!(
            bound,
            Expr::col_eq(0, 7i64).and(Expr::Not(Box::new(Expr::Param(3))))
        );
        assert!(eval_predicate(&e.bind(&params), &row(), unbound).unwrap());
        assert!(eval_predicate(&bound, &row(), unbound).is_err());
    }

    #[test]
    fn lazy_record_ref_source_no_copy() {
        // Evaluate against an encoded record in place — the buffer-pool
        // filtering path.
        let rec = Record::new(row());
        let bytes = rec.encode();
        let rr = RecordRef::new(&bytes).unwrap();
        let funcs = ctx_fixture();
        let ctx = EvalContext::new(&funcs);
        assert!(eval_predicate(&Expr::col_eq(0, 7i64), &rr, ctx).unwrap());
        assert!(!eval_predicate(&Expr::col_eq(1, "bob"), &rr, ctx).unwrap());
    }

    #[test]
    fn mapped_source_covering_path() {
        // An access path covering base fields [3, 0] supplies a 2-field
        // row; base-field references still resolve.
        let covered = vec![Value::Float(2.5), Value::Int(7)];
        let mapping = [3u16, 0u16];
        let m = MappedSource::new(covered.as_slice(), &mapping);
        let funcs = ctx_fixture();
        let ctx = EvalContext::new(&funcs);
        assert!(eval_predicate(&Expr::col_eq(0, 7i64), &m, ctx).unwrap());
        assert!(eval_predicate(&Expr::cmp_col(CmpOp::Ge, 3, 2i64), &m, ctx).unwrap());
        assert!(eval(&Expr::Column(1), &m, ctx).is_err(), "uncovered field");
    }

    #[test]
    fn incomparable_types_error() {
        let funcs = ctx_fixture();
        let ctx = EvalContext::new(&funcs);
        let e = Expr::col_eq(1, 5i64); // string column vs int
        assert!(eval(&e, &row(), ctx).is_err());
    }

    #[test]
    fn compare_rows_lexicographic() {
        use std::cmp::Ordering::*;
        let a = vec![Value::Int(1), Value::from("b")];
        let b = vec![Value::Int(1), Value::from("c")];
        assert_eq!(compare_rows(&a, &b), Less);
        assert_eq!(compare_rows(&a, &a), Equal);
        assert_eq!(compare_rows(&b, &a), Greater);
        assert_eq!(compare_rows(&a[..1], &a), Less, "prefix first");
    }
}
