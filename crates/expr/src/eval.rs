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
///
/// [`FieldSource::field`] is all a source has to implement. The evaluator
/// compares a column with a constant or a bound parameter — most of what
/// a filter does, once per record a scan examines — through
/// [`FieldSource::cmp_field`], whose default is `field` then
/// [`Value::compare`]. Overriding it pays when `field` has to build the
/// value it returns: an encoded record compares the bytes where they lie,
/// a materialized row compares by reference, and neither allocates. An
/// override must answer exactly what the default would, errors included.
pub trait FieldSource {
    /// Value of field `id`.
    fn field(&self, id: FieldId) -> Result<Value>;

    /// How field `id` compares with `other`: `None` when either is NULL,
    /// a type error when the two cannot be compared.
    fn cmp_field(&self, id: FieldId, other: &Value) -> Result<Option<Ordering>> {
        self.field(id)?.compare(other)
    }
}

fn no_field(id: FieldId) -> DmxError {
    DmxError::InvalidArg(format!("no field {id}"))
}

/// Materialized rows.
impl FieldSource for [Value] {
    fn field(&self, id: FieldId) -> Result<Value> {
        self.get(id as usize).cloned().ok_or_else(|| no_field(id))
    }

    fn cmp_field(&self, id: FieldId, other: &Value) -> Result<Option<Ordering>> {
        self.get(id as usize)
            .ok_or_else(|| no_field(id))?
            .compare(other)
    }
}

impl FieldSource for Vec<Value> {
    fn field(&self, id: FieldId) -> Result<Value> {
        self.as_slice().field(id)
    }

    fn cmp_field(&self, id: FieldId, other: &Value) -> Result<Option<Ordering>> {
        self.as_slice().cmp_field(id, other)
    }
}

impl FieldSource for &[Value] {
    fn field(&self, id: FieldId) -> Result<Value> {
        (**self).field(id)
    }

    fn cmp_field(&self, id: FieldId, other: &Value) -> Result<Option<Ordering>> {
        (**self).cmp_field(id, other)
    }
}

/// Buffer-resident encoded records: fields are decoded lazily, in place.
impl FieldSource for RecordRef<'_> {
    fn field(&self, id: FieldId) -> Result<Value> {
        RecordRef::field(self, id)
    }

    fn cmp_field(&self, id: FieldId, other: &Value) -> Result<Option<Ordering>> {
        RecordRef::cmp_field(self, id, other)
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

impl<S: FieldSource + ?Sized> MappedSource<'_, S> {
    fn position(&self, id: FieldId) -> Result<FieldId> {
        let pos = self.mapping.iter().position(|&m| m == id).ok_or_else(|| {
            DmxError::InvalidArg(format!("field {id} not covered by access path"))
        })?;
        Ok(pos as FieldId)
    }
}

impl<S: FieldSource + ?Sized> FieldSource for MappedSource<'_, S> {
    fn field(&self, id: FieldId) -> Result<Value> {
        self.inner.field(self.position(id)?)
    }

    fn cmp_field(&self, id: FieldId, other: &Value) -> Result<Option<Ordering>> {
        self.inner.cmp_field(self.position(id)?, other)
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
            // A column against a constant or a bound parameter is compared
            // where the column lies; with the column on the right the
            // ordering reads the other way round. A type error is worded
            // below, in operand order.
            let in_place = match (l.as_ref(), r.as_ref()) {
                (Expr::Column(id), k) => constant(k, ctx).map(|v| src.cmp_field(*id, v)),
                (k, Expr::Column(id)) => {
                    constant(k, ctx).map(|v| Ok(src.cmp_field(*id, v)?.map(Ordering::reverse)))
                }
                _ => None,
            };
            let ord = match in_place {
                Some(Err(DmxError::TypeMismatch(_))) | None => {
                    operand(l, src, ctx)?.compare(&*operand(r, src, ctx)?)?
                }
                Some(ord) => ord?,
            };
            Ok(ord.map(|ord| op.matches(ord)))
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

/// The value of a constant or a bound parameter, where it is.
fn constant<'e>(expr: &'e Expr, ctx: EvalContext<'e>) -> Option<&'e Value> {
    match expr {
        Expr::Const(v) => Some(v),
        Expr::Param(i) => ctx.params.get(*i),
        _ => None,
    }
}

/// A comparison's operand: a constant or a bound parameter is compared
/// where it is, anything else (an unbound parameter, for its error) is
/// evaluated.
fn operand<'e>(
    expr: &'e Expr,
    src: &dyn FieldSource,
    ctx: EvalContext<'e>,
) -> Result<Cow<'e, Value>> {
    match constant(expr, ctx) {
        Some(v) => Ok(Cow::Borrowed(v)),
        None => eval(expr, src, ctx).map(Cow::Owned),
    }
}

fn bool_expected(v: &Value) -> DmxError {
    DmxError::TypeMismatch(format!("predicate evaluated to non-boolean {v}"))
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

    /// A source that implements `field` and nothing else: the defaulted
    /// `cmp_field`, which is the comparison as it was before any source
    /// compared in place.
    struct FieldOnly<'a>(&'a [Value]);

    impl FieldSource for FieldOnly<'_> {
        fn field(&self, id: FieldId) -> Result<Value> {
            self.0.field(id)
        }
    }

    /// What comparing two values has always meant, written out without
    /// `Value::compare`: NULL, a type error worded left to right, or the
    /// operator applied to the total order.
    fn compared(op: CmpOp, l: &Value, r: &Value) -> std::result::Result<Value, String> {
        use dmx_types::DataType::{Float, Int};
        let (Some(lt), Some(rt)) = (l.data_type(), r.data_type()) else {
            return Ok(Value::Null);
        };
        let numeric = |t| matches!(t, Int | Float);
        if lt != rt && !(numeric(lt) && numeric(rt)) {
            return Err(DmxError::TypeMismatch(format!("cannot compare {l} with {r}")).to_string());
        }
        Ok(Value::Bool(op.matches(l.total_cmp(r))))
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// A value of every tag, drawn so that equal, adjacent and extreme
    /// ones meet often.
    fn random_value(rng: &mut dmx_types::testrng::TestRng) -> Value {
        let ints = [0, 1, -1, 7, i64::MAX, i64::MIN, (1 << 53) + 1];
        let floats = [0.0, -0.0, 1.0, 7.0, 2.5, f64::NAN, f64::INFINITY, -1e300];
        let strs = ["", "a", "ab", "b", "é", "éa", "日本", "\u{10FFFF}"];
        match rng.index(8) {
            0 => Value::Null,
            1 => Value::Bool(rng.index(2) == 1),
            2 => Value::Int(ints[rng.index(ints.len())]),
            3 => Value::Float(floats[rng.index(floats.len())]),
            4 => Value::from(strs[rng.index(strs.len())]),
            5 => Value::Bytes(rng.bytes(3)),
            6 => Value::Bytes(Vec::new()),
            _ => {
                let c = |rng: &mut dmx_types::testrng::TestRng| rng.range_i64(0, 3) as f64;
                Value::Rect(Rect::new(c(rng), c(rng), c(rng) + 3.0, c(rng) + 3.0))
            }
        }
    }

    #[test]
    fn comparing_in_place_is_the_comparison_it_replaces() {
        let funcs = ctx_fixture();
        let mut rng = dmx_types::testrng::TestRng::new(0x5EED);
        let mut seen_errors = 0;
        for _ in 0..400 {
            let row: Vec<Value> = (0..6).map(|_| random_value(&mut rng)).collect();
            let bytes = Record::new(row.clone()).encode();
            let rr = RecordRef::new(&bytes).unwrap();
            let id = rng.index(row.len()) as FieldId;
            let konst = random_value(&mut rng);
            // the constant as itself and as a bound parameter
            let params = [konst.clone()];
            for k in [Expr::Const(konst.clone()), Expr::Param(0)] {
                let ctx = EvalContext::with_params(&funcs, &params);
                for op in OPS {
                    let col = || Box::new(Expr::Column(id));
                    let sides = [
                        (
                            Expr::Cmp(op, col(), Box::new(k.clone())),
                            &row[id as usize],
                            &konst,
                        ),
                        (
                            Expr::Cmp(op, Box::new(k.clone()), col()),
                            &konst,
                            &row[id as usize],
                        ),
                    ];
                    for (e, l, r) in sides {
                        let want = compared(op, l, r);
                        seen_errors += want.is_err() as usize;
                        let sources: [(&str, &dyn FieldSource); 3] = [
                            ("record", &rr),
                            ("row", &row),
                            ("field only", &FieldOnly(&row)),
                        ];
                        for (name, src) in sources {
                            let got = eval(&e, src, ctx).map_err(|e| e.to_string());
                            assert_eq!(got, want, "{name}: {e:?} over {row:?}");
                            // a reader walks on from where the comparison left the view
                            let again = src.field(id).unwrap();
                            assert_eq!(again.total_cmp(&row[id as usize]), Ordering::Equal);
                        }
                    }
                }
            }
        }
        assert!(seen_errors > 100, "type errors were exercised");
    }

    #[test]
    fn comparing_in_place_reports_damage_and_bad_ids() {
        let funcs = ctx_fixture();
        let ctx = EvalContext::new(&funcs);
        let row = vec![
            Value::Int(7),
            Value::from("日本"),
            Value::Bytes(vec![1, 2, 3]),
            Value::Rect(Rect::new(0.0, 0.0, 1.0, 1.0)),
            Value::Float(2.5),
        ];
        let bytes = Record::new(row.clone()).encode();
        // where each field starts, and the end
        let mut starts = vec![2];
        for v in &row {
            starts.push(starts[starts.len() - 1] + v.estimated_size());
        }
        assert_eq!(starts[row.len()], bytes.len());
        for (id, v) in row.iter().enumerate() {
            let e = Expr::Cmp(
                CmpOp::Eq,
                Box::new(Expr::Column(id as FieldId)),
                Box::new(Expr::Const(v.clone())),
            );
            // cut before the field, at its tag, inside it, one byte short
            for cut in [starts[id], starts[id] + 1, starts[id + 1] - 1] {
                let rr = RecordRef::new(&bytes[..cut]).unwrap();
                assert!(
                    matches!(eval(&e, &rr, ctx), Err(DmxError::Corrupt(_))),
                    "field {id} cut at {cut}"
                );
            }
            let whole = RecordRef::new(&bytes[..starts[id + 1]]).unwrap();
            assert_eq!(eval(&e, &whole, ctx).unwrap(), Value::Bool(true));
        }
        let rr = RecordRef::new(&bytes).unwrap();
        let past = Expr::col_eq(row.len() as FieldId, 1i64);
        assert!(matches!(
            eval(&past, &rr, ctx),
            Err(DmxError::InvalidArg(_))
        ));
        assert!(matches!(
            eval(&past, &row, ctx),
            Err(DmxError::InvalidArg(_))
        ));
        // a string field that is not UTF-8 is damage, compared or decoded
        let mut bad = bytes.clone();
        bad[starts[1] + 5] = 0xFF;
        let rr = RecordRef::new(&bad).unwrap();
        assert!(matches!(
            eval(&Expr::col_eq(1, "日本"), &rr, ctx),
            Err(DmxError::Corrupt(_))
        ));
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
