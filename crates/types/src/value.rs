//! Typed field values.
//!
//! [`Value`] is the common field value representation exchanged between the
//! generic operations of storage methods, attachments and the common
//! services predicate evaluator. [`DataType`] is its schema-level type.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{DmxError, Result};
use crate::key::TWO_POW_63;
use crate::rect::Rect;

/// Schema-level data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Bytes,
    Rect,
}

impl DataType {
    /// Parses a type name as it appears in the mini data definition
    /// language (`INT`, `FLOAT`, `STRING`/`STR`, `BOOL`, `BYTES`, `RECT`).
    pub fn parse(s: &str) -> Result<DataType> {
        match s.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            "INT" | "INTEGER" | "BIGINT" => Ok(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" => Ok(DataType::Float),
            "STR" | "STRING" | "TEXT" | "VARCHAR" | "CHAR" => Ok(DataType::Str),
            "BYTES" | "BLOB" => Ok(DataType::Bytes),
            "RECT" => Ok(DataType::Rect),
            other => Err(DmxError::InvalidArg(format!("unknown data type {other}"))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
            DataType::Bytes => "BYTES",
            DataType::Rect => "RECT",
        };
        f.write_str(s)
    }
}

/// A single field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Bytes(Vec<u8>),
    Rect(Rect),
}

impl Value {
    /// The value's data type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bytes(_) => Some(DataType::Bytes),
            Value::Rect(_) => Some(DataType::Rect),
        }
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True when the value matches `ty` or is null (nulls are typeless and
    /// admissible in any nullable column).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(t) => t == ty || (t == DataType::Int && ty == DataType::Float),
        }
    }

    /// Total order over values, used for sorting and key comparison. The
    /// order is: `Null` first, then by type rank (Bool, Int/Float merged
    /// numerically, Str, Bytes, Rect), then by value. Ints and floats
    /// compare exactly by numeric value, so mixed-type numeric keys behave
    /// sensibly and a scan orders them as [`crate::key`] encodes them.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
                Bytes(_) => 4,
                Rect(_) => 5,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Rect(a), Rect(b)) => (a.xlo, a.ylo, a.xhi, a.yhi)
                .partial_cmp(&(b.xlo, b.ylo, b.xhi, b.yhi))
                .unwrap_or(Ordering::Equal),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// SQL comparison: `None` (NULL) when either side is NULL, a type
    /// error when the two are not of one comparable type (INT and FLOAT
    /// are), [`Value::total_cmp`] otherwise.
    pub fn compare(&self, other: &Value) -> Result<Option<Ordering>> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(None),
            (Bool(_), Bool(_))
            | (Int(_) | Float(_), Int(_) | Float(_))
            | (Str(_), Str(_))
            | (Bytes(_), Bytes(_))
            | (Rect(_), Rect(_)) => Ok(Some(self.total_cmp(other))),
            _ => Err(DmxError::TypeMismatch(format!(
                "cannot compare {self} with {other}"
            ))),
        }
    }

    /// Extracts an `i64`, coercing bools; errors otherwise.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(DmxError::TypeMismatch(format!("expected INT, got {other}"))),
        }
    }

    /// Extracts an `f64`, coercing ints.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            other => Err(DmxError::TypeMismatch(format!(
                "expected FLOAT, got {other}"
            ))),
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(DmxError::TypeMismatch(format!(
                "expected STRING, got {other}"
            ))),
        }
    }

    /// Extracts a rectangle.
    pub fn as_rect(&self) -> Result<Rect> {
        match self {
            Value::Rect(r) => Ok(*r),
            other => Err(DmxError::TypeMismatch(format!(
                "expected RECT, got {other}"
            ))),
        }
    }

    /// Rough in-memory size, used by the cost model for record width
    /// estimates.
    pub fn estimated_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Bytes(b) => 5 + b.len(),
            Value::Rect(_) => 33,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => write!(f, "x'{}'", hex(b)),
            Value::Rect(r) => write!(f, "RECT({}, {}, {}, {})", r.xlo, r.ylo, r.xhi, r.yhi),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Rect> for Value {
    fn from(v: Rect) -> Self {
        Value::Rect(v)
    }
}

/// `Int(n)` against `Float(x)` exactly, with no rounding of `n` to f64
/// (which would make `Int(2^53 + 1)` equal `Float(2^53)`): the integer
/// parts first, then a fraction above its integer part. `-0.0` and NaN sit
/// where `f64::total_cmp` puts them: `-0.0` between −1 and 0, a NaN below
/// or above every number by its sign. This is the order of the key
/// encoding.
fn int_float_cmp(n: i64, x: f64) -> Ordering {
    if x.is_nan() {
        return if x.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if x >= TWO_POW_63 {
        return Ordering::Less;
    }
    if x < -TWO_POW_63 {
        return Ordering::Greater;
    }
    // in the i64 range: `floor(x)` is exact
    let (whole, fraction) = if x == 0.0 && x.is_sign_negative() {
        (-1, true)
    } else {
        (x.floor() as i64, x != x.floor())
    };
    n.cmp(&whole).then(if fraction {
        Ordering::Less
    } else {
        Ordering::Equal
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_type_names() {
        assert_eq!(DataType::parse("int").unwrap(), DataType::Int);
        assert_eq!(DataType::parse("VARCHAR").unwrap(), DataType::Str);
        assert_eq!(DataType::parse("rect").unwrap(), DataType::Rect);
        assert!(DataType::parse("decimal").is_err());
    }

    #[test]
    fn total_cmp_numeric_merge() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.0).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
    }

    /// An INT and a FLOAT compare exactly, past f64 precision too, and
    /// `-0.0`, the infinities and NaN sit where `f64::total_cmp` puts them.
    #[test]
    fn total_cmp_of_int_and_float_is_exact() {
        let two53 = 1i64 << 53;
        let cases = [
            (two53 + 1, two53 as f64, Ordering::Greater),
            (two53, two53 as f64, Ordering::Equal),
            (-two53 - 1, -(two53 as f64), Ordering::Less),
            (i64::MAX, 9_223_372_036_854_775_808.0, Ordering::Less),
            (i64::MIN, -9_223_372_036_854_775_808.0, Ordering::Equal),
            (0, -0.0, Ordering::Greater),
            (-1, -0.0, Ordering::Less),
            (0, 0.0, Ordering::Equal),
            (-3, -2.5, Ordering::Less),
            (-2, -2.5, Ordering::Greater),
            (i64::MAX, f64::INFINITY, Ordering::Less),
            (i64::MIN, f64::NEG_INFINITY, Ordering::Greater),
            (i64::MAX, f64::NAN, Ordering::Less),
            (i64::MIN, -f64::NAN, Ordering::Greater),
        ];
        for (n, x, want) in cases {
            assert_eq!(
                Value::Int(n).total_cmp(&Value::Float(x)),
                want,
                "{n} vs {x}"
            );
            assert_eq!(Value::Float(x).total_cmp(&Value::Int(n)), want.reverse());
        }
    }

    #[test]
    fn total_cmp_null_first_and_cross_type_rank() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(Value::Bool(true).total_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Int(9)),
            Ordering::Greater
        );
    }

    #[test]
    fn compare_is_null_aware_and_typed() {
        assert_eq!(Value::Null.compare(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::from("a").compare(&Value::Null).unwrap(), None);
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.5)).unwrap(),
            Some(Ordering::Less)
        );
        let err = Value::from("a").compare(&Value::Int(1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            DmxError::TypeMismatch("cannot compare 'a' with 1".into()).to_string()
        );
    }

    #[test]
    fn conforms_allows_null_and_int_to_float_widening() {
        assert!(Value::Null.conforms_to(DataType::Str));
        assert!(Value::Int(1).conforms_to(DataType::Float));
        assert!(!Value::Float(1.0).conforms_to(DataType::Int));
        assert!(!Value::Str("x".into()).conforms_to(DataType::Int));
    }

    #[test]
    fn accessors_and_coercions() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert_eq!(Value::Bool(true).as_int().unwrap(), 1);
        assert_eq!(Value::Int(7).as_float().unwrap(), 7.0);
        assert!(Value::Str("x".into()).as_int().is_err());
        assert_eq!(Value::Str("x".into()).as_str().unwrap(), "x");
    }

    #[test]
    fn display_roundtrip_shapes() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Str("bob".into()).to_string(), "'bob'");
        assert_eq!(Value::Bytes(vec![0xde, 0xad]).to_string(), "x'dead'");
    }
}
