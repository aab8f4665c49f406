//! The record wire format.
//!
//! Records are stored on pages (and in access-path leaves) in a compact
//! self-describing byte format. [`RecordRef`] reads that format *in place*:
//! the common-services predicate evaluator uses it to test filter
//! predicates against field values while they are still in the extension's
//! buffer pool, without copying the record out — a property the paper calls
//! out explicitly.

use std::cell::Cell;
use std::cmp::Ordering;

use crate::error::{DmxError, Result};
use crate::ids::FieldId;
use crate::rect::Rect;
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BYTES: u8 = 6;
const TAG_RECT: u8 = 7;

/// An owned record: a vector of field values plus (de)serialization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    pub values: Vec<Value>,
}

impl Record {
    /// Builds a record from values.
    pub fn new(values: Vec<Value>) -> Self {
        Record { values }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Serializes to the on-page format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.values.len() * 9);
        out.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            encode_value(v, &mut out);
        }
        out
    }

    /// Deserializes every field of an encoded record, in one forward pass.
    pub fn decode(buf: &[u8]) -> Result<Record> {
        let r = RecordRef::new(buf)?;
        let mut values = Vec::with_capacity(r.field_count() as usize);
        let mut pos = 2usize;
        for _ in 0..r.field_count() {
            let (v, next) = r.decode_at(pos)?;
            values.push(v);
            pos = next;
        }
        Ok(Record { values })
    }
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record { values }
    }
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        Value::Rect(r) => {
            out.push(TAG_RECT);
            out.extend_from_slice(&r.to_bytes());
        }
    }
}

/// The length [`Record::encode`] gives a record of `values`, without
/// building it.
pub fn encoded_len(values: &[Value]) -> usize {
    let field = |v: &Value| match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
        Value::Bytes(b) => 5 + b.len(),
        Value::Rect(_) => 33,
    };
    2 + values.iter().map(field).sum::<usize>()
}

// Damage is rare: its reports stay out of the walk's straight line.
#[cold]
fn truncated(place: &str) -> DmxError {
    DmxError::Corrupt(format!("record truncated {place}"))
}

#[cold]
fn bad_tag(tag: u8) -> DmxError {
    DmxError::Corrupt(format!("bad value tag {tag}"))
}

fn utf8(payload: &[u8]) -> Result<&str> {
    std::str::from_utf8(payload).map_err(|_| DmxError::Corrupt("string field not utf8".into()))
}

/// The value of a tag and payload that [`RecordRef::value_at`] has held
/// against the buffer.
fn decode(tag: u8, payload: &[u8]) -> Result<Value> {
    let corrupt = || truncated("in payload");
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(crate::bytes::le_i64(payload, 0).ok_or_else(corrupt)?),
        TAG_FLOAT => Value::Float(crate::bytes::le_f64(payload, 0).ok_or_else(corrupt)?),
        TAG_STR => Value::Str(utf8(payload)?.to_string()),
        TAG_BYTES => Value::Bytes(payload.to_vec()),
        TAG_RECT => Value::Rect(
            Rect::from_bytes(payload).ok_or_else(|| DmxError::Corrupt("bad rect field".into()))?,
        ),
        other => return Err(bad_tag(other)),
    })
}

/// A borrowed view over an encoded record that decodes fields lazily.
///
/// `field(i)` walks the encoding, skipping earlier fields without
/// materializing them; `fields(..)` extracts a projection in a single
/// pass. The view remembers where the last field it was asked for
/// starts, so a filter that looks at one field twice and the projection
/// that follows it walk the record once between them, not three times.
#[derive(Debug, Clone)]
pub struct RecordRef<'a> {
    buf: &'a [u8],
    field_count: u16,
    /// A field and the offset it starts at: the walk to any field at or
    /// behind it starts here.
    reached: Cell<(FieldId, usize)>,
}

impl<'a> RecordRef<'a> {
    /// Wraps an encoded record, validating only the header.
    pub fn new(buf: &'a [u8]) -> Result<Self> {
        if buf.len() < 2 {
            return Err(DmxError::Corrupt("record shorter than header".into()));
        }
        let field_count = u16::from_le_bytes([buf[0], buf[1]]);
        Ok(RecordRef {
            buf,
            field_count,
            reached: Cell::new((0, 2)),
        })
    }

    /// Number of fields the record claims to carry.
    pub fn field_count(&self) -> u16 {
        self.field_count
    }

    /// The raw encoded bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.buf
    }

    /// The value starting at `pos` as it lies in the buffer: its tag, its
    /// payload (a string's or byte string's without the length word) and
    /// the offset just past it. The one place a tag is checked and a
    /// length is held against the buffer.
    #[inline(always)]
    fn value_at(&self, pos: usize) -> Result<(u8, &'a [u8], usize)> {
        let buf = self.buf;
        let Some(&tag) = buf.get(pos) else {
            return Err(truncated("at tag"));
        };
        let (start, len) = match tag {
            TAG_NULL | TAG_BOOL_FALSE | TAG_BOOL_TRUE => (pos + 1, 0),
            TAG_INT | TAG_FLOAT => (pos + 1, 8),
            TAG_STR | TAG_BYTES => match crate::bytes::le_u32(buf, pos + 1) {
                Some(len) => (pos + 5, len as usize),
                None => return Err(truncated("at length")),
            },
            TAG_RECT => (pos + 1, 32),
            other => return Err(bad_tag(other)),
        };
        match buf.get(start..).and_then(|rest| rest.get(..len)) {
            Some(payload) => Ok((tag, payload, start + len)),
            None => Err(truncated("in payload")),
        }
    }

    /// Skips over the value starting at `pos`, returning the offset just
    /// past it.
    #[inline]
    fn skip(&self, pos: usize) -> Result<usize> {
        Ok(self.value_at(pos)?.2)
    }

    fn decode_at(&self, pos: usize) -> Result<(Value, usize)> {
        let (tag, payload, next) = self.value_at(pos)?;
        Ok((decode(tag, payload)?, next))
    }

    /// The offset field `id` starts at, walking on from the field last
    /// reached when that is not past it.
    fn offset_of(&self, id: FieldId) -> Result<usize> {
        if id >= self.field_count {
            return Err(DmxError::InvalidArg(format!(
                "field {id} out of range (record has {})",
                self.field_count
            )));
        }
        let (mut at, mut pos) = match self.reached.get() {
            (at, pos) if at <= id => (at, pos),
            _ => (0, 2),
        };
        while at < id {
            pos = self.skip(pos)?;
            at += 1;
        }
        self.reached.set((id, pos));
        Ok(pos)
    }

    /// Decodes a single field by index, skipping the preceding fields.
    pub fn field(&self, id: FieldId) -> Result<Value> {
        Ok(self.decode_at(self.offset_of(id)?)?.0)
    }

    /// Compares field `id` with `other` where the field lies — what
    /// `self.field(id)?.compare(other)` answers, errors included, with
    /// no [`Value`] built for a string or byte string and nothing
    /// allocated: the evaluator's comparison of a column with a constant,
    /// run against every record of a page.
    pub fn cmp_field(&self, id: FieldId, other: &Value) -> Result<Option<Ordering>> {
        let (tag, payload, _) = self.value_at(self.offset_of(id)?)?;
        match (tag, other) {
            // the commonest pairing, without the detour through a `Value`
            (TAG_INT, Value::Int(b)) => match crate::bytes::le_i64(payload, 0) {
                Some(a) => Ok(Some(a.cmp(b))),
                None => Err(truncated("in payload")),
            },
            (TAG_STR, Value::Str(s)) => Ok(Some(utf8(payload)?.cmp(s.as_str()))),
            (TAG_BYTES, Value::Bytes(b)) => Ok(Some(payload.cmp(b.as_slice()))),
            // Every other pairing is with NULL, a type error, or of a tag
            // that decodes without allocating.
            _ => decode(tag, payload)?.compare(other),
        }
    }

    /// Decodes a projection of fields, output in request order. Ascending
    /// ids — what a planner's projection is — are one forward pass
    /// straight into the output, on from wherever a filter left the
    /// view; an id at or before its predecessor (any order is allowed,
    /// repeats too) starts its walk over.
    pub fn fields(&self, ids: &[FieldId]) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            let (v, next) = self.decode_at(self.offset_of(id)?)?;
            out.push(v);
            self.reached.set((id + 1, next));
        }
        Ok(out)
    }

    /// Fully decodes the record.
    pub fn to_record(&self) -> Result<Record> {
        Record::decode(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrng::TestRng;

    fn sample() -> Record {
        Record::new(vec![
            Value::Int(42),
            Value::from("alice"),
            Value::Null,
            Value::Float(-2.5),
            Value::Bool(true),
            Value::Bytes(vec![1, 2, 3]),
            Value::Rect(Rect::new(0.0, 0.0, 1.0, 1.0)),
        ])
    }

    #[test]
    fn roundtrip_all_types() {
        let r = sample();
        let bytes = r.encode();
        assert_eq!(Record::decode(&bytes).unwrap(), r);
        assert_eq!(encoded_len(&r.values), bytes.len());
        assert_eq!(encoded_len(&[]), Record::default().encode().len());
    }

    #[test]
    fn lazy_single_field() {
        let r = sample();
        let bytes = r.encode();
        let rr = RecordRef::new(&bytes).unwrap();
        assert_eq!(rr.field_count(), 7);
        assert_eq!(rr.field(0).unwrap(), Value::Int(42));
        assert_eq!(rr.field(4).unwrap(), Value::Bool(true));
        assert!(rr.field(7).is_err());
    }

    #[test]
    fn projection_any_order_with_repeats() {
        let r = sample();
        let bytes = r.encode();
        let rr = RecordRef::new(&bytes).unwrap();
        let got = rr.fields(&[4, 0, 0, 1]).unwrap();
        assert_eq!(
            got,
            vec![
                Value::Bool(true),
                Value::Int(42),
                Value::Int(42),
                Value::from("alice")
            ]
        );
        assert!(rr.fields(&[9]).is_err());
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let bytes = sample().encode();
        for cut in [0, 1, 2, 3, 5, bytes.len() - 1] {
            let slice = &bytes[..cut];
            match RecordRef::new(slice) {
                Err(_) => {}
                Ok(rr) => {
                    // Reading the last field forces a full walk; it must
                    // error, never panic.
                    assert!(rr.field(rr.field_count().saturating_sub(1)).is_err());
                }
            }
        }
    }

    /// A projection reads no further than its last field: a record cut
    /// *between* fields serves the fields before the cut and reports
    /// the ones behind it, in either request order.
    #[test]
    fn projection_truncated_between_fields() {
        let bytes = sample().encode();
        // header, Int(42), Str("alice") — cut exactly before field 2
        let cut = 2 + 9 + 5 + 5;
        let rr = RecordRef::new(&bytes[..cut]).unwrap();
        assert_eq!(
            rr.fields(&[0, 1]).unwrap(),
            vec![Value::Int(42), Value::from("alice")]
        );
        assert_eq!(rr.fields(&[1, 0]).unwrap().len(), 2);
        for ids in [&[0, 2][..], &[1, 3], &[3, 0], &[6]] {
            assert!(
                matches!(rr.fields(ids), Err(DmxError::Corrupt(_))),
                "{ids:?}"
            );
        }
        assert!(matches!(
            Record::decode(&bytes[..cut]),
            Err(DmxError::Corrupt(_))
        ));
        // a field count the header never promised is an argument error
        let whole = RecordRef::new(&bytes).unwrap();
        assert!(matches!(
            whole.fields(&[0, 7]),
            Err(DmxError::InvalidArg(_))
        ));
        assert_eq!(whole.fields(&[]).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn bad_tag_rejected() {
        let mut bytes = Record::new(vec![Value::Int(1)]).encode();
        bytes[2] = 99; // clobber the tag
        let rr = RecordRef::new(&bytes).unwrap();
        assert!(matches!(rr.field(0), Err(DmxError::Corrupt(_))));
    }

    #[test]
    fn empty_record() {
        let r = Record::new(vec![]);
        let bytes = r.encode();
        assert_eq!(bytes.len(), 2);
        assert_eq!(Record::decode(&bytes).unwrap(), r);
    }

    /// A float the generator draws: any bit pattern at all (NaNs with
    /// payload bits, infinities, subnormals) or one of the edges.
    fn float(rng: &mut TestRng) -> f64 {
        match rng.below(4) {
            0 => f64::from_bits(rng.next_u64()),
            1 => f64::from_bits(0x7ff8_0000_dead_beef),
            2 => -0.0,
            _ => rng.range_i64(-1000, 1000) as f64 / 8.0,
        }
    }

    fn value(rng: &mut TestRng) -> Value {
        match rng.below(8) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::Int(rng.next_u64() as i64),
            3 => Value::Float(float(rng)),
            4 => Value::Str(match rng.below(3) {
                0 => String::new(),
                1 => "é".repeat(rng.index(5_000)),
                _ => String::from_utf8_lossy(&rng.bytes(40)).into_owned(),
            }),
            5 => {
                let max = if rng.below(2) == 0 { 0 } else { 10_000 };
                Value::Bytes(rng.bytes(max))
            }
            6 => Value::Rect(Rect {
                xlo: float(rng),
                ylo: float(rng),
                xhi: float(rng),
                yhi: float(rng),
            }),
            _ => Value::Float(if rng.below(2) == 0 { -0.0 } else { f64::NAN }),
        }
    }

    /// Re-encoding a decoded record gives back the bytes it was decoded
    /// from: a write logs its before-image as the encoding of the record
    /// the dispatcher decoded, so undo and redo set exactly the bytes the
    /// page held — for every kind of value, `Null` anywhere, NaNs whose
    /// payload `==` cannot see, `-0.0`, empty and long strings, and the
    /// empty record.
    #[test]
    fn decode_then_encode_gives_the_bytes_back() {
        let mut rng = TestRng::new(0x5eed_0042);
        for n in 0..2_000 {
            let len = if n == 0 { 0 } else { rng.index(12) };
            let r = Record::new((0..len).map(|_| value(&mut rng)).collect());
            let bytes = r.encode();
            let again = Record::decode(&bytes).unwrap().encode();
            assert_eq!(again, bytes, "record {n}: {r:?}");
        }
    }
}
