//! Shared helpers for attachment implementations.

use dmx_core::{AttachmentInstance, LoggedTarget, LoggedTree};
use dmx_types::{AttrList, DmxError, FieldId, Record, Result, Schema, Value};

/// Attachment op codes: an entry was added to / removed from an
/// attachment's structure.
pub use dmx_core::logged_tree::{OP_DELETE as A_DELETE, OP_INSERT as A_INSERT};
/// Attachment op code: a maintained cell changed; the payload carries
/// its before- and after-images.
pub const A_DELTA: u8 = 3;

/// Encodes an attachment undo payload. The *instance descriptor* is
/// embedded so undo never needs a catalog lookup (the instance may even
/// have been dropped by the time restart runs).
pub fn encode_att_payload(desc: &[u8], key: &[u8], extra: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(4 + desc.len() + key.len() + extra.len());
    v.extend_from_slice(&(desc.len() as u16).to_le_bytes());
    v.extend_from_slice(desc);
    v.extend_from_slice(&(key.len() as u16).to_le_bytes());
    v.extend_from_slice(key);
    v.extend_from_slice(extra);
    v
}

/// Reads a little-endian `u16` at `off`, or a `Corrupt("short {what}")`
/// error when the buffer is too small.
pub fn read_u16(b: &[u8], off: usize, what: &str) -> Result<u16> {
    b.get(off..off + 2)
        .and_then(|s| s.try_into().ok())
        .map(u16::from_le_bytes)
        .ok_or_else(|| DmxError::Corrupt(format!("short {what}")))
}

/// Reads a little-endian `u32` at `off`; see [`read_u16`].
pub fn read_u32(b: &[u8], off: usize, what: &str) -> Result<u32> {
    b.get(off..off + 4)
        .and_then(|s| s.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| DmxError::Corrupt(format!("short {what}")))
}

/// Reads a little-endian `u64` at `off`; see [`read_u16`].
pub fn read_u64(b: &[u8], off: usize, what: &str) -> Result<u64> {
    b.get(off..off + 8)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| DmxError::Corrupt(format!("short {what}")))
}

/// `b[off..]`, or a `Corrupt("short {what}")` error when `off` is past
/// the end of the buffer.
pub fn tail<'a>(b: &'a [u8], off: usize, what: &str) -> Result<&'a [u8]> {
    b.get(off..)
        .ok_or_else(|| DmxError::Corrupt(format!("short {what}")))
}

/// Decodes `(desc, key, extra)` from [`encode_att_payload`].
pub fn decode_att_payload(p: &[u8]) -> Result<(&[u8], &[u8], &[u8])> {
    let corrupt = || DmxError::Corrupt("short attachment payload".into());
    let dlen = read_u16(p, 0, "attachment payload")? as usize;
    let desc = p.get(2..2 + dlen).ok_or_else(corrupt)?;
    let rest = tail(p, 2 + dlen, "attachment payload")?;
    let klen = read_u16(rest, 0, "attachment payload")? as usize;
    let key = rest.get(2..2 + klen).ok_or_else(corrupt)?;
    let extra = tail(rest, 2 + klen, "attachment payload")?;
    Ok((desc, key, extra))
}

/// The forward step of every attachment that keeps a tree: logs
/// `(inst.desc, key, extra)` under `op`, then installs `image` at `key`.
pub fn apply_logged<T: LoggedTarget>(
    tree: &LoggedTree<'_, T>,
    inst: &AttachmentInstance,
    op: u8,
    key: &[u8],
    extra: &[u8],
    image: Option<&[u8]>,
) -> Result<()> {
    tree.apply(op, encode_att_payload(&inst.desc, key, extra), key, image)
}

/// Parses a comma-separated field-name list attribute into field ids.
pub fn parse_fields(
    params: &AttrList,
    attr: &str,
    who: &str,
    schema: &Schema,
) -> Result<Vec<FieldId>> {
    let spec = params.require(attr, who)?;
    let mut fields = Vec::new();
    for name in spec.split(',') {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        let id = schema.field_id(name)?;
        if fields.contains(&id) {
            return Err(DmxError::InvalidArg(format!("duplicate field {name}")));
        }
        fields.push(id);
    }
    if fields.is_empty() {
        return Err(DmxError::InvalidArg(format!("{who}: empty field list")));
    }
    Ok(fields)
}

/// Extracts the values of `fields` from a record.
pub fn field_values(record: &Record, fields: &[FieldId]) -> Result<Vec<Value>> {
    fields
        .iter()
        .map(|&f| {
            record
                .values
                .get(f as usize)
                .cloned()
                .ok_or_else(|| DmxError::InvalidArg(format!("no field {f}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn att_payload_roundtrip() {
        let p = encode_att_payload(b"desc", b"key", b"extra");
        let (d, k, e) = decode_att_payload(&p).unwrap();
        assert_eq!((d, k, e), (&b"desc"[..], &b"key"[..], &b"extra"[..]));
        let p2 = encode_att_payload(b"", b"", b"");
        let (d, k, e) = decode_att_payload(&p2).unwrap();
        assert!(d.is_empty() && k.is_empty() && e.is_empty());
        assert!(decode_att_payload(&[1]).is_err());
    }
}
