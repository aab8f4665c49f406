//! Shared log-payload encodings for storage-method operations.

use dmx_types::{DmxError, Result};

/// Op code: record inserted; payload = key + new record bytes (the new
/// bytes feed restart redo under no-force).
pub const OP_INSERT: u8 = dmx_core::logged_tree::OP_INSERT;
/// Op code: record deleted; payload = key + old record bytes.
pub const OP_DELETE: u8 = dmx_core::logged_tree::OP_DELETE;
/// Op code: record updated in place; payload = key + old/new record
/// bytes ([`encode_key_old_new`]): old drives undo, new drives redo.
pub const OP_UPDATE: u8 = dmx_core::logged_tree::OP_REPLACE;

/// Encodes `key` alone.
pub fn encode_key(key: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(2 + key.len());
    v.extend_from_slice(&(key.len() as u16).to_le_bytes());
    v.extend_from_slice(key);
    v
}

/// Encodes `key` followed by `record` bytes.
pub fn encode_key_record(key: &[u8], record: &[u8]) -> Vec<u8> {
    let mut v = encode_key(key);
    v.extend_from_slice(record);
    v
}

/// Encodes `key`, the `old` record (length-prefixed) and the `new`
/// record — the undo/redo payload of an in-place update.
pub fn encode_key_old_new(key: &[u8], old: &[u8], new: &[u8]) -> Vec<u8> {
    let mut v = encode_key(key);
    v.extend_from_slice(&(old.len() as u32).to_le_bytes());
    v.extend_from_slice(old);
    v.extend_from_slice(new);
    v
}

/// Splits the post-key `rest` of an [`encode_key_old_new`] payload into
/// `(old, new)`.
pub fn decode_old_new(rest: &[u8]) -> Result<(&[u8], &[u8])> {
    let len = dmx_types::bytes::le_u32(rest, 0)
        .ok_or_else(|| DmxError::Corrupt("short update payload".into()))? as usize;
    let old = rest
        .get(4..4 + len)
        .ok_or_else(|| DmxError::Corrupt("short update payload old".into()))?;
    let new = rest
        .get(4 + len..)
        .ok_or_else(|| DmxError::Corrupt("short update payload".into()))?;
    Ok((old, new))
}

/// Decodes a payload written by [`encode_key`] / [`encode_key_record`]
/// into `(key, rest)`.
pub fn decode_key(payload: &[u8]) -> Result<(&[u8], &[u8])> {
    let len = dmx_types::bytes::le_u16(payload, 0)
        .ok_or_else(|| DmxError::Corrupt("short op payload".into()))? as usize;
    let key = payload
        .get(2..2 + len)
        .ok_or_else(|| DmxError::Corrupt("short op payload key".into()))?;
    let rest = payload
        .get(2 + len..)
        .ok_or_else(|| DmxError::Corrupt("short op payload".into()))?;
    Ok((key, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_record_roundtrip() {
        let p = encode_key_record(b"key", b"record-bytes");
        let (k, r) = decode_key(&p).unwrap();
        assert_eq!(k, b"key");
        assert_eq!(r, b"record-bytes");
        let p2 = encode_key(b"");
        let (k2, r2) = decode_key(&p2).unwrap();
        assert!(k2.is_empty() && r2.is_empty());
        assert!(decode_key(&[5]).is_err());
        assert!(decode_key(&[9, 0, 1]).is_err());
    }

    #[test]
    fn key_old_new_roundtrip() {
        let p = encode_key_old_new(b"key", b"before", b"after-image");
        let (k, rest) = decode_key(&p).unwrap();
        assert_eq!(k, b"key");
        let (old, new) = decode_old_new(rest).unwrap();
        assert_eq!(old, b"before");
        assert_eq!(new, b"after-image");
        assert!(decode_old_new(&[1, 0]).is_err());
        assert!(decode_old_new(&[9, 0, 0, 0, 1]).is_err());
    }
}
