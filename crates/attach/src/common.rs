//! Shared helpers for attachment implementations.

use dmx_types::{AttrList, DmxError, FieldId, Record, Result, Schema, Value};

/// Reads a little-endian `u64` at `off`, or a `Corrupt("short {what}")`
/// error when the buffer is too small.
pub fn read_u64(b: &[u8], off: usize, what: &str) -> Result<u64> {
    b.get(off..off + 8)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| DmxError::Corrupt(format!("short {what}")))
}

/// 64-bit FNV-1a of `bytes`. What it returns is stored (a hash index
/// files its entries under it), so it is spelled out here rather than
/// taken from `std`, whose hashers may change between releases.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
