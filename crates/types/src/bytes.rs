//! Checked little-endian reads from byte buffers, and LEB128 varints.
//!
//! Every on-disk structure in the system decodes fixed-width integers
//! from untrusted byte slices. These helpers return `None` instead of
//! panicking when the buffer is short, so decoders can surface a typed
//! `Corrupt` error; the workspace denies `clippy::unwrap_used`, which
//! rejects the open-coded `buf[a..b].try_into().unwrap()` form.

/// A fixed-size array copied out of `b` at `off`, or `None` when the
/// buffer is too short.
pub fn array<const N: usize>(b: &[u8], off: usize) -> Option<[u8; N]> {
    b.get(off..off.checked_add(N)?)?.try_into().ok()
}

/// Little-endian `u16` at `off`.
pub fn le_u16(b: &[u8], off: usize) -> Option<u16> {
    array(b, off).map(u16::from_le_bytes)
}

/// Little-endian `u32` at `off`.
pub fn le_u32(b: &[u8], off: usize) -> Option<u32> {
    array(b, off).map(u32::from_le_bytes)
}

/// Little-endian `u64` at `off`.
pub fn le_u64(b: &[u8], off: usize) -> Option<u64> {
    array(b, off).map(u64::from_le_bytes)
}

/// Little-endian `i64` at `off`.
pub fn le_i64(b: &[u8], off: usize) -> Option<i64> {
    array(b, off).map(i64::from_le_bytes)
}

/// Little-endian `f64` at `off`.
pub fn le_f64(b: &[u8], off: usize) -> Option<f64> {
    array(b, off).map(f64::from_le_bytes)
}

/// Appends `v` as an unsigned LEB128 varint: seven bits a byte, low
/// bits first, the high bit set on every byte but the last.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The number of bytes [`put_varint`] writes for `v` (1 to 10).
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// The varint at `*pos`, advancing `*pos` past it, or `None` when the
/// buffer ends inside it, it overflows `u64`, or it is not the shortest
/// spelling of its value (so every value has exactly one encoding).
pub fn varint(b: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *b.get(*pos)?;
        *pos += 1;
        let bits = u64::from(byte & 0x7F);
        if shift == 63 && bits > 1 {
            return None;
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return (byte != 0 || shift == 0).then_some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut edges = vec![0, 1, u64::MAX, u64::MAX - 1];
        for bits in (7..64).step_by(7) {
            edges.extend([(1u64 << bits) - 1, 1u64 << bits]);
        }
        for v in edges {
            let mut out = vec![0xEE];
            put_varint(&mut out, v);
            assert_eq!(out.len(), 1 + varint_len(v), "{v}");
            let mut pos = 1;
            assert_eq!(varint(&out, &mut pos), Some(v));
            assert_eq!(pos, out.len());
            for cut in 1..out.len() {
                assert_eq!(varint(&out[..cut], &mut 1), None, "{v} cut at {cut}");
            }
        }
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn overlong_and_overflowing_varints_are_refused() {
        assert_eq!(varint(&[0x80, 0x00], &mut 0), None, "overlong zero");
        assert_eq!(varint(&[0xFF, 0x00], &mut 0), None, "overlong 127");
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(varint(&max, &mut 0), Some(u64::MAX));
        max[9] = 0x02;
        assert_eq!(varint(&max, &mut 0), None, "past u64::MAX");
        assert_eq!(varint(&[0x80; 11], &mut 0), None, "eleven bytes");
    }

    #[test]
    fn reads_in_bounds() {
        let b = 0x0102_0304_0506_0708u64.to_le_bytes();
        assert_eq!(le_u16(&b, 0), Some(0x0708));
        assert_eq!(le_u32(&b, 4), Some(0x0102_0304));
        assert_eq!(le_u64(&b, 0), Some(0x0102_0304_0506_0708));
        assert_eq!(le_i64(&b, 0), Some(0x0102_0304_0506_0708));
    }

    #[test]
    fn short_buffer_yields_none() {
        let b = [1u8, 2, 3];
        assert_eq!(le_u32(&b, 0), None);
        assert_eq!(le_u16(&b, 2), None);
        assert_eq!(le_u16(&b, usize::MAX), None, "offset overflow is caught");
    }
}
