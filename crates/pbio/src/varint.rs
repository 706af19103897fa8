//! LEB128 varints and zigzag mapping for signed integers: PBIO's one
//! varint writer and one varint reader.
//!
//! Both are straight-line for the lengths an interaction record's
//! fields take (one to three bytes: every field but the timestamps)
//! and loop only past them. [`write_u64`] appends a short varint as one
//! fixed-size append (no per-byte grow check, no `memcpy` call);
//! [`read_u64`] decodes one from a three-byte window. Every PBIO coder
//! writes and reads through these two, the row codec included.

use crate::PbioError;

/// Appends `v` as an LEB128 varint (1–10 bytes): PBIO's one varint
/// writer. Values under 2^21 (one to three bytes) are written in
/// straight-line code as one fixed-size append; longer ones take a
/// loop into a stack scratch and one append.
#[inline]
pub fn write_u64(buf: &mut Vec<u8>, v: u64) {
    let more = |v: u64| v as u8 | 0x80;
    if v < 1 << 7 {
        buf.push(v as u8);
    } else if v < 1 << 14 {
        buf.extend_from_slice(&[more(v), (v >> 7) as u8]);
    } else if v < 1 << 21 {
        buf.extend_from_slice(&[more(v), more(v >> 7), (v >> 14) as u8]);
    } else {
        write_long(buf, v);
    }
}

/// [`write_u64`]'s loop, for values of four bytes and more.
#[inline(never)]
fn write_long(buf: &mut Vec<u8>, mut v: u64) {
    let mut scratch = [0u8; 10];
    let mut i = 0;
    while v >= 0x80 {
        scratch[i] = v as u8 | 0x80;
        v >>= 7;
        i += 1;
    }
    scratch[i] = v as u8;
    buf.extend_from_slice(&scratch[..=i]);
}

/// Reads an LEB128 varint from the front of `buf` and advances past it:
/// PBIO's one varint reader. One- to three-byte varints (in an
/// interaction record, every field but the timestamps) decode in
/// straight-line code; longer ones, and a buffer that ends mid-varint,
/// take a checked loop.
///
/// # Errors
///
/// [`PbioError::UnexpectedEof`] if the buffer ends mid-varint (it is
/// left empty); [`PbioError::BadVarint`] if the encoding exceeds 10
/// bytes (the 11th is consumed).
#[inline]
pub fn read_u64(buf: &mut &[u8]) -> Result<u64, PbioError> {
    let low = |b: u8| u64::from(b & 0x7F);
    let (v, rest) = match **buf {
        [b0, ref rest @ ..] if b0 < 0x80 => (u64::from(b0), rest),
        [b0, b1, ref rest @ ..] if b1 < 0x80 => (low(b0) | u64::from(b1) << 7, rest),
        [b0, b1, b2, ref rest @ ..] if b2 < 0x80 => {
            (low(b0) | low(b1) << 7 | u64::from(b2) << 14, rest)
        }
        _ => return read_long(buf),
    };
    *buf = rest;
    Ok(v)
}

/// [`read_u64`]'s checked loop, for what its straight-line cases leave.
#[cold]
fn read_long<'a>(buf: &mut &'a [u8]) -> Result<u64, PbioError> {
    let bytes: &'a [u8] = buf;
    let mut v = 0u64;
    for (i, &byte) in bytes.iter().enumerate() {
        *buf = &bytes[i + 1..];
        if i == 10 {
            return Err(PbioError::BadVarint);
        }
        v |= u64::from(byte & 0x7F) << (7 * i);
        if byte < 0x80 {
            return Ok(v);
        }
    }
    Err(PbioError::UnexpectedEof)
}

/// Maps a signed integer onto an unsigned one so small magnitudes encode
/// small (…-2,-1,0,1,2… → …3,1,0,2,4…).
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The per-byte LEB128 reader `read_u64` replaced: its value, the
    /// bytes it consumed and its error are what `read_u64` must give.
    fn reference(buf: &mut &[u8]) -> Result<u64, PbioError> {
        let (mut v, mut shift) = (0u64, 0u32);
        loop {
            let (&byte, rest) = buf.split_first().ok_or(PbioError::UnexpectedEof)?;
            *buf = rest;
            if shift >= 64 {
                return Err(PbioError::BadVarint);
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A per-byte LEB128 writer: the bytes `write_u64` must give.
    fn reference_write(buf: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                buf.push(byte);
                return;
            }
            buf.push(byte | 0x80);
        }
    }

    /// `write_u64` and the reference writer on `v`, appended after a
    /// marker byte: same bytes.
    fn writes_agree(v: u64) -> Result<(), String> {
        let (mut got, mut want) = (vec![0xA5], vec![0xA5]);
        write_u64(&mut got, v);
        reference_write(&mut want, v);
        prop_assert_eq!(got, want, "{:#x}", v);
        Ok(())
    }

    /// Every 7-bit length boundary: 2^(7k) − 1 and 2^(7k) for k = 1..9,
    /// plus the extremes.
    fn boundaries() -> Vec<u64> {
        let mut probes = vec![0u64, 1, 0x7F, 0x80, u64::MAX];
        for k in 1..10u32 {
            probes.extend([(1u64 << (7 * k)) - 1, 1u64 << (7 * k)]);
        }
        probes
    }

    /// `read_u64` and the reference on `bytes`: same result, same rest.
    fn agree(bytes: &[u8]) -> Result<(), String> {
        let (mut got, mut want) = (bytes, bytes);
        prop_assert_eq!(read_u64(&mut got), reference(&mut want), "{:02x?}", bytes);
        prop_assert_eq!(got.len(), want.len(), "consumed, {:02x?}", bytes);
        Ok(())
    }

    /// Varint-shaped bytes: a run of continuation bytes (past the
    /// 10-byte limit at times), maybe a final byte, then anything.
    fn varint_like() -> impl Strategy<Value = Vec<u8>> {
        let run = vec(0x80u8..=0xFF, 0..=12);
        let last = proptest::option::of(0u8..0x80);
        (run, last, vec(any::<u8>(), 0..4)).prop_map(|(mut bytes, last, tail)| {
            bytes.extend(last);
            bytes.extend(tail);
            bytes
        })
    }

    #[test]
    fn window_edges_and_long_runs_match_the_reference() {
        // Every length boundary, cut at every byte (a buffer that ends
        // inside or just past the 3-byte window), with a byte after.
        for v in boundaries() {
            let mut bytes = Vec::new();
            write_u64(&mut bytes, v);
            bytes.push(0x2A);
            for cut in 0..=bytes.len() {
                agree(&bytes[..cut]).unwrap();
            }
        }
        // 10- and 11-byte continuation runs, ended and unended.
        for run in 9..=12 {
            for last in [None, Some(0x00), Some(0x01), Some(0x7F)] {
                let mut bytes = vec![0xFF; run];
                bytes.extend(last);
                agree(&bytes).unwrap();
            }
        }
    }

    #[test]
    fn small_values_encode_in_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), 1);
            assert_eq!(read_u64(&mut &buf[..]).unwrap(), v);
        }
    }

    #[test]
    fn max_value_round_trips() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        assert_eq!(read_u64(&mut &buf[..]).unwrap(), u64::MAX);
    }

    #[test]
    fn truncated_varint_errors() {
        let buf = [0x80u8, 0x80];
        assert_eq!(read_u64(&mut &buf[..]), Err(PbioError::UnexpectedEof));
    }

    #[test]
    fn overlong_varint_errors() {
        let buf = [0xFFu8; 11];
        assert_eq!(read_u64(&mut &buf[..]), Err(PbioError::BadVarint));
    }

    #[test]
    fn zigzag_examples() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_decode(4294967294), 2147483647);
    }

    #[test]
    fn the_writer_matches_the_per_byte_reference_at_every_boundary() {
        for v in boundaries() {
            writes_agree(v).unwrap();
            writes_agree(v.wrapping_neg()).unwrap();
        }
    }

    proptest! {
        /// The row writer's bytes equal the per-byte reference writer's
        /// on arbitrary `u64`s, on each 7-bit length boundary and one
        /// either side of it, and on negative raw `i64`s (10 bytes).
        #[test]
        fn prop_write_u64_matches_the_per_byte_reference(
            v in any::<u64>(),
            k in 1u32..10,
            d in 0u64..3,
            neg in i64::MIN..0,
        ) {
            writes_agree(v)?;
            writes_agree(((1u64 << (7 * k)) - 1).wrapping_add(d))?;
            writes_agree(neg as u64)?;
            let mut bytes = Vec::new();
            write_u64(&mut bytes, neg as u64);
            prop_assert_eq!(bytes.len(), 10);
        }

        /// On arbitrary and varint-shaped byte strings, `read_u64` agrees
        /// with the per-byte reference on the value, the bytes consumed
        /// and the error.
        #[test]
        fn prop_read_u64_matches_the_per_byte_reference(
            shaped in vec(varint_like(), 32),
            junk in vec(vec(any::<u8>(), 0..16), 32),
        ) {
            for bytes in shaped.iter().chain(&junk) {
                agree(bytes)?;
            }
        }

        #[test]
        fn prop_varint_round_trip(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            prop_assert_eq!(read_u64(&mut &buf[..]).unwrap(), v);
        }

        #[test]
        fn prop_zigzag_round_trip(v in any::<i64>()) {
            prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }

        #[test]
        fn prop_zigzag_small_magnitude_small_encoding(v in -64i64..64) {
            let mut buf = Vec::new();
            write_u64(&mut buf, zigzag_encode(v));
            prop_assert_eq!(buf.len(), 1);
        }
    }
}
