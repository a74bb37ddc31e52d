//! Binary I/O helpers: a hand-rolled CRC32 and length-prefixed, checksummed
//! frames.
//!
//! The durability layer (`lsgraph-persist`) writes binary files that must
//! detect truncation and corruption without external dependencies:
//!
//! - [`crc32`]: the CRC-32/ISO-HDLC checksum (the ubiquitous
//!   IEEE 802.3 polynomial, reflected, init/xorout `0xFFFF_FFFF`) — the same
//!   algorithm as zlib's `crc32()`, implemented with a compile-time 256-entry
//!   table.
//! - [`write_frame`] / [`parse_frame`]: frames laid out as
//!   `u32 LE payload length | u32 LE CRC32(payload) | payload`. A frame
//!   whose length header, payload bytes, or checksum cannot be fully
//!   validated parses as *absent*, which is what lets a write-ahead log
//!   truncate at the first torn write instead of replaying garbage.

use std::io::{self, Write};

/// Bytes occupied by a frame header (length + checksum).
const FRAME_HEADER_LEN: usize = 8;

/// CRC-32/ISO-HDLC lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32/ISO-HDLC of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |c, &b| {
        CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
    })
}

/// Writes one frame: `u32 LE len | u32 LE crc32(payload) | payload`.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// Attempts to parse one frame from the front of `buf`.
///
/// Returns `Some((payload, bytes_consumed))` for a complete frame with a
/// matching checksum, and `None` for anything else — a partial header, a
/// payload shorter than the header claims, or a checksum mismatch. Callers
/// treat `None` as "torn write starts here".
pub fn parse_frame(buf: &[u8]) -> Option<(&[u8], usize)> {
    if buf.len() < FRAME_HEADER_LEN {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4-byte slice")) as usize;
    let expect = u32::from_le_bytes(buf[4..8].try_into().expect("4-byte slice"));
    let end = FRAME_HEADER_LEN.checked_add(len)?;
    if buf.len() < end {
        return None;
    }
    let payload = &buf[FRAME_HEADER_LEN..end];
    if crc32(payload) != expect {
        return None;
    }
    Some((payload, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world!").unwrap();
        let (p1, n1) = parse_frame(&buf).unwrap();
        assert_eq!(p1, b"hello");
        let (p2, n2) = parse_frame(&buf[n1..]).unwrap();
        assert_eq!(p2, b"");
        let (p3, n3) = parse_frame(&buf[n1 + n2..]).unwrap();
        assert_eq!(p3, b"world!");
        assert_eq!(n1 + n2 + n3, buf.len());
    }

    #[test]
    fn torn_frames_parse_as_absent() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        // Any strict prefix is torn: partial header or partial payload.
        for cut in 0..buf.len() {
            assert!(parse_frame(&buf[..cut]).is_none(), "cut at {cut}");
        }
        // A flipped payload bit fails the checksum.
        let mut flipped = buf.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(parse_frame(&flipped).is_none());
        // The intact frame still parses.
        assert!(parse_frame(&buf).is_some());
    }

    #[test]
    fn oversized_length_header_is_absent_not_a_panic() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(parse_frame(&buf).is_none());
    }
}
