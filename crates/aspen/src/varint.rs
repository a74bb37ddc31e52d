//! Difference encoding for C-tree chunks (Aspen §4 "compressed trees").
//!
//! A sorted chunk is stored as its first value followed by varint-encoded
//! gaps to successors. Byte-granular LEB128 keeps hot chunks small (a gap
//! under 128 costs one byte), which is where Aspen's memory advantage over
//! uncompressed engines comes from — paid for by sequential decode on every
//! traversal, which is part of its analytics gap.

/// A compressed sorted sequence of `u32` values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaChunk {
    bytes: Vec<u8>,
    len: u32,
}

/// Appends `v` as LEB128.
#[inline]
fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads a LEB128 value starting at `*i`, advancing it.
#[inline]
fn read_varint(bytes: &[u8], i: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let b = bytes[*i];
        *i += 1;
        v |= ((b & 0x7F) as u32) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

impl DeltaChunk {
    /// Encodes a sorted duplicate-free slice.
    pub fn encode(sorted: &[u32]) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let mut bytes = Vec::with_capacity(sorted.len() + 4);
        let mut prev = 0u32;
        for (i, &x) in sorted.iter().enumerate() {
            if i == 0 {
                push_varint(&mut bytes, x);
            } else {
                // Gaps are at least 1; store gap-1 to shave a byte off runs.
                push_varint(&mut bytes, x - prev - 1);
            }
            prev = x;
        }
        DeltaChunk {
            bytes,
            len: sorted.len() as u32,
        }
    }

    /// Number of encoded values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the chunk is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded size in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Decodes into a sorted vector.
    pub fn decode(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_while(&mut |x| {
            out.push(x);
            true
        });
        out
    }

    /// Applies `f` in ascending order until it returns `false`; returns
    /// whether the scan completed.
    pub fn for_each_while(&self, f: &mut dyn FnMut(u32) -> bool) -> bool {
        let mut i = 0;
        let mut prev = 0u32;
        for k in 0..self.len {
            let raw = read_varint(&self.bytes, &mut i);
            let x = if k == 0 { raw } else { prev + raw + 1 };
            if !f(x) {
                return false;
            }
            prev = x;
        }
        true
    }

    /// Membership by sequential decode — compressed chunks cannot be
    /// random-accessed, which is exactly Aspen's trade.
    pub fn contains(&self, key: u32) -> bool {
        let mut found = false;
        self.for_each_while(&mut |x| {
            if x == key {
                found = true;
            }
            x < key
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_shapes() {
        for v in [
            vec![],
            vec![0u32],
            vec![u32::MAX],
            vec![0, 1, 2, 3],
            vec![5, 100, 1_000_000, u32::MAX - 1, u32::MAX],
            (0..1_000).map(|i| i * 3).collect::<Vec<u32>>(),
        ] {
            let c = DeltaChunk::encode(&v);
            assert_eq!(c.decode(), v);
            assert_eq!(c.len(), v.len());
        }
    }

    #[test]
    fn dense_runs_compress_to_one_byte_per_element() {
        let v: Vec<u32> = (1_000_000..1_001_000).collect();
        let c = DeltaChunk::encode(&v);
        // First value takes ~3 bytes; every consecutive gap encodes as 0.
        assert!(c.byte_len() < v.len() + 8, "bytes {}", c.byte_len());
        assert!(c.byte_len() * 3 < v.len() * 4, "no compression win");
    }

    #[test]
    fn contains_matches_decode() {
        let v: Vec<u32> = (0..500).map(|i| i * 7 + 3).collect();
        let c = DeltaChunk::encode(&v);
        for k in 0..4_000u32 {
            assert_eq!(c.contains(k), v.binary_search(&k).is_ok(), "key {k}");
        }
    }

    #[test]
    fn early_exit_iteration() {
        let c = DeltaChunk::encode(&[1, 2, 3, 4, 5]);
        let mut seen = 0;
        assert!(!c.for_each_while(&mut |_| {
            seen += 1;
            seen < 3
        }));
        assert_eq!(seen, 3);
    }

    #[test]
    fn varint_boundaries() {
        let v = vec![127u32, 128, 16_383, 16_384, 2_097_151, 2_097_152];
        let c = DeltaChunk::encode(&v);
        assert_eq!(c.decode(), v);
    }
}
