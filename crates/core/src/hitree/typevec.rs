//! Packed 2-bit slot-type vector for LIA (paper §3.2).
//!
//! Each LIA slot carries one of four types; packing them two bits per slot
//! keeps the whole type vector of a 4096-slot node in 1 KiB — 16 cache
//! lines — so type checks during traversal stay in cache.

/// Type of one LIA slot (paper §3.2's U/E/B/C entries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SlotType {
    /// Unused: free space for a future insert.
    Unused = 0,
    /// Edge: the slot stores a destination vertex id at its predicted slot.
    Edge = 1,
    /// Block: part of a packed sorted prefix within its cache-line block.
    Block = 2,
    /// Child: the block is delegated to a child node.
    Child = 3,
}

impl SlotType {
    #[inline]
    fn from_bits(b: u64) -> SlotType {
        match b & 0b11 {
            0 => SlotType::Unused,
            1 => SlotType::Edge,
            2 => SlotType::Block,
            _ => SlotType::Child,
        }
    }
}

/// A vector of 2-bit [`SlotType`]s, 32 per `u64` word.
#[derive(Clone, Debug)]
pub struct TypeVec {
    words: Vec<u64>,
    len: usize,
}

impl TypeVec {
    /// Creates a vector of `len` slots, all [`SlotType::Unused`].
    pub fn new(len: usize) -> Self {
        TypeVec {
            words: vec![0; len.div_ceil(32)],
            len,
        }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns the type of slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> SlotType {
        assert!(i < self.len, "slot {i} out of bounds (len {})", self.len);
        SlotType::from_bits(self.words[i / 32] >> ((i % 32) * 2))
    }

    /// Sets the type of slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, t: SlotType) {
        assert!(i < self.len, "slot {i} out of bounds (len {})", self.len);
        let shift = (i % 32) * 2;
        let w = &mut self.words[i / 32];
        *w = (*w & !(0b11 << shift)) | ((t as u64) << shift);
    }

    /// Sets every slot in `range` to `t`.
    pub fn set_range(&mut self, range: core::ops::Range<usize>, t: SlotType) {
        for i in range {
            self.set(i, t);
        }
    }

    /// Bytes of backing storage (for footprint accounting).
    pub fn bytes(&self) -> usize {
        self.words.len() * core::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_all_types() {
        let mut tv = TypeVec::new(100);
        let kinds = [
            SlotType::Unused,
            SlotType::Edge,
            SlotType::Block,
            SlotType::Child,
        ];
        for i in 0..100 {
            tv.set(i, kinds[i % 4]);
        }
        for i in 0..100 {
            assert_eq!(tv.get(i), kinds[i % 4], "slot {i}");
        }
    }

    #[test]
    fn new_is_all_unused() {
        let tv = TypeVec::new(65);
        for i in 0..65 {
            assert_eq!(tv.get(i), SlotType::Unused);
        }
        assert_eq!(tv.len(), 65);
    }

    #[test]
    fn set_does_not_clobber_neighbors() {
        let mut tv = TypeVec::new(64);
        tv.set(10, SlotType::Child);
        tv.set(11, SlotType::Edge);
        tv.set(10, SlotType::Unused);
        assert_eq!(tv.get(11), SlotType::Edge);
        assert_eq!(tv.get(9), SlotType::Unused);
        assert_eq!(tv.get(10), SlotType::Unused);
    }

    #[test]
    fn set_range_spans_words() {
        let mut tv = TypeVec::new(96);
        tv.set_range(20..70, SlotType::Block);
        for i in 0..96 {
            let want = if (20..70).contains(&i) {
                SlotType::Block
            } else {
                SlotType::Unused
            };
            assert_eq!(tv.get(i), want, "slot {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let tv = TypeVec::new(10);
        let _ = tv.get(10);
    }

    #[test]
    fn bytes_accounting() {
        assert_eq!(TypeVec::new(32).bytes(), 8);
        assert_eq!(TypeVec::new(33).bytes(), 16);
        assert_eq!(TypeVec::new(0).bytes(), 0);
    }
}
