//! Unrolled skip list: sorted blocks linked at level 0 with probabilistic
//! tower links above (Sortledton's large-neighborhood structure).
//!
//! Blocks live in a slab (`Vec` + free list) and link by index, so the
//! structure owns no raw pointers; tower heights come from a deterministic
//! xorshift stream, making the shape reproducible for tests.

use lsgraph_api::{Footprint, MemoryFootprint};

/// Maximum keys per block (8 cache lines of ids, Sortledton-like).
pub const BLOCK_CAP: usize = 128;

/// Maximum tower height (enough for 4^16 blocks at p = 1/4).
const MAX_LEVEL: usize = 16;

/// Slab index sentinel: end of chain.
const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct BlockNode {
    keys: Vec<u32>,
    /// Forward pointer per level; `forward.len()` is the tower height.
    forward: Vec<u32>,
}

/// An ordered `u32` set stored as an unrolled skip list.
#[derive(Clone, Debug)]
pub struct UnrolledSkipList {
    blocks: Vec<BlockNode>,
    free: Vec<u32>,
    /// Head tower: first block at or above each level.
    head: [u32; MAX_LEVEL],
    len: usize,
    rng: u64,
}

/// A predecessor in a search path: the head tower or a block index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pred {
    Head,
    Block(u32),
}

impl UnrolledSkipList {
    /// Creates an empty list.
    pub fn new() -> Self {
        UnrolledSkipList {
            blocks: Vec::new(),
            free: Vec::new(),
            head: [NIL; MAX_LEVEL],
            len: 0,
            rng: 0x853C_49E6_748F_EA9B,
        }
    }

    /// Builds from a sorted duplicate-free slice.
    // Tower levels index several arrays at once; a range loop is clearest.
    #[allow(clippy::needless_range_loop)]
    pub fn from_sorted(sorted: &[u32]) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let mut l = UnrolledSkipList::new();
        // Fill blocks at ~3/4 occupancy and splice left to right.
        let target = BLOCK_CAP * 3 / 4;
        let mut tails: [Pred; MAX_LEVEL] = [Pred::Head; MAX_LEVEL];
        for chunk in sorted.chunks(target.max(1)) {
            let h = l.random_height();
            let idx = l.alloc(chunk.to_vec(), h);
            for lev in 0..h {
                match tails[lev] {
                    Pred::Head => l.head[lev] = idx,
                    Pred::Block(p) => l.blocks[p as usize].forward[lev] = idx,
                }
                tails[lev] = Pred::Block(idx);
            }
        }
        l.len = sorted.len();
        l
    }

    /// Number of stored keys.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Deterministic tower height with promotion probability 1/4.
    fn random_height(&mut self) -> usize {
        // Xorshift64*.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let r = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let mut h = 1;
        let mut bits = r;
        while h < MAX_LEVEL && bits & 3 == 0 {
            h += 1;
            bits >>= 2;
        }
        h
    }

    fn alloc(&mut self, keys: Vec<u32>, height: usize) -> u32 {
        let node = BlockNode {
            keys,
            forward: vec![NIL; height],
        };
        if let Some(idx) = self.free.pop() {
            self.blocks[idx as usize] = node;
            idx
        } else {
            self.blocks.push(node);
            (self.blocks.len() - 1) as u32
        }
    }

    #[inline]
    fn min_of(&self, idx: u32) -> u32 {
        self.blocks[idx as usize].keys[0]
    }

    #[inline]
    fn forward_of(&self, pred: Pred, level: usize) -> u32 {
        match pred {
            Pred::Head => self.head[level],
            Pred::Block(b) => {
                let node = &self.blocks[b as usize];
                if level < node.forward.len() {
                    node.forward[level]
                } else {
                    NIL
                }
            }
        }
    }

    fn set_forward(&mut self, pred: Pred, level: usize, to: u32) {
        match pred {
            Pred::Head => self.head[level] = to,
            Pred::Block(b) => self.blocks[b as usize].forward[level] = to,
        }
    }

    /// Search path: per level, the last position whose next block min is
    /// not `< bound` (i.e. predecessors under strict comparison).
    fn path_before(&self, bound: u32) -> [Pred; MAX_LEVEL] {
        let mut update = [Pred::Head; MAX_LEVEL];
        let mut cur = Pred::Head;
        for level in (0..MAX_LEVEL).rev() {
            loop {
                let next = self.forward_of(cur, level);
                if next != NIL && self.min_of(next) < bound {
                    cur = Pred::Block(next);
                } else {
                    break;
                }
            }
            update[level] = cur;
        }
        update
    }

    /// The block that covers `key`: rightmost with min `<= key`, else the
    /// first block.
    fn find_block(&self, key: u32) -> Option<u32> {
        let mut cur = Pred::Head;
        for level in (0..MAX_LEVEL).rev() {
            loop {
                let next = self.forward_of(cur, level);
                if next != NIL && self.min_of(next) <= key {
                    cur = Pred::Block(next);
                } else {
                    break;
                }
            }
        }
        match cur {
            Pred::Block(b) => Some(b),
            Pred::Head => (self.head[0] != NIL).then_some(self.head[0]),
        }
    }

    /// Returns whether `key` is present.
    pub fn contains(&self, key: u32) -> bool {
        match self.find_block(key) {
            Some(b) => self.blocks[b as usize].keys.binary_search(&key).is_ok(),
            None => false,
        }
    }

    /// Inserts `key`; returns whether it was added.
    pub fn insert(&mut self, key: u32) -> bool {
        let Some(target) = self.find_block(key) else {
            // First block of the list.
            let h = self.random_height();
            let idx = self.alloc(vec![key], h);
            for level in 0..h {
                self.head[level] = idx;
            }
            self.len = 1;
            return true;
        };
        let block = &mut self.blocks[target as usize];
        let at = match block.keys.binary_search(&key) {
            Ok(_) => return false,
            Err(i) => i,
        };
        block.keys.insert(at, key);
        self.len += 1;
        if self.blocks[target as usize].keys.len() > BLOCK_CAP {
            self.split(target);
        }
        true
    }

    /// Splits an overflowing block, splicing the new right half in directly
    /// after it at every level of the new tower.
    #[allow(clippy::needless_range_loop)]
    fn split(&mut self, target: u32) {
        let right_keys = {
            let b = &mut self.blocks[target as usize];
            let half = b.keys.len() / 2;
            b.keys.split_off(half)
        };
        let old_min = self.min_of(target);
        let h = self.random_height();
        let new_idx = self.alloc(right_keys, h);
        let target_height = self.blocks[target as usize].forward.len();
        // Predecessors for the position just after `target`.
        let update = self.path_before(old_min.saturating_add(1));
        for level in 0..h {
            let pred = if level < target_height {
                Pred::Block(target)
            } else {
                // `target` is invisible here; splice after its last visible
                // predecessor at this level.
                update[level]
            };
            let next = self.forward_of(pred, level);
            self.set_forward(Pred::Block(new_idx), level, next);
            self.set_forward(pred, level, new_idx);
        }
    }

    /// Deletes `key`; returns whether it was present.
    #[allow(clippy::needless_range_loop)]
    pub fn delete(&mut self, key: u32) -> bool {
        let Some(target) = self.find_block(key) else {
            return false;
        };
        let b = &self.blocks[target as usize];
        let Ok(i) = b.keys.binary_search(&key) else {
            return false;
        };
        if b.keys.len() == 1 {
            // The block empties: unlink it while its minimum is still
            // probeable, then recycle the slab slot.
            let min = b.keys[0];
            let update = self.path_before(min);
            let height = self.blocks[target as usize].forward.len();
            for level in 0..height {
                if self.forward_of(update[level], level) == target {
                    let next = self.blocks[target as usize].forward[level];
                    self.set_forward(update[level], level, next);
                }
            }
            self.blocks[target as usize].keys = Vec::new();
            self.blocks[target as usize].forward = Vec::new();
            self.free.push(target);
        } else {
            self.blocks[target as usize].keys.remove(i);
        }
        self.len -= 1;
        true
    }

    /// Hands the keys to `f` in ascending order, one block at a time, until
    /// `f` returns `false`; returns whether the walk completed.
    pub fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        let mut cur = self.head[0];
        while cur != NIL {
            let node = &self.blocks[cur as usize];
            if !node.keys.is_empty() && !f(&node.keys) {
                return false;
            }
            cur = node.forward[0];
        }
        true
    }

    /// Collects all keys into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.len);
        self.for_each_slice_while(&mut |s| {
            v.extend_from_slice(s);
            true
        });
        v
    }

    /// Verifies ordering, tower consistency, and length accounting.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self) {
        // Level 0: sorted, duplicate-free, no empty blocks, len matches.
        let v = self.to_vec();
        assert_eq!(v.len(), self.len, "len mismatch");
        assert!(v.windows(2).all(|w| w[0] < w[1]), "not sorted/dedup");
        let mut level0 = Vec::new();
        let mut cur = self.head[0];
        while cur != NIL {
            let node = &self.blocks[cur as usize];
            assert!(!node.keys.is_empty(), "empty block retained");
            assert!(node.keys.len() <= BLOCK_CAP + 1, "block overflow");
            level0.push(cur);
            cur = node.forward[0];
        }
        // Every upper level must be a subsequence of level 0 with increasing
        // minima.
        for level in 1..MAX_LEVEL {
            let mut cur = self.head[level];
            let mut pos = 0;
            let mut prev_min = None;
            while cur != NIL {
                while pos < level0.len() && level0[pos] != cur {
                    pos += 1;
                }
                assert!(pos < level0.len(), "level {level} node not in level 0");
                let m = self.min_of(cur);
                if let Some(p) = prev_min {
                    assert!(p < m, "level {level} minima out of order");
                }
                prev_min = Some(m);
                let node = &self.blocks[cur as usize];
                assert!(level < node.forward.len(), "node linked above its height");
                cur = node.forward[level];
            }
        }
    }
}

impl Default for UnrolledSkipList {
    fn default() -> Self {
        UnrolledSkipList::new()
    }
}

impl MemoryFootprint for UnrolledSkipList {
    fn footprint(&self) -> Footprint {
        let mut payload = 0;
        let mut index = self.free.len() * core::mem::size_of::<u32>();
        for b in &self.blocks {
            payload += b.keys.capacity() * core::mem::size_of::<u32>();
            index += b.forward.capacity() * core::mem::size_of::<u32>()
                + core::mem::size_of::<BlockNode>();
        }
        Footprint::new(payload, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn from_sorted_roundtrip() {
        for n in [0usize, 1, BLOCK_CAP, BLOCK_CAP + 1, 10_000] {
            let v: Vec<u32> = (0..n as u32).map(|i| i * 3).collect();
            let l = UnrolledSkipList::from_sorted(&v);
            l.check_invariants();
            assert_eq!(l.to_vec(), v, "n = {n}");
        }
    }

    #[test]
    fn ascending_and_descending_inserts() {
        let mut asc = UnrolledSkipList::new();
        for k in 0..20_000u32 {
            assert!(asc.insert(k));
        }
        asc.check_invariants();
        assert_eq!(asc.to_vec(), (0..20_000).collect::<Vec<_>>());
        let mut desc = UnrolledSkipList::new();
        for k in (0..20_000u32).rev() {
            assert!(desc.insert(k));
        }
        desc.check_invariants();
        assert_eq!(desc.to_vec(), (0..20_000).collect::<Vec<_>>());
    }

    #[test]
    fn random_differential() {
        let mut rng = SmallRng::seed_from_u64(41);
        let mut l = UnrolledSkipList::new();
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..40_000 {
            let k = rng.gen_range(0..8_000u32);
            if rng.gen_bool(0.6) {
                assert_eq!(l.insert(k), oracle.insert(k));
            } else {
                assert_eq!(l.delete(k), oracle.remove(&k));
            }
        }
        l.check_invariants();
        assert_eq!(l.to_vec(), oracle.iter().copied().collect::<Vec<_>>());
        for k in (0..8_000).step_by(11) {
            assert_eq!(l.contains(k), oracle.contains(&k));
        }
    }

    #[test]
    fn delete_everything_reuses_slab() {
        let mut l = UnrolledSkipList::from_sorted(&(0..5_000).collect::<Vec<_>>());
        for k in 0..5_000 {
            assert!(l.delete(k), "delete {k}");
        }
        assert_eq!(l.len(), 0);
        l.check_invariants();
        let slab = l.blocks.len();
        for k in 0..5_000u32 {
            l.insert(k);
        }
        l.check_invariants();
        // Refilling splits blocks at ~50% occupancy (vs 75% at bulk load),
        // so more live blocks are needed — but freed slots must be recycled
        // before the slab grows.
        assert!(
            l.blocks.len() <= slab * 2,
            "slab should be reused: {} vs {slab}",
            l.blocks.len()
        );
        assert_eq!(l.len(), 5_000);
    }

    #[test]
    fn insert_below_first_block_min() {
        let mut l = UnrolledSkipList::from_sorted(&(100..200).collect::<Vec<_>>());
        assert!(l.insert(5));
        assert!(l.contains(5));
        l.check_invariants();
        assert_eq!(l.to_vec()[0], 5);
    }

    #[test]
    fn early_exit_scan() {
        let l = UnrolledSkipList::from_sorted(&(0..1_000).collect::<Vec<_>>());
        let mut n = 0;
        assert!(!l.for_each_slice_while(&mut |_| {
            n += 1;
            n < 7
        }));
        assert_eq!(n, 7);
    }
}
