//! The benchmark's reference model: a sorted set of edge keys and a CSR built
//! from it, with plain sequential versions of everything the engine is asked.
//! Nothing here calls into the engine, so agreement is evidence.

use std::collections::{BTreeMap, VecDeque};

/// "Not reached" in a level array.
pub const INF: u32 = u32::MAX;

#[inline]
pub fn key(src: u32, dst: u32) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

pub struct Model {
    pub n: usize,
    /// Distinct edges as `src << 32 | dst`, ascending.
    pub keys: Vec<u64>,
    offsets: Vec<usize>,
}

impl Model {
    /// Builds the model from any list of keys (sorted and deduplicated here).
    pub fn new(n: usize, mut keys: Vec<u64>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        let mut offsets = vec![0usize; n + 1];
        for &k in &keys {
            offsets[(k >> 32) as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        Model { n, keys, offsets }
    }

    pub fn num_edges(&self) -> usize {
        self.keys.len()
    }

    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Keys of `v`'s out-edges; the low 32 bits are the neighbours, ascending.
    pub fn out(&self, v: u32) -> &[u64] {
        &self.keys[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    pub fn has_edge(&self, src: u32, dst: u32) -> bool {
        self.out(src).binary_search(&key(src, dst)).is_ok()
    }

    /// Lowest-numbered vertex of maximum out-degree.
    pub fn top_degree_vertex(&self) -> u32 {
        (0..self.n as u32)
            .max_by_key(|&v| (self.degree(v), std::cmp::Reverse(v)))
            .unwrap_or(0)
    }

    /// BFS hop count of every vertex from `src` along out-edges.
    pub fn bfs_levels(&self, src: u32) -> Vec<u32> {
        let mut level = vec![INF; self.n];
        level[src as usize] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(v) = queue.pop_front() {
            for &k in self.out(v) {
                let u = k as u32;
                if level[u as usize] == INF {
                    level[u as usize] = level[v as usize] + 1;
                    queue.push_back(u);
                }
            }
        }
        level
    }

    /// Whether `parents` (the engine's BFS output: `parents[src] == src`,
    /// [`INF`] for unreached) is a shortest-path tree of this graph.
    pub fn is_bfs_tree(&self, src: u32, levels: &[u32], parents: &[u32]) -> bool {
        parents.len() == self.n
            && parents[src as usize] == src
            && (0..self.n as u32).all(|v| {
                let p = parents[v as usize];
                match (levels[v as usize], p) {
                    (INF, INF) => true,
                    (INF, _) | (_, INF) => false,
                    (0, _) => v == src,
                    (l, p) => levels[p as usize] == l - 1 && self.has_edge(p, v),
                }
            })
    }

    /// Whether `parents` reaches exactly the vertices `levels` does.
    pub fn same_reach(levels: &[u32], parents: &[u32]) -> bool {
        levels.len() == parents.len()
            && levels
                .iter()
                .zip(parents)
                .all(|(&l, &p)| (l == INF) == (p == INF))
    }

    /// The engine's pull-style PageRank, sequentially: every vertex sums
    /// `score / degree` over its out-neighbours, dangling mass spread evenly.
    pub fn pagerank(&self, iters: usize, d: f64) -> Vec<f64> {
        let n = self.n;
        let base = (1.0 - d) / n as f64;
        let mut score = vec![1.0 / n as f64; n];
        let mut contrib = vec![0.0f64; n];
        for _ in 0..iters {
            let mut dangling = 0.0;
            for (v, c) in contrib.iter_mut().enumerate() {
                let deg = self.degree(v as u32);
                if deg == 0 {
                    dangling += score[v];
                }
                *c = if deg == 0 { 0.0 } else { score[v] / deg as f64 };
            }
            for (v, s) in score.iter_mut().enumerate() {
                let sum: f64 = self
                    .out(v as u32)
                    .iter()
                    .map(|&k| contrib[k as u32 as usize])
                    .sum();
                *s = base + d * (sum + dangling / n as f64);
            }
        }
        score
    }

    /// Vertices within `k` hops of `src`, with their hop count.
    pub fn khop(&self, src: u32, k: u32) -> BTreeMap<u32, u64> {
        let mut seen = BTreeMap::from([(src, 0u64)]);
        let mut frontier = vec![src];
        for hop in 1..=u64::from(k) {
            let mut next = Vec::new();
            for &v in &frontier {
                for &key in self.out(v) {
                    let u = key as u32;
                    if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(u) {
                        e.insert(hop);
                        next.push(u);
                    }
                }
            }
            frontier = next;
        }
        seen
    }

    /// Every vertex joined to `src` by edges taken in either direction, each
    /// mapped to 1 (the standing query's result shape).
    pub fn component_of(&self, src: u32) -> BTreeMap<u32, u64> {
        let mut parent: Vec<u32> = (0..self.n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for &k in &self.keys {
            let (a, b) = (
                find(&mut parent, (k >> 32) as u32),
                find(&mut parent, k as u32),
            );
            if a != b {
                parent[a.max(b) as usize] = a.min(b);
            }
        }
        let root = find(&mut parent, src);
        (0..self.n as u32)
            .filter(|&v| find(&mut parent, v) == root)
            .map(|v| (v, 1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> Model {
        // 0 -> 1 -> 2, 3 -> 2, 4 isolated
        Model::new(5, vec![key(0, 1), key(1, 2), key(3, 2), key(0, 1)])
    }

    #[test]
    fn csr_and_membership() {
        let m = path();
        assert_eq!(m.num_edges(), 3);
        assert_eq!(m.degree(0), 1);
        assert!(m.has_edge(3, 2) && !m.has_edge(2, 3));
    }

    #[test]
    fn bfs_and_tree_check() {
        let m = path();
        let l = m.bfs_levels(0);
        assert_eq!(l, vec![0, 1, 2, INF, INF]);
        assert!(m.is_bfs_tree(0, &l, &[0, 0, 1, INF, INF]));
        assert!(!m.is_bfs_tree(0, &l, &[0, 0, 0, INF, INF]));
        assert!(!m.is_bfs_tree(0, &l, &[0, 0, 1, 3, INF]));
    }

    #[test]
    fn khop_and_component() {
        let m = path();
        assert_eq!(m.khop(0, 1), BTreeMap::from([(0, 0), (1, 1)]));
        assert_eq!(m.component_of(0).len(), 4);
        assert_eq!(m.component_of(4), BTreeMap::from([(4, 1)]));
    }

    #[test]
    fn pagerank_conserves_mass() {
        let m = Model::new(3, vec![key(0, 1), key(1, 0), key(1, 2), key(2, 1)]);
        let s: f64 = m.pagerank(5, 0.85).iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
