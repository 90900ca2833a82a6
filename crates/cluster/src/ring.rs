//! Consistent-hash ring with virtual nodes.
//!
//! Jobs are keyed by their run-cache fingerprint; the owner of a key is
//! the node whose nearest virtual point clockwise from the (re-hashed)
//! key comes first. Virtual nodes smooth the key distribution and bound
//! how much ownership moves on membership changes: removing a node
//! re-homes only that node's arcs, so identical sweep cells keep landing
//! on the node that already has them in its run cache.

/// Consistent-hash ring. Cheap to rebuild (tens of nodes × tens of
/// virtual points), so mutation rebuilds the sorted point list
/// wholesale rather than editing it incrementally.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    nodes: Vec<String>,
    /// Sorted `(point, node index)` pairs.
    points: Vec<(u64, usize)>,
}

/// FNV-1a over the node name: stable, decent avalanche for short keys.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl HashRing {
    pub fn new(vnodes: usize) -> Self {
        Self {
            vnodes: vnodes.max(1),
            nodes: Vec::new(),
            points: Vec::new(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn contains(&self, node: &str) -> bool {
        self.nodes.iter().any(|n| n == node)
    }

    /// Adds a node (no-op if present).
    pub fn add(&mut self, node: &str) {
        if self.contains(node) {
            return;
        }
        self.nodes.push(node.to_owned());
        self.rebuild();
    }

    /// Removes a node (no-op if absent).
    pub fn remove(&mut self, node: &str) {
        let before = self.nodes.len();
        self.nodes.retain(|n| n != node);
        if self.nodes.len() != before {
            self.rebuild();
        }
    }

    fn rebuild(&mut self) {
        // Sort nodes so the point layout is a pure function of the
        // membership *set*, independent of insertion order — a
        // coordinator restart that re-learns members in a different
        // order must shard identically.
        self.nodes.sort();
        self.points.clear();
        for (i, node) in self.nodes.iter().enumerate() {
            let base = fnv1a(node.as_bytes());
            for v in 0..self.vnodes {
                self.points.push((splitmix64(base ^ (v as u64) << 1), i));
            }
        }
        self.points.sort_unstable();
    }

    /// The node owning `key` (first virtual point at or after the
    /// re-hashed key, wrapping), or `None` on an empty ring.
    pub fn owner(&self, key: u64) -> Option<&str> {
        self.walk(key).next()
    }

    /// Every node once, in the order their first virtual point follows
    /// the re-hashed `key` clockwise (wrapping): the owner first, then
    /// the node that would own `key` were the owner gone, and so on.
    pub fn walk(&self, key: u64) -> impl Iterator<Item = &str> + '_ {
        let h = splitmix64(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut seen = vec![false; self.nodes.len()];
        (0..self.points.len())
            .map(move |i| self.points[(start + i) % self.points.len()].1)
            .filter(move |&n| !std::mem::replace(&mut seen[n], true))
            .map(|n| self.nodes[n].as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD)
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new(64);
        assert!(ring.is_empty());
        assert_eq!(ring.owner(42), None);
    }

    #[test]
    fn single_node_owns_everything() {
        let mut ring = HashRing::new(64);
        ring.add("only");
        for k in keys(100) {
            assert_eq!(ring.owner(k), Some("only"));
        }
    }

    #[test]
    fn ownership_is_insertion_order_independent() {
        let names = ["w1", "w2", "w3", "w4"];
        let mut a = HashRing::new(64);
        let mut b = HashRing::new(64);
        for n in names {
            a.add(n);
        }
        for n in names.iter().rev() {
            b.add(n);
        }
        for k in keys(500) {
            assert_eq!(a.owner(k), b.owner(k));
        }
    }

    #[test]
    fn removal_only_remaps_the_removed_nodes_keys() {
        let mut ring = HashRing::new(64);
        for n in ["w1", "w2", "w3", "w4"] {
            ring.add(n);
        }
        let before: Vec<(u64, String)> = keys(1000)
            .map(|k| (k, ring.owner(k).unwrap().to_owned()))
            .collect();
        ring.remove("w3");
        for (k, owner) in &before {
            let now = ring.owner(*k).unwrap();
            if owner != "w3" {
                assert_eq!(now, owner, "key {k:#x} moved off a surviving node");
            } else {
                assert_ne!(now, "w3");
            }
        }
    }

    #[test]
    fn distribution_is_roughly_balanced() {
        let mut ring = HashRing::new(64);
        let names = ["w1", "w2", "w3", "w4"];
        for n in names {
            ring.add(n);
        }
        let mut counts = std::collections::HashMap::new();
        let total = 4000u64;
        for k in keys(total) {
            *counts
                .entry(ring.owner(k).unwrap().to_owned())
                .or_insert(0u64) += 1;
        }
        for n in names {
            let share = counts.get(n).copied().unwrap_or(0) as f64 / total as f64;
            assert!(
                (0.10..=0.45).contains(&share),
                "{n} owns {share:.2} of keys"
            );
        }
    }

    #[test]
    fn walk_visits_every_node_once_starting_at_the_owner() {
        let mut ring = HashRing::new(16);
        for n in ["w1", "w2", "w3"] {
            ring.add(n);
        }
        for k in keys(200) {
            let walk: Vec<&str> = ring.walk(k).collect();
            assert_eq!(walk.len(), 3);
            assert_eq!(Some(walk[0]), ring.owner(k));
            // The second stop owns the key once the owner is gone.
            let mut without = ring.clone();
            without.remove(walk[0]);
            assert_eq!(without.owner(k), Some(walk[1]));
        }
        assert_eq!(HashRing::new(4).walk(7).count(), 0);
    }

    #[test]
    fn add_and_remove_are_idempotent() {
        let mut ring = HashRing::new(8);
        ring.add("w1");
        ring.add("w1");
        assert_eq!(ring.len(), 1);
        ring.remove("w2");
        ring.remove("w1");
        ring.remove("w1");
        assert!(ring.is_empty());
    }
}
