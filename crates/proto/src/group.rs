//! A tiny insertion-ordered map for message batching.
//!
//! Protocol handlers batch keys per destination before emitting messages.
//! Iteration order of these batches determines message emission order, so
//! it must be **deterministic** (the simulator replays runs bit-for-bit)
//! and must **preserve insertion order** (re-dispatched parked operations
//! of one worker must leave in program order). `std::collections::HashMap`
//! guarantees neither. Per-destination batches ([`OrderedGroups`]) are
//! small (a handful of nodes), so a linear-scan vector map is also faster
//! in practice; per-shard groups ([`ShardGroups`]) can be many, and are
//! indexed.

/// An insertion-ordered map with linear-scan lookup.
#[derive(Debug)]
pub struct OrderedGroups<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: PartialEq + Copy, V: Default> OrderedGroups<K, V> {
    /// Creates an empty group map.
    pub fn new() -> Self {
        OrderedGroups {
            entries: Vec::new(),
        }
    }

    /// Returns the value for `key`, inserting a default entry if absent.
    pub fn entry(&mut self, key: K) -> &mut V {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            &mut self.entries[i].1
        } else {
            self.entries.push((key, V::default()));
            &mut self.entries.last_mut().expect("just pushed").1
        }
    }

    /// Whether no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

impl<K, V> IntoIterator for OrderedGroups<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    /// Consumes the map, yielding entries in insertion order.
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<K: PartialEq + Copy, V: Default> Default for OrderedGroups<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Insertion-ordered grouping of item indices by shard, with pooled
/// per-group vectors: clearing keeps every inner vector's capacity, so
/// regrouping the keys of each operation/message allocates nothing in
/// steady state. This is the pre-grouping that lets the client and server
/// acquire each shard latch **once per operation** instead of once per
/// key.
///
/// An operation can touch hundreds of distinct shards (a sentence plus a
/// 1 000-key negative-sample buffer, Appendix A of the paper), so a group
/// is found through a shard → slot index, not by scanning the live groups.
/// The index is stamped per round: [`ShardGroups::clear`] bumps the stamp
/// instead of wiping the table, and an index entry counts only while its
/// stamp is the current one.
#[derive(Debug)]
pub struct ShardGroups {
    /// `(shard, item indices)`; the first `live` entries are in use.
    entries: Vec<(usize, Vec<u32>)>,
    live: usize,
    /// `index[shard] = (stamp, slot)`: shard's group of this round is
    /// `entries[slot]` iff `stamp` is the current one. Grows to the
    /// largest shard index seen; fresh entries carry stamp 0.
    index: Vec<(u32, u32)>,
    /// Stamp of the current round; never 0.
    stamp: u32,
}

impl Default for ShardGroups {
    fn default() -> Self {
        ShardGroups {
            entries: Vec::new(),
            live: 0,
            index: Vec::new(),
            stamp: 1,
        }
    }
}

impl ShardGroups {
    /// Empties the grouping, keeping all allocated capacity.
    pub fn clear(&mut self) {
        for (_, items) in &mut self.entries[..self.live] {
            items.clear();
        }
        self.live = 0;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: stamps of 2^32 rounds ago would count again.
            self.index.fill((0, 0));
            self.stamp = 1;
        }
    }

    /// Appends item `item` to shard `shard`'s group, in O(1).
    pub fn push(&mut self, shard: usize, item: u32) {
        if shard >= self.index.len() {
            self.index.resize(shard + 1, (0, 0));
        }
        let (stamp, slot) = self.index[shard];
        let slot = if stamp == self.stamp {
            slot as usize
        } else {
            let slot = self.live;
            if slot == self.entries.len() {
                self.entries.push((shard, Vec::new()));
            } else {
                self.entries[slot].0 = shard;
            }
            self.index[shard] = (self.stamp, slot as u32);
            self.live += 1;
            slot
        };
        self.entries[slot].1.push(item);
    }

    /// Iterates groups in first-appearance order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.entries[..self.live]
            .iter()
            .map(|(s, items)| (*s, items.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_insertion_order() {
        let mut g: OrderedGroups<u32, Vec<u32>> = OrderedGroups::new();
        g.entry(5).push(1);
        g.entry(2).push(2);
        g.entry(5).push(3);
        g.entry(9).push(4);
        let out: Vec<(u32, Vec<u32>)> = g.into_iter().collect();
        assert_eq!(out, vec![(5, vec![1, 3]), (2, vec![2]), (9, vec![4])]);
    }

    #[test]
    fn len_and_empty() {
        let mut g: OrderedGroups<u8, u8> = OrderedGroups::new();
        assert!(g.is_empty());
        *g.entry(1) = 9;
        *g.entry(1) = 10;
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn shard_groups_preserve_order_and_capacity() {
        let mut g = ShardGroups::default();
        g.push(7, 0);
        g.push(2, 1);
        g.push(7, 2);
        let got: Vec<(usize, Vec<u32>)> = g.iter().map(|(s, v)| (s, v.to_vec())).collect();
        assert_eq!(got, vec![(7, vec![0, 2]), (2, vec![1])]);
        g.clear();
        assert_eq!(g.iter().count(), 0);
        // Reuse after clear: pooled vectors are reused in place.
        g.push(3, 9);
        let got: Vec<(usize, Vec<u32>)> = g.iter().map(|(s, v)| (s, v.to_vec())).collect();
        assert_eq!(got, vec![(3, vec![9])]);
    }

    /// First-appearance grouping by linear scan: the definition the
    /// indexed implementation has to agree with.
    fn naive(pushes: &[(usize, u32)]) -> Vec<(usize, Vec<u32>)> {
        let mut out: Vec<(usize, Vec<u32>)> = Vec::new();
        for &(shard, item) in pushes {
            match out.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, items)) => items.push(item),
                None => out.push((shard, vec![item])),
            }
        }
        out
    }

    fn collect(g: &ShardGroups) -> Vec<(usize, Vec<u32>)> {
        g.iter().map(|(s, v)| (s, v.to_vec())).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Rounds of 1..=2000 random shard ids through one reused
        /// `ShardGroups`, the stamp started just below its wrap so that
        /// the rounds cross it.
        #[test]
        fn equals_naive_grouping_across_reuse_and_stamp_wrap(
            rounds in proptest::collection::vec(
                proptest::collection::vec(0usize..1000, 1..=2000),
                1..5,
            ),
            before_wrap in 0u32..3,
        ) {
            let mut g = ShardGroups {
                stamp: u32::MAX - before_wrap,
                ..ShardGroups::default()
            };
            for shards in &rounds {
                g.clear();
                let pushes: Vec<(usize, u32)> =
                    shards.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
                for &(s, i) in &pushes {
                    g.push(s, i);
                }
                proptest::prop_assert_eq!(collect(&g), naive(&pushes));
                proptest::prop_assert!(g.stamp != 0);
            }
        }
    }

    #[test]
    fn stale_index_entries_do_not_survive_the_stamp_wrap() {
        let mut g = ShardGroups {
            stamp: u32::MAX,
            ..ShardGroups::default()
        };
        g.push(4, 0); // index[4] = (u32::MAX, 0)
        g.clear(); // wraps: the table is wiped, stamp restarts at 1
        assert_eq!(g.stamp, 1);
        g.push(9, 1);
        g.push(4, 2);
        assert_eq!(collect(&g), vec![(9, vec![1]), (4, vec![2])]);
    }
}
