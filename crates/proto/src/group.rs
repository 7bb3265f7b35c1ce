//! A tiny insertion-ordered map for message batching.
//!
//! Protocol handlers batch keys per destination before emitting messages.
//! Iteration order of these batches determines message emission order, so
//! it must be **deterministic** (the simulator replays runs bit-for-bit)
//! and must **preserve insertion order** (re-dispatched parked operations
//! of one worker must leave in program order). `std::collections::HashMap`
//! guarantees neither. Per-destination batches are small (a handful of
//! nodes), so a linear-scan vector map is also faster in practice.
//!
//! Destinations are all that is grouped: the keys of an operation or a
//! message are handled in the order they arrive, one shard latch at a
//! time ([`LatchCursor`](crate::shard::LatchCursor)), and append to their
//! destination's group as the walk meets them — so a group's keys are in
//! arrival order without any regrouping.

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
}
