//! Per-key value lengths.
//!
//! Parameter values are short `f32` vectors whose length depends on the
//! model: matrix factorization stores rank-`r` factors for every key,
//! RESCAL stores dimension-`d` entity embeddings but `d²` relation
//! matrices, and AdaGrad doubles each length to hold the accumulator
//! alongside the value. [`Layout`] captures these shapes; stores and
//! message assembly use it to compute offsets.

use lapse_net::Key;
use std::sync::Arc;

/// Value length per key.
#[derive(Debug, Clone)]
pub enum Layout {
    /// Every key has the same value length.
    Uniform(u32),
    /// Keys `0..split` have length `first`, keys `split..` length `rest`.
    ///
    /// This covers the paper's KGE setups, where entity and relation
    /// parameters have different sizes (e.g. RESCAL dim 100 / 10 000).
    TwoTier {
        /// First key with the `rest` length.
        split: u64,
        /// Length of keys below `split`.
        first: u32,
        /// Length of keys at or above `split`.
        rest: u32,
    },
    /// Arbitrary per-key lengths.
    PerKey(Arc<Vec<u32>>),
}

impl Layout {
    /// Length of the value stored under `key`.
    #[inline]
    pub fn len(&self, key: Key) -> usize {
        match self {
            Layout::Uniform(n) => *n as usize,
            Layout::TwoTier { split, first, rest } => {
                if key.0 < *split {
                    *first as usize
                } else {
                    *rest as usize
                }
            }
            Layout::PerKey(lens) => lens[key.idx()] as usize,
        }
    }

    /// Total float count across a key range `[start, end)` — what a
    /// shard's store would have to hold (`ProtoConfig::validate`). In
    /// `u64`, saturating: the answer may be "more than fits anywhere".
    pub fn total_len(&self, start: u64, end: u64) -> u64 {
        match *self {
            Layout::Uniform(n) => (end - start).saturating_mul(n as u64),
            Layout::TwoTier { split, first, rest } => {
                let below = split.clamp(start, end) - start;
                let above = end - start - below;
                (below.saturating_mul(first as u64))
                    .saturating_add(above.saturating_mul(rest as u64))
            }
            Layout::PerKey(_) => (start..end).map(|k| self.len(Key(k)) as u64).sum(),
        }
    }

    /// Sum of value lengths over an arbitrary key list.
    pub fn keys_len(&self, keys: &[Key]) -> usize {
        keys.iter().map(|&k| self.len(k)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform() {
        let l = Layout::Uniform(8);
        assert_eq!(l.len(Key(0)), 8);
        assert_eq!(l.len(Key(999)), 8);
        assert_eq!(l.total_len(5, 10), 40);
    }

    #[test]
    fn two_tier() {
        let l = Layout::TwoTier {
            split: 10,
            first: 4,
            rest: 16,
        };
        assert_eq!(l.len(Key(9)), 4);
        assert_eq!(l.len(Key(10)), 16);
        assert_eq!(l.total_len(8, 12), 4 + 4 + 16 + 16);
        assert_eq!((l.total_len(0, 10), l.total_len(10, 12)), (40, 32));
        assert_eq!(l.total_len(0, u64::MAX), u64::MAX, "saturates");
    }

    #[test]
    fn per_key() {
        let l = Layout::PerKey(Arc::new(vec![1, 2, 3]));
        assert_eq!(l.len(Key(2)), 3);
        assert_eq!(l.total_len(0, 3), 6);
        assert_eq!(l.keys_len(&[Key(0), Key(2)]), 4);
    }
}
