//! Per-shard parameter stores.
//!
//! Like the paper's implementation (Section 3.7), the local parameter
//! store comes in two flavours: a **dense** store that preallocates one
//! slot for every key of the shard's range (suitable when keys are
//! contiguous — it trades memory for O(1) access and zero allocation
//! during relocations), and a **sparse** store backed by a hash map that
//! only materializes currently-owned keys.
//!
//! Both flavours keep their values in one per-shard `ValueArena`: a
//! contiguous `f32` slab addressed by [`ValueSlot`] handles. The dense
//! store's arena is fully preallocated (one fixed slot per key); the
//! sparse store's arena grows on demand and recycles freed spans through
//! per-length free lists, so steady-state churn (relocations moving keys
//! in and out) allocates nothing. Values never travel as owned `Vec<f32>`:
//! reads hand out borrows, and a relocation hand-over *takes* the slot
//! ([`ShardStore::take`]), copies the value out of the arena into the
//! outgoing message block, and then releases it.
//!
//! A store holds only the keys its node currently *owns*; ownership moves
//! between nodes as parameters relocate.

use std::collections::HashMap;

use lapse_net::Key;

use crate::layout::Layout;

/// Handle to one value's span inside a store's `ValueArena`.
///
/// A slot stays readable (via [`ShardStore::slot_slice`]) from the moment
/// it is returned by [`ShardStore::take`] until it is passed to
/// [`ShardStore::release`]; no insertion may happen in between. All
/// offsets are in floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueSlot {
    off: u32,
    len: u32,
}

impl ValueSlot {
    /// Value length in floats.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the slot holds no floats.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn range(&self) -> std::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }
}

/// Allocation counters of a store's arena, for the value-plane accounting
/// (`ClusterStats::value_allocs_*`).
#[derive(Debug, Default, Clone, Copy)]
pub struct ArenaStats {
    /// Value slots served without touching the heap: preallocated dense
    /// slots, free-list reuse, and in-capacity arena growth.
    pub arena: u64,
    /// Value slots whose allocation had to grow the arena's heap backing.
    pub heap: u64,
}

impl ArenaStats {
    /// Adds another store's counters into this one (aggregation across
    /// shards and nodes).
    pub fn merge(&mut self, other: ArenaStats) {
        self.arena += other.arena;
        self.heap += other.heap;
    }
}

/// A contiguous `f32` slab with per-length free lists.
#[derive(Debug)]
struct ValueArena {
    data: Vec<f32>,
    /// Free spans per length class. Shards see very few distinct value
    /// lengths (one or two per [`Layout`]), so a linear-scan vector map
    /// beats a hash map here.
    free: Vec<(u32, Vec<u32>)>,
    stats: ArenaStats,
}

impl ValueArena {
    fn with_capacity(floats: usize) -> Self {
        ValueArena {
            data: Vec::with_capacity(floats),
            free: Vec::new(),
            stats: ArenaStats::default(),
        }
    }

    /// Preallocates `floats` zeroed floats (dense stores).
    fn prealloc(floats: usize) -> Self {
        ValueArena {
            data: vec![0.0; floats],
            free: Vec::new(),
            stats: ArenaStats::default(),
        }
    }

    fn alloc(&mut self, len: u32) -> ValueSlot {
        if let Some((_, list)) = self.free.iter_mut().find(|(l, _)| *l == len) {
            if let Some(off) = list.pop() {
                self.stats.arena += 1;
                return ValueSlot { off, len };
            }
        }
        let off = self.data.len() as u32;
        let grew = self.data.len() + len as usize > self.data.capacity();
        self.data.resize(self.data.len() + len as usize, 0.0);
        if grew {
            self.stats.heap += 1;
        } else {
            self.stats.arena += 1;
        }
        ValueSlot { off, len }
    }

    /// Returns a span to the free list. The span is zeroed so stale data
    /// cannot leak through a partial later fill.
    fn free(&mut self, slot: ValueSlot) {
        self.data[slot.range()].fill(0.0);
        match self.free.iter_mut().find(|(l, _)| *l == slot.len) {
            Some((_, list)) => list.push(slot.off),
            None => self.free.push((slot.len, vec![slot.off])),
        }
    }

    #[inline]
    fn slice(&self, slot: ValueSlot) -> &[f32] {
        &self.data[slot.range()]
    }

    #[inline]
    fn slice_mut(&mut self, slot: ValueSlot) -> &mut [f32] {
        &mut self.data[slot.range()]
    }
}

/// Outcome of a seqlock-optimistic store read
/// (`ShardStore::read_racy`). The observation is only trustworthy once
/// the caller has validated the shard's sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RacyRead {
    /// The key was owned; its value was copied into the caller's buffer.
    Copied,
    /// The key is not currently owned by this store.
    NotOwned,
    /// The store flavour cannot serve unsynchronized reads (sparse stores
    /// reallocate their arena; the caller must take the latch).
    Unsupported,
}

/// One shard's parameter store.
#[derive(Debug)]
pub enum ShardStore {
    /// Preallocated storage for a contiguous key range.
    Dense(DenseStore),
    /// Hash-map storage for currently-owned keys only.
    Sparse(SparseStore),
}

impl ShardStore {
    /// Creates a dense store covering keys `[start, end)`.
    pub fn dense(layout: &Layout, start: u64, end: u64) -> Self {
        ShardStore::Dense(DenseStore::new(layout, start, end))
    }

    /// Creates an empty sparse store.
    pub fn sparse(layout: &Layout) -> Self {
        ShardStore::Sparse(SparseStore::new(layout.clone()))
    }

    /// Whether this shard currently owns `key`.
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        match self {
            ShardStore::Dense(s) => s.contains(key),
            ShardStore::Sparse(s) => s.contains(key),
        }
    }

    /// Read access to an owned value.
    #[inline]
    pub fn get(&self, key: Key) -> Option<&[f32]> {
        match self {
            ShardStore::Dense(s) => s.get(key),
            ShardStore::Sparse(s) => s.get(key),
        }
    }

    /// Adds `delta` into the owned value (cumulative push). Returns false
    /// if the key is not owned.
    #[inline]
    pub fn add(&mut self, key: Key, delta: &[f32]) -> bool {
        match self {
            ShardStore::Dense(s) => s.add(key, delta),
            ShardStore::Sparse(s) => s.add(key, delta),
        }
    }

    /// Inserts an owned value (takes ownership of the key).
    ///
    /// # Panics
    /// Panics if the value length does not match the layout, or the key is
    /// outside the shard's range (dense), or the key is already owned.
    pub fn insert(&mut self, key: Key, vals: &[f32]) {
        let expected = match self {
            ShardStore::Dense(s) => s.value_len(key),
            ShardStore::Sparse(s) => s.layout.len(key),
        };
        assert_eq!(vals.len(), expected, "insert length mismatch for {key}");
        self.insert_with(key, |dst| dst.copy_from_slice(vals));
    }

    /// Inserts an owned value by filling its arena slot in place: `fill`
    /// receives the zeroed destination slice of the key's layout length.
    /// This is the alloc-free install path for hand-overs (values are
    /// copied straight from the message block into the arena).
    ///
    /// # Panics
    /// Panics if the key is outside the shard's range (dense) or already
    /// owned.
    pub fn insert_with(&mut self, key: Key, fill: impl FnOnce(&mut [f32])) {
        match self {
            ShardStore::Dense(s) => s.insert_with(key, fill),
            ShardStore::Sparse(s) => s.insert_with(key, fill),
        }
    }

    /// Stops owning `key` and returns its arena slot (relocation
    /// hand-over). The value stays readable via
    /// [`ShardStore::slot_slice`] until the slot is passed to
    /// [`ShardStore::release`]; no insertion may happen in between.
    pub fn take(&mut self, key: Key) -> Option<ValueSlot> {
        match self {
            ShardStore::Dense(s) => s.take(key),
            ShardStore::Sparse(s) => s.take(key),
        }
    }

    /// Reads a slot returned by [`ShardStore::take`].
    #[inline]
    pub fn slot_slice(&self, slot: ValueSlot) -> &[f32] {
        match self {
            ShardStore::Dense(s) => s.arena.slice(slot),
            ShardStore::Sparse(s) => s.arena.slice(slot),
        }
    }

    /// Reclaims a taken slot: zeroes it (dense) or returns it to the
    /// arena's free list (sparse).
    pub fn release(&mut self, slot: ValueSlot) {
        match self {
            ShardStore::Dense(s) => s.arena.data[slot.range()].fill(0.0),
            ShardStore::Sparse(s) => s.arena.free(slot),
        }
    }

    /// Number of owned keys.
    pub fn len(&self) -> usize {
        match self {
            ShardStore::Dense(s) => s.owned_count,
            ShardStore::Sparse(s) => s.map.len(),
        }
    }

    /// Whether no key is owned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This store's arena allocation counters.
    pub fn alloc_stats(&self) -> ArenaStats {
        match self {
            ShardStore::Dense(s) => s.arena.stats,
            ShardStore::Sparse(s) => s.arena.stats,
        }
    }

    /// Unsynchronized (seqlock-optimistic) read of `key`'s value into
    /// `out`, without holding the shard latch. Only dense stores support
    /// it: their `offsets`, `owned`, and preallocated arena slab never
    /// reallocate after construction, so a concurrent writer can tear the
    /// floats (which the caller detects by re-checking the shard sequence
    /// number) but can never dangle a pointer. Floats and the owned flag
    /// are read volatilely so the torn intermediate states the seqlock
    /// protocol tolerates are not compiled away.
    pub(crate) fn read_racy(&self, key: Key, out: &mut [f32]) -> RacyRead {
        match self {
            ShardStore::Dense(s) => s.read_racy(key, out),
            ShardStore::Sparse(_) => RacyRead::Unsupported,
        }
    }

    /// Unsynchronized (seqlock-optimistic) read of whether `key` is owned,
    /// without holding the shard latch: the first half of
    /// [`ShardStore::read_racy`], for callers that need the ownership
    /// decision and no value (a `localize` of an already-local key). The
    /// same argument carries it: the dense store's `owned` flags never
    /// move after construction, so a concurrent writer can make the
    /// answer stale (which the caller detects by re-checking the shard
    /// sequence number) but can never dangle the pointer. `None` for
    /// sparse stores, whose map reallocates.
    pub(crate) fn owned_racy(&self, key: Key) -> Option<bool> {
        match self {
            ShardStore::Dense(s) => Some(s.owned_racy(key)),
            ShardStore::Sparse(_) => None,
        }
    }
}

/// Dense store: one preallocated arena slot per key in `[start, end)`.
#[derive(Debug)]
pub struct DenseStore {
    start: u64,
    end: u64,
    /// Offset of key `start + i` is `offsets[i]`; length is
    /// `offsets[i+1] - offsets[i]`.
    offsets: Vec<u32>,
    arena: ValueArena,
    owned: Vec<bool>,
    owned_count: usize,
}

impl DenseStore {
    fn new(layout: &Layout, start: u64, end: u64) -> Self {
        assert!(start <= end);
        let n = (end - start) as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for k in start..end {
            acc += layout.len(Key(k)) as u32;
            offsets.push(acc);
        }
        DenseStore {
            start,
            end,
            offsets,
            arena: ValueArena::prealloc(acc as usize),
            owned: vec![false; n],
            owned_count: 0,
        }
    }

    #[inline]
    fn index(&self, key: Key) -> usize {
        debug_assert!(
            key.0 >= self.start && key.0 < self.end,
            "key {key} outside dense shard [{}, {})",
            self.start,
            self.end
        );
        (key.0 - self.start) as usize
    }

    #[inline]
    fn slot(&self, idx: usize) -> ValueSlot {
        let off = self.offsets[idx];
        ValueSlot {
            off,
            len: self.offsets[idx + 1] - off,
        }
    }

    #[inline]
    fn value_len(&self, key: Key) -> usize {
        self.slot(self.index(key)).len()
    }

    #[inline]
    fn contains(&self, key: Key) -> bool {
        if key.0 < self.start || key.0 >= self.end {
            return false;
        }
        self.owned[self.index(key)]
    }

    #[inline]
    fn get(&self, key: Key) -> Option<&[f32]> {
        let idx = self.index(key);
        if self.owned[idx] {
            Some(self.arena.slice(self.slot(idx)))
        } else {
            None
        }
    }

    #[inline]
    fn add(&mut self, key: Key, delta: &[f32]) -> bool {
        let idx = self.index(key);
        if !self.owned[idx] {
            return false;
        }
        let slot = self.slot(idx);
        let dst = self.arena.slice_mut(slot);
        assert_eq!(dst.len(), delta.len(), "push length mismatch for {key}");
        for (d, &x) in dst.iter_mut().zip(delta) {
            *d += x;
        }
        true
    }

    fn insert_with(&mut self, key: Key, fill: impl FnOnce(&mut [f32])) {
        let idx = self.index(key);
        assert!(!self.owned[idx], "dense insert of already-owned {key}");
        let slot = self.slot(idx);
        fill(self.arena.slice_mut(slot));
        self.arena.stats.arena += 1; // the slot was preallocated
        self.owned[idx] = true;
        self.owned_count += 1;
    }

    fn take(&mut self, key: Key) -> Option<ValueSlot> {
        let idx = self.index(key);
        if !self.owned[idx] {
            return None;
        }
        self.owned[idx] = false;
        self.owned_count -= 1;
        Some(self.slot(idx))
    }

    /// See [`ShardStore::owned_racy`]: the owned flag of `key`, read
    /// volatilely so the stale states the seqlock protocol tolerates are
    /// not compiled away. Keys outside the range are not owned.
    #[inline]
    fn owned_racy(&self, key: Key) -> bool {
        if key.0 < self.start || key.0 >= self.end {
            return false;
        }
        let idx = (key.0 - self.start) as usize;
        // SAFETY: `idx < owned.len()` by the range check (`owned` has one
        // flag per key of `[start, end)`), and the backing memory is
        // stable: the Vec is never resized after `new`. The flag races
        // only with `insert_with`/`take` under the shard latch, which
        // store `true`/`false` — every bit pattern a racing read can see
        // is a valid `bool`.
        unsafe { std::ptr::read_volatile(self.owned.as_ptr().add(idx)) }
    }

    /// See [`ShardStore::read_racy`]. `start`, `end`, and `offsets` are
    /// immutable after construction, so the plain reads of the slot
    /// geometry are safe; only the owned flag and the value floats race
    /// with writers.
    fn read_racy(&self, key: Key, out: &mut [f32]) -> RacyRead {
        if !self.owned_racy(key) {
            return RacyRead::NotOwned;
        }
        let slot = self.slot((key.0 - self.start) as usize);
        debug_assert_eq!(out.len(), slot.len(), "racy read length mismatch");
        // SAFETY: the slot range is within the preallocated arena slab,
        // whose backing memory never moves; concurrent writers may tear
        // the floats, which the caller's sequence check rejects.
        let src = unsafe { self.arena.data.as_ptr().add(slot.off as usize) };
        for (i, o) in out.iter_mut().enumerate() {
            *o = unsafe { std::ptr::read_volatile(src.add(i)) };
        }
        RacyRead::Copied
    }
}

/// Sparse store: owned keys only, values in a growing arena.
#[derive(Debug)]
pub struct SparseStore {
    layout: Layout,
    map: HashMap<Key, ValueSlot>,
    arena: ValueArena,
}

impl SparseStore {
    fn new(layout: Layout) -> Self {
        SparseStore {
            layout,
            map: HashMap::new(),
            arena: ValueArena::with_capacity(0),
        }
    }

    #[inline]
    fn contains(&self, key: Key) -> bool {
        self.map.contains_key(&key)
    }

    #[inline]
    fn get(&self, key: Key) -> Option<&[f32]> {
        self.map.get(&key).map(|&slot| self.arena.slice(slot))
    }

    #[inline]
    fn add(&mut self, key: Key, delta: &[f32]) -> bool {
        match self.map.get(&key) {
            Some(&slot) => {
                let dst = self.arena.slice_mut(slot);
                assert_eq!(dst.len(), delta.len(), "push length mismatch for {key}");
                for (d, &x) in dst.iter_mut().zip(delta) {
                    *d += x;
                }
                true
            }
            None => false,
        }
    }

    fn insert_with(&mut self, key: Key, fill: impl FnOnce(&mut [f32])) {
        assert!(
            !self.map.contains_key(&key),
            "sparse insert of already-owned {key}"
        );
        let slot = self.arena.alloc(self.layout.len(key) as u32);
        fill(self.arena.slice_mut(slot));
        self.map.insert(key, slot);
    }

    fn take(&mut self, key: Key) -> Option<ValueSlot> {
        self.map.remove(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(layout: &Layout, start: u64, end: u64) -> Vec<ShardStore> {
        vec![
            ShardStore::dense(layout, start, end),
            ShardStore::sparse(layout),
        ]
    }

    /// Reads a key's value, takes the slot, and releases it — the
    /// hand-over access pattern.
    fn take_vec(s: &mut ShardStore, key: Key) -> Option<Vec<f32>> {
        let slot = s.take(key)?;
        let out = s.slot_slice(slot).to_vec();
        s.release(slot);
        Some(out)
    }

    #[test]
    fn insert_get_add_take() {
        let layout = Layout::Uniform(2);
        for mut s in both(&layout, 0, 10) {
            assert!(!s.contains(Key(3)));
            assert!(s.get(Key(3)).is_none());
            assert!(!s.add(Key(3), &[1.0, 1.0]));

            s.insert(Key(3), &[1.0, 2.0]);
            assert!(s.contains(Key(3)));
            assert_eq!(s.get(Key(3)).unwrap(), &[1.0, 2.0]);
            assert_eq!(s.len(), 1);

            assert!(s.add(Key(3), &[0.5, -1.0]));
            assert_eq!(s.get(Key(3)).unwrap(), &[1.5, 1.0]);

            assert_eq!(take_vec(&mut s, Key(3)).unwrap(), vec![1.5, 1.0]);
            assert!(!s.contains(Key(3)));
            assert!(s.take(Key(3)).is_none());
            assert!(s.is_empty());
        }
    }

    #[test]
    fn taken_slot_readable_until_release() {
        let layout = Layout::Uniform(2);
        for mut s in both(&layout, 0, 4) {
            s.insert(Key(1), &[7.0, 8.0]);
            let slot = s.take(Key(1)).unwrap();
            assert!(!s.contains(Key(1)), "taken key no longer owned");
            assert_eq!(s.slot_slice(slot), &[7.0, 8.0]);
            s.release(slot);
        }
    }

    #[test]
    fn released_slots_zeroed_before_reuse() {
        let layout = Layout::Uniform(2);
        for mut s in both(&layout, 0, 4) {
            s.insert(Key(1), &[7.0, 8.0]);
            let slot = s.take(Key(1)).unwrap();
            s.release(slot);
            // A partial fill must observe zeroed memory, not stale data.
            s.insert_with(Key(1), |dst| dst[0] = 1.0);
            assert_eq!(s.get(Key(1)).unwrap(), &[1.0, 0.0]);
        }
    }

    #[test]
    fn sparse_arena_recycles_slots() {
        let layout = Layout::Uniform(4);
        let mut s = ShardStore::sparse(&layout);
        s.insert(Key(0), &[1.0; 4]);
        let grown = s.alloc_stats();
        let slot = s.take(Key(0)).unwrap();
        s.release(slot);
        // Steady-state churn: the freed span is reused, not re-allocated.
        for k in 1..100 {
            s.insert(Key(k), &[2.0; 4]);
            let slot = s.take(Key(k)).unwrap();
            s.release(slot);
        }
        let after = s.alloc_stats();
        assert_eq!(after.heap, grown.heap, "churn must not grow the heap");
        assert_eq!(after.arena, grown.arena + 99);
    }

    #[test]
    fn dense_inserts_count_as_arena_allocs() {
        let layout = Layout::Uniform(2);
        let mut s = ShardStore::dense(&layout, 0, 8);
        for k in 0..8 {
            s.insert(Key(k), &[1.0, 1.0]);
        }
        let stats = s.alloc_stats();
        assert_eq!(stats.arena, 8);
        assert_eq!(stats.heap, 0);
    }

    #[test]
    fn two_tier_layout_lengths() {
        let layout = Layout::TwoTier {
            split: 5,
            first: 2,
            rest: 4,
        };
        for mut s in both(&layout, 0, 10) {
            s.insert(Key(0), &[1.0, 2.0]);
            s.insert(Key(7), &[1.0, 2.0, 3.0, 4.0]);
            assert_eq!(s.get(Key(0)).unwrap().len(), 2);
            assert_eq!(s.get(Key(7)).unwrap().len(), 4);
        }
    }

    #[test]
    fn dense_out_of_range_not_contained() {
        let layout = Layout::Uniform(1);
        let s = ShardStore::dense(&layout, 10, 20);
        assert!(!s.contains(Key(5)));
        assert!(!s.contains(Key(25)));
    }

    #[test]
    #[should_panic(expected = "already-owned")]
    fn double_insert_panics_dense() {
        let layout = Layout::Uniform(1);
        let mut s = ShardStore::dense(&layout, 0, 4);
        s.insert(Key(0), &[1.0]);
        s.insert(Key(0), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "already-owned")]
    fn double_insert_panics_sparse() {
        let layout = Layout::Uniform(1);
        let mut s = ShardStore::sparse(&layout);
        s.insert(Key(0), &[1.0]);
        s.insert(Key(0), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_insert_panics() {
        let layout = Layout::Uniform(2);
        let mut s = ShardStore::sparse(&layout);
        s.insert(Key(0), &[1.0]);
    }
}
