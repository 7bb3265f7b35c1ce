//! The per-shard parameter store: one slot per key.
//!
//! A shard's store preallocates one contiguous `f32` slab with a fixed
//! slot for **every key of the shard's range**, and every node has a
//! shard for every range — the paper's dense store (Section 3.7): O(1)
//! access, nothing allocated when a key arrives or leaves, and memory
//! that never moves, so the seqlock read path (`ShardStore::read_racy`)
//! can copy a value without the latch. The paper's sparse flavour is not
//! built: nothing selected it, and this one already spans the key space.
//!
//! The slot is the only place a key's local value is kept, and a per-key
//! [`Residency`] byte says what it holds: nothing (`Absent`, the slot is
//! zero), the value this node **owns** (`Owned` — ownership moves between
//! nodes as parameters relocate), or the last refresh of a key owned
//! elsewhere that this node **replicates** (`Replica`, NuPS §2). One byte
//! has one value, so a node never holds a key twice.
//!
//! Without the latch a value leaves its slot through one loop,
//! `copy_racy`: volatile loads of the widest unit the target has without
//! runtime detection (16 bytes on x86_64, 8 elsewhere), counted off the
//! caller's buffer — whose length `read_racy` has asserted, hard, to be the
//! slot's — so the last chunk ends inside the slot, and a float-wise tail
//! for the rest. What a racing writer does to such a copy is the seqlock's
//! to reject (DESIGN.md §7).
//!
//! Values never travel as owned `Vec<f32>`: reads hand out borrows,
//! installs fill the slot in place from the message block, and a hand-over
//! *takes* the slot, copies it into the outgoing block and releases it.

use lapse_net::Key;

use crate::layout::Layout;
use Residency::{Absent, Owned, Replica};

/// Handle to the slot of a key just taken: readable ([`ShardStore::slot_slice`])
/// from the moment [`ShardStore::take`] returns it until it is passed to
/// [`ShardStore::release`]; no install may happen in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueSlot(usize);

/// What a key's slot holds on this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Residency {
    /// Nothing: the key lives elsewhere and the slot is zero.
    Absent,
    /// The value itself: this node owns the key.
    Owned,
    /// The owner's last refresh: this node replicates the key.
    Replica,
}

/// One shard's parameter store: a slot and a [`Residency`] for every key
/// it covers. `contains`/`get`/`add`/`take`/`len` speak of owned
/// keys only; a replica is read through [`ShardStore::resident`].
#[derive(Debug)]
pub struct ShardStore {
    /// The keys this shard covers.
    keys: std::ops::Range<u64>,
    /// Key `keys.start + i` has floats `offsets[i]..offsets[i + 1]` of `slab`.
    offsets: Vec<u32>,
    /// Every slot, zero where the key is absent. Never resized.
    slab: Vec<f32>,
    /// What each slot holds. Never resized.
    residency: Vec<Residency>,
}

impl ShardStore {
    /// Creates the store covering keys `[start, end)`, every key absent.
    /// Panics if the slab would pass 2³² floats, the reach of a `u32`
    /// slot offset ([`ProtoConfig::validate`](crate::ProtoConfig::validate)
    /// reports that as a typed error before any store is built).
    pub fn dense(layout: &Layout, start: u64, end: u64) -> Self {
        assert!(start <= end);
        let n = (end - start) as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for k in start..end {
            acc += layout.len(Key(k)) as u64;
            offsets.push(u32::try_from(acc).expect("shard slab exceeds 2^32 floats"));
        }
        ShardStore {
            keys: start..end,
            offsets,
            slab: vec![0.0; acc as usize],
            residency: vec![Absent; n],
        }
    }

    fn index(&self, key: Key) -> usize {
        debug_assert!(self.keys.contains(&key.0), "{key} outside its shard");
        (key.0 - self.keys.start) as usize
    }

    fn range(&self, idx: usize) -> std::ops::Range<usize> {
        self.offsets[idx] as usize..self.offsets[idx + 1] as usize
    }

    /// Whether this shard currently owns `key`.
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        self.keys.contains(&key.0) && self.residency[self.index(key)] == Owned
    }

    /// Read access to an owned value.
    #[inline]
    pub fn get(&self, key: Key) -> Option<&[f32]> {
        let idx = self.index(key);
        (self.residency[idx] == Owned).then(|| &self.slab[self.range(idx)])
    }

    /// Read access to the value held here in either residency: the owned
    /// value, or the last refresh of a replicated key.
    #[inline]
    pub fn resident(&self, key: Key) -> Option<&[f32]> {
        let idx = self.index(key);
        (self.residency[idx] != Absent).then(|| &self.slab[self.range(idx)])
    }

    /// Adds `delta` into the owned value (cumulative push). Returns false
    /// if the key is not owned.
    #[inline]
    pub fn add(&mut self, key: Key, delta: &[f32]) -> bool {
        let idx = self.index(key);
        if self.residency[idx] != Owned {
            return false;
        }
        let range = self.range(idx);
        let dst = &mut self.slab[range];
        assert_eq!(dst.len(), delta.len(), "push length mismatch for {key}");
        for (d, &x) in dst.iter_mut().zip(delta) {
            *d += x;
        }
        true
    }

    /// Inserts an owned value (takes ownership of the key). Panics like
    /// [`ShardStore::insert_with`], and if the value length does not
    /// match the layout.
    pub fn insert(&mut self, key: Key, vals: &[f32]) {
        let expected = self.range(self.index(key)).len();
        assert_eq!(vals.len(), expected, "insert length mismatch for {key}");
        self.insert_with(key, |dst| dst.copy_from_slice(vals));
    }

    /// Takes ownership of an absent key by filling its slot in place:
    /// `fill` receives the zeroed slice of the key's layout length. This
    /// is how a hand-over installs, straight from the message block.
    /// Panics if the key is outside the shard's range or not absent.
    pub fn insert_with(&mut self, key: Key, fill: impl FnOnce(&mut [f32])) {
        let idx = self.index(key);
        let held = self.residency[idx];
        assert!(held == Absent, "insert of already-owned/replicated {key}");
        let range = self.range(idx);
        fill(&mut self.slab[range]);
        self.residency[idx] = Owned;
    }

    /// Installs the owner's values of a key this node replicates: `fill`
    /// overwrites the slot (zero on the first refresh, the previous
    /// refresh after). Written by refreshes and promotion installs.
    /// Panics if the key is outside the shard's range or owned here.
    pub fn refresh_with(&mut self, key: Key, fill: impl FnOnce(&mut [f32])) {
        let idx = self.index(key);
        let held = self.residency[idx];
        assert!(held != Owned, "replica refresh of owned {key}");
        let range = self.range(idx);
        fill(&mut self.slab[range]);
        self.residency[idx] = Replica;
    }

    /// Stops replicating `key` (a demotion): the slot is zeroed and the
    /// key absent again. Returns false if the key was not a replica.
    pub fn drop_replica(&mut self, key: Key) -> bool {
        let idx = self.index(key);
        if self.residency[idx] != Replica {
            return false;
        }
        self.residency[idx] = Absent;
        self.release(ValueSlot(idx));
        true
    }

    /// Stops owning `key` (a hand-over): its slot, readable until released.
    pub fn take(&mut self, key: Key) -> Option<ValueSlot> {
        let idx = self.index(key);
        if self.residency[idx] != Owned {
            return None;
        }
        self.residency[idx] = Absent;
        Some(ValueSlot(idx))
    }

    /// Reads a slot returned by [`ShardStore::take`].
    #[inline]
    pub fn slot_slice(&self, slot: ValueSlot) -> &[f32] {
        &self.slab[self.range(slot.0)]
    }

    /// Zeroes a taken slot: stale data must not leak through a partial fill.
    pub fn release(&mut self, slot: ValueSlot) {
        let range = self.range(slot.0);
        self.slab[range].fill(0.0);
    }

    /// Number of owned keys (counted: a diagnostic, not an operation).
    pub fn len(&self) -> usize {
        self.residency.iter().filter(|&&r| r == Owned).count()
    }

    /// Whether no key is owned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unsynchronized (seqlock-optimistic) read of what `key`'s slot holds
    /// (nothing, for a key outside the range), without the shard latch —
    /// all that a `localize` of an already-local key needs. A concurrent
    /// writer can make it stale, which the caller's sequence check rejects.
    #[inline]
    pub(crate) fn residency_racy(&self, key: Key) -> Residency {
        if !self.keys.contains(&key.0) {
            return Absent;
        }
        let idx = self.index(key);
        // SAFETY: `idx < residency.len()` by the range check (one byte
        // per key of `keys`), and the Vec is never resized after `dense`,
        // so the pointer cannot dangle. The byte races only with the
        // installs and removals above, which store one of the three
        // variants: every bit pattern a racing read can see is a valid
        // `Residency`. Volatile, so that the stale states the seqlock
        // protocol tolerates are not compiled away.
        unsafe { std::ptr::read_volatile(self.residency.as_ptr().add(idx)) }
    }

    /// Panics unless `out` has exactly the length of `key`'s value. Every
    /// read that copies a value into a caller's buffer checks here first,
    /// latched or not, so a wrong buffer is refused before it is touched.
    #[inline]
    pub(crate) fn check_len(&self, key: Key, out: &[f32]) {
        let want = self.range(self.index(key)).len();
        assert!(
            out.len() == want,
            "read of {key} into a buffer of {} floats: its value has {want}",
            out.len()
        );
    }

    /// Unsynchronized (seqlock-optimistic) read of `key`'s value into
    /// `out`, without the shard latch: reports what the slot held and,
    /// unless that is `Absent`, copies it. `keys` and `offsets` are
    /// immutable after construction and neither `residency` nor `slab`
    /// ever reallocates, so a concurrent writer can tear the floats (the
    /// caller's sequence check rejects that) but never dangle a pointer.
    /// Panics like [`ShardStore::check_len`], before the first load.
    pub(crate) fn read_racy(&self, key: Key, out: &mut [f32]) -> Residency {
        if !self.keys.contains(&key.0) {
            return Absent;
        }
        self.check_len(key, out);
        let held = self.residency_racy(key);
        if held != Absent {
            let start = self.range(self.index(key)).start;
            // SAFETY: `out.len()` is the slot's length (`check_len`, a
            // hard assert) and `copy_racy` counts its chunks off `out`,
            // so its last chunk, or the last float of its tail, ends at
            // float `start + out.len()` of the slab: the slot's end and,
            // for the shard's last key, the slab's, never past it. The
            // slab's backing memory never moves.
            unsafe { copy_racy(self.slab.as_ptr().add(start), out) };
        }
        held
    }
}

/// The unit [`copy_racy`] loads at a time: the widest the target has
/// without runtime detection (SSE2 is baseline on x86_64).
#[cfg(target_arch = "x86_64")]
type Chunk = std::arch::x86_64::__m128;
#[cfg(not(target_arch = "x86_64"))]
type Chunk = u64;

/// A [`Chunk`] at the alignment a slot has: that of an `f32`.
#[repr(C, packed(4))]
struct Unaligned(Chunk);

/// Floats per [`Chunk`].
const LANES: usize = std::mem::size_of::<Chunk>() / std::mem::size_of::<f32>();

/// The only way a value leaves a slot without the latch: copies
/// `out.len()` floats from `src`, one volatile [`Chunk`] load per
/// [`LANES`] floats and one volatile `f32` load for each of the
/// `out.len() % LANES` floats left. Chunks are counted off `out`, so the
/// last one ends at or before `src + out.len()`: nothing is read that a
/// float-by-float loop would not read.
///
/// A chunk may be wider than the writer's stores. That is the seqlock's
/// business, not this loop's: a copy torn inside a chunk or between two
/// is rejected by the same sequence check, and every bit pattern is a
/// valid `f32`. Volatile, so that the loads the protocol tolerates being
/// stale are neither merged with others nor compiled away (a volatile
/// `[f32; 4]` would be four scalar loads: hence the vector type).
///
/// # Safety
/// `src` must be `f32`-aligned and valid for reads of `out.len()` floats
/// in memory that is not freed or moved during the call; the floats
/// themselves may be written concurrently.
#[inline]
unsafe fn copy_racy(src: *const f32, out: &mut [f32]) {
    // Index loops, not `chunks_exact_mut`: that form compiles to an
    // eight-chunk body behind a remainder loop, in which the four chunks
    // of a 16-float value spend their whole copy (EXPERIMENTS.md, PR 24).
    let mut i = 0;
    while i + LANES <= out.len() {
        let chunk = std::ptr::read_volatile(src.add(i).cast::<Unaligned>());
        out[i..i + LANES].copy_from_slice(&std::mem::transmute::<Unaligned, [f32; LANES]>(chunk));
        i += LANES;
    }
    while i < out.len() {
        out[i] = std::ptr::read_volatile(src.add(i));
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(len: u32, keys: u64) -> ShardStore {
        ShardStore::dense(&Layout::Uniform(len), 0, keys)
    }

    /// The hand-over access pattern: take, read, release.
    fn take_vec(s: &mut ShardStore, key: Key) -> Option<Vec<f32>> {
        let slot = s.take(key)?;
        let out = s.slot_slice(slot).to_vec();
        s.release(slot);
        Some(out)
    }

    /// What a validated optimistic read would report.
    fn racy(s: &ShardStore, key: Key) -> (Residency, [f32; 2]) {
        let mut out = [0.0; 2];
        (s.read_racy(key, &mut out), out)
    }

    #[test]
    fn insert_get_add_take() {
        let mut s = store(2, 10);
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

    #[test]
    fn taken_slot_readable_until_release() {
        let mut s = store(2, 4);
        s.insert(Key(1), &[7.0, 8.0]);
        let slot = s.take(Key(1)).unwrap();
        assert!(!s.contains(Key(1)), "taken key no longer owned");
        assert_eq!(s.slot_slice(slot), &[7.0, 8.0]);
        s.release(slot);
    }

    #[test]
    fn released_slots_zeroed_before_reuse() {
        let mut s = store(2, 4);
        s.insert(Key(1), &[7.0, 8.0]);
        let slot = s.take(Key(1)).unwrap();
        s.release(slot);
        // A partial fill must observe zeroed memory, not stale data.
        s.insert_with(Key(1), |dst| dst[0] = 1.0);
        assert_eq!(s.get(Key(1)).unwrap(), &[1.0, 0.0]);
    }

    #[test]
    fn every_legal_transition_and_its_value() {
        let mut s = store(2, 4);
        let k = Key(2);
        // Absent → Owned → Absent.
        assert_eq!(racy(&s, k), (Absent, [0.0, 0.0]));
        s.insert(k, &[1.0, 2.0]);
        assert_eq!(racy(&s, k), (Owned, [1.0, 2.0]));
        assert_eq!(take_vec(&mut s, k).unwrap(), vec![1.0, 2.0]);
        assert_eq!(racy(&s, k), (Absent, [0.0, 0.0]));
        // Absent → Replica → Replica → Absent: the first fill sees a
        // zero slot, the second the previous refresh.
        s.refresh_with(k, |dst| dst[0] += 3.0);
        assert_eq!(racy(&s, k), (Replica, [3.0, 0.0]));
        s.refresh_with(k, |dst| dst[1] += 1.0);
        assert_eq!(s.resident(k).unwrap(), &[3.0, 1.0]);
        assert!(s.drop_replica(k));
        assert_eq!((racy(&s, k), s.resident(k)), ((Absent, [0.0, 0.0]), None));
        assert!(!s.drop_replica(k), "nothing left to drop");
        // Promoted, demoted, then relocated here: the slot comes back zero.
        s.refresh_with(k, |dst| dst.fill(9.0));
        assert!(s.drop_replica(k));
        s.insert_with(k, |dst| dst[0] = 1.0);
        assert_eq!(s.get(k).unwrap(), &[1.0, 0.0]);
        assert_eq!(s.resident(k), s.get(k));
    }

    #[test]
    fn owned_accessors_ignore_replicas() {
        let mut s = store(2, 4);
        s.insert(Key(0), &[1.0, 1.0]);
        s.refresh_with(Key(1), |dst| dst.fill(5.0));
        assert_eq!(s.len(), 1);
        assert!(!s.contains(Key(1)));
        assert!(s.get(Key(1)).is_none());
        assert!(!s.add(Key(1), &[1.0, 1.0]));
        assert!(s.take(Key(1)).is_none());
        assert!(!s.drop_replica(Key(0)), "an owned key is not a replica");
        // None of which touched the replica or the count.
        assert_eq!(racy(&s, Key(1)), (Replica, [5.0, 5.0]));
        assert_eq!((s.len(), s.is_empty()), (1, false));
    }

    #[test]
    fn two_tier_layout_lengths() {
        let layout = Layout::TwoTier {
            split: 5,
            first: 2,
            rest: 4,
        };
        let mut s = ShardStore::dense(&layout, 0, 10);
        s.insert(Key(0), &[1.0, 2.0]);
        s.insert(Key(7), &[1.0, 2.0, 3.0, 4.0]);
        s.refresh_with(Key(4), |dst| assert_eq!(dst.len(), 2));
        s.refresh_with(Key(5), |dst| dst.copy_from_slice(&[5.0; 4]));
        assert_eq!(s.get(Key(0)).unwrap().len(), 2);
        assert_eq!(s.get(Key(7)).unwrap().len(), 4);
        assert_eq!(s.resident(Key(5)).unwrap(), &[5.0; 4]);
        assert_eq!(s.resident(Key(4)).unwrap(), &[0.0; 2]);
        assert_eq!(s.slab.len(), 5 * 2 + 5 * 4);
    }

    /// The kernel at every chunk count, tail length and slot alignment:
    /// `off` one-float keys in front put the slots of the next two keys
    /// at float offsets `off` and `off + len`, the second one ending the
    /// slab.
    #[test]
    fn racy_read_equals_get_at_every_length_and_slot_offset() {
        for (off, len) in (0..4u64).flat_map(|off| (0..=33u32).map(move |len| (off, len))) {
            let layout = Layout::TwoTier {
                split: off,
                first: 1,
                rest: len,
            };
            let mut s = ShardStore::dense(&layout, 0, off + 2);
            for k in 0..off + 2 {
                s.insert_with(Key(k), |dst| {
                    for (i, d) in dst.iter_mut().enumerate() {
                        *d = (100 * k + i as u64) as f32 + 0.5;
                    }
                });
            }
            for k in [Key(off), Key(off + 1)] {
                let mut out = vec![f32::NAN; len as usize];
                assert_eq!(s.read_racy(k, &mut out), Owned);
                assert_eq!(out, s.get(k).unwrap(), "{k}: len {len} at offset {off}");
            }
        }
    }

    /// Longer or shorter, owned or absent: refused before anything is
    /// read, so nothing past the slot is loaded and `out` stays as it was.
    #[test]
    fn racy_read_refuses_a_wrong_length_buffer_untouched() {
        let mut s = store(3, 4);
        s.insert(Key(3), &[1.0, 2.0, 3.0]);
        for (k, len) in [(Key(3), 4), (Key(3), 2), (Key(0), 0)] {
            let mut out = vec![9.0f32; len];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.read_racy(k, &mut out);
            }));
            let msg = *caught.unwrap_err().downcast::<String>().unwrap();
            let want = format!("read of {k} into a buffer of {len} floats: its value has 3");
            assert_eq!(msg, want);
            assert_eq!(out, vec![9.0; len]);
        }
    }

    #[test]
    fn dense_out_of_range_not_contained() {
        let s = ShardStore::dense(&Layout::Uniform(1), 10, 20);
        assert!(!s.contains(Key(5)));
        assert!(!s.contains(Key(25)));
        assert_eq!(s.residency_racy(Key(25)), Absent);
    }

    #[test]
    #[should_panic(expected = "already-owned")]
    fn double_insert_panics_dense() {
        let mut s = store(1, 4);
        s.insert(Key(0), &[1.0]);
        s.insert(Key(0), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "already-owned/replicated k1")]
    fn insert_over_a_replica_panics() {
        let mut s = store(1, 4);
        s.refresh_with(Key(1), |dst| dst[0] = 1.0);
        s.insert_with(Key(1), |dst| dst[0] = 2.0);
    }

    #[test]
    #[should_panic(expected = "replica refresh of owned")]
    fn refresh_over_an_owned_key_panics() {
        let mut s = store(1, 4);
        s.insert(Key(1), &[1.0]);
        s.refresh_with(Key(1), |dst| dst[0] = 2.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_insert_panics() {
        store(2, 4).insert(Key(0), &[1.0]);
    }

    /// Two keys of 2³² − 1 floats: refused while laying out offsets, before any slab exists.
    #[test]
    #[should_panic(expected = "exceeds 2^32 floats")]
    fn a_slab_past_u32_offsets_is_refused() {
        store(u32::MAX, 2);
    }
}
