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
//! [`Residency`] byte is the key's whole state on this node: nothing
//! (`Absent`), a relocation to this node under way (`Incoming`, its parked
//! work in the shard's private map, or `Promoting` at the home when the
//! hand-over finishes a promotion), the value this node **owns** (`Owned`;
//! `Demoting` at the home while a demotion drains; `Primary` at the home of
//! a key the others replicate), or the last refresh of a key this node
//! **replicates** (`Replica`, NuPS §2). Each legal move (DESIGN.md §4) is
//! one method; any other panics. One byte has one value, so a node never
//! holds a key twice, and a transition under way is a state, not a lookup.
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
//!
//! A replicated key's updates that have not reached its owner's values
//! live beside its slot too (NuPS §2), in flat buffers that keep their
//! capacity, and a per-key count of them tells a wait-free read whether
//! the key's replicated view is its slot alone.

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use lapse_net::{Key, NodeId};

use crate::layout::Layout;
use Residency::{Absent, Demoting, Incoming, Owned, Primary, Promoting, Replica};

/// Handle to the slot of a key just taken: readable ([`ShardStore::slot_slice`])
/// from the moment [`ShardStore::take`] returns it until it is passed to
/// [`ShardStore::release`]; no install may happen in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueSlot(usize);

/// A key's state on this node: what its slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Residency {
    /// Nothing: the key lives elsewhere and the slot is zero.
    Absent,
    /// Nothing yet: the key is relocating here, the slot is zero.
    Incoming,
    /// `Incoming` at the key's home, whose hand-over finishes a promotion.
    Promoting,
    /// The value itself: this node owns the key.
    Owned,
    /// `Owned` at the key's home, pinned until a demotion has drained.
    Demoting,
    /// The value of a key the other nodes replicate: its home owns it.
    Primary,
    /// The owner's last refresh: this node replicates the key.
    Replica,
}

impl Residency {
    /// Whether the slot holds a value: the key is here to be read.
    pub fn held(self) -> bool {
        matches!(self, Owned | Demoting | Primary | Replica)
    }

    /// Whether the key is managed by replication.
    pub fn replicated(self) -> bool {
        matches!(self, Primary | Replica)
    }

    fn owned(self) -> bool {
        matches!(self, Owned | Demoting | Primary)
    }
}

/// One shard's parameter store: a slot and a [`Residency`] for every key
/// it covers. `contains`/`get`/`add`/`take`/`len` speak of owned keys
/// (`Owned`, `Demoting` and `Primary`) only; a replica is read through
/// [`ShardStore::resident`].
#[derive(Debug)]
pub struct ShardStore {
    /// The keys this shard covers.
    keys: std::ops::Range<u64>,
    /// Key `keys.start + i` has floats `offsets[i]..offsets[i + 1]` of `slab`.
    /// Boxed, a word shorter than a `Vec`: a `Shard` stays two blocks.
    offsets: Box<[u32]>,
    /// Every slot, zero where the key holds no value. Never resized.
    slab: Vec<f32>,
    /// What each slot holds. Never resized.
    residency: Vec<Residency>,
    /// How many keys are `Primary` or `Replica`.
    replicated: usize,
    /// Per key, how many deltas it has; last, how many keys have a pending
    /// one. Read without the latch too. Empty on a shard that never replicates.
    held: Box<[AtomicU32]>,
    /// The deltas, from the shard's first one on.
    log: Option<Box<DeltaLog>>,
}

/// Floats `at..at + len` of the log's buffer, shipped `to` an owner with a
/// flush (`None` while pending).
#[derive(Debug)]
struct Delta {
    key: Key,
    at: usize,
    len: usize,
    to: Option<(NodeId, u64)>,
}

/// A shard's deltas, oldest first: shipped ones in flush order, then one
/// pending per key, ascending. A replica read must never go backwards, so
/// a delta stays until the refresh that acknowledges its flush
/// ([`ShardStore::retire`]); a key's view is its slot plus its deltas.
#[derive(Debug, Default)]
struct DeltaLog {
    deltas: Vec<Delta>,
    vals: Vec<f32>,
    /// What `vals` is compacted into when deltas go.
    spare: Vec<f32>,
}

impl DeltaLog {
    /// Removes the deltas `gone` picks, counting them off `held` (a
    /// shard's from key `start`) and handing each pending one's floats to
    /// `pending`. Returns how many shipped ones went.
    fn remove(
        &mut self,
        (held, start): (&[AtomicU32], u64),
        gone: impl Fn(&Delta) -> bool,
        mut pending: impl FnMut(&[f32]),
    ) -> u64 {
        let (deltas, vals, spare) = (&mut self.deltas, &mut self.vals, &mut self.spare);
        let mut shipped = 0;
        spare.clear();
        deltas.retain_mut(|d| {
            let floats = &vals[d.at..d.at + d.len];
            if !gone(d) {
                d.at = spare.len();
                spare.extend_from_slice(floats);
                return true;
            }
            count(held, (d.key.0 - start) as usize, -1, d.to.is_none());
            match d.to {
                Some(_) => shipped += 1,
                None => pending(floats),
            }
            false
        });
        if deltas.is_empty() {
            vals.clear();
        } else {
            std::mem::swap(vals, spare);
        }
        shipped
    }
}

/// Adds `by` to count `i`, and to the pending count if the delta is
/// `pending`: the latch holder's side of the racy counts.
fn count(held: &[AtomicU32], i: usize, by: i32, pending: bool) {
    let add = |n: &AtomicU32| n.store(n.load(Relaxed).wrapping_add_signed(by), Relaxed);
    add(&held[i]);
    if pending {
        add(&held[held.len() - 1]);
    }
}

/// Adds `delta` into `dst`, float by float.
fn add_into(dst: &mut [f32], delta: &[f32]) {
    for (d, &x) in dst.iter_mut().zip(delta) {
        *d += x;
    }
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
            offsets: offsets.into_boxed_slice(),
            slab: vec![0.0; acc as usize],
            residency: vec![Absent; n],
            replicated: 0,
            held: Box::default(),
            log: None,
        }
    }

    /// Makes room for the deltas of this shard's keys, before it is shared.
    pub(crate) fn hold_deltas(&mut self) {
        let n = self.residency.len() + 1;
        self.held = (0..n).map(|_| AtomicU32::new(0)).collect();
    }

    fn index(&self, key: Key) -> usize {
        debug_assert!(self.keys.contains(&key.0), "{key} outside its shard");
        (key.0 - self.keys.start) as usize
    }

    fn range(&self, idx: usize) -> std::ops::Range<usize> {
        self.offsets[idx] as usize..self.offsets[idx + 1] as usize
    }

    /// Moves `key` from one of the states `from` to `to` and returns its
    /// slot; any other move panics, naming it and the state it found.
    fn shift(&mut self, key: Key, from: &[Residency], to: Residency, what: &str) -> &mut [f32] {
        let idx = self.index(key);
        let held = self.residency[idx];
        assert!(from.contains(&held), "{what} of {key}, which is {held:?}");
        self.residency[idx] = to;
        if held.replicated() != to.replicated() {
            // The header every optimistic read loads: written only on a move.
            self.replicated += usize::from(to.replicated());
            self.replicated -= usize::from(held.replicated());
        }
        let range = self.range(idx);
        &mut self.slab[range]
    }

    /// The state of `key`.
    #[inline]
    pub fn residency(&self, key: Key) -> Residency {
        self.residency[self.index(key)]
    }

    /// Whether this shard currently owns `key`.
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        self.keys.contains(&key.0) && self.residency(key).owned()
    }

    /// Read access to an owned value.
    #[inline]
    pub fn get(&self, key: Key) -> Option<&[f32]> {
        self.slot_if(key, Residency::owned)
    }

    /// Read access to the value held here in any residency: the owned
    /// value, or the last refresh of a replicated key.
    #[inline]
    pub fn resident(&self, key: Key) -> Option<&[f32]> {
        self.slot_if(key, Residency::held)
    }

    #[inline]
    fn slot_if(&self, key: Key, pick: fn(Residency) -> bool) -> Option<&[f32]> {
        let idx = self.index(key);
        pick(self.residency[idx]).then(|| &self.slab[self.range(idx)])
    }

    /// Adds `delta` into the owned value (cumulative push). Returns false
    /// if the key is not owned.
    #[inline]
    pub fn add(&mut self, key: Key, delta: &[f32]) -> bool {
        let idx = self.index(key);
        if !self.residency[idx].owned() {
            return false;
        }
        let range = self.range(idx);
        let dst = &mut self.slab[range];
        assert_eq!(dst.len(), delta.len(), "push length mismatch for {key}");
        add_into(dst, delta);
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

    /// `Absent` → `Owned` (initial values, a store built by hand), filling
    /// the slot in place: `fill` receives the zeroed slice of the key's
    /// layout length. Panics if the key is outside the range or not absent.
    pub fn insert_with(&mut self, key: Key, fill: impl FnOnce(&mut [f32])) {
        fill(self.shift(key, &[Absent], Owned, "install"));
    }

    /// `Absent`/`Replica` → `Replica`: installs the owner's values of a key
    /// this node replicates; `fill` overwrites the slot (zero on the first
    /// install, the previous refresh after). Panics if the key is outside
    /// the shard's range, incoming or owned here.
    pub fn refresh_with(&mut self, key: Key, fill: impl FnOnce(&mut [f32])) {
        fill(self.shift(key, &[Absent, Replica], Replica, "replica refresh"));
    }

    /// `Replica` → `Absent` (a demotion): the slot is zeroed. Returns false
    /// if the key was not a replica.
    pub fn drop_replica(&mut self, key: Key) -> bool {
        let held = self.residency(key) == Replica;
        if held {
            self.shift(key, &[Replica], Absent, "drop").fill(0.0);
        }
        held
    }

    /// `Absent` → `Incoming`, for [`Shard::expect`](crate::shard::Shard::expect),
    /// which adds the key's parked-work entry. Panics unless the key is absent.
    pub(crate) fn mark_incoming(&mut self, key: Key) {
        self.shift(key, &[Absent], Incoming, "incoming entry");
    }

    /// `Absent`/`Incoming` → `Promoting`, for `Shard::expect_promotion`.
    pub(crate) fn mark_promoting(&mut self, key: Key) {
        self.shift(key, &[Absent, Incoming], Promoting, "promotion entry");
    }

    /// `Incoming`/`Promoting` → `Owned` (the hand-over) or `Incoming` →
    /// `Replica` (a promotion broadcast), filling the zeroed slot, for the
    /// [`Shard`](crate::shard::Shard) transitions that remove the key's entry.
    pub(crate) fn arrive_with(&mut self, key: Key, to: Residency, fill: impl FnOnce(&mut [f32])) {
        let from = match to {
            Owned => &[Incoming, Promoting][..],
            _ => &[Incoming],
        };
        fill(self.shift(key, from, to, "arrival"));
    }

    /// `Owned` → `Primary` (a promotion finishes at the key's home): the
    /// value to broadcast. Panics unless the key is owned.
    pub(crate) fn promote(&mut self, key: Key) -> &[f32] {
        self.shift(key, &[Owned], Primary, "promotion")
    }

    /// `Primary` → `Demoting` (a demotion starts at the key's home).
    pub(crate) fn demote(&mut self, key: Key) {
        self.shift(key, &[Primary], Demoting, "demotion");
    }

    /// `Demoting` → `Owned` (the demotion has drained).
    pub(crate) fn unpin(&mut self, key: Key) {
        self.shift(key, &[Demoting], Owned, "unpin");
    }

    /// `Owned` → `Absent` (a hand-over): the key's slot, readable until
    /// released, or `None` if the key is not owned. Panics if it is
    /// `Primary` or `Demoting`: a home never relocates a replicated key,
    /// nor one whose demotion drains.
    pub fn take(&mut self, key: Key) -> Option<ValueSlot> {
        if !self.residency(key).owned() {
            return None;
        }
        self.shift(key, &[Owned], Absent, "take");
        Some(ValueSlot(self.index(key)))
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
        self.residency.iter().filter(|r| r.owned()).count()
    }

    /// Whether no key is owned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether some key is in one of `states` (a diagnostic walk of the bytes).
    pub fn any(&self, states: &[Residency]) -> bool {
        self.residency.iter().any(|r| states.contains(r))
    }

    /// The `Primary` and `Replica` keys of this shard with their state,
    /// ascending. A shard that holds none returns without reading a byte.
    pub fn replicated_keys(&self) -> impl Iterator<Item = (Key, Residency)> + '_ {
        let bytes = (self.replicated > 0).then_some(&self.residency[..]);
        (self.keys.clone().zip(bytes.unwrap_or_default()))
            .filter(|(_, r)| r.replicated())
            .map(|(k, &r)| (Key(k), r))
    }

    /// Whether deltas of `key` are held here, pending or shipped. Also read
    /// without the latch, where the caller's sequence check decides.
    #[inline]
    pub(crate) fn has_deltas(&self, key: Key) -> bool {
        let held = self.held.get(self.index(key));
        held.is_some_and(|n| n.load(Relaxed) > 0)
    }

    /// How many keys have a pending delta (racy like `has_deltas`).
    #[inline]
    pub(crate) fn pending(&self) -> usize {
        self.held.last().map_or(0, |n| n.load(Relaxed) as usize)
    }

    /// Whether no delta is held at all (a diagnostic).
    pub fn deltas_settled(&self) -> bool {
        self.held.iter().all(|n| n.load(Relaxed) == 0)
    }

    /// Reads a held key's replicated view into `out`: its slot — the owned
    /// value or the last refresh — plus its deltas, if it is replicated.
    /// Panics if the slot holds nothing.
    pub(crate) fn read_replicated(&self, key: Key, out: &mut [f32]) {
        out.copy_from_slice(self.resident(key).expect("a read key is held"));
        if let Some(log) = self.log.as_deref().filter(|_| self.has_deltas(key)) {
            for d in log.deltas.iter().filter(|d| d.key == key) {
                add_into(out, &log.vals[d.at..d.at + d.len]);
            }
        }
    }

    /// Adds a push's update terms to `key`'s pending delta: the first push
    /// since the last flush is copied, later ones are added.
    pub(crate) fn accumulate(&mut self, key: Key, delta: &[f32]) {
        let idx = self.index(key);
        let log = self.log.get_or_insert_with(Box::default);
        let first = log.deltas.partition_point(|d| d.to.is_some());
        match log.deltas[first..].binary_search_by_key(&key, |d| d.key) {
            Ok(i) => {
                let d = &log.deltas[first + i];
                add_into(&mut log.vals[d.at..d.at + d.len], delta);
            }
            Err(i) => {
                let (at, len, to) = (log.vals.len(), delta.len(), None);
                log.deltas.insert(first + i, Delta { key, at, len, to });
                log.vals.extend_from_slice(delta);
                count(&self.held, idx, 1, true);
            }
        }
    }

    /// Ships the pending deltas, ascending by key: `ship` sends each and
    /// names its owner. They stay until [`ShardStore::retire`] of `seq`.
    pub(crate) fn flush_deltas(&mut self, seq: u64, mut ship: impl FnMut(Key, &[f32]) -> NodeId) {
        if let Some(log) = self.log.as_deref_mut() {
            for d in log.deltas.iter_mut().filter(|d| d.to.is_none()) {
                d.to = Some((ship(d.key, &log.vals[d.at..d.at + d.len]), seq));
            }
            self.held[self.residency.len()].store(0, Relaxed);
        }
    }

    /// Retires the deltas of `owner`'s flush `seq`, which its values now
    /// include (exactly that flush: concurrent workers' flushes overtake
    /// each other on the wire).
    pub(crate) fn retire(&mut self, owner: NodeId, seq: u64) {
        if let Some(log) = self.log.as_deref_mut() {
            let gone = |d: &Delta| d.to == Some((owner, seq));
            log.remove((&self.held, self.keys.start), gone, |_| {});
        }
    }

    /// `key` leaves replication: its deltas go, `f` getting its slot and its
    /// pending one. Returns how many were shipped: those are on the wire to
    /// the home, which owns the key and applies them whatever its state.
    pub(crate) fn drop_deltas(&mut self, key: Key, mut f: impl FnMut(&mut [f32], &[f32])) -> u64 {
        let range = self.range(self.index(key));
        let (slot, held) = (&mut self.slab[range], (&self.held[..], self.keys.start));
        let gone = |d: &Delta| d.key == key;
        let log = self.log.as_deref_mut();
        log.map_or(0, |log| log.remove(held, gone, |vals| f(slot, vals)))
    }

    /// Unsynchronized (seqlock-optimistic) read of `key`'s state (`Absent`
    /// for a key outside the range), without the shard latch — all that a
    /// `localize` of an already-local key needs. A concurrent writer can
    /// make it stale, which the caller's sequence check rejects.
    #[inline]
    pub(crate) fn residency_racy(&self, key: Key) -> Residency {
        if !self.keys.contains(&key.0) {
            return Absent;
        }
        let idx = self.index(key);
        // SAFETY: `idx < residency.len()` by the range check (one byte
        // per key of `keys`), and the Vec is never resized after `dense`,
        // so the pointer cannot dangle. The byte races only with the
        // transitions above, which store one of the seven variants: every
        // bit pattern a racing read can see is a valid `Residency`.
        // Volatile, so that the stale states the seqlock protocol
        // tolerates are not compiled away.
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
    /// `out`, without the shard latch: reports the key's state and, if the
    /// slot holds a value, copies it. `keys` and `offsets` are
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
        if held.held() {
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
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn store(len: u32, keys: u64) -> ShardStore {
        ShardStore::dense(&Layout::Uniform(len), 0, keys)
    }

    const ALL: [Residency; 7] = [
        Absent, Incoming, Promoting, Owned, Demoting, Primary, Replica,
    ];
    const K: Key = Key(1);

    /// A move's name, the states it leaves without a panic, and the move.
    type Move = (&'static str, &'static [Residency], fn(&mut ShardStore));

    /// A two-float store of four keys with key 1 in `state`, its slot (if
    /// it holds one) `[1, 2]`.
    fn store_in(state: Residency) -> ShardStore {
        let (mut s, k) = (store(2, 4), Key(1));
        match state {
            Absent => {}
            Incoming => s.mark_incoming(k),
            Promoting => s.mark_promoting(k),
            Owned | Demoting | Primary => s.insert(k, &[1.0, 2.0]),
            Replica => s.refresh_with(k, |dst| dst.copy_from_slice(&[1.0, 2.0])),
        }
        if let Demoting | Primary = state {
            s.promote(k);
        }
        if state == Demoting {
            s.demote(k);
        }
        s
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

    /// Every move of DESIGN.md §4's table, and the value each leaves.
    #[test]
    fn every_legal_transition_and_its_value() {
        let (mut s, k) = (store(2, 4), Key(2));
        // Absent → Owned → Absent: initial value, hand-over out.
        assert_eq!(racy(&s, k), (Absent, [0.0, 0.0]));
        s.insert(k, &[1.0, 2.0]);
        assert_eq!(racy(&s, k), (Owned, [1.0, 2.0]));
        assert_eq!(take_vec(&mut s, k).unwrap(), vec![1.0, 2.0]);
        // Absent → Incoming → Promoting → Owned: the hand-over in fills a
        // zero slot, whether or not it finishes a promotion.
        s.mark_incoming(k);
        assert_eq!(racy(&s, k), (Incoming, [0.0, 0.0]));
        s.mark_promoting(k);
        assert_eq!(racy(&s, k), (Promoting, [0.0, 0.0]));
        s.arrive_with(k, Owned, |dst| dst[0] += 5.0);
        // Owned → Primary → Demoting → Owned: a promotion and a demotion
        // at the home keep the value, which serves while it drains.
        assert_eq!(s.promote(k), &[5.0, 0.0]);
        assert_eq!(racy(&s, k), (Primary, [5.0, 0.0]));
        s.demote(k);
        assert!(s.add(k, &[1.0, 0.0]) && s.contains(k));
        assert_eq!(racy(&s, k), (Demoting, [6.0, 0.0]));
        s.unpin(k);
        assert_eq!(take_vec(&mut s, k).unwrap(), vec![6.0, 0.0]);
        // Absent → Promoting → Owned: the home chases a key it promotes.
        s.mark_promoting(k);
        s.arrive_with(k, Owned, |dst| dst[1] = 4.0);
        assert_eq!(take_vec(&mut s, k).unwrap(), vec![0.0, 4.0]);
        // Absent → Replica → Replica → Absent: the first fill sees a
        // zero slot, the second the previous refresh.
        s.refresh_with(k, |dst| dst[0] += 3.0);
        assert_eq!(racy(&s, k), (Replica, [3.0, 0.0]));
        s.refresh_with(k, |dst| dst[1] += 1.0);
        assert_eq!(s.resident(k).unwrap(), &[3.0, 1.0]);
        assert!(s.drop_replica(k));
        assert_eq!((racy(&s, k), s.resident(k)), ((Absent, [0.0, 0.0]), None));
        assert!(!s.drop_replica(k), "nothing left to drop");
        // Absent → Incoming → Replica: a promotion broadcast ends the
        // relocation; demoted, then relocated here, the slot is zero again.
        s.mark_incoming(k);
        s.arrive_with(k, Replica, |dst| dst.fill(9.0));
        assert_eq!(racy(&s, k), (Replica, [9.0, 9.0]));
        assert!(s.drop_replica(k));
        s.insert_with(k, |dst| dst[0] = 1.0);
        assert_eq!(s.get(k).unwrap(), &[1.0, 0.0]);
        assert_eq!(s.resident(k), s.get(k));
    }

    /// Every move the table does not list panics, naming the move, the key
    /// and the state it found.
    #[test]
    fn every_illegal_transition_panics_by_name() {
        // Each move with the states it leaves without a panic.
        #[rustfmt::skip]
        let moves: [Move; 10] = [
            ("install", &[Absent], |s| s.insert(K, &[0.0; 2])),
            ("replica refresh", &[Absent, Replica], |s| s.refresh_with(K, |_| {})),
            ("take", &[Absent, Incoming, Promoting, Owned, Replica], |s| _ = s.take(K)),
            ("incoming entry", &[Absent], |s| s.mark_incoming(K)),
            ("promotion entry", &[Absent, Incoming], |s| s.mark_promoting(K)),
            ("arrival", &[Incoming, Promoting], |s| s.arrive_with(K, Owned, |_| {})),
            ("arrival", &[Incoming], |s| s.arrive_with(K, Replica, |_| {})),
            ("promotion", &[Owned], |s| _ = s.promote(K)),
            ("demotion", &[Primary], |s| s.demote(K)),
            ("unpin", &[Demoting], |s| s.unpin(K)),
        ];
        for (what, legal, apply) in moves {
            for state in ALL.into_iter().filter(|r| !legal.contains(r)) {
                let mut s = store_in(state);
                let caught = catch_unwind(AssertUnwindSafe(|| apply(&mut s)));
                let msg = *caught.expect_err(what).downcast::<String>().unwrap();
                assert_eq!(msg, format!("{what} of k1, which is {state:?}"));
            }
        }
    }

    /// The owned accessors count `Owned` and `Primary`; `resident` is every
    /// held value and never an incoming key's zeros.
    #[test]
    fn owned_accessors_ignore_replicas() {
        let mut s = store(2, 4);
        s.insert(Key(0), &[1.0, 1.0]);
        s.refresh_with(Key(1), |dst| dst.fill(5.0));
        s.insert(Key(2), &[2.0, 2.0]);
        s.promote(Key(2));
        s.mark_incoming(Key(3));
        assert_eq!((s.len(), s.is_empty()), (2, false));
        assert!(s.contains(Key(2)) && !s.contains(Key(1)) && !s.contains(Key(3)));
        assert!(s.get(Key(1)).is_none() && s.get(Key(3)).is_none());
        assert!(s.add(Key(2), &[1.0, 1.0]));
        assert!(!s.add(Key(1), &[1.0, 1.0]) && !s.add(Key(3), &[1.0, 1.0]));
        assert!(s.take(Key(1)).is_none() && s.take(Key(3)).is_none());
        assert!(!s.drop_replica(Key(0)), "an owned key is not a replica");
        assert_eq!(s.get(Key(2)), s.resident(Key(2)));
        assert_eq!(s.resident(Key(2)).unwrap(), &[3.0, 3.0]);
        assert!(s.resident(Key(3)).is_none());
        // None of which touched the replica; both replicated keys count.
        assert_eq!(racy(&s, Key(1)), (Replica, [5.0, 5.0]));
        let replicated: Vec<_> = s.replicated_keys().collect();
        assert_eq!(replicated, [(Key(1), Replica), (Key(2), Primary)]);
        assert!(s.drop_replica(Key(1)));
        s.demote(Key(2));
        assert_eq!(s.replicated_keys().count(), 0);
    }

    /// The racy read reports each of the seven states, and copies the slot
    /// only where it holds a value.
    #[test]
    fn read_racy_names_each_state() {
        for state in ALL {
            let mut out = [-1.0; 2];
            assert_eq!(store_in(state).read_racy(Key(1), &mut out), state);
            let want = if state.held() { [1.0, 2.0] } else { [-1.0; 2] };
            assert_eq!(out, want, "{state:?}");
        }
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
            let caught = catch_unwind(AssertUnwindSafe(|| {
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
