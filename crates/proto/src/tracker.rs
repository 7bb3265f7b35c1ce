//! Client-side operation tracking.
//!
//! Every pull/push/localize that cannot be served entirely through the
//! fast local path registers an operation here. Responses and hand-overs
//! complete its keys — a message's worth under one lock; when the last
//! key completes, the tracker fires a wake callback so the issuing worker
//! (blocked in a sync call, or in `wait` on an async handle) can resume.
//! The mechanism is backend-agnostic: the threaded runtime wakes a
//! condvar, the simulator marks a virtual task runnable.
//!
//! The tracker also measures **relocation times** (the paper's definition,
//! Section 3.2: from issuing `localize` until the new owner starts
//! answering operations locally, i.e. until the hand-over completed).
//!
//! **Lock order: shard latch → tracker shard**, the adaptive sketch a
//! leaf (DESIGN.md §6). The ordered-async guard's counts are atomics
//! ([`GuardMap`]) and take no lock.

use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use lapse_net::{Key, ValueBlock};
use lapse_utils::stats::LogHistogram;

use crate::keymap::{Entry, KeyMap};

/// What kind of operation an entry tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackedKind {
    /// A pull; completions carry values.
    Pull,
    /// A push; completions are bare acknowledgements.
    Push,
    /// A localize; completions are hand-over arrivals.
    Localize,
}

/// One worker's in-flight remotely-routed operations per key, for the
/// ordered-async guard, plus the number of keys whose count is not zero:
/// an atomic count per key of the key space (4 bytes per key per worker)
/// and no lock. The issuing worker counts keys in, whichever thread
/// completes them counts them out; the `client` module doc argues why the
/// worker may read the counts so.
#[derive(Debug, Clone)]
pub struct GuardMap(Arc<Guards>);

#[derive(Debug)]
struct Guards {
    /// Keys whose count is not zero.
    keys: AtomicUsize,
    /// In-flight remote operations per key, indexed by key.
    counts: Box<[AtomicU32]>,
}

impl GuardMap {
    /// A map of zero counts for a key space of `keys` keys.
    pub fn new(keys: u64) -> Self {
        GuardMap(Arc::new(Guards {
            keys: AtomicUsize::new(0),
            counts: (0..keys).map(|_| AtomicU32::new(0)).collect(),
        }))
    }

    /// Number of keys with an in-flight remote operation.
    #[inline]
    pub(crate) fn keys(&self) -> usize {
        self.0.keys.load(Ordering::Acquire)
    }

    /// In-flight remote operations of the worker on `key`.
    #[inline]
    pub(crate) fn count(&self, key: Key) -> u32 {
        self.0.counts[key.0 as usize].load(Ordering::Acquire)
    }

    /// Counts one more in-flight remote operation on `key`. `Relaxed`:
    /// only the issuing worker raises counts and reads them, and the
    /// completion that gives one back follows the message it answers.
    pub(crate) fn count_in(&self, key: Key) {
        if self.0.counts[key.0 as usize].fetch_add(1, Ordering::Relaxed) == 0 {
            self.0.keys.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Gives back one count of `key` (a remote key completed).
    pub(crate) fn release(&self, key: Key) {
        let was = self.0.counts[key.0 as usize].fetch_sub(1, Ordering::Release);
        debug_assert!(was > 0, "guard count of {key} released below zero");
        if was == 1 {
            self.0.keys.fetch_sub(1, Ordering::Release);
        }
    }
}

/// Where one key of a pull writes its value.
#[derive(Debug, Clone, Copy)]
struct KeyDest {
    /// Offset into the op's result buffer.
    res_off: u32,
    /// Value length.
    len: u32,
    /// Offset into the caller's output buffer (sync pulls).
    out_off: u32,
    /// Whether this key was routed over the network (guard accounting).
    remote: bool,
    /// The next registration of the same key ([`NO_DEST`] if none).
    next: u32,
}

/// End of a key's chain of dests.
const NO_DEST: u32 = u32::MAX;

/// State of one in-flight operation.
///
/// The operation's kind decides how its keys are tracked. A pull's or a
/// push's keys are **identified** ([`OpTracker::add_keys`]): each has a
/// `dests` entry reachable through `by_key`, because its completion has a
/// value to place (pulls) or a guard count to give back (keys routed over
/// the network), or comes in a response that names keys, not positions.
/// A localize's keys are **counted** ([`OpTracker::seal_counted`]), only
/// a contribution to `pending`: a hand-over brings no value and no guard
/// count, so all the tracker has to know is how many are left. A
/// completion that names a key `by_key` does not know is refused.
struct OpState {
    kind: TrackedKind,
    /// Worker slot (on this node) to wake on completion.
    waiter: u16,
    /// Keys registered minus keys completed. Counted keys are registered
    /// at the seal and may complete before it, so the difference can be
    /// negative until then; it decides nothing before the seal.
    pending: i64,
    /// True once the issuing client registered all keys.
    sealed: bool,
    /// True once sealed and all keys completed.
    done: bool,
    /// True if the issuing worker dropped its handle without waiting;
    /// the entry is reclaimed when the last key completes.
    abandoned: bool,
    /// Pull result buffer.
    result: Vec<f32>,
    dests: Vec<KeyDest>,
    /// Per identified key, the `(first incomplete, last)` dest of its
    /// registrations, chained through `KeyDest::next` in registration
    /// order (keys may legitimately repeat within one operation; a chain
    /// instead of a queue per key, so registering allocates nothing per
    /// key).
    by_key: KeyMap<Key, (u32, u32)>,
    /// Guard map of the issuing worker, decremented as remote keys
    /// complete.
    guard: Option<GuardMap>,
    /// Issue timestamp (ns) for relocation timing.
    issued_ns: u64,
}

impl OpState {
    /// Completes the next incomplete registration of identified key
    /// `key`: takes its dest off the key's chain and gives back its guard
    /// count if it was routed over the network. Refuses, by name, a key
    /// with no registration left.
    fn complete(&mut self, seq: u64, key: Key) -> KeyDest {
        let dest = self
            .by_key
            .get_mut(&key)
            .and_then(|(head, _)| {
                let dest = *self.dests.get(*head as usize)?; // `NO_DEST`: all completed
                *head = dest.next;
                Some(dest)
            })
            .unwrap_or_else(|| panic!("completion of unregistered key {key} of op {seq}"));
        if let (true, Some(guard)) = (dest.remote, &self.guard) {
            guard.release(key);
        }
        self.pending -= 1;
        dest
    }

    /// Registers one more dest of identified key `key`.
    fn push_dest(&mut self, key: Key, dest: KeyDest) {
        debug_assert_eq!(dest.next, NO_DEST);
        let idx = self.dests.len() as u32;
        self.dests.push(dest);
        match self.by_key.entry(key) {
            Entry::Vacant(e) => {
                e.insert((idx, idx));
            }
            Entry::Occupied(mut e) => {
                let (head, tail) = e.get_mut();
                if *head == NO_DEST {
                    *head = idx;
                } else {
                    self.dests[*tail as usize].next = idx;
                }
                *tail = idx;
            }
        }
        self.pending += 1;
    }
}

/// Result of a completed operation, handed back to the issuing worker.
#[derive(Debug)]
pub struct OpResult {
    /// Pull values (empty for push/localize).
    pub result: Vec<f32>,
    /// `(out_off, res_off, len)` triples for assembling a sync pull into
    /// the caller's buffer.
    pub assembly: Vec<(u32, u32, u32)>,
}

/// Callback invoked when an operation completes: `(worker_slot, seq)`.
pub type WakeFn = Arc<dyn Fn(u16, u64) + Send + Sync>;

/// Clock used for relocation timing (virtual in the simulator).
pub type ClockFn = Arc<dyn Fn() -> u64 + Send + Sync>;

type OpMap = KeyMap<u64, OpState>;

/// The per-node operation tracker.
pub struct OpTracker {
    next_seq: AtomicU64,
    shards: Vec<Mutex<OpMap>>,
    /// Installed once, before the first completion; read on every wake
    /// with one acquire load.
    waker: OnceLock<WakeFn>,
    clock: ClockFn,
    /// Relocation-time distribution (ns), per the paper's definition.
    reloc_times: Mutex<LogHistogram>,
    /// Debug builds keep the identity release builds drop: per operation,
    /// registrations minus completions of each counted key
    /// ([`OpTracker::note_counted`]). All zero when the operation is done,
    /// or a key was completed that was never registered (or twice).
    #[cfg(debug_assertions)]
    counted_keys: Mutex<KeyMap<u64, KeyMap<Key, i32>>>,
}

const TRACKER_SHARDS: usize = 16;

#[cfg(test)]
thread_local! {
    /// Tracker-shard lock acquisitions of the current thread (tests count
    /// them per protocol round; `note_counted`'s debug lock is not one).
    pub(crate) static LOCKS_TAKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl OpTracker {
    /// An empty histogram of relocation times (ns) in the one geometry
    /// every tracker records into: 1 µs .. ~18 s in 5%-wide buckets. A
    /// sum over trackers starts from one, since `LogHistogram::merge`
    /// requires equal geometry.
    pub fn reloc_time_histogram() -> LogHistogram {
        LogHistogram::new(1_000.0, 1.05, 360)
    }

    /// Creates a tracker using `clock` for relocation timing.
    pub fn new(clock: ClockFn) -> Self {
        OpTracker {
            next_seq: AtomicU64::new(1),
            shards: (0..TRACKER_SHARDS)
                .map(|_| Mutex::new(KeyMap::default()))
                .collect(),
            waker: OnceLock::new(),
            clock,
            reloc_times: Mutex::new(Self::reloc_time_histogram()),
            #[cfg(debug_assertions)]
            counted_keys: Mutex::new(KeyMap::default()),
        }
    }

    /// Installs the wake callback. Call once, before operations complete.
    ///
    /// # Panics
    /// Panics if a callback is already installed.
    pub fn set_waker(&self, waker: WakeFn) {
        assert!(
            self.waker.set(waker).is_ok(),
            "tracker waker installed twice"
        );
    }

    /// Locks the tracker shard of operation `seq`.
    fn lock(&self, seq: u64) -> MutexGuard<'_, OpMap> {
        #[cfg(test)]
        LOCKS_TAKEN.set(LOCKS_TAKEN.get() + 1);
        self.shards[(seq % TRACKER_SHARDS as u64) as usize].lock()
    }

    /// Begins a new operation; returns its sequence number.
    ///
    /// `guard` is the issuing worker's ordered-async guard map (`None`
    /// for an operation no client issued). The pull result buffer grows
    /// as keys are registered.
    pub fn begin(&self, kind: TrackedKind, waiter: u16, guard: Option<GuardMap>) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let state = OpState {
            kind,
            waiter,
            pending: 0,
            sealed: false,
            done: false,
            abandoned: false,
            result: Vec::new(),
            dests: Vec::new(),
            by_key: KeyMap::default(),
            guard,
            issued_ns: (self.clock)(),
        };
        self.lock(seq).insert(seq, state);
        seq
    }

    /// Pre-sizes the result buffer of operation `seq` to `len` floats so
    /// keys can be registered at fixed offsets (`pinned`
    /// [`OpTracker::add_keys`]). Used by async pulls: the result buffer
    /// is laid out in caller key order up front, so registration order
    /// (which follows shard grouping, not key order) stops mattering.
    pub fn reserve(&self, seq: u64, len: u32) {
        let mut shard = self.lock(seq);
        let op = shard.get_mut(&seq).expect("reserve on unknown op");
        debug_assert!(op.result.is_empty(), "reserve on non-empty result");
        op.result.resize(len as usize, 0.0);
    }

    /// Registers a batch of **identified** pending keys of operation
    /// `seq` under a single tracker lock. `pinned` makes a key's result
    /// offset its caller-buffer offset (into a result sized by
    /// [`OpTracker::reserve`]) instead of a compact append; `remote`
    /// marks all keys as network-routed (guard accounting). Items are
    /// `(key, len, out_off)` in registration order.
    ///
    /// # Panics
    /// Panics on a localize, whose keys are counted.
    pub fn add_keys(
        &self,
        seq: u64,
        pinned: bool,
        remote: bool,
        items: impl Iterator<Item = (Key, u32, u32)>,
    ) {
        let mut shard = self.lock(seq);
        let op = shard.get_mut(&seq).expect("add_keys on unknown op");
        debug_assert!(!op.sealed, "add_keys after seal");
        assert_ne!(op.kind, TrackedKind::Localize, "add_keys on op {seq}");
        for (key, len, out_off) in items {
            let res_off = if pinned {
                debug_assert!(
                    (out_off + len) as usize <= op.result.len(),
                    "add_keys past reserved result"
                );
                out_off
            } else {
                let r = op.result.len() as u32;
                op.result.resize(r as usize + len as usize, 0.0);
                r
            };
            op.push_dest(
                key,
                KeyDest {
                    res_off,
                    len,
                    out_off,
                    remote,
                    next: NO_DEST,
                },
            );
        }
    }

    /// Marks registration complete. Returns `true` if the operation is
    /// already done (all keys completed concurrently, or none registered).
    pub fn seal(&self, seq: u64) -> bool {
        self.seal_counted(seq, 0)
    }

    /// [`OpTracker::seal`], registering `counted` **counted** keys of a
    /// localize in the same step. Some may have completed already — the
    /// issuer has handed them to the shard state key by key, under the
    /// shard latches, and registers them here once.
    ///
    /// # Panics
    /// Panics if `counted` is not zero and operation `seq` is not a
    /// localize.
    pub fn seal_counted(&self, seq: u64, counted: u32) -> bool {
        let mut shard = self.lock(seq);
        let op = shard.get_mut(&seq).expect("seal on unknown op");
        debug_assert!(!op.sealed, "operation {seq} sealed twice");
        assert!(
            counted == 0 || op.kind == TrackedKind::Localize,
            "counted keys of op {seq}"
        );
        op.pending += i64::from(counted);
        op.sealed = true;
        // Done now if every key completed already; nobody is waiting yet.
        self.settle(&mut shard, seq).is_some()
    }

    /// Debug builds only (a no-op in release builds): notes that counted
    /// key `key` of operation `seq` was registered (`delta = 1`) or
    /// completed (`delta = -1`), for the check that every counted key is
    /// completed exactly as often as it was registered.
    #[inline]
    pub fn note_counted(&self, seq: u64, key: Key, delta: i32) {
        #[cfg(debug_assertions)]
        {
            let mut ops = self.counted_keys.lock();
            let keys = ops.entry(seq).or_default();
            let n = keys.entry(key).or_insert(0);
            *n += delta;
            if *n == 0 {
                keys.remove(&key);
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = (seq, key, delta);
    }

    /// Completes `n` counted keys of operation `seq` under one tracker
    /// lock (see [`OpTracker::seal_counted`]). Fires the wake callback
    /// when the operation becomes done.
    ///
    /// # Panics
    /// Panics if operation `seq` is not a localize.
    pub fn complete_counted(&self, seq: u64, n: u32) {
        self.complete_with(seq, |op| {
            assert_eq!(op.kind, TrackedKind::Localize, "counted keys of op {seq}");
            op.pending -= i64::from(n);
        });
    }

    /// Completes one key of operation `seq`, storing `vals` for pulls.
    ///
    /// Safe to call from any thread (server threads call it while holding
    /// shard latches). Fires the wake callback when the operation becomes
    /// done.
    ///
    /// # Panics
    /// Panics on a key [`OpTracker::add_keys`] did not register (or whose
    /// registrations all completed).
    pub fn complete_key(&self, seq: u64, key: Key, vals: Option<&[f32]>) {
        self.complete_with(seq, |op| {
            let dest = op.complete(seq, key);
            if let Some(vals) = vals {
                let off = dest.res_off as usize;
                debug_assert_eq!(vals.len(), dest.len as usize, "value length of {key}");
                op.result[off..off + vals.len()].copy_from_slice(vals);
            }
        });
    }

    /// Completes every key of one grouped response under a **single**
    /// tracker lock, copying pull values straight from the decoded
    /// message block into the result buffer (no per-key staging).
    ///
    /// `block` carries the concatenated values in `keys` order for pulls
    /// and is empty for push acknowledgements (every push key has length
    /// 0). Fires the wake callback at most once.
    ///
    /// # Panics
    /// As [`OpTracker::complete_key`], on a key it did not register.
    pub fn complete_resp(&self, seq: u64, keys: &[Key], block: &ValueBlock) {
        self.complete_with(seq, |op| {
            let mut block_off = 0usize;
            for &key in keys {
                let dest = op.complete(seq, key);
                if dest.len > 0 {
                    let off = dest.res_off as usize;
                    let len = dest.len as usize;
                    debug_assert!(
                        block_off + len <= block.len(),
                        "response block too short at {key}"
                    );
                    block.copy_to(block_off, &mut op.result[off..off + len]);
                    block_off += len;
                }
            }
            debug_assert_eq!(block_off, block.len(), "response block not consumed");
        });
    }

    /// Applies completion `f` to operation `seq` under its tracker shard,
    /// then settles it; fires the wake callback if it became done.
    fn complete_with(&self, seq: u64, f: impl FnOnce(&mut OpState)) {
        let waiter = {
            let mut shard = self.lock(seq);
            let Some(op) = shard.get_mut(&seq) else {
                debug_assert!(false, "completion for unknown op {seq}");
                return;
            };
            f(op);
            self.settle(&mut shard, seq)
        };
        self.wake(waiter, seq);
    }

    /// After a completion or the seal: if operation `seq` is sealed and
    /// nothing is pending it becomes done — relocation timing, and in
    /// debug builds the check that its counted keys balance; returns the
    /// worker slot to wake, unless the operation was abandoned (then it
    /// is reclaimed here).
    fn settle(&self, shard: &mut OpMap, seq: u64) -> Option<u16> {
        let op = shard.get_mut(&seq).expect("settled op is present");
        debug_assert!(
            !op.sealed || op.pending >= 0,
            "operation {seq} over-completed"
        );
        if !op.sealed || op.pending != 0 {
            return None;
        }
        op.done = true;
        if op.kind == TrackedKind::Localize {
            let elapsed = (self.clock)().saturating_sub(op.issued_ns);
            self.reloc_times.lock().record(elapsed as f64);
        }
        #[cfg(debug_assertions)]
        if let Some(keys) = self.counted_keys.lock().remove(&seq) {
            assert!(
                keys.is_empty(),
                "op {seq} done with unbalanced counted keys: {keys:?}"
            );
        }
        if op.abandoned {
            // The issuing worker dropped its handle; reclaim the entry
            // now instead of waking anyone.
            shard.remove(&seq);
            None
        } else {
            Some(op.waiter)
        }
    }

    fn wake(&self, waiter: Option<u16>, seq: u64) {
        if let (Some(waiter), Some(waker)) = (waiter, self.waker.get()) {
            waker(waiter, seq);
        }
    }

    /// Whether operation `seq` has completed.
    pub fn is_done(&self, seq: u64) -> bool {
        self.lock(seq).get(&seq).map(|op| op.done).unwrap_or(true) // already taken ⇒ done
    }

    /// Removes a completed operation and returns its result.
    ///
    /// # Panics
    /// Panics if the operation is not done (callers must wait first).
    pub fn take(&self, seq: u64) -> OpResult {
        let op = self.lock(seq).remove(&seq).expect("take of unknown op");
        assert!(op.done, "take of incomplete op {seq}");
        OpResult {
            result: op.result,
            assembly: op
                .dests
                .iter()
                .filter(|d| d.len > 0)
                .map(|d| (d.out_off, d.res_off, d.len))
                .collect(),
        }
    }

    /// Discards a completed operation without materializing results
    /// (pushes, localizes). Returns what it tracked, if it was still
    /// registered.
    pub fn discard(&self, seq: u64) -> Option<TrackedKind> {
        let op = self.lock(seq).remove(&seq)?;
        debug_assert!(op.done, "discard of incomplete op");
        Some(op.kind)
    }

    /// Abandons an operation whose handle was dropped without waiting:
    /// a completed entry is reclaimed immediately, an in-flight one is
    /// marked and reclaimed when its last key completes. Unknown
    /// sequence numbers (already taken/discarded) are ignored.
    pub fn abandon(&self, seq: u64) {
        let mut shard = self.lock(seq);
        if let Some(op) = shard.get_mut(&seq) {
            if op.done {
                shard.remove(&seq);
            } else {
                op.abandoned = true;
            }
        }
    }

    /// Number of operations still in flight (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Snapshot of the relocation-time distribution (ns).
    pub fn reloc_time_stats(&self) -> LogHistogram {
        self.reloc_times.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{testkit::TestCluster, Layout, ProtoConfig};
    use lapse_net::NodeId;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    fn tracker() -> OpTracker {
        OpTracker::new(Arc::new(|| 0))
    }

    /// The message `f` panics with.
    fn panic_of(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the call was accepted");
        *payload.downcast::<String>().expect("a formatted panic")
    }

    /// Registers one identified key, appended to the result.
    fn add_key(t: &OpTracker, seq: u64, key: Key, len: u32, out_off: u32, remote: bool) {
        t.add_keys(seq, false, remote, std::iter::once((key, len, out_off)));
    }

    /// A tracker that counts its wake-ups.
    fn counting_tracker() -> (OpTracker, Arc<AtomicUsize>) {
        let t = tracker();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = fired.clone();
        t.set_waker(Arc::new(move |_, _| {
            fired2.fetch_add(1, Ordering::SeqCst);
        }));
        (t, fired)
    }

    #[test]
    fn pull_completes_and_assembles() {
        let t = tracker();
        let seq = t.begin(TrackedKind::Pull, 3, None);
        add_key(&t, seq, Key(10), 2, 6, true);
        add_key(&t, seq, Key(11), 2, 0, true);
        assert!(!t.seal(seq));
        assert!(!t.is_done(seq));
        t.complete_key(seq, Key(11), Some(&[3.0, 4.0]));
        assert!(!t.is_done(seq));
        t.complete_key(seq, Key(10), Some(&[1.0, 2.0]));
        assert!(t.is_done(seq));
        let res = t.take(seq);
        assert_eq!(res.result, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(res.assembly, vec![(6, 0, 2), (0, 2, 2)]);
    }

    #[test]
    fn empty_op_done_at_seal() {
        let t = tracker();
        let seq = t.begin(TrackedKind::Push, 0, None);
        assert!(t.seal(seq));
        t.discard(seq);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn duplicate_keys_complete_in_order() {
        let t = tracker();
        let seq = t.begin(TrackedKind::Pull, 0, None);
        add_key(&t, seq, Key(5), 1, 0, true);
        add_key(&t, seq, Key(5), 1, 1, true);
        t.seal(seq);
        t.complete_key(seq, Key(5), Some(&[7.0]));
        t.complete_key(seq, Key(5), Some(&[8.0]));
        let res = t.take(seq);
        assert_eq!(res.result, vec![7.0, 8.0]);
    }

    #[test]
    fn waker_fires_once_on_completion() {
        let t = tracker();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = fired.clone();
        t.set_waker(Arc::new(move |worker, _seq| {
            assert_eq!(worker, 9);
            fired2.fetch_add(1, Ordering::SeqCst);
        }));
        let seq = t.begin(TrackedKind::Push, 9, None);
        add_key(&t, seq, Key(1), 0, 0, true);
        add_key(&t, seq, Key(2), 0, 0, true);
        t.seal(seq);
        t.complete_key(seq, Key(1), None);
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        t.complete_key(seq, Key(2), None);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn guard_decrements_on_remote_completion() {
        let t = tracker();
        let guard = GuardMap::new(8);
        guard.count_in(Key(4));
        guard.count_in(Key(4));
        let seq = t.begin(TrackedKind::Push, 0, Some(guard.clone()));
        add_key(&t, seq, Key(4), 0, 0, true);
        t.seal(seq);
        t.complete_key(seq, Key(4), None);
        assert_eq!((guard.count(Key(4)), guard.keys()), (1, 1));
        // Second op clears it.
        let seq2 = t.begin(TrackedKind::Push, 0, Some(guard.clone()));
        add_key(&t, seq2, Key(4), 0, 0, true);
        t.seal(seq2);
        t.complete_key(seq2, Key(4), None);
        assert_eq!((guard.count(Key(4)), guard.keys()), (0, 0));
    }

    #[test]
    fn localize_records_relocation_time() {
        let time = Arc::new(AtomicU64::new(1_000_000));
        let time2 = time.clone();
        let t = OpTracker::new(Arc::new(move || time2.load(Ordering::SeqCst)));
        let seq = t.begin(TrackedKind::Localize, 0, None);
        t.note_counted(seq, Key(0), 1);
        t.seal_counted(seq, 1);
        time.store(3_000_000, Ordering::SeqCst);
        t.note_counted(seq, Key(0), -1);
        t.complete_counted(seq, 1);
        let h = t.reloc_time_stats();
        assert_eq!(h.stats().count(), 1);
        assert!((h.stats().mean() - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn abandoned_op_reclaimed_when_last_key_completes() {
        let t = tracker();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = fired.clone();
        t.set_waker(Arc::new(move |_, _| {
            fired2.fetch_add(1, Ordering::SeqCst);
        }));
        let seq = t.begin(TrackedKind::Push, 0, None);
        add_key(&t, seq, Key(1), 0, 0, true);
        t.seal(seq);
        t.abandon(seq);
        assert_eq!(t.in_flight(), 1, "in-flight op stays until completion");
        t.complete_key(seq, Key(1), None);
        assert_eq!(t.in_flight(), 0, "abandoned op reclaimed on completion");
        assert_eq!(fired.load(Ordering::SeqCst), 0, "no wake for abandoned op");
    }

    #[test]
    fn abandon_of_completed_op_reclaims_immediately() {
        let t = tracker();
        let seq = t.begin(TrackedKind::Push, 0, None);
        add_key(&t, seq, Key(1), 0, 0, true);
        t.seal(seq);
        t.complete_key(seq, Key(1), None);
        assert_eq!(t.in_flight(), 1);
        t.abandon(seq);
        assert_eq!(t.in_flight(), 0);
        // Abandoning an already-reclaimed seq is a no-op.
        t.abandon(seq);
    }

    #[test]
    #[should_panic(expected = "take of incomplete op")]
    fn take_before_done_panics() {
        let t = tracker();
        let seq = t.begin(TrackedKind::Pull, 0, None);
        add_key(&t, seq, Key(0), 1, 0, true);
        t.seal(seq);
        let _ = t.take(seq);
    }

    #[test]
    fn reserved_result_pins_offsets_regardless_of_registration_order() {
        let t = tracker();
        let seq = t.begin(TrackedKind::Pull, 0, None);
        t.reserve(seq, 4);
        // Registered out of key order (shard grouping); offsets pin the
        // layout.
        t.add_keys(
            seq,
            true,
            false,
            [(Key(9), 2, 2), (Key(8), 2, 0)].into_iter(),
        );
        t.seal(seq);
        t.complete_key(seq, Key(9), Some(&[3.0, 4.0]));
        t.complete_key(seq, Key(8), Some(&[1.0, 2.0]));
        let res = t.take(seq);
        assert_eq!(res.result, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn complete_resp_fills_results_and_balances_guard() {
        let t = tracker();
        let guard = GuardMap::new(8);
        let seq = t.begin(TrackedKind::Pull, 0, Some(guard.clone()));
        for k in [Key(1), Key(2), Key(2)] {
            guard.count_in(k);
        }
        t.add_keys(
            seq,
            false,
            true,
            [(Key(1), 1, 0), (Key(2), 2, 1)].into_iter(),
        );
        t.seal(seq);
        let block = ValueBlock::from_f32s(&[5.0, 6.0, 7.0]);
        t.complete_resp(seq, &[Key(1), Key(2)], &block);
        assert!(t.is_done(seq));
        let res = t.take(seq);
        assert_eq!(res.result, vec![5.0, 6.0, 7.0]);
        // One decrement per completed key.
        assert_eq!((guard.count(Key(1)), guard.count(Key(2))), (0, 1));
        assert_eq!(guard.keys(), 1);
    }

    #[test]
    fn complete_resp_acks_pushes_with_empty_block() {
        let t = tracker();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = fired.clone();
        t.set_waker(Arc::new(move |_, _| {
            fired2.fetch_add(1, Ordering::SeqCst);
        }));
        let seq = t.begin(TrackedKind::Push, 0, None);
        t.add_keys(
            seq,
            false,
            true,
            [(Key(3), 0, 0), (Key(4), 0, 0)].into_iter(),
        );
        t.seal(seq);
        t.complete_resp(seq, &[Key(3), Key(4)], &ValueBlock::empty());
        assert!(t.is_done(seq));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "exactly one wake");
        t.discard(seq);
    }

    // ---- counted keys -------------------------------------------------------

    #[test]
    fn counted_op_with_repeated_keys_completes_by_count() {
        let (t, fired) = counting_tracker();
        let seq = t.begin(TrackedKind::Localize, 0, None);
        // localize [7, 7, 9]: the second 7 piggybacks on the first.
        for k in [Key(7), Key(7), Key(9)] {
            t.note_counted(seq, k, 1);
        }
        assert!(!t.seal_counted(seq, 3));
        // One hand-over brings both waiters of key 7, another key 9.
        t.note_counted(seq, Key(7), -1);
        t.note_counted(seq, Key(7), -1);
        t.complete_counted(seq, 2);
        assert!(!t.is_done(seq));
        t.note_counted(seq, Key(9), -1);
        t.complete_counted(seq, 1);
        assert!(t.is_done(seq));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        t.discard(seq);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn counted_keys_may_complete_before_the_seal() {
        let (t, fired) = counting_tracker();
        let seq = t.begin(TrackedKind::Localize, 0, None);
        // The issuer has handed both keys to the shard state and dropped
        // the latch; one hand-over arrives before it seals.
        t.note_counted(seq, Key(1), 1);
        t.note_counted(seq, Key(2), 1);
        t.note_counted(seq, Key(1), -1);
        t.complete_counted(seq, 1);
        assert!(!t.is_done(seq), "nothing is decided before the seal");
        assert!(!t.seal_counted(seq, 2));
        t.note_counted(seq, Key(2), -1);
        t.complete_counted(seq, 1);
        assert!(t.is_done(seq));
        assert_eq!(fired.load(Ordering::SeqCst), 1);

        // All of them before the seal: done at the seal, nobody to wake.
        let seq = t.begin(TrackedKind::Localize, 0, None);
        t.note_counted(seq, Key(3), 1);
        t.note_counted(seq, Key(3), -1);
        t.complete_counted(seq, 1);
        assert!(t.seal_counted(seq, 1));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn counted_op_abandoned_before_and_after_its_last_completion() {
        let (t, fired) = counting_tracker();
        // Before: reclaimed by the last completion, nobody woken.
        let seq = t.begin(TrackedKind::Localize, 0, None);
        t.seal_counted(seq, 2);
        t.complete_counted(seq, 1);
        t.abandon(seq);
        assert_eq!(t.in_flight(), 1);
        t.complete_counted(seq, 1);
        assert_eq!(t.in_flight(), 0);
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        // After: reclaimed by the abandon.
        let seq = t.begin(TrackedKind::Localize, 0, None);
        t.seal_counted(seq, 1);
        t.complete_counted(seq, 1);
        assert_eq!((t.in_flight(), fired.load(Ordering::SeqCst)), (1, 1));
        t.abandon(seq);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn a_parked_push_completes_beside_its_remote_keys() {
        let (t, fired) = counting_tracker();
        let guard = GuardMap::new(8);
        // A push: keys 2 and 3 parked on the issuing node, registered as
        // the walk parks them; key 1 routed over the network (guarded),
        // registered after the walk.
        let seq = t.begin(TrackedKind::Push, 0, Some(guard.clone()));
        add_key(&t, seq, Key(2), 0, 0, false);
        add_key(&t, seq, Key(3), 0, 0, false);
        add_key(&t, seq, Key(1), 0, 0, true);
        guard.count_in(Key(1));
        assert!(!t.seal(seq));
        // Key 2 drains with its hand-over; key 3 was re-dispatched and
        // comes back in the same response as key 1.
        t.complete_key(seq, Key(2), None);
        assert!(!t.is_done(seq));
        t.complete_resp(seq, &[Key(3), Key(1)], &ValueBlock::empty());
        assert!(t.is_done(seq));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(guard.keys(), 0, "one guard count, given back once");
        t.discard(seq);

        // A pull keeps its offsets next to a counted completion of the
        // same key in another op, a localize: neither sees the other.
        let pull = t.begin(TrackedKind::Pull, 0, None);
        add_key(&t, pull, Key(5), 2, 0, false);
        t.seal(pull);
        let loc = t.begin(TrackedKind::Localize, 0, None);
        t.note_counted(loc, Key(5), 1);
        t.seal_counted(loc, 1);
        t.complete_key(pull, Key(5), Some(&[1.0, 2.0]));
        t.note_counted(loc, Key(5), -1);
        t.complete_counted(loc, 1);
        assert!(t.is_done(pull) && t.is_done(loc));
        assert_eq!(t.take(pull).result, vec![1.0, 2.0]);
    }

    /// A completion must name a key its operation registered, in release
    /// builds too: neither completion path takes an unknown key for a
    /// counted one.
    #[test]
    fn a_completion_of_an_unregistered_key_is_refused_by_name() {
        let t = tracker();
        let seq = t.begin(TrackedKind::Push, 0, None);
        add_key(&t, seq, Key(1), 0, 0, true);
        t.seal(seq);
        let want = format!("completion of unregistered key k2 of op {seq}");
        assert_eq!(panic_of(|| t.complete_key(seq, Key(2), None)), want);
        let block = ValueBlock::empty();
        assert_eq!(panic_of(|| t.complete_resp(seq, &[Key(2)], &block)), want);
        assert!(!t.is_done(seq), "a refused completion completes nothing");
        t.complete_key(seq, Key(1), None);
        assert!(t.is_done(seq));
    }

    /// Counted keys are a localize's and only a localize's.
    #[test]
    fn only_a_localize_has_counted_keys() {
        let t = tracker();
        let push = t.begin(TrackedKind::Push, 0, None);
        let seal = || {
            t.seal_counted(push, 1);
        };
        let want = format!("counted keys of op {push}");
        assert_eq!(panic_of(seal), want);
        assert!(panic_of(|| t.complete_counted(push, 1)).contains(&want));
        let loc = t.begin(TrackedKind::Localize, 0, None);
        let msg = panic_of(|| add_key(&t, loc, Key(1), 0, 0, true));
        assert!(msg.contains(&format!("add_keys on op {loc}")), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unbalanced counted keys")]
    fn double_completion_of_a_counted_key_is_caught_in_debug_builds() {
        let t = tracker();
        let seq = t.begin(TrackedKind::Localize, 0, None);
        t.note_counted(seq, Key(1), 1);
        t.note_counted(seq, Key(2), 1);
        t.seal_counted(seq, 2);
        // Key 1 twice, key 2 never: the count alone says "done".
        t.note_counted(seq, Key(1), -1);
        t.note_counted(seq, Key(1), -1);
        t.complete_counted(seq, 2);
    }

    #[test]
    #[should_panic(expected = "installed twice")]
    fn second_waker_is_refused() {
        let t = tracker();
        t.set_waker(Arc::new(|_, _| {}));
        t.set_waker(Arc::new(|_, _| {}));
    }

    /// Tracker-shard locks this thread takes for `round` of
    /// 512 and of 32 keys homed and owned at node 2 of three.
    fn locks_of(round: impl Fn(&mut TestCluster, &[Key])) -> [u64; 2] {
        let mut cluster = TestCluster::new(ProtoConfig::new(3, 6144, Layout::Uniform(16)), 1);
        let keys: Vec<Key> = (0..512).map(|i| Key(2 * 2048 + 4 * i)).collect();
        [&keys[..], &keys[..32]].map(|keys| {
            let before = LOCKS_TAKEN.get();
            round(&mut cluster, keys);
            LOCKS_TAKEN.get() - before
        })
    }

    #[test]
    fn a_localize_round_locks_the_tracker_per_message_not_per_key() {
        // Per localize: begin, seal, one completion for the one hand-over,
        // the harness's is_done and discard; localize keys have no guard.
        let locks = locks_of(|c, keys| {
            c.localize_now(NodeId(1), 0, keys);
            c.localize_now(NodeId(0), 0, keys);
        });
        assert_eq!(locks, [10, 10], "rounds of 512 and of 32 keys");
    }

    #[test]
    fn a_remote_pull_or_push_round_locks_per_message_not_per_key() {
        // begin, add_keys, seal, one completion for the one response, the
        // harness's is_done and take or discard; the guard takes no lock.
        let pull = locks_of(|c, keys| drop(c.pull_now(NodeId(0), 0, keys)));
        let push = locks_of(|c, keys| c.push_now(NodeId(0), 0, keys, &vec![1.0; 16 * keys.len()]));
        assert_eq!(pull, [6, 6], "pull rounds of 512 and of 32 keys");
        assert_eq!(push, [6, 6], "push rounds of 512 and of 32 keys");
    }
}
