//! Online access statistics and the technique-transition controller of
//! the adaptive management technique
//! ([`Variant::Adaptive`](crate::config::Variant::Adaptive)).
//!
//! Dynamic parameter allocation relocates every parameter and NuPS-style
//! hybrid management replicates a **pre-declared** hot set; both assume
//! the workload's skew is known up front. This module removes that
//! assumption: each node samples its own access stream (the pull/push
//! plan phase) into a deterministic **space-saving** top-k sketch, and a
//! per-node controller periodically turns the sketch into technique
//! transitions — promotion requests for hot relocated keys and demotion
//! votes for cooled replicated keys — that the keys' home nodes
//! coordinate (see the transition protocol in `server.rs`).
//!
//! Everything here is deterministic given the access stream: the sketch
//! is a plain counter array, the controller sorts candidates by
//! `(count desc, key asc)`, and ticks fire at fixed sample counts. On the
//! simulator backend the access stream itself is deterministic, so two
//! runs produce bit-identical transitions (asserted by the
//! `table_adaptive` smoke diff).

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use lapse_net::Key;

use crate::config::AdaptiveConfig;
use crate::keymap::KeyMap;

/// One tracked key of the space-saving sketch.
#[derive(Debug, Clone, Copy)]
struct Counter {
    key: Key,
    /// Estimated hit count (an overestimate by at most `err`).
    count: u64,
    /// The count inherited from the evicted minimum when this key took
    /// over the counter — the classic space-saving error bound.
    err: u64,
}

/// A space-saving top-k sketch (Metwally et al.): at most `capacity`
/// tracked keys; a hit on an untracked key evicts the current minimum and
/// inherits its count (recorded as the new entry's error bound).
/// Deterministic: ties on eviction resolve to the smallest key.
#[derive(Debug)]
pub struct SpaceSaving {
    capacity: usize,
    counters: Vec<Counter>,
    /// Key → index into `counters`.
    index: KeyMap<Key, usize>,
}

impl SpaceSaving {
    /// Creates an empty sketch tracking at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpaceSaving {
            capacity,
            counters: Vec::with_capacity(capacity),
            index: KeyMap::with_capacity(capacity),
        }
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Records one hit of `key`.
    pub fn hit(&mut self, key: Key) {
        if let Some(&i) = self.index.get(&key) {
            self.counters[i].count += 1;
            return;
        }
        if self.counters.len() < self.capacity {
            let i = self.counters.len();
            self.counters.push(Counter {
                key,
                count: 1,
                err: 0,
            });
            self.index.insert(key, i);
            return;
        }
        // Evict the minimum (smallest key on ties, so eviction is
        // independent of insertion history). The linear scan is
        // O(capacity) per untracked sample — acceptable at the default
        // sampling rates (a few-thousand-element scan every
        // `sample_every`-th cold access); a stream-summary bucket list
        // would make it O(1) if sketches ever need to grow much larger.
        let mut min = 0;
        for (i, c) in self.counters.iter().enumerate().skip(1) {
            let m = self.counters[min];
            if c.count < m.count || (c.count == m.count && c.key < m.key) {
                min = i;
            }
        }
        let evicted = self.counters[min];
        self.index.remove(&evicted.key);
        self.counters[min] = Counter {
            key,
            count: evicted.count + 1,
            err: evicted.count,
        };
        self.index.insert(key, min);
    }

    /// The estimated hit count of `key` (0 if untracked). An overestimate
    /// by at most the entry's error bound.
    pub fn estimate(&self, key: Key) -> u64 {
        self.index.get(&key).map_or(0, |&i| self.counters[i].count)
    }

    /// The estimate of `key` minus its error bound — the count that is
    /// provably the key's own (an entry that merely inherited an evicted
    /// minimum's count reports ~0 here).
    pub fn corrected_estimate(&self, key: Key) -> u64 {
        self.index.get(&key).map_or(0, |&i| {
            let c = self.counters[i];
            c.count.saturating_sub(c.err)
        })
    }

    /// Halves every count and error (exponential decay, applied once per
    /// controller tick); entries decayed to zero are dropped.
    pub fn decay(&mut self) {
        self.counters.retain_mut(|c| {
            c.count /= 2;
            c.err /= 2;
            c.count > 0
        });
        self.index.clear();
        for (i, c) in self.counters.iter().enumerate() {
            self.index.insert(c.key, i);
        }
    }

    /// Keys whose estimate **minus its error bound** is at least `min`,
    /// sorted by `(count desc, key asc)` — the deterministic promotion
    /// candidate order. Subtracting the error bound keeps keys that
    /// merely inherited a large evicted count from looking hot.
    pub fn hot_keys(&self, min: u64) -> Vec<(Key, u64)> {
        let mut hot: Vec<(Key, u64)> = self
            .counters
            .iter()
            .filter(|c| c.count.saturating_sub(c.err) >= min)
            .map(|c| (c.key, c.count))
            .collect();
        hot.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot
    }
}

/// Per-node shared state of the adaptive technique: the sampled sketch
/// plus the controller's bookkeeping. Lives in
/// [`NodeShared`](crate::shard::NodeShared) (present only under
/// [`Variant::Adaptive`](crate::config::Variant)), in a block of its own:
/// every worker's plan phase bumps the sampling gate, and that must not
/// dirty the lines of the read-only header beside it.
#[derive(Debug)]
#[repr(align(128))]
pub struct AdaptiveShared {
    /// Planned keys seen (sampling gate).
    accesses: AtomicU64,
    /// Samples taken (tick gate).
    samples: AtomicU64,
    /// Set when a sample crossed a tick boundary; consumed by the next
    /// issued operation, which runs the controller in band.
    tick_due: AtomicBool,
    /// Sketch + controller bookkeeping.
    pub inner: Mutex<AdaptiveInner>,
}

/// The lock-guarded half of [`AdaptiveShared`].
#[derive(Debug)]
pub struct AdaptiveInner {
    /// The access sketch.
    pub sketch: SpaceSaving,
    /// Controller ticks run on this node.
    pub ticks: u64,
    /// Keys with an outstanding promotion request, by the tick that sent
    /// it (re-sent after `request_ttl_ticks` — the home node drops
    /// requests that race a draining demotion).
    pub requested_promote: BTreeMap<Key, u64>,
    /// Replicated keys this node has voted to demote, by the tick that
    /// voted. A still-cold key re-votes after `request_ttl_ticks` — the
    /// home clears its vote set whenever promotion interest appears, so
    /// without re-votes a key whose demotion was interrupted once could
    /// never demote again (the voters would believe their votes stand).
    pub voted_demote: BTreeMap<Key, u64>,
}

/// One controller tick's decisions, keys in deterministic order.
#[derive(Debug, Default)]
pub struct TickDecision {
    /// Keys to request promotion for (hot, currently relocated).
    pub promote: Vec<Key>,
    /// Keys to vote demotion for (cold, currently replicated).
    pub demote: Vec<Key>,
}

impl AdaptiveShared {
    /// Creates the state for one node.
    pub fn new(cfg: &AdaptiveConfig) -> Self {
        AdaptiveShared {
            accesses: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            tick_due: AtomicBool::new(false),
            inner: Mutex::new(AdaptiveInner {
                sketch: SpaceSaving::new(cfg.sketch_capacity),
                ticks: 0,
                requested_promote: BTreeMap::new(),
                voted_demote: BTreeMap::new(),
            }),
        }
    }

    /// Feeds one planned key into the sampler. Returns `true` when the
    /// access was actually sampled into the sketch.
    #[inline]
    pub fn sample(&self, key: Key, cfg: &AdaptiveConfig) -> bool {
        let n = self.accesses.fetch_add(1, Relaxed);
        if !n.is_multiple_of(cfg.sample_every.max(1)) {
            return false;
        }
        self.inner.lock().sketch.hit(key);
        let s = self.samples.fetch_add(1, Relaxed) + 1;
        if s.is_multiple_of(cfg.tick_every.max(1)) {
            self.tick_due.store(true, Relaxed);
        }
        true
    }

    /// Consumes a pending controller tick, if any.
    #[inline]
    pub fn take_tick(&self) -> bool {
        self.tick_due.load(Relaxed) && self.tick_due.swap(false, Relaxed)
    }

    /// Clears the controller's outstanding-request bookkeeping for keys
    /// whose transition completed (called by the server when a promote or
    /// demote broadcast for them is applied on this node).
    pub fn transition_applied(&self, keys: &[Key]) {
        let mut inner = self.inner.lock();
        for k in keys {
            inner.requested_promote.remove(k);
            inner.voted_demote.remove(k);
        }
    }
}

/// Runs one controller tick: turns the sketch plus the node's current
/// view of the replicated key set (`replicated`, sorted ascending) into
/// promotion requests and demotion votes, then decays the sketch.
pub fn controller_tick(
    inner: &mut AdaptiveInner,
    replicated: &[Key],
    cfg: &AdaptiveConfig,
) -> TickDecision {
    inner.ticks += 1;
    let tick = inner.ticks;
    let mut d = TickDecision::default();

    // Promotion candidates: hot keys that are still relocation-managed
    // and have no recent outstanding request.
    for (key, _) in inner.sketch.hot_keys(cfg.promote_count) {
        if d.promote.len() >= cfg.max_promotes_per_tick {
            break;
        }
        if replicated.binary_search(&key).is_ok() {
            continue;
        }
        match inner.requested_promote.get(&key) {
            Some(&at) if tick.saturating_sub(at) < cfg.request_ttl_ticks.max(1) => continue,
            _ => {}
        }
        inner.requested_promote.insert(key, tick);
        d.promote.push(key);
    }

    // Re-heat signal: a key this node had voted cold that is hot again
    // (by the error-corrected estimate — an inherited evicted count must
    // not withdraw a legitimate cold vote) becomes a promotion request;
    // the home node ignores it (the key is already replicated) but
    // clears the stale demotion votes.
    let reheated: Vec<Key> = inner
        .voted_demote
        .keys()
        .copied()
        .filter(|&k| {
            inner.sketch.corrected_estimate(k) >= cfg.promote_count
                && replicated.binary_search(&k).is_ok()
                && !d.promote.contains(&k)
        })
        .collect();
    for k in reheated {
        inner.voted_demote.remove(&k);
        d.promote.push(k);
    }

    // Demotion votes: replicated keys that have cooled locally (the raw
    // estimate — an overestimate — makes this conservative). A vote is
    // re-sent after the TTL: the home clears votes on any promotion
    // interest, and only the periodic re-vote lets an interrupted
    // demotion eventually complete.
    for &key in replicated {
        if inner.sketch.estimate(key) > cfg.demote_count {
            continue;
        }
        match inner.voted_demote.get(&key) {
            Some(&at) if tick.saturating_sub(at) < cfg.request_ttl_ticks.max(1) => {}
            _ => {
                inner.voted_demote.insert(key, tick);
                d.demote.push(key);
            }
        }
    }

    inner.sketch.decay();
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_counts_and_evicts_deterministically() {
        let mut s = SpaceSaving::new(2);
        s.hit(Key(1));
        s.hit(Key(1));
        s.hit(Key(2));
        assert_eq!(s.estimate(Key(1)), 2);
        assert_eq!(s.estimate(Key(2)), 1);
        // Key 3 evicts the minimum (key 2) and inherits its count.
        s.hit(Key(3));
        assert_eq!(s.estimate(Key(2)), 0);
        assert_eq!(s.estimate(Key(3)), 2);
        assert_eq!(s.len(), 2);
        // The inherited count is excluded from the hot-key error bound:
        // key 3's corrected estimate is 2 - 1 = 1.
        assert_eq!(s.hot_keys(2), vec![(Key(1), 2)]);
        assert_eq!(s.hot_keys(1), vec![(Key(1), 2), (Key(3), 2)]);
    }

    #[test]
    fn sketch_decay_halves_and_drops() {
        let mut s = SpaceSaving::new(4);
        for _ in 0..4 {
            s.hit(Key(7));
        }
        s.hit(Key(8));
        s.decay();
        assert_eq!(s.estimate(Key(7)), 2);
        assert_eq!(s.estimate(Key(8)), 0, "decayed-to-zero entry dropped");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn controller_promotes_hot_and_votes_cold() {
        let cfg = AdaptiveConfig {
            promote_count: 3,
            demote_count: 0,
            ..AdaptiveConfig::default()
        };
        let ad = AdaptiveShared::new(&cfg);
        let mut inner = ad.inner.lock();
        for _ in 0..4 {
            inner.sketch.hit(Key(5));
        }
        inner.sketch.hit(Key(6));
        // Key 9 is replicated but absent from the sketch → cold vote.
        let d = controller_tick(&mut inner, &[Key(9)], &cfg);
        assert_eq!(d.promote, vec![Key(5)]);
        assert_eq!(d.demote, vec![Key(9)]);
        // Second tick: request outstanding, vote freshly cast → nothing.
        let d = controller_tick(&mut inner, &[Key(9)], &cfg);
        assert!(d.promote.is_empty() && d.demote.is_empty());
        // A still-cold key re-votes after the TTL (the home clears votes
        // on promotion interest; re-votes are the liveness backstop).
        let mut revoted = false;
        for _ in 0..=cfg.request_ttl_ticks {
            let d = controller_tick(&mut inner, &[Key(9)], &cfg);
            if d.demote == vec![Key(9)] {
                revoted = true;
                break;
            }
            assert!(d.demote.is_empty());
        }
        assert!(revoted, "cold vote re-sent after TTL");
        drop(inner);
        // The promotion broadcast clears the bookkeeping; a later cold
        // spell can vote again.
        ad.transition_applied(&[Key(5), Key(9)]);
        let mut inner = ad.inner.lock();
        let d = controller_tick(&mut inner, &[Key(9)], &cfg);
        assert_eq!(d.demote, vec![Key(9)]);
    }

    #[test]
    fn controller_reheat_clears_vote_and_requests() {
        let cfg = AdaptiveConfig {
            promote_count: 2,
            demote_count: 0,
            ..AdaptiveConfig::default()
        };
        let ad = AdaptiveShared::new(&cfg);
        let mut inner = ad.inner.lock();
        // Cold episode: vote to demote key 4.
        let d = controller_tick(&mut inner, &[Key(4)], &cfg);
        assert_eq!(d.demote, vec![Key(4)]);
        // Key 4 heats back up while still replicated: the re-heat request
        // goes out and the local vote is withdrawn.
        for _ in 0..4 {
            inner.sketch.hit(Key(4));
        }
        let d = controller_tick(&mut inner, &[Key(4)], &cfg);
        assert_eq!(d.promote, vec![Key(4)]);
        assert!(d.demote.is_empty());
        assert!(inner.voted_demote.is_empty());
    }

    #[test]
    fn sampling_gates_and_ticks() {
        let cfg = AdaptiveConfig {
            sample_every: 2,
            tick_every: 2,
            ..AdaptiveConfig::default()
        };
        let ad = AdaptiveShared::new(&cfg);
        assert!(ad.sample(Key(0), &cfg)); // access 0 → sampled (1st)
        assert!(!ad.sample(Key(0), &cfg)); // access 1 → skipped
        assert!(!ad.take_tick());
        assert!(ad.sample(Key(0), &cfg)); // access 2 → sampled (2nd) → tick
        assert!(ad.take_tick());
        assert!(!ad.take_tick(), "tick consumed once");
    }
}
