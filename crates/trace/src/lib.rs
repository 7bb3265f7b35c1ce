//! Always-compiled-in flight recorder for the Lapse protocol planes.
//!
//! The paper's analyses (Table 5 locality splits, §3.2 relocation-time
//! distributions, the ablation message counts) are questions an operator
//! asks of a *live* parameter server; end-of-run counters cannot answer
//! *when* a relocation stalled or which phase of a grouped op ate the
//! p999. This crate records compact binary events into per-lane ring
//! buffers so the last moments before any protocol bug are a readable
//! timeline instead of a bench bisect.
//!
//! ## Hot-path contract
//!
//! * **Off** (the default): instrumented call sites hold an
//!   `Option<...>` that is `None`, or check [`Recorder::on`] — a single
//!   relaxed atomic load. No ring is touched, no lock is taken.
//! * **On**: one global sequence `fetch_add`, one clock read, and five
//!   relaxed stores into a fixed-capacity power-of-two ring that
//!   overwrites its oldest slot. No allocation, no lock, no syscall.
//!
//! ## Rings and torn-record safety
//!
//! Each lane ([`Ring`]) is a power-of-two array of slots claimed by a
//! `fetch_add` head. A writer CASes the slot's stamp from even to odd,
//! stores the five event words, and releases the stamp back to a fresh
//! even value. A writer that laps a still-odd slot *drops* its event
//! (counted in [`Ring::dropped`]) rather than tearing the laggard's —
//! exported records are therefore always internally consistent, even
//! with multiple writers on one lane.
//!
//! ## Time and determinism
//!
//! Timestamps come from a [`TimeFn`] — the same `Arc<dyn Fn() -> u64>`
//! shape as the op tracker's clock, so each backend passes the clock it
//! already has: the simulator's virtual nanoseconds (bit-deterministic;
//! on the sim backend at most one thread runs at a time, so the global
//! sequence counter is deterministic too and exports diff byte-for-byte
//! across seeded runs) or the threaded runtime's monotonic elapsed-ns
//! closure. The recorder itself never reads a wall clock.
//!
//! ## Exports and triggers
//!
//! [`Recorder::export_chrome`] emits Chrome trace-event JSON (loadable
//! in Perfetto: per-node process tracks, per-actor threads, phase spans
//! and instants); [`Recorder::export_text`] is the human-readable dump.
//! A chained panic hook plus explicit protocol triggers (unexpected
//! relocates, the sim scheduler's deadlock diagnostic — a panic, so the
//! hook covers it) flush every live recorder via [`dump_all`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex, Once, Weak};

use lapse_utils::stats::FixedHistogram;
use parking_lot::Mutex;

mod export;

/// Nanosecond clock used to stamp events — same shape as the proto op
/// tracker's `ClockFn`, so backends reuse the clock they already built
/// (virtual time on sim, monotonic elapsed on threaded).
pub type TimeFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Declares [`EventKind`] once: discriminant, variant and dotted name per
/// row, read as the enum, its decoder and its names.
macro_rules! event_kinds {
    ($($(#[$doc:meta])* $disc:literal $variant:ident $name:literal,)*) => {
        /// Compact event vocabulary. Field meanings per kind are
        /// documented on the variant; `a`/`b` are kind-specific payload
        /// words.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum EventKind {
            $($(#[$doc])* $variant = $disc,)*
        }

        impl EventKind {
            /// Decodes a wire byte; `None` for bytes outside the
            /// vocabulary.
            pub fn from_u8(x: u8) -> Option<EventKind> {
                match x {
                    $($disc => Some(EventKind::$variant),)*
                    _ => None,
                }
            }

            /// Stable dotted name used by both exporters.
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$variant => $name,)*
                }
            }
        }
    };
}

event_kinds! {
    /// A grouped op was issued. `a` = op class, `b` = key count.
    0 OpIssue "op.issue",
    /// One issue phase finished (span). `a` packs `class << 32 | phase`
    /// (phase 0 plan, 1 shard, 2 emit), `b` = duration ns; the event
    /// timestamp is the phase *end*.
    1 OpPhase "op.phase",
    /// An op completed (last response consumed). `a` = op class,
    /// `b` = op sequence number.
    2 OpComplete "op.complete",
    /// A message left a node. `a` = destination node, `b` = payload
    /// bytes.
    3 MsgSend "msg.send",
    /// A server consumed a message. `a` = wire tag, `b` = key count.
    4 MsgRecv "msg.recv",
    /// A batch/burst boundary. `a` = destination (or 0 for an ingest
    /// burst), `b` = messages in the batch.
    5 MsgBatch "msg.batch",
    /// Home node started relocating a key. `a` = key, `b` = old owner.
    6 RelocStart "reloc.start",
    /// Old owner handed a key's value over. `a` = key, `b` = new owner.
    7 RelocHandOver "reloc.handover",
    /// New owner installed a relocated value. `a` = key, `b` = value
    /// length.
    8 RelocInstall "reloc.install",
    /// A `Relocate` arrived for a key neither owned nor expected —
    /// the invariant-violation trigger. `a` = key.
    9 RelocUnexpected "reloc.unexpected",
    /// Management node asked an owner to promote. `a` = key.
    10 TechPromote "tech.promote",
    /// Promotion finished on the owner. `a` = key, `b` = epoch.
    11 TechPromoteAck "tech.promote_ack",
    /// Demotion started. `a` = key, `b` = epoch.
    12 TechDemote "tech.demote",
    /// Demotion drained and completed. `a` = key, `b` = epoch.
    13 TechDrained "tech.drained",
    /// Snapshot-plane read served. `a` = tier (0 owned, 1 replica,
    /// 2 latched), `b` = key.
    14 SnapshotRead "snapshot.read",
    /// A shard-latch acquisition had to wait (span). `a` = shard index,
    /// `b` = wait ns; the event timestamp is the acquisition.
    15 LatchWait "latch.wait",
}

impl EventKind {
    /// Span kinds render as Chrome `"X"` complete events (the stamp is
    /// the span end, `b` the duration); everything else is an instant.
    pub fn is_span(self) -> bool {
        matches!(self, EventKind::OpPhase | EventKind::LatchWait)
    }
}

/// Op classes used by `OpIssue`/`OpPhase`/`OpComplete` payloads.
pub const CLASS_PULL: u64 = 0;
/// See [`CLASS_PULL`].
pub const CLASS_PUSH: u64 = 1;
/// See [`CLASS_PULL`].
pub const CLASS_LOCALIZE: u64 = 2;

/// Issue phases used by `OpPhase` payloads.
pub const PHASE_PLAN: u64 = 0;
/// See [`PHASE_PLAN`].
pub const PHASE_SHARD: u64 = 1;
/// See [`PHASE_PLAN`].
pub const PHASE_EMIT: u64 = 2;

pub(crate) const CLASS_NAMES: [&str; 3] = ["pull", "push", "localize"];
pub(crate) const PHASE_NAMES: [&str; 3] = ["plan", "shard", "emit"];

/// One decoded event, in global-sequence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Recorder-global sequence number: a total order over all lanes
    /// (deterministic on the sim backend, where at most one thread runs
    /// at a time).
    pub seq: u64,
    /// Nanosecond timestamp from the [`TimeFn`].
    pub ts: u64,
    pub kind: EventKind,
    /// Node the recording actor belongs to.
    pub node: u16,
    /// Actor within the node (see the `ACTOR_*` constants).
    pub actor: u16,
    pub a: u64,
    pub b: u64,
}

/// Actor id of a node's server thread/task.
pub const ACTOR_SERVER: u16 = 0;
/// Actor id of worker slot `w` is `ACTOR_WORKER0 + w`.
pub const ACTOR_WORKER0: u16 = 1;
/// Actor id of the node's network egress lane.
pub const ACTOR_NET: u16 = 1000;
/// Actor id of the node's shard-latch lane.
pub const ACTOR_LATCH: u16 = 1001;
/// Actor id of the node's snapshot-serving lane.
pub const ACTOR_SERVING: u16 = 1002;

/// One ring slot: a seqlock-style stamp (odd while a writer owns the
/// slot) plus the five packed event words.
struct Slot {
    stamp: AtomicU64,
    words: [AtomicU64; 5],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; 5],
        }
    }
}

/// A fixed-capacity, overwrite-oldest event lane. Writers never block:
/// a slot still owned by a lapped writer drops the new event instead of
/// tearing the old one.
pub struct Ring {
    node: u16,
    actor: u16,
    name: String,
    mask: u64,
    head: AtomicU64,
    dropped: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(node: u16, actor: u16, name: String, capacity: usize) -> Ring {
        let cap = capacity.next_power_of_two().max(8);
        Ring {
            node,
            actor,
            name,
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::new()).collect(),
        }
    }

    /// Node this lane belongs to.
    pub fn node(&self) -> u16 {
        self.node
    }

    /// Actor id of this lane.
    pub fn actor(&self) -> u16 {
        self.actor
    }

    /// Human-readable lane label (Perfetto thread name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Events dropped because a lapped slot was still being written.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one event. Lock-free and wait-free: claims a slot with a
    /// single CAS and abandons the event (never the slot) on conflict.
    fn write(&self, seq: u64, ts: u64, kind: EventKind, a: u64, b: u64) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx & self.mask) as usize];
        let stamp = slot.stamp.load(Ordering::Acquire);
        if stamp & 1 == 1 {
            // A lapped writer still owns this slot; dropping the new
            // event keeps every exported record whole.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if slot
            .stamp
            .compare_exchange(stamp, stamp | 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let packed = kind as u64 | (self.node as u64) << 8 | (self.actor as u64) << 24;
        slot.words[0].store(seq, Ordering::Relaxed);
        slot.words[1].store(ts, Ordering::Relaxed);
        slot.words[2].store(packed, Ordering::Relaxed);
        slot.words[3].store(a, Ordering::Relaxed);
        slot.words[4].store(b, Ordering::Relaxed);
        // Fresh even stamp: distinct per lap, never 0 (0 = never
        // written), so readers can validate a stable snapshot.
        slot.stamp.store((idx + 1) << 1, Ordering::Release);
    }

    /// Decodes the currently valid slots. Safe concurrently with
    /// writers (stamp-validated), intended for a quiesced ring: slots
    /// mid-write or overwritten during the scan are skipped.
    fn snapshot(&self, out: &mut Vec<Event>) {
        for slot in self.slots.iter() {
            let s1 = slot.stamp.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue;
            }
            let w: Vec<u64> = slot
                .words
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect();
            if slot.stamp.load(Ordering::Acquire) != s1 {
                continue;
            }
            let Some(kind) = EventKind::from_u8((w[2] & 0xff) as u8) else {
                continue;
            };
            out.push(Event {
                seq: w[0],
                ts: w[1],
                kind,
                node: ((w[2] >> 8) & 0xffff) as u16,
                actor: ((w[2] >> 24) & 0xffff) as u16,
                a: w[3],
                b: w[4],
            });
        }
    }
}

/// Per-phase issue-latency histograms, one [`FixedHistogram`] per
/// op class × phase (1 µs buckets, 2 ms span; the overflow bucket
/// reports exact maxima beyond that).
pub struct PhaseHist {
    hist: [[FixedHistogram; 3]; 3],
}

impl PhaseHist {
    fn new() -> PhaseHist {
        PhaseHist {
            hist: std::array::from_fn(|_| {
                std::array::from_fn(|_| FixedHistogram::new(1_000, 2048))
            }),
        }
    }

    /// The histogram for (`class`, `phase`) — indices as in the
    /// `CLASS_*` / `PHASE_*` constants.
    pub fn get(&self, class: usize, phase: usize) -> &FixedHistogram {
        &self.hist[class][phase]
    }
}

/// Registry of live recorders, flushed by the panic hook. Weak refs
/// only: a dropped cluster's recorder unregisters itself by expiring.
static REGISTRY: StdMutex<Vec<Weak<Recorder>>> = StdMutex::new(Vec::new());
static HOOK: Once = Once::new();
static DUMPING: AtomicBool = AtomicBool::new(false);

/// Text-dumps every live, enabled recorder (panic hook and explicit
/// invariant-violation triggers). Re-entrant calls no-op.
pub fn dump_all(reason: &str) {
    if DUMPING.swap(true, Ordering::AcqRel) {
        return;
    }
    let recorders: Vec<Arc<Recorder>> = match REGISTRY.lock() {
        Ok(mut reg) => {
            reg.retain(|w| w.strong_count() > 0);
            reg.iter().filter_map(|w| w.upgrade()).collect()
        }
        Err(_) => Vec::new(),
    };
    for rec in recorders {
        if rec.on() {
            rec.dump(reason);
        }
    }
    DUMPING.store(false, Ordering::Release);
}

/// The flight recorder: one per cluster run, shared by every node's
/// cores and lanes. See the crate docs for the hot-path contract.
pub struct Recorder {
    enabled: AtomicBool,
    time: TimeFn,
    capacity: usize,
    seq: AtomicU64,
    lanes: Mutex<Vec<Arc<Ring>>>,
    phases: Mutex<PhaseHist>,
    last_dump: Mutex<Option<String>>,
}

impl Recorder {
    /// An enabled recorder stamping events with `time`, with `capacity`
    /// slots per lane (rounded up to a power of two, min 8). Registers
    /// with the panic-hook flush registry.
    pub fn new(time: TimeFn, capacity: usize) -> Arc<Recorder> {
        let rec = Arc::new(Recorder {
            enabled: AtomicBool::new(true),
            time,
            capacity,
            seq: AtomicU64::new(0),
            lanes: Mutex::new(Vec::new()),
            phases: Mutex::new(PhaseHist::new()),
            last_dump: Mutex::new(None),
        });
        if let Ok(mut reg) = REGISTRY.lock() {
            reg.retain(|w| w.strong_count() > 0);
            reg.push(Arc::downgrade(&rec));
        }
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                dump_all("panic");
                prev(info);
            }));
        });
        rec
    }

    /// The no-op recorder: never records, never registers. Call sites
    /// built against it skip instrumentation via `None` tracers.
    pub fn disabled() -> Arc<Recorder> {
        Arc::new(Recorder {
            enabled: AtomicBool::new(false),
            time: Arc::new(|| 0),
            capacity: 8,
            seq: AtomicU64::new(0),
            lanes: Mutex::new(Vec::new()),
            phases: Mutex::new(PhaseHist::new()),
            last_dump: Mutex::new(None),
        })
    }

    /// The off-gate: one relaxed load.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Current recorder time in nanoseconds.
    #[inline]
    pub fn now(&self) -> u64 {
        (self.time)()
    }

    /// Creates (and registers for export) a new event lane; outside this
    /// crate a lane comes with its recorder, as a [`Tracer`].
    pub(crate) fn lane(&self, node: u16, actor: u16, name: impl Into<String>) -> Arc<Ring> {
        let ring = Arc::new(Ring::new(node, actor, name.into(), self.capacity));
        self.lanes.lock().push(Arc::clone(&ring));
        ring
    }

    /// The hookup of one actor: a new lane of this recorder and the
    /// recorder itself. `None` when tracing is off, so that the actor
    /// holds `None` and its untraced paths cost one pointer test.
    pub fn tracer(
        self: &Arc<Self>,
        node: u16,
        actor: u16,
        name: impl Into<String>,
    ) -> Option<Tracer> {
        self.on().then(|| Tracer {
            ring: self.lane(node, actor, name),
            rec: Arc::clone(self),
        })
    }

    /// Records one event stamped `now()` into `ring`.
    #[inline]
    pub fn record(&self, ring: &Ring, kind: EventKind, a: u64, b: u64) {
        if !self.on() {
            return;
        }
        self.record_at(ring, kind, self.now(), a, b);
    }

    /// Records one event with an explicit timestamp (span ends measured
    /// by the caller).
    #[inline]
    pub fn record_at(&self, ring: &Ring, kind: EventKind, ts: u64, a: u64, b: u64) {
        if !self.on() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        ring.write(seq, ts, kind, a, b);
    }

    /// Feeds one grouped op's plan/shard/emit durations into the
    /// per-class phase histograms (one lock, off the per-key path).
    pub fn record_op_phases(&self, class: u64, plan_ns: u64, shard_ns: u64, emit_ns: u64) {
        if !self.on() {
            return;
        }
        let c = (class as usize).min(2);
        let mut phases = self.phases.lock();
        phases.hist[c][PHASE_PLAN as usize].record(plan_ns);
        phases.hist[c][PHASE_SHARD as usize].record(shard_ns);
        phases.hist[c][PHASE_EMIT as usize].record(emit_ns);
    }

    /// Runs `f` over the phase histograms (export/report hook).
    pub fn with_phases<R>(&self, f: impl FnOnce(&PhaseHist) -> R) -> R {
        f(&self.phases.lock())
    }

    /// All currently valid events across all lanes, in global-sequence
    /// order (ties — only possible for torn snapshots of a live ring —
    /// break by lane identity).
    pub fn take_events(&self) -> Vec<Event> {
        let lanes = self.lanes.lock().clone();
        let mut out = Vec::new();
        for ring in &lanes {
            ring.snapshot(&mut out);
        }
        out.sort_by_key(|e| (e.seq, e.node, e.actor));
        out
    }

    /// Total events dropped across lanes (lapped-writer conflicts).
    pub fn dropped(&self) -> u64 {
        self.lanes.lock().iter().map(|r| r.dropped()).sum()
    }

    /// Chrome trace-event JSON (Perfetto-loadable): per-node process
    /// tracks, per-lane threads, `"X"` spans for phase/latch events and
    /// `"i"` instants for the rest. Deterministic given deterministic
    /// events: lanes are sorted, timestamps formatted by integer math.
    pub fn export_chrome(&self) -> String {
        export::chrome(self)
    }

    /// Human-readable dump: lane inventory, the event log in sequence
    /// order, and per-class phase percentiles.
    pub fn export_text(&self) -> String {
        export::text(self)
    }

    /// Flushes the text dump to stderr and stashes it for
    /// [`Recorder::last_dump`] (the invariant-violation triggers and
    /// the panic hook land here).
    pub fn dump(&self, reason: &str) {
        let text = format!(
            "==== lapse-trace dump: {reason} ====\n{}",
            self.export_text()
        );
        eprintln!("{text}");
        *self.last_dump.lock() = Some(text);
    }

    /// The most recent [`Recorder::dump`] output, if any.
    pub fn last_dump(&self) -> Option<String> {
        self.last_dump.lock().clone()
    }

    pub(crate) fn lanes_sorted(&self) -> Vec<Arc<Ring>> {
        let mut lanes = self.lanes.lock().clone();
        lanes.sort_by(|x, y| {
            (x.node, x.actor, x.name.as_str()).cmp(&(y.node, y.actor, y.name.as_str()))
        });
        lanes
    }
}

/// One actor's hookup to the flight recorder — a worker, a server, a
/// snapshot reader, a node's latches or its network egress: the run's
/// [`Recorder`] and the actor's own [`Ring`]. Built by
/// [`Recorder::tracer`].
#[derive(Clone)]
pub struct Tracer {
    rec: Arc<Recorder>,
    ring: Arc<Ring>,
}

impl Tracer {
    /// Records one event stamped now into this actor's lane.
    #[inline]
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        self.rec.record(&self.ring, kind, a, b);
    }

    /// Records one event with an explicit timestamp (span ends measured
    /// by the caller).
    #[inline]
    pub fn record_at(&self, kind: EventKind, ts: u64, a: u64, b: u64) {
        self.rec.record_at(&self.ring, kind, ts, a, b);
    }

    /// Current recorder time in nanoseconds.
    #[inline]
    pub fn now(&self) -> u64 {
        self.rec.now()
    }

    /// The recorder this actor records into (phase histograms, dumps).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.on())
            .field("capacity", &self.capacity)
            .field("lanes", &self.lanes.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_time() -> TimeFn {
        let t = AtomicU64::new(0);
        Arc::new(move || t.fetch_add(10, Ordering::Relaxed))
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let rec = Recorder::new(fixed_time(), 8);
        let ring = rec.lane(0, ACTOR_WORKER0, "n0/w0");
        for i in 0..20u64 {
            rec.record(&ring, EventKind::OpIssue, i, i * 2);
        }
        let events = rec.take_events();
        assert_eq!(events.len(), 8, "capacity-8 ring holds the last 8 events");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
        for e in &events {
            assert_eq!(e.a, e.seq);
            assert_eq!(e.b, e.seq * 2);
            assert_eq!(e.kind, EventKind::OpIssue);
            assert_eq!((e.node, e.actor), (0, ACTOR_WORKER0));
        }
        assert_eq!(rec.dropped(), 0, "single writer never drops");
    }

    #[test]
    fn multi_writer_stress_no_torn_records() {
        const MAGIC: u64 = 0x5eed_cafe_f00d_beef;
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 4000;
        let rec = Recorder::new(Arc::new(|| 7), 64);
        let ring = rec.lane(3, ACTOR_SERVER, "n3/server");
        std::thread::scope(|scope| {
            for w in 0..WRITERS as u64 {
                let rec = &rec;
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        let a = w * PER_WRITER + i;
                        rec.record(ring, EventKind::MsgRecv, a, a ^ MAGIC);
                    }
                });
            }
        });
        let events = rec.take_events();
        assert!(!events.is_empty());
        assert!(events.len() <= 64);
        let mut seen = std::collections::BTreeSet::new();
        for e in &events {
            // The claim protocol forbids torn records: every exported
            // event's words must be one writer's matched (a, b) pair.
            assert_eq!(e.b, e.a ^ MAGIC, "torn record: a={} b={}", e.a, e.b);
            assert_eq!(e.kind, EventKind::MsgRecv);
            assert_eq!((e.node, e.actor), (3, ACTOR_SERVER));
            assert!(seen.insert(e.seq), "duplicate seq {}", e.seq);
        }
        let total = events.len() as u64 + rec.dropped();
        assert!(total <= WRITERS as u64 * PER_WRITER);
    }

    #[test]
    fn span_and_instant_round_trip() {
        let rec = Recorder::new(Arc::new(|| 1500), 16);
        let ring = rec.lane(1, ACTOR_LATCH, "n1/latch");
        rec.record_at(&ring, EventKind::LatchWait, 2500, 4, 1000);
        rec.record(&ring, EventKind::RelocStart, 42, 0);
        let events = rec.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::LatchWait);
        assert!(events[0].kind.is_span());
        assert_eq!(events[0].ts, 2500);
        assert_eq!(events[1].ts, 1500);
        assert!(!events[1].kind.is_span());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.on());
        assert!(rec.tracer(0, ACTOR_SERVER, "n0/server").is_none());
        let ring = rec.lane(0, ACTOR_SERVER, "n0/server");
        rec.record(&ring, EventKind::MsgSend, 1, 2);
        rec.record_op_phases(CLASS_PULL, 1, 2, 3);
        assert!(rec.take_events().is_empty());
        assert_eq!(rec.with_phases(|p| p.get(0, 0).count()), 0);
    }

    #[test]
    fn phase_histograms_accumulate() {
        let rec = Recorder::new(Arc::new(|| 0), 8);
        for i in 0..100 {
            rec.record_op_phases(CLASS_PUSH, 1_000 + i, 2_000, 3_000_000);
        }
        rec.with_phases(|p| {
            let plan = p.get(CLASS_PUSH as usize, PHASE_PLAN as usize);
            assert_eq!(plan.count(), 100);
            assert!(plan.p50() >= 1_000);
            let emit = p.get(CLASS_PUSH as usize, PHASE_EMIT as usize);
            assert_eq!(emit.max(), 3_000_000, "overflow keeps exact max");
            assert_eq!(p.get(CLASS_PULL as usize, 0).count(), 0);
        });
    }

    #[test]
    fn dump_stashes_text() {
        let rec = Recorder::new(Arc::new(|| 5), 8);
        let ring = rec.lane(0, ACTOR_SERVER, "n0/server");
        rec.record(&ring, EventKind::RelocUnexpected, 99, 0);
        assert!(rec.last_dump().is_none());
        rec.dump("test trigger");
        let dump = rec.last_dump().expect("dump stashed");
        assert!(dump.contains("test trigger"));
        assert!(dump.contains("reloc.unexpected"));
        assert!(dump.contains("99"));
    }
}
