//! Who writes which cache line (DESIGN.md §7).
//!
//! Every line written on the operation path has one writer: a core's
//! counter lane, or a control block shared on purpose. These tests pin
//! the layout that claim rests on (plain address arithmetic — an
//! allocator or field-order change that folds two writers into one
//! 128-byte block fails here, not in a benchmark three PRs later) and
//! the counting it must not break.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Barrier};

use lapse_net::{Key, NodeId};
use lapse_proto::client::{ClientCore, IssueHandle};
use lapse_proto::server::ServerCore;
use lapse_proto::shard::NodeShared;
use lapse_proto::{Layout, ProtoConfig, SnapshotReader, Variant};

/// Line pairs: what the adjacent-line prefetcher pulls in together.
const BLOCK: usize = 128;

fn node(variant: Variant) -> Arc<NodeShared> {
    let mut cfg = ProtoConfig::new(1, 64, Layout::Uniform(4));
    cfg.variant = variant;
    cfg.latches = 16;
    cfg.wait_free_reads = true;
    NodeShared::new(Arc::new(cfg), NodeId(0), Arc::new(|| 0))
}

/// The 128-byte blocks `v` touches.
fn blocks<T>(v: &T) -> Range<usize> {
    let addr = v as *const T as usize;
    addr / BLOCK..(addr + std::mem::size_of::<T>().max(1)).div_ceil(BLOCK)
}

fn disjoint(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.end <= b.start || b.end <= a.start
}

/// (a) Two workers, the server and two readers on one node: no two of
/// their lanes, nor the serving epoch, the replica control words, the
/// adaptive sampler or any shard's head, share a 128-byte block with
/// each other or with the header fields every operation loads.
#[test]
fn every_written_block_is_apart_from_the_header_and_from_the_others() {
    let shared = node(Variant::Adaptive);
    let clients = [
        ClientCore::new(shared.clone(), 0),
        ClientCore::new(shared.clone(), 1),
    ];
    let server = ServerCore::new(shared.clone());
    let readers = [
        SnapshotReader::new(shared.clone()),
        SnapshotReader::new(shared.clone()),
    ];

    let mut written: Vec<(String, Range<usize>)> = vec![
        ("replica control".into(), blocks(&shared.replica)),
        ("serving state".into(), blocks(&shared.serving)),
        (
            "adaptive sampler".into(),
            blocks(shared.adaptive.as_ref().expect("adaptive variant")),
        ),
        ("server lane".into(), blocks(server.lane())),
    ];
    for (i, c) in clients.iter().enumerate() {
        written.push((format!("worker {i} lane"), blocks(c.lane())));
    }
    for (i, r) in readers.iter().enumerate() {
        written.push((format!("reader {i} lane"), blocks(r.lane())));
    }
    for (i, cell) in shared.shards.iter().enumerate() {
        written.push((format!("shard {i}"), blocks(cell)));
    }
    let header = [
        ("cfg", blocks(&shared.cfg)),
        ("node", blocks(&shared.node)),
        ("shards", blocks(&shared.shards)),
        ("tracker", blocks(&shared.tracker)),
        ("trace", blocks(&shared.trace)),
    ];

    for (i, (a_name, a)) in written.iter().enumerate() {
        for (h_name, h) in &header {
            assert!(
                disjoint(a, h),
                "{a_name} shares a block with header.{h_name}"
            );
        }
        for (b_name, b) in &written[i + 1..] {
            assert!(disjoint(a, b), "{a_name} shares a block with {b_name}");
        }
    }
    // The `Arc` counts sit right in front of the node state; it starts
    // on a block boundary, so they are in the block before the header.
    assert_eq!(Arc::as_ptr(&shared) as usize % BLOCK, 0);
    // Whole blocks only: nothing else can be allocated into the tail of
    // a lane or a shard.
    assert_eq!(std::mem::size_of_val(server.lane()) % BLOCK, 0);
    assert_eq!(std::mem::size_of_val(&shared.shards[0]) % BLOCK, 0);
}

/// A shard cell is three whole blocks, and the word that is both its
/// latch and its seqlock sequence opens the third: the two blocks before
/// it are the shard's (the store's header first). Located by what the
/// word does — `generation << 2`, plus `LOCKED` (1) under a read guard
/// and `LOCKED | WRITING` (3) under a write guard — not by a field name.
#[test]
fn the_latch_word_opens_the_third_block_of_a_shard_cell() {
    let shared = node(Variant::Lapse);
    let cell = &shared.shards[3];
    assert_eq!(std::mem::size_of_val(cell), 3 * BLOCK);
    assert_eq!(std::mem::align_of_val(cell), BLOCK);
    let base = cell as *const _ as *const u8;
    // SAFETY: `base + 2 * BLOCK` is inside the cell (three blocks), 8-byte
    // aligned, and only read here; every value the asserts accept is one
    // the word takes, and no other thread touches the node.
    let word =
        || unsafe { (*(base.add(2 * BLOCK) as *const std::sync::atomic::AtomicU64)).load(SeqCst) };
    for _ in 0..3 {
        let generation = cell.generation();
        assert_eq!(word(), generation << 2);
        let read = cell.read();
        assert_eq!(word(), generation << 2 | 1);
        drop(read);
        assert_eq!(word(), generation << 2);
        let write = cell.write();
        assert_eq!(word(), generation << 2 | 3);
        drop(write);
        assert_eq!(word(), (generation + 1) << 2);
    }
}

/// Readers come and go (one per serving thread, per request burst, …):
/// a dropped reader's lane goes to the next one with its counts, so the
/// node's lane set does not grow and nothing is lost from the sums.
#[test]
fn sequential_readers_share_one_lane_and_keep_their_counts() {
    let shared = node(Variant::Lapse);
    let mut out = [0.0f32; 4];
    let mut lane_addr = None;
    for round in 0..100u64 {
        let mut reader = SnapshotReader::new(shared.clone());
        let addr = reader.lane() as *const _ as usize;
        assert_eq!(*lane_addr.get_or_insert(addr), addr, "round {round}");
        assert!(reader.read(Key(round % 64), &mut out).is_some());
    }
    let s = shared.stats();
    assert_eq!(s.snapshot_reads + s.snapshot_fallbacks, 100);
}

/// Two readers alive at once never share a lane: each counts its own
/// reads, whichever path served them, and the node reports the sum.
#[test]
fn concurrent_readers_count_into_their_own_lanes() {
    let wait_free = node(Variant::Lapse);
    let mut out = [0.0f32; 4];
    let mut a = SnapshotReader::new(wait_free.clone());
    let mut b = SnapshotReader::new(wait_free.clone());
    for k in 0..10 {
        assert!(a.read(Key(k), &mut out).is_some());
    }
    for k in 0..3 {
        assert!(b.read(Key(k), &mut out).is_some());
    }
    assert_eq!(a.lane().snapshot().snapshot_reads, 10);
    assert_eq!(b.lane().snapshot().snapshot_reads, 3);
    let s = wait_free.stats();
    assert_eq!((s.snapshot_reads, s.snapshot_fallbacks), (13, 0));

    // With the wait-free path off every read is a latched fallback,
    // counted once.
    let mut cfg = ProtoConfig::new(1, 64, Layout::Uniform(4));
    cfg.wait_free_reads = false;
    let latched = NodeShared::new(Arc::new(cfg), NodeId(0), Arc::new(|| 0));
    let mut r = SnapshotReader::new(latched.clone());
    for k in 0..5 {
        assert!(r.read(Key(k), &mut out).is_some());
    }
    let s = latched.stats();
    assert_eq!((s.snapshot_reads, s.snapshot_fallbacks), (0, 5));
}

/// A snapshot taken while the lane's owner is counting is stale at
/// worst: it never runs ahead of the writer, never goes backwards, and
/// equals the op count exactly once the writer has stopped.
#[test]
fn mid_run_snapshots_are_stale_but_never_wrong() {
    const OPS: u64 = 200_000;
    let shared = node(Variant::Lapse);
    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut client = ClientCore::new(shared.clone(), 0);
            let (mut out, mut sink) = ([0.0f32; 4], Vec::new());
            start.wait();
            for i in 0..OPS {
                let h = client.pull(&[Key(i % 64)], Some(&mut out), &mut sink);
                assert!(matches!(h, IssueHandle::Ready(_)));
            }
            done.store(true, SeqCst);
        });
        start.wait();
        let mut last = 0;
        while !done.load(SeqCst) {
            let now = shared.stats().pull_local;
            assert!(last <= now && now <= OPS, "{last} then {now}");
            last = now;
        }
    });
    let s = shared.stats();
    assert_eq!((s.pull_local, s.value_bytes_moved), (OPS, OPS * 16));
}
