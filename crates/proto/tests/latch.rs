//! The shard latch (DESIGN.md §7, "Seqlock protocol"), through its guards
//! only.
//!
//! A shard's latch is the same word as its seqlock sequence: a write guard
//! sets `LOCKED | WRITING` by compare-and-swap and unlocks with one
//! release store of the next generation; a read guard sets `LOCKED` only
//! and restores the word. Nothing here reads racily — every access holds a
//! guard — so a race detector run over this file checks the latch's
//! acquire/release pairing without meeting the optimistic path's benign
//! races (`make tsan`).

#![allow(
    clippy::disallowed_methods,
    reason = "a test file: the determinism bans guard the crate's protocol paths, not the tests that drive them"
)]

use std::sync::{Arc, Barrier};

use lapse_net::{Key, NodeId};
use lapse_proto::shard::NodeShared;
use lapse_proto::{Layout, ProtoConfig};

const KEYS: u64 = 4;
const DIM: usize = 16;
const WRITERS: u64 = 2;
const READERS: u64 = 2;
const ADDS: u64 = 20_000;

/// One node whose keys all sit in one shard.
fn one_shard() -> Arc<NodeShared> {
    let mut cfg = ProtoConfig::new(1, KEYS, Layout::Uniform(DIM as u32));
    cfg.latches = 1;
    let shared = NodeShared::new(Arc::new(cfg), NodeId(0), Arc::new(|| 0));
    assert_eq!(shared.shards.len(), 1);
    shared
}

/// Writers add 1 to every element of a key through `write()`, readers
/// copy keys out through `read()`: every latched read sees all elements
/// equal (no write section overlaps it) and a generation that does not
/// move while it holds the guard, and the final values count every add.
#[test]
fn guards_exclude_writers_and_lose_no_add() {
    let shared = one_shard();
    let start = Barrier::new((WRITERS + READERS) as usize);
    let reads: u64 = std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (shared, start) = (&shared, &start);
            scope.spawn(move || {
                let one = [1.0f32; DIM];
                start.wait();
                for i in 0..ADDS {
                    let k = Key((w + i) % KEYS);
                    assert!(shared.shard_for(k).write().store.add(k, &one));
                }
            });
        }
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (shared, start) = (&shared, &start);
                scope.spawn(move || {
                    let mut copy = [0.0f32; DIM];
                    let mut last = [0.0f32; KEYS as usize];
                    start.wait();
                    for i in 0..ADDS {
                        let k = Key((r + i) % KEYS);
                        let cell = shared.shard_for(k);
                        let guard = cell.read();
                        let generation = cell.generation();
                        copy.copy_from_slice(guard.store.get(k).expect("owned"));
                        assert_eq!(
                            cell.generation(),
                            generation,
                            "a writer ran under a read guard"
                        );
                        drop(guard);
                        assert!(
                            copy.iter().all(|&x| x == copy[0]),
                            "torn latched read of {k}: {copy:?}"
                        );
                        assert!(copy[0] >= last[k.idx()], "{k} went back");
                        last[k.idx()] = copy[0];
                    }
                    ADDS
                })
            })
            .collect();
        readers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(reads, READERS * ADDS);
    let mut total = 0.0f32;
    for k in (0..KEYS).map(Key) {
        let v = shared.read_value(k).unwrap();
        assert!(v.iter().all(|&x| x == v[0]), "{k}: {v:?}");
        total += v[0];
    }
    assert_eq!(total, (WRITERS * ADDS) as f32, "an add was lost");
    // One generation per write section, none per read.
    assert_eq!(shared.shards[0].generation(), WRITERS * ADDS);
}

/// Writers contend for the latch long enough to reach the contended
/// path's yield, and a write guard held across a sleep makes the others
/// wait there: the sums stay exact.
#[test]
fn a_held_latch_makes_the_others_wait_not_fail() {
    let shared = one_shard();
    let k = Key(0);
    let held = shared.shard_for(k).write();
    let start = Barrier::new(3);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (shared, start) = (&shared, &start);
            scope.spawn(move || {
                start.wait();
                for _ in 0..1_000 {
                    assert!(shared.shard_for(k).write().store.add(k, &[1.0; DIM]));
                    drop(shared.shard_for(k).read());
                }
            });
        }
        start.wait();
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
    });
    assert_eq!(shared.read_value(k).unwrap(), vec![2_000.0; DIM]);
    assert_eq!(shared.shards[0].generation(), 2_001);
}
