//! Probe-first `localize` under contention.
//!
//! `localize` decides "already local" for each key from an unlatched
//! probe and takes the write latch only for the keys the probe found
//! absent. Here two workers on two nodes keep localizing 1 000-key sets
//! that overlap in 500 keys while pushing to them, so contested keys
//! leave a node between its worker's probe and latch, and arrive between
//! them, all the time. Every localize has to complete, no push may be
//! lost or applied twice, and no node may be told to hand over a key it
//! neither owns nor expects.

use lapse_core::{run_threaded, PsConfig, PsWorker, Variant};
use lapse_net::Key;

const KEYS: u64 = 1_500;
const DIM: usize = 2;
const SET: u64 = 1_000;
const ROUNDS: u64 = 30;
const CHUNK: usize = 100;

/// Worker `gid`'s keys: `[0, 1000)` and `[500, 1500)`.
fn set_of(gid: u64) -> std::ops::Range<u64> {
    gid * (KEYS - SET)..gid * (KEYS - SET) + SET
}

#[test]
fn overlapping_localizes_complete_and_no_push_is_lost() {
    let (states, stats) = run_threaded(
        PsConfig::new(2, KEYS, DIM as u32).variant(Variant::Lapse),
        1,
        |_| None,
        |w: &mut dyn PsWorker| {
            let set: Vec<Key> = set_of(w.global_id() as u64).map(Key).collect();
            let ones = [1.0f32; CHUNK * DIM];
            w.barrier(); // both start together
            for round in 0..ROUNDS {
                // Returning is completing: a sync localize waits for
                // every hand-over it asked for.
                if round % 2 == 0 {
                    w.localize(&set);
                } else {
                    let token = w.localize_async(&set);
                    w.wait(token);
                }
                // The other worker is pulling the contested half away
                // meanwhile: these run local, parked and remote.
                for chunk in set.chunks(CHUNK) {
                    w.push(chunk, &ones);
                }
            }
            w.barrier();
            let all: Vec<Key> = (0..KEYS).map(Key).collect();
            let mut state = vec![0.0f32; KEYS as usize * DIM];
            w.pull(&all, &mut state);
            w.barrier();
            state
        },
    );

    // One push of 1.0 per round from every worker whose set holds the key
    // (small integers: exact in f32 whatever the order).
    let expected: Vec<f32> = (0..KEYS)
        .flat_map(|k| {
            let holders = (0..2).filter(|&g| set_of(g).contains(&k)).count() as u64;
            [(ROUNDS * holders) as f32; DIM]
        })
        .collect();
    for state in &states {
        assert_eq!(state, &expected);
    }

    assert_eq!(stats.unexpected_relocates, 0);
    assert_eq!(stats.tracker_in_flight, 0);
    let pushed = stats.push_local + stats.push_queued + stats.push_remote;
    assert_eq!(pushed, 2 * ROUNDS * SET, "every push key took one route");
    // The contested keys did go back and forth.
    assert!(
        stats.relocations > KEYS - SET,
        "only {} relocations: the sets never contended",
        stats.relocations
    );
}
