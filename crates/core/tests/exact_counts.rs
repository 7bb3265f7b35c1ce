//! Counter bumps carry no `lock` prefix (a relaxed load and a relaxed
//! store on the core's own lane), so they are exact only if no two
//! threads ever share a lane. One node, two workers and two snapshot
//! readers hammer the same few keys from four threads at once for a
//! fixed number of operations; the collected statistics must equal the
//! operation counts to the last key.

use std::sync::{Arc, Barrier};

use lapse_core::{run_threaded, PsConfig, PsWorker, Variant};
use lapse_net::Key;

const KEYS: u64 = 8;
const DIM: usize = 4;
const ROUNDS: u64 = 20_000;
const WORKERS: u64 = 2;

#[test]
fn two_workers_and_two_readers_count_every_key_exactly_once() {
    // Workers and readers start hammering together.
    let start = Arc::new(Barrier::new(2 * WORKERS as usize));
    let (reads, stats) = run_threaded(
        PsConfig::new(1, KEYS, DIM as u32).variant(Variant::Lapse),
        WORKERS as usize,
        |_| None,
        move |w: &mut dyn PsWorker| {
            let mut reader = w.snapshot_reader().expect("threaded backend");
            let group: Vec<Key> = (0..KEYS).map(Key).collect();
            std::thread::scope(|scope| {
                let serving = scope.spawn(|| {
                    let mut out = [0.0f32; DIM];
                    start.wait();
                    (0..ROUNDS)
                        .filter(|i| reader.read(Key(i % KEYS), &mut out).is_some())
                        .count() as u64
                });
                let (mut one, mut all) = ([0.0f32; DIM], [0.0f32; KEYS as usize * DIM]);
                start.wait();
                for i in 0..ROUNDS {
                    let k = Key(i % KEYS);
                    w.push(&[k], &[1.0; DIM]);
                    w.pull(&[k], &mut one);
                    w.pull(&group, &mut all);
                    assert!(w.pull_if_local(k, &mut one));
                }
                serving.join().expect("reader panicked")
            })
        },
    );
    assert_eq!(reads, [ROUNDS; WORKERS as usize], "every key is local");

    let ops = WORKERS * ROUNDS;
    assert_eq!(stats.push_local, ops);
    assert_eq!(stats.pull_local, ops * (1 + KEYS + 1));
    // Pulls into caller buffers; `pull_if_local` is not value-plane.
    assert_eq!(stats.value_bytes_moved, ops * (1 + KEYS) * 4 * DIM as u64);
    // A read is served wait-free, or falls back when a push holds the
    // shard mid-write: counted once either way.
    assert_eq!(stats.snapshot_reads + stats.snapshot_fallbacks, ops);
    assert_eq!(stats.snapshot_stale_waits, 0);
    let rest = [
        stats.pull_queued,
        stats.pull_remote,
        stats.pull_replica,
        stats.push_queued,
        stats.push_remote,
        stats.push_replica,
        stats.unexpected_relocates,
        stats.tracker_in_flight,
    ];
    assert_eq!(rest, [0; 8]);
    // One node: nothing but the final `Shutdown` crosses the transport.
    assert_eq!(stats.messages, 1);
}
