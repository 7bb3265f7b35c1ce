//! Counter bumps carry no `lock` prefix (a relaxed load and a relaxed
//! store on the core's own lane), so they are exact only if no two
//! threads ever share a lane. One node, two workers and two snapshot
//! readers hammer the same few keys from four threads at once for a
//! fixed number of operations; the collected statistics must equal the
//! operation counts to the last key.

use std::sync::{Arc, Barrier};

use lapse_core::{run_threaded, ClusterStats, PsConfig, PsWorker, Variant};
use lapse_net::Key;

const KEYS: u64 = 8;
const DIM: usize = 4;
const ROUNDS: u64 = 20_000;
const WORKERS: u64 = 2;
/// Operations of each kind: every worker and every reader runs `ROUNDS`.
const OPS: u64 = WORKERS * ROUNDS;

/// Runs the four threads on `cfg` and checks the counts every read path
/// shares; returns the statistics for the path-specific ones.
fn hammer(cfg: PsConfig) -> ClusterStats {
    // Workers and readers start hammering together.
    let start = Arc::new(Barrier::new(2 * WORKERS as usize));
    let (reads, stats) = run_threaded(
        cfg.variant(Variant::Lapse),
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

    assert_eq!(stats.push_local, OPS);
    assert_eq!(stats.pull_local, OPS * (1 + KEYS + 1));
    // Pulls into caller buffers; `pull_if_local` is not value-plane.
    assert_eq!(stats.value_bytes_moved, OPS * (1 + KEYS) * 4 * DIM as u64);
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
    stats
}

#[test]
fn two_workers_and_two_readers_count_every_key_exactly_once() {
    let stats = hammer(PsConfig::new(1, KEYS, DIM as u32));
    // A read is served wait-free, or falls back when a push holds the
    // shard mid-write: counted once either way.
    assert_eq!(stats.snapshot_reads + stats.snapshot_fallbacks, OPS);
}

/// The wait-free switch covers the serving plane too: with it off (as
/// under `LAPSE_NO_SEQLOCK`, the sanitizer's configuration) no reader
/// copies racily, and every snapshot read is a latched one — whether the
/// switch is set through the builder or on the protocol configuration.
#[test]
fn with_wait_free_reads_off_every_snapshot_read_is_latched() {
    let mut direct = PsConfig::new(1, KEYS, DIM as u32);
    direct.proto.wait_free_reads = false;
    let builder = PsConfig::new(1, KEYS, DIM as u32).wait_free_reads(false);
    for cfg in [builder, direct] {
        let stats = hammer(cfg);
        assert_eq!((stats.snapshot_reads, stats.snapshot_fallbacks), (0, OPS));
    }
}
