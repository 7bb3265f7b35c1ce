//! The value-plane stress shared by `value_plane.rs` and `dispatch.rs`.
//!
//! Every worker hammers a Zipf-skewed key set with a deterministic mix
//! of sync pushes, async pushes, pulls, and localizes. Push terms are
//! small integers, so floating-point addition is exact and the expected
//! final state is order-independent: any lost, duplicated, or misrouted
//! value shows up as an exact mismatch.

#![allow(dead_code)] // each test crate uses its own subset

use lapse_core::{AdaptiveConfig, HotSet, PsConfig, PsWorker, Variant};
use lapse_net::Key;
use lapse_utils::rng::derive_rng;
use lapse_utils::zipf::Zipf;

pub const KEYS: u64 = 32;
pub const DIM: usize = 2;
const OPS: u64 = 150;
const SEED: u64 = 0x7A1E;

pub const VARIANTS: [Variant; 6] = [
    Variant::Classic,
    Variant::ClassicFastLocal,
    Variant::Lapse,
    Variant::Replication,
    Variant::Hybrid,
    Variant::Adaptive,
];

/// The stress configuration of one variant on `nodes` nodes.
pub fn stress_config(nodes: u16, variant: Variant) -> PsConfig {
    // Aggressive adaptive knobs so the Zipf head actually transitions
    // mid-run (promotions and — on cooled keys — demotions exercise
    // the fencing on both backends, not just the static routes).
    let adaptive = AdaptiveConfig {
        sample_every: 1,
        tick_every: 64,
        sketch_capacity: 16,
        promote_count: 8,
        demote_count: 0,
        ..Default::default()
    };
    PsConfig::new(nodes, KEYS, DIM as u32)
        .variant(variant)
        .hot_set(HotSet::Prefix(8))
        .adaptive(adaptive)
        .latches(8)
}

/// The deterministic key/op schedule of one worker: `(key, push value)`;
/// a zero push value means the op at that step is a pull or localize.
pub fn schedule(gid: u64) -> Vec<(Key, f32)> {
    let mut rng = derive_rng(SEED, gid);
    let zipf = Zipf::new(KEYS, 0.8);
    (0..OPS)
        .map(|i| {
            let k = Key(zipf.sample(&mut rng) - 1); // ranks are 1..=n
            let push = match i % 5 {
                0..=2 => (gid + 1) as f32,   // sync push
                3 => ((gid + 1) * 2) as f32, // async push
                _ => 0.0,                    // pull / localize
            };
            (k, push)
        })
        .collect()
}

/// Expected per-key totals: the sum of the push schedules of workers
/// `0..workers` (exact in f32 — all terms are small integers).
pub fn expected_state(workers: u64) -> Vec<f32> {
    let mut state = vec![0.0f32; (KEYS as usize) * DIM];
    for gid in 0..workers {
        for (k, push) in schedule(gid) {
            if push > 0.0 {
                for d in 0..DIM {
                    state[k.0 as usize * DIM + d] += push;
                }
            }
        }
    }
    state
}

/// What `workers` workers issue before the final polling: `(push keys,
/// pull keys)`. The schedule fixes both, whatever route each key takes
/// on whichever backend — so a cluster's counters must add up to them.
pub fn issued_keys(workers: u64) -> (u64, u64) {
    let (mut pushes, mut pulls) = (0, 0);
    for gid in 0..workers {
        for (i, (_, push)) in schedule(gid).into_iter().enumerate() {
            if push > 0.0 {
                pushes += 1;
            } else if i % 10 != 4 {
                pulls += 1;
            }
        }
    }
    (pushes, pulls)
}

/// One worker's part of the stress; returns the final state it read.
pub fn workload(w: &mut dyn PsWorker) -> Vec<f32> {
    let gid = w.global_id() as u64;
    let mut out = vec![0.0f32; DIM];
    let mut pending = Vec::new();
    for (i, (k, push)) in schedule(gid).into_iter().enumerate() {
        match i % 5 {
            0..=2 => w.push(&[k], &[push; DIM]),
            3 => pending.push(w.push_async(&[k], &[push; DIM])),
            _ => {
                if i % 10 == 4 {
                    w.localize(&[k]);
                } else {
                    w.pull(&[k], &mut out);
                }
            }
        }
    }
    for t in pending {
        w.wait(t);
    }
    w.advance_clock(); // propagate accumulated replicated pushes
    w.barrier();
    // Poll until every contribution is visible (replica propagation is
    // asynchronous; for the relocation variants the first pull already
    // matches). Charging keeps virtual time advancing on the simulator.
    let all: Vec<Key> = (0..KEYS).map(Key).collect();
    let workers = (w.num_nodes() * w.workers_per_node()) as u64;
    let expect: f32 = expected_state(workers).iter().sum();
    let mut state = vec![0.0f32; KEYS as usize * DIM];
    for _ in 0..200_000 {
        w.pull(&all, &mut state);
        if state.iter().sum::<f32>() == expect {
            break;
        }
        w.charge(10_000);
        std::hint::spin_loop();
    }
    w.barrier();
    state
}
