//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! root of the repository is `--print-contract` of this table (a test
//! keeps the two equal), and a run reports exactly these names.

use std::collections::BTreeMap;

use crate::json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics, which carry no
    /// bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Seconds one run measures (`run_seconds` of the contract): the driver
/// makes 92 runs of about three seconds more than this each and two
/// builds within 3420 s.
pub const RUN_SECONDS: u64 = 25;

/// The four workloads; names are fixed, later issues cite them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "mf_blocked",
        "MF with DSGD parameter blocking: after each sub-epoch localize every access is local, so \
         client fast path, shard, storage and kernels do all the work and comms none",
    ),
    (
        "kge_hiding",
        "ComplEx with data clustering and one-step-ahead localize: reads are local because keys \
         relocate constantly, so server, tracker, coalescer and the wake chain dominate",
    ),
    (
        "w2v_hybrid",
        "Word2Vec on the Hybrid variant: replica flush and refresh broadcasts beside relocation on \
         skewed keys, the only workload that runs the replica tier",
    ),
    (
        "serve_train",
        "Open-loop snapshot reads beside a trainer on the same keys of one node: seqlock read path \
         against the write-side generation bump, no messages at all",
    ),
];

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// them (the driver's contract), so each is defined on all four; the
/// README says what each means where. The bounds are at least twice the
/// widest spread between ten runs on the 2-vCPU shared host the
/// benchmark was written on, measured while its neighbours were busy
/// (README, "Measured spread"): the host, not the program, sets them.
pub const END_TO_END: [Def; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("epoch_s", "s", Lower, 0.25),
    e2e("final_loss", "loss/example", Lower, 0.2),
    e2e("serve_p50_ns", "ns", Lower, 0.25),
    e2e("serve_reads_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single-layer numbers, ungated. A metric that does not apply to a
/// workload (replica counters off `w2v_hybrid`, simulator rows on
/// `serve_train`) reads 0 there.
pub const PER_LAYER: [Def; 72] = [
    // Source A: API-boundary spans and cluster counters of the traced run.
    layer("api.compute_share", "ratio", Higher),
    layer("api.pull_share", "ratio", Lower),
    layer("api.push_share", "ratio", Lower),
    layer("api.localize_share", "ratio", Lower),
    layer("api.wait_share", "ratio", Lower),
    layer("api.barrier_share", "ratio", Lower),
    layer("api.clock_share", "ratio", Lower),
    layer("api.pull_p50_ns", "ns", Lower),
    layer("api.push_p50_ns", "ns", Lower),
    layer("api.wait_p50_us", "us", Lower),
    layer("api.calls_per_example", "count", Lower),
    layer("api.trace_overhead_share", "ratio", Lower),
    layer("client.local_share", "ratio", Higher),
    layer("client.remote_keys_per_example", "count", Lower),
    layer("server.relocations_per_example", "count", Lower),
    layer("server.msgs_per_relocation", "count", Lower),
    layer("coalesce.envelopes_per_example", "count", Lower),
    layer("coalesce.msgs_per_batch", "count", Higher),
    layer("codec.bytes_per_example", "B", Lower),
    layer("replica.pull_share", "ratio", Higher),
    layer("replica.flushes_per_kexample", "count", Lower),
    layer("replica.refresh_keys_per_flush", "count", Lower),
    layer("storage.value_bytes_per_example", "B", Lower),
    layer("storage.heap_allocs_per_kexample", "count", Lower),
    layer("tracker.in_flight_end", "count", Lower),
    layer("serving.p99_due_ns", "ns", Lower),
    layer("serving.p999_due_ns", "ns", Lower),
    layer("serving.late_share", "ratio", Lower),
    layer("serving.generator_lag_p99_ns", "ns", Lower),
    layer("serving.fallback_share", "ratio", Lower),
    layer("serving.stale_wait_share", "ratio", Lower),
    layer("serving.service_p50_ns", "ns", Lower),
    layer("serving.train_ops_per_s", "1/s", Higher),
    layer("checks.failed_share", "ratio", Lower),
    // Source B: the hand-cranked waterfall, ns per call.
    layer("ml.sgd_step_ns", "ns", Lower),
    layer("ml.adagrad_delta_ns", "ns", Lower),
    layer("client.pull_local2_ns", "ns", Lower),
    layer("client.push_local2_ns", "ns", Lower),
    layer("client.issue_remote64_ns", "ns", Lower),
    layer("client.issue_push64_ns", "ns", Lower),
    layer("client.finish_pull64_ns", "ns", Lower),
    layer("client.localize_issue_ns", "ns", Lower),
    layer("shard.read_guard_ns", "ns", Lower),
    layer("shard.write_guard_ns", "ns", Lower),
    layer("shard.optimistic_read_ns", "ns", Lower),
    layer("storage.get_ns", "ns", Lower),
    layer("storage.add_ns", "ns", Lower),
    layer("storage.take_insert_ns", "ns", Lower),
    layer("tracker.roundtrip64_ns", "ns", Lower),
    layer("coalesce.pack_ns_per_msg", "ns", Lower),
    layer("codec.encode64_ns", "ns", Lower),
    layer("codec.decode64_ns", "ns", Lower),
    layer("transport.send_recv_ns", "ns", Lower),
    layer("transport.pingpong_rtt_us", "us", Lower),
    layer("server.op_run64_ns", "ns", Lower),
    layer("server.push_run64_ns", "ns", Lower),
    layer("server.op_resp64_ns", "ns", Lower),
    layer("server.relocate_chain_ns", "ns", Lower),
    layer("serving.read_owned_ns", "ns", Lower),
    layer("threaded.remote_pull1_rtt_us", "us", Lower),
    layer("threaded.remote_pull1_cpu_us", "us", Lower),
    layer("threaded.localize1_rtt_us", "us", Lower),
    layer("threaded.localize1_cpu_us", "us", Lower),
    layer("threaded.handoff_share", "ratio", Lower),
    layer("sim.virtual_epoch_s", "s", Lower),
    layer("sim.messages", "count", Lower),
    layer("sim.relocations", "count", Lower),
    layer("sim.wall_s", "s", Lower),
    layer("sim.msgs_vs_threaded", "ratio", Lower),
    layer("host.line_pingpong_ns", "ns", Lower),
    layer("baseline.epoch_1x1_s", "s", Lower),
    layer("baseline.speedup_vs_1x1", "ratio", Higher),
];

/// Looks a metric up in either table.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Stores `value` under `name`, which must be in the contract.
pub fn put(values: &mut Values, name: &str, value: f64) {
    let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the contract"));
    values.insert(d.name, value);
}

/// `BENCHMARK.json`: exactly the keys the driver's contract names.
pub fn contract_json() -> String {
    let metric = |d: &Def, with_bound: bool| {
        let mut s = format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}",
            json::string(d.name),
            json::string(d.unit),
            json::string(d.better.label())
        );
        if with_bound {
            s.push_str(&format!(", \"bound\": {}", json::number(d.bound)));
        }
        s.push('}');
        s
    };
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(
            WORKLOADS
                .iter()
                .map(|(name, why)| format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    json::string(name),
                    json::string(why)
                ))
                .collect()
        ),
        list(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        list(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn contract_respects_the_drivers_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed_name(d.name, 64), "{}", d.name);
            assert!(seen.insert(d.name), "{} used twice", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
        for d in &END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        let setup = def("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (name, why) in &WORKLOADS {
            assert!(well_formed_name(name, 64), "{name}");
            assert!(seen.insert(name), "{name} used twice");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(contract_json().len() <= 64 * 1024);
    }

    /// `BENCHMARK.json` is generated, never edited: the checked-in file
    /// must be what this table prints. Skipped where the repository is
    /// not around the package (the driver's bare-directory run).
    #[test]
    fn checked_in_contract_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(on_disk) = std::fs::read_to_string(path) {
            assert!(
                on_disk == contract_json(),
                "BENCHMARK.json is stale: regenerate it with --print-contract"
            );
        }
    }
}
