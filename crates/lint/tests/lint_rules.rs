//! Fixture-driven rule tests: every rule has at least one passing and one
//! failing snippet. Fixtures are lexed through the same front end as the
//! real tree, with virtual paths chosen to land in each pass's scope.

use lapse_lint::check_workspace;
use lapse_lint::findings::Finding;
use lapse_lint::workspace::Workspace;

const DET_GOOD: &str = include_str!("fixtures/det_good.rs");
const DET_BAD: &str = include_str!("fixtures/det_bad_iter.rs");
const DET_ALLOW: &str = include_str!("fixtures/det_allow.rs");
const DET_ALLOW_NO_REASON: &str = include_str!("fixtures/det_allow_no_reason.rs");
const DET_CLOCK_ENTROPY: &str = include_str!("fixtures/det_clock_entropy.rs");
const DET_SLEEP_BAD: &str = include_str!("fixtures/det_sleep_bad.rs");
const DET_SLEEP_OK: &str = include_str!("fixtures/det_sleep_ok.rs");
const LOCK_CYCLE: &str = include_str!("fixtures/lock_cycle.rs");
const LOCK_NO_CYCLE: &str = include_str!("fixtures/lock_no_cycle.rs");
const LOCK_IN_LOOP: &str = include_str!("fixtures/lock_in_loop.rs");
const LOCK_WALK_BAD: &str = include_str!("fixtures/lock_walk_bad.rs");
const LOCK_WALK_OK: &str = include_str!("fixtures/lock_walk_ok.rs");
const BATCH_OK: &str = include_str!("fixtures/batch_construct_ok.rs");
const BATCH_BAD: &str = include_str!("fixtures/batch_construct_bad.rs");

/// Virtual path that makes a fixture the protocol messages file.
const MESSAGES: &str = "crates/proto/src/messages.rs";
/// Virtual path in the determinism/lock scope.
const PROTO_SRC: &str = "crates/proto/src/fixture.rs";

fn check(files: Vec<(&str, &str)>) -> Vec<Finding> {
    check_workspace(&Workspace::from_sources(files))
}

fn has(findings: &[Finding], rule: &str, needle: &str) -> bool {
    findings
        .iter()
        .any(|f| f.rule == rule && f.message.contains(needle))
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

// ---- batch-construct ----

#[test]
fn batch_patterns_are_clean_everywhere() {
    let f = check(vec![
        (PROTO_SRC, BATCH_OK),
        ("crates/core/src/fx.rs", BATCH_OK),
    ]);
    assert!(f.is_empty(), "expected no findings, got: {f:?}");
}

#[test]
fn batch_construction_outside_the_coalescer_detected() {
    let f = check(vec![(PROTO_SRC, BATCH_BAD)]);
    // `wrap`, the `out.push(..)` argument, the `let` binding's RHS, and
    // the match-arm *body* in `relabel` — but not the arm-head pattern.
    assert_eq!(count(&f, "batch-construct"), 4, "got: {f:?}");
    assert!(
        has(&f, "batch-construct", "emit through `Coalescer::pack`"),
        "got: {f:?}"
    );
}

#[test]
fn coalescer_and_codec_may_construct_batches() {
    // The same constructions under the sanctioned paths are clean.
    let f = check(vec![("crates/proto/src/coalesce.rs", BATCH_BAD)]);
    assert!(f.is_empty(), "expected no findings, got: {f:?}");
}

#[test]
fn real_comms_plane_sources_pass_the_batch_pass() {
    // The shipped coalescer, codec, server unpacker, and threaded drain
    // loop — lexed verbatim — must stay clean: the only constructions
    // live on the sanctioned paths, everything else only destructures.
    let f = check(vec![
        (
            "crates/proto/src/coalesce.rs",
            include_str!("../../proto/src/coalesce.rs"),
        ),
        (MESSAGES, include_str!("../../proto/src/messages.rs")),
        (
            "crates/proto/src/server.rs",
            include_str!("../../proto/src/server.rs"),
        ),
        (
            "crates/core/src/threaded.rs",
            include_str!("../../core/src/threaded.rs"),
        ),
    ]);
    let batch: Vec<_> = f.iter().filter(|x| x.rule == "batch-construct").collect();
    assert!(batch.is_empty(), "got: {batch:?}");
}

// ---- determinism ----

#[test]
fn deterministic_patterns_are_clean() {
    let f = check(vec![(PROTO_SRC, DET_GOOD)]);
    assert!(f.is_empty(), "expected no findings, got: {f:?}");
}

#[test]
fn hash_iteration_detected_in_all_forms() {
    let f = check(vec![(PROTO_SRC, DET_BAD)]);
    // `.iter()` on a field, `for` over a path, and `.keys()` through a
    // lock guard binding.
    assert_eq!(count(&f, "nondet-iter"), 3, "got: {f:?}");
    assert!(has(&f, "nondet-iter", "`by_key`"), "got: {f:?}");
    assert!(has(&f, "nondet-iter", "`g`"), "got: {f:?}");
}

#[test]
fn allow_with_reason_suppresses() {
    let f = check(vec![(PROTO_SRC, DET_ALLOW)]);
    assert!(f.is_empty(), "expected no findings, got: {f:?}");
}

#[test]
fn allow_without_reason_is_itself_a_finding() {
    let f = check(vec![(PROTO_SRC, DET_ALLOW_NO_REASON)]);
    assert_eq!(count(&f, "allow-missing-reason"), 1, "got: {f:?}");
    // And the reason-less allow does not suppress the site.
    assert_eq!(count(&f, "nondet-iter"), 1, "got: {f:?}");
}

#[test]
fn wall_clock_and_entropy_detected() {
    let f = check(vec![(PROTO_SRC, DET_CLOCK_ENTROPY)]);
    assert!(has(&f, "wall-clock", "Instant::now"), "got: {f:?}");
    assert!(has(&f, "entropy", "thread_rng"), "got: {f:?}");
}

#[test]
fn thread_sleep_detected_at_import_and_call() {
    let f = check(vec![(PROTO_SRC, DET_SLEEP_BAD)]);
    // The `use std::thread::sleep` import, the `std::thread::sleep(..)`
    // call, and the `park_timeout` call.
    assert_eq!(count(&f, "thread-sleep"), 3, "got: {f:?}");
    assert!(has(&f, "thread-sleep", "`thread::sleep`"), "got: {f:?}");
    assert!(
        has(&f, "thread-sleep", "`thread::park_timeout`"),
        "got: {f:?}"
    );
}

#[test]
fn bounded_spin_wait_is_clean() {
    let f = check(vec![(PROTO_SRC, DET_SLEEP_OK)]);
    assert!(f.is_empty(), "expected no findings, got: {f:?}");
}

#[test]
fn real_serving_plane_passes_the_determinism_pass() {
    // The shipped snapshot serving plane, lexed verbatim: its stale-wait
    // must stay a bounded spin — no sleeps, no clock reads, no hash
    // iteration anywhere on the read path.
    let f = check(vec![(
        "crates/proto/src/serving.rs",
        include_str!("../../proto/src/serving.rs"),
    )]);
    assert!(f.is_empty(), "got: {f:?}");
}

#[test]
fn out_of_scope_crates_are_ignored() {
    // The same nondeterministic code in a bench crate is not protocol
    // surface.
    let f = check(vec![("crates/bench/src/fixture.rs", DET_BAD)]);
    assert!(f.is_empty(), "expected no findings, got: {f:?}");
}

// ---- lock discipline ----

#[test]
fn lock_order_cycle_detected() {
    let f = check(vec![(PROTO_SRC, LOCK_CYCLE)]);
    assert!(has(&f, "lock-cycle", "alpha"), "got: {f:?}");
    assert!(has(&f, "lock-cycle", "beta"), "got: {f:?}");
}

#[test]
fn dropped_guard_breaks_the_cycle() {
    let f = check(vec![(PROTO_SRC, LOCK_NO_CYCLE)]);
    assert!(f.is_empty(), "expected no findings, got: {f:?}");
}

#[test]
fn loop_invariant_lock_in_key_loop_detected() {
    let f = check(vec![(PROTO_SRC, LOCK_IN_LOOP)]);
    // `tracker.lock()` is hoistable and flagged; `shard_for(k).lock()`
    // names a different lock per key and is not.
    assert_eq!(count(&f, "lock-in-loop"), 1, "got: {f:?}");
    assert!(has(&f, "lock-in-loop", "`tracker.lock()`"), "got: {f:?}");
}

#[test]
fn a_key_walk_may_take_the_cursor_per_key_but_not_the_tracker() {
    // The cursor's argument names the loop variable (directly, or via a
    // `let` of the loop body): a different latch per key. The tracker is
    // the same lock every time.
    let f = check(vec![(PROTO_SRC, LOCK_WALK_BAD)]);
    assert_eq!(count(&f, "lock-in-loop"), 1, "got: {f:?}");
    assert!(has(&f, "lock-in-loop", "`tracker.lock()`"), "got: {f:?}");
    let f = check(vec![(PROTO_SRC, LOCK_WALK_OK)]);
    assert!(f.is_empty(), "expected no findings, got: {f:?}");
}

#[test]
fn seqlock_guards_participate_in_lock_order() {
    // `.read()`/`.write()` hold the shard latch like `.lock()`, so a
    // cycle through the seqlock guards is still a lock-order cycle.
    let mutated = LOCK_CYCLE
        .replacen(".lock()", ".write()", 1)
        .replace(".lock()", ".read()");
    let f = check(vec![(PROTO_SRC, &mutated)]);
    assert!(has(&f, "lock-cycle", "alpha"), "got: {f:?}");
    assert!(has(&f, "lock-cycle", "beta"), "got: {f:?}");
}

#[test]
fn seqlock_guard_in_key_loop_detected() {
    let mutated = LOCK_IN_LOOP.replace(".lock()", ".write()");
    let f = check(vec![(PROTO_SRC, &mutated)]);
    assert_eq!(count(&f, "lock-in-loop"), 1, "got: {f:?}");
    assert!(has(&f, "lock-in-loop", "`tracker.write()`"), "got: {f:?}");
}

// ---- output formats ----

#[test]
fn json_output_is_well_formed() {
    let f = check(vec![(PROTO_SRC, LOCK_CYCLE)]);
    let json = lapse_lint::findings::render_json(&f);
    assert!(json.starts_with('['), "got: {json}");
    assert!(json.contains("\"rule\":\"lock-cycle\""), "got: {json}");
    assert!(
        json.contains("\"file\":\"crates/proto/src/fixture.rs\""),
        "got: {json}"
    );
}
