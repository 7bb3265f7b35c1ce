# Developer/CI entry points for the lapse workspace.
#
# The tier-1 verify is `make build && make test` (same commands CI runs);
# `make ci` additionally checks formatting, clippy (which carries the
# determinism bans), the config-borrow rule, the API docs, and that every
# bench target compiles.

CARGO ?= cargo

.PHONY: build test test-release-seqlock bench-check bench-smoke smoke-parent bench-contract bench-pairs loc fmt fmt-check clippy lint-check lint tsan doc ci clean

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

## `make test` compiles the latch-free read path in the debug profile
## only, where the volatile chunk loads of `storage.rs`'s racy copy, the
## inlining around them and the `debug_assert`s all differ from what
## ships: the seqlock contract, the in-order walk that drives the
## wait-free pull, the shard latch (the same word as the sequence, taken
## by an inlined compare-and-swap), the snapshot storms (racy reads of
## replicated keys decide on the key's own delta count, across promote
## and demote), and the store's and the shard's own tests, in the release
## profile.
test-release-seqlock:
	$(CARGO) test --release -q -p lapse-proto --test seqlock --test in_order_walk --test latch --test proptest_snapshot
	$(CARGO) test --release -q -p lapse-proto --lib -- storage shard::

## Compile all bench targets without running them.
bench-check:
	$(CARGO) bench --no-run

## Execute deterministic bench targets end-to-end at a tiny scale and
## check that their output is bit-identical across two runs — catches
## runtime panics and nondeterminism that bench-check cannot. Covers the
## simulator (table_nups_techniques, virtual time), the protocol value
## plane (micro_protocol in LAPSE_SMOKE mode: fixed op mix, hop counts,
## value-plane accounting), and the adaptive technique-transition
## machinery (table_adaptive in LAPSE_SMOKE mode: sketch-driven
## promotions/demotions must replay bit-identically in virtual time).
## The contended-access bench (micro_contended in LAPSE_SMOKE mode:
## fixed-schedule threaded run, schedule-independent counters) must print
## identical lines in latched and wait-free mode — the seqlock fast path
## may change timing only, never results. table1_consistency and
## table5_relocation double-run at a small scale for the same reason:
## their simulator tables must stay byte-identical with the read fast
## path and vectorized kernels in the tree. The comms-plane bench
## (micro_comms in LAPSE_SMOKE mode: fixed-schedule threaded run with
## per-link coalescing off and on) must print identical counters and
## checksums in both modes — batching may change envelopes only, never
## results. The serving-plane bench (micro_serving in LAPSE_SMOKE mode:
## fixed training schedules, then a quiesced snapshot sweep) must print
## identical counters, pinned epochs, and checksums across runs — the
## snapshot plane is read-only and may never perturb protocol results.
## micro_contended smoke additionally runs the flight-recorder overhead
## guard (tracing must not change checksums; stderr-only report).
## Finally, the simulator trace itself must be deterministic: two traced
## table5_relocation runs (LAPSE_TRACE=1, virtual-time clock + global
## event sequence) must export byte-identical Chrome-JSON traces.
## The nine commands are listed once, in tools/smoke.sh.
bench-smoke:
	CARGO="$(CARGO)" tools/smoke.sh target/bench-smoke/1
	CARGO="$(CARGO)" tools/smoke.sh target/bench-smoke/2
	diff -r target/bench-smoke/1 target/bench-smoke/2
	@echo "bench-smoke: output bit-identical across runs"

## The same nine outputs against a parent commit's: what a refactor that
## promises "same bytes, same schedules" has to show. Builds PARENT from
## a `git archive` under target/smoke-parent/ and prints which differ.
##   make smoke-parent PARENT=HEAD~1
smoke-parent:
	CARGO="$(CARGO)" tools/smoke-vs-parent.sh $(PARENT)

## The `benchmark/` package is a workspace of its own that links against
## the crates' public API and is frozen between benchmark PRs, so nothing
## above ever compiles it: build it against the current tree, run its
## unit tests and its seconds-long `--smoke` pass (every workload, both
## passes, output checks on). Build output stays under target/, out of
## the package's directory.
bench-contract:
	CARGO_TARGET_DIR=$(CURDIR)/target/bench-contract \
		$(CARGO) test --release --offline --manifest-path benchmark/Cargo.toml
	CARGO_TARGET_DIR=$(CURDIR)/target/bench-contract \
		$(CARGO) run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --smoke > /dev/null

## Before/after rows for a performance claim: builds the frozen
## `benchmark/` package at PARENT (a git ref) and at the working tree
## (or CHANGE=<ref>), each into its own directory under
## target/bench-pairs/, runs PAIRS alternating pairs of one workload and
## seed, and prints the EXPERIMENTS.md table (medians, quartiles, pairs
## won, parent IQR, failed). ~1 min per pair; keep the host idle.
##   make bench-pairs PARENT=HEAD~1 WORKLOAD=serve_train SEED=7 PAIRS=10
## TRACE=1 runs the pairs with `--trace 1` and prints the per-layer rows
## instead (where the saving is; the claim itself rests on TRACE=0).
## WORKLOAD=all runs the four workloads of BENCHMARK.json back to back on
## the same two builds and prints one table (the must-not-move guard).
PAIRS ?= 10
TRACE ?= 0
bench-pairs:
	TRACE=$(TRACE) tools/bench-pairs.sh $(PARENT) $(WORKLOAD) $(SEED) $(PAIRS)

## What a simplicity PR counts: `src` lines, `unsafe` sites, shipped
## lock sites and public types per crate, the `pub` fields of `ProtoConfig`/`PsConfig`
## and of `ClusterStats` (a counter mirrored from the lanes shows there),
## the `LAPSE_*` variables read — from tracked files. "Simpler" is a diff of two outputs:
##   diff <(tools/loc.sh HEAD~1) <(tools/loc.sh)
loc:
	@tools/loc.sh $(REF)

fmt:
	$(CARGO) fmt

fmt-check:
	$(CARGO) fmt --check

## Clippy with warnings denied. `crates/proto/clippy.toml` (linked from
## sim, core and net) bans wall-clock reads, timed stalls, entropy seeds
## and std's hash maps there: the determinism rules of DESIGN.md §6
## "Static invariants".
clippy:
	$(CARGO) clippy --all-targets -- -D warnings

## The one source rule no type or clippy setting expresses (DESIGN.md §6).
lint-check:
	@# The one cluster-wide `Arc<ProtoConfig>` is borrowed on operation
	@# paths, never cloned: its strong count sits on the line every
	@# operation of every node reads (DESIGN.md §7, "Who writes which line").
	@if grep -n "cfg\.clone()" crates/proto/src/client.rs crates/proto/src/server.rs; then \
		echo "lint-check: cfg.clone() on an operation path (borrow the config instead)"; exit 1; \
	fi

lint: fmt-check clippy lint-check

## Best-effort ThreadSanitizer pass over the threaded-backend tests.
## Requires a nightly toolchain with rust-src; skipped gracefully when
## unavailable (the container pins stable). LAPSE_NO_SEQLOCK=1 disables
## the wait-free read path — the pull walk, `pull_if_local` and snapshot
## reads alike (`crates/core/tests/exact_counts.rs` checks the last): its
## volatile racy reads are benign by the seqlock argument (DESIGN.md §7)
## but are exactly what tsan reports, so the sanitizer pass exercises the
## latched configuration. `-p lapse-core`
## covers the dispatch tests (crates/core/tests/dispatch.rs: role
## hand-off race, oversubscribed stress) and the WakeCell hammer.
## `-p lapse-proto --test latch` takes shard guards only and never reads
## racily, so it checks the hand-rolled latch's acquire/release pairing
## with the wait-free path left on.
tsan:
	@if rustup component list --toolchain nightly 2>/dev/null | grep -q "rust-src (installed)"; then \
		LAPSE_NO_SEQLOCK=1 RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
		$(CARGO) +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
			-p lapse-core -q && \
		RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
		$(CARGO) +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
			-p lapse-proto --test latch -q; \
	else \
		echo "tsan: no nightly toolchain with rust-src; skipping (best-effort target)"; \
	fi

## API docs with every rustdoc warning an error: a doc link that names a
## deleted or private item fails here instead of rotting.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps

ci: fmt-check clippy lint-check doc build test test-release-seqlock bench-check bench-smoke bench-contract

clean:
	$(CARGO) clean
