#!/usr/bin/env bash
# The nine deterministic smoke outputs, written to one directory.
#
#   tools/smoke.sh <out-dir> [<source-root>]
#   make bench-smoke                  # twice, then diff: must be bit-identical
#   make smoke-parent PARENT=<ref>    # parent's nine against the working tree's
#
# Eight bench targets at a tiny scale (stdout kept, stderr dropped) and
# one traced simulator run (the Chrome-JSON trace kept): every output is
# a pure function of the source, so two runs of one tree — and a
# refactor against its parent — must agree byte for byte. What each
# target covers is in the Makefile, above `bench-smoke`.
#
# <source-root> defaults to this checkout; CARGO_TARGET_DIR (if set)
# says where that tree builds.
set -euo pipefail

out=${1:?usage: smoke.sh <out-dir> [<source-root>]}
src=${2:-$(git rev-parse --show-toplevel)}
cargo=${CARGO:-cargo}
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$src"

# <output file> <bench target> <environment>
runs="
table_nups_techniques.txt table_nups_techniques LAPSE_SCALE=0.05
micro_protocol.txt        micro_protocol        LAPSE_SMOKE=1
table_adaptive.txt        table_adaptive        LAPSE_SMOKE=1
micro_contended.txt       micro_contended       LAPSE_SMOKE=1
table1_consistency.txt    table1_consistency    LAPSE_SCALE=0.05
table5_relocation.txt     table5_relocation     LAPSE_SCALE=0.05
micro_comms.txt           micro_comms           LAPSE_SMOKE=1
micro_serving.txt         micro_serving         LAPSE_SMOKE=1
"
echo "$runs" | while read -r file bench env; do
    [ -n "$file" ] || continue
    env "$env" $cargo bench --bench "$bench" > "$out/$file" 2>/dev/null < /dev/null
done
# The ninth: the simulator's own trace (virtual-time clock, global event
# sequence) of a traced table5_relocation run.
env LAPSE_SCALE=0.05 LAPSE_TRACE=1 LAPSE_TRACE_OUT="$out/table5_relocation.trace.json" \
    $cargo bench --bench table5_relocation > /dev/null 2>&1
