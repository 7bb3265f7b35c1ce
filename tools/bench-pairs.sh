#!/usr/bin/env bash
# Alternating parent/change pairs of the repo's benchmark, and the
# EXPERIMENTS.md table that goes with a performance claim.
#
#   tools/bench-pairs.sh <parent-ref> <workload|all> <seed> [pairs] [seconds]
#   make bench-pairs PARENT=<ref> WORKLOAD=<w> SEED=<s> PAIRS=10
#   make bench-pairs PARENT=<ref> WORKLOAD=<w> SEED=<s> PAIRS=3 TRACE=1
#   make bench-pairs PARENT=<ref> WORKLOAD=all SEED=<s> PAIRS=5
#
# The frozen `benchmark/` package is built once per side, each side from
# its own source tree into its own target directory under
# target/bench-pairs/ (outside `benchmark/`): the parent from a
# `git archive` of <parent-ref>, the change from CHANGE=<ref> the same
# way, or from the working tree when CHANGE is unset. Then <pairs> pairs
# of runs, the side that goes first alternating, with the benchmark's
# own settings (`--seconds 25 --trace 0`). Every run's result line is
# kept in target/bench-pairs/runs-<workload>-<seed>-trace<t>.tsv; the table
# is computed from that file: per metric the median and quartiles of each
# side, the change of the median, the pairs the change won (ties count
# for neither), and the parent's interquartile range relative to its
# median — the spread a difference has to exceed. A gain may be claimed
# at >= 9/10 pairs won and a median difference above the parent IQR.
# An end-to-end metric whose parent IQR is at least its `bound` in
# BENCHMARK.json is marked `unresolved`: the parent's own runs spread as
# wide as the regression the bound is meant to catch, so the reading
# cannot tell a change from the host. The mark qualifies the reading; a
# median outside its bound is outside it all the same.
#
# The same numbers go to BENCH_<parent>_<change>.json at the repo root
# (<change> is CHANGE's short sha, or `worktree`): both sides' commits
# and the host each side's benchmark recorded (nproc, cpu_model, rustc),
# the run settings, and per workload the `failed` and not-`correct` run
# counts and per metric each side's median and quartiles, the pairs won,
# the parent IQR relative to its median, the metric's `bound` (null for
# a per-layer row) and whether it is `unresolved`. A PR that runs pairs
# checks its file in; `tests/bench_records.rs` parses every one, and
# `tools/bench-trend.sh` chains them.
#
# Workload `all` runs every workload of BENCHMARK.json back to back, the
# two builds shared, and prints one table: the "nothing else got worse"
# guard of a claim in one command instead of four.
#
# With TRACE=1 in the environment the pairs run with `--trace 1` and the
# table has the contract's per-layer rows instead (the "where the saving
# is" table of a claim; rows a workload does not report are left out).
# Traced runs are slower and their end-to-end numbers carry the tracing
# overhead: a claim rests on the TRACE=0 table.
#
# Run it on an otherwise idle host: a build running beside it is the
# kind of neighbour the benchmark's README warns about.
set -euo pipefail

parent=${1:?usage: bench-pairs.sh <parent-ref> <workload|all> <seed> [pairs] [seconds]}
workloads=${2:?workload (see BENCHMARK.json), or all}
seed=${3:?seed}
pairs=${4:-10}
seconds=${5:-25}
trace=${TRACE:-0}
case $trace in
    0) section=end_to_end ;;
    1) section=per_layer ;;
    *) echo "TRACE takes 0 or 1, not $trace" >&2; exit 2 ;;
esac

root=$(git rev-parse --show-toplevel)
work=$root/target/bench-pairs
mkdir -p "$work"
if [ "$workloads" = all ]; then
    workloads=$(sed -n '/"workloads"/,/\]/s/.*{"name": "\([a-z0-9_]*\)".*/\1/p' "$root/BENCHMARK.json" | tr '\n' ' ')
fi
runs_of() { echo "$work/runs-$1-$seed-trace$trace.tsv"; }

# build <side> <ref|""> -> path of the side's benchmark binary
build() {
    local side=$1 ref=$2 src=$root
    if [ -n "$ref" ]; then
        src=$work/$side/src
        rm -rf "$src" && mkdir -p "$src"
        git -C "$root" archive "$ref" | tar -x -C "$src"
    fi
    CARGO_TARGET_DIR=$work/$side/target cargo build --release --quiet --offline \
        --manifest-path "$src/benchmark/Cargo.toml" >&2
    echo "$work/$side/target/release/lapse-benchmark"
}

# run_once <workload> <side> <binary> <pair>: one benchmark run, one row
# in the workload's runs file
run_once() {
    local workload=$1 side=$2 bin=$3 pair=$4 line
    line=$(cd "$work/$side" && CARGO_TARGET_DIR=$work/$side/target \
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
    printf '%s\t%s\t%s\n' "$side" "$pair" "$line" >> "$(runs_of "$workload")"
}

parent_bin=$(build parent "$parent")
change_bin=$(build change "${CHANGE:-}")
parent_sha=$(git -C "$root" rev-parse "$parent^{commit}")
if [ -n "${CHANGE:-}" ]; then
    change_sha=$(git -C "$root" rev-parse "$CHANGE^{commit}") worktree=false
    change_label=$(git -C "$root" rev-parse --short "$CHANGE^{commit}")
else
    change_sha=$(git -C "$root" rev-parse HEAD) worktree=true change_label=worktree
fi
record=$root/BENCH_$(git -C "$root" rev-parse --short "$parent^{commit}")_$change_label.json

files=()
for workload in $workloads; do
    files+=("$(runs_of "$workload")")
    : > "${files[-1]}"
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then
            run_once "$workload" parent "$parent_bin" "$pair"
            run_once "$workload" change "$change_bin" "$pair"
        else
            run_once "$workload" change "$change_bin" "$pair"
            run_once "$workload" parent "$parent_bin" "$pair"
        fi
        echo "$workload: pair $pair/$pairs done" >&2
    done
done

# side_json <side> <sha> <worktree>: the side's commit and the host its
# benchmark recorded in the provenance of its last run's artifact
side_json() {
    local artifact host
    artifact=$work/$1/target/benchmark/result-${workloads%% *}-trace$trace.json
    host=$(grep -o '"nproc": [0-9]*, "cpu_model": "[^"]*", "rustc": "[^"]*"' "$artifact" 2>/dev/null || true)
    [ -n "$host" ] || host='"nproc": null, "cpu_model": null, "rustc": null'
    printf '{"commit": "%s", "worktree": %s, %s}' "$2" "$3" "$host"
}
parent_json=$(side_json parent "$parent_sha" false)
change_json=$(side_json change "$change_sha" "$worktree")

# Metric names and directions come from the contract, not from here.
directions=$(sed -n '/"'$section'"/,/\]/s/.*"name": "\([a-z0-9_.]*\)".*"better": "\([a-z]*\)".*/\1=\2/p' \
    "$root/BENCHMARK.json" | tr '\n' ' ')
bounds=$(sed -n '/"end_to_end"/,/\]/s/.*"name": "\([a-z0-9_.]*\)".*"bound": \([0-9.]*\).*/\1=\2/p' \
    "$root/BENCHMARK.json" | tr '\n' ' ')

# One runs file per workload, in order: its rows go to the table when the
# next file starts (or the input ends), its `failed` note below the table.
awk -F'\t' -v workloads="$workloads" -v seed="$seed" -v directions="$directions" -v bounds="$bounds" \
    -v record="$record" -v parent_json="$parent_json" -v change_json="$change_json" \
    -v settings="{\"seconds\": $seconds, \"seed\": $seed, \"pairs\": $pairs, \"trace\": $trace}" '
function metric(line, name,    re, s) {
    re = "\"" name "\": [{]\"value\": [-0-9.e+]+"
    if (!match(line, re)) return "nan"
    s = substr(line, RSTART, RLENGTH); sub(/.*"value": /, "", s); return s + 0
}
function field(line, name,    re, s) {
    re = "\"" name "\": [a-z0-9]+"
    if (!match(line, re)) return "?"
    s = substr(line, RSTART, RLENGTH); sub(/.*: /, "", s); return s
}
function quantile(side, m, p,    n, i, pos, lo, tmp) {   # type-7, on a sorted copy
    n = count[side]
    for (i = 1; i <= n; i++) tmp[i] = val[side, m, i]
    sort(tmp, n)
    pos = (n - 1) * p + 1; lo = int(pos)
    if (lo >= n) return tmp[n]
    return tmp[lo] + (pos - lo) * (tmp[lo + 1] - tmp[lo])
}
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
function num(x) { return x == x + 0 ? sprintf("%.10g", x) : "null" }
function quartiles(side, m) {
    return sprintf("{\"median\": %s, \"q1\": %s, \"q3\": %s}", num(quantile(side, m, 0.5)),
        num(quantile(side, m, 0.25)), num(quantile(side, m, 0.75)))
}
function fmt(x,    a) {
    a = x < 0 ? -x : x
    if (a >= 1e6) return sprintf("%.2f M", x / 1e6)
    if (a >= 100) return sprintf("%.0f", x)
    if (a >= 1) return sprintf("%.2f", x)
    return sprintf("%.4f", x)
}
BEGIN {
    n = split(directions, d, " ")
    for (i = 1; i <= n; i++) { split(d[i], kv, "="); names[i] = kv[1]; better[kv[1]] = kv[2] }
    nmetrics = n
    n = split(bounds, d, " ")
    for (i = 1; i <= n; i++) { split(d[i], kv, "="); bound[kv[1]] = kv[2] + 0 }
    split(workloads, workload_of, " ")
    print "| workload (seed, pairs) | metric | parent median [q1, q3] | change median [q1, q3] | Δ median | pairs won | parent IQR |"
    print "|---|---|---|---|---|---|---|"
}
FNR == 1 {
    if (NR > 1) rows()
    workload = workload_of[++nfiles]
    split("", count); split("", val); split("", bypair); split("", failed); split("", incorrect); npairs = 0
}
{
    side = $1; pair = $2; count[side]++
    for (i = 1; i <= nmetrics; i++) {
        v = metric($3, names[i]); val[side, names[i], count[side]] = v; bypair[side, names[i], pair] = v
    }
    if (pair > npairs) npairs = pair
    failed[side] += field($3, "failed")
    if (field($3, "correct") != "true") incorrect[side]++
}
function rows(    i, m, pm, p1, p3, cm, c1, c3, won, ties, p, a, b, tie_note, delta, iqr, rel, unresolved) {
    for (i = 1; i <= nmetrics; i++) {
        m = names[i]
        if (val["parent", m, 1] == "nan" || val["change", m, 1] == "nan") continue
        pm = quantile("parent", m, 0.5); p1 = quantile("parent", m, 0.25); p3 = quantile("parent", m, 0.75)
        cm = quantile("change", m, 0.5); c1 = quantile("change", m, 0.25); c3 = quantile("change", m, 0.75)
        won = 0; ties = 0
        for (p = 1; p <= npairs; p++) {
            a = bypair["parent", m, p]; b = bypair["change", m, p]
            if (a == b) ties++
            else if ((better[m] == "higher") == (b > a)) won++
        }
        tie_note = ties ? sprintf(" (%d ties)", ties) : ""
        # A row that is zero on both sides has no relative change.
        delta = pm != 0 ? sprintf("%+.1f %%", 100 * (cm - pm) / pm) : (cm == 0 ? "=" : "n/a")
        iqr = pm != 0 ? sprintf("%.1f %%", 100 * (p3 - p1) / pm) : "n/a"
        rel = pm != 0 ? (p3 - p1) / (pm < 0 ? -pm : pm) : ""
        unresolved = (m in bound) && rel != "" && rel >= bound[m]
        if (unresolved) iqr = iqr sprintf(" ≥ bound %.0f %%: unresolved", 100 * bound[m])
        printf "| `%s` (%s, %d) | `%s` | %s [%s, %s] | %s [%s, %s] | %s | %d/%d%s | %s |\n",
            workload, seed, npairs, m, fmt(pm), fmt(p1), fmt(p3), fmt(cm), fmt(c1), fmt(c3),
            delta, won, npairs, tie_note, iqr
        metrics_json = metrics_json sprintf("%s\n        \"%s\": {\"parent\": %s, \"change\": %s, \"pairs_won\": %d, \"ties\": %d, \"parent_iqr_rel\": %s, \"bound\": %s, \"unresolved\": %s}",
            metrics_json == "" ? "" : ",", m, quartiles("parent", m), quartiles("change", m),
            won, ties, rel != "" ? num(rel) : "null", (m in bound) ? num(bound[m]) : "null",
            unresolved ? "true" : "false")
    }
    workloads_json = workloads_json sprintf("%s\n    \"%s\": {\"runs_per_side\": %d, \"failed\": {\"parent\": %d, \"change\": %d}, \"not_correct\": {\"parent\": %d, \"change\": %d}, \"metrics\": {%s\n    }}",
        workloads_json == "" ? "" : ",", workload, npairs, failed["parent"], failed["change"],
        incorrect["parent"], incorrect["change"], metrics_json)
    metrics_json = ""
    notes = notes sprintf("`%s` `failed`: parent %d, change %d; runs not `correct`: parent %d, change %d (of %d runs a side).\n",
        workload, failed["parent"], failed["change"], incorrect["parent"], incorrect["change"], npairs)
}
END {
    rows()
    printf "\n%s", notes
    printf "{\n  \"parent\": %s,\n  \"change\": %s,\n  \"settings\": %s,\n  \"workloads\": {%s\n  }\n}\n",
        parent_json, change_json, settings, workloads_json > record
    printf "\nwrote %s\n", record
}' "${files[@]}"
