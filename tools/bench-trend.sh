#!/usr/bin/env bash
# The performance trajectory as data: every before/after record at the
# repo root, chained.
#
#   tools/bench-trend.sh
#
# Reads the `BENCH_<parent>_<change>.json` records that
# tools/bench-pairs.sh writes (and the ones backfilled from
# EXPERIMENTS.md, marked `"source"`), keeps those of plain runs
# (`"trace": 0`, the end-to-end table), and orders them by commit
# ancestry: by how many commits precede each record's parent. Each
# record is one link: per workload and metric, the ratio of the change's
# median to the parent's. Links come from alternating pairs on one host
# phase, so host drift cancels within a link; absolute medians do not
# compare across links and are not used.
#
# Prints the links in order — with the commits between two links that no
# record measured — and one row per workload and metric: the chained
# ratio (the product of the links' ratios), its spread (the root sum of
# squares of the links' relative parent IQRs, the noise each link could
# not resolve), the worst single link and the metric's bound in
# BENCHMARK.json. A row is flagged `CROSSED` when the chain is worse
# than the bound although no single link was: fifteen links at +3 % pass
# every gate and compound to +56 %. `link` marks a row one of whose
# links was itself worse than the bound.
#
# The records' layout is the one bench-pairs.sh writes: one workload per
# line, one metric per line.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"

# name=better:bound for every end-to-end metric of the contract
contract=$(sed -n '/"end_to_end"/,/\]/s/.*"name": "\([a-z0-9_.]*\)".*"better": "\([a-z]*\)", "bound": \([0-9.]*\).*/\1=\2:\3/p' \
    BENCHMARK.json | tr '\n' ' ')

# One line per trace-0 record: <commits before its parent> <file>
# <parent sha> <change sha> <worktree> <source>
links=$(for f in BENCH_*.json; do
    [ -f "$f" ] || continue
    grep -q '"trace": 0' "$f" || continue
    parent=$(sed -n 's/.*"parent": {"commit": "\([0-9a-f]*\)".*/\1/p' "$f")
    change=$(sed -n 's/.*"change": {"commit": "\([0-9a-f]*\)", "worktree": \([a-z]*\).*/\1 \2/p' "$f")
    source=$(sed -n 's/.*"source": "\([^"]*\)".*/\1/p' "$f")
    git cat-file -e "$parent^{commit}" 2>/dev/null || { echo "$f: parent $parent not in history" >&2; continue; }
    echo "$(git rev-list --count "$parent") $f $parent $change ${source:-bench-pairs}"
done | sort -n -k1,1 -k2,2)
[ -n "$links" ] || { echo "no trace-0 BENCH_*.json record at $root" >&2; exit 1; }

echo "== links, in commit order (parent → change; commits no record measured)"
prev=""
while read -r _ file parent change worktree source; do
    gap=""
    if [ -n "$prev" ]; then
        # A worktree record's change is the one commit after its parent.
        set -- $prev
        between=$(git rev-list --count "$1..$parent")
        [ "$2" = true ] && between=$((between - 1))
        [ "$between" -gt 0 ] && gap="  ($between unmeasured before it)"
    fi
    label=$(git rev-parse --short "$change")
    [ "$worktree" = true ] && label=worktree
    printf '%s → %-8s %-34s %s%s\n' "$(git rev-parse --short "$parent")" "$label" "$file" "$source" "$gap"
    if [ "$worktree" = true ]; then prev="$parent true"; else prev="$change false"; fi
done <<< "$links"
echo

files=$(echo "$links" | awk '{print $2}')
# shellcheck disable=SC2086
awk -v contract="$contract" '
BEGIN {
    n = split(contract, c, " ")
    for (i = 1; i <= n; i++) {
        split(c[i], kv, "="); split(kv[2], bb, ":")
        better[kv[1]] = bb[1]; bound[kv[1]] = bb[2] + 0; order[i] = kv[1]
    }
    nmetrics = n
}
function after(line, key,    s) {   # the number that follows the first `"key": `
    if (!match(line, "\"" key "\": [-0-9.e+null]+")) return ""
    s = substr(line, RSTART, RLENGTH); sub(/.*: /, "", s); return s
}
# worse(r, m): how much worse than the parent a ratio is, as a share
function worse(r, m) { return better[m] == "higher" ? 1 - r : r - 1 }
/^    "[a-z0-9_]+": \{"runs_per_side"/ {
    w = $1; gsub(/[":]/, "", w)
    if (!(w in seen)) { seen[w] = 1; workloads[++nw] = w }
    next
}
/^        "[a-z0-9_.]+": \{"parent"/ {
    m = $1; gsub(/[":]/, "", m)
    if (!(m in bound)) next
    split($0, halves, "\"change\": ")
    pm = after(halves[1], "median"); cm = after(halves[2], "median"); iqr = after($0, "parent_iqr_rel")
    if (pm == "" || cm == "" || pm == "null" || cm == "null" || pm + 0 == 0) next
    r = cm / pm
    k = w SUBSEP m
    if (!(k in chain)) { chain[k] = 1; var[k] = 0; links[k] = 0; worst[k] = r }
    chain[k] *= r; links[k]++
    if (iqr != "" && iqr != "null") var[k] += iqr * iqr
    if (worse(r, m) > worse(worst[k], m)) worst[k] = r
}
END {
    print "| workload | metric | links | chained ratio | spread (±) | worst link | bound | flag |"
    print "|---|---|---|---|---|---|---|---|"
    for (i = 1; i <= nw; i++) for (j = 1; j <= nmetrics; j++) {
        w = workloads[i]; m = order[j]; k = w SUBSEP m
        if (!(k in chain)) continue
        flag = ""
        if (worse(worst[k], m) > bound[m]) flag = "link"
        else if (worse(chain[k], m) > bound[m]) flag = "CROSSED"
        printf "| `%s` | `%s` | %d | %.3f | %.1f %% | %.3f | %.0f %% %s | %s |\n", w, m, links[k], chain[k],
            100 * sqrt(var[k]), worst[k], 100 * bound[m], better[m], flag
    }
}' $files
