#!/usr/bin/env bash
# A refactor's contract in one command: the nine smoke outputs of a
# parent commit against the working tree's, byte for byte.
#
#   tools/smoke-vs-parent.sh <parent-ref>
#   make smoke-parent PARENT=<parent-ref>
#
# The parent is built from a `git archive` of <parent-ref> under
# target/smoke-parent/ (its own source tree and target directory, as
# tools/bench-pairs.sh builds its parent); both sides run this tree's
# tools/smoke.sh. Prints one line per output and exits non-zero if any
# of the nine differ.
set -euo pipefail

parent=${1:?usage: smoke-vs-parent.sh <parent-ref>}
root=$(git rev-parse --show-toplevel)
work=$root/target/smoke-parent

rm -rf "$work/src" "$work/parent" "$work/change"
mkdir -p "$work/src"
git -C "$root" archive "$parent" | tar -x -C "$work/src"
CARGO_TARGET_DIR=$work/target "$root/tools/smoke.sh" "$work/parent" "$work/src"
"$root/tools/smoke.sh" "$work/change" "$root"

differ=0
for f in "$work"/parent/*; do
    name=$(basename "$f")
    if cmp -s "$f" "$work/change/$name"; then
        echo "identical  $name"
    else
        echo "DIFFERS    $name"
        differ=$((differ + 1))
    fi
done
echo "smoke-parent: $differ of $(ls "$work/parent" | wc -l) outputs differ from $parent"
[ "$differ" -eq 0 ]
