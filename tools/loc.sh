#!/usr/bin/env bash
# What a simplicity PR counts, in one command: "simpler" is a diff of
# this script's output at the parent and at the change.
#
#   tools/loc.sh            # the working tree (tracked files)
#   tools/loc.sh <ref>      # a commit, read through git
#   make loc                # the working tree
#   diff <(tools/loc.sh HEAD~1) <(tools/loc.sh)
#
# Prints, from tracked files only: `src` lines per crate, the shipped
# ones among them (without `#[cfg(test)]` modules and without the
# test-support modules `testkit`, `strategies` and `consistency`, so
# that added tests do not read as growth), `unsafe` sites per crate
# (code lines naming the keyword), lock sites per crate (shipped code lines
# naming `Mutex<`, `RwLock<` or `Condvar`), public types per crate
# (shipped lines declaring a `pub struct`, `enum`, `trait` or `type`,
# so that a public type that goes shows in a diff), the `pub` fields of
# `ProtoConfig` and `PsConfig`, and of `ClusterStats` (which holds the
# summed lanes and only what the run knows: a counter mirrored there
# again shows as a field), the five largest shipped files (by shipped
# lines, so that a file that shrinks shows), the `LAPSE_*` environment variables the
# workspace reads, and each workspace crate's `[dependencies]` (so that a
# dependency edge that comes or goes shows in a diff; `benchmark/` is a
# package of its own and frozen: not counted anywhere).
set -euo pipefail

ref=${1:-}
cd "$(git rev-parse --show-toplevel)"
if [ -n "$ref" ]; then
    list() { git ls-tree -r --name-only "$ref" -- "$@"; }
    show() { git show "$ref:$1"; }
else
    list() { git ls-files -- "$@"; }
    show() { [ ! -f "$1" ] || cat "$1"; }
fi
# Every listed file of the given paths, concatenated.
cat_all() { list "$@" | grep '\.rs$' | while read -r f; do show "$f"; done; }
code_lines() { grep -vE '^\s*//' || true; }
# The lines of a `src` directory that ship: its files but the test-support
# modules, each without its `#[cfg(test)] mod … { … }` blocks (the
# attribute, any attributes after it, the module through its closing brace
# at the attribute's indentation). A `#[cfg(test)]` on anything but a module
# ships.
shipped_files() {
    list "$@" | grep -E '^(src|crates/[^/]+/src)/.*\.rs$' | grep -vE '/(testkit|strategies|consistency)\.rs$'
}
shipped_src() { shipped_files "$1" | while read -r f; do show "$f"; done | strip_tests; }
strip_tests() {
    awk '
        skip { if ($0 == ind "}") skip = 0; next }
        pend {
            held = held $0 "\n"
            if (index($0, ind "mod ") == 1) { pend = 0; held = ""; skip = 1 }
            else if (substr($0, 1, length(ind) + 1) !~ /^ *[ #)]$/) {
                printf "%s", held; pend = 0; held = ""
            }
            next
        }
        /^ *#\[cfg\(test\)\]$/ { match($0, /^ */); ind = substr($0, 1, RLENGTH); pend = 1; held = $0 "\n"; next }
        { print }'
}

echo "== src lines (tracked *.rs), shipped lines, unsafe sites, shipped lock sites and pub types, per crate"
printf '%-18s %7s %7s %7s %7s %9s\n' crate lines shipped unsafe locks 'pub types'
total=0 total_shipped=0
for dir in src $(list crates | sed -nE 's|^(crates/[^/]+)/src/.*|\1/src|p' | sort -u); do
    lines=$(cat_all "$dir" | wc -l)
    shipped=$(shipped_src "$dir" | wc -l)
    sites=$(cat_all "$dir" | code_lines | grep -cE '\bunsafe\b' || true)
    locks=$(shipped_src "$dir" | code_lines | grep -cE 'Mutex<|RwLock<|\bCondvar\b' || true)
    types=$(shipped_src "$dir" | grep -cE '^\s*pub (struct|enum|trait|type) ' || true)
    printf '%-18s %7d %7d %7d %7d %9d\n' "${dir%/src}" "$lines" "$shipped" "$sites" "$locks" "$types"
    total=$((total + lines)) total_shipped=$((total_shipped + shipped))
done
printf '%-18s %7d %7d\n' total "$total" "$total_shipped"
printf '%-18s %7d\n' clippy.toml "$(show crates/proto/clippy.toml 2>/dev/null | wc -l)"

echo
echo "== five largest shipped files: lines, shipped lines"
shipped_files src crates | while read -r f; do
    printf '%7d %7d  %s\n' "$(show "$f" | wc -l)" "$(show "$f" | strip_tests | wc -l)" "$f"
done | sort -k2,2nr -k3 | head -n 5

echo
echo "== pub fields"
for spec in ProtoConfig:crates/proto/src/config.rs PsConfig:crates/core/src/cluster.rs \
    ClusterStats:crates/core/src/stats.rs; do
    name=${spec%%:*}
    fields=$(show "${spec#*:}" | awk -v s="pub struct $name {" \
        '$0 == s { on = 1; next } on && /^}/ { on = 0 } on && /^    pub [a-z_]+:/ { print $2 }' |
        tr -d ':' | tr '\n' ' ')
    printf '%-12s %2d  %s\n' "$name" "$(echo "$fields" | wc -w)" "$fields"
done

echo
echo "== LAPSE_* variables read (crates, src, examples, tests)"
cat_all crates src examples tests | code_lines | grep -oE '"LAPSE_[A-Z0-9_]+"' | tr -d '"' | sort -u |
    tr '\n' ' '
echo

echo
echo "== [dependencies] per workspace crate"
for manifest in Cargo.toml $(list crates | grep -E '^crates/[^/]+/Cargo\.toml$' | sort); do
    deps=$(show "$manifest" | awk '
        /^\[/ { on = ($0 == "[dependencies]"); next }
        on && /^[A-Za-z0-9_-]/ { sub(/[ .=].*/, ""); print }' | sort | tr '\n' ' ')
    crate=$(dirname "$manifest")
    printf '%-18s %s\n' "${crate/#./(root)}" "$deps"
done
