#!/bin/sh
# Code-line counts per package: non-test Go lines that are neither blank nor
# a whole-line // comment — the figure CHANGES.md quotes for simplification
# PRs. Run from the repository root.
#
#   scripts/loc.sh                  every directory holding non-test Go files
#   scripts/loc.sh DIR|FILE...      only these (a directory is not recursed)
set -eu

count() {
    cat "$@" | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//' || true
}

if [ $# -eq 0 ]; then
    set -- $(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -exec dirname {} \; | sort -u | sed 's|^\./||')
fi
total=0
for arg in "$@"; do
    if [ -d "$arg" ]; then
        files="$(find "$arg" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)"
    else
        files="$arg"
    fi
    [ -n "$files" ] || continue
    n="$(count $files)"
    printf '%6d  %s\n' "$n" "$arg"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
