#!/usr/bin/env bash
# The checked-in fuzz corpus must be exactly what the generator
# writes: regenerate it with `critmem-tracefuzz --write-corpus` at
# seed 1 into a temp dir and cmp it, file by file, against the
# fixture directory, in both directions.
#
#   check_corpus.sh TRACEFUZZ_BIN FIXTURE_DIR
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 TRACEFUZZ_BIN FIXTURE_DIR" >&2
    exit 2
fi
fuzz=$1
fixtures=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$fuzz" --write-corpus "$tmp/corpus" --seed 1 > /dev/null

status=0
for fixture in "$fixtures"/*; do
    name=$(basename "$fixture")
    if [ ! -f "$tmp/corpus/$name" ]; then
        echo "FAIL: $name is checked in but not generated" >&2
        status=1
    elif ! cmp "$fixture" "$tmp/corpus/$name" >&2; then
        echo "FAIL: $name differs from the regenerated corpus" >&2
        status=1
    fi
done
for generated in "$tmp/corpus"/*; do
    name=$(basename "$generated")
    if [ ! -f "$fixtures/$name" ]; then
        echo "FAIL: $name is generated but not checked in" >&2
        status=1
    fi
done
[ "$status" = 0 ] && echo "corpus: fixtures match --write-corpus --seed 1"
exit $status
