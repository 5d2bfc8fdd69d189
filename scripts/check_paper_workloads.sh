#!/usr/bin/env bash
# Protocol checker on the paper workloads: run each given sweep spec
# (specs/check_apps.sweep, specs/check_bundles.sweep) through
# critmem-sweep. A checker violation in any job makes the sweep exit
# 2, and this script fails with the sweep's failure lines.
#
#   check_paper_workloads.sh SWEEP_BIN SPEC_FILE...
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 SWEEP_BIN SPEC_FILE..." >&2
    exit 2
fi
sweep=$1
shift

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for spec in "$@"; do
    name=$(basename "$spec" .sweep)
    if ! "$sweep" --spec "$spec" --jobs 4 \
        --out "$tmp/$name.jsonl" > "$tmp/$name.log" 2>&1; then
        echo "FAIL: $spec" >&2
        cat "$tmp/$name.log" >&2
        status=1
        continue
    fi
    grep '^campaign:' "$tmp/$name.log" || true
done
exit $status
