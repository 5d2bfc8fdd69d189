#!/usr/bin/env bash
# Figure smoke: run every figure/table spec under SPECS_DIR
# (fig*, sec*, table*, ext*.sweep) at a tiny quota with the report(s)
# its header documents (every `--report X` on the spec's command-line
# comment). Fails when a spec documents no report, when critmem-sweep
# exits nonzero, or when a report prints no summary row (Average, or
# Max for a table of peaks).
#
#   check_figures.sh SWEEP_BIN SPECS_DIR [QUOTA]
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 SWEEP_BIN SPECS_DIR [QUOTA]" >&2
    exit 2
fi
sweep=$1
dir=$2
quota=${3:-1000}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
count=0
for spec in "$dir"/fig*.sweep "$dir"/sec*.sweep "$dir"/table*.sweep \
            "$dir"/ext*.sweep; do
    [ -e "$spec" ] || continue
    name=$(basename "$spec" .sweep)
    count=$((count + 1))
    reports=()
    while read -r report; do
        reports+=(--report "$report")
    done < <(grep -o -- '--report [^ ]*' "$spec" | cut -d' ' -f2)
    if [ ${#reports[@]} -eq 0 ]; then
        echo "FAIL: $spec documents no --report" >&2
        status=1
        continue
    fi
    if ! "$sweep" --spec "$spec" --quota "$quota" --jobs 4 \
        "${reports[@]}" > "$tmp/$name.txt" 2> "$tmp/$name.err"; then
        echo "FAIL: $spec (critmem-sweep exited nonzero)" >&2
        cat "$tmp/$name.err" "$tmp/$name.txt" >&2
        status=1
        continue
    fi
    summaries=$(grep -cE '^(Average|Max) ' "$tmp/$name.txt" || true)
    if [ "$summaries" -ne $((${#reports[@]} / 2)) ]; then
        echo "FAIL: $spec printed $summaries summary row(s) for" \
             "$((${#reports[@]} / 2)) report(s)" >&2
        cat "$tmp/$name.txt" >&2
        status=1
        continue
    fi
    echo "ok: $name (${reports[*]})"
done
if [ "$count" -eq 0 ]; then
    echo "FAIL: no figure specs under $dir" >&2
    exit 1
fi
exit $status
