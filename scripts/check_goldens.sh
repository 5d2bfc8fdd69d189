#!/usr/bin/env bash
# Cross-commit result goldens: the --stats-json tree of a fixed set of
# critmem-sim configurations must hash to digests recorded before the
# simulator's hot path was last rebuilt. A speed-only change keeps
# every digest; a change that moves a result must re-record them here
# and say why.
#
#   check_goldens.sh SIM_BIN
#
# The digest is FNV-1a-64 over the JSON file's bytes. The matrix is
# the benchmark's four paper workloads (8-core art and fft under
# CASRAS-Crit + MaxStallTime, ep under FR-FCFS, the RGTM bundle on the
# multiprogrammed preset under Crit-RL) plus one modern-controller
# configuration (closed page + split write queue + prefetcher). None of
# those fills a DRAM queue, so fft-retry adds 8-core fft at seed 7,
# which makes about 175k rejected DRAM enqueues: it pins the
# hierarchy's writeback and demand retry path.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 SIM_BIN" >&2
    exit 2
fi
sim=$1

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fnv1a() {
    python3 -c '
import sys
h = 0xcbf29ce484222325
for b in sys.stdin.buffer.read():
    h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
print("%016x" % h)' <"$1"
}

failed=0
check() {
    local name=$1 want=$2
    shift 2
    "$sim" "$@" --stats-json "$tmp/$name.json" --quiet >/dev/null
    local got
    got=$(fnv1a "$tmp/$name.json")
    if [ "$got" != "$want" ]; then
        echo "FAIL: $name: digest $got, golden $want" >&2
        failed=1
    else
        echo "golden: $name $got"
    fi
}

check art-crit 205e1e3a5cbdaa92 \
    --app art --sched casras-crit --predictor maxstall --instrs 20000
check fft-crit eb4e61c4a48c0d8e \
    --app fft --sched casras-crit --predictor maxstall --instrs 10000
check ep-frfcfs cc57bf063d76989f \
    --app ep --sched frfcfs --instrs 20000
check rgtm-critrl ac4512d684a44462 \
    --bundle RGTM --preset multiprog --sched crit-rl \
    --predictor maxstall --instrs 20000
check swim-modern 87c4d27140f7b51a \
    --app swim --sched frfcfs --closed-page --split-wq --prefetch \
    --instrs 20000
check fft-retry 9308b3dca971a089 \
    --app fft --sched casras-crit --predictor maxstall --instrs 10000 \
    --seed 7

if [ "$failed" -ne 0 ]; then
    echo "result goldens: digests differ" >&2
    exit 1
fi
echo "result goldens: all digests match"
