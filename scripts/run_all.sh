#!/usr/bin/env bash
# Regenerate every artifact: build, test suite (plain, sanitized and
# Release), checked smoke runs, then every figure spec.
# CRITMEM_INSTRS sets every figure spec's per-core quota (--quota).
# CRITMEM_SKIP_ASAN=1 / CRITMEM_SKIP_TSAN=1 skip the sanitizer passes
# (e.g. no clean rebuild budget); CRITMEM_SKIP_CHECKED=1 skips the
# checked smoke runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build
cmake --build build -j"$(nproc)"

# Static analysis first: critmem-lint over the checkout (per-file
# source rules, cross-TU semantic rules over the symbol index —
# transitive determinism, clock domains, thread discipline — stale
# suppressions, and the timing-preset/sweep-spec data rules). Cheap,
# and a violation here fails fast before any sanitizer rebuild.
cmake --build build --target lint

ctest --test-dir build --output-on-failure | tee test_output.txt

# Crash-safety smoke: SIGKILL a checkpointed campaign mid-flight,
# resume it, and demand byte-identical result files. Also a graceful
# SIGINT must exit 3 (resumable) without publishing a torn file.
./scripts/check_resume.sh ./build/examples/critmem-sweep \
    specs/fig10.sweep

# The same kill/resume contract over trace-backed jobs: external
# trace ingestion (text + binary fixtures) must survive the SIGKILL
# and resume byte-identically.
./scripts/check_resume.sh ./build/examples/critmem-sweep \
    specs/traces.sweep

# Scheduler-arena smoke (also runs as the Arena.Smoke ctest): the
# tiny-quota tournament's leaderboard must be --jobs-independent and
# rank every registered scheduler with fairness metrics.
./scripts/check_arena.sh ./build/examples/critmem-sweep \
    specs/arena.sweep

# Crash containment: --isolate must contain an injected SIGSEGV and a
# memory hog as classified records, keep results byte-identical to
# in-process execution, and survive SIGKILL of worker + supervisor
# with a byte-identical --resume.
./scripts/check_isolation.sh ./build/examples/critmem-sweep \
    specs/isolation.sweep specs/fig10.sweep

# ASan+UBSan pass: the whole suite again under the sanitizers
# (includes TraceFuzz.Corpus, so the 10k-mutant seed-1 fuzz run
# happens under ASan/UBSan too), plus a second fuzz run on a
# different seed so the sanitized pass covers mutants the plain
# ctest run never saw.
if [ "${CRITMEM_SKIP_ASAN:-0}" != "1" ]; then
    cmake -B build-asan -DCRITMEM_SANITIZE=ON
    cmake --build build-asan -j"$(nproc)"
    ctest --test-dir build-asan --output-on-failure \
        | tee test_output_asan.txt
    ./build-asan/examples/critmem-tracefuzz \
        --corpus tests/trace/fixtures --iterations 10000 --seed 2 \
        --scratch build-asan/tracefuzz.scratch --quiet
    # Crash containment under ASan as well: the script disables the
    # sanitizer's SIGSEGV interception for the fault legs so the
    # worker dies with the real signal, and allocator_may_return_null
    # turns the RLIMIT_AS hit into the std::bad_alloc the oom
    # classification expects.
    ./scripts/check_isolation.sh ./build-asan/examples/critmem-sweep \
        specs/isolation.sweep specs/fig10.sweep
fi

# Release pass: -O3 must compile under -Werror too (the optimizer's
# extra flow analysis reports warnings -O2 never sees), and the suite
# must pass on the optimized binaries perf numbers come from.
cmake -B build-release -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j"$(nproc)"
ctest --test-dir build-release --output-on-failure \
    | tee test_output_release.txt

# TSan pass: the execution engine's worker pool and a parallel sweep
# under ThreadSanitizer.
if [ "${CRITMEM_SKIP_TSAN:-0}" != "1" ]; then
    cmake -B build-tsan -DCRITMEM_SANITIZE=thread
    cmake --build build-tsan -j"$(nproc)"
    ctest --test-dir build-tsan -R '^Exec|^Campaign' --output-on-failure \
        | tee test_output_tsan.txt
    ./build-tsan/examples/critmem-sweep --spec specs/fig10.sweep \
        --quota 1000 --jobs 4 --out /dev/null
fi

# Protocol-checked smoke runs: a CLI run per scheduler with the
# invariant checker attached, plus the Fig. 10 scheduler families as
# a checked sweep (--check fails the campaign on any violation).
if [ "${CRITMEM_SKIP_CHECKED:-0}" != "1" ]; then
    for sched in fcfs frfcfs crit-casras casras-crit parbs tcm \
                 tcm-crit ahb morse crit-rl atlas minimalist \
                 bliss batch-cap-rr dyn-thresh-crit; do
        ./build/examples/critmem-sim --app art --sched "$sched" \
            --instrs 4000 --check --quiet >/dev/null
    done
    ./build/examples/critmem-sweep --spec specs/fig10.sweep --check \
        --quota "${CRITMEM_INSTRS:-8000}" > /dev/null
fi

# Every figure and table: each spec runs with the report(s) its
# header documents (CRITMEM_INSTRS overrides the spec's quota).
{
    for spec in specs/fig*.sweep specs/sec*.sweep specs/table*.sweep \
                specs/ext*.sweep; do
        echo "=== $spec ==="
        reports=()
        while read -r report; do
            reports+=(--report "$report")
        done < <(grep -o -- '--report [^ ]*' "$spec" | cut -d' ' -f2)
        ./build/examples/critmem-sweep --spec "$spec" \
            ${CRITMEM_INSTRS:+--quota "$CRITMEM_INSTRS"} "${reports[@]}"
    done
} | tee bench_output.txt

# Micro-benchmarks + perf gate: a fresh statistical run compared
# against the committed BENCH_micro.json baseline. The cycle-skip
# speedup floor always holds (it is a same-host ratio); absolute
# per-kernel times only warn unless CRITMEM_PERF_STRICT=1 (shared
# runners have too much wall-clock noise to hard-fail on them).
CRITMEM_BENCH_OUT=build/bench_current.json ./scripts/run_bench.sh \
    | tee -a bench_output.txt
./scripts/check_perf.sh build/bench_current.json BENCH_micro.json
