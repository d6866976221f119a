#!/bin/sh
# Measure the SIMD kernel speedups into BENCH_kernels.json at the repo
# root, under a pinned environment (fixed thread count, no ISA
# override -- bench_kernels forces ISAs internally via
# kernels::setActive). Run from anywhere.
#
#   scripts/run_bench.sh [--compare]
#
# With --compare, additionally gate the fresh numbers against the
# committed bench/baselines/BENCH_kernels.json with bench_compare,
# which compares each vector entry as a ratio to the same run's
# scalar twin, so the comparison survives a machine change; exit
# non-zero on a confirmed >15% regression of any SIMD speedup.
set -eu

cd "$(dirname "$0")/.."

case "$*" in
    "") COMPARE=0 ;;
    --compare) COMPARE=1 ;;
    *)
        echo "usage: scripts/run_bench.sh [--compare]" >&2
        exit 2
        ;;
esac

cmake -B build -S . >/dev/null
cmake --build build --target bench_kernels bench_compare -j >/dev/null

# Pinned measurement environment: one worker thread (the kernels are
# the subject, not the pool) and no ambient ISA override -- a set
# INCA_KERNEL_ISA would make setActive-forced runs misleading.
unset INCA_KERNEL_ISA INCA_TRACE INCA_METRICS || true
export INCA_NUM_THREADS=1

measure() {
    ./build/bench/bench_kernels --json BENCH_kernels.json
    echo "wrote BENCH_kernels.json"
}

# Gate on the per-benchmark SIMD speedup (vector time / scalar time
# measured in the same run): machine-wide throughput drift between
# the baseline machine and this one cancels per benchmark, so the
# 15% threshold gates the speedup shape the kernel overhaul claims,
# not the host's mood.
compare_once() {
    ./build/bench/bench_compare bench/baselines/BENCH_kernels.json \
        BENCH_kernels.json
}

measure

if [ "$COMPARE" = 1 ]; then
    # A single noisy run on a busy machine can cross the 15% line
    # without any code change; a real regression crosses it every
    # time. Confirm before failing: re-measure once and only report
    # a regression when both measurements agree.
    if ! compare_once; then
        echo "possible regression; re-measuring to confirm..."
        measure
        compare_once
    fi
fi
