#!/usr/bin/env bash
# One-command reproduction: build, run the full test suite, and
# regenerate every table/figure of the paper (plus the ablations).
# Outputs land in test_output.txt and bench_output.txt next to this
# repository's root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"

ctest --test-dir build 2>&1 | tee test_output.txt

# The printers are exactly bench/CMakeLists.txt's INCA_BENCHES; the
# other bench binaries time kernels (bench_kernels) or gate those
# timings (bench_compare).
printers=$(sed -n '/^set(INCA_BENCHES/,/)/p' bench/CMakeLists.txt |
    grep -o 'bench_[a-z0-9_]*')
{
    for b in $printers; do
        echo "################ build/bench/$b"
        "build/bench/$b"
        echo
    done
} 2>&1 | tee bench_output.txt

echo
echo "done: see test_output.txt, bench_output.txt, EXPERIMENTS.md"
