#!/usr/bin/env bash
# One-command reproduction: build, run the full test suite, and
# regenerate every table and figure of the paper (plus the ablations)
# with the paper scoreboard on top. Outputs land in test_output.txt
# and paper_report.md next to this repository's root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"

ctest --test-dir build 2>&1 | tee test_output.txt

build/examples/paper_report paper_report.md

echo
echo "done: see test_output.txt, paper_report.md, EXPERIMENTS.md"
