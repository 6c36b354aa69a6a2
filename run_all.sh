#!/usr/bin/env bash
# Regenerates everything: builds the tree, runs the tests, then every
# bench target (figures, tables, ablations, extensions and the
# micro_structures host benchmarks). Stops if the build or a test fails;
# runs every bench, then exits non-zero naming any bench that failed.
# Host-time A/B measurement is perfbench/run.py (see BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")"
cmake -B build -S .
cmake --build build -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir build 2>&1 | tee test_output.txt
: > bench_output.txt
# Exactly the bench targets bench/CMakeLists.txt defines (configure writes
# the list); a stale binary of a retired target in build/bench is skipped.
mapfile -t benches < build/bench/bench_targets.txt
failed=()
for n in "${benches[@]}"; do
  if ! "build/bench/$n" 2>&1 | tee -a bench_output.txt; then
    failed+=("$n")
  fi
done
if [ "${#failed[@]}" -ne 0 ]; then
  echo "run_all.sh: bench failed: ${failed[*]}" >&2
  exit 1
fi
