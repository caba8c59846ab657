#!/usr/bin/env sh
# Tier-1 verify: the exact gate every PR is judged against (see ROADMAP.md).
# Usage: scripts/verify.sh [--fast] [--bench-compare]
#   --fast           skip the slow-labelled suites
#   --bench-compare  after the tests, run the system bench and fail on a
#                    >25% wall-clock regression vs the committed baseline
#                    (opt-in: wall clock is noisy on shared machines)
set -eu

cd "$(dirname "$0")/.."

FAST=0
BENCH_COMPARE=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --bench-compare) BENCH_COMPARE=1 ;;
    *) echo "verify.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

scripts/check_headers.sh
scripts/check_docs.sh

cmake -B build -S . -DJRF_WERROR=ON
cmake --build build -j"$(nproc 2>/dev/null || echo 4)"

# The benchmark harness compiles ../src through the facade: building it
# here fails a facade API change that would break the benchmark. Same
# build directory as perfbench/run.py, so the two share one build.
cmake -S perfbench -B .bench_build/perfbench
cmake --build .bench_build/perfbench -j"$(nproc 2>/dev/null || echo 4)"

if [ "$FAST" -eq 1 ]; then
  ctest --test-dir build -L tier1 --no-tests=error --output-on-failure \
    -j"$(nproc 2>/dev/null || echo 4)"
else
  ctest --test-dir build --no-tests=error --output-on-failure \
    -j"$(nproc 2>/dev/null || echo 4)"
fi

if [ "$BENCH_COMPARE" -eq 1 ]; then
  scripts/bench.sh --compare bench_system_throughput
fi
