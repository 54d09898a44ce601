#!/usr/bin/env bash
# Tier-1 check: configure, build, run the full test suite, then re-run the
# bit-identical guarantees explicitly — replay parity (the two-phase sweep
# engine), sharded-generation determinism (the parallel generator), and the
# guards of the one Section-5 collector engine that serial, parallel and
# live analysis share: the golden values, the parity suites, the front door
# and the hostile-input drills.
# Usage: scripts/check.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")
"$BUILD_DIR"/tests/cache_tests --gtest_filter='ReplayParity.*:ReplayLogStats.*'
"$BUILD_DIR"/tests/workload_tests --gtest_filter='ShardedGenerator.*:ShardedStream.*'
"$BUILD_DIR"/tests/analysis_tests --gtest_filter='ActivityGolden.*:SectionGolden.*:ParallelAnalyzer.*:*StandardWorkloadParity.*:RollingAnalyzer.*:*RollingWorkloadParity.*:*RollingIntervalParity.*:AnalyzeApi.*:Hostile*'

echo "check.sh: all tests passed"
