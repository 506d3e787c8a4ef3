#!/usr/bin/env bash
# Repo-wide check: configure, build, and run the full test suite, then the
# labeled suites the acceptance gates care about. This is what CI runs; run
# it locally before pushing.
#
# Usage: scripts/check.sh [build-dir]       (default: build; the benchmark
#                                           harness builds in <build-dir>-perfbench)
#   SNORLAX_CHECK_TSAN=1 scripts/check.sh   additionally builds with
#                                           -DSNORLAX_SANITIZE=thread and runs
#                                           the concurrency (three times
#                                           each) and net labels under TSan.
#   SNORLAX_CHECK_ASAN=1 scripts/check.sh   additionally builds with
#                                           -DSNORLAX_SANITIZE=address and runs
#                                           every test but the perf-smoke
#                                           label under ASan+UBSan.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure + build (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== tier-1: full test suite =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# The labeled suites run as part of the full suite above; re-running them
# by label keeps their pass/fail visible as separate CI steps.
for label in chaos net cluster concurrency perf-smoke fuzz golden; do
  echo "== label: ${label} =="
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -L "${label}"
done

echo "== accuracy sweep (64-scenario CI subset) =="
"${BUILD_DIR}/bench/bench_accuracy_sweep" --scenarios=64 --json=BENCH_accuracy.json

echo "== pattern engine bench (step-5/6 latency per workload; no gate) =="
"${BUILD_DIR}/bench/micro_patterns" --rounds=1 --json=BENCH_patterns.json

echo "== repair loop (catalogue + 64-scenario cohort, validated-fix gate) =="
"${BUILD_DIR}/bench/bench_repair" --scenarios=64 --json=BENCH_repair.json

echo "== cluster kill/restart (3 daemons; restored reports must be digest-identical) =="
# Restore and hand-off rebuild every evidence trace from its bundle (success
# traces as projections), so a restarted daemon must still report what the
# uninterrupted fleet does. Exits 1 unless identical_reports is true.
"${BUILD_DIR}/bench/bench_fleet" --daemons=3 --rounds=3 --kill-restart --json=BENCH_fleet.json

echo "== SARIF render sanity (jq, 2.1.0 shape) =="
"${BUILD_DIR}/snorlax_cli" generate --bug=oltp-atomicity --seed=9 --out=sample_bug.sir
"${BUILD_DIR}/snorlax_cli" diagnose sample_bug.sir --suggest-fix --report=sarif \
    > sample_report.sarif
jq -e '.version == "2.1.0" and (.runs | length) >= 1
       and (.runs[0].results | length) >= 1
       and (.runs[0].tool.driver.name == "snorlax")' sample_report.sarif > /dev/null

echo "== JSON render sanity (jq, analysis time from the pass table) =="
# The pass table is the one timing record: the JSON report's analysis time
# is its steps 2-7 sum, and trace processing must show up as a timed row.
"${BUILD_DIR}/snorlax_cli" diagnose sample_bug.sir --report=json > sample_report.json
jq -e '.stages.analysis_seconds > 0
       and any(.stages.passes[]; .pass == "trace-process" and .ms > 0)' \
    sample_report.json > /dev/null

echo "== --explain sanity (a row per pass, the store summary, residency verdicts) =="
# Every pass a plain diagnose runs (kRepair runs only with --suggest-fix)
# prints a row; the store's residency column knows resident / evicted /
# absent only.
explain="$("${BUILD_DIR}/snorlax_cli" diagnose sample_bug.sir --explain)"
for pass in trace-process deref-chains points-to type-rank patterns score; do
  grep -Eq "^  ${pass} +(ran|cache-hit|skipped) " <<< "${explain}"
done
grep -q '^  artifact store: ' <<< "${explain}"
if grep -q 'pinned' <<< "${explain}"; then
  echo "--explain printed a residency verdict the store no longer has" >&2
  exit 1
fi

echo "== benchmark harness (perfbench build + unit tests) =="
# perfbench/ compiles bench/throughput_harness.cc and reads the net and wire
# APIs, so build it from this checkout and run its own C++ and Python tests.
cmake -B "${BUILD_DIR}-perfbench" -S perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}-perfbench" -j "${JOBS}" --target perfbench perfbench_test
"${BUILD_DIR}-perfbench/perfbench_test"
python3 -m unittest discover -s perfbench/tests

if [[ "${SNORLAX_CHECK_TSAN:-0}" == "1" ]]; then
  echo "== TSan: concurrency and net labels =="
  cmake -B "${BUILD_DIR}-tsan" -S . -DSNORLAX_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${BUILD_DIR}-tsan" -j "${JOBS}"
  # Each concurrency test gets three runs, so a racy interleaving has more
  # than one chance to show.
  ctest --test-dir "${BUILD_DIR}-tsan" --output-on-failure -L concurrency \
        --repeat until-fail:3
  ctest --test-dir "${BUILD_DIR}-tsan" --output-on-failure -L net
fi

if [[ "${SNORLAX_CHECK_ASAN:-0}" == "1" ]]; then
  # perf-smoke is left out because ASan distorts the timing ratios those
  # tests gate on. fuzz runs: its hostile-input decoders are what the
  # sanitizers are for.
  echo "== ASan+UBSan: all but perf-smoke =="
  cmake -B "${BUILD_DIR}-asan" -S . -DSNORLAX_SANITIZE=address \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${BUILD_DIR}-asan" -j "${JOBS}"
  ctest --test-dir "${BUILD_DIR}-asan" --output-on-failure -j "${JOBS}" -LE perf-smoke
fi

echo "== all checks passed =="
