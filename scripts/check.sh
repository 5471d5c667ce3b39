#!/usr/bin/env bash
# CI-style gate for the concurrent event path:
#   1. project lint (scripts/lint.py): self-test against the seeded
#      violation fixtures, then the real tree; then the whole-program
#      static analyzer (scripts/analyze.py): self-test, then the tree
#      gate (zero unsuppressed/unbaselined findings);
#   2. configure + build with -Werror (plus -Wthread-safety under Clang,
#      where the common/mutex.h annotations are machine-checked) and run
#      the tier-1 ctest suite (-L tier1: fast, deterministic);
#   3. Debug EDADB_CHECK_STATUS build (unchecked-Status detector armed,
#      and no NDEBUG, so the common/mutex.h lock-rank registry runs too)
#      and the status-discipline suite, including the abort death
#      tests, plus the db, mq, pubsub, core, rules and cq suites under
#      both detectors;
#   4. rebuild with EDADB_SANITIZE=address;undefined and re-run the
#      tier-1 suite so memory errors and UB fail the gate too;
#   5. crash-recovery torture suite (-L torture) on the ASan build,
#      bounded to CHECK_TORTURE_SCHEDULES randomized schedules so the
#      gate stays fast; export EDADB_TEST_SEED to replay a failure;
#   6. (optional, CHECK_TSAN=1) rebuild with EDADB_SANITIZE=thread and
#      run the mq, core, pub/sub, rules, cq and db suites and the
#      *_concurrency_test suites under TSan;
#   7. clang-tidy over src/ and tests/. Missing clang-tidy FAILS the
#      gate (no silent degradation); set CHECK_SKIP_TIDY=1 to skip
#      explicitly on machines without LLVM.
#
# Usage: scripts/check.sh               # stages 1-5 + 7
#        CHECK_TSAN=1 scripts/check.sh  # also stage 6
#        CHECK_SKIP_TIDY=1 scripts/check.sh  # no LLVM installed
#
# The first failing stage aborts the run; a per-stage summary prints on
# exit either way.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
PYTHON="${PYTHON:-python3}"

# Suite lists of stages 3 and 6; the CI check-status and tsan jobs run
# the same lists. integration_test is not under TSan: its
# ConcurrencyTest.ParallelWritersAndReadersAndCheckpoints can run past
# ctest's 300 s limit under sanitizers (writers starve behind readers on
# the database lock).
STATUS_SUITES=(common_test db_test mq_test pubsub_test core_test rules_test
  cq_test)
TSAN_SUITES=(mq_test core_test pubsub_test rules_test cq_test db_test
  broker_concurrency_test event_ring_concurrency_test
  metrics_concurrency_test)

suite_regex() {  # suite_regex <name>...: ctest -R for exactly these
  local IFS='|'
  echo "^($*)\$"
}

# ----------------------------------------------------------------------
# Stage bookkeeping: every stage records PASS/FAIL/SKIP; the summary
# prints on exit even when a stage aborts the script.
declare -a SUMMARY=()
CURRENT_STAGE=""

print_summary() {
  echo
  echo "== check.sh stage summary"
  if [ "${#SUMMARY[@]}" -eq 0 ]; then
    echo "  (no stages ran)"
  else
    printf '  %s\n' "${SUMMARY[@]}"
  fi
}
trap 'if [ -n "$CURRENT_STAGE" ]; then SUMMARY+=("FAIL  $CURRENT_STAGE"); fi; print_summary' EXIT

stage() {  # stage <name> <command> [args...]
  local name="$1"
  shift
  echo "=== $name"
  CURRENT_STAGE="$name"
  "$@"
  CURRENT_STAGE=""
  SUMMARY+=("PASS  $name")
}

skip() {  # skip <name> <reason>
  echo "=== $1 — SKIPPED ($2)"
  SUMMARY+=("SKIP  $1 ($2)")
}

run_suite() {
  local dir="$1"
  shift
  echo "== configure $dir ($*)"
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "== build $dir"
  cmake --build "$dir" -j "$JOBS" >/dev/null
  echo "== test $dir (tier1)"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" -L tier1)
}

check_status_suite() {
  # Detector builds change Status's layout, so this is its own tree;
  # only the library and STATUS_SUITES are built to keep the stage
  # cheap. Debug leaves NDEBUG off, so a lock-order inversion aborts.
  cmake -B build-checkstatus -S . -DCMAKE_BUILD_TYPE=Debug \
    -DEDADB_CHECK_STATUS=ON >/dev/null
  cmake --build build-checkstatus -j "$JOBS" \
    --target "${STATUS_SUITES[@]}" >/dev/null
  (cd build-checkstatus && ctest --output-on-failure \
    -R "$(suite_regex "${STATUS_SUITES[@]}")")
}

tidy_gate() {
  local tidy="${CLANG_TIDY:-clang-tidy}"
  if ! command -v "$tidy" >/dev/null 2>&1; then
    echo "check.sh: '$tidy' not found — the static-analysis gate cannot run." >&2
    echo "check.sh: install clang-tidy (e.g. apt install clang-tidy) or" >&2
    echo "check.sh: re-run with CHECK_SKIP_TIDY=1 to skip it explicitly." >&2
    return 1
  fi
  scripts/run_clang_tidy.sh build-check
}

# ----------------------------------------------------------------------
# Preflight: name the toolchain so a degraded run is visible up front.
if ! "${CXX:-c++}" --version 2>/dev/null | grep -qi clang; then
  echo "note: compiler is not Clang — the -Wthread-safety lock-discipline" >&2
  echo "note: analysis does not run here; CI's clang job covers it." >&2
fi

stage "1 lint (self-test + tree)" \
  bash -c "\"$PYTHON\" scripts/lint.py --self-test && \"$PYTHON\" scripts/lint.py"

# Whole-program concurrency & clock-domain analyzer (scripts/analyze.py,
# pure python): self-test against the seeded fixtures, then the tree
# gate — zero unsuppressed/unbaselined findings.
stage "1b analyze (self-test + tree)" \
  bash -c "\"$PYTHON\" scripts/analyze.py --self-test && \
    \"$PYTHON\" scripts/analyze.py"

stage "2 -Werror build + tier-1 tests" \
  run_suite build-check -DEDADB_WERROR=ON

# The metrics layer must be inert when disabled: the same suites that
# exercise it above must pass with the kill switch thrown (and the
# registry text/JSON dumps must still be well-formed, which
# metrics_test asserts in both modes).
stage "2b metrics kill-switch (EDADB_METRICS=0)" \
  bash -c "cd build-check && EDADB_METRICS=0 ctest --output-on-failure \
    -R '^(common_test|mq_test|core_test)\$'"

stage "3 EDADB_CHECK_STATUS detector suite" \
  check_status_suite

stage "4 ASan+UBSan build + tier-1 tests" \
  run_suite build-asan -DEDADB_WERROR=ON "-DEDADB_SANITIZE=address;undefined"

stage "5 crash-recovery torture (ASan, bounded)" \
  bash -c "cd build-asan && \
    EDADB_TORTURE_SCHEDULES=\"${CHECK_TORTURE_SCHEDULES:-60}\" \
    ctest --output-on-failure -L torture"

if [ "${CHECK_TSAN:-0}" = "1" ]; then
  tsan_suite() {
    cmake -B build-tsan -S . -DEDADB_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$JOBS" --target "${TSAN_SUITES[@]}" \
      >/dev/null
    (cd build-tsan && ctest --output-on-failure -j "$JOBS" \
        -R "$(suite_regex "${TSAN_SUITES[@]}")")
  }
  stage "6 TSan build + concurrency stress tests" tsan_suite
else
  skip "6 TSan build + concurrency stress tests" "set CHECK_TSAN=1 to enable"
fi

if [ "${CHECK_SKIP_TIDY:-0}" = "1" ]; then
  skip "7 clang-tidy (src + tests)" "CHECK_SKIP_TIDY=1"
else
  stage "7 clang-tidy (src + tests)" tidy_gate
fi

echo "check.sh: all gates green."
