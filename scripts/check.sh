#!/usr/bin/env bash
# Correctness-tooling driver: builds and runs the tier-1 suite under each
# sanitizer preset, then runs the static checks (repo lint, and
# clang-tidy / Clang Thread Safety Analysis when clang is available).
#
# Usage:
#   scripts/check.sh                 # release + asan-ubsan + tsan + lint
#   scripts/check.sh asan-ubsan      # just one preset
#   scripts/check.sh lint            # just the static checks
#   scripts/check.sh thread-safety   # clang -Werror=thread-safety build
#   SSJOIN_CHECK_JOBS=4 scripts/check.sh   # cap parallelism
#
# Exits non-zero on the first failing stage. Every stage prints a
# "=== check.sh: ..." banner so CI logs are easy to scan.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$(pwd)
JOBS=${SSJOIN_CHECK_JOBS:-$(nproc 2>/dev/null || echo 4)}

# The ctest presets set these too; exporting them here keeps direct
# invocations of the test binaries (debugging a single failure) consistent
# with what scripts/check.sh and CI run.
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:detect_stack_use_after_return=1:check_initialization_order=1:abort_on_error=1:suppressions=$ROOT/tools/sanitizers/asan.supp"
export LSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/lsan.supp"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1:suppressions=$ROOT/tools/sanitizers/ubsan.supp"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=$ROOT/tools/sanitizers/tsan.supp"

banner() { printf '\n=== check.sh: %s ===\n' "$*"; }

run_preset() {
  local preset=$1
  banner "configure [$preset]"
  cmake --preset "$preset"
  banner "build [$preset]"
  cmake --build --preset "$preset" -j "$JOBS"
  banner "test [$preset]"
  ctest --preset "$preset"
}

run_lint() {
  banner "ssjoin_lint"
  python3 tools/lint/ssjoin_lint.py --root "$ROOT"
  banner "ssjoin_lint self-test"
  python3 tools/lint/ssjoin_lint.py --self-test --root "$ROOT"
  if command -v clang-tidy >/dev/null 2>&1; then
    banner "clang-tidy"
    tools/lint/run_clang_tidy.sh
  else
    banner "clang-tidy not installed; skipping (install clang-tidy to run)"
  fi
}

# Clang Thread Safety Analysis: a clang build with -Werror=thread-safety
# (enabled automatically by CMakeLists for clang). Compile-only gate — the
# full test suites already run under the sanitizer presets above.
run_thread_safety() {
  if ! command -v clang++ >/dev/null 2>&1; then
    banner "clang++ not installed; skipping thread-safety build"
    return 0
  fi
  banner "configure [thread-safety]"
  cmake -B build/thread-safety -S . \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSSJOIN_THREAD_SAFETY=ON
  banner "build [thread-safety]"
  cmake --build build/thread-safety -j "$JOBS"
}

STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(release asan-ubsan tsan lint thread-safety)
fi

for stage in "${STAGES[@]}"; do
  case "$stage" in
    release|asan-ubsan|tsan) run_preset "$stage" ;;
    lint) run_lint ;;
    thread-safety) run_thread_safety ;;
    *)
      echo "check.sh: unknown stage '$stage'" \
           "(expected release|asan-ubsan|tsan|lint|thread-safety)" >&2
      exit 2
      ;;
  esac
done

banner "all stages passed"
