#!/usr/bin/env bash
# Correctness-check driver: builds and tests the repo under each checking
# configuration.
#
#   tools/run_checks.sh            # default + lint + asan-ubsan + tidy
#   tools/run_checks.sh default    # plain build + ctest (invariant audits on)
#   tools/run_checks.sh lint       # build wcds_lint and run it over the tree
#   tools/run_checks.sh asan       # AddressSanitizer + UBSan build + ctest
#   tools/run_checks.sh tsan       # ThreadSanitizer build + ctest
#   tools/run_checks.sh tidy       # clang-tidy gate (skipped if not installed)
#   tools/run_checks.sh clang      # clang build with -Wthread-safety + ctest
#
# Stages that need tools the host may lack (tidy: clang-tidy, clang: clang++)
# normally SKIP when the tool is missing; set WCDS_REQUIRE_TOOLS=1 (CI does)
# to turn a missing tool into a hard failure.
#
# Every stage uses the CMake presets in CMakePresets.json, so CI and local
# runs share one definition of each configuration.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
WCDS_REQUIRE_TOOLS="${WCDS_REQUIRE_TOOLS:-0}"
FAILURES=()

banner() { printf '\n==== %s ====\n' "$*"; }

# skip_or_fail <stage> <tool>: honor WCDS_REQUIRE_TOOLS for a missing tool.
skip_or_fail() {
  if [ "$WCDS_REQUIRE_TOOLS" = "1" ]; then
    banner "$1 FAILED: $2 is not installed (WCDS_REQUIRE_TOOLS=1)"
    return 1
  fi
  banner "$1 SKIPPED: $2 is not installed"
  return 0
}

run_preset() {
  local preset="$1"
  banner "configure [$preset]"
  cmake --preset "$preset"
  banner "build [$preset]"
  cmake --build --preset "$preset" -j "$JOBS"
}

stage_default() {
  run_preset default
  banner "ctest [default]"
  ctest --preset default -j "$JOBS"
}

stage_lint() {
  # The repo's own linter (tools/lint); the default preset builds it.
  banner "configure [default]"
  cmake --preset default
  banner "build [wcds_lint]"
  cmake --build --preset default --target wcds_lint -j "$JOBS"
  banner "wcds_lint src tools bench"
  ./build/tools/lint/wcds_lint --root . src tools bench
  banner "wcds_lint tests (relaxed profile)"
  ./build/tools/lint/wcds_lint --root . --profile=tests tests
  banner "wcds_lint bench (bench profile)"
  ./build/tools/lint/wcds_lint --root . --profile=bench bench
}

stage_asan() {
  run_preset asan-ubsan
  banner "ctest [asan-ubsan]"
  ctest --preset asan-ubsan -j "$JOBS"
}

stage_tsan() {
  run_preset tsan
  banner "ctest [tsan]"
  ctest --preset tsan -j "$JOBS"
}

stage_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    skip_or_fail tidy clang-tidy
    return $?
  fi
  # The tidy preset runs clang-tidy on every TU during the build; warnings
  # are promoted to errors by .clang-tidy's WarningsAsErrors.
  run_preset tidy
}

stage_clang() {
  if ! command -v clang++ >/dev/null 2>&1; then
    skip_or_fail clang clang++
    return $?
  fi
  # Clang build turns on -Wthread-safety (see wcds_warnings), checking the
  # annotations in src/base/thread_annotations.h; gcc ignores them.
  run_preset clang
  banner "ctest [clang]"
  ctest --preset clang -j "$JOBS"
}

run_stage() {
  local name="$1"
  if "stage_$name"; then
    banner "$name OK"
  else
    banner "$name FAILED"
    FAILURES+=("$name")
  fi
}

STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(default lint asan tidy)
fi

for stage in "${STAGES[@]}"; do
  case "$stage" in
    default|lint|asan|tsan|tidy|clang) run_stage "$stage" ;;
    asan-ubsan) run_stage asan ;;
    *)
      echo "unknown stage: $stage (expected default|lint|asan|tsan|tidy|clang)" >&2
      exit 2
      ;;
  esac
done

if [ ${#FAILURES[@]} -ne 0 ]; then
  banner "FAILED stages: ${FAILURES[*]}"
  exit 1
fi
banner "all stages passed"
