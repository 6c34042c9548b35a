#!/usr/bin/env bash
# The continuous-integration steps, one stage per CI job
# (.github/workflows/ci.yml). Each stage runs the same way locally.
#
# Usage: scripts/ci.sh release|asan|tsan|static
#
#   release  Release build (warnings are errors), the full ctest, the
#            docs-vs-catalog count check, the whole catalog through
#            scripts/check_campaign.sh at --jobs 4 (every scenario must pass,
#            its lint verdict included, with digests identical at --jobs 1,
#            at --jobs 4 and on the oracle solver), then the perfbench
#            self-test and its reference check of all 16 fig12/OpenMPI cells.
#   asan     ASan+UBSan build, the full ctest (stress label included), the
#            sanitized campaign subsets (robust/*, table4*, coll/*) and two
#            bounded model-checker runs. Reports go to ci-results/.
#   tsan     TSan build, the fast ctest and two threaded campaign checks:
#            table4* (runner-built Simulations) and mc/* (closure-built).
#   static   clang-tidy and clang-format (scripts/run_static_analysis.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

NPROC="$(nproc)"

step() {
  echo "ci.sh: $*"
  "$@"
}

stage_release() {
  step cmake --preset release -DGRIDSIM_WERROR=ON
  step cmake --build --preset release -j "$NPROC"
  step ctest --preset release -j "$NPROC"
  step scripts/check_catalog_counts.sh build/src/tools/gridsim
  step scripts/check_campaign.sh '*' 4 build/src/tools/gridsim
  step python3 perfbench/selftest.py
  step python3 perfbench/run.py --workload npb_lu --seconds 1
  step python3 perfbench/run.py --workload npb_bulk --seconds 1
}

stage_asan() {
  local bin=build-asan/src/tools/gridsim
  step cmake --preset asan-ubsan
  step cmake --build --preset asan-ubsan -j "$NPROC"
  step ctest --preset asan-ubsan -j "$NPROC"
  step scripts/check_campaign.sh 'robust/*' 8 "$bin"
  step scripts/check_campaign.sh 'table4*' 8 "$bin"
  # coll/verify-<impl> must find no guideline violation and
  # coll/misrule-fixture must catch the inverted bcast table.
  step "$bin" campaign --filter 'coll/*' --jobs "$NPROC" \
    --out ci-results/coll
  step "$bin" mc --scenario 'mc/pingpong-wild-*' --max-execs 32 \
    --out ci-results/mc-pingpong
  step "$bin" mc --scenario 'mc/bcast-*' --max-execs 16 \
    --out ci-results/mc-bcast
}

stage_tsan() {
  step cmake --preset tsan
  step cmake --build --preset tsan -j "$NPROC"
  step ctest --preset tsan -L fast -j "$NPROC"
  step scripts/check_campaign.sh 'table4*' 8 build-tsan/src/tools/gridsim
  # The mc/* closures build their own Simulations, each reading its
  # worker's thread-local hooks guard at construction.
  step scripts/check_campaign.sh 'mc/*' 8 build-tsan/src/tools/gridsim
}

stage_static() {
  step scripts/run_static_analysis.sh
}

case "${1:-}" in
  release) stage_release ;;
  asan) stage_asan ;;
  tsan) stage_tsan ;;
  static) stage_static ;;
  *)
    echo "usage: $0 release|asan|tsan|static" >&2
    exit 2
    ;;
esac
echo "ci.sh: $1 stage passed"
