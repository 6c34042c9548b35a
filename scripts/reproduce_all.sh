#!/usr/bin/env bash
# Builds everything, runs the full test suite and regenerates every table
# and figure of the paper from the scenario catalog.
#
# Usage: scripts/reproduce_all.sh [OUT_DIR]   (default: reproduce-results)
#
# The build uses CMake's default generator, as `cmake -B build -S .` does,
# so an existing build/ configured that way is reused. OUT_DIR receives
# test_output.txt, campaign_output.txt (every group rendered by
# `gridsim campaign --render`) and CAMPAIGN.json.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-reproduce-results}"
JOBS="$(nproc)"
mkdir -p "$OUT"

cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS" 2>&1 |
  tee "$OUT/test_output.txt"

build/src/tools/gridsim campaign --jobs "$JOBS" --render --out "$OUT" |
  tee "$OUT/campaign_output.txt"
echo "done: see $OUT/test_output.txt, $OUT/campaign_output.txt and" \
     "$OUT/CAMPAIGN.json"
