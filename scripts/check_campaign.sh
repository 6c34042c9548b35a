#!/usr/bin/env bash
# Campaign digest check: runs the same scenario selection three times and
# fails unless every run passes and every per-scenario trace digest is
# byte-identical to the serial run's. --jobs N checks that the thread
# schedule changes nothing; --jobs N on the global max-min oracle
# (GRIDSIM_NET_ORACLE=1) checks that the incremental solver changes
# nothing, down to the last ulp of a rate. A run fails when a scenario
# throws, times out or gets a failing lint verdict (an undeclared race, a
# leak); the script then names the run and prints its failed rows.
#
# Given a CAMPAIGN.json from another build (typically the parent commit,
# run with the same filter and the default seed), the script also checks
# that the change is output-neutral: the rows of the serial, of the
# --jobs N and of the oracle run must equal that report's rows line for
# line once `wall_s` is stripped from all of them (so the oracle check
# covers every row field, not only the digest); otherwise it prints the
# diff and exits 1.
#
# Usage: scripts/check_campaign.sh [filter] [jobs] [path/to/gridsim] [base.json]
#   FILTER  glob over scenario names/groups (default: table4*)
#   JOBS    parallel worker count to compare against --jobs 1 (default: nproc)
#   BASE    optional CAMPAIGN.json whose rows the runs must reproduce
#   GRIDSIM_CLI overrides the default binary location.
set -euo pipefail

cd "$(dirname "$0")/.."

FILTER="${1:-table4*}"
JOBS="${2:-$(nproc)}"
CLI="${3:-${GRIDSIM_CLI:-build/src/tools/gridsim}}"
BASE="${4:-}"

if [[ ! -x "$CLI" ]]; then
  echo "check_campaign: gridsim binary not found at '$CLI'" >&2
  echo "build it first: cmake --preset release && cmake --build --preset release" >&2
  exit 2
fi
if [[ -n "$BASE" && ! -f "$BASE" ]]; then
  echo "check_campaign: base report '$BASE' not found" >&2
  exit 2
fi

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

# run NAME ORACLE JOBS: one campaign; its name+digest pairs go to NAME.digests
# (one scenario object per report line, so grep needs no JSON parser). The
# campaign itself exits 2 when the filter matches no scenario.
run() {
  local status=0
  GRIDSIM_NET_ORACLE="$2" "$CLI" campaign --filter "$FILTER" --jobs "$3" \
    --out "$WORKDIR/$1" > "$WORKDIR/$1.log" || status=$?
  if [[ "$status" -ne 0 ]]; then
    echo "check_campaign: $1 run (--jobs $3, GRIDSIM_NET_ORACLE=$2) exited $status" >&2
    if [[ -f "$WORKDIR/$1/CAMPAIGN.json" ]]; then
      grep '"ok": false' "$WORKDIR/$1/CAMPAIGN.json" >&2 || true
    else
      tail -n 5 "$WORKDIR/$1.log" >&2
    fi
    exit "$status"
  fi
  grep -o '"name": "[^"]*", "group": "[^"]*", "ok": [a-z]*, "digest": "[0-9a-f]*"' \
    "$WORKDIR/$1/CAMPAIGN.json" > "$WORKDIR/$1.digests"
}

run serial 0 1
run parallel 0 "$JOBS"
run oracle 1 "$JOBS"

for other in parallel oracle; do
  if ! diff -u "$WORKDIR/serial.digests" "$WORKDIR/$other.digests"; then
    echo "check_campaign: $other run (--jobs $JOBS) digests differ from the serial run" >&2
    exit 1
  fi
done

COUNT="$(wc -l < "$WORKDIR/serial.digests")"
echo "check_campaign: $COUNT scenario digests identical at --jobs 1, at --jobs $JOBS and on the oracle solver (filter '$FILTER')"

if [[ -n "$BASE" ]]; then
  # rows FILE: the report's scenario rows, one per line, minus wall time.
  rows() { grep '^ *{"name": ' "$1" | sed -E 's/"wall_s": [-+0-9.eE]+, //'; }
  rows "$BASE" > "$WORKDIR/base.rows"
  for run in serial parallel oracle; do
    rows "$WORKDIR/$run/CAMPAIGN.json" > "$WORKDIR/$run.rows"
    if ! diff -u "$WORKDIR/base.rows" "$WORKDIR/$run.rows"; then
      echo "check_campaign: $run run's rows differ from $BASE (wall_s aside)" >&2
      exit 1
    fi
  done
  echo "check_campaign: $COUNT rows equal to $BASE at --jobs 1, at --jobs $JOBS and on the oracle solver, wall_s aside"
fi
