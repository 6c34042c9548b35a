#!/usr/bin/env bash
# Cross-checks the scenario count the docs state against the registered
# catalog (`gridsim campaign --list`), so the prose cannot drift from the
# code. Any doc listed below that says "<N> scenarios" must agree with the
# catalog footer exactly.
#
# Usage: scripts/check_catalog_counts.sh [path/to/gridsim]
set -euo pipefail

cd "$(dirname "$0")/.."

BIN="${1:-build/src/tools/gridsim}"
if [[ ! -x "$BIN" ]]; then
  echo "check_catalog_counts: gridsim binary not found at $BIN" >&2
  echo "check_catalog_counts: build it first (cmake --build --preset release --target gridsim)" >&2
  exit 2
fi

# The list ends with a "<N> scenarios" footer; that is the ground truth.
ACTUAL=$("$BIN" campaign --list | tail -1 | awk '{print $1}')
if ! [[ "$ACTUAL" =~ ^[0-9]+$ ]]; then
  echo "check_catalog_counts: could not parse catalog size from" \
       "'$BIN campaign --list'" >&2
  exit 2
fi

# Docs that state the catalog size. Each must contain at least one
# "<N> scenarios" phrase, and every such phrase must match the catalog.
DOCS=(README.md docs/architecture.md docs/usage.md)

STATUS=0
for doc in "${DOCS[@]}"; do
  mapfile -t COUNTS < <(grep -oE '[0-9]+ scenarios' "$doc" | awk '{print $1}')
  if [[ "${#COUNTS[@]}" -eq 0 ]]; then
    echo "check_catalog_counts: $doc no longer states a scenario count" \
         "(expected \"$ACTUAL scenarios\" somewhere)" >&2
    STATUS=1
    continue
  fi
  for count in "${COUNTS[@]}"; do
    if [[ "$count" != "$ACTUAL" ]]; then
      echo "check_catalog_counts: $doc says \"$count scenarios\" but the" \
           "catalog registers $ACTUAL" >&2
      STATUS=1
    fi
  done
done

# The coll/* group is documented separately (docs/collectives.md states
# "<N> scenarios" for the group); keep that number honest too.
COLL_ACTUAL=$("$BIN" campaign --list --filter 'coll/*' | grep -c '^coll/' || true)
COLL_DOC=$(grep -oE '`coll/\*` catalog group \([0-9]+ scenarios' docs/collectives.md \
           | grep -oE '[0-9]+' || true)
if [[ -z "$COLL_DOC" ]]; then
  echo "check_catalog_counts: docs/collectives.md no longer states the" \
       "coll/* group size" >&2
  STATUS=1
elif [[ "$COLL_DOC" != "$COLL_ACTUAL" ]]; then
  echo "check_catalog_counts: docs/collectives.md says the coll/* group has" \
       "$COLL_DOC scenarios but the catalog registers $COLL_ACTUAL" >&2
  STATUS=1
fi

if [[ "$STATUS" -ne 0 ]]; then
  echo "check_catalog_counts: FAILED (update the docs or the catalog)" >&2
else
  echo "check_catalog_counts: docs agree with the catalog ($ACTUAL scenarios," \
       "coll group $COLL_ACTUAL)"
fi
exit "$STATUS"
