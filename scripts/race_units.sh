#!/usr/bin/env bash
# race_units.sh COUNT PATTERN PKG... — run the tests matching PATTERN in the
# given packages under the race detector, COUNT times. `go test -run` exits 0
# when a pattern matches nothing, so this also fails on the "no tests to run"
# warning: a rename cannot silently drop a test from the CI step that names it.
set -u
if [ "$#" -lt 3 ]; then
  echo "usage: $0 COUNT PATTERN PKG..." >&2
  exit 2
fi
count=$1
pattern=$2
shift 2

status=0
out="$(go test -race -count "$count" -run "$pattern" "$@" 2>&1)" || status=$?
echo "$out"
if echo "$out" | grep -q "no tests to run"; then
  echo "pattern matched no tests in a package: $pattern" >&2
  exit 1
fi
exit $status
