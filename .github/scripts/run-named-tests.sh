#!/usr/bin/env bash
# Runs a named differential gate under the race detector:
#   run-named-tests.sh 'TestA|TestB' ./internal/pkg [extra go test flags]
# Every '|' alternative of the pattern must select at least one test in the
# package, so a renamed or deleted test fails the step instead of turning
# the gate green by running nothing.
set -euo pipefail

pattern=$1
pkg=$2
shift 2

IFS='|' read -ra alternatives <<< "$pattern"
for alt in "${alternatives[@]}"; do
  # Listed into a variable first: grep -q closing the pipe early would fail
  # the go command under pipefail.
  listed=$(go test -list "$alt" "$pkg")
  if ! grep -q '^Test' <<< "$listed"; then
    echo "run-named-tests: pattern '$alt' selects no test in $pkg" >&2
    exit 1
  fi
done
exec go test -race -run "$pattern" -v "$@" "$pkg"
