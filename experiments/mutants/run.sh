#!/usr/bin/env bash
# The mutant catalogue's runner. Each experiments/mutants/*.diff is one small
# defect of the program, with a header naming the packages to test and the
# tests (a -run alternation) expected to fail on it:
#
#   mutant: what the diff breaks
#   source: where the claim comes from (an EXPERIMENTS.md section, "example")
#   packages: ./internal/sim
#   tests: TestA|TestB
#   timeout: 60s            (optional; go test's -timeout, 300s when absent)
#
# Usage:
#   experiments/mutants/run.sh            # every mutant
#   experiments/mutants/run.sh NAME...    # the named ones (file names without .diff)
#   experiments/mutants/run.sh -check     # git apply --check of every diff; runs no test
#
# Without -check, the tree is copied to a temporary directory under $TMPDIR,
# and each mutant is applied there, tested with go test -count=1 -run over its
# packages, and reverted. One line per mutant: "caught" when a named test
# fails or the tests hang past the timeout, "escaped" when all pass, "broken"
# when the diff does not apply or the mutant does not build. The exit status
# is 0 either way; -check exits 1 when any diff no longer applies, naming it.
set -u
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)

header() { sed -n "s/^$1: //p;/^diff --git/q" "$2"; }

if [ "${1:-}" = "-check" ]; then
	bad=0
	for d in "$here"/*.diff; do
		if ! git -C "$root" apply --check "$d" 2>/dev/null; then
			echo "does not apply: $(basename "$d" .diff)"
			bad=1
		fi
	done
	[ $bad = 0 ] && echo "all $(ls "$here"/*.diff | wc -l) mutants apply"
	exit $bad
fi

diffs=()
if [ $# -gt 0 ]; then
	for n in "$@"; do diffs+=("$here/${n%.diff}.diff"); done
else
	diffs=("$here"/*.diff)
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
tar -C "$root" --exclude=./.git --exclude=./.bench_build -cf - . | tar -C "$tmp" -xf -

for d in "${diffs[@]}"; do
	name=$(basename "$d" .diff)
	pkgs=$(header packages "$d")
	tests=$(header tests "$d")
	limit=$(header timeout "$d")
	if ! (cd "$tmp" && git apply "$d" 2>/dev/null); then
		echo "broken   $name (does not apply)"
		continue
	fi
	# shellcheck disable=SC2086
	out=$(cd "$tmp" && go test -count=1 -timeout "${limit:-300s}" -run "^($tests)\$" $pkgs 2>&1)
	status=$?
	(cd "$tmp" && git apply -R "$d")
	failed=$(printf '%s\n' "$out" | sed -n 's/^--- FAIL: \([^ /]*\).*/\1/p' | sort -u | head -4 | paste -sd, -)
	if [ $status = 0 ]; then
		echo "escaped  $name"
	elif printf '%s\n' "$out" | grep -q -e '\[build failed\]' -e '\[setup failed\]'; then
		echo "broken   $name (does not build)"
	elif printf '%s\n' "$out" | grep -q '^panic: test timed out'; then
		echo "caught   $name (timed out: the tests hang)"
	else
		echo "caught   $name${failed:+ ($failed)}"
	fi
done
