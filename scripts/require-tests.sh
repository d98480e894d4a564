#!/usr/bin/env bash
# Usage: scripts/require-tests.sh PATTERN PKG...
#
# Fails unless every alternative of PATTERN (split on '|') names at
# least one test, benchmark, fuzz target or example in PKG..., as
# `go test -list` reports them. A step that selects tests by name runs
# this first, so a renamed or misspelled test fails the step instead of
# passing it with "[no tests to run]" or "no fuzz tests to fuzz".
# Set GO to use another go binary.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 PATTERN PKG..." >&2
	exit 2
fi
pattern=$1
shift

missing=0
IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
	listed=$("${GO:-go}" test -list "$alt" "$@")
	# Every line but the per-package "ok"/"?" summaries is a name.
	if ! grep -qvE '^(ok|\?)[[:space:]]' <<<"$listed"; then
		echo "require-tests: '$alt' selects nothing in $*" >&2
		missing=1
	fi
done
exit "$missing"
