#!/usr/bin/env bash
# Usage: scripts/loc.sh
#
# Prints the non-test Go lines of every package outside bench/ (the
# benchmark is its own module), one package per line, then the total.
# Lines are counted as `wc -l` counts them, comments and blank lines
# included, over the files git tracks plus untracked ones it does not
# ignore, so a new file counts before it is staged.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
git ls-files --cached --others --exclude-standard -- '*.go' ':!:*_test.go' ':!:bench/*' |
	while read -r f; do
		[ -f "$f" ] && printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
	done |
	awk '{ n[$1] += $2; total += $2 }
	END {
		for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
