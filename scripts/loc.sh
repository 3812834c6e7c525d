#!/usr/bin/env sh
# Non-test Go lines per package: `wc -l` summed over each directory's
# .go files other than *_test.go, then a total. This is the line count
# ROADMAP.md and CHANGES.md quote. Run from anywhere; with directory
# arguments (relative to the repo root) it counts only those trees.
#
#   scripts/loc.sh                  # every package
#   scripts/loc.sh internal/core    # one package
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- .
find "$@" -name '*.go' ! -name '*_test.go' -type f | while read -r f; do
	d=$(dirname "$f")
	printf '%s %s\n' "${d#./}" "$(wc -l <"$f")"
done | LC_ALL=C sort | awk '
	$1 != dir { if (dir != "") printf "%7d  %s\n", n, dir; dir = $1; n = 0 }
	{ n += $2; total += $2 }
	END { if (dir != "") printf "%7d  %s\n", n, dir; printf "%7d  total\n", total }'
