#!/usr/bin/env sh
# Non-test Go lines per package: `wc -l` summed over each directory's
# .go files other than *_test.go and those under a testdata/ directory
# (analyzer fixtures and the like), then a total. This is the line count
# ROADMAP.md and CHANGES.md quote. Run from anywhere; with directory
# arguments (relative to the repo root) it counts only those trees;
# a file under two overlapping arguments counts once.
#
#   scripts/loc.sh                  # every package
#   scripts/loc.sh internal/core    # one package
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- .
find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -type f | sed 's|^\(\./\)*||' | LC_ALL=C sort -u | while read -r f; do
	printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
done | LC_ALL=C sort | awk '
	$1 != dir { if (dir != "") printf "%7d  %s\n", n, dir; dir = $1; n = 0 }
	{ n += $2; total += $2 }
	END { if (dir != "") printf "%7d  %s\n", n, dir; printf "%7d  total\n", total }'
