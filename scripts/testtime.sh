#!/usr/bin/env sh
# The tier-1 test suite as one timed run: `go test -count=1 -json ./...`
# with fixed flags, its event stream written to .bench/tier1.json. It
# prints the wall time beside the sum of the packages' own times, how
# many tests and subtests ran, and the 15 slowest top-level tests. A
# test ranks by the larger of its own elapsed time and the sum of its
# subtests' (each ranked the same way), so a test whose subtests call
# t.Parallel, and so finish after it reports about 0 s, ranks by their
# work. It exits with go test's status; when that is not 0 it first
# prints the output of every failed test (and of every package that
# failed outside a test). Run from anywhere:
#
#   scripts/testtime.sh
set -eu
cd "$(dirname "$0")/.."

out=.bench/tier1.json
mkdir -p .bench

start=$(date +%s.%N)
status=0
go test -count=1 -json ./... >"$out" || status=$?
end=$(date +%s.%N)

# str(line, key) is the raw (still JSON-escaped) string value of key.
fields='
function str(line, key,    re) {
	re = "\"" key "\":\"([^\"\\\\]|\\\\.)*\""
	if (!match(line, re)) return ""
	return substr(line, RSTART + length(key) + 4, RLENGTH - length(key) - 5)
}
function num(line, key) {
	if (!match(line, "\"" key "\":[-+.eE0-9]+")) return 0
	return substr(line, RSTART + length(key) + 3, RLENGTH - length(key) - 3) + 0
}'

if [ "$status" -ne 0 ]; then
	awk "$fields"'
	function unescape(s,    o, c, i) {
		o = ""
		for (i = 1; i <= length(s); i++) {
			c = substr(s, i, 1)
			if (c != "\\") { o = o c; continue }
			c = substr(s, ++i, 1)
			if (c == "n") o = o "\n"
			else if (c == "t") o = o "\t"
			else if (c == "u") {
				c = substr(s, i + 1, 4); i += 4
				o = o (c == "003c" ? "<" : c == "003e" ? ">" : c == "0026" ? "&" : "?")
			} else o = o c
		}
		return o
	}
	{
		key = str($0, "Package")
		if (key == "") key = str($0, "ImportPath") # build events
		if (str($0, "Test") != "") key = key " " str($0, "Test")
		act = str($0, "Action")
		if (act == "output" || act == "build-output") buf[key] = buf[key] str($0, "Output")
		else if (act == "fail" || act == "build-fail") failed[++n] = key
	}
	END {
		for (i = 1; i <= n; i++) printf "--- output of %s\n%s", failed[i], unescape(buf[failed[i]])
	}' "$out"
fi

awk -v wall="$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.1f", b - a }')" -v out="$out" "$fields"'
	{ act = str($0, "Action") }
	str($0, "Test") != "" {
		if (act == "pass" || act == "fail" || act == "skip") { ran++; count[act]++ }
	}
	str($0, "Test") == "" && (act == "pass" || act == "fail") { pkgs++; pkgsum += num($0, "Elapsed") }
	END {
		printf "tier-1: %d tests and subtests ran (%d passed, %d failed, %d skipped) in %s s wall (%.1f s summed over %d packages); events in %s\n",
			ran, count["pass"], count["fail"], count["skip"], wall, pkgsum, pkgs, out
	}' "$out"
echo "15 slowest tests (own time, or the sum of their subtests' if larger):"
awk "$fields"'
	{ act = str($0, "Action"); test = str($0, "Test") }
	(act == "pass" || act == "fail") && test != "" {
		key = str($0, "Package") " " test
		own[key] = num($0, "Elapsed")
		pkg[key] = str($0, "Package")
		name[key] = test
		depth[key] = gsub("/", "/", test)
		if (depth[key] > deepest) deepest = depth[key]
	}
	END {
		# Deepest first, so every subtest has its sum before its parent
		# is ranked. A subtest name may itself hold "/": its parent is
		# the nearest prefix that ran as a test.
		for (d = deepest; d >= 0; d--) for (k in depth) {
			if (depth[k] != d) continue
			v = own[k] > subs[k] ? own[k] : subs[k]
			if (d == 0) { printf "%7.2f s  %s\n", v, k; continue }
			p = name[k]
			do sub("/[^/]*$", "", p); while (!((pkg[k] " " p) in own) && index(p, "/"))
			subs[pkg[k] " " p] += v
		}
	}' "$out" | sort -rn | head -15

exit "$status"
