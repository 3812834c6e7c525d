#!/usr/bin/env bash
# Builds ncsw-perf from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash cmd/ncsw-perf/bench.sh [ncsw-perf flags]
#
# The binary, the Go build cache and Go's config and temporary files
# all live under .bench_build/ in the working directory, so a run reads
# and writes nothing else outside the Go installation. The Go toolchain
# is used as installed and nothing is downloaded.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C cmd/ncsw-perf build -o "$build/ncsw-perf" .
exec "$build/ncsw-perf" "$@"
