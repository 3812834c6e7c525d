#!/usr/bin/env sh
# CI gate: formatting, vet, build, tests. Run from the repo root.
set -eu

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== ncsw-vet (determinism & API hygiene) =="
# The domain analyzer suite (internal/lint, DESIGN.md §8): walltime,
# seededrand and maprange guard the bit-for-bit reproducibility claim
# at review time; exportdoc replaces the old awk godoc gate and covers
# every internal/ package (the reliability and serving surfaces are
# API for downstream code — an undocumented knob is a review bug);
# resultstamp keeps the PR 2 lifecycle timestamps intact.
go run ./cmd/ncsw-vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== benchmark module (cmd/ncsw-perf: vet + test) =="
# The benchmark is a Go module of its own, so the root ./... above
# skips it; a break in the Report API it reads would otherwise surface
# only in the workflow's scenarios job.
go -C cmd/ncsw-perf vet ./...
go -C cmd/ncsw-perf test ./...

echo "== bench-kernel smoke (-benchtime=1x: compile+run sanity, not timing) =="
# The kernel microbenchmarks (DESIGN.md §9) are the repo's only
# wall-clock numbers, so CI never gates on their timings — it only
# proves every workload still compiles and completes one iteration.
go test -run '^$' -bench BenchmarkKernel -benchtime=1x ./internal/sim
# The graph-file codec microbenchmarks (GoogLeNet compile and parse)
# and the shape-only GoogLeNet build get the same one-iteration sanity
# run.
go test -run '^$' -bench 'Benchmark(Compile|Parse)GoogLeNet' -benchtime=1x ./internal/graphfile
go test -run '^$' -bench BenchmarkNewGoogLeNet -benchtime=1x ./internal/nn
# The fp32 path's kernel-variant benches (gemm on every micro-GoogLeNet
# conv shape, one batch-8 micro forward) get the same sanity run.
go test -run '^$' -bench BenchmarkMulMicroShapes -benchmem -benchtime=1x ./internal/gemm
go test -run '^$' -bench BenchmarkForwardMicroB8 -benchmem -benchtime=1x ./internal/nn
# The hedge-trigger microbenchmark (per-completion cost after 1k and
# 100k prior completions) gets the same sanity run.
go test -run '^$' -bench BenchmarkHedgeTrigger -benchtime=1x ./internal/core
