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

echo "== accuracy golden on one core =="
# The accuracy experiments classify through batched Graph.Forward, which
# splits each batch across GOMAXPROCS. The golden above ran at the
# host's core count; this run proves the tables do not depend on it.
GOMAXPROCS=1 go test -count=1 -run TestAccuracyGolden ./internal/bench

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
# -cpu 1,2 runs the coroutine park/resume switch at both GOMAXPROCS
# settings.
go test -run '^$' -bench BenchmarkKernel -cpu 1,2 -benchtime=1x ./internal/sim
# The graph-file codec microbenchmarks (GoogLeNet compile and parse)
# and the shape-only GoogLeNet build get the same one-iteration sanity
# run. -cpu 1,2 runs Compile both inline and on two workers.
go test -run '^$' -bench 'Benchmark(Compile|Parse)GoogLeNet' -benchmem -cpu 1,2 -benchtime=1x ./internal/graphfile
# A GoogLeNet session build with its graph-file handle memoised (hit)
# and compiled (miss) gets the same sanity run. A miss compiles the
# structure only: no weight is generated until something asks for the
# bytes, so both cost about the same.
go test -run '^$' -bench BenchmarkNewSessionGoogLeNet -benchmem -benchtime=1x ./internal/pipeline
go test -run '^$' -bench BenchmarkFromFloat32 -benchtime=1x ./internal/half
go test -run '^$' -bench BenchmarkNewGoogLeNet -benchtime=1x ./internal/nn
# The fp32 path's kernel-variant benches (gemm on every micro-GoogLeNet
# conv shape, one batch-8 micro forward) get the same sanity run.
go test -run '^$' -bench BenchmarkMulMicroShapes -benchmem -benchtime=1x ./internal/gemm
go test -run '^$' -bench BenchmarkForwardMicroB8 -benchmem -benchtime=1x ./internal/nn
# The hedge-trigger microbenchmark (per-completion cost after 1k and
# 100k prior completions) gets the same sanity run.
go test -run '^$' -bench BenchmarkHedgeTrigger -benchtime=1x ./internal/core
# The exact-quantile selection benchmark (one report's p50/p95/p99/Max
# reads of a 716k-value sample) gets the same sanity run; -benchmem
# shows its 0 allocs/op.
go test -run '^$' -bench BenchmarkSampleQuantile -benchmem -benchtime=1x ./internal/stats
