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

echo "== go vet (arm64) =="
# internal/gemm's micro-kernel and internal/nn's max-pool, ReLU and
# maxSafe kernels are SSE2 assembly on amd64 and Go on every other
# GOARCH: vetting an arm64 build keeps the portable kernels compiling,
# and the amd64 vet above runs asmdecl over the .s files' frames. The
# cross-build needs only the installed toolchain.
GOARCH=arm64 go vet ./...

echo "== portable kernels (386) =="
# The vet above only compiles the portable kernels. On 386 the gemm
# strip (strip8) and the max-pool, ReLU and maxSafe loops run as Go
# (vec_other.go) and must meet the same TestForwardGolden hashes and
# bit-equality tests as the SSE2 kernels; Go's 386 port does float
# arithmetic in SSE2 scalar registers, so it rounds as amd64 does.
GOARCH=386 go test -count=1 ./internal/gemm ./internal/nn

echo "== ncsw-vet (determinism & API hygiene) =="
# The domain analyzer suite (internal/lint, DESIGN.md §8): walltime,
# seededrand and maprange guard the bit-for-bit reproducibility claim
# at review time; exportdoc replaces the old awk godoc gate and covers
# every internal/ package (the reliability and serving surfaces are
# API for downstream code — an undocumented knob is a review bug);
# resultstamp keeps the PR 2 lifecycle timestamps intact; unusedexport
# keeps the internal/ API to what non-test code of the module and of
# cmd/ncsw-perf references. A //ncsw:allow that suppresses nothing
# fails the step too.
go run ./cmd/ncsw-vet ./...

echo "== go build =="
go build ./...

echo "== non-test Go lines per package and facade size (informational) =="
# The wc -l measure and the facade's go doc line count that ROADMAP.md
# and CHANGES.md quote; they gate nothing.
sh scripts/loc.sh || true
printf 'facade: %s go doc -short lines\n' "$(go doc -short . | wc -l)" || true

echo "== go test =="
# The suite runs once, through testtime.sh: go test -count=1 -json
# ./..., its exit status unchanged (a failing test fails CI and its
# output is printed), plus the wall time, the test count and the 15
# slowest tests; the event stream stays in .bench/tier1.json.
sh scripts/testtime.sh

echo "== ncsw-classify -folder end to end =="
# The CLI's folder path: make-dataset writes eight .ppm images with
# their annotations, and ncsw-classify loads them as the session's
# items and must classify every one.
folder=$(mktemp -d)
trap 'rm -rf "$folder"' EXIT
go run ./cmd/make-dataset -out "$folder" -n 8 >/dev/null
out=$(go run ./cmd/ncsw-classify -target cpu,vpu -devices 2 -folder "$folder")
case $out in
*"images classified:  8 of 8"*) ;;
*)
	echo "$out"
	echo "ncsw-classify -folder: want 'images classified:  8 of 8'"
	exit 1
	;;
esac

echo "== accuracy, functional and precision-example goldens on one core =="
# The accuracy experiments and functional sessions classify through
# nn.Classify, whose batched Graph.Forward splits each batch across
# GOMAXPROCS. The goldens above ran at the host's core count; this run
# proves the tables and the session predictions do not depend on it.
# The precision example's FP32-vs-FP16 table is built from such
# predictions; its go run inherits GOMAXPROCS=1.
GOMAXPROCS=1 go test -count=1 -run 'TestAccuracyGolden|TestFunctionalGolden' ./internal/bench ./internal/pipeline
GOMAXPROCS=1 go test -count=1 -run 'TestExamplesSmoke/precision$' .

echo "== half.RoundSlice on every float32 =="
# The test suite checks RoundSlice against the scalar FromFloat32 round
# trip on a stride of bit patterns; -exhaustive checks all 2^32.
go test -count=1 -run TestRoundSliceMatchesFromFloat32 ./internal/half -exhaustive

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
# settings. BenchmarkKernelRelay compares, in the sim kernel, a queue
# relay run as a process with one run as a callback waiter
# (sim.Env.Waiter).
go test -run '^$' -bench BenchmarkKernel -cpu 1,2 -benchtime=1x ./internal/sim
# The USB transfer benchmark (eight Fig. 5 ports moving input tensors
# at once, one op per transfer) gets the same sanity run; -benchmem
# shows its 0 allocs/op.
go test -run '^$' -bench BenchmarkTransfer -benchmem -benchtime=1x ./internal/usb
# The graph-file codec microbenchmarks (GoogLeNet compile and parse)
# and the shape-only GoogLeNet build get the same one-iteration sanity
# run. -cpu 1,2 runs Compile both inline and on two workers.
go test -run '^$' -bench 'Benchmark(Compile|Parse)GoogLeNet' -benchmem -cpu 1,2 -benchtime=1x ./internal/graphfile
# A GoogLeNet session build with its graph-file handle memoised (hit)
# and compiled (miss) gets the same sanity run. A miss compiles the
# structure only: no weight is generated until something asks for the
# bytes, and no dataset prototype until something reads a pixel.
go test -run '^$' -bench BenchmarkNewSessionGoogLeNet -benchmem -benchtime=1x ./internal/pipeline
go test -run '^$' -bench BenchmarkFromFloat32 -benchtime=1x ./internal/half
go test -run '^$' -bench BenchmarkNewGoogLeNet -benchtime=1x ./internal/nn
# The fp32 path's kernel-variant benches (gemm on every micro-GoogLeNet
# conv shape, one batch-8 micro forward, and every batch-8
# micro-GoogLeNet max pool and ReLU) get the same sanity run.
go test -run '^$' -bench BenchmarkMulMicroShapes -benchmem -benchtime=1x ./internal/gemm
go test -run '^$' -bench 'Benchmark(ForwardMicroB8|MaxPoolMicroShapes|ReLU)$' -benchmem -benchtime=1x ./internal/nn
# The hedge-trigger microbenchmark (per-completion cost after 1k and
# 100k prior completions) gets the same sanity run.
go test -run '^$' -bench BenchmarkHedgeTrigger -benchtime=1x ./internal/core
# The exact-quantile selection benchmark (one report's p50/p95/p99/Max
# reads of a 716k-value sample) gets the same sanity run; -benchmem
# shows its 0 allocs/op.
go test -run '^$' -bench BenchmarkSampleQuantile -benchmem -benchtime=1x ./internal/stats
# A collector's per-result cost over a cpu-gpu-serve-sized run (750k
# results) gets the same sanity run; -benchmem shows what the chunked
# latency store keeps at both widths: about 8 B per result when every
# part is under 4.29 s ("store"), 16 B when every service is longer
# ("wide"). Its merged-view case sinks each result into one of two
# group collectors and then into the merged view over them, as a
# session does: its B/op matches the single store's, because the view
# stores no pair of its own.
go test -run '^$' -bench BenchmarkCollectorSink -benchmem -benchtime=1x ./internal/core
