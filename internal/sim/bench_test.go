// Kernel microbenchmarks: every number in the reproduction flows
// through internal/sim, so these isolate its hot paths — event
// scheduling, cancellable timers, queue churn, queue timeouts, process
// context switches, and an end-to-end open-loop arrival pipeline. The
// workload definitions live in internal/bench (kernel.go) so the same
// code backs both this go-test suite and the machine-readable kernel
// snapshot (ncsw-bench -experiment kernel -json → BENCH_PR7.json).
//
// Run with:
//
//	go test -run '^$' -bench 'BenchmarkKernel' -benchmem ./internal/sim
package sim_test

import (
	"testing"

	"repro/internal/bench"
)

// One op = one callback event scheduled and dispatched.
func BenchmarkKernelEventSchedule(b *testing.B) {
	b.ReportAllocs()
	if got := bench.KernelEventSchedule(b.N); got != b.N {
		b.Fatalf("fired %d of %d events", got, b.N)
	}
}

// One op = one cancellable timer armed; 3 of 4 are cancelled, the rest
// fire.
func BenchmarkKernelTimerCancelFire(b *testing.B) {
	b.ReportAllocs()
	if got := bench.KernelTimerCancelFire(b.N); got > b.N || got < b.N/8 {
		b.Fatalf("fired %d of %d timers, want ≈ N/4", got, b.N)
	}
}

// One op = one TryPut + TryGet pair at steady-state occupancy.
func BenchmarkKernelQueuePutGet(b *testing.B) {
	b.ReportAllocs()
	if got := bench.KernelQueuePutGet(b.N); got != b.N {
		b.Fatalf("got %d of %d items", got, b.N)
	}
}

// One op = one GetWithin wait; half time out, half receive an item.
func BenchmarkKernelQueueTimeout(b *testing.B) {
	b.ReportAllocs()
	if got := bench.KernelQueueTimeout(b.N); got != b.N/2 {
		b.Fatalf("received %d of %d waits, want N/2", got, b.N)
	}
}

// One op = one schedule + one full park/resume context switch.
func BenchmarkKernelProcessSwitch(b *testing.B) {
	b.ReportAllocs()
	if got := bench.KernelProcessSwitch(b.N); got != b.N {
		b.Fatalf("completed %d of %d sleeps", got, b.N)
	}
}

// One op = one arrival served end to end (scheduling + queueing +
// process switches, four workers at ≈88% utilization).
func BenchmarkKernelArrivals(b *testing.B) {
	b.ReportAllocs()
	if got := bench.KernelArrivals(b.N); got != b.N {
		b.Fatalf("served %d of %d arrivals", got, b.N)
	}
}
