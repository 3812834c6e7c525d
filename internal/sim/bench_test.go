// Kernel microbenchmarks: every number in the reproduction flows
// through internal/sim, so these isolate its hot paths — event
// scheduling, cancellable timers, queue churn, queue timeouts, process
// context switches, and an end-to-end open-loop arrival pipeline. The
// workload definitions live in internal/bench (kernel.go) so the same
// code backs both this go-test suite and the machine-readable kernel
// snapshot (ncsw-bench -experiment kernel -json → BENCH_PR7.json).
// BenchmarkKernelRelay, which compares a queue relay run as a process
// with one run as a callback waiter, is defined here alone.
//
// Run with:
//
//	go test -run '^$' -bench 'BenchmarkKernel' -benchmem ./internal/sim
package sim_test

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/sim"
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

// One op = one item relayed from one queue to the next: Put → relay →
// Put. A ticker puts one item per tick and drains what the relay
// handed on, so the two cases differ only in the relay: a process that
// parks in Get (two coroutine switches per item), or a callback waiter
// that registers with TryGetOr and runs in the same event slot.
func BenchmarkKernelRelay(b *testing.B) {
	for _, mode := range []string{"process", "callback"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			e := sim.NewEnv()
			in := sim.NewQueue[int](e, "in", 0)
			out := sim.NewQueue[int](e, "out", 0)
			sent, relayed := 0, 0
			e.Tick(0, time.Nanosecond, func(time.Duration) bool {
				for {
					if _, ok := out.TryGet(); !ok {
						break
					}
					relayed++
				}
				if sent > b.N {
					return false
				}
				v := sent
				if sent == b.N {
					v = -1 // ends the relay
				}
				in.TryPut(v)
				sent++
				return true
			})
			if mode == "process" {
				e.Process("relay", func(p *sim.Proc) {
					for {
						v := in.Get(p)
						if v < 0 {
							return
						}
						out.Put(p, v)
					}
				})
			} else {
				var w *sim.Proc
				relay := func() {
					for {
						v, ok := in.TryGetOr(w)
						if !ok || v < 0 {
							return
						}
						out.TryPutOr(w, v) // unbounded: never waits
					}
				}
				w = e.Waiter("relay", relay)
				e.At(0, relay)
			}
			b.ResetTimer()
			e.Run()
			if relayed != b.N {
				b.Fatalf("relayed %d of %d items", relayed, b.N)
			}
		})
	}
}
