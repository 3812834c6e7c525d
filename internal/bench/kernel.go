package bench

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// The kernel experiment measures the simulation kernel itself — the
// component every other number in this reproduction flows through
// (DESIGN.md §4, §9). Each workload below isolates one hot path of
// internal/sim: event scheduling, cancellable timers, queue put/get,
// queue timeouts, process context switches, and an end-to-end
// open-loop arrival pipeline. The workloads are plain functions over
// the public sim API so the same definitions back both the
// go-test-bench suite (internal/sim/bench_test.go) and the
// machine-readable kernel snapshot (ncsw-bench -experiment kernel
// -json → BENCH_PR7.json).
//
// Workload shape notes:
//   - Event times are scattered by a seeded source, so the scheduler
//     heap sees realistic out-of-order inserts, not the ascending
//     best case.
//   - Batch sizes are fixed small constants: the heap works at a
//     realistic occupancy (hundreds of pending events, like a busy
//     multi-VPU run) instead of growing with the iteration count.
//   - Every workload returns a count derived from the events it
//     actually dispatched, so the compiler cannot elide the work and
//     callers can sanity-check completeness.

// kernelBatch is the pending-event population the scheduling workloads
// maintain: large enough to exercise heap sift depth, small enough to
// stay cache-resident like a real run.
const kernelBatch = 512

// KernelEventSchedule schedules and dispatches n callback-only events
// in kernelBatch waves with scattered timestamps, returning how many
// fired. It isolates Env.schedule + the Env.Run dispatch loop — the
// innermost path of the whole simulator.
func KernelEventSchedule(n int) int {
	e := sim.NewEnv()
	src := rng.New(7)
	fired := 0
	fn := func() { fired++ }
	var now time.Duration
	for done := 0; done < n; {
		m := kernelBatch
		if n-done < m {
			m = n - done
		}
		for i := 0; i < m; i++ {
			e.At(now+time.Duration(1+src.Intn(4*kernelBatch))*time.Microsecond, fn)
		}
		e.Run()
		now = e.Now()
		done += m
	}
	return fired
}

// KernelTimerCancelFire arms n cancellable timers in kernelBatch waves
// with scattered deadlines, cancels three of every four before
// running, and dispatches the rest — the Queue.GetWithin timeout
// pattern, where the deadline usually never arrives. It returns the
// number of timers that fired.
func KernelTimerCancelFire(n int) int {
	e := sim.NewEnv()
	src := rng.New(11)
	fired := 0
	fn := func() { fired++ }
	cancels := make([]func(), 0, kernelBatch)
	var now time.Duration
	for done := 0; done < n; {
		m := kernelBatch
		if n-done < m {
			m = n - done
		}
		cancels = cancels[:0]
		for i := 0; i < m; i++ {
			at := now + time.Duration(1+src.Intn(4*kernelBatch))*time.Microsecond
			cancel := e.AtCancelable(at, fn)
			if i%4 != 0 {
				cancels = append(cancels, cancel)
			}
		}
		for _, cancel := range cancels {
			cancel()
		}
		e.Run()
		now = e.Now()
		done += m
	}
	return fired
}

// kernelQueueResident is the steady-state occupancy of the put/get
// workload: a realistic feed-queue backlog, so the slice-shift cost of
// a naive queue (copying live items on every regrowth) is visible.
const kernelQueueResident = 32

// KernelQueuePutGet performs n TryPut+TryGet pairs against a queue
// holding kernelQueueResident items in steady state — the raw buffer
// path under churn, no processes involved. It returns the number of
// successful gets.
func KernelQueuePutGet(n int) int {
	e := sim.NewEnv()
	q := sim.NewQueue[int](e, "bench/kernel-q", 0)
	for i := 0; i < kernelQueueResident; i++ {
		q.TryPut(i)
	}
	got := 0
	for i := 0; i < n; i++ {
		q.TryPut(i)
		if _, ok := q.TryGet(); ok {
			got++
		}
	}
	return got
}

// KernelQueueTimeout runs a consumer doing n GetWithin waits against a
// producer that satisfies every other wait just before its deadline —
// half the timers fire (timeout path), half are cancelled by an
// arriving item (the common case). It returns the number of items
// actually received.
func KernelQueueTimeout(n int) int {
	e := sim.NewEnv()
	q := sim.NewQueue[int](e, "bench/kernel-timeout", 0)
	const wait = 50 * time.Microsecond
	got := 0
	e.Process("producer", func(p *sim.Proc) {
		// One item per two consumer waits: sleep through one full
		// timeout window, then land an item inside the next one.
		for i := 0; i < n/2; i++ {
			p.Sleep(wait + wait/2)
			q.Put(p, i)
			p.Sleep(wait / 4)
		}
	})
	e.Process("consumer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if _, ok := q.GetWithin(p, wait); ok {
				got++
			}
		}
	})
	e.Run()
	return got
}

// KernelProcessSwitch runs one process through n Sleep(1µs) cycles:
// each iteration is one schedule + one full park/resume context
// switch, the process-handoff cost every blocking primitive pays. It
// returns the number of completed sleeps.
func KernelProcessSwitch(n int) int {
	e := sim.NewEnv()
	done := 0
	e.Process("switcher", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
			done++
		}
	})
	e.Run()
	return done
}

// KernelArrivals drives an end-to-end open-loop pipeline: a generator
// emits n arrivals at a fixed 100µs period into an unbounded queue,
// and four workers drain it at a 350µs service time each (≈88% device
// utilization, the shape of the serving experiments). It returns the
// number of items served — the ops metric is arrivals through the
// whole kernel: scheduling, queueing, and process switches combined.
func KernelArrivals(n int) int {
	const (
		workers = 4
		period  = 100 * time.Microsecond
		service = 350 * time.Microsecond
	)
	e := sim.NewEnv()
	q := sim.NewQueue[int](e, "bench/kernel-arrivals", 0)
	served := 0
	e.Process("generator", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(period)
			q.Put(p, i)
		}
		for i := 0; i < workers; i++ {
			q.Put(p, -1) // end-of-stream sentinel, one per worker
		}
	})
	for w := 0; w < workers; w++ {
		e.Process("worker", func(p *sim.Proc) {
			for {
				item := q.Get(p)
				if item == -1 {
					return
				}
				p.Sleep(service)
				served++
			}
		})
	}
	e.Run()
	return served
}

// KernelPoint is one kernel microbench measurement — the
// machine-readable form behind the kernel table and the BENCH_PR7.json
// snapshot. Baseline* fields carry the pre-rewrite kernel's numbers
// (container/heap scheduler, two-channel handoff, slice-shift queue),
// measured on the same workload definitions at the PR 6 tree; the
// unprefixed fields are measured live.
type KernelPoint struct {
	// Bench names the workload ("event-schedule", "timer-cancel-fire",
	// "queue-putget", "queue-timeout", "process-switch", "arrivals").
	Bench string `json:"bench"`
	// Ops is how many operations the measured run executed.
	Ops int `json:"ops"`
	// OpsPerSec and NsPerOp describe measured speed; AllocsPerOp and
	// BytesPerOp the measured per-op heap traffic (exact floats, not
	// go-test's truncated integers).
	OpsPerSec   float64 `json:"ops_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Baseline fields: the same metrics on the pre-rewrite kernel.
	BaselineOpsPerSec   float64 `json:"baseline_ops_per_sec"`
	BaselineNsPerOp     float64 `json:"baseline_ns_per_op"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op"`
	BaselineBytesPerOp  float64 `json:"baseline_bytes_per_op"`
	// Speedup is OpsPerSec / BaselineOpsPerSec.
	Speedup float64 `json:"speedup"`
}

// kernelBaseline is a pre-rewrite measurement of one workload.
type kernelBaseline struct {
	nsPerOp     float64
	allocsPerOp float64
	bytesPerOp  float64
}

// kernelBaselines are the pre-rewrite kernel's numbers on these exact
// workload definitions: container/heap scheduler with `any` boxing on
// every push and pop, two-channel park/resume handoff, slice-shift
// queue, *bool-flag timer cancellation. Measured at the PR 6 tree
// (commit 0237adc) through the same testing.Benchmark capture path
// KernelPoints uses (see measureKernel and the capture helper in
// kernel_baseline_capture_test.go) on the reference
// CI-class machine (Intel Xeon 2.70GHz, linux/amd64, go1.24) — the
// same machine and measurement path that produced the
// committed BENCH_PR7.json, so the before/after columns of that
// snapshot are directly comparable. Alloc and byte figures are exact
// floats (MemAllocs/N), not go-test's truncated integers.
var kernelBaselines = map[string]kernelBaseline{
	"event-schedule":    {nsPerOp: 364.84, allocsPerOp: 2, bytesPerOp: 96.01},
	"timer-cancel-fire": {nsPerOp: 449.21, allocsPerOp: 4, bytesPerOp: 113.02},
	"queue-putget":      {nsPerOp: 12.85, allocsPerOp: 0.0313, bytesPerOp: 16},
	"queue-timeout":     {nsPerOp: 1707.03, allocsPerOp: 11, bytesPerOp: 364},
	"process-switch":    {nsPerOp: 796.87, allocsPerOp: 2, bytesPerOp: 96},
	"arrivals":          {nsPerOp: 2341.68, allocsPerOp: 8.0001, bytesPerOp: 304.01},
}

// kernelWorkloads lists the measurable workloads in report order.
func kernelWorkloads() []struct {
	name string
	fn   func(n int) int
} {
	return []struct {
		name string
		fn   func(n int) int
	}{
		{"event-schedule", KernelEventSchedule},
		{"timer-cancel-fire", KernelTimerCancelFire},
		{"queue-putget", KernelQueuePutGet},
		{"queue-timeout", KernelQueueTimeout},
		{"process-switch", KernelProcessSwitch},
		{"arrivals", KernelArrivals},
	}
}

// KernelPoints measures every kernel workload on this machine and
// pairs each with its committed pre-rewrite baseline. Unlike every
// other experiment in this package the numbers are wall-clock (that is
// the entire point: how fast does the deterministic kernel itself
// run), so two emissions are not byte-identical — the determinism
// gates cover the kernel's simulated outputs instead (the hedge and
// resilience golden tests).
func (h *Harness) KernelPoints() ([]KernelPoint, error) {
	var points []KernelPoint
	for _, w := range kernelWorkloads() {
		points = append(points, measureKernel(w.name, w.fn))
	}
	return points, nil
}

// measureKernel benchmarks one workload via testing.Benchmark — the
// stdlib measurement loop (calibrated iteration counts, exact
// MemAllocs deltas) without this package having to read the wall clock
// itself.
func measureKernel(name string, fn func(n int) int) KernelPoint {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b.N)
	})
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	base := kernelBaselines[name]
	pt := KernelPoint{
		Bench:               name,
		Ops:                 r.N,
		OpsPerSec:           round2(1e9 / ns),
		NsPerOp:             round2(ns),
		AllocsPerOp:         round4(float64(r.MemAllocs) / float64(r.N)),
		BytesPerOp:          round2(float64(r.MemBytes) / float64(r.N)),
		BaselineNsPerOp:     base.nsPerOp,
		BaselineOpsPerSec:   round2(1e9 / base.nsPerOp),
		BaselineAllocsPerOp: base.allocsPerOp,
		BaselineBytesPerOp:  base.bytesPerOp,
	}
	pt.Speedup = round2(pt.OpsPerSec / pt.BaselineOpsPerSec)
	return pt
}

// Kernel renders the kernel microbench experiment as a table:
// before/after ops/sec and allocs/op per hot path.
func (h *Harness) Kernel() (*Table, error) {
	points, err := h.KernelPoints()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "kernel",
		Title: "Simulation-kernel hot paths: rewritten scheduler/handoff/queues vs the PR 6 kernel",
		Columns: []string{
			"bench", "ops/s", "was ops/s", "speedup",
			"allocs/op", "was allocs/op", "B/op", "was B/op",
		},
		Notes: []string{
			"wall-clock measurement (testing.Benchmark, ~1s per workload): the one experiment whose numbers vary by machine",
			"baselines: container/heap + any-boxing scheduler, two-channel handoff, slice-shift queue at the PR 6 tree (see kernelBaselines)",
			"determinism is gated separately: the rewritten kernel must replay the hedge/resilience experiments byte-identically (golden tests)",
		},
	}
	for _, p := range points {
		t.AddRow(
			p.Bench,
			fmt.Sprintf("%.0f", p.OpsPerSec),
			fmt.Sprintf("%.0f", p.BaselineOpsPerSec),
			fmt.Sprintf("%.1fx", p.Speedup),
			fmt.Sprintf("%.4g", p.AllocsPerOp),
			fmt.Sprintf("%.4g", p.BaselineAllocsPerOp),
			fmt.Sprintf("%.4g", p.BytesPerOp),
			fmt.Sprintf("%.4g", p.BaselineBytesPerOp),
		)
	}
	return t, nil
}

// round4 rounds to 4 decimal places (alloc counts per op can be
// legitimately fractional and small).
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }
