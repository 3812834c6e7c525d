package core

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// drainArrivals runs one consumer over an arrival-wrapped slice source
// and returns the consumed items in order.
func drainArrivals(t *testing.T, n int, arr Arrivals) []Item {
	t.Helper()
	env := sim.NewEnv()
	src, err := NewArrivalSource(env, sliceOf(n), arr, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	var got []Item
	env.Process("consumer", func(p *sim.Proc) {
		for {
			item, ok := src.Next(p)
			if !ok {
				return
			}
			got = append(got, item)
		}
	})
	env.Run()
	return got
}

// TestDeterministicArrivals: a rate-R process delivers item k at
// exactly (k+1)/R, stamped on ArrivedAt.
func TestDeterministicArrivals(t *testing.T) {
	const n = 10
	got := drainArrivals(t, n, DeterministicArrivals(100)) // 10 ms period
	if len(got) != n {
		t.Fatalf("consumed %d items, want %d", len(got), n)
	}
	for k, item := range got {
		want := time.Duration(k+1) * 10 * time.Millisecond
		if item.ArrivedAt != want {
			t.Errorf("item %d arrived at %v, want %v", k, item.ArrivedAt, want)
		}
	}
}

// TestPoissonArrivals: arrivals are strictly ordered, stochastic, and
// the mean interarrival gap lands near 1/rate. Two identically seeded
// runs must match instant for instant.
func TestPoissonArrivals(t *testing.T) {
	const n = 400
	const rate = 1000.0
	run1 := drainArrivals(t, n, PoissonArrivals(rate))
	run2 := drainArrivals(t, n, PoissonArrivals(rate))
	if len(run1) != n {
		t.Fatalf("consumed %d items, want %d", len(run1), n)
	}
	var prev time.Duration
	var sum float64
	for k, item := range run1 {
		if item.ArrivedAt <= prev {
			t.Fatalf("item %d arrived at %v, not after %v", k, item.ArrivedAt, prev)
		}
		sum += (item.ArrivedAt - prev).Seconds()
		prev = item.ArrivedAt
		if item.ArrivedAt != run2[k].ArrivedAt {
			t.Fatalf("run mismatch at item %d: %v vs %v", k, item.ArrivedAt, run2[k].ArrivedAt)
		}
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.2/rate {
		t.Errorf("mean interarrival %.6fs, want %.6fs ±20%%", mean, 1/rate)
	}
}

// TestBurstyArrivals: 5 arrivals fit in each 50 ms on-phase at 100/s,
// then a 100 ms gap before the next burst.
func TestBurstyArrivals(t *testing.T) {
	got := drainArrivals(t, 8, BurstyArrivals(100, 50*time.Millisecond, 100*time.Millisecond))
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond,
		40 * time.Millisecond, 50 * time.Millisecond,
		// next cycle starts at 150 ms
		160 * time.Millisecond, 170 * time.Millisecond, 180 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("consumed %d items, want %d", len(got), len(want))
	}
	for k, item := range got {
		if item.ArrivedAt != want[k] {
			t.Errorf("item %d arrived at %v, want %v", k, item.ArrivedAt, want[k])
		}
	}
}

// TestTraceArrivals: instants replay sorted, and a trace shorter than
// the source ends the stream early.
func TestTraceArrivals(t *testing.T) {
	trace := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	got := drainArrivals(t, 10, TraceArrivals(trace))
	if len(got) != len(trace) {
		t.Fatalf("consumed %d items, want %d (trace-bounded)", len(got), len(trace))
	}
	for k, want := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		if got[k].ArrivedAt != want {
			t.Errorf("item %d arrived at %v, want %v", k, got[k].ArrivedAt, want)
		}
	}
}

// TestArrivalSourceMultiConsumer: several consumers sharing one
// arrival source all terminate and every item is consumed exactly
// once.
func TestArrivalSourceMultiConsumer(t *testing.T) {
	const n = 60
	env := sim.NewEnv()
	src, err := NewArrivalSource(env, sliceOf(n), DeterministicArrivals(1000), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for w := 0; w < 3; w++ {
		env.Process("consumer", func(p *sim.Proc) {
			for {
				item, ok := src.Next(p)
				if !ok {
					return
				}
				p.Sleep(time.Millisecond)
				seen[item.Index]++
			}
		})
	}
	env.Run()
	checkConservation(t, seen, n, "multi-consumer arrivals")
}

// TestArrivalSourceOpenLoopWait: with arrivals slower than the device,
// the device idles between items — completion tracks the arrival
// process, not device speed, and per-item queue wait stays near zero.
func TestArrivalSourceOpenLoopWait(t *testing.T) {
	const n = 20
	env := sim.NewEnv()
	src, err := NewArrivalSource(env, sliceOf(n), DeterministicArrivals(100), rng.New(1)) // 10 ms gaps
	if err != nil {
		t.Fatal(err)
	}
	target := &stubTarget{name: "fast", latency: time.Millisecond}
	col := NewCollector(true)
	job := target.Start(env, src, col.Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	// Last arrival at 200 ms + 1 ms service.
	if want := 201 * time.Millisecond; job.DoneAt != want {
		t.Errorf("open-loop run finished at %v, want %v", job.DoneAt, want)
	}
	for _, r := range col.Results {
		if w := r.Wait(); w != 0 {
			t.Errorf("item %d waited %v under light load, want 0", r.Index, w)
		}
		if s := r.ServiceTime(); s != time.Millisecond {
			t.Errorf("item %d service time %v, want 1ms", r.Index, s)
		}
	}
}

// TestArrivalBackpressureLatency: arrivals at 2× the device's service
// rate build a queue; the collector's latency split must show growing
// queue wait while service time stays the device constant.
func TestArrivalBackpressureLatency(t *testing.T) {
	const n = 50
	env := sim.NewEnv()
	// 1 ms between arrivals, 2 ms service: queue grows ~1 ms per item.
	src, err := NewArrivalSource(env, sliceOf(n), DeterministicArrivals(1000), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	target := &stubTarget{name: "slow", latency: 2 * time.Millisecond}
	col := NewCollector(true)
	job := target.Start(env, src, col.Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	lat := col.Latency()
	if lat.N != n {
		t.Fatalf("latency summary over %d items, want %d", lat.N, n)
	}
	if lat.ServiceMean != 2*time.Millisecond {
		t.Errorf("service mean %v, want 2ms", lat.ServiceMean)
	}
	// Item k arrives at (k+1) ms and starts service at 1+2k ms: wait
	// k ms, so the p99 wait must dwarf the mean service time.
	if lat.QueueP99 < 40*time.Millisecond {
		t.Errorf("queue p99 %v under 2x overload, want >= 40ms", lat.QueueP99)
	}
	if lat.P99 < lat.QueueP99 || lat.Max < lat.P99 || lat.P50 > lat.P99 {
		t.Errorf("inconsistent quantiles: %+v", lat)
	}
	if diff := lat.Mean - (lat.QueueMean + lat.ServiceMean); diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("mean latency %v != queue %v + service %v", lat.Mean, lat.QueueMean, lat.ServiceMean)
	}
}

// TestCollectorLatencyIdempotent: a second Collector.Latency() returns
// exactly the first summary. Reading quantiles reorders the retained
// samples, and the means must not depend on that order.
func TestCollectorLatencyIdempotent(t *testing.T) {
	const n = 2000
	env := sim.NewEnv()
	src, err := NewArrivalSource(env, sliceOf(n), PoissonArrivals(500), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool([]Target{
		&stubTarget{name: "fast", latency: time.Millisecond},
		&stubTarget{name: "slow", latency: 3 * time.Millisecond},
	}, PoolOptions{Routing: RouteRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(false)
	job := pool.Start(env, src, col.Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	first := col.Latency()
	if first.N != n {
		t.Fatalf("latency summary over %d items, want %d", first.N, n)
	}
	if second := col.Latency(); second != first {
		t.Errorf("second Latency() = %#v\nfirst  Latency() = %#v", second, first)
	}
}

// TestArrivalSourceStaticSplit: an arrival-wrapped finite source still
// supports static splitting (Remaining counts unarrived items), while
// an arrival-wrapped stream is rejected as empty.
func TestArrivalSourceStaticSplit(t *testing.T) {
	const n = 30
	env := sim.NewEnv()
	src, err := NewArrivalSource(env, sliceOf(n), DeterministicArrivals(1000), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool([]Target{
		&stubTarget{name: "a", latency: time.Millisecond},
		&stubTarget{name: "b", latency: time.Millisecond},
	}, PoolOptions{Routing: RouteStatic})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	job := pool.Start(env, src, func(r Result) { seen[r.Index]++ })
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	checkConservation(t, seen, n, "static over arrivals")
	for i, cj := range pool.ChildJobs() {
		if cj.Images != n/2 {
			t.Errorf("child %d got %d items, want %d", i, cj.Images, n/2)
		}
	}

	env2 := sim.NewEnv()
	stream := NewStreamSource(env2, 4)
	wrapped, err := NewArrivalSource(env2, stream, DeterministicArrivals(1000), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	env2.Process("producer", func(p *sim.Proc) { stream.Close(p) })
	pool2, err := NewPool([]Target{
		&stubTarget{name: "a", latency: time.Millisecond},
		&stubTarget{name: "b", latency: time.Millisecond},
	}, PoolOptions{Routing: RouteStatic})
	if err != nil {
		t.Fatal(err)
	}
	job2 := pool2.Start(env2, wrapped, func(Result) {})
	env2.Run()
	if job2.Err == nil {
		t.Error("static split over an arrival-wrapped stream succeeded; want error")
	}
}

// TestArrivalsValidation: constructors reject nonsense processes and
// the source constructor rejects nil parts.
func TestArrivalsValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero rate", func() { PoissonArrivals(0) })
	mustPanic("negative rate", func() { DeterministicArrivals(-1) })
	mustPanic("zero on-phase", func() { BurstyArrivals(10, 0, time.Second) })
	// An on-phase shorter than one interarrival period would never
	// emit (the roll-over would land every arrival in the off-phase).
	mustPanic("burst without arrivals", func() {
		BurstyArrivals(1000.0/120.0, 50*time.Millisecond, 100*time.Millisecond)
	})
	mustPanic("empty trace", func() { TraceArrivals(nil) })
	mustPanic("negative instant", func() { TraceArrivals([]time.Duration{-time.Second}) })

	env := sim.NewEnv()
	if _, err := NewArrivalSource(env, nil, PoissonArrivals(1), rng.New(1)); err == nil {
		t.Error("nil inner source accepted")
	}
	if _, err := NewArrivalSource(env, sliceOf(1), nil, rng.New(1)); err == nil {
		t.Error("nil arrival process accepted")
	}
}

// TestArrivalSourceRejectsSentinelIndex: a wrapped-source item
// carrying the reserved Index -1 would masquerade as end-of-stream
// and truncate the run; the driver must fail loudly instead, like
// StreamSource.Push. The panic fires on the driver's own simulated
// process, so the check runs in a crasher subprocess.
func TestArrivalSourceRejectsSentinelIndex(t *testing.T) {
	if os.Getenv("NCSW_ARRIVALS_SENTINEL_CRASH") == "1" {
		env := sim.NewEnv()
		src, err := NewArrivalSource(env,
			NewSliceSource([]Item{{Index: -1}, {Index: 0}}),
			DeterministicArrivals(10), rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		env.Process("consumer", func(p *sim.Proc) {
			for {
				if _, ok := src.Next(p); !ok {
					return
				}
			}
		})
		env.Run()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestArrivalSourceRejectsSentinelIndex$")
	cmd.Env = append(os.Environ(), "NCSW_ARRIVALS_SENTINEL_CRASH=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("reserved-index item did not crash the run; output:\n%s", out)
	}
	if !strings.Contains(string(out), "reserved Index -1") {
		t.Fatalf("crash output missing the sentinel message:\n%s", out)
	}
}
