package core

import (
	"testing"
	"time"

	"repro/internal/devsim"
	"repro/internal/rng"
	"repro/internal/sim"
)

// pacedEngine is a deterministic batch engine: a jitter-free CPU
// model whose batch of b items takes base + b*per of virtual time
// (per an even number of nanoseconds), at a TDP of 10 W.
func pacedEngine(t *testing.T, base, per time.Duration) *devsim.Engine {
	t.Helper()
	cfg := devsim.CPUConfig{Sockets: 1, CoresPerSocket: 1, ClockHz: 1e9, FlopsPerCycle: 1, Efficiency: 1,
		BatchOverhead: base, TDPWatts: 10}
	eng, err := devsim.NewCPU(cfg, devsim.Workload{MACs: int64(per) / 2}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= 64; b++ {
		if got, want := eng.NextBatchDuration(b), base+time.Duration(b)*per; got != want {
			t.Fatalf("paced engine: batch %d takes %v, want %v", b, got, want)
		}
	}
	return eng
}

// newFakeBatchTarget builds a non-functional batch target over a
// paced engine (4ms + 1ms per item).
func newFakeBatchTarget(t *testing.T, batch int, assembly BatchAssembly) *BatchTarget {
	t.Helper()
	bt, err := NewBatchTarget(pacedEngine(t, 4*time.Millisecond, time.Millisecond), batch)
	if err != nil {
		t.Fatal(err)
	}
	bt.SetAssembly(assembly)
	return bt
}

// runAdaptive drives n items through the target under the given
// arrival process (optionally behind an admission queue) and returns
// the job, the collector, and the admission stats (zero without one).
func runAdaptive(t *testing.T, bt *BatchTarget, n int, arr Arrivals, adm *AdmissionOptions, slo time.Duration) (*Job, *Collector, AdmissionStats) {
	t.Helper()
	env := sim.NewEnv()
	var src Source
	asrc, err := NewArrivalSource(env, sliceOf(n), arr, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	src = asrc
	col := NewCollector(false)
	col.SetSLO(slo)
	var aq *AdmissionQueue
	if adm != nil {
		opts := *adm
		opts.OnDrop = func(_ Item, reason DropReason, _ time.Duration) { col.NoteDrop(reason) }
		aq, err = NewAdmissionQueue(env, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		src = aq
	}
	job := bt.Start(env, src, col.Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	if aq != nil {
		return job, col, aq.Stats()
	}
	return job, col, AdmissionStats{}
}

// TestMaxWaitClosesPartialBatch: under light deterministic load
// (one arrival per 50ms, batch size 8) a fixed-size assembler with a
// 10ms max-wait closes every batch at one item after paying the wait;
// the adaptive assembler sizes the batch to the (empty) backlog and
// skips even that.
func TestMaxWaitClosesPartialBatch(t *testing.T) {
	const n, rate = 20, 20.0 // one arrival per 50ms

	fixed := newFakeBatchTarget(t, 8, BatchAssembly{MaxWait: 10 * time.Millisecond})
	jobF, colF, _ := runAdaptive(t, fixed, n, DeterministicArrivals(rate), nil, 0)
	if jobF.Images != n || fixed.Batches() != n {
		t.Fatalf("fixed+maxwait: %d images in %d batches, want %d singleton batches",
			jobF.Images, fixed.Batches(), n)
	}
	// Every item: 10ms assembly wait + 5ms single-item service.
	latF := colF.Latency()
	if latF.P50 != 15*time.Millisecond {
		t.Errorf("fixed+maxwait p50 %v, want 15ms (10ms wait + 5ms service)", latF.P50)
	}

	adaptive := newFakeBatchTarget(t, 8, BatchAssembly{MaxWait: 10 * time.Millisecond, Adaptive: true})
	jobA, colA, _ := runAdaptive(t, adaptive, n, DeterministicArrivals(rate), nil, 0)
	if jobA.Images != n || adaptive.Batches() != n {
		t.Fatalf("adaptive: %d images in %d batches, want %d singleton batches",
			jobA.Images, adaptive.Batches(), n)
	}
	latA := colA.Latency()
	if latA.P50 != 5*time.Millisecond {
		t.Errorf("adaptive p50 %v, want 5ms (no assembly wait)", latA.P50)
	}
}

// TestAdaptiveBatchConvergesUnderPoissonLoad: the realized mean batch
// size tracks offered load — near 1 under light Poisson traffic, near
// the configured maximum under heavy traffic.
func TestAdaptiveBatchConvergesUnderPoissonLoad(t *testing.T) {
	const n = 300
	assembly := BatchAssembly{MaxWait: 20 * time.Millisecond, Adaptive: true}

	light := newFakeBatchTarget(t, 8, assembly)
	jobL, _, _ := runAdaptive(t, light, n, PoissonArrivals(50), nil, 0)
	meanL := float64(jobL.Images) / float64(light.Batches())

	heavy := newFakeBatchTarget(t, 8, assembly)
	jobH, _, _ := runAdaptive(t, heavy, n, PoissonArrivals(600), nil, 0)
	meanH := float64(jobH.Images) / float64(heavy.Batches())

	if jobL.Images != n || jobH.Images != n {
		t.Fatalf("served %d/%d images, want %d each", jobL.Images, jobH.Images, n)
	}
	if meanL >= 2 {
		t.Errorf("light-load mean batch %.2f, want < 2 (near single-item dispatch)", meanL)
	}
	if meanH <= 4 {
		t.Errorf("heavy-load mean batch %.2f, want > 4 (converging to the maximum 8)", meanH)
	}
	if meanH <= meanL {
		t.Errorf("mean batch did not grow with load: light %.2f vs heavy %.2f", meanL, meanH)
	}
}

// TestAdaptiveBatchConvergesUnderPool: adaptive sizing must converge
// to the configured batch size under saturation even when the target
// reads from a pool's shallow per-child feed (QueueDepth 2): Pending
// sees through the feed to the arrival backlog, so batches are not
// clamped at QueueDepth+1.
func TestAdaptiveBatchConvergesUnderPool(t *testing.T) {
	const n = 300
	bt := newFakeBatchTarget(t, 8, BatchAssembly{MaxWait: 20 * time.Millisecond, Adaptive: true})
	pool, err := NewPool([]Target{bt}, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	asrc, err := NewArrivalSource(env, sliceOf(n), PoissonArrivals(600), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(false)
	job := pool.Start(env, asrc, col.Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	if job.Images != n {
		t.Fatalf("served %d images, want %d", job.Images, n)
	}
	if mean := float64(job.Images) / float64(bt.Batches()); mean <= 4 {
		t.Errorf("mean batch %.2f through the pool feed, want > 4 (clamped by feed depth?)", mean)
	}
}

// TestAdaptiveBeatsFixedTailUnderLightLoad: at the same light offered
// load, adaptive assembly must beat the fixed full-batch assembler's
// p99 — the fixed batch waits for 8 items (~7 interarrival times)
// before anything runs.
func TestAdaptiveBeatsFixedTailUnderLightLoad(t *testing.T) {
	const n, rate = 200, 50.0

	fixed := newFakeBatchTarget(t, 8, BatchAssembly{})
	_, colF, _ := runAdaptive(t, fixed, n, PoissonArrivals(rate), nil, 0)

	adaptive := newFakeBatchTarget(t, 8, BatchAssembly{MaxWait: 20 * time.Millisecond, Adaptive: true})
	_, colA, _ := runAdaptive(t, adaptive, n, PoissonArrivals(rate), nil, 0)

	p99F, p99A := colF.Latency().P99, colA.Latency().P99
	if p99A*2 >= p99F {
		t.Errorf("adaptive p99 %v not clearly below fixed p99 %v at light load", p99A, p99F)
	}
}

// TestFixedAssemblyUnchanged: the default assembly still gathers
// full batches from an eager source — ceil(n/batch) batches, all full
// but the last.
func TestFixedAssemblyUnchanged(t *testing.T) {
	bt := newFakeBatchTarget(t, 8, BatchAssembly{})
	env := sim.NewEnv()
	col := NewCollector(false)
	job := bt.Start(env, sliceOf(21), col.Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	if job.Images != 21 || bt.Batches() != 3 {
		t.Errorf("%d images in %d batches, want 21 in 3 (8+8+5)", job.Images, bt.Batches())
	}
}

// TestBoundedAdmissionCapsTailPastKnee: past saturation (≈135% of
// capacity), bounded admission with shedding holds goodput above the
// unbounded configuration and keeps the p99 tail bounded — the core
// claim behind the slo experiment.
func TestBoundedAdmissionCapsTailPastKnee(t *testing.T) {
	const n = 400
	const slo = 60 * time.Millisecond
	assembly := BatchAssembly{MaxWait: 20 * time.Millisecond, Adaptive: true}
	// Capacity at batch 8 is 8 items per 12ms ≈ 667/s; offer 900/s.
	arr := PoissonArrivals(900)

	open := newFakeBatchTarget(t, 8, assembly)
	_, colOpen, _ := runAdaptive(t, open, n, arr, nil, slo)

	bounded := newFakeBatchTarget(t, 8, assembly)
	_, colBounded, stats := runAdaptive(t, bounded, n, arr,
		&AdmissionOptions{Depth: 16, Policy: ShedNewest, Deadline: slo}, slo)

	if stats.Shed == 0 {
		t.Error("bounded admission shed nothing past the knee")
	}
	if colBounded.Goodput() <= colOpen.Goodput() {
		t.Errorf("bounded goodput %.3f does not beat unbounded %.3f past the knee",
			colBounded.Goodput(), colOpen.Goodput())
	}
	if p99b, p99o := colBounded.Latency().P99, colOpen.Latency().P99; p99b*2 >= p99o {
		t.Errorf("bounded p99 %v not clearly below unbounded p99 %v", p99b, p99o)
	}
	if colBounded.Arrivals() != n {
		t.Errorf("bounded accounting covers %d arrivals, want %d", colBounded.Arrivals(), n)
	}
}

// TestAdaptiveServingDeterminism: the whole serving edge — Poisson
// arrivals, bounded admission with expiry, adaptive assembly over the
// timed dequeue — is bit-for-bit reproducible.
func TestAdaptiveServingDeterminism(t *testing.T) {
	run := func() (LatencySummary, AdmissionStats, float64) {
		bt := newFakeBatchTarget(t, 8, BatchAssembly{MaxWait: 15 * time.Millisecond, Adaptive: true})
		_, col, stats := runAdaptive(t, bt, 250, PoissonArrivals(700),
			&AdmissionOptions{Depth: 12, Policy: ShedOldest, Deadline: 80 * time.Millisecond},
			80*time.Millisecond)
		return col.Latency(), stats, col.Goodput()
	}
	l1, s1, g1 := run()
	l2, s2, g2 := run()
	if l1 != l2 {
		t.Errorf("latency summaries differ:\n%+v\n%+v", l1, l2)
	}
	if s1 != s2 {
		t.Errorf("admission stats differ: %+v vs %+v", s1, s2)
	}
	if g1 != g2 {
		t.Errorf("goodput differs: %g vs %g", g1, g2)
	}
}
