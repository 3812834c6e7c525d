package core

import (
	"testing"

	"repro/internal/devsim"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

// checkLifecycle asserts the per-result timestamp ordering every
// stamping target must uphold: arrival, then queue exit
// (DispatchedAt), then service start, then completion.
func checkLifecycle(t *testing.T, results []Result, ctx string) {
	t.Helper()
	if len(results) == 0 {
		t.Fatalf("%s: no results", ctx)
	}
	for _, r := range results {
		if r.ArrivedAt > r.DispatchedAt {
			t.Errorf("%s: item %d dispatched at %v before arriving at %v",
				ctx, r.Index, r.DispatchedAt, r.ArrivedAt)
		}
		if r.DispatchedAt > r.Start {
			t.Errorf("%s: item %d started at %v before dispatch at %v",
				ctx, r.Index, r.Start, r.DispatchedAt)
		}
		if r.Start > r.End {
			t.Errorf("%s: item %d ended at %v before starting at %v",
				ctx, r.Index, r.End, r.Start)
		}
	}
}

// TestBatchTargetLifecycle: the batch target stamps the full
// lifecycle; under open-loop arrivals slower than one batch fill, the
// assembly wait shows up between DispatchedAt (pull into the batch)
// and Start (batch compute launch).
func TestBatchTargetLifecycle(t *testing.T) {
	const n = 32
	g := nn.NewGoogLeNet(rng.New(1))
	eng, err := devsim.NewCPU(devsim.DefaultCPUConfig(), devsim.WorkloadOf(g), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewBatchTarget(eng, 8)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	src, err := NewArrivalSource(env, sliceOf(n), DeterministicArrivals(100), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(true)
	job := target.Start(env, src, col.Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	checkLifecycle(t, col.Results, "cpu batch-8 under arrivals")
	// At 100/s arrivals a batch of 8 takes 80 ms to assemble: the
	// first item of each batch must wait visibly between its pull
	// (DispatchedAt) and the batch launch (Start).
	assembled := 0
	for _, r := range col.Results {
		if r.Start-r.DispatchedAt > 0 {
			assembled++
		}
	}
	if assembled == 0 {
		t.Error("no item shows batch-assembly wait between DispatchedAt and Start")
	}
}

// TestVPUTargetLifecycle: the multi-VPU pipeline stamps the full
// lifecycle too; its DispatchedAt is the worker dequeue, which is
// also the service start.
func TestVPUTargetLifecycle(t *testing.T) {
	const n = 24
	tb := newTestbed(t, 2, nn.NewGoogLeNet(rng.New(1)), n)
	target, err := NewVPUTarget(tb.devices, tb.blob, DefaultVPUOptions())
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(tb.ds, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(true)
	job := target.Start(tb.env, src, col.Sink())
	tb.env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	checkLifecycle(t, col.Results, "vpu-multi(2) closed loop")
	for _, r := range col.Results {
		if r.DispatchedAt != r.Start {
			t.Errorf("item %d: VPU dispatch %v != service start %v",
				r.Index, r.DispatchedAt, r.Start)
		}
	}
}
