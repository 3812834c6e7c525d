package core

import (
	"testing"
	"time"

	"repro/internal/devsim"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

// runBatchOOM drives n items through a CPU batch target, injecting
// the given number of batch failures at the given virtual instant,
// and returns the target, job, per-index counts and requeue count.
func runBatchOOM(t *testing.T, n, batch, failures int, at time.Duration) (*BatchTarget, *Job, map[int]int, int) {
	t.Helper()
	g := nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1))
	eng, err := devsim.NewCPU(devsim.DefaultCPUConfig(), devsim.WorkloadOf(g), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewBatchTarget(eng, batch)
	if err != nil {
		t.Fatal(err)
	}
	requeued := 0
	target.SetRetryObserver(func(Item, time.Duration) { requeued++ })
	env := sim.NewEnv()
	if failures > 0 {
		env.At(at, func() { eng.InjectBatchFailures(failures) })
	}
	seen := map[int]int{}
	job := target.Start(env, sliceOf(n), func(r Result) { seen[r.Index]++ })
	env.Run()
	return target, job, seen, requeued
}

// TestBatchOOMPartialRetry: an injected allocator failure splits the
// batch — the first half runs, the failed half is re-enqueued — and
// every item still completes exactly once, with the re-enqueues
// observable and the split counted.
func TestBatchOOMPartialRetry(t *testing.T) {
	const n, batch = 32, 8
	target, job, seen, requeued := runBatchOOM(t, n, batch, 2, 0)
	if job.Err != nil {
		t.Fatalf("job error: %v", job.Err)
	}
	checkConservation(t, seen, n, "batch OOM")
	if job.Images != n {
		t.Errorf("job.Images = %d, want %d", job.Images, n)
	}
	if got := target.OOMSplits(); got != 2 {
		t.Errorf("OOMSplits = %d, want 2", got)
	}
	// Each failed 8-batch re-enqueues its floor half.
	if requeued != 8 {
		t.Errorf("requeued = %d, want 8 (4 per failed batch)", requeued)
	}
	// The splits force extra, smaller batches.
	if base := (n + batch - 1) / batch; target.Batches() <= base {
		t.Errorf("Batches = %d, want > %d (splits add batches)", target.Batches(), base)
	}
}

// TestBatchOOMSingleItemBatchUnharmed: a single-item batch cannot
// split; the capacity fault passes it by and no item is lost.
func TestBatchOOMSingleItemBatchUnharmed(t *testing.T) {
	const n = 5
	target, job, seen, requeued := runBatchOOM(t, n, 1, 3, 0)
	if job.Err != nil {
		t.Fatalf("job error: %v", job.Err)
	}
	checkConservation(t, seen, n, "single-item batches")
	if target.OOMSplits() != 0 || requeued != 0 {
		t.Errorf("splits=%d requeued=%d, want 0/0 for single-item batches",
			target.OOMSplits(), requeued)
	}
}

// TestBatchOOMDeterministic: two identical faulted runs produce
// identical result streams.
func TestBatchOOMDeterministic(t *testing.T) {
	run := func() []Result {
		g := nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1))
		eng, err := devsim.NewCPU(devsim.DefaultCPUConfig(), devsim.WorkloadOf(g), rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		target, err := NewBatchTarget(eng, 8)
		if err != nil {
			t.Fatal(err)
		}
		env := sim.NewEnv()
		env.At(0, func() { eng.InjectBatchFailures(1) })
		var results []Result
		job := target.Start(env, sliceOf(24), func(r Result) { results = append(results, r) })
		env.Run()
		if job.Err != nil {
			t.Fatal(job.Err)
		}
		return results
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
