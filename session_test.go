package repro

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

// echoTarget is a custom device group implemented entirely outside
// internal/core — the extension point WithTarget/NewPool exposes.
type echoTarget struct{ latency time.Duration }

func (t *echoTarget) Name() string      { return "echo" }
func (t *echoTarget) TDPWatts() float64 { return 1 }

func (t *echoTarget) Start(env *Env, src Source, sink func(Result)) *Job {
	job := &Job{}
	env.Process("echo", func(p *Proc) {
		job.StartedAt = p.Now()
		job.ReadyAt = p.Now()
		for {
			item, ok := src.Next(p)
			if !ok {
				break
			}
			start := p.Now()
			p.Sleep(t.latency)
			sink(Result{Index: item.Index, Label: item.Label, Pred: -1,
				Start: start, End: p.Now(),
				ArrivedAt: item.ArrivedAt, DispatchedAt: start, Device: "echo"})
			job.Images++
		}
		job.Finish(p) // the completion signal composite targets join on
	})
	return job
}

// TestSessionCustomTarget: a Target implemented outside the framework
// packages must be able to complete a multi-group session — Job.Finish
// is the exported completion contract.
func TestSessionCustomTarget(t *testing.T) {
	const images = 40
	sess, err := NewSession(
		WithImages(images),
		WithCPU(8),
		WithTarget(&echoTarget{latency: 2 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != images {
		t.Errorf("classified %d images, want %d", rep.Images, images)
	}
	var echo *TargetReport
	for i := range rep.Targets {
		if rep.Targets[i].Name == "echo" {
			echo = &rep.Targets[i]
		}
	}
	if echo == nil || echo.Images == 0 {
		t.Errorf("custom target processed nothing: %+v", echo)
	}
}

// TestSessionAcceptance is the issue's acceptance scenario: a
// heterogeneous session (CPU + GPU + 4 VPUs over one dataset source)
// in under 10 lines of user code must classify every item exactly
// once, with per-target throughputs matching the equivalent
// hand-wired setup within 1%.
func TestSessionAcceptance(t *testing.T) {
	const images = 120

	// The declarative session — 7 lines of user code.
	sess, err := NewSession(
		WithImages(images),
		WithCPU(8),
		WithGPU(8),
		WithVPUs(4),
		WithRetain(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Every item classified exactly once.
	if rep.Images != images {
		t.Errorf("session classified %d images, want %d", rep.Images, images)
	}
	seen := map[int]int{}
	for _, r := range rep.Results {
		seen[r.Index]++
	}
	if len(seen) != images {
		t.Errorf("%d distinct items classified, want %d", len(seen), images)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("item %d classified %d times", idx, n)
		}
	}

	// The equivalent hand-wired setup: same seeds, same models, same
	// pool — built straight from the framework packages.
	env := NewEnv()
	net := NewGoogLeNet(Seed(42))
	blob, err := CompileGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	sticks, err := NewNCSTestbed(env, 4, Seed(1))
	if err != nil {
		t.Fatal(err)
	}
	cpu := handCPUTarget(t, net, 8, Seed(1))
	gpu := handGPUTarget(t, net, 8, Seed(1))
	vpu, err := core.NewVPUTarget(sticks, LoadGraphFile(blob), DefaultVPUOptions())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool([]Target{cpu, gpu, vpu}, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(DefaultDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := core.NewDatasetSource(ds, 0, images)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(false)
	job := pool.Start(env, src, col.Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	if job.Images != images {
		t.Errorf("hand-wired pool classified %d images, want %d", job.Images, images)
	}

	// Per-target throughputs within 1% of the hand-wired run.
	hand := pool.ChildJobs()
	if len(rep.Targets) != len(hand) {
		t.Fatalf("%d session groups vs %d hand-wired jobs", len(rep.Targets), len(hand))
	}
	for i, tr := range rep.Targets {
		want := hand[i].Throughput()
		if want == 0 && tr.Throughput == 0 {
			continue
		}
		if diff := math.Abs(tr.Throughput-want) / want; diff > 0.01 {
			t.Errorf("group %s throughput %.2f img/s vs hand-wired %.2f (%.2f%% apart)",
				tr.Name, tr.Throughput, want, diff*100)
		}
	}
}

// TestSessionVPUScalingMatchesTarget: a single-group session must
// reproduce the hand-wired multi-VPU numbers exactly — the session
// layer adds no timing overhead.
func TestSessionVPUScalingMatchesTarget(t *testing.T) {
	const images = 100
	for _, n := range []int{1, 2} {
		sess, err := NewSession(WithImages(images), WithVPUs(n), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}

		env := NewEnv()
		sticks, err := NewNCSTestbed(env, n, Seed(7))
		if err != nil {
			t.Fatal(err)
		}
		net := NewGoogLeNet(Seed(42))
		blob, err := CompileGraph(net)
		if err != nil {
			t.Fatal(err)
		}
		target, err := core.NewVPUTarget(sticks, LoadGraphFile(blob), DefaultVPUOptions())
		if err != nil {
			t.Fatal(err)
		}
		ds, err := NewDataset(DefaultDatasetConfig())
		if err != nil {
			t.Fatal(err)
		}
		src, err := core.NewDatasetSource(ds, 0, images)
		if err != nil {
			t.Fatal(err)
		}
		col := NewCollector(false)
		job := target.Start(env, src, col.Sink())
		env.Run()
		if job.Err != nil {
			t.Fatal(job.Err)
		}
		if got, want := rep.Throughput, job.Throughput(); got != want {
			t.Errorf("%d sticks: session %.4f img/s != hand-wired %.4f", n, got, want)
		}
	}
}
