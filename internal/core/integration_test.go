package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/devsim"
	"repro/internal/graphfile"
	"repro/internal/imagenet"
	"repro/internal/ncs"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/usb"
)

// testbed wires up the full stack: env, n NCS devices on the Fig. 5
// topology, a compiled GoogLeNet blob, and the dataset.
type testbed struct {
	env     *sim.Env
	devices []*ncs.Device
	blob    *graphfile.Handle
	graph   *nn.Graph
	ds      *imagenet.Dataset
}

func newTestbed(t testing.TB, n int, g *nn.Graph, images int) *testbed {
	t.Helper()
	env := sim.NewEnv()
	_, ports, err := usb.Testbed(env, usb.DefaultConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	seed := rng.New(77)
	devices := make([]*ncs.Device, n)
	for i, port := range ports {
		d, err := ncs.NewDevice(env, port.Name(), port, ncs.DefaultConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = d
	}
	blob, err := graphfile.CompileHandle(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := imagenet.DefaultConfig()
	cfg.Images = images
	ds, err := imagenet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{env: env, devices: devices, blob: blob, graph: g, ds: ds}
}

func TestVPUTargetSingleDeviceThroughput(t *testing.T) {
	tb := newTestbed(t, 1, nn.NewGoogLeNet(rng.New(1)), 50)
	target, err := NewVPUTarget(tb.devices, tb.blob, DefaultVPUOptions())
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(tb.ds, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(false)
	job := target.Start(tb.env, src, col.Sink())
	tb.env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	if job.Images != 50 || col.N != 50 {
		t.Fatalf("images = %d", job.Images)
	}
	// One stick: ~101 ms per inference end to end (paper: 100.7 ms).
	perImage := (job.DoneAt - job.ReadyAt).Seconds() / 50 * 1e3
	if math.Abs(perImage-101) > 3 {
		t.Errorf("per-image latency = %.2f ms, want ~101", perImage)
	}
}

func TestVPUTargetEightDeviceScaling(t *testing.T) {
	tb := newTestbed(t, 8, nn.NewGoogLeNet(rng.New(1)), 400)
	target, err := NewVPUTarget(tb.devices, tb.blob, DefaultVPUOptions())
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(tb.ds, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(false)
	job := target.Start(tb.env, src, col.Sink())
	tb.env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	ips := job.Throughput()
	// Paper Fig. 6a: 77.2 img/s with 8 sticks. Allow the model ±4%.
	if math.Abs(ips-77.2)/77.2 > 0.04 {
		t.Errorf("8-VPU throughput = %.1f img/s, paper reports 77.2", ips)
	}
	if target.TDPWatts() != 20 {
		t.Errorf("aggregate TDP = %g, want 20 W", target.TDPWatts())
	}
}

func TestVPUTargetRoundRobinAssignment(t *testing.T) {
	tb := newTestbed(t, 4, nn.NewGoogLeNet(rng.New(1)), 40)
	target, err := NewVPUTarget(tb.devices, tb.blob, DefaultVPUOptions())
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(tb.ds, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(true)
	job := target.Start(tb.env, src, col.Sink())
	tb.env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	// Static round robin: item i runs on device i mod 4.
	for _, r := range col.Results {
		want := tb.devices[r.Index%4].Name()
		if r.Device != want {
			t.Fatalf("item %d ran on %s, want %s", r.Index, r.Device, want)
		}
	}
}

func TestVPUTargetDynamicSchedulingBalances(t *testing.T) {
	tb := newTestbed(t, 4, nn.NewGoogLeNet(rng.New(1)), 80)
	opts := DefaultVPUOptions()
	opts.Scheduling = Dynamic
	target, err := NewVPUTarget(tb.devices, tb.blob, opts)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(tb.ds, 0, 80)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(true)
	job := target.Start(tb.env, src, col.Sink())
	tb.env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	counts := map[string]int{}
	for _, r := range col.Results {
		counts[r.Device]++
	}
	for d, c := range counts {
		if c < 10 || c > 30 {
			t.Errorf("device %s processed %d of 80 (imbalanced)", d, c)
		}
	}
}

func TestVPUTargetOverlapBeatsSequential(t *testing.T) {
	run := func(overlap bool) float64 {
		tb := newTestbed(t, 2, nn.NewGoogLeNet(rng.New(1)), 60)
		opts := DefaultVPUOptions()
		opts.Overlap = overlap
		target, err := NewVPUTarget(tb.devices, tb.blob, opts)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewDatasetSource(tb.ds, 0, 60)
		if err != nil {
			t.Fatal(err)
		}
		col := NewCollector(false)
		job := target.Start(tb.env, src, col.Sink())
		tb.env.Run()
		if job.Err != nil {
			t.Fatal(job.Err)
		}
		return job.Throughput()
	}
	seq := run(false)
	ovl := run(true)
	if ovl <= seq {
		t.Errorf("overlap (%.1f img/s) should beat sequential (%.1f)", ovl, seq)
	}
	// Overlap hides the ~4 ms transfer behind the ~97 ms execution:
	// expect a mid-single-digit percentage gain.
	gain := ovl/seq - 1
	if gain < 0.01 || gain > 0.15 {
		t.Errorf("overlap gain = %.1f%%, outside plausible range", gain*100)
	}
}

func TestBatchTargetsWithRealEngines(t *testing.T) {
	g := nn.NewGoogLeNet(rng.New(1))
	w := devsim.WorkloadOf(g)
	cpuEng, err := devsim.NewCPU(devsim.DefaultCPUConfig(), w, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	gpuEng, err := devsim.NewGPU(devsim.DefaultGPUConfig(), w, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewBatchTarget(cpuEng, 8)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := NewBatchTarget(gpuEng, 8)
	if err != nil {
		t.Fatal(err)
	}

	cfg := imagenet.DefaultConfig()
	cfg.Images = 400
	ds, err := imagenet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	env := sim.NewEnv()
	srcCPU, _ := NewDatasetSource(ds, 0, 200)
	srcGPU, _ := NewDatasetSource(ds, 200, 400)
	colCPU, colGPU := NewCollector(false), NewCollector(false)
	jobCPU := cpu.Start(env, srcCPU, colCPU.Sink())
	jobGPU := gpu.Start(env, srcGPU, colGPU.Sink())
	env.Run()

	if jobCPU.Err != nil || jobGPU.Err != nil {
		t.Fatal(jobCPU.Err, jobGPU.Err)
	}
	cpuIPS := jobCPU.Throughput()
	gpuIPS := jobGPU.Throughput()
	// Paper Fig. 6a at batch 8: CPU 44.0 img/s, GPU 74.2 img/s.
	if math.Abs(cpuIPS-44.0)/44.0 > 0.05 {
		t.Errorf("CPU throughput = %.1f img/s, paper reports 44.0", cpuIPS)
	}
	if math.Abs(gpuIPS-74.2)/74.2 > 0.05 {
		t.Errorf("GPU throughput = %.1f img/s, paper reports 74.2", gpuIPS)
	}
}

func TestHeterogeneousGroupsShareOneEnv(t *testing.T) {
	// §III: different sources can feed different target groups at the
	// same time. Run CPU and a 2-stick VPU group concurrently.
	tb := newTestbed(t, 2, nn.NewGoogLeNet(rng.New(1)), 120)
	w := devsim.WorkloadOf(tb.graph)
	cpuEng, err := devsim.NewCPU(devsim.DefaultCPUConfig(), w, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewBatchTarget(cpuEng, 8)
	if err != nil {
		t.Fatal(err)
	}
	vpu, err := NewVPUTarget(tb.devices, tb.blob, DefaultVPUOptions())
	if err != nil {
		t.Fatal(err)
	}
	srcCPU, _ := NewDatasetSource(tb.ds, 0, 60)
	srcVPU, _ := NewDatasetSource(tb.ds, 60, 120)
	colCPU, colVPU := NewCollector(false), NewCollector(false)
	jobCPU := cpu.Start(tb.env, srcCPU, colCPU.Sink())
	jobVPU := vpu.Start(tb.env, srcVPU, colVPU.Sink())
	tb.env.Run()
	if jobCPU.Err != nil || jobVPU.Err != nil {
		t.Fatal(jobCPU.Err, jobVPU.Err)
	}
	if jobCPU.Images != 60 || jobVPU.Images != 60 {
		t.Errorf("images = %d / %d", jobCPU.Images, jobVPU.Images)
	}
}

func TestVPUTargetTimelineShowsOverlap(t *testing.T) {
	tb := newTestbed(t, 4, nn.NewGoogLeNet(rng.New(1)), 40)
	tl := trace.New()
	opts := DefaultVPUOptions()
	opts.Timeline = tl
	target, err := NewVPUTarget(tb.devices, tb.blob, opts)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(tb.ds, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(false)
	job := target.Start(tb.env, src, col.Sink())
	tb.env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	if tl.Len() == 0 {
		t.Fatal("timeline empty")
	}
	// Fig. 4's core claim: executions on different sticks overlap.
	if tl.Overlap(trace.Exec) == 0 {
		t.Error("no execution overlap across 4 devices")
	}
	// Every device got load and exec spans.
	for _, d := range tb.devices {
		if tl.BusyTime(d.Name(), trace.Exec) == 0 {
			t.Errorf("device %s has no exec spans", d.Name())
		}
		if tl.BusyTime(d.Name(), trace.Load) == 0 {
			t.Errorf("device %s has no load spans", d.Name())
		}
	}
	// Render sanity.
	if out := tl.Render(60); len(out) == 0 {
		t.Error("empty render")
	}
}

func TestVPUTargetJitterGivesVariation(t *testing.T) {
	// Error bars in the figures need run-to-run variation across
	// subsets; per-inference jitter must make per-image spans differ.
	tb := newTestbed(t, 1, nn.NewGoogLeNet(rng.New(1)), 20)
	target, err := NewVPUTarget(tb.devices, tb.blob, DefaultVPUOptions())
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(tb.ds, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(true)
	job := target.Start(tb.env, src, col.Sink())
	tb.env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	durs := map[time.Duration]bool{}
	for _, r := range col.Results {
		durs[r.End-r.Start] = true
	}
	if len(durs) < 10 {
		t.Errorf("only %d distinct inference durations in 20; jitter missing", len(durs))
	}
}
