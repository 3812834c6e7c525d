package repro

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/devsim"
)

// handCPUTarget and handGPUTarget build the Caffe-style batch targets
// straight from the framework packages — the hand-wired reference the
// facade and session tests compare against.
func handCPUTarget(t *testing.T, g *Graph, batch int, seed *Rand) *BatchTarget {
	t.Helper()
	eng, err := devsim.NewCPU(devsim.DefaultCPUConfig(), devsim.WorkloadOf(g), seed)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := core.NewCPUTarget(eng, g, batch, false)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

func handGPUTarget(t *testing.T, g *Graph, batch int, seed *Rand) *BatchTarget {
	t.Helper()
	eng, err := devsim.NewGPU(devsim.DefaultGPUConfig(), devsim.WorkloadOf(g), seed)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := core.NewGPUTarget(eng, g, batch, false)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// TestFacadeListing1 exercises the public API end to end: the doc
// comment's Listing-1-style session must actually work.
func TestFacadeListing1(t *testing.T) {
	env := NewEnv()
	devices, err := NewNCSTestbed(env, 1, Seed(1))
	if err != nil {
		t.Fatal(err)
	}
	net := NewMicroGoogLeNet(DefaultMicroConfig(), Seed(42))
	blob, err := CompileGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(DefaultDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := ds.Preprocessed(0)

	var got *NCSResult
	env.Process("host", func(p *Proc) {
		dev := devices[0]
		if err := dev.Open(p); err != nil {
			t.Error(err)
			return
		}
		graph, err := dev.AllocateGraph(p, LoadGraphFile(blob), GraphOptions{Functional: true})
		if err != nil {
			t.Error(err)
			return
		}
		if err := graph.LoadTensor(p, img, "first"); err != nil {
			t.Error(err)
			return
		}
		res, err := graph.GetResult(p)
		if err != nil {
			t.Error(err)
			return
		}
		got = &res
		if err := dev.Close(p); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	if got == nil || got.Output == nil {
		t.Fatal("no result")
	}
	if got.UserParam.(string) != "first" {
		t.Error("userParam lost")
	}
	if got.Output.Elems() != 100 {
		t.Errorf("output size = %d", got.Output.Elems())
	}
}

// TestFacadeNCSwRun drives the framework layer on facade types: a
// hand-wired CPU target over a dataset source.
func TestFacadeNCSwRun(t *testing.T) {
	net := NewGoogLeNet(Seed(1))
	cpu := handCPUTarget(t, net, 8, Seed(2))
	cfg := DefaultDatasetConfig()
	cfg.Images = 64
	ds, err := NewDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := core.NewDatasetSource(ds, 0, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	col := NewCollector(false)
	job := cpu.Start(env, src, col.Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	if job.Images != 64 || col.N != 64 {
		t.Errorf("images = %d / %d", job.Images, col.N)
	}
	if ips := job.Throughput(); ips < 40 || ips > 48 {
		t.Errorf("CPU throughput = %.1f img/s, expected ~44", ips)
	}
}

func TestFacadeGPUTarget(t *testing.T) {
	net := NewGoogLeNet(Seed(1))
	gpu := handGPUTarget(t, net, 8, Seed(2))
	if gpu.TDPWatts() != 80 {
		t.Errorf("GPU TDP = %g", gpu.TDPWatts())
	}
}

func TestFacadeGraphRoundTrip(t *testing.T) {
	net := NewMicroGoogLeNet(DefaultMicroConfig(), Seed(3))
	blob, err := CompileGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseGraph(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != net.Len() {
		t.Error("round trip changed layer count")
	}
	if _, err := ParseGraph([]byte("junk")); err == nil {
		t.Error("junk accepted")
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	if len(ExperimentIDs()) == 0 {
		t.Fatal("no experiments")
	}
	h, err := NewBenchmarks(QuickBenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if h.Config().Subsets != 5 {
		t.Error("quick config subsets")
	}
	if _, err := NewBenchmarks(BenchConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestAbout(t *testing.T) {
	if !strings.Contains(About(), Version) {
		t.Error("About missing version")
	}
	if !strings.Contains(About(), "Vision Processing Unit") {
		t.Error("About missing paper title")
	}
}

func TestFacadeConstants(t *testing.T) {
	if FP32.String() != "FP32" || FP16.String() != "FP16" || FP16Strict.String() != "FP16-strict" {
		t.Error("precision constants")
	}
	if RoundRobin.String() != "round-robin" || Dynamic.String() != "dynamic" {
		t.Error("scheduling constants")
	}
	if DefaultNCSConfig().FIFODepth != 2 {
		t.Error("NCS config")
	}
	if DefaultVPUConfig().NumSHAVEs != 12 {
		t.Error("VPU config")
	}
	if NewTimeline() == nil {
		t.Error("timeline")
	}
	if NewTensor(2, 2).Elems() != 4 {
		t.Error("tensor")
	}
	if DefaultVPUOptions().Scheduling != RoundRobin {
		t.Error("vpu options")
	}
	if DefaultBenchConfig().ImagesPerSubset != 10000 {
		t.Error("bench config")
	}
}
