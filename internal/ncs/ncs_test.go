package ncs

import (
	"math"
	"testing"
	"time"

	"repro/internal/graphfile"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/usb"
	"repro/internal/vpu"
)

// rig builds an env with n sticks on the paper's testbed topology and
// a compiled blob of the given graph, handed to the sticks as bytes
// from outside, which every allocation checks in full.
type rig struct {
	env     *sim.Env
	devices []*Device
	blob    *graphfile.Handle
	graph   *nn.Graph
}

func newRig(t testing.TB, n int, g *nn.Graph) *rig {
	t.Helper()
	env := sim.NewEnv()
	_, ports, err := usb.Testbed(env, usb.DefaultConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	seed := rng.New(1234)
	devices := make([]*Device, n)
	for i, port := range ports {
		d, err := NewDevice(env, port.Name(), port, DefaultConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = d
	}
	blob, err := graphfile.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{env: env, devices: devices, blob: graphfile.FromBytes(blob), graph: g}
}

func TestOpenAllocateCloseLifecycle(t *testing.T) {
	r := newRig(t, 1, nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1)))
	d := r.devices[0]
	r.env.Process("host", func(p *sim.Proc) {
		if err := d.Open(p); err != nil {
			t.Errorf("Open: %v", err)
		}
		if err := d.Open(p); err != ErrAlreadyOpen {
			t.Errorf("second Open: %v", err)
		}
		g, err := d.AllocateGraph(p, r.blob, GraphOptions{})
		if err != nil {
			t.Fatalf("AllocateGraph: %v", err)
		}
		if _, err := d.AllocateGraph(p, r.blob, GraphOptions{}); err != ErrGraphAllocated {
			t.Errorf("second AllocateGraph: %v", err)
		}
		if g.Info().Layers != r.graph.Len() {
			t.Errorf("info layers = %d", g.Info().Layers)
		}
		if err := d.Close(p); err != nil {
			t.Errorf("Close: %v", err)
		}
		// Close returns the device to the closed state (so recovery can
		// re-open it); a second Close is "not open", like before Open.
		if err := d.Close(p); err != ErrDeviceNotOpen {
			t.Errorf("second Close: %v", err)
		}
	})
	r.env.Run()
}

// TestCloseReopenReallocate is the recovery-path regression test: a
// Close → Open → AllocateGraph cycle must start from a clean slate —
// the detached first graph must not trip ErrGraphAllocated — and the
// re-allocated graph must serve inferences normally.
func TestCloseReopenReallocate(t *testing.T) {
	r := newRig(t, 1, nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1)))
	d := r.devices[0]
	r.env.Process("host", func(p *sim.Proc) {
		if err := d.Open(p); err != nil {
			t.Fatal(err)
		}
		g1, err := d.AllocateGraph(p, r.blob, GraphOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Queue one inference, close while it drains, and check the
		// pending result remains retrievable through the detached handle.
		if err := g1.LoadTensor(p, nil, "before-close"); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(p); err != nil {
			t.Fatalf("Close: %v", err)
		}
		res, err := g1.GetResult(p)
		if err != nil {
			t.Fatalf("GetResult after Close: %v", err)
		}
		if res.UserParam.(string) != "before-close" {
			t.Errorf("pending result lost across Close: %v", res.UserParam)
		}
		// The detached graph must refuse new work...
		if err := g1.LoadTensor(p, nil, nil); err != ErrClosed {
			t.Errorf("LoadTensor on detached graph: %v", err)
		}
		// ...and the reopened device must re-allocate without tripping
		// ErrGraphAllocated.
		if err := d.Open(p); err != nil {
			t.Fatalf("re-Open: %v", err)
		}
		g2, err := d.AllocateGraph(p, r.blob, GraphOptions{})
		if err != nil {
			t.Fatalf("re-AllocateGraph: %v", err)
		}
		if err := g2.LoadTensor(p, nil, "after-reopen"); err != nil {
			t.Fatal(err)
		}
		res, err = g2.GetResult(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.UserParam.(string) != "after-reopen" {
			t.Errorf("re-allocated graph result: %v", res.UserParam)
		}
		if err := d.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	r.env.Run()
}

func TestOperationsBeforeOpenFail(t *testing.T) {
	r := newRig(t, 1, nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1)))
	d := r.devices[0]
	r.env.Process("host", func(p *sim.Proc) {
		if _, err := d.AllocateGraph(p, r.blob, GraphOptions{}); err != ErrDeviceNotOpen {
			t.Errorf("AllocateGraph before open: %v", err)
		}
		if err := d.Close(p); err != ErrDeviceNotOpen {
			t.Errorf("Close before open: %v", err)
		}
	})
	r.env.Run()
}

func TestDeviceRejectsCorruptBlob(t *testing.T) {
	r := newRig(t, 1, nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1)))
	d := r.devices[0]
	bad := append([]byte(nil), r.blob.Bytes()...)
	bad[len(bad)/2] ^= 0xFF
	r.env.Process("host", func(p *sim.Proc) {
		if err := d.Open(p); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AllocateGraph(p, graphfile.FromBytes(bad), GraphOptions{}); err == nil {
			t.Error("corrupt blob accepted")
		}
		if err := d.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	r.env.Run()
}

// TestSingleStickLatencyCalibration is the end-to-end anchor: one
// LoadTensor + GetResult round trip for GoogLeNet must land on the
// paper's measured 100.7 ms single-input latency (±3%).
func TestSingleStickLatencyCalibration(t *testing.T) {
	r := newRig(t, 1, nn.NewGoogLeNet(rng.New(1)))
	d := r.devices[0]
	var latencies []time.Duration
	r.env.Process("host", func(p *sim.Proc) {
		if err := d.Open(p); err != nil {
			t.Fatal(err)
		}
		g, err := d.AllocateGraph(p, r.blob, GraphOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			start := p.Now()
			if err := g.LoadTensor(p, nil, i); err != nil {
				t.Fatal(err)
			}
			if _, err := g.GetResult(p); err != nil {
				t.Fatal(err)
			}
			latencies = append(latencies, p.Now()-start)
		}
		if err := d.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	r.env.Run()
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	mean := sum.Seconds() / float64(len(latencies)) * 1e3
	if math.Abs(mean-100.7)/100.7 > 0.03 {
		t.Errorf("single-stick latency = %.2f ms, paper measures 100.7 (±3%%)", mean)
	}
}

func TestResultsArriveInLoadOrder(t *testing.T) {
	r := newRig(t, 1, nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1)))
	d := r.devices[0]
	r.env.Process("host", func(p *sim.Proc) {
		if err := d.Open(p); err != nil {
			t.Fatal(err)
		}
		g, err := d.AllocateGraph(p, r.blob, GraphOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Queue two (FIFO depth), then interleave.
		for i := 0; i < 2; i++ {
			if err := g.LoadTensor(p, nil, i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 2; i < 6; i++ {
			res, err := g.GetResult(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.UserParam.(int) != i-2 {
				t.Errorf("result %d carries userParam %v", i-2, res.UserParam)
			}
			if err := g.LoadTensor(p, nil, i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 4; i < 6; i++ {
			res, err := g.GetResult(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.UserParam.(int) != i {
				t.Errorf("tail result carries %v, want %d", res.UserParam, i)
			}
		}
		if err := d.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	r.env.Run()
}

func TestLoadTensorOverlapsExecution(t *testing.T) {
	// Listing 1's point: after LoadTensor returns, the host is free
	// while the VPU executes. Host-side busy time for LoadTensor must
	// be far below the inference latency.
	r := newRig(t, 1, nn.NewGoogLeNet(rng.New(1)))
	d := r.devices[0]
	var loadTime, roundTrip time.Duration
	r.env.Process("host", func(p *sim.Proc) {
		if err := d.Open(p); err != nil {
			t.Fatal(err)
		}
		g, err := d.AllocateGraph(p, r.blob, GraphOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t0 := p.Now()
		if err := g.LoadTensor(p, nil, nil); err != nil {
			t.Fatal(err)
		}
		loadTime = p.Now() - t0
		if _, err := g.GetResult(p); err != nil {
			t.Fatal(err)
		}
		roundTrip = p.Now() - t0
		if err := d.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	r.env.Run()
	if loadTime >= roundTrip/10 {
		t.Errorf("LoadTensor blocked %v of a %v round trip; it must return promptly", loadTime, roundTrip)
	}
}

func TestFIFOBackpressure(t *testing.T) {
	// With FIFO depth 2, the third LoadTensor must block until the
	// first inference completes.
	r := newRig(t, 1, nn.NewGoogLeNet(rng.New(1)))
	d := r.devices[0]
	var thirdLoadDone, firstExecDone time.Duration
	r.env.Process("host", func(p *sim.Proc) {
		if err := d.Open(p); err != nil {
			t.Fatal(err)
		}
		g, err := d.AllocateGraph(p, r.blob, GraphOptions{})
		if err != nil {
			t.Fatal(err)
		}
		base := g.Engine().BaseExecDuration()
		for i := 0; i < 3; i++ {
			if err := g.LoadTensor(p, nil, i); err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				thirdLoadDone = p.Now()
			}
		}
		firstExecDone = base // approximately; compare magnitudes below
		for i := 0; i < 3; i++ {
			if _, err := g.GetResult(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	r.env.Run()
	if thirdLoadDone < firstExecDone*9/10 {
		t.Errorf("third LoadTensor returned at %v, before the first inference (~%v) freed a slot",
			thirdLoadDone, firstExecDone)
	}
}

func TestFunctionalInference(t *testing.T) {
	g := nn.NewMicroGoogLeNet(nn.MicroConfig{Classes: 10, Input: 32}, rng.New(3))
	r := newRig(t, 1, g)
	d := r.devices[0]
	img := tensor.New(3, 32, 32)
	img.FillNormal(rng.New(9), 0, 64)
	r.env.Process("host", func(p *sim.Proc) {
		if err := d.Open(p); err != nil {
			t.Fatal(err)
		}
		gr, err := d.AllocateGraph(p, r.blob, GraphOptions{Functional: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := gr.LoadTensor(p, nil, nil); err != ErrMissingInput {
			t.Errorf("nil input on functional graph: %v", err)
		}
		if err := gr.LoadTensor(p, img, "tag"); err != nil {
			t.Fatal(err)
		}
		res, err := gr.GetResult(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("inference error: %v", res.Err)
		}
		if res.Output == nil || !res.Output.ShapeOf.Equal(tensor.Shape{10}) {
			t.Fatalf("output = %v", res.Output)
		}
		if !res.Output.IsFP16Exact() {
			t.Error("NCS output must be FP16")
		}
		if res.UserParam.(string) != "tag" {
			t.Error("userParam lost")
		}
		if res.ExecTime <= 0 {
			t.Error("exec time missing")
		}
		if err := d.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	r.env.Run()
}

func TestPowerMeterTracksActivity(t *testing.T) {
	r := newRig(t, 1, nn.NewGoogLeNet(rng.New(1)))
	d := r.devices[0]
	r.env.Process("host", func(p *sim.Proc) {
		if err := d.Open(p); err != nil {
			t.Fatal(err)
		}
		g, err := d.AllocateGraph(p, r.blob, GraphOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := g.LoadTensor(p, nil, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := g.GetResult(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	r.env.Run()
	cfg := d.Config()
	if d.Meter().PeakWatts() != cfg.ActiveWatts {
		t.Errorf("peak = %g, want %g", d.Meter().PeakWatts(), cfg.ActiveWatts)
	}
	avg := d.Meter().AveragePowerWatts(r.env.Now())
	// Most of the horizon is inference (duty cycle > 90% once open),
	// but boot time drags the average below active power.
	if avg <= cfg.IdleWatts || avg >= cfg.ActiveWatts {
		t.Errorf("average power %g outside (%g, %g)", avg, cfg.IdleWatts, cfg.ActiveWatts)
	}
}

func TestTwoSticksRunConcurrently(t *testing.T) {
	r := newRig(t, 2, nn.NewGoogLeNet(rng.New(1)))
	perDevice := 5
	for _, d := range r.devices {
		d := d
		r.env.Process(d.Name()+"-host", func(p *sim.Proc) {
			if err := d.Open(p); err != nil {
				t.Error(err)
				return
			}
			g, err := d.AllocateGraph(p, r.blob, GraphOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perDevice; i++ {
				if err := g.LoadTensor(p, nil, nil); err != nil {
					t.Error(err)
					return
				}
				if _, err := g.GetResult(p); err != nil {
					t.Error(err)
					return
				}
			}
			if err := d.Close(p); err != nil {
				t.Error(err)
			}
		})
	}
	r.env.Run()
	// Both sticks boot (~0.85 s) and allocate the 14 MB blob (~0.17 s)
	// in parallel, then run 5 inferences each (~0.5 s). A concurrent
	// run lands near 1.6 s; a serialized one near 3.1 s.
	if r.env.Now() > 2200*time.Millisecond {
		t.Errorf("2-stick makespan %v suggests no concurrency", r.env.Now())
	}
	if r.env.Now() < 1300*time.Millisecond {
		t.Errorf("2-stick makespan %v implausibly fast", r.env.Now())
	}
}

func TestConfigValidation(t *testing.T) {
	env := sim.NewEnv()
	_, ports, err := usb.Testbed(env, usb.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.FIFODepth = 0
	if _, err := NewDevice(env, "x", ports[0], bad, rng.New(0)); err == nil {
		t.Error("FIFO 0 accepted")
	}
	bad = DefaultConfig()
	bad.AllocParseBandwidth = 0
	if _, err := NewDevice(env, "x", ports[0], bad, rng.New(0)); err == nil {
		t.Error("zero parse bandwidth accepted")
	}
	bad = DefaultConfig()
	bad.ActiveWatts = 0.1 // below idle
	if _, err := NewDevice(env, "x", ports[0], bad, rng.New(0)); err == nil {
		t.Error("active < idle accepted")
	}
	if _, err := NewDevice(env, "x", nil, DefaultConfig(), rng.New(0)); err == nil {
		t.Error("nil port accepted")
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Info returns the parsed blob header.
func (g *Graph) Info() graphfile.Info { return *g.info }

// Engine exposes the underlying VPU engine (for profiling tools).
func (g *Graph) Engine() *vpu.Engine { return g.engine }
