package vpu

import (
	"math"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func googleEngine(t testing.TB) *Engine {
	t.Helper()
	g := nn.NewGoogLeNet(rng.New(1))
	e, err := NewEngine(DefaultConfig(), g, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPeakThroughput(t *testing.T) {
	cfg := DefaultConfig()
	// 12 SHAVEs x 8 lanes x 600 MHz = 57.6 GMAC/s.
	if got := cfg.PeakMACsPerSecond(); math.Abs(got-57.6e9) > 1 {
		t.Errorf("peak = %g, want 57.6e9", got)
	}
}

// TestGoogLeNetExecCalibration is the calibration anchor: on-device
// execution of GoogLeNet must land near 96 ms so the full NCS pipeline
// (USB + command + exec) reproduces the paper's 100.7 ms single-stick
// latency.
func TestGoogLeNetExecCalibration(t *testing.T) {
	e := googleEngine(t)
	got := e.BaseExecDuration()
	lo, hi := 90*time.Millisecond, 102*time.Millisecond
	if got < lo || got > hi {
		t.Errorf("GoogLeNet exec = %v, want in [%v, %v] (calibration target ~96 ms)", got, lo, hi)
	}
}

func TestLayerProfileConsistency(t *testing.T) {
	e := googleEngine(t)
	prof := e.LayerProfile()
	if len(prof) != 142 {
		t.Fatalf("profile rows = %d, want 142", len(prof))
	}
	var sum time.Duration
	for _, lc := range prof {
		if lc.Total < lc.Compute || lc.Total < lc.Memory {
			t.Errorf("layer %s total %v below components (%v, %v)", lc.Name, lc.Total, lc.Compute, lc.Memory)
		}
		switch lc.Bound {
		case "compute":
			if lc.Compute < lc.Memory {
				t.Errorf("layer %s marked compute-bound but memory dominates", lc.Name)
			}
		case "memory":
			if lc.Memory < lc.Compute {
				t.Errorf("layer %s marked memory-bound but compute dominates", lc.Name)
			}
		default:
			t.Errorf("layer %s has bound %q", lc.Name, lc.Bound)
		}
		sum += lc.Total
	}
	if sum != e.BaseExecDuration() {
		t.Errorf("profile sum %v != base %v", sum, e.BaseExecDuration())
	}
}

func TestConvLayersComputeBound(t *testing.T) {
	// The big convolutions must be compute-bound on this device —
	// that is what makes the VPU's MAC efficiency the headline — while
	// elementwise layers (relu, concat, dropout) are memory-bound.
	e := googleEngine(t)
	byBound := map[string]map[string]int{}
	for _, lc := range e.LayerProfile() {
		if byBound[lc.Kind] == nil {
			byBound[lc.Kind] = map[string]int{}
		}
		byBound[lc.Kind][lc.Bound]++
	}
	if byBound["conv"]["memory"] > byBound["conv"]["compute"]/4 {
		t.Errorf("too many memory-bound convs: %v", byBound["conv"])
	}
	for _, kind := range []string{"relu", "concat", "dropout"} {
		if byBound[kind]["compute"] > 0 {
			t.Errorf("%s layers should be memory-bound: %v", kind, byBound[kind])
		}
	}
}

func TestJitterIsSmallAndDeterministic(t *testing.T) {
	a := googleEngine(t)
	base := a.BaseExecDuration()
	var durations []time.Duration
	for i := 0; i < 100; i++ {
		d := a.NextExecDuration()
		if math.Abs(float64(d-base)/float64(base)) > 0.10 {
			t.Errorf("jittered duration %v deviates >10%% from base %v", d, base)
		}
		durations = append(durations, d)
	}
	// Re-creating the engine with identical seeds replays the stream.
	b := googleEngine(t)
	for i := 0; i < 100; i++ {
		if d := b.NextExecDuration(); d != durations[i] {
			t.Fatalf("jitter stream diverged at %d", i)
		}
	}
}

func TestZeroJitterExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSigma = 0
	g := nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1))
	e, err := NewEngine(cfg, g, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if e.NextExecDuration() != e.BaseExecDuration() {
		t.Error("zero jitter must reproduce base duration")
	}
}

func TestEngineValidation(t *testing.T) {
	g := nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1))
	if _, err := NewEngine(DefaultConfig(), nil, rng.New(0)); err == nil {
		t.Error("nil graph accepted")
	}
	bad := DefaultConfig()
	bad.ComputeEfficiency = 0
	if _, err := NewEngine(bad, g, rng.New(0)); err == nil {
		t.Error("zero efficiency accepted")
	}
	bad = DefaultConfig()
	bad.ComputeEfficiency = 1.5
	if _, err := NewEngine(bad, g, rng.New(0)); err == nil {
		t.Error("efficiency > 1 accepted")
	}
	bad = DefaultConfig()
	bad.DDRBandwidth = -1
	if _, err := NewEngine(bad, g, rng.New(0)); err == nil {
		t.Error("negative bandwidth accepted")
	}
	bad = DefaultConfig()
	bad.NumSHAVEs = 0
	if _, err := NewEngine(bad, g, rng.New(0)); err == nil {
		t.Error("zero SHAVEs accepted")
	}
	bad = DefaultConfig()
	bad.LayerOverhead = -time.Microsecond
	if _, err := NewEngine(bad, g, rng.New(0)); err == nil {
		t.Error("negative overhead accepted")
	}
}

func TestInferFunctional(t *testing.T) {
	cfg := DefaultConfig()
	g := nn.NewMicroGoogLeNet(nn.MicroConfig{Classes: 10, Input: 32}, rng.New(3))
	g.QuantizeWeightsFP16()
	e, err := NewEngine(cfg, g, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.New(3, 32, 32)
	img.FillNormal(rng.New(5), 0, 64)
	out, err := e.Infer(img)
	if err != nil {
		t.Fatal(err)
	}
	if !out.ShapeOf.Equal(tensor.Shape{10}) {
		t.Fatalf("out shape = %v", out.ShapeOf)
	}
	var sum float64
	for _, v := range out.Data {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-2 {
		t.Errorf("confidences sum to %g", sum)
	}
	// FP16 execution: output exactly representable.
	if !out.IsFP16Exact() {
		t.Error("VPU output must be FP16-exact")
	}
}

func TestMoreSHAVEsFaster(t *testing.T) {
	// Scaling the SHAVE count must reduce compute-bound time — the
	// knob behind the paper's observation that VPU performance comes
	// from the parallel vector array.
	g := nn.NewGoogLeNet(rng.New(1))
	cfg := DefaultConfig()
	e12, err := NewEngine(cfg, g, rng.New(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg6 := cfg
	cfg6.NumSHAVEs = 6
	e6, err := NewEngine(cfg6, g, rng.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if e6.BaseExecDuration() <= e12.BaseExecDuration() {
		t.Errorf("6 SHAVEs (%v) should be slower than 12 (%v)",
			e6.BaseExecDuration(), e12.BaseExecDuration())
	}
	ratio := float64(e6.BaseExecDuration()) / float64(e12.BaseExecDuration())
	if ratio < 1.5 || ratio > 2.1 {
		t.Errorf("halving SHAVEs changed time by %.2fx, expected near 2x (compute dominated)", ratio)
	}
}
