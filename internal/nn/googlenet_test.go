package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestGoogLeNetTopology(t *testing.T) {
	g := NewGoogLeNet(rng.New(1))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.InputShape().Equal(tensor.Shape{3, 224, 224}) {
		t.Errorf("input shape = %v", g.InputShape())
	}
	if !g.OutputShape().Equal(tensor.Shape{1000}) {
		t.Errorf("output shape = %v", g.OutputShape())
	}
	// 9 inception modules x (6 convs + 6 relus + 1 pool + 1 concat)
	// plus the stem and the head: 142 layers total in the deploy net.
	if g.Len() != 142 {
		t.Errorf("layer count = %d, want 142", g.Len())
	}
}

func TestGoogLeNetIntermediateShapes(t *testing.T) {
	g := NewGoogLeNet(rng.New(1))
	checks := map[string]tensor.Shape{
		"conv1/7x7_s2":        {64, 112, 112},
		"pool1/3x3_s2":        {64, 56, 56},
		"conv2/3x3":           {192, 56, 56},
		"pool2/3x3_s2":        {192, 28, 28},
		"inception_3a/output": {256, 28, 28},
		"inception_3b/output": {480, 28, 28},
		"pool3/3x3_s2":        {480, 14, 14},
		"inception_4a/output": {512, 14, 14},
		"inception_4e/output": {832, 14, 14},
		"pool4/3x3_s2":        {832, 7, 7},
		"inception_5b/output": {1024, 7, 7},
		"pool5/7x7_s1":        {1024, 1, 1},
		"loss3/classifier":    {1000},
	}
	for name, want := range checks {
		got, err := g.ShapeOf(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("%s shape = %v, want %v", name, got, want)
		}
	}
}

func TestGoogLeNetCostMatchesPublished(t *testing.T) {
	g := NewGoogLeNet(rng.New(1))
	total := g.TotalStats()
	// Published figures for Inception-v1: ~1.5 GFLOPs ≈ 0.75 G
	// multiply-adds for the convs alone at 224x224 (Szegedy et al.
	// report "1.5 billion multiply-adds"); with our MAC-equivalent
	// accounting for pooling/LRN the deploy net lands near 1.6 GMACs.
	// Guard the order of magnitude tightly: the device cost models are
	// calibrated against this count.
	gmacs := float64(total.MACs) / 1e9
	if gmacs < 1.3 || gmacs > 1.9 {
		t.Errorf("GoogLeNet MACs = %.3f G, expected ~1.6 G", gmacs)
	}
	// ~7.0 M parameters (6.99 M in the BVLC release).
	mp := float64(total.Params) / 1e6
	if mp < 6.5 || mp > 7.5 {
		t.Errorf("GoogLeNet params = %.2f M, expected ~7.0 M", mp)
	}
}

func TestGoogLeNetDeterministicWeights(t *testing.T) {
	a := NewGoogLeNet(rng.New(42))
	b := NewGoogLeNet(rng.New(42))
	ca := a.Layer("inception_4c/5x5").(*Conv)
	cb := b.Layer("inception_4c/5x5").(*Conv)
	for i := range ca.Weights().Data {
		if ca.Weights().Data[i] != cb.Weights().Data[i] {
			t.Fatal("weights differ across identical seeds")
		}
	}
}

// TestGoogLeNetForward runs a full functional inference. It is the
// slowest unit test in the package (one 1.4 GMAC forward pass) but
// proves the whole 142-layer graph executes and normalizes.
func TestGoogLeNetForward(t *testing.T) {
	if testing.Short() {
		t.Skip("full GoogLeNet forward skipped in -short")
	}
	g := NewGoogLeNet(rng.New(1))
	in := tensor.New(1, 3, 224, 224)
	in.FillNormal(rng.New(2), 0, 64)
	out, err := g.Forward(in, FP32)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out.Data {
		if math.IsNaN(float64(v)) || v < 0 {
			t.Fatal("invalid probability")
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("probabilities sum to %g", sum)
	}
}

func TestInceptionSpecOutChannels(t *testing.T) {
	s := InceptionSpec{64, 96, 128, 16, 32, 32}
	if s.OutChannels() != 256 {
		t.Errorf("OutChannels = %d, want 256", s.OutChannels())
	}
}

func TestMicroGoogLeNetTopology(t *testing.T) {
	g := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.InputShape().Equal(tensor.Shape{3, 32, 32}) {
		t.Errorf("input shape = %v", g.InputShape())
	}
	if !g.OutputShape().Equal(tensor.Shape{100}) {
		t.Errorf("output shape = %v", g.OutputShape())
	}
	// Must exercise every operator kind of the full network.
	kinds := map[string]bool{}
	for _, k := range g.Kinds() {
		kinds[k] = true
	}
	for _, want := range []string{"conv", "maxpool", "avgpool", "lrn", "concat", "dropout", "fc", "softmax", "relu"} {
		if !kinds[want] {
			t.Errorf("micro network missing operator kind %q", want)
		}
	}
}

func TestMicroGoogLeNetForward(t *testing.T) {
	g := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
	in := tensor.New(2, 3, 32, 32)
	in.FillNormal(rng.New(3), 0, 64)
	out, err := g.Forward(in, FP32)
	if err != nil {
		t.Fatal(err)
	}
	if !out.ShapeOf.Equal(tensor.Shape{2, 100}) {
		t.Fatalf("out shape = %v", out.ShapeOf)
	}
	for b := 0; b < 2; b++ {
		var sum float64
		for c := 0; c < 100; c++ {
			sum += float64(out.At(b, c))
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Errorf("batch %d sums to %g", b, sum)
		}
	}
}

func TestMicroConfigValidation(t *testing.T) {
	for _, cfg := range []MicroConfig{{Classes: 1, Input: 32}, {Classes: 10, Input: 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			NewMicroGoogLeNet(cfg, rng.New(0))
		}()
	}
}

func TestCalibrateClassifier(t *testing.T) {
	cfg := MicroConfig{Classes: 8, Input: 32}
	g := NewMicroGoogLeNet(cfg, rng.New(1))
	src := rng.New(99)
	protos := make([]*tensor.T, cfg.Classes)
	for c := range protos {
		p := tensor.New(3, 32, 32)
		p.FillNormal(src.DeriveIndex(c), 0, 64)
		protos[c] = p
	}
	if err := CalibrateClassifier(g, MicroClassifierName, MicroPoolName, protos, 8); err != nil {
		t.Fatal(err)
	}
	// After calibration, every noise-free prototype must classify to
	// its own class: nearest-prototype in feature space is exact at
	// zero noise.
	for c, p := range protos {
		in := p.Reshape(1, 3, 32, 32)
		out, err := g.Forward(in, FP32)
		if err != nil {
			t.Fatal(err)
		}
		pred, conf := out.ArgMax()
		if pred != c {
			t.Errorf("prototype %d predicted as %d", c, pred)
		}
		if conf <= 1.0/float32(cfg.Classes) {
			t.Errorf("prototype %d confidence %g not above uniform", c, conf)
		}
	}
	// Output selection must be restored.
	if g.Output() != "prob" {
		t.Errorf("output not restored: %q", g.Output())
	}
}

func TestCalibrateClassifierErrors(t *testing.T) {
	cfg := MicroConfig{Classes: 4, Input: 32}
	g := NewMicroGoogLeNet(cfg, rng.New(1))
	protos := []*tensor.T{tensor.New(3, 32, 32)}
	if err := CalibrateClassifier(g, MicroClassifierName, MicroPoolName, protos, 8); err == nil {
		t.Error("wrong prototype count must error")
	}
	protos4 := make([]*tensor.T, 4)
	for i := range protos4 {
		protos4[i] = tensor.New(3, 32, 32)
	}
	if err := CalibrateClassifier(g, "conv1", MicroPoolName, protos4, 8); err == nil {
		t.Error("non-FC layer must error")
	}
	if err := CalibrateClassifier(g, MicroClassifierName, "missing", protos4, 8); err == nil {
		t.Error("missing embedding layer must error")
	}
	// Zero prototypes give zero embeddings after ReLU+avgpool only if
	// biases were zero; with our biases they are fine, so craft a
	// direct zero-embedding failure via the wrong embedding layer size
	// instead.
	if err := CalibrateClassifier(g, MicroClassifierName, "conv1", protos4, 8); err == nil {
		t.Error("embedding size mismatch must error")
	}
}

func TestPrecisionString(t *testing.T) {
	if FP32.String() != "FP32" || FP16.String() != "FP16" {
		t.Error("Precision.String wrong")
	}
}
