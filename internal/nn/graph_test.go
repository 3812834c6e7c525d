package nn

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/half"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// tinyGraph builds a small conv->relu->pool->fc->softmax network used
// across the graph tests.
func tinyGraph(t testing.TB, seed uint64) *Graph {
	t.Helper()
	src := rng.New(seed)
	g := NewGraph("tiny", tensor.Shape{2, 8, 8})
	c := g.MustAdd(NewConv("conv", 2, 4, 3, 1, 1, src), InputName)
	r := g.MustAdd(&ReLU{LayerName: "relu"}, c)
	p := g.MustAdd(&Pool{LayerName: "pool", PoolOp: AvgPool, Global: true}, r)
	f := g.MustAdd(NewFullyConnected("fc", 4, 3, src), p)
	g.MustAdd(&Softmax{LayerName: "prob"}, f)
	return g
}

func TestGraphBuildAndShapes(t *testing.T) {
	g := tinyGraph(t, 1)
	if g.Len() != 5 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.Output() != "prob" {
		t.Errorf("Output = %q", g.Output())
	}
	if !g.OutputShape().Equal(tensor.Shape{3}) {
		t.Errorf("OutputShape = %v", g.OutputShape())
	}
	s, err := g.ShapeOf("pool")
	if err != nil || !s.Equal(tensor.Shape{4, 1, 1}) {
		t.Errorf("ShapeOf(pool) = %v, %v", s, err)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if got := g.Kinds(); strings.Join(got, ",") != "avgpool,conv,fc,relu,softmax" {
		t.Errorf("Kinds = %v", got)
	}
}

func TestGraphAddErrors(t *testing.T) {
	src := rng.New(1)
	g := NewGraph("g", tensor.Shape{1, 4, 4})
	if _, err := g.Add(&ReLU{LayerName: InputName}, InputName); err == nil {
		t.Error("reserved name must be rejected")
	}
	if _, err := g.Add(&ReLU{LayerName: "r"}, "nonexistent"); err == nil {
		t.Error("unknown input must be rejected")
	}
	if _, err := g.Add(&ReLU{LayerName: "r"}); err == nil {
		t.Error("no inputs must be rejected")
	}
	if _, err := g.Add(&ReLU{LayerName: "r"}, InputName); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(&ReLU{LayerName: "r"}, InputName); err == nil {
		t.Error("duplicate name must be rejected")
	}
	// Shape errors propagate from the layer.
	if _, err := g.Add(NewConv("c", 5, 2, 3, 1, 1, src), InputName); err == nil {
		t.Error("channel mismatch must fail at Add time")
	}
}

func TestGraphForwardShapeAndDistribution(t *testing.T) {
	g := tinyGraph(t, 2)
	in := tensor.New(4, 2, 8, 8)
	in.FillNormal(rng.New(3), 0, 1)
	out, err := g.Forward(in, FP32)
	if err != nil {
		t.Fatal(err)
	}
	if !out.ShapeOf.Equal(tensor.Shape{4, 3}) {
		t.Fatalf("out shape = %v", out.ShapeOf)
	}
	for b := 0; b < 4; b++ {
		var sum float32
		for c := 0; c < 3; c++ {
			sum += out.At(b, c)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("batch %d probs sum to %g", b, sum)
		}
	}
}

func TestGraphForwardDeterministic(t *testing.T) {
	g := tinyGraph(t, 4)
	in := tensor.New(1, 2, 8, 8)
	in.FillNormal(rng.New(5), 0, 1)
	a, err := g.Forward(in, FP32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Forward(in, FP32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same input produced different outputs")
		}
	}
}

func TestGraphForwardFP16RoundsActivations(t *testing.T) {
	g := tinyGraph(t, 6)
	g.QuantizeWeightsFP16()
	in := tensor.New(1, 2, 8, 8)
	in.FillNormal(rng.New(7), 0, 1)
	out16, err := g.Forward(in, FP16)
	if err != nil {
		t.Fatal(err)
	}
	if !out16.IsFP16Exact() {
		t.Error("FP16 output must be exactly representable in binary16")
	}
	out32, err := g.Forward(in, FP32)
	if err != nil {
		t.Fatal(err)
	}
	// The two precisions must agree approximately but not (generally)
	// exactly — this small difference is the Fig. 7b signal.
	if d := half.MaxAbsDiff(out16.Data, out32.Data); d > 0.05 {
		t.Errorf("FP16 diverges too far from FP32: %g", d)
	}
	// The input tensor itself must not be mutated by FP16 execution.
	for _, v := range in.Data {
		if v != 0 && half.FromFloat32(v).Float32() == v {
			continue
		}
		return // found an unrounded value => input untouched
	}
	t.Error("input tensor appears to have been quantized in place")
}

func TestGraphSetOutput(t *testing.T) {
	g := tinyGraph(t, 8)
	if err := g.SetOutput("pool"); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 2, 8, 8)
	out, err := g.Forward(in, FP32)
	if err != nil {
		t.Fatal(err)
	}
	if !out.ShapeOf.Equal(tensor.Shape{1, 4, 1, 1}) {
		t.Errorf("intermediate output shape = %v", out.ShapeOf)
	}
	if err := g.SetOutput("nope"); err == nil {
		t.Error("unknown output must be rejected")
	}
}

func TestGraphPerLayerStats(t *testing.T) {
	g := tinyGraph(t, 9)
	ls := g.PerLayerStats()
	if len(ls) != 5 {
		t.Fatalf("stats rows = %d", len(ls))
	}
	if ls[0].Name != "conv" || ls[0].Kind != "conv" {
		t.Error("first row should be conv")
	}
	wantConvMACs := int64(4*8*8) * int64(2*9)
	if ls[0].Stats.MACs != wantConvMACs {
		t.Errorf("conv MACs = %d, want %d", ls[0].Stats.MACs, wantConvMACs)
	}
	total := g.TotalStats()
	var sum int64
	for _, l := range ls {
		sum += l.Stats.MACs
	}
	if total.MACs != sum {
		t.Error("TotalStats must sum per-layer stats")
	}
}

func TestGraphSummaryContainsLayers(t *testing.T) {
	g := tinyGraph(t, 10)
	s := g.Summary()
	for _, want := range []string{"conv", "prob", "TOTAL", "tiny"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestGraphInputsOfAndLayer(t *testing.T) {
	g := tinyGraph(t, 11)
	if ins := g.InputsOf("relu"); len(ins) != 1 || ins[0] != "conv" {
		t.Errorf("InputsOf(relu) = %v", ins)
	}
	if g.Layer("conv") == nil || g.Layer("missing") != nil {
		t.Error("Layer lookup wrong")
	}
	if g.InputsOf("missing") != nil {
		t.Error("InputsOf(missing) should be nil")
	}
}

func TestQuantizeWeightsFP16(t *testing.T) {
	g := tinyGraph(t, 12)
	conv := g.Layer("conv").(*Conv)
	if conv.Weights().IsFP16Exact() {
		t.Skip("weights happen to be exact; seed choice degenerate")
	}
	g.QuantizeWeightsFP16()
	if !conv.Weights().IsFP16Exact() {
		t.Error("conv weights not quantized")
	}
	fc := g.Layer("fc").(*FullyConnected)
	if !fc.Weights().IsFP16Exact() {
		t.Error("fc weights not quantized")
	}
}

func TestGraphValidateCatchesCorruption(t *testing.T) {
	g := tinyGraph(t, 13)
	// Reach into the graph and corrupt a cached shape.
	g.nodes["pool"].outShape = tensor.Shape{9, 9, 9}
	if err := g.Validate(); err == nil {
		t.Error("Validate must catch a corrupted cached shape")
	}
}

func TestEmptyGraphInvalid(t *testing.T) {
	g := NewGraph("empty", tensor.Shape{1, 2, 2})
	if err := g.Validate(); err == nil {
		t.Error("empty graph must be invalid")
	}
}

func TestNewGraphPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGraph("bad", tensor.Shape{0, 2, 2})
}

func TestMustAddPanics(t *testing.T) {
	g := NewGraph("g", tensor.Shape{1, 4, 4})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.MustAdd(&ReLU{LayerName: "r"}, "missing")
}

// ShapeOf returns the output shape of the named node (or the input).
func (g *Graph) ShapeOf(name string) (tensor.Shape, error) { return g.shapeOf(name) }

// Kinds returns the sorted set of operator kinds used by the graph.
func (g *Graph) Kinds() []string {
	set := map[string]bool{}
	for _, name := range g.order {
		set[g.nodes[name].layer.Kind()] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
