package nn

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// loaded reports whether a weighted layer has materialised its tensors.
func loaded(l Layer) bool {
	w, ok := l.(weighted)
	return ok && w.Params().loaded.Load()
}

// TestLazyWeightsMatchEagerFill: the lazy fill draws the same values
// the eager constructors drew, whenever it happens and however the
// caller's source advanced in between.
func TestLazyWeightsMatchEagerFill(t *testing.T) {
	src := rng.New(9)
	conv := NewConvRect("c", 3, 4, 3, 5, 1, 1, src)
	fc := NewFullyConnected("f", 6, 2, src)
	src.Uint64() // advancing src must not reach the layers' streams

	ref := rng.New(9)
	s := ref.Derive("conv/c")
	wantW, wantB := tensor.New(4, 3, 3, 5), tensor.New(4)
	wantW.FillMSRA(s, 3*3*5)
	wantB.FillNormal(s, 0.01, 0.005)
	wantFC := tensor.New(2, 6)
	wantFC.FillXavier(ref.Derive("fc/f"), 6)

	equal := func(what string, got, want *tensor.T) {
		t.Helper()
		if !got.ShapeOf.Equal(want.ShapeOf) {
			t.Fatalf("%s shape %v, want %v", what, got.ShapeOf, want.ShapeOf)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s[%d] = %g, want %g", what, i, got.Data[i], want.Data[i])
			}
		}
	}
	equal("conv weights", conv.Weights(), wantW)
	equal("conv bias", conv.Bias(), wantB)
	equal("fc weights", fc.Weights(), wantFC)
	equal("fc bias", fc.Bias(), tensor.New(2))
}

// TestValuesDoNotMaterialise: Stats and ParamValues read a built
// layer without filling its tensors, and Values yields exactly what
// the later fill does, also from a dirty scratch buffer.
func TestValuesDoNotMaterialise(t *testing.T) {
	g := tinyGraph(t, 3)
	_ = g.TotalStats()
	fc := g.Layer("fc").(*FullyConnected)
	scratch := []float32{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	w, b := ParamValues(fc, &scratch)
	for _, name := range g.LayerNames() {
		if loaded(g.Layer(name)) {
			t.Fatalf("layer %q materialised by Stats or Values", name)
		}
	}
	for i, v := range fc.Weights().Data {
		if w[i] != v {
			t.Fatalf("Values weight %d = %g, fill gives %g", i, w[i], v)
		}
	}
	for i, v := range fc.Bias().Data {
		if b[i] != v {
			t.Fatalf("Values bias %d = %g, fill gives %g", i, b[i], v)
		}
	}
}

// TestParsedValuesDoNotMaterialise: ParamValues decodes a parsed
// layer's binary16 runs into scratch and leaves the layer unread.
func TestParsedValuesDoNotMaterialise(t *testing.T) {
	fc := &FullyConnected{LayerName: "f", InF: 2, OutF: 1}
	// 1.5, -2 and 0.25 in little-endian binary16.
	fc.Params().DeferFP16([]byte{0x00, 0x3e, 0x00, 0xc0}, []byte{0x00, 0x34})
	var scratch []float32
	w, b := ParamValues(fc, &scratch)
	if loaded(fc) {
		t.Fatal("ParamValues materialised a parsed layer")
	}
	if w[0] != 1.5 || w[1] != -2 || b[0] != 0.25 {
		t.Fatalf("ParamValues = %v %v, want [1.5 -2] [0.25]", w, b)
	}
	if fc.Weights().Data[1] != -2 || fc.Bias().Data[0] != 0.25 {
		t.Fatalf("fill = %v %v, want [1.5 -2] [0.25]", fc.Weights().Data, fc.Bias().Data)
	}
}

// TestWriteSurvivesLaterReads: once read, the tensors are the values;
// no later access refills them from the source.
func TestWriteSurvivesLaterReads(t *testing.T) {
	conv := NewConv("c", 2, 3, 1, 1, 0, rng.New(1))
	conv.Weights().Fill(0.5)
	conv.Bias().Data[2] = -4
	_, _ = tensorsOf(conv)
	if conv.Weights().Data[0] != 0.5 || conv.Bias().Data[2] != -4 {
		t.Error("a later read overwrote a write")
	}
	var scratch []float32
	if w, b := ParamValues(conv, &scratch); w[0] != 0.5 || b[2] != -4 {
		t.Error("ParamValues ignores the written tensors")
	}
}

// TestQuantizeWeightsFP16Unmaterialised: quantizing a graph whose
// weights were never read fills them first and rounds the filled
// values.
func TestQuantizeWeightsFP16Unmaterialised(t *testing.T) {
	g := tinyGraph(t, 12)
	g.QuantizeWeightsFP16()
	want := tinyGraph(t, 12)
	for _, name := range []string{"conv", "fc"} {
		gw, gb := tensorsOf(g.Layer(name).(weighted))
		rw, rb := tensorsOf(want.Layer(name).(weighted))
		ref := []*tensor.T{rw, rb}
		for i, tt := range []*tensor.T{gw, gb} {
			if !tt.IsFP16Exact() {
				t.Errorf("%s tensor %d not quantized", name, i)
			}
			r := ref[i].Clone()
			r.QuantizeFP16()
			for j := range r.Data {
				if tt.Data[j] != r.Data[j] {
					t.Fatalf("%s tensor %d [%d] = %g, want %g", name, i, j, tt.Data[j], r.Data[j])
				}
			}
		}
	}
}

// TestConcurrentFirstRead: goroutines racing to read a fresh layer
// all see one set of tensors with the sequential values (run under
// -race to check the guard).
func TestConcurrentFirstRead(t *testing.T) {
	fresh := func() *FullyConnected { return NewFullyConnected("f", 64, 32, rng.New(4)) }
	fc := fresh()
	const readers = 4
	got := make([]*tensor.T, readers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = fc.Weights()
		}()
	}
	close(start)
	wg.Wait()
	want := fresh().Weights()
	for i, w := range got {
		if w != got[0] {
			t.Fatalf("reader %d got a different tensor", i)
		}
		for j := range want.Data {
			if w.Data[j] != want.Data[j] {
				t.Fatalf("reader %d weight %d = %g, want %g", i, j, w.Data[j], want.Data[j])
			}
		}
	}
}

// TestNewGoogLeNetAllocCeiling: building GoogLeNet costs its shapes
// only; the 28 MB of float32 weights are filled on first read.
func TestNewGoogLeNetAllocCeiling(t *testing.T) {
	var g *Graph
	n := allocBytes(func() { g = NewGoogLeNet(rng.New(42)) })
	if n >= 1<<20 {
		t.Errorf("NewGoogLeNet allocated %d bytes, want < 1 MB", n)
	}
	if got := g.TotalStats().Params; got < 6_500_000 {
		t.Errorf("params = %d, geometry lost", got)
	}
}

// BenchmarkNewGoogLeNet times the shape-only GoogLeNet build every
// timing session starts with.
func BenchmarkNewGoogLeNet(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		NewGoogLeNet(rng.New(42))
	}
}
