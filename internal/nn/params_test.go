package nn

import (
	"fmt"
	"math"
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

// collect reads l through ParamChunks with a scratch of size values,
// pre-filled with junk, checks that the chunks are consecutive, at most
// size long and never span the weights and the bias, and returns the
// values joined back into the two tensors' data.
func collect(t *testing.T, l Layer, size int) (w, b []float32) {
	t.Helper()
	nw, nb := ParamLens(l)
	scratch := make([]float32, size)
	for i := range scratch {
		scratch[i] = 7
	}
	var all []float32
	ParamChunks(l, scratch, func(off int, vals []float32) {
		if off != len(all) || len(vals) == 0 || len(vals) > size || (off < nw && off+len(vals) > nw) {
			t.Fatalf("chunk of %d at %d after %d values (size %d, %d weights)", len(vals), off, len(all), size, nw)
		}
		all = append(all, vals...)
	})
	if len(all) != nw+nb {
		t.Fatalf("chunks hold %d values, want %d", len(all), nw+nb)
	}
	return all[:nw], all[nw:]
}

// sameBits fails unless got and want hold the same float32 bits.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %g, want %g", what, i, got[i], want[i])
		}
	}
}

// TestParamChunksMatchMaterialised: at any chunk size, ParamChunks
// yields the bits the materialised tensors hold, for built conv and FC
// layers (an odd size splits a polar-normal pair across chunks),
// parsed, edited and zero-Params layers, and reading leaves an
// unmaterialised layer unmaterialised.
func TestParamChunksMatchMaterialised(t *testing.T) {
	parsed := func() Layer {
		fc := &FullyConnected{LayerName: "f", InF: 2, OutF: 1}
		// 1.5, -2 and 0.25 in little-endian binary16.
		runs := []byte{0x00, 0x3e, 0x00, 0xc0, 0x00, 0x34}
		fc.Params().DeferFP16(func() []byte { return runs }, 0, 4)
		return fc
	}
	cases := []struct {
		name  string
		fresh func() Layer
		edit  bool
	}{
		{"conv", func() Layer { return NewConvRect("c", 3, 5, 3, 5, 1, 1, rng.New(9)) }, false},
		{"fc", func() Layer { return NewFullyConnected("f", 37, 11, rng.New(9)) }, false},
		{"parsed", parsed, false},
		{"edited", func() Layer { return NewConv("c", 2, 3, 1, 1, 0, rng.New(1)) }, true},
		{"zero", func() Layer { return &Conv{LayerName: "z", InC: 2, OutC: 3, KH: 1, KW: 1, Stride: 1} }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := c.fresh()
			if c.edit {
				w, b := tensorsOf(l.(weighted))
				w.Fill(0.5)
				b.Data[2] = -4
			}
			got := map[int][2][]float32{}
			for _, size := range []int{1, 3, 7, 16 << 10} {
				w, b := collect(t, l, size)
				got[size] = [2][]float32{w, b}
			}
			if !c.edit && loaded(l) {
				t.Fatal("ParamChunks materialised the layer")
			}
			ww, wb := tensorsOf(l.(weighted))
			for size, g := range got {
				sameBits(t, fmt.Sprintf("weights at chunk %d", size), g[0], ww.Data)
				sameBits(t, fmt.Sprintf("bias at chunk %d", size), g[1], wb.Data)
			}
			if c.edit && (ww.Data[0] != 0.5 || wb.Data[2] != -4) {
				t.Fatal("a read overwrote the edit")
			}
		})
	}
}

// TestValuesDoNotMaterialise: Stats and ParamChunks read a built graph
// without filling its tensors, and the chunks hold exactly what the
// later fill does, also from a dirty scratch buffer.
func TestValuesDoNotMaterialise(t *testing.T) {
	g := tinyGraph(t, 3)
	_ = g.TotalStats()
	fc := g.Layer("fc").(*FullyConnected)
	w, b := collect(t, fc, 16)
	for _, name := range g.LayerNames() {
		if loaded(g.Layer(name)) {
			t.Fatalf("layer %q materialised by Stats or ParamChunks", name)
		}
	}
	sameBits(t, "weights", w, fc.Weights().Data)
	sameBits(t, "bias", b, fc.Bias().Data)
}

// TestParsedValuesDoNotMaterialise: ParamChunks decodes a parsed
// layer's binary16 runs into scratch and leaves the layer unread.
func TestParsedValuesDoNotMaterialise(t *testing.T) {
	fc := &FullyConnected{LayerName: "f", InF: 2, OutF: 1}
	// 1.5, -2 and 0.25 in little-endian binary16.
	runs := []byte{0x00, 0x3e, 0x00, 0xc0, 0x00, 0x34}
	fc.Params().DeferFP16(func() []byte { return runs }, 0, 4)
	w, b := collect(t, fc, 2)
	if loaded(fc) {
		t.Fatal("ParamChunks materialised a parsed layer")
	}
	if w[0] != 1.5 || w[1] != -2 || b[0] != 0.25 {
		t.Fatalf("ParamChunks = %v %v, want [1.5 -2] [0.25]", w, b)
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
	if w, b := collect(t, conv, 4); w[0] != 0.5 || b[2] != -4 {
		t.Error("ParamChunks ignores the written tensors")
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
