package nn

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// microBatch returns n micro-GoogLeNet input images in one tensor.
func microBatch(n int, seed uint64) *tensor.T {
	in := tensor.New(n, 3, 32, 32)
	in.FillNormal(rng.New(seed), 0, 64)
	return in
}

// TestForwardBatchIndependent: an n-image Forward equals n batch-1
// Forwards bit for bit in every precision, with the batch split over
// more workers than the host may have cores (run under -race too).
func TestForwardBatchIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	ns := []int{1, 3, 8, 13}
	in := microBatch(ns[len(ns)-1], 5)
	per := in.Elems() / in.Dim(0)
	for _, prec := range []Precision{FP32, FP16, FP16Strict} {
		g := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
		if prec != FP32 {
			g.QuantizeWeightsFP16()
		}
		alone := make([]*tensor.T, in.Dim(0))
		for i := range alone {
			out, err := g.Forward(tensor.FromSlice(in.Data[i*per:(i+1)*per], 1, 3, 32, 32), prec)
			if err != nil {
				t.Fatal(err)
			}
			alone[i] = out
		}
		for _, n := range ns {
			out, err := g.Forward(tensor.FromSlice(in.Data[:n*per], n, 3, 32, 32), prec)
			if err != nil {
				t.Fatal(err)
			}
			if want := (tensor.Shape{n, 100}); !out.ShapeOf.Equal(want) {
				t.Fatalf("%v n=%d: shape %v, want %v", prec, n, out.ShapeOf, want)
			}
			classes := out.Dim(1)
			for i := 0; i < n; i++ {
				for j, v := range out.Data[i*classes : (i+1)*classes] {
					if w := alone[i].Data[j]; math.Float32bits(v) != math.Float32bits(w) {
						t.Fatalf("%v n=%d image %d class %d: %g batched, %g alone", prec, n, i, j, v, w)
					}
				}
			}
		}
	}
}

// panicLayer is an identity layer that panics on any image whose first
// value is negative.
type panicLayer struct{}

func (panicLayer) Name() string { return "panic" }
func (panicLayer) Kind() string { return "panic" }
func (panicLayer) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	return in[0].Clone(), nil
}
func (panicLayer) Stats([]tensor.Shape) Stats { return Stats{} }
func (panicLayer) Forward(out *tensor.T, ins []*tensor.T) {
	per := ins[0].Elems() / ins[0].Dim(0)
	for i := 0; i < ins[0].Dim(0); i++ {
		if ins[0].Data[i*per] < 0 {
			panic(fmt.Sprintf("negative image %d", i))
		}
	}
	copy(out.Data, ins[0].Data)
}

// TestForwardInvalidInput: bad inputs fail the same way at any batch
// size and worker count: a shape mismatch or an empty batch panics in
// the caller, a graph without layers returns an error, and a layer's
// panic on a worker reaches the caller.
func TestForwardInvalidInput(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q, want it to contain %q", name, msg, want)
			}
		}()
		f()
	}
	g := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
	mustPanic("rank", "does not carry batch", func() { g.Forward(tensor.New(3, 32, 32), FP32) })
	mustPanic("dims", "does not match batched shape", func() { g.Forward(tensor.New(4, 3, 32, 31), FP32) })
	empty := &tensor.T{ShapeOf: tensor.Shape{0, 3, 32, 32}}
	mustPanic("empty batch", "invalid shape (0, 16, 32, 32)", func() { g.Forward(empty, FP32) })

	for _, n := range []int{1, 3} {
		if _, err := NewGraph("none", tensor.Shape{1, 2, 2}).Forward(tensor.New(n, 1, 2, 2), FP32); err == nil ||
			!strings.Contains(err.Error(), "has no output") {
			t.Errorf("layerless graph, n=%d: err = %v", n, err)
		}
	}

	p := NewGraph("p", tensor.Shape{1, 2, 2})
	p.MustAdd(panicLayer{}, InputName)
	in := tensor.New(3, 1, 2, 2)
	in.Data[0] = -1 // image 0: the first sub-batch runs on a worker
	mustPanic("worker", "negative image 0", func() { p.Forward(in, FP32) })
}

// BenchmarkForwardMicroB8 times one FP32 micro-GoogLeNet forward at
// batch 8, the CPU target's batch in the functional experiments. Run
// with -benchmem.
func BenchmarkForwardMicroB8(b *testing.B) {
	g := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
	in := microBatch(8, 5)
	if _, err := g.Forward(in, FP32); err != nil { // fill the weights
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := g.Forward(in, FP32); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLayersOverwriteOut enforces the Layer.Forward contract that
// pooled activations rely on: out is fully overwritten. Every layer of
// micro-GoogLeNet, which holds every operator kind, writes the same
// bits into a poisoned out as into a zeroed one, in each of its paths.
func TestLayersOverwriteOut(t *testing.T) {
	g := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
	g.QuantizeWeightsFP16()
	src := rng.New(3)
	kinds := map[string]bool{}
	for _, name := range g.LayerNames() {
		var ins []*tensor.T
		for _, in := range g.InputsOf(name) {
			s, err := g.ShapeOf(in)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(append(tensor.Shape{2}, s...)...)
			x.FillNormal(src, 0, 1)
			x.QuantizeFP16()
			ins = append(ins, x)
		}
		s, _ := g.ShapeOf(name)
		l := g.Layer(name)
		kinds[l.Kind()] = true
		paths := map[string]func(out *tensor.T){"Forward": func(out *tensor.T) { l.Forward(out, ins) }}
		if sl, ok := l.(strictLayer); ok {
			paths["ForwardFP16Strict"] = func(out *tensor.T) { sl.ForwardFP16Strict(out, ins) }
		}
		for path, run := range paths {
			clean := tensor.New(append(tensor.Shape{2}, s...)...)
			dirty := tensor.New(clean.ShapeOf...)
			poison(dirty)
			run(clean)
			run(dirty)
			sameBits(t, name+" "+path+" out", dirty.Data, clean.Data)
		}
	}
	if len(kinds) < 9 {
		t.Errorf("micro-GoogLeNet covers %d layer kinds, want all 9", len(kinds))
	}
}

// TestForwardReuseMatchesFresh: forwarding one batch and then another
// on the same graph gives the second batch the bits a freshly built
// graph gives it, so no layer reads what an earlier forward left in a
// reused activation buffer. The batches grow and shrink, and switch
// precision, between the two calls.
func TestForwardReuseMatchesFresh(t *testing.T) {
	build := func() *Graph {
		g := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
		g.QuantizeWeightsFP16()
		return g
	}
	for _, tc := range []struct {
		na, nb       int
		pa, pb       Precision
		seedA, seedB uint64
	}{
		{8, 5, FP32, FP32, 1, 2},
		{3, 8, FP16, FP16, 3, 4},
		{5, 2, FP16Strict, FP16, 5, 6},
		{2, 3, FP32, FP16Strict, 7, 8},
	} {
		g := build()
		if _, err := g.Forward(goldenBatch(tc.na, tc.seedA), tc.pa); err != nil {
			t.Fatal(err)
		}
		b := goldenBatch(tc.nb, tc.seedB)
		got, err := g.Forward(b, tc.pb)
		if err != nil {
			t.Fatal(err)
		}
		want, err := build().Forward(b, tc.pb)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("%+v: second output", tc), got.Data, want.Data)
	}
}

// TestForwardConcurrent: goroutines sharing one graph, the first of
// them building its plan, forward mixed batch sizes and precisions at
// once, and each output equals a serial run's bits. Run it under
// -race.
func TestForwardConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	build := func() *Graph {
		g := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
		g.QuantizeWeightsFP16()
		return g
	}
	type job struct {
		n    int
		prec Precision
	}
	jobs := []job{{8, FP32}, {1, FP16}, {5, FP32}, {2, FP16Strict}, {3, FP16}, {4, FP32}}
	serial := build()
	want := make([]*tensor.T, len(jobs))
	for i, j := range jobs {
		out, err := serial.Forward(goldenBatch(j.n, uint64(i)), j.prec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	g := build()
	const rounds = 2
	got := make([][]*tensor.T, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		got[i] = make([]*tensor.T, rounds)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				out, err := g.Forward(goldenBatch(j.n, uint64(i)), j.prec)
				if err != nil {
					t.Error(err)
					return
				}
				got[i][r] = out
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		for r, out := range got[i] {
			if out == nil {
				t.Fatalf("job %d round %d produced no output", i, r)
			}
			sameBits(t, fmt.Sprintf("%v batch %d round %d", j.prec, j.n, r), out.Data, want[i].Data)
		}
	}
}

// TestForwardAllocs: a warm FP32 forward at batch 8 allocates well
// under one activation's worth: intermediate activations come from the
// graph's pooled buffers, and only the returned tensor and the worker
// bookkeeping are new.
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const calls, limit = 20, 256 << 10
	g := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
	in := goldenBatch(8, 5)
	for range 3 { // fill the weights and the pools
		if _, err := g.Forward(in, FP32); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		if _, err := g.Forward(in, FP32); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= limit {
		t.Errorf("warm batch-8 Forward allocates %d bytes per call, want < %d", per, limit)
	}
}

// TestClassify: Classify's predictions equal the ArgMax of each image's
// batch-1 Forward, for every pass, across a partial last batch; an
// input of the wrong size is an error.
func TestClassify(t *testing.T) {
	const n = ClassifyBatch + 5
	in := microBatch(n, 9)
	per := in.Elems() / n
	net32 := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
	net16 := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
	net16.QuantizeWeightsFP16()
	passes := []Pass{{net32, FP32}, {net16, FP16}}
	image := func(i int) *tensor.T { return tensor.FromSlice(in.Data[i*per:(i+1)*per], 3, 32, 32) }
	preds, err := Classify(n, image, passes...)
	if err != nil {
		t.Fatal(err)
	}
	for k, ps := range passes {
		if len(preds[k]) != n {
			t.Fatalf("%v: %d predictions, want %d", ps.Prec, len(preds[k]), n)
		}
		for i := range n {
			out, err := ps.Net.Forward(image(i).Reshape(1, 3, 32, 32), ps.Prec)
			if err != nil {
				t.Fatal(err)
			}
			class, conf := out.ArgMax()
			if got := preds[k][i]; got.Class != class || math.Float32bits(got.Conf) != math.Float32bits(conf) {
				t.Errorf("%v image %d: %+v, want {%d %g}", ps.Prec, i, got, class, conf)
			}
		}
	}
	short := func(int) *tensor.T { return tensor.New(3, 32, 31) }
	if _, err := Classify(2, short, passes[0]); err == nil || !strings.Contains(err.Error(), "want 3072") {
		t.Errorf("short input: err = %v, want a size error", err)
	}
}
