package nn

import (
	"fmt"
	"math"
	"runtime"
	"strings"
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
