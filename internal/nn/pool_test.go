package nn

import (
	"testing"

	"repro/internal/tensor"
)

func TestMaxPoolBasic(t *testing.T) {
	p := &Pool{LayerName: "p", PoolOp: MaxPool, K: 2, Stride: 2}
	in := tensor.New(1, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	shape, err := p.OutShape([]tensor.Shape{{1, 4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !shape.Equal(tensor.Shape{1, 2, 2}) {
		t.Fatalf("shape = %v", shape)
	}
	out := tensor.New(1, 1, 2, 2)
	p.Forward(out, []*tensor.T{in})
	want := []float32{5, 7, 13, 15}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %g, want %g", i, out.Data[i], w)
		}
	}
}

func TestAvgPoolBasic(t *testing.T) {
	p := &Pool{LayerName: "p", PoolOp: AvgPool, K: 2, Stride: 2}
	in := tensor.New(1, 1, 2, 2)
	in.Data = []float32{1, 2, 3, 4}
	out := tensor.New(1, 1, 1, 1)
	p.Forward(out, []*tensor.T{in})
	if out.Data[0] != 2.5 {
		t.Errorf("avg = %g, want 2.5", out.Data[0])
	}
}

func TestPoolCeilModeShapes(t *testing.T) {
	// GoogLeNet pool1: 112x112, k3 s2 ceil -> 56x56 (floor gives 55).
	ceil := &Pool{LayerName: "p", PoolOp: MaxPool, K: 3, Stride: 2, CeilMode: true}
	floor := &Pool{LayerName: "p", PoolOp: MaxPool, K: 3, Stride: 2}
	in := []tensor.Shape{{64, 112, 112}}
	cs, err := ceil.OutShape(in)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := floor.OutShape(in)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Equal(tensor.Shape{64, 56, 56}) {
		t.Errorf("ceil shape = %v, want (64, 56, 56)", cs)
	}
	if !fs.Equal(tensor.Shape{64, 55, 55}) {
		t.Errorf("floor shape = %v, want (64, 55, 55)", fs)
	}
}

func TestPoolPaddedWindowClipping(t *testing.T) {
	// 3x3 stride-1 pad-1 max pool (the inception pool branch): shape
	// is preserved and edge windows clip to the valid region.
	p := &Pool{LayerName: "p", PoolOp: MaxPool, K: 3, Stride: 1, Pad: 1, CeilMode: true}
	shape, err := p.OutShape([]tensor.Shape{{1, 3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !shape.Equal(tensor.Shape{1, 3, 3}) {
		t.Fatalf("shape = %v, want (1, 3, 3)", shape)
	}
	in := tensor.New(1, 1, 3, 3)
	for i := range in.Data {
		in.Data[i] = float32(i) // max at bottom-right = 8
	}
	out := tensor.New(1, 1, 3, 3)
	p.Forward(out, []*tensor.T{in})
	if out.At(0, 0, 0, 0) != 4 { // window {0,1,3,4}
		t.Errorf("corner = %g, want 4", out.At(0, 0, 0, 0))
	}
	if out.At(0, 0, 2, 2) != 8 {
		t.Errorf("br = %g, want 8", out.At(0, 0, 2, 2))
	}
}

func TestAvgPoolPadDividesByValidArea(t *testing.T) {
	// Caffe average pooling divides by the clipped window area.
	p := &Pool{LayerName: "p", PoolOp: AvgPool, K: 3, Stride: 1, Pad: 1, CeilMode: true}
	in := tensor.New(1, 1, 2, 2)
	in.Data = []float32{4, 4, 4, 4}
	out := tensor.New(1, 1, 2, 2)
	p.Forward(out, []*tensor.T{in})
	for i, v := range out.Data {
		if v != 4 {
			t.Errorf("out[%d] = %g, want 4 (valid-area division)", i, v)
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	p := &Pool{LayerName: "p", PoolOp: AvgPool, Global: true}
	shape, err := p.OutShape([]tensor.Shape{{8, 7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if !shape.Equal(tensor.Shape{8, 1, 1}) {
		t.Fatalf("global shape = %v", shape)
	}
	in := tensor.New(2, 3, 4, 4)
	for c := 0; c < 3; c++ {
		for i := 0; i < 16; i++ {
			in.Data[c*16+i] = float32(c) // batch 0: plane c filled with c
			in.Data[48+c*16+i] = 10      // batch 1: all 10
		}
	}
	out := tensor.New(2, 3, 1, 1)
	p.Forward(out, []*tensor.T{in})
	for c := 0; c < 3; c++ {
		if out.At(0, c, 0, 0) != float32(c) {
			t.Errorf("batch0 chan %d = %g", c, out.At(0, c, 0, 0))
		}
		if out.At(1, c, 0, 0) != 10 {
			t.Errorf("batch1 chan %d = %g", c, out.At(1, c, 0, 0))
		}
	}
}

func TestPoolShapeErrors(t *testing.T) {
	p := &Pool{LayerName: "p", PoolOp: MaxPool, K: 5, Stride: 2}
	if _, err := p.OutShape([]tensor.Shape{{1, 3, 3}}); err == nil {
		t.Error("pool larger than input should error")
	}
	if _, err := p.OutShape([]tensor.Shape{{1, 3}}); err == nil {
		t.Error("non-CHW input should error")
	}
	if _, err := p.OutShape([]tensor.Shape{{1, 8, 8}, {1, 8, 8}}); err == nil {
		t.Error("two inputs should error")
	}
}

func TestPoolKindNames(t *testing.T) {
	if (&Pool{PoolOp: MaxPool}).Kind() != "maxpool" {
		t.Error("max kind")
	}
	if (&Pool{PoolOp: AvgPool}).Kind() != "avgpool" {
		t.Error("avg kind")
	}
}

func TestPoolStats(t *testing.T) {
	p := &Pool{LayerName: "p", PoolOp: MaxPool, K: 3, Stride: 2, CeilMode: true}
	s := p.Stats([]tensor.Shape{{64, 112, 112}})
	if s.MACs != int64(64*56*56*9) {
		t.Errorf("MACs = %d", s.MACs)
	}
	if s.Params != 0 {
		t.Error("pool has no params")
	}
	// A global pool reads every element of its plane once, whatever
	// the aspect ratio.
	g := &Pool{LayerName: "g", PoolOp: AvgPool, Global: true}
	if s := g.Stats([]tensor.Shape{{88, 3, 5}}); s.MACs != 88*3*5 {
		t.Errorf("global 88x3x5 MACs = %d, want %d", s.MACs, 88*3*5)
	}
	if s := g.Stats([]tensor.Shape{{1024, 7, 7}}); s.MACs != 1024*7*7 {
		t.Errorf("global 1024x7x7 MACs = %d, want %d", s.MACs, 1024*7*7)
	}
}

func TestPoolNegativeInputsMax(t *testing.T) {
	// A max window of all-negative values must return the true max,
	// not zero (regression guard for -Inf initialisation).
	p := &Pool{LayerName: "p", PoolOp: MaxPool, K: 2, Stride: 2}
	in := tensor.New(1, 1, 2, 2)
	in.Data = []float32{-5, -3, -9, -4}
	out := tensor.New(1, 1, 1, 1)
	p.Forward(out, []*tensor.T{in})
	if out.Data[0] != -3 {
		t.Errorf("max of negatives = %g, want -3", out.Data[0])
	}
}
