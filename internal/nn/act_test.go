package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestReLU(t *testing.T) {
	r := &ReLU{LayerName: "r"}
	in := tensor.FromSlice([]float32{-1, 0, 2.5, -0.001}, 1, 4)
	out := tensor.New(1, 4)
	r.Forward(out, []*tensor.T{in})
	want := []float32{0, 0, 2.5, 0}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %g, want %g", i, out.Data[i], w)
		}
	}
	shape, err := r.OutShape([]tensor.Shape{{3, 4, 5}})
	if err != nil || !shape.Equal(tensor.Shape{3, 4, 5}) {
		t.Errorf("OutShape = %v, %v", shape, err)
	}
	if _, err := r.OutShape(nil); err == nil {
		t.Error("no inputs should error")
	}
}

func TestLRNKnownValue(t *testing.T) {
	// Single channel, single pixel: b = a / (1 + (alpha/5)·a²)^0.75.
	l := NewLRN("n")
	in := tensor.New(1, 1, 1, 1)
	in.Data[0] = 100
	out := tensor.New(1, 1, 1, 1)
	l.Forward(out, []*tensor.T{in})
	den := math.Pow(1+1e-4/5*100*100, 0.75)
	want := 100 / den
	if math.Abs(float64(out.Data[0])-want) > 1e-4 {
		t.Errorf("LRN = %g, want %g", out.Data[0], want)
	}
}

func TestLRNWindowClipping(t *testing.T) {
	// 3 channels, window 5: every channel sees all three (clipped).
	l := NewLRN("n")
	in := tensor.New(1, 3, 1, 1)
	in.Data = []float32{1, 2, 3}
	out := tensor.New(1, 3, 1, 1)
	l.Forward(out, []*tensor.T{in})
	ss := 1.0 + 4.0 + 9.0
	den := math.Pow(1+1e-4/5*ss, 0.75)
	for c, a := range []float64{1, 2, 3} {
		want := a / den
		if math.Abs(float64(out.Data[c])-want) > 1e-5 {
			t.Errorf("chan %d = %g, want %g", c, out.Data[c], want)
		}
	}
}

func TestLRNPreservesSignAndShrinks(t *testing.T) {
	l := NewLRN("n")
	in := tensor.New(1, 8, 2, 2)
	in.FillNormal(rng.New(4), 0, 50)
	out := tensor.New(1, 8, 2, 2)
	l.Forward(out, []*tensor.T{in})
	for i := range in.Data {
		if in.Data[i] == 0 {
			continue
		}
		if (in.Data[i] > 0) != (out.Data[i] > 0) {
			t.Fatal("LRN changed a sign")
		}
		if math.Abs(float64(out.Data[i])) > math.Abs(float64(in.Data[i]))+1e-6 {
			t.Fatal("LRN response larger than input (denominator >= 1)")
		}
	}
}

func TestDropoutIsIdentityAtInference(t *testing.T) {
	d := &Dropout{LayerName: "d", Ratio: 0.4}
	in := tensor.New(2, 5)
	in.FillNormal(rng.New(1), 0, 1)
	out := tensor.New(2, 5)
	d.Forward(out, []*tensor.T{in})
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatal("dropout must be identity at inference")
		}
	}
	if d.Kind() != "dropout" {
		t.Error("kind")
	}
}

func TestSoftmaxDistribution(t *testing.T) {
	s := &Softmax{LayerName: "s"}
	in := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	out := tensor.New(1, 4)
	s.Forward(out, []*tensor.T{in})
	var sum float32
	for i, v := range out.Data {
		if v <= 0 || v >= 1 {
			t.Errorf("prob[%d] = %g out of (0,1)", i, v)
		}
		sum += v
		if i > 0 && out.Data[i] <= out.Data[i-1] {
			t.Error("softmax must be monotone in logits")
		}
	}
	if math.Abs(float64(sum)-1) > 1e-5 {
		t.Errorf("probabilities sum to %g", sum)
	}
}

func TestSoftmaxLargeLogitsStable(t *testing.T) {
	// Without max subtraction exp(500) overflows float32.
	s := &Softmax{LayerName: "s"}
	in := tensor.FromSlice([]float32{500, 499, 0}, 1, 3)
	out := tensor.New(1, 3)
	s.Forward(out, []*tensor.T{in})
	for _, v := range out.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed")
		}
	}
	if out.Data[0] <= out.Data[1] {
		t.Error("ordering lost")
	}
}

func TestSoftmaxPerBatchRow(t *testing.T) {
	s := &Softmax{LayerName: "s"}
	in := tensor.FromSlice([]float32{0, 0, 10, 0}, 2, 2)
	out := tensor.New(2, 2)
	s.Forward(out, []*tensor.T{in})
	if math.Abs(float64(out.Data[0])-0.5) > 1e-6 {
		t.Errorf("row0 uniform expected, got %g", out.Data[0])
	}
	if out.Data[2] < 0.99 {
		t.Errorf("row1 should be confident, got %g", out.Data[2])
	}
}

func TestConcat(t *testing.T) {
	c := &Concat{LayerName: "c"}
	shape, err := c.OutShape([]tensor.Shape{{2, 3, 3}, {5, 3, 3}, {1, 3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !shape.Equal(tensor.Shape{8, 3, 3}) {
		t.Fatalf("shape = %v", shape)
	}
	a := tensor.New(1, 1, 2, 2)
	a.Fill(1)
	b := tensor.New(1, 2, 2, 2)
	b.Fill(2)
	out := tensor.New(1, 3, 2, 2)
	c.Forward(out, []*tensor.T{a, b})
	for i := 0; i < 4; i++ {
		if out.Data[i] != 1 {
			t.Error("first channel block wrong")
		}
	}
	for i := 4; i < 12; i++ {
		if out.Data[i] != 2 {
			t.Error("second channel block wrong")
		}
	}
}

func TestConcatBatched(t *testing.T) {
	c := &Concat{LayerName: "c"}
	a := tensor.New(2, 1, 1, 1)
	a.Data = []float32{10, 20}
	b := tensor.New(2, 1, 1, 1)
	b.Data = []float32{30, 40}
	out := tensor.New(2, 2, 1, 1)
	c.Forward(out, []*tensor.T{a, b})
	want := []float32{10, 30, 20, 40}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("out = %v, want %v", out.Data, want)
		}
	}
}

func TestConcatErrors(t *testing.T) {
	c := &Concat{LayerName: "c"}
	if _, err := c.OutShape([]tensor.Shape{{2, 3, 3}}); err == nil {
		t.Error("single input should error")
	}
	if _, err := c.OutShape([]tensor.Shape{{2, 3, 3}, {2, 4, 4}}); err == nil {
		t.Error("spatial mismatch should error")
	}
}

func TestFullyConnectedKnown(t *testing.T) {
	fc := NewFullyConnected("fc", 3, 2, rng.New(0))
	copy(fc.Weights().Data, []float32{1, 0, 0, 0, 1, 1})
	fc.Bias().Data = []float32{0.5, -1}
	in := tensor.FromSlice([]float32{2, 3, 4}, 1, 3)
	out := tensor.New(1, 2)
	fc.Forward(out, []*tensor.T{in})
	if out.Data[0] != 2.5 || out.Data[1] != 6 {
		t.Errorf("fc out = %v, want [2.5 6]", out.Data)
	}
}

func TestFullyConnectedAcceptsCHWInput(t *testing.T) {
	fc := NewFullyConnected("fc", 12, 4, rng.New(1))
	shape, err := fc.OutShape([]tensor.Shape{{3, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !shape.Equal(tensor.Shape{4}) {
		t.Errorf("shape = %v", shape)
	}
	if _, err := fc.OutShape([]tensor.Shape{{5, 2, 2}}); err == nil {
		t.Error("elem mismatch should error")
	}
}

func TestLayerStatsElementwise(t *testing.T) {
	in := []tensor.Shape{{4, 8, 8}}
	e := int64(4 * 8 * 8)
	if s := (&ReLU{LayerName: "r"}).Stats(in); s.MACs != e || s.OutputElems != e {
		t.Error("relu stats")
	}
	if s := NewLRN("l").Stats(in); s.MACs != e*9 {
		t.Errorf("lrn stats = %d", s.MACs)
	}
	if s := (&Dropout{LayerName: "d"}).Stats(in); s.MACs != 0 {
		t.Error("dropout stats")
	}
	if s := (&Softmax{LayerName: "s"}).Stats([]tensor.Shape{{10}}); s.MACs != 80 {
		t.Error("softmax stats")
	}
	if s := (&Concat{LayerName: "c"}).Stats([]tensor.Shape{{2, 2, 2}, {3, 2, 2}}); s.OutputElems != 20 {
		t.Error("concat stats")
	}
	fc := NewFullyConnected("fc", 1024, 1000, rng.New(0))
	if s := fc.Stats([]tensor.Shape{{1024}}); s.MACs != 1024000 || s.Params != 1024*1000+1000 {
		t.Error("fc stats")
	}
}
