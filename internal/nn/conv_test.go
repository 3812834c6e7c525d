package nn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestConvOutShape(t *testing.T) {
	src := rng.New(1)
	cases := []struct {
		name         string
		inC, outC, k int
		stride, pad  int
		in           tensor.Shape
		want         tensor.Shape
		wantErr      bool
	}{
		{"googlenet-conv1", 3, 64, 7, 2, 3, tensor.Shape{3, 224, 224}, tensor.Shape{64, 112, 112}, false},
		{"1x1", 64, 128, 1, 1, 0, tensor.Shape{64, 28, 28}, tensor.Shape{128, 28, 28}, false},
		{"3x3-pad", 16, 32, 3, 1, 1, tensor.Shape{16, 8, 8}, tensor.Shape{32, 8, 8}, false},
		{"5x5-pad2", 16, 32, 5, 1, 2, tensor.Shape{16, 14, 14}, tensor.Shape{32, 14, 14}, false},
		{"channel-mismatch", 3, 8, 3, 1, 1, tensor.Shape{4, 8, 8}, nil, true},
		{"too-small", 3, 8, 9, 1, 0, tensor.Shape{3, 4, 4}, nil, true},
		{"bad-rank", 3, 8, 3, 1, 1, tensor.Shape{3, 8}, nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			conv := NewConv(c.name, c.inC, c.outC, c.k, c.stride, c.pad, src)
			got, err := conv.OutShape([]tensor.Shape{c.in})
			if c.wantErr {
				if err == nil {
					t.Fatal("expected error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(c.want) {
				t.Errorf("OutShape = %v, want %v", got, c.want)
			}
		})
	}
}

// TestConvKnownValues checks the convolution arithmetic against a hand
// computation.
func TestConvKnownValues(t *testing.T) {
	conv := NewConv("c", 1, 1, 3, 1, 1, rng.New(0))
	// Kernel = all ones, bias = 0: output is the 3x3 box sum.
	conv.Weights().Fill(1)
	conv.Bias().Fill(0)
	in := tensor.New(1, 1, 3, 3)
	for i := range in.Data {
		in.Data[i] = float32(i + 1) // 1..9
	}
	out := tensor.New(1, 1, 3, 3)
	conv.Forward(out, []*tensor.T{in})
	// Center = sum(1..9) = 45; corner (0,0) = 1+2+4+5 = 12.
	if out.At(0, 0, 1, 1) != 45 {
		t.Errorf("center = %g, want 45", out.At(0, 0, 1, 1))
	}
	if out.At(0, 0, 0, 0) != 12 {
		t.Errorf("corner = %g, want 12", out.At(0, 0, 0, 0))
	}
	if out.At(0, 0, 2, 2) != 5+6+8+9 {
		t.Errorf("br corner = %g, want 28", out.At(0, 0, 2, 2))
	}
}

func TestConvBias(t *testing.T) {
	conv := NewConv("c", 1, 2, 1, 1, 0, rng.New(0))
	conv.Weights().Fill(0)
	conv.Bias().Data[0] = 1.5
	conv.Bias().Data[1] = -2
	in := tensor.New(1, 1, 2, 2)
	out := tensor.New(1, 2, 2, 2)
	conv.Forward(out, []*tensor.T{in})
	if out.At(0, 0, 0, 0) != 1.5 || out.At(0, 1, 1, 1) != -2 {
		t.Error("bias not applied per output channel")
	}
}

func TestConvStride(t *testing.T) {
	conv := NewConv("c", 1, 1, 1, 2, 0, rng.New(0))
	conv.Weights().Fill(1)
	conv.Bias().Fill(0)
	in := tensor.New(1, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out := tensor.New(1, 1, 2, 2)
	conv.Forward(out, []*tensor.T{in})
	want := []float32{0, 2, 8, 10}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %g, want %g", i, out.Data[i], w)
		}
	}
}

// convNaive is a direct convolution reference used to validate the
// im2col+GEMM path.
func convNaive(out *tensor.T, in *tensor.T, c *Conv) {
	n := in.Dim(0)
	h, w := in.Dim(2), in.Dim(3)
	oh, ow := out.Dim(2), out.Dim(3)
	for b := 0; b < n; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					acc := float64(c.Bias().Data[oc])
					for ic := 0; ic < c.InC; ic++ {
						for ky := 0; ky < c.KH; ky++ {
							sy := oy*c.Stride - c.Pad + ky
							if sy < 0 || sy >= h {
								continue
							}
							for kx := 0; kx < c.KW; kx++ {
								sx := ox*c.Stride - c.Pad + kx
								if sx < 0 || sx >= w {
									continue
								}
								acc += float64(c.Weights().At(oc, ic, ky, kx)) *
									float64(in.At(b, ic, sy, sx))
							}
						}
					}
					out.Set(float32(acc), b, oc, oy, ox)
				}
			}
		}
	}
}

func TestConvMatchesNaive(t *testing.T) {
	src := rng.New(7)
	for _, tc := range []struct{ inC, outC, k, stride, pad, hw, batch int }{
		{3, 8, 3, 1, 1, 9, 1},
		{4, 6, 5, 1, 2, 11, 2},
		{2, 4, 7, 2, 3, 16, 1},
		{5, 5, 1, 1, 0, 6, 3},
		{3, 2, 3, 2, 0, 10, 1},
	} {
		conv := NewConv("c", tc.inC, tc.outC, tc.k, tc.stride, tc.pad, src)
		in := tensor.New(tc.batch, tc.inC, tc.hw, tc.hw)
		in.FillNormal(src, 0, 1)
		shape, err := conv.OutShape([]tensor.Shape{{tc.inC, tc.hw, tc.hw}})
		if err != nil {
			t.Fatal(err)
		}
		got := tensor.New(append(tensor.Shape{tc.batch}, shape...)...)
		want := got.Clone()
		conv.Forward(got, []*tensor.T{in})
		convNaive(want, in, conv)
		for i := range got.Data {
			if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
				t.Fatalf("config %+v: element %d: got %g, want %g", tc, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestConvRectKernel(t *testing.T) {
	src := rng.New(9)
	conv := NewConvRect("c", 2, 3, 1, 5, 1, 2, src)
	shape, err := conv.OutShape([]tensor.Shape{{2, 7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	// 1x5 kernel with pad 2: height unchanged only if pad applies both
	// dims — our symmetric pad grows height; oh = 7+4-1+1 = 11.
	if !shape.Equal(tensor.Shape{3, 11, 7}) {
		t.Errorf("rect OutShape = %v", shape)
	}
}

func TestConvStats(t *testing.T) {
	conv := NewConv("c", 64, 192, 3, 1, 1, rng.New(0))
	s := conv.Stats([]tensor.Shape{{64, 28, 28}})
	wantMACs := int64(192*28*28) * int64(64*9)
	if s.MACs != wantMACs {
		t.Errorf("MACs = %d, want %d", s.MACs, wantMACs)
	}
	if s.Params != int64(192*64*9+192) {
		t.Errorf("Params = %d", s.Params)
	}
	if s.InputElems != 64*28*28 || s.OutputElems != 192*28*28 {
		t.Error("elem counts wrong")
	}
	// Invalid input shape reports zero stats rather than panicking.
	if z := conv.Stats([]tensor.Shape{{3, 4}}); z != (Stats{}) {
		t.Error("invalid shape should yield zero stats")
	}
}

func TestConvDeterministicInit(t *testing.T) {
	a := NewConv("same", 3, 8, 3, 1, 1, rng.New(5))
	b := NewConv("same", 3, 8, 3, 1, 1, rng.New(5))
	for i := range a.Weights().Data {
		if a.Weights().Data[i] != b.Weights().Data[i] {
			t.Fatal("same name+seed must give identical weights")
		}
	}
	c := NewConv("other", 3, 8, 3, 1, 1, rng.New(5))
	if a.Weights().Data[0] == c.Weights().Data[0] {
		t.Error("different layer names should give different streams")
	}
}

// Property: convolution is linear — conv(αx) = α·conv(x) when bias=0.
func TestQuickConvLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		conv := NewConv("c", 2, 3, 3, 1, 1, src)
		conv.Bias().Fill(0)
		in := tensor.New(1, 2, 6, 6)
		in.FillNormal(src, 0, 1)
		out1 := tensor.New(1, 3, 6, 6)
		conv.Forward(out1, []*tensor.T{in})
		in2 := in.Clone()
		in2.Scale(3)
		out2 := tensor.New(1, 3, 6, 6)
		conv.Forward(out2, []*tensor.T{in2})
		for i := range out1.Data {
			if math.Abs(float64(out2.Data[i]-3*out1.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: batched forward equals per-sample forwards.
func TestQuickConvBatchConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		conv := NewConv("c", 2, 4, 3, 1, 1, src)
		batch := tensor.New(3, 2, 5, 5)
		batch.FillNormal(src, 0, 1)
		outB := tensor.New(3, 4, 5, 5)
		conv.Forward(outB, []*tensor.T{batch})
		per := 2 * 5 * 5
		outPer := 4 * 5 * 5
		for b := 0; b < 3; b++ {
			one := tensor.FromSlice(batch.Data[b*per:(b+1)*per], 1, 2, 5, 5)
			out1 := tensor.New(1, 4, 5, 5)
			conv.Forward(out1, []*tensor.T{one})
			for i := range out1.Data {
				if out1.Data[i] != outB.Data[b*outPer+i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
