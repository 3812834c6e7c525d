package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gemm"
	"repro/internal/half"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// The layers' fast paths must give the bits of the scalar loops they
// replaced. Those loops live on here as references.

// maxPoolRef is the single-pass max pooling loop: each output scans its
// clipped window in row-major order from −Inf, replacing on >. It
// returns how many windows lay entirely in padding.
func maxPoolRef(p *Pool, out, in *tensor.T) (padded int) {
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh, ow := out.Dim(2), out.Dim(3)
	for b := 0; b < n; b++ {
		for ci := 0; ci < c; ci++ {
			src := in.Data[(b*c+ci)*h*w:]
			dst := out.Data[(b*c+ci)*oh*ow:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					y0, x0 := oy*p.Stride-p.Pad, ox*p.Stride-p.Pad
					cy0, cx0 := max(y0, 0), max(x0, 0)
					cy1, cx1 := min(y0+p.K, h), min(x0+p.K, w)
					best := float32(math.Inf(-1))
					for y := cy0; y < cy1; y++ {
						row := src[y*w:]
						for x := cx0; x < cx1; x++ {
							if row[x] > best {
								best = row[x]
							}
						}
					}
					if cy1 <= cy0 || cx1 <= cx0 {
						best = 0 // window entirely in padding
						padded++
					}
					dst[oy*ow+ox] = best
				}
			}
		}
	}
	return padded
}

// specialValues are the float32s a fast path is most likely to get
// wrong: signed zeros, infinities and NaNs of both signs.
var specialValues = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001),
}

// fillSpecial fills t with normal values, about a quarter of them
// replaced by special ones.
func fillSpecial(t *tensor.T, src *rng.Source) {
	for i := range t.Data {
		if src.Intn(4) == 0 {
			t.Data[i] = specialValues[src.Intn(len(specialValues))]
		} else {
			t.Data[i] = src.NormFloat32()
		}
	}
}

// poison fills t with a NaN payload no layer computes, so an output
// element a layer forgets to write shows up as a bit difference.
func poison(t *tensor.T) {
	for i := range t.Data {
		t.Data[i] = math.Float32frombits(0x7fbadbad)
	}
}

// fillMaxSafe fills t with values maxSafe admits, heavy in ties: +0,
// ±Inf, small integers and normal values.
func fillMaxSafe(t *tensor.T, src *rng.Source) {
	for i := range t.Data {
		switch src.Intn(4) {
		case 0:
			t.Data[i] = []float32{0, float32(math.Inf(1)), float32(math.Inf(-1))}[src.Intn(3)]
		case 1:
			t.Data[i] = float32(src.Intn(5) - 2)
		default:
			t.Data[i] = src.NormFloat32()
		}
	}
}

// TestMaxPoolMatchesScalar: over random geometries (K 1–5, stride
// 1–3, pad < K, images up to 13 wide, floor and Caffe ceil mode with
// its last-window clip, windows lying entirely in padding, stride-1
// rows narrower than the kernel, which have no interior outputs), the
// separable forwardMax gives the scalar loop's bits on maxSafe inputs
// (+0, ±Inf and ties), and Forward gives them on any input, ±0 and
// NaNs included.
func TestMaxPoolMatchesScalar(t *testing.T) {
	src := rng.New(7)
	cases, padded, noInterior := 0, 0, 0
	for k := 1; k <= 5; k++ {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad < k; pad++ {
				for _, ceil := range []bool{false, true} {
					for range 4 {
						p := &Pool{LayerName: "p", PoolOp: MaxPool, K: k, Stride: stride, Pad: pad, CeilMode: ceil}
						c, h, w := 1+src.Intn(3), 1+src.Intn(13), 1+src.Intn(13)
						shape, err := p.OutShape([]tensor.Shape{{c, h, w}})
						if err != nil {
							continue
						}
						n := 1 + src.Intn(2)
						geo := fmt.Sprintf("K%d s%d p%d ceil=%v on %dx%dx%dx%d", k, stride, pad, ceil, n, c, h, w)
						in := tensor.New(n, c, h, w)
						got := tensor.New(append(tensor.Shape{n}, shape...)...)
						want := tensor.New(got.ShapeOf...)

						fillMaxSafe(in, src)
						if !maxSafe(in.Data) {
							t.Fatalf("%s: fillMaxSafe input rejected", geo)
						}
						poison(got)
						p.forwardMax(got, in)
						padded += maxPoolRef(p, want, in)
						sameBits(t, geo+": forwardMax out", got.Data, want.Data)

						fillSpecial(in, src)
						poison(got)
						p.Forward(got, []*tensor.T{in})
						maxPoolRef(p, want, in)
						sameBits(t, geo+": Forward out", got.Data, want.Data)
						cases++
						if stride == 1 && w < k {
							noInterior++
						}
					}
				}
			}
		}
	}
	if cases < 200 || padded == 0 || noInterior == 0 {
		t.Fatalf("sweep ran %d geometries with %d all-padding windows and %d stride-1 rows without interior outputs; want >= 200, > 0 and > 0",
			cases, padded, noInterior)
	}
}

// subnormals are the smallest and largest subnormal float32s of both
// signs.
var subnormals = []float32{
	math.Float32frombits(1), math.Float32frombits(0x007fffff),
	math.Float32frombits(0x80000001), math.Float32frombits(0x807fffff),
}

// atEveryPosition calls check with a slice of every length 0–9, so
// every SSE2 tail length is covered, holding v at each position in
// turn among normal values of both signs. The slice is followed by
// guard values a kernel must not touch.
func atEveryPosition(values []float32, check func(data []float32, v float32)) {
	src := rng.New(17)
	for n := 0; n <= 9; n++ {
		for _, v := range values {
			for pos := range max(n, 1) {
				buf := make([]float32, n+4)
				for i := range buf {
					buf[i] = src.NormFloat32()
				}
				if pos < n {
					buf[pos] = v
				}
				check(buf[:n], v)
			}
		}
	}
}

// reluRef is the branchy ReLU loop: v > 0 ? v : +0.
func reluRef(dst, src []float32) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// TestReLUMatchesScalar: the relu kernel gives the branchy loop's bits
// on every special value and subnormal of both signs, at every position
// of lengths 0–9, and writes nothing past the end of dst.
func TestReLUMatchesScalar(t *testing.T) {
	values := append(append([]float32(nil), specialValues...), subnormals...)
	atEveryPosition(values, func(data []float32, v float32) {
		what := fmt.Sprintf("relu of %#x among %d", math.Float32bits(v), len(data))
		got, want := make([]float32, len(data)+4), make([]float32, len(data)+4)
		poison(&tensor.T{Data: got})
		poison(&tensor.T{Data: want})
		relu(got[:len(data)], data)
		reluRef(want[:len(data)], data)
		sameBits(t, what, got, want)
	})
	// In place, through the layer.
	in := tensor.New(3, 5, 7)
	fillSpecial(in, rng.New(19))
	want := tensor.New(in.ShapeOf...)
	reluRef(want.Data, in.Data)
	(&ReLU{}).Forward(in, []*tensor.T{in})
	sameBits(t, "ReLU.Forward in place", in.Data, want.Data)
}

// TestMaxSafeMatchesScalar: maxSafe rejects a −0 and every NaN payload
// at every position of lengths 0–9, and accepts ±Inf and subnormals
// there, as the one-value-at-a-time scan does.
func TestMaxSafeMatchesScalar(t *testing.T) {
	reject := []float32{float32(math.Copysign(0, -1))}
	for _, bits := range []uint32{0x7fc00000, 0xffc00001, 0x7f800001, 0xff800001, 0x7fffffff, 0xffffffff} {
		reject = append(reject, math.Float32frombits(bits))
	}
	accept := append([]float32{0, float32(math.Inf(1)), float32(math.Inf(-1))}, subnormals...)
	for _, tc := range []struct {
		values []float32
		want   bool
	}{{reject, false}, {accept, true}} {
		atEveryPosition(tc.values, func(data []float32, v float32) {
			want := tc.want || len(data) == 0
			if got, ref := maxSafe(data), maxSafeScalar(data); got != want || ref != want {
				t.Fatalf("%#x among %d values: maxSafe %v, scalar %v, want %v",
					math.Float32bits(v), len(data), got, ref, want)
			}
		})
	}
}

// TestMaxIntoMatchesBuiltin: maxInto gives the builtin max's bits on
// maxSafe values at every position of lengths 0–9, and writes nothing
// past the end of dst.
func TestMaxIntoMatchesBuiltin(t *testing.T) {
	values := append([]float32{0, float32(math.Inf(1)), float32(math.Inf(-1)), 1, -1}, subnormals...)
	src := rng.New(23)
	atEveryPosition(values, func(data []float32, v float32) {
		got := make([]float32, len(data)+4)
		for i := range got {
			got[i] = []float32{0, 1, -1, src.NormFloat32()}[src.Intn(4)]
		}
		want := append([]float32(nil), got...)
		for i, x := range data {
			want[i] = max(want[i], x)
		}
		maxInto(got[:len(data)], data)
		sameBits(t, fmt.Sprintf("maxInto of %#x among %d", math.Float32bits(v), len(data)), got, want)
	})
}

// microLayers returns the layers of micro-GoogLeNet that match keep,
// each with a batch-8 input of its shape.
func microLayers(keep func(Layer) bool) (layers []Layer, ins []*tensor.T) {
	g := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
	src := rng.New(5)
	for _, name := range g.LayerNames() {
		if l := g.Layer(name); keep(l) {
			s, err := g.ShapeOf(g.InputsOf(name)[0])
			if err != nil {
				panic(err)
			}
			in := tensor.New(append(tensor.Shape{8}, s...)...)
			in.FillNormal(src, 0, 1)
			layers, ins = append(layers, l), append(ins, in)
		}
	}
	return layers, ins
}

// benchLayers times each layer's Forward on its input.
func benchLayers(b *testing.B, layers []Layer, ins []*tensor.T) {
	for i, l := range layers {
		s, err := l.OutShape([]tensor.Shape{ins[i].ShapeOf[1:]})
		if err != nil {
			b.Fatal(err)
		}
		out := tensor.New(append(tensor.Shape{8}, s...)...)
		b.Run(fmt.Sprintf("%s/%v", l.Name(), ins[i].ShapeOf[1:]), func(b *testing.B) {
			b.SetBytes(int64(4 * len(ins[i].Data)))
			for b.Loop() {
				l.Forward(out, ins[i:i+1])
			}
		})
	}
}

// BenchmarkMaxPoolMicroShapes times Forward on every micro-GoogLeNet
// max pool at batch 8, on ReLU outputs (maxSafe), scan included.
func BenchmarkMaxPoolMicroShapes(b *testing.B) {
	layers, ins := microLayers(func(l Layer) bool { p, ok := l.(*Pool); return ok && p.PoolOp == MaxPool })
	for _, in := range ins {
		relu(in.Data, in.Data)
	}
	benchLayers(b, layers, ins)
}

// BenchmarkReLU times Forward on every micro-GoogLeNet ReLU at batch 8.
func BenchmarkReLU(b *testing.B) {
	layers, ins := microLayers(func(l Layer) bool { _, ok := l.(*ReLU); return ok })
	benchLayers(b, layers, ins)
}

// im2colRef is the per-element im2col loop: every output element
// tests its source row and column against the image bounds.
func im2colRef(col, src []float32, cIn, h, w, kh, kw, stride, pad, oh, ow int) {
	row := 0
	for ci := 0; ci < cIn; ci++ {
		plane := src[ci*h*w:]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				dst := col[row*oh*ow:]
				i := 0
				for oy := 0; oy < oh; oy++ {
					sy := oy*stride - pad + ky
					if sy < 0 || sy >= h {
						for ox := 0; ox < ow; ox++ {
							dst[i] = 0
							i++
						}
						continue
					}
					srow := plane[sy*w:]
					for ox := 0; ox < ow; ox++ {
						sx := ox*stride - pad + kx
						if sx < 0 || sx >= w {
							dst[i] = 0
						} else {
							dst[i] = srow[sx]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// TestIm2colMatchesScalar: over K 1–5, every pad 0–K, strides 1–3 and
// odd image sizes (images narrower and shorter than the kernel
// included), im2col gives the per-element loop's bits on inputs holding
// −0 and NaN payloads, and writes every element of the patch matrix.
func TestIm2colMatchesScalar(t *testing.T) {
	src := rng.New(13)
	cases, narrow := 0, 0
	for k := 1; k <= 5; k++ {
		for pad := 0; pad <= k; pad++ {
			for stride := 1; stride <= 3; stride++ {
				for _, hw := range [][2]int{{1, 1}, {1, 3}, {3, 1}, {5, 7}, {9, 3}, {k - 1, k + 2}, {11, 13}} {
					h, w := hw[0], hw[1]
					if h < 1 || h+2*pad < k || w+2*pad < k {
						continue // the kernel does not fit the padded image
					}
					c := &Conv{InC: 2, KH: k, KW: k, Stride: stride, Pad: pad}
					oh, ow := c.outHW(h, w)
					in := tensor.New(1, c.InC, h, w)
					fillSpecial(in, src)
					got := tensor.New(c.InC*k*k, oh*ow)
					want := tensor.New(got.ShapeOf...)
					poison(got)
					im2col(got.Data, in.Data, c.InC, h, w, k, k, stride, pad, oh, ow)
					im2colRef(want.Data, in.Data, c.InC, h, w, k, k, stride, pad, oh, ow)
					sameBits(t, fmt.Sprintf("K%d s%d p%d on %dx%d", k, stride, pad, h, w), got.Data, want.Data)
					cases++
					if w < k {
						narrow++
					}
				}
			}
		}
	}
	if cases < 200 || narrow == 0 {
		t.Fatalf("swept %d geometries, %d narrower than the kernel; want >= 200 and > 0", cases, narrow)
	}
}

// convIm2colRef is the convolution through im2col for every kernel, in
// both the fp32 GEMM and the binary16-accumulate form.
func convIm2colRef(c *Conv, out, in *tensor.T, strict bool) {
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := c.outHW(h, w)
	k, spatial := c.InC*c.KH*c.KW, oh*ow
	col := make([]float32, k*spatial)
	wt, bt := tensorsOf(c)
	for b := 0; b < n; b++ {
		im2colRef(col, in.Data[b*c.InC*h*w:(b+1)*c.InC*h*w], c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, oh, ow)
		dst := out.Data[b*c.OutC*spatial : (b+1)*c.OutC*spatial]
		if !strict {
			gemm.Mul(dst, wt.Data, col, c.OutC, k, spatial)
			for oc := 0; oc < c.OutC; oc++ {
				for i := range dst[oc*spatial : (oc+1)*spatial] {
					dst[oc*spatial+i] += bt.Data[oc]
				}
			}
			continue
		}
		patch := make([]float32, k)
		for s := 0; s < spatial; s++ {
			for i := range patch {
				patch[i] = col[i*spatial+s]
			}
			for oc := 0; oc < c.OutC; oc++ {
				acc := accumulateFP16(half.FromFloat32(bt.Data[oc]), wt.Data[oc*k:(oc+1)*k], patch)
				dst[oc*spatial+s] = acc.Float32()
			}
		}
	}
}

// TestPointwiseConvMatchesIm2col: a 1×1 stride-1 unpadded convolution,
// which multiplies the input planes directly, gives the im2col path's
// bits in fp32 and FP16-strict, special values included.
func TestPointwiseConvMatchesIm2col(t *testing.T) {
	src := rng.New(11)
	for _, geo := range []struct{ inC, outC, h, w, n int }{
		{1, 1, 1, 1, 1}, {3, 5, 4, 7, 2}, {16, 24, 8, 8, 3}, {40, 12, 5, 3, 1}, {9, 70, 13, 11, 2},
	} {
		c := NewConv("pw", geo.inC, geo.outC, 1, 1, 0, src)
		if !c.pointwise() {
			t.Fatal("1x1 stride-1 pad-0 conv not taken as pointwise")
		}
		wt, _ := tensorsOf(c)
		wt.QuantizeFP16() // the strict path assumes fp16-exact operands
		in := tensor.New(geo.n, geo.inC, geo.h, geo.w)
		fillSpecial(in, src)
		for _, strict := range []bool{false, true} {
			if strict {
				in.QuantizeFP16()
			}
			got := tensor.New(geo.n, geo.outC, geo.h, geo.w)
			want := tensor.New(got.ShapeOf...)
			poison(got)
			if strict {
				c.ForwardFP16Strict(got, []*tensor.T{in})
			} else {
				c.Forward(got, []*tensor.T{in})
			}
			convIm2colRef(c, want, in, strict)
			sameBits(t, fmt.Sprintf("%+v strict=%v: out", geo, strict), got.Data, want.Data)
		}
	}
	for _, c := range []*Conv{
		NewConv("k3", 2, 2, 3, 1, 1, src), NewConv("s2", 2, 2, 1, 2, 0, src), NewConv("p1", 2, 2, 1, 1, 1, src),
		NewConvRect("1x3", 2, 2, 1, 3, 1, 0, src),
	} {
		if c.pointwise() {
			t.Errorf("%s (%dx%d stride %d pad %d) taken as pointwise", c.LayerName, c.KH, c.KW, c.Stride, c.Pad)
		}
	}
}

// TestLRNPowMatchesMathPow: the square-root form of x^0.75 rounds to
// math.Pow's float32 over a strided sweep of every non-negative float32
// bit pattern (zeros, subnormals and +Inf included), and every other
// input — negative, NaN, −Inf, or another Beta — takes math.Pow.
func TestLRNPowMatchesMathPow(t *testing.T) {
	check := func(l *LRN, x float32) {
		t.Helper()
		got, want := l.pow(x), float32(math.Pow(float64(x), float64(l.Beta)))
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("beta %g, x %g (%#x): pow %g (%#x), math.Pow %g (%#x)", l.Beta, x, math.Float32bits(x),
				got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	l := NewLRN("n")
	const posInf = 0x7f800000
	for bits := uint32(0); bits < posInf; bits += 977 {
		check(l, math.Float32frombits(bits))
	}
	for _, bits := range []uint32{0, 1, 0x007fffff, 0x00800000, 0x3f800000, 0x7f7fffff, posInf} {
		check(l, math.Float32frombits(bits))
	}
	// Negative values, −Inf and NaNs must reach math.Pow.
	for bits := uint32(0x80000000); bits <= 0xff800000; bits += 1_000_003 {
		check(l, math.Float32frombits(bits))
	}
	for _, x := range specialValues {
		check(l, x)
	}
	for _, beta := range []float32{0.5, 0.74999994, 1} {
		other := &LRN{Beta: beta}
		for _, x := range []float32{0, 0.3, 1, 2.5, 1e30, float32(math.Inf(1))} {
			check(other, x)
		}
	}
}
