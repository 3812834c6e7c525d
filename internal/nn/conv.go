package nn

import (
	"sync"

	"repro/internal/gemm"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Conv is a 2-D convolution with square or rectangular kernels,
// symmetric padding and stride, implemented as im2col + GEMM — the
// same lowering Caffe and the NCSDK graph compiler use, so the
// MAC/byte counts the cost models consume correspond to the real
// execution strategy.
type Conv struct {
	LayerName string
	InC, OutC int
	KH, KW    int
	Stride    int
	Pad       int
	params    Params // weights (OutC, InC, KH, KW) and bias (OutC)
}

// NewConv constructs a convolution layer with MSRA-initialized weights
// drawn from a sub-stream of src derived from the layer name, so
// adding layers never perturbs the weights of existing ones.
func NewConv(name string, inC, outC, k, stride, pad int, src *rng.Source) *Conv {
	return NewConvRect(name, inC, outC, k, k, stride, pad, src)
}

// NewConvRect is NewConv with a rectangular kernel.
func NewConvRect(name string, inC, outC, kh, kw, stride, pad int, src *rng.Source) *Conv {
	c := &Conv{
		LayerName: name,
		InC:       inC, OutC: outC,
		KH: kh, KW: kw,
		Stride: stride, Pad: pad,
	}
	// Small positive bias keeps a healthy fraction of ReLUs active in
	// the randomly initialized full-size network.
	c.params.src = seed(src, "conv/"+name, msra(inC*kh*kw), normal(0.01, 0.005))
	return c
}

// Weights returns the (OutC, InC, KH, KW) weight tensor, filling it on
// first read.
//
//ncsw:allow unusedexport graphfile's TestParsedWeightsAreFP16Rounded compares parsed and built weights through it
func (c *Conv) Weights() *tensor.T { w, _ := tensorsOf(c); return w }

// Bias returns the (OutC) bias tensor, filling it on first read.
//
//ncsw:allow unusedexport graphfile's TestHandleParseDefersPayload reads a parsed bias through it
func (c *Conv) Bias() *tensor.T { _, b := tensorsOf(c); return b }

// Params exposes the layer's parameter source to the graph-file parser.
func (c *Conv) Params() *Params { return &c.params }

func (c *Conv) paramShapes() (w, b tensor.Shape) {
	return tensor.Shape{c.OutC, c.InC, c.KH, c.KW}, tensor.Shape{c.OutC}
}

// Name implements Layer.
func (c *Conv) Name() string { return c.LayerName }

// Kind implements Layer.
func (c *Conv) Kind() string { return "conv" }

// outHW computes the spatial output dimensions.
func (c *Conv) outHW(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	return oh, ow
}

// OutShape implements Layer.
func (c *Conv) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(c.LayerName, in, 1); err != nil {
		return nil, err
	}
	ic, h, w, err := chw(c.LayerName, in[0])
	if err != nil {
		return nil, err
	}
	if ic != c.InC {
		return nil, shapeError(c.LayerName, "input channels %d, layer expects %d", ic, c.InC)
	}
	oh, ow := c.outHW(h, w)
	if oh <= 0 || ow <= 0 {
		return nil, shapeError(c.LayerName, "kernel %dx%d stride %d pad %d does not fit input %dx%d",
			c.KH, c.KW, c.Stride, c.Pad, h, w)
	}
	return tensor.Shape{c.OutC, oh, ow}, nil
}

// colBuffers recycles layer scratch (im2col patch matrices, max-pool
// row maxima) across forward calls; convolution dominates runtime and
// the buffers are large (conv2 of GoogLeNet needs 64·9·56·56 floats ≈
// 7 MB).
var colBuffers = sync.Pool{New: func() any { return new([]float32) }}

// scratch takes a buffer of n floats from colBuffers; return it with
// colBuffers.Put.
func scratch(n int) *[]float32 {
	bufp := colBuffers.Get().(*[]float32)
	if cap(*bufp) < n {
		*bufp = make([]float32, n)
	}
	*bufp = (*bufp)[:n]
	return bufp
}

// pointwise reports whether the kernel is 1×1 at stride 1 without
// padding: then an image's im2col matrix is the image itself.
func (c *Conv) pointwise() bool {
	return c.KH == 1 && c.KW == 1 && c.Stride == 1 && c.Pad == 0
}

// patches returns the (InC·KH·KW) × (OH·OW) patch matrix of the CHW
// image src: src itself for a pointwise kernel, else col filled by
// im2col.
func (c *Conv) patches(col, src []float32, h, w, oh, ow int) []float32 {
	if c.pointwise() {
		return src
	}
	im2col(col, src, c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, oh, ow)
	return col
}

// colBuffer takes scratch for one image's patch matrix from colBuffers
// (nil for a pointwise kernel, which needs none).
func (c *Conv) colBuffer(n int) *[]float32 {
	if c.pointwise() {
		return nil
	}
	return scratch(n)
}

// Forward implements Layer.
func (c *Conv) Forward(out *tensor.T, ins []*tensor.T) {
	in := ins[0]
	h, w := in.Dim(2), in.Dim(3)
	n := in.Dim(0)
	oh, ow := c.outHW(h, w)
	k := c.InC * c.KH * c.KW
	spatial := oh * ow

	var col []float32
	if bufp := c.colBuffer(k * spatial); bufp != nil {
		defer colBuffers.Put(bufp)
		col = *bufp
	}

	wt, bt := tensorsOf(c)
	wmat := wt.Data // (OutC) x (k), already contiguous
	for b := 0; b < n; b++ {
		src := in.Data[b*c.InC*h*w : (b+1)*c.InC*h*w]
		dst := out.Data[b*c.OutC*spatial : (b+1)*c.OutC*spatial]
		gemm.Mul(dst, wmat, c.patches(col, src, h, w, oh, ow), c.OutC, k, spatial)
		for oc := 0; oc < c.OutC; oc++ {
			bias := bt.Data[oc]
			row := dst[oc*spatial : (oc+1)*spatial]
			for i := range row {
				row[i] += bias
			}
		}
	}
}

// im2col lowers one CHW image into the (C*KH*KW) x (OH*OW) patch
// matrix with zero padding. For a kernel offset (ky, kx), output column
// ox reads source column ox·stride−pad+kx, which is inside the image
// for one run of ox, [x0, x1), the same on every output row. A row
// clears the padding either side of the run and fills the run with one
// copy of the source row at stride 1, element by element otherwise.
func im2col(col, src []float32, cIn, h, w, kh, kw, stride, pad, oh, ow int) {
	row := 0
	for ci := 0; ci < cIn; ci++ {
		plane := src[ci*h*w : (ci+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				x0 := min(ceilDiv(max(pad-kx, 0), stride), ow)
				x1 := max(min(ceilDiv(max(w+pad-kx, 0), stride), ow), x0)
				dst := col[row*oh*ow : (row+1)*oh*ow]
				for oy := 0; oy < oh; oy++ {
					d := dst[oy*ow : (oy+1)*ow]
					sy := oy*stride - pad + ky
					if sy < 0 || sy >= h || x0 == x1 {
						clear(d)
						continue
					}
					clear(d[:x0])
					clear(d[x1:])
					// The source index of output ox is off + ox·stride.
					off := sy*w - pad + kx
					if stride == 1 {
						copy(d[x0:x1], plane[off+x0:])
						continue
					}
					for ox := x0; ox < x1; ox++ {
						d[ox] = plane[off+ox*stride]
					}
				}
				row++
			}
		}
	}
}

// ceilDiv returns ⌈a/b⌉ for a >= 0 and b > 0.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Stats implements Layer.
func (c *Conv) Stats(in []tensor.Shape) Stats {
	out, err := c.OutShape(in)
	if err != nil {
		return Stats{}
	}
	outElems := int64(out.Elems())
	return Stats{
		MACs:        outElems * int64(c.InC*c.KH*c.KW),
		Params:      paramCount(c),
		InputElems:  int64(in[0].Elems()),
		OutputElems: outElems,
	}
}
