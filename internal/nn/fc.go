package nn

import (
	"repro/internal/gemm"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// FullyConnected (Caffe "InnerProduct") computes y = Wx + b over the
// flattened input.
type FullyConnected struct {
	LayerName string
	InF, OutF int
	params    Params // weights (OutF, InF) and bias (OutF)
}

// NewFullyConnected constructs an FC layer with Xavier weights drawn
// from a name-derived sub-stream of src.
func NewFullyConnected(name string, inF, outF int, src *rng.Source) *FullyConnected {
	f := &FullyConnected{LayerName: name, InF: inF, OutF: outF}
	f.params.src = seed(src, "fc/"+name, xavier(inF), nil)
	return f
}

// Weights returns the (OutF, InF) weight tensor, filling it on first
// read.
func (f *FullyConnected) Weights() *tensor.T { w, _ := tensorsOf(f); return w }

// Bias returns the (OutF) bias tensor, filling it on first read.
func (f *FullyConnected) Bias() *tensor.T { _, b := tensorsOf(f); return b }

// Params exposes the layer's parameter source to the graph-file parser.
func (f *FullyConnected) Params() *Params { return &f.params }

func (f *FullyConnected) paramShapes() (w, b tensor.Shape) {
	return tensor.Shape{f.OutF, f.InF}, tensor.Shape{f.OutF}
}

// Name implements Layer.
func (f *FullyConnected) Name() string { return f.LayerName }

// Kind implements Layer.
func (f *FullyConnected) Kind() string { return "fc" }

// OutShape implements Layer.
func (f *FullyConnected) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(f.LayerName, in, 1); err != nil {
		return nil, err
	}
	if in[0].Elems() != f.InF {
		return nil, shapeError(f.LayerName, "input %v has %d elems, layer expects %d",
			in[0], in[0].Elems(), f.InF)
	}
	return tensor.Shape{f.OutF}, nil
}

// Forward implements Layer.
func (f *FullyConnected) Forward(out *tensor.T, ins []*tensor.T) {
	in := ins[0]
	n := in.Dim(0)
	wt, bt := tensorsOf(f)
	for b := 0; b < n; b++ {
		x := in.Data[b*f.InF : (b+1)*f.InF]
		y := out.Data[b*f.OutF : (b+1)*f.OutF]
		gemm.MatVec(y, wt.Data, x, f.OutF, f.InF)
		for i := range y {
			y[i] += bt.Data[i]
		}
	}
}

// Stats implements Layer.
func (f *FullyConnected) Stats(in []tensor.Shape) Stats {
	return Stats{
		MACs:        int64(f.InF) * int64(f.OutF),
		Params:      paramCount(f),
		InputElems:  int64(f.InF),
		OutputElems: int64(f.OutF),
	}
}

// Softmax normalizes the input into a probability distribution; its
// output is the per-label confidence the NCAPI returns (Listing 1).
type Softmax struct {
	LayerName string
}

// Name implements Layer.
func (s *Softmax) Name() string { return s.LayerName }

// Kind implements Layer.
func (s *Softmax) Kind() string { return "softmax" }

// OutShape implements Layer.
func (s *Softmax) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(s.LayerName, in, 1); err != nil {
		return nil, err
	}
	return in[0].Clone(), nil
}

// Forward implements Layer. The max-subtraction trick keeps the
// exponentials in range, which is essential in FP16 where exp(12) is
// already near the top of the format.
func (s *Softmax) Forward(out *tensor.T, ins []*tensor.T) {
	in := ins[0]
	n := in.Dim(0)
	per := in.Elems() / n
	for b := 0; b < n; b++ {
		x := in.Data[b*per : (b+1)*per]
		y := out.Data[b*per : (b+1)*per]
		maxv := x[0]
		for _, v := range x[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float32
		for i, v := range x {
			e := expf(v - maxv)
			y[i] = e
			sum += e
		}
		inv := 1 / sum
		for i := range y {
			y[i] *= inv
		}
	}
}

// Stats implements Layer. exp costs several FLOPs; count 8 per element.
func (s *Softmax) Stats(in []tensor.Shape) Stats {
	e := int64(in[0].Elems())
	return Stats{MACs: e * 8, InputElems: e, OutputElems: e}
}

// Concat joins inputs along the channel axis (GoogLeNet's DepthConcat
// at the end of every inception module).
type Concat struct {
	LayerName string
}

// Name implements Layer.
func (c *Concat) Name() string { return c.LayerName }

// Kind implements Layer.
func (c *Concat) Kind() string { return "concat" }

// OutShape implements Layer.
func (c *Concat) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) < 2 {
		return nil, shapeError(c.LayerName, "concat needs at least 2 inputs, got %d", len(in))
	}
	_, h, w, err := chw(c.LayerName, in[0])
	if err != nil {
		return nil, err
	}
	total := 0
	for i, s := range in {
		ci, hi, wi, err := chw(c.LayerName, s)
		if err != nil {
			return nil, err
		}
		if hi != h || wi != w {
			return nil, shapeError(c.LayerName, "input %d spatial %dx%d mismatches %dx%d", i, hi, wi, h, w)
		}
		total += ci
	}
	return tensor.Shape{total, h, w}, nil
}

// Forward implements Layer.
func (c *Concat) Forward(out *tensor.T, ins []*tensor.T) {
	n := ins[0].Dim(0)
	h, w := ins[0].Dim(2), ins[0].Dim(3)
	plane := h * w
	outC := out.Dim(1)
	for b := 0; b < n; b++ {
		off := 0
		for _, in := range ins {
			ci := in.Dim(1)
			src := in.Data[b*ci*plane : (b+1)*ci*plane]
			dst := out.Data[(b*outC+off)*plane:]
			copy(dst[:ci*plane], src)
			off += ci
		}
	}
}

// Stats implements Layer. Concat is pure data movement.
func (c *Concat) Stats(in []tensor.Shape) Stats {
	var e int64
	for _, s := range in {
		e += int64(s.Elems())
	}
	return Stats{InputElems: e, OutputElems: e}
}
