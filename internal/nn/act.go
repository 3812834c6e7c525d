package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation, applied elementwise.
type ReLU struct {
	LayerName string
}

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// Kind implements Layer.
func (r *ReLU) Kind() string { return "relu" }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(r.LayerName, in, 1); err != nil {
		return nil, err
	}
	return in[0].Clone(), nil
}

// Forward implements Layer: out = in > 0 ? in : +0, NaN and −0 giving
// +0, without a branch per element on amd64 (relu).
func (r *ReLU) Forward(out *tensor.T, ins []*tensor.T) {
	relu(out.Data, ins[0].Data[:len(out.Data)])
}

// Stats implements Layer.
func (r *ReLU) Stats(in []tensor.Shape) Stats {
	e := int64(in[0].Elems())
	return Stats{MACs: e, InputElems: e, OutputElems: e}
}

// LRN is Caffe's across-channel local response normalization,
// b_c = a_c / (k + (alpha/n)·Σ_{c'∈window} a_{c'}²)^beta,
// with GoogLeNet's parameters n=5, alpha=1e-4, beta=0.75, k=1.
type LRN struct {
	LayerName string
	Size      int
	Alpha     float32
	Beta      float32
	K         float32
}

// NewLRN builds the GoogLeNet-parameterized LRN layer.
func NewLRN(name string) *LRN {
	return &LRN{LayerName: name, Size: 5, Alpha: 1e-4, Beta: 0.75, K: 1}
}

// Name implements Layer.
func (l *LRN) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *LRN) Kind() string { return "lrn" }

// OutShape implements Layer.
func (l *LRN) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(l.LayerName, in, 1); err != nil {
		return nil, err
	}
	if _, _, _, err := chw(l.LayerName, in[0]); err != nil {
		return nil, err
	}
	return in[0].Clone(), nil
}

// Forward implements Layer.
func (l *LRN) Forward(out *tensor.T, ins []*tensor.T) {
	in := ins[0]
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	half := l.Size / 2
	plane := h * w
	scale := l.Alpha / float32(l.Size)
	for b := 0; b < n; b++ {
		base := b * c * plane
		for i := 0; i < plane; i++ {
			for ci := 0; ci < c; ci++ {
				lo, hi := ci-half, ci+half
				if lo < 0 {
					lo = 0
				}
				if hi >= c {
					hi = c - 1
				}
				var ss float32
				for cj := lo; cj <= hi; cj++ {
					v := in.Data[base+cj*plane+i]
					ss += v * v
				}
				out.Data[base+ci*plane+i] = in.Data[base+ci*plane+i] / l.pow(l.K+scale*ss)
			}
		}
	}
}

// pow returns float32(math.Pow(x, Beta)). For GoogLeNet's Beta of
// 0.75 and x ≥ 0 it takes x^0.75 as √x·√√x, which rounds to the same
// float32 for every non-negative float32 x (checked exhaustively) at a
// fraction of math.Pow's cost. Negative and NaN x keep math.Pow, whose
// NaNs differ in sign and payload from the square roots'.
func (l *LRN) pow(x float32) float32 {
	if l.Beta == 0.75 && x >= 0 {
		r := math.Sqrt(float64(x))
		return float32(r * math.Sqrt(r))
	}
	return float32(math.Pow(float64(x), float64(l.Beta)))
}

// Stats implements Layer. Each output needs ~Size multiply-adds for
// the window sum plus the powf, which we fold into a few MACs.
func (l *LRN) Stats(in []tensor.Shape) Stats {
	e := int64(in[0].Elems())
	return Stats{MACs: e * int64(l.Size+4), InputElems: e, OutputElems: e}
}

// Dropout is an inference-time identity; it exists so the compiled
// graph has the same topology as the training-time prototxt, exactly
// like Caffe's deploy networks.
type Dropout struct {
	LayerName string
	Ratio     float32
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.LayerName }

// Kind implements Layer.
func (d *Dropout) Kind() string { return "dropout" }

// OutShape implements Layer.
func (d *Dropout) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(d.LayerName, in, 1); err != nil {
		return nil, err
	}
	return in[0].Clone(), nil
}

// Forward implements Layer.
func (d *Dropout) Forward(out *tensor.T, ins []*tensor.T) {
	copy(out.Data, ins[0].Data)
}

// Stats implements Layer.
func (d *Dropout) Stats(in []tensor.Shape) Stats {
	e := int64(in[0].Elems())
	return Stats{InputElems: e, OutputElems: e}
}
