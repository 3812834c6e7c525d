package nn

import (
	"repro/internal/half"
	"repro/internal/tensor"
)

// FP16-strict forward paths: the reduction accumulators themselves are
// held in binary16, modelling the Myriad 2 VAU's native FP16 multiply-
// accumulate. Inputs and weights are assumed already FP16-exact (the
// graph executor quantizes activations between layers and the graph
// compiler quantizes weights), so each product is exact in float32 and
// only the running sum rounds — exactly the hardware behaviour.
//
// These paths are software emulation of per-element rounding and run
// an order of magnitude slower than the GEMM path; they exist for the
// Fig. 7 accuracy experiments and the precision ablation, never for
// the performance experiments (whose timing comes from the cost
// models, not from wall-clock execution).

// accumulateFP16 folds products into a binary16 accumulator.
func accumulateFP16(acc half.Float16, w, x []float32) half.Float16 {
	for i, wv := range w {
		if wv == 0 {
			continue
		}
		p := wv * x[i] // exact: both operands are FP16-exact
		acc = half.FromFloat32(acc.Float32() + p)
	}
	return acc
}

// ForwardFP16Strict implements strictLayer for Conv.
func (c *Conv) ForwardFP16Strict(out *tensor.T, ins []*tensor.T) {
	in := ins[0]
	n := in.Dim(0)
	h, w := in.Dim(2), in.Dim(3)
	oh, ow := c.outHW(h, w)
	k := c.InC * c.KH * c.KW
	spatial := oh * ow

	var col []float32
	if bufp := c.colBuffer(k * spatial); bufp != nil {
		defer colBuffers.Put(bufp)
		col = *bufp
	}

	// Column-major gather buffer: one patch (length k) at a time keeps
	// the strict inner loop contiguous.
	patch := make([]float32, k)
	wt, bt := tensorsOf(c)
	for b := 0; b < n; b++ {
		cols := c.patches(col, in.Data[b*c.InC*h*w:(b+1)*c.InC*h*w], h, w, oh, ow)
		dst := out.Data[b*c.OutC*spatial : (b+1)*c.OutC*spatial]
		for s := 0; s < spatial; s++ {
			for i := 0; i < k; i++ {
				patch[i] = cols[i*spatial+s]
			}
			for oc := 0; oc < c.OutC; oc++ {
				wrow := wt.Data[oc*k : (oc+1)*k]
				acc := half.FromFloat32(bt.Data[oc])
				acc = accumulateFP16(acc, wrow, patch)
				dst[oc*spatial+s] = acc.Float32()
			}
		}
	}
}

// ForwardFP16Strict implements strictLayer for FullyConnected.
func (f *FullyConnected) ForwardFP16Strict(out *tensor.T, ins []*tensor.T) {
	in := ins[0]
	n := in.Dim(0)
	wt, bt := tensorsOf(f)
	for b := 0; b < n; b++ {
		x := in.Data[b*f.InF : (b+1)*f.InF]
		y := out.Data[b*f.OutF : (b+1)*f.OutF]
		for o := 0; o < f.OutF; o++ {
			row := wt.Data[o*f.InF : (o+1)*f.InF]
			acc := half.FromFloat32(bt.Data[o])
			acc = accumulateFP16(acc, row, x)
			y[o] = acc.Float32()
		}
	}
}

var (
	_ strictLayer = (*Conv)(nil)
	_ strictLayer = (*FullyConnected)(nil)
)
