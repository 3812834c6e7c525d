package nn

import (
	"math"

	"repro/internal/tensor"
)

// PoolKind distinguishes max from average pooling.
type PoolKind int

const (
	// MaxPool takes the maximum over each window.
	MaxPool PoolKind = iota
	// AvgPool averages each window (dividing by the window's
	// intersection with the padded image, as Caffe does).
	AvgPool
)

// Pool is a 2-D spatial pooling layer. GoogLeNet's pooling layers use
// Caffe's ceil-mode output rounding, so CeilMode defaults to on in the
// builders.
type Pool struct {
	LayerName string
	PoolOp    PoolKind
	K         int
	Stride    int
	Pad       int
	CeilMode  bool
	// Global pools over the full input (GoogLeNet's final 7x7 average
	// pool is expressed this way by the builder for robustness to
	// input geometry).
	Global bool
}

// Name implements Layer.
func (p *Pool) Name() string { return p.LayerName }

// Kind implements Layer.
func (p *Pool) Kind() string {
	if p.PoolOp == MaxPool {
		return "maxpool"
	}
	return "avgpool"
}

func (p *Pool) outDim(in int) int {
	if p.Global {
		return 1
	}
	num := float64(in + 2*p.Pad - p.K)
	if p.CeilMode {
		return int(math.Ceil(num/float64(p.Stride))) + 1
	}
	return int(math.Floor(num/float64(p.Stride))) + 1
}

// OutShape implements Layer.
func (p *Pool) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(p.LayerName, in, 1); err != nil {
		return nil, err
	}
	c, h, w, err := chw(p.LayerName, in[0])
	if err != nil {
		return nil, err
	}
	if p.Global {
		return tensor.Shape{c, 1, 1}, nil
	}
	oh, ow := p.outDim(h), p.outDim(w)
	if oh <= 0 || ow <= 0 {
		return nil, shapeError(p.LayerName, "pool %dx%d stride %d does not fit input %dx%d",
			p.K, p.K, p.Stride, h, w)
	}
	// Caffe clips the last window so it starts inside the (padded)
	// image; mirror that to keep shapes identical.
	if p.Pad > 0 {
		if (oh-1)*p.Stride >= h+p.Pad {
			oh--
		}
		if (ow-1)*p.Stride >= w+p.Pad {
			ow--
		}
	}
	return tensor.Shape{c, oh, ow}, nil
}

// Forward implements Layer. Windowed max pooling over inputs without
// NaN or −0 (every ReLU output) takes the separable forwardMax; the
// rest scans each window.
func (p *Pool) Forward(out *tensor.T, ins []*tensor.T) {
	in := ins[0]
	if p.PoolOp == MaxPool && !p.Global && maxSafe(in.Data) {
		p.forwardMax(out, in)
		return
	}
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh, ow := out.Dim(2), out.Dim(3)
	for b := 0; b < n; b++ {
		for ci := 0; ci < c; ci++ {
			src := in.Data[(b*c+ci)*h*w:]
			dst := out.Data[(b*c+ci)*oh*ow:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					y0, x0 := oy*p.Stride-p.Pad, ox*p.Stride-p.Pad
					y1, x1 := y0+p.K, x0+p.K
					if p.Global {
						y0, x0, y1, x1 = 0, 0, h, w
					}
					cy0, cx0 := max(y0, 0), max(x0, 0)
					cy1, cx1 := min(y1, h), min(x1, w)
					if p.PoolOp == MaxPool {
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
						}
						dst[oy*ow+ox] = best
					} else {
						var sum float32
						for y := cy0; y < cy1; y++ {
							row := src[y*w:]
							for x := cx0; x < cx1; x++ {
								sum += row[x]
							}
						}
						area := (cy1 - cy0) * (cx1 - cx0)
						if area <= 0 {
							dst[oy*ow+ox] = 0
						} else {
							dst[oy*ow+ox] = sum / float32(area)
						}
					}
				}
			}
		}
	}
}

// maxSafe reports whether data holds no NaN and no −0. On such values
// > is a total order under which equal values have equal bits, so the
// builtin max and a fold that replaces only on > pick the same bits
// in any order.
func maxSafe(data []float32) bool {
	n := len(data) &^ 3
	return maxSafeQuads(data[:n]) && maxSafeScalar(data[n:])
}

// maxSafeScalar is maxSafe one value at a time.
func maxSafeScalar(data []float32) bool {
	for _, v := range data {
		if b := math.Float32bits(v); b == 0x80000000 || b&0x7fffffff > 0x7f800000 {
			return false
		}
	}
	return true
}

// forwardMax is max pooling as two passes per output row: the max down
// the window's input rows into a scratch row, then the max along each
// window's columns of it. On maxSafe inputs this is the window maximum
// the scan in Forward finds, bit for bit, in any order. The rows and
// the windows lying inside the row are maxed with maxInto (the column
// pass as K shifted calls, then one pick per output at the stride);
// the windows clipped by the row's edges with the builtin max. A
// window lying entirely in padding gives 0, as in Forward.
func (p *Pool) forwardMax(out *tensor.T, in *tensor.T) {
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh, ow := out.Dim(2), out.Dim(3)
	k, stride, pad := p.K, p.Stride, p.Pad

	// Outputs [xlo, xhi) have windows [ox·stride−pad, ox·stride−pad+k)
	// inside the row.
	xlo, xhi := min((pad+stride-1)/stride, ow), 0
	if w >= k {
		xhi = min((w-k+pad)/stride+1, ow)
	}
	xhi = max(xhi, xlo)
	bufp := scratch(2 * w)
	defer colBuffers.Put(bufp)
	col, wmax := (*bufp)[:w], (*bufp)[w:]
	for plane := 0; plane < n*c; plane++ {
		src := in.Data[plane*h*w : (plane+1)*h*w]
		dst := out.Data[plane*oh*ow : (plane+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			drow := dst[oy*ow : (oy+1)*ow]
			y0, y1 := p.span(oy*stride-pad, h)
			if y0 == y1 {
				clear(drow) // windows entirely in padding
				continue
			}
			copy(col, src[y0*w:(y0+1)*w])
			for y := y0 + 1; y < y1; y++ {
				maxInto(col, src[y*w:(y+1)*w])
			}
			if xlo < xhi {
				// win[i] is the max of col[x0+i : x0+i+k]; at stride 1
				// those are the outputs themselves.
				x0, win := xlo*stride-pad, drow[xlo:xhi]
				if stride > 1 {
					win = wmax[:(xhi-xlo-1)*stride+1]
				}
				copy(win, col[x0:])
				for j := 1; j < k; j++ {
					maxInto(win, col[x0+j:][:len(win)])
				}
				if stride > 1 {
					for i := range drow[xlo:xhi] {
						drow[xlo+i] = win[i*stride]
					}
				}
			}
			p.maxEdges(drow, col, 0, xlo)
			p.maxEdges(drow, col, xhi, ow)
		}
	}
}

// span clips the window starting at o to [lo, hi) within [0, size);
// lo == hi when it lies entirely in padding.
func (p *Pool) span(o, size int) (lo, hi int) {
	lo = min(max(o, 0), size)
	return lo, max(min(o+p.K, size), lo)
}

// maxEdges sets drow[ox] for ox in [lo, hi) to the builtin max over the
// window of col clipped to the row, or to 0 when it lies entirely in
// padding.
func (p *Pool) maxEdges(drow, col []float32, lo, hi int) {
	for ox := lo; ox < hi; ox++ {
		x0, x1 := p.span(ox*p.Stride-p.Pad, len(col))
		if x0 == x1 {
			drow[ox] = 0
			continue
		}
		best := col[x0]
		for _, v := range col[x0+1 : x1] {
			best = max(best, v)
		}
		drow[ox] = best
	}
}

// Stats implements Layer. Pooling performs one compare or add per
// window element; we count those as MAC-equivalents because the SHAVE
// CMU/VAU issue them at the same rate.
func (p *Pool) Stats(in []tensor.Shape) Stats {
	out, err := p.OutShape(in)
	if err != nil {
		return Stats{}
	}
	window := p.K * p.K
	if p.Global {
		window = in[0][1] * in[0][2]
	}
	outElems := int64(out.Elems())
	return Stats{
		MACs:        outElems * int64(window),
		InputElems:  int64(in[0].Elems()),
		OutputElems: outElems,
	}
}
