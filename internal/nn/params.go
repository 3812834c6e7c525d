package nn

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/half"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Params is the weight and bias pair of a Conv or FullyConnected
// layer. A layer keeps its geometry and a source for the values, and
// the float32 tensors are filled from that source only when they are
// first read, once. The timing path reads geometry only (the device
// cost models consume Stats), so building or parsing a network for it
// costs no weight memory at all.
//
// There are two sources. A built layer regenerates its values from the
// start of its own rng stream, so they are bit-identical however late
// the fill happens. A parsed layer decodes the binary16 runs it was
// parsed from (see DeferFP16). A zero Params, as in a layer literal,
// fills zeros.
//
// After the first read the tensors are the values: writes to them
// (calibration, quantization, a test's edit) are never overwritten,
// and serialization reads them instead of the source.
type Params struct {
	once   sync.Once
	loaded atomic.Bool
	src    paramSource
	w, b   *tensor.T
}

// paramSource produces a layer's initial weight and bias values into
// zeroed slices. fill must be repeatable and safe for concurrent use:
// graphfile.Compile may generate into scratch while another goroutine
// materialises the same layer.
type paramSource interface {
	fill(w, b []float32)
}

// tensorsOf is the one accessor: it materialises l's tensors, with the
// shapes the layer reports, on the first call. Later calls cost one
// atomic load.
func tensorsOf(l weighted) (w, b *tensor.T) {
	p := l.Params()
	p.once.Do(func() {
		ws, bs := l.paramShapes()
		p.w, p.b = tensor.New(ws...), tensor.New(bs...)
		if p.src != nil {
			p.src.fill(p.w.Data, p.b.Data)
		}
		p.loaded.Store(true)
	})
	return p.w, p.b
}

// DeferFP16 makes two little-endian binary16 runs the source of the
// values: w holds the weights and b the bias, two bytes per element,
// and they decode on first read. The slices are kept, not copied. It
// must be called before the layer is read or shared; graphfile.Parse
// calls it after checking each run's length against the geometry.
func (p *Params) DeferFP16(w, b []byte) { p.src = fp16Runs{w: w, b: b} }

// paramCount is the number of parameters l's geometry implies.
func paramCount(l weighted) int64 {
	ws, bs := l.paramShapes()
	return int64(ws.Elems()) + int64(bs.Elems())
}

// ParamValues returns the current weight and bias values of a Conv or
// FullyConnected layer without materialising it: the tensors' data
// once they exist, otherwise the source's values generated into
// *scratch, which grows as needed and is reused across calls. The
// result is valid until the next call with the same scratch. Layers
// without parameters yield nil.
func ParamValues(l Layer, scratch *[]float32) (w, b []float32) {
	wl, ok := l.(weighted)
	if !ok {
		return nil, nil
	}
	p := wl.Params()
	if p.loaded.Load() {
		return p.w.Data, p.b.Data
	}
	ws, bs := wl.paramShapes()
	nw, nb := ws.Elems(), bs.Elems()
	buf := slices.Grow((*scratch)[:0], nw+nb)[:nw+nb]
	*scratch = buf
	w, b = buf[:nw], buf[nw:]
	clear(buf)
	if p.src != nil {
		p.src.fill(w, b)
	}
	return w, b
}

// generated is the source of a built layer: init fills the values from
// a private copy of the layer's stream, taken at its start, so every
// fill yields the same values.
type generated struct {
	stream rng.Source
	init   func(s *rng.Source, w, b *tensor.T)
}

func (g generated) fill(w, b []float32) {
	s := g.stream
	g.init(&s, &tensor.T{Data: w}, &tensor.T{Data: b})
}

// seed returns the source of a built layer drawing from src's
// sub-stream name.
func seed(src *rng.Source, name string, init func(s *rng.Source, w, b *tensor.T)) generated {
	return generated{stream: *src.Derive(name), init: init}
}

// fp16Runs is the source of a parsed layer.
type fp16Runs struct{ w, b []byte }

func (r fp16Runs) fill(w, b []float32) {
	decodeFP16(w, r.w)
	decodeFP16(b, r.b)
}

// decodeFP16 widens little-endian binary16 values into dst, one per
// two bytes of raw.
func decodeFP16(dst []float32, raw []byte) {
	raw = raw[:2*len(dst)]
	for i := range dst {
		dst[i] = half.FromBits(binary.LittleEndian.Uint16(raw[2*i:])).Float32()
	}
}
