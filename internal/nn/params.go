package nn

import (
	"encoding/binary"
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
// The source is a stream: ParamChunks reads it in fixed-size chunks
// (graphfile.Compile encodes each chunk straight into the blob), and
// the first-read fill is the one-chunk case of the same read, so the
// values never depend on who reads them or in what pieces. A built
// layer generates its values from the start of its own rng stream; a
// parsed layer decodes the binary16 runs it was parsed from (see
// DeferFP16); a zero Params, as in a layer literal, yields zeros.
// Unread hands the source itself out, detached from the layer, which
// is how a compiled graph file defers its payload.
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

// paramSource is where a layer's initial values come from: one filler
// per tensor and, for a built layer, the start of its rng stream. Each
// read starts from a copy of that stream, so every read yields the
// same values, and concurrent reads share nothing mutable. A nil
// filler yields zeros.
type paramSource struct {
	stream rng.Source
	w, b   filler
}

// filler writes the next len(dst) values of one tensor into dst. at is
// the index of dst[0] in the tensor, and s carries the layer's stream,
// cached polar-normal spare included, from one call to the next, so
// consecutive pieces of any size yield the values one call over the
// whole tensor does.
type filler func(s *rng.Source, at int, dst []float32)

// read passes the n values f yields to fn in consecutive chunks of at
// most len(buf) values, each written into buf; a nil fn only fills.
func read(s *rng.Source, f filler, n int, buf []float32, fn func(at int, vals []float32)) {
	for at := 0; at < n; at += len(buf) {
		vals := buf[:min(len(buf), n-at)]
		if f == nil {
			clear(vals)
		} else {
			f(s, at, vals)
		}
		if fn != nil {
			fn(at, vals)
		}
	}
}

// tensorsOf is the one accessor: it materialises l's tensors, with the
// shapes the layer reports, on the first call. The fill reads the
// source in one chunk per tensor, straight into the tensor. Later
// calls cost one atomic load.
func tensorsOf(l weighted) (w, b *tensor.T) {
	p := l.Params()
	p.once.Do(func() {
		ws, bs := l.paramShapes()
		p.w, p.b = tensor.New(ws...), tensor.New(bs...)
		s := p.src.stream
		read(&s, p.src.w, len(p.w.Data), p.w.Data, nil)
		read(&s, p.src.b, len(p.b.Data), p.b.Data, nil)
		p.loaded.Store(true)
	})
	return p.w, p.b
}

// ParamChunks passes the current values of a Conv or FullyConnected
// layer to fn without materialising it: the weights, then the bias, in
// consecutive chunks of at most len(scratch) values, off being the
// index of vals[0] in that weights-then-bias order. A chunk never
// spans the two tensors. Once the layer's tensors exist the chunks are
// slices of their data; until then the source's values are generated
// or decoded into scratch. vals is read-only and valid only during the
// call. Layers without parameters yield nothing.
//
// Reads of one layer may run concurrently with each other and with
// its first-read fill, each with its own scratch.
func ParamChunks(l Layer, scratch []float32, fn func(off int, vals []float32)) {
	wl, ok := l.(weighted)
	if !ok {
		return
	}
	if len(scratch) == 0 {
		panic("nn: ParamChunks with an empty scratch")
	}
	if src, unread := Unread(l); unread {
		src.Chunks(scratch, fn)
		return
	}
	p := wl.Params()
	off := 0
	for _, data := range [2][]float32{p.w.Data, p.b.Data} {
		for len(data) > 0 {
			k := min(len(data), len(scratch))
			fn(off, data[:k])
			off, data = off+k, data[k:]
		}
	}
}

// ParamSource is a layer's initial parameter values detached from the
// layer: what its tensors are filled from on first read. A source is
// immutable, so it yields the same values however the layer is read or
// edited afterwards.
type ParamSource struct {
	src    paramSource
	nw, nb int
}

// Unread returns the source of a Conv or FullyConnected layer's values
// and true while the layer has not materialised them, which is when
// the source's values are the layer's. Once the tensors exist they are
// the values, edits included, and Unread returns false. Layers without
// parameters yield an empty source.
func Unread(l Layer) (ParamSource, bool) {
	wl, ok := l.(weighted)
	if !ok {
		return ParamSource{}, true
	}
	p := wl.Params()
	if p.loaded.Load() {
		return ParamSource{}, false
	}
	nw, nb := ParamLens(l)
	return ParamSource{src: p.src, nw: nw, nb: nb}, true
}

// Chunks passes the source's values to fn as ParamChunks does for an
// unread layer.
func (s ParamSource) Chunks(scratch []float32, fn func(off int, vals []float32)) {
	if len(scratch) == 0 {
		panic("nn: ParamChunks with an empty scratch")
	}
	stream := s.src.stream
	read(&stream, s.src.w, s.nw, scratch, fn)
	read(&stream, s.src.b, s.nb, scratch, func(at int, vals []float32) { fn(s.nw+at, vals) })
}

// ParamLens returns the number of weight and bias values a Conv or
// FullyConnected layer's geometry implies, and zeros for other layers.
func ParamLens(l Layer) (w, b int) {
	wl, ok := l.(weighted)
	if !ok {
		return 0, 0
	}
	ws, bs := wl.paramShapes()
	return ws.Elems(), bs.Elems()
}

// paramCount is the number of parameters l's geometry implies.
func paramCount(l weighted) int64 {
	nw, nb := ParamLens(l)
	return int64(nw) + int64(nb)
}

// DeferFP16 makes binary16 runs of a graph file the source of the
// values: the weights start at byte offset w of the bytes file returns
// and the bias at offset b, two little-endian bytes per value, as many
// values as the geometry implies. file is called on each read and
// never before, so the bytes may be produced on first use; what it
// returns must not change afterwards. DeferFP16 must be called before
// the layer is read or shared; graphfile calls it after checking each
// run's length against the geometry.
func (p *Params) DeferFP16(file func() []byte, w, b int) {
	p.src = paramSource{w: fp16Run(file, w), b: fp16Run(file, b)}
}

// fp16Run is the filler of a parsed tensor: it widens the binary16
// values at byte offset off of file, two bytes each.
func fp16Run(file func() []byte, off int) filler {
	return func(_ *rng.Source, at int, dst []float32) {
		src := file()[off+2*at : off+2*(at+len(dst))]
		for i := range dst {
			dst[i] = half.FromBits(binary.LittleEndian.Uint16(src[2*i:])).Float32()
		}
	}
}

// seed returns the source of a built layer drawing from src's
// sub-stream name: w fills the weights, then b the bias, from it.
func seed(src *rng.Source, name string, w, b filler) paramSource {
	return paramSource{stream: *src.Derive(name), w: w, b: b}
}

// The fillers of built layers run the tensor initializers over each
// chunk, so every value is the float32 expression an eager fill of the
// whole tensor computes.

func msra(fanIn int) filler {
	return func(s *rng.Source, _ int, dst []float32) { (&tensor.T{Data: dst}).FillMSRA(s, fanIn) }
}

func xavier(fanIn int) filler {
	return func(s *rng.Source, _ int, dst []float32) { (&tensor.T{Data: dst}).FillXavier(s, fanIn) }
}

func normal(mean, std float32) filler {
	return func(s *rng.Source, _ int, dst []float32) { (&tensor.T{Data: dst}).FillNormal(s, mean, std) }
}
