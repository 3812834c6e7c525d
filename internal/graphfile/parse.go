package graphfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Info summarizes a parsed blob's header without reconstructing the
// network; the device runtime reports it after allocation.
type Info struct {
	Name       string
	InputShape tensor.Shape
	Output     string
	MACs       int64
	Params     int64
	Layers     int
	Bytes      int
}

// Parse reconstructs a network from a compiled blob, verifying the
// magic, version, CRC trailer, each weight run's length against its
// layer's geometry, the header's MAC and parameter totals, and final
// graph integrity. It decodes no weight: each weighted layer keeps the
// offsets of its binary16 runs in blob and decodes them on first read
// (nn.Params), so the blob must not be modified afterwards. Parsing
// for a timing run therefore costs the topology only. The weights, when
// read, are FP16-exact (they round-tripped through binary16 during
// compilation).
func Parse(blob []byte) (*nn.Graph, *Info, error) {
	if len(blob) < len(Magic)+8 {
		return nil, nil, fmt.Errorf("graphfile: blob too short (%d bytes)", len(blob))
	}
	if string(blob[:len(Magic)]) != Magic {
		return nil, nil, fmt.Errorf("graphfile: bad magic %q", blob[:len(Magic)])
	}
	payload, trailer := blob[:len(blob)-4], blob[len(blob)-4:]
	wantSum := binary.LittleEndian.Uint32(trailer)
	if got := crc32.ChecksumIEEE(payload); got != wantSum {
		return nil, nil, fmt.Errorf("graphfile: checksum mismatch (blob corrupted in transfer)")
	}
	return parse(&reader{buf: payload, off: len(Magic)}, len(blob), func() []byte { return blob })
}

// Parse builds the network a device runs from h. Bytes from outside go
// through the package's Parse in full, CRC included, on every call. A
// compiled handle's structure is read with the same cursor and checks
// (run lengths against geometry, the header's totals, graph
// integrity), and its weighted layers decode their runs from h.Bytes
// on first read, so a network that is only timed never builds the
// payload.
func (h *Handle) Parse() (*nn.Graph, *Info, error) {
	if h.structure == nil {
		return Parse(h.buf)
	}
	return parse(&reader{buf: h.structure, off: len(Magic), structure: true}, h.n, h.Bytes)
}

// parse reads everything after the magic of an n-byte blob whose bytes
// file returns; r is positioned at the version.
func parse(r *reader, n int, file func() []byte) (*nn.Graph, *Info, error) {
	if v := r.u32(); v != Version {
		return nil, nil, fmt.Errorf("graphfile: unsupported version %d (want %d)", v, Version)
	}

	info := &Info{Bytes: n}
	info.Name = r.str()
	info.InputShape = tensor.Shape(r.ints())
	info.Output = r.str()
	info.MACs = int64(r.u64())
	info.Params = int64(r.u64())
	nLayers := r.length("layer count")
	if r.err != nil {
		return nil, nil, r.err
	}
	if !info.InputShape.Valid() {
		return nil, nil, fmt.Errorf("graphfile: invalid input shape %v", info.InputShape)
	}
	info.Layers = nLayers

	g := nn.NewGraph(info.Name, info.InputShape)
	for i := 0; i < nLayers; i++ {
		name := r.str()
		inputs := r.strs()
		layer, err := readLayer(r, name, file)
		if r.err != nil {
			return nil, nil, r.err
		}
		if err != nil {
			return nil, nil, err
		}
		if _, err := g.Add(layer, inputs...); err != nil {
			return nil, nil, fmt.Errorf("graphfile: blob layer %d: %w", i, err)
		}
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	if r.remaining() != 0 {
		return nil, nil, fmt.Errorf("graphfile: %d trailing bytes after last layer", r.remaining())
	}
	if err := g.SetOutput(info.Output); err != nil {
		return nil, nil, fmt.Errorf("graphfile: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("graphfile: parsed graph invalid: %w", err)
	}
	if total := g.TotalStats(); total.MACs != info.MACs || total.Params != info.Params {
		return nil, nil, fmt.Errorf("graphfile: header declares %d MACs and %d params, network has %d and %d",
			info.MACs, info.Params, total.MACs, total.Params)
	}
	return g, info, nil
}

func readLayer(r *reader, name string, file func() []byte) (nn.Layer, error) {
	kind := r.u8()
	switch kind {
	case kindConv:
		dims := r.ints()
		if len(dims) != 6 {
			return nil, fmt.Errorf("graphfile: conv %q has %d params, want 6", name, len(dims))
		}
		inC, outC, kh, kw, stride, pad := dims[0], dims[1], dims[2], dims[3], dims[4], dims[5]
		wAt, nw := r.fp16Run()
		bAt, nb := r.fp16Run()
		if r.err != nil {
			return nil, r.err
		}
		if inC <= 0 || outC <= 0 || kh <= 0 || kw <= 0 || stride <= 0 || pad < 0 {
			return nil, fmt.Errorf("graphfile: conv %q has invalid geometry %v", name, dims)
		}
		if nw != product(outC, inC, kh, kw) || nb != outC {
			return nil, fmt.Errorf("graphfile: conv %q weight sizes inconsistent", name)
		}
		c := &nn.Conv{
			LayerName: name,
			InC:       inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		}
		c.Params().DeferFP16(file, wAt, bAt)
		return c, nil
	case kindPool:
		dims := r.ints()
		if len(dims) != 4 {
			return nil, fmt.Errorf("graphfile: pool %q has %d params, want 4", name, len(dims))
		}
		flags := dims[3]
		op := nn.MaxPool
		if flags&1 != 0 {
			op = nn.AvgPool
		}
		if dims[2] < 0 || flags&^7 != 0 || flags&4 == 0 && (dims[0] <= 0 || dims[1] <= 0) {
			return nil, fmt.Errorf("graphfile: pool %q has invalid geometry %v", name, dims)
		}
		return &nn.Pool{
			LayerName: name, PoolOp: op,
			K: dims[0], Stride: dims[1], Pad: dims[2],
			CeilMode: flags&2 != 0, Global: flags&4 != 0,
		}, nil
	case kindReLU:
		return &nn.ReLU{LayerName: name}, nil
	case kindLRN:
		dims := r.ints()
		if len(dims) != 1 {
			return nil, fmt.Errorf("graphfile: lrn %q malformed", name)
		}
		return &nn.LRN{
			LayerName: name, Size: dims[0],
			Alpha: f32frombits(r.u32()), Beta: f32frombits(r.u32()), K: f32frombits(r.u32()),
		}, nil
	case kindConcat:
		return &nn.Concat{LayerName: name}, nil
	case kindDropout:
		return &nn.Dropout{LayerName: name, Ratio: f32frombits(r.u32())}, nil
	case kindFC:
		dims := r.ints()
		if len(dims) != 2 {
			return nil, fmt.Errorf("graphfile: fc %q malformed", name)
		}
		inF, outF := dims[0], dims[1]
		wAt, nw := r.fp16Run()
		bAt, nb := r.fp16Run()
		if r.err != nil {
			return nil, r.err
		}
		if inF <= 0 || outF <= 0 {
			return nil, fmt.Errorf("graphfile: fc %q has invalid geometry %v", name, dims)
		}
		if nw != product(outF, inF) || nb != outF {
			return nil, fmt.Errorf("graphfile: fc %q weight sizes inconsistent", name)
		}
		f := &nn.FullyConnected{LayerName: name, InF: inF, OutF: outF}
		f.Params().DeferFP16(file, wAt, bAt)
		return f, nil
	case kindSoftmax:
		return &nn.Softmax{LayerName: name}, nil
	default:
		return nil, fmt.Errorf("graphfile: unknown layer kind %d (%q)", kind, name)
	}
}

// product multiplies positive dimensions, saturating just above maxLen.
// Four dimensions of up to maxLen each can overflow int, and a wrapped
// product could match a short weight blob.
func product(dims ...int) int {
	p := 1
	for _, d := range dims {
		if d > 0 && p > maxLen/d {
			return maxLen + 1
		}
		p *= d
	}
	return p
}

func f32bits(f float32) uint32     { return math.Float32bits(f) }
func f32frombits(b uint32) float32 { return math.Float32frombits(b) }
