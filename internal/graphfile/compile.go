package graphfile

import (
	"fmt"
	"hash/crc32"

	"repro/internal/nn"
)

// Compile serializes g into an NCS graph blob. Weights are converted
// to binary16, mirroring the FP16 conversion mvNCCompile performs; the
// source graph is not modified, and weights it has not materialised
// stay unmaterialised: their values (a built layer's generated ones, a
// parsed layer's decoded runs) pass through one reused scratch buffer
// and are encoded from there.
//
// The blob embeds the graph topology, all parameters, and a CRC-32
// trailer. Parse(Compile(g)) yields a functionally identical network
// whose weights are the FP16-rounded originals.
func Compile(g *nn.Graph) ([]byte, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graphfile: refusing to compile invalid graph: %w", err)
	}
	var total nn.Stats
	var largest int64
	for _, ls := range g.PerLayerStats() {
		total = total.Add(ls.Stats)
		largest = max(largest, ls.Stats.Params)
	}
	names := g.LayerNames()
	// Two bytes per parameter, plus an allowance for the header and for
	// each layer's names, edges and geometry (GoogLeNet averages 54
	// bytes a layer), so the buffer is allocated once and the blob,
	// which a session keeps alive, carries little slack. The scratch
	// buffer holds the largest layer's parameters, so it never regrows.
	w := writer{
		buf:     make([]byte, 0, 2*total.Params+64*int64(len(names))+128),
		scratch: make([]float32, 0, largest),
	}
	w.buf = append(w.buf, Magic...)
	w.u32(Version)
	w.str(g.Name())
	w.ints(g.InputShape()...)
	w.str(g.Output())
	w.u64(uint64(total.MACs))
	w.u64(uint64(total.Params))

	w.uvarint(uint64(len(names)))
	for _, name := range names {
		if err := writeLayer(&w, g, name); err != nil {
			return nil, err
		}
		if w.err != nil {
			return nil, fmt.Errorf("graphfile: layer %q: %w", name, w.err)
		}
	}

	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf, nil
}

func writeLayer(w *writer, g *nn.Graph, name string) error {
	l := g.Layer(name)
	w.str(name)
	w.strs(g.InputsOf(name))
	switch t := l.(type) {
	case *nn.Conv:
		w.u8(kindConv)
		w.ints(t.InC, t.OutC, t.KH, t.KW, t.Stride, t.Pad)
		w.params(t)
	case *nn.Pool:
		w.u8(kindPool)
		flags := 0
		if t.PoolOp == nn.AvgPool {
			flags |= 1
		}
		if t.CeilMode {
			flags |= 2
		}
		if t.Global {
			flags |= 4
		}
		w.ints(t.K, t.Stride, t.Pad, flags)
	case *nn.ReLU:
		w.u8(kindReLU)
	case *nn.LRN:
		w.u8(kindLRN)
		w.ints(t.Size)
		w.u32(f32bits(t.Alpha))
		w.u32(f32bits(t.Beta))
		w.u32(f32bits(t.K))
	case *nn.Concat:
		w.u8(kindConcat)
	case *nn.Dropout:
		w.u8(kindDropout)
		w.u32(f32bits(t.Ratio))
	case *nn.FullyConnected:
		w.u8(kindFC)
		w.ints(t.InF, t.OutF)
		w.params(t)
	case *nn.Softmax:
		w.u8(kindSoftmax)
	default:
		return fmt.Errorf("graphfile: unsupported layer type %T (%s)", l, name)
	}
	return nil
}

// params writes a layer's weight run then its bias run, without
// materialising either (see Compile).
func (w *writer) params(l nn.Layer) {
	wv, bv := nn.ParamValues(l, &w.scratch)
	w.fp16Blob(wv)
	w.fp16Blob(bv)
}
