package graphfile

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/nn"
)

// Compile serializes g into an NCS graph blob: CompileHandle followed
// by Bytes. Weights are converted to binary16, mirroring the FP16
// conversion mvNCCompile performs; the source graph is not modified,
// and weights it has not materialised stay unmaterialised.
//
// The blob embeds the graph topology, all parameters, and a CRC-32
// trailer. Parse(Compile(g)) yields a functionally identical network
// whose weights are the FP16-rounded originals.
func Compile(g *nn.Graph) ([]byte, error) {
	h, err := CompileHandle(g)
	if err != nil {
		return nil, err
	}
	return h.Bytes(), nil
}

// Handle is a graph file: either one this process compiled, whose
// payload waits for the first Bytes call, or bytes from outside
// (FromBytes). A device allocates a graph from a handle (Handle.Parse).
type Handle struct {
	n int
	// structure is a compiled handle's first pass: the blob without its
	// CRC trailer and without the values of its parameter runs, each run
	// keeping its length. It is nil for bytes from outside.
	structure []byte
	// gaps are the runs' values left out of structure, and slots the
	// sources that fill them; the fill drops both.
	gaps  []gap
	slots []slot
	once  sync.Once
	buf   []byte
}

// gap is n bytes of run values that belong just before structure
// offset at.
type gap struct{ at, n int }

// CompileHandle runs the first of Compile's two passes: it writes the
// structure and, for each parameter run, its length, which the
// geometry fixes, so the handle knows the blob's exact length at once.
// The second pass fills the runs on up to GOMAXPROCS workers, one layer
// at a time, largest first: each worker streams its layer's values (a
// built layer's generated ones, a parsed layer's decoded runs) through
// its own fixed-size scratch and encodes them into the blob. It runs,
// with the CRC, on the first Bytes call, and the blob is the same byte
// for byte at any core count.
//
// The handle takes each unread layer's immutable value source
// (nn.Unread), so reading or editing g afterwards does not change its
// bytes. A layer whose tensors already exist can still be edited, so
// when g has one the second pass runs before CompileHandle returns.
func CompileHandle(g *nn.Graph) (*Handle, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graphfile: refusing to compile invalid graph: %w", err)
	}
	total := g.TotalStats()
	names := g.LayerNames()
	// An allowance for the header and for each layer's names, edges and
	// geometry (GoogLeNet averages 54 bytes a layer), so the structure
	// is allocated once.
	w := writer{buf: make([]byte, 0, 64*len(names)+128)}
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
	h := &Handle{n: len(w.buf) + w.skipped + 4, structure: w.buf, gaps: w.gaps, slots: w.slots}
	if slices.ContainsFunc(h.slots, func(s slot) bool { return s.layer != nil }) {
		h.Bytes()
	}
	return h, nil
}

// FromBytes wraps a graph file that comes from outside the program.
// Every Parse of the handle checks it in full, CRC included.
func FromBytes(blob []byte) *Handle { return &Handle{n: len(blob), buf: blob} }

// Len is the length of the blob in bytes, known without building it.
func (h *Handle) Len() int { return h.n }

// Bytes returns the blob, building a compiled handle's payload on the
// first call. Every caller shares the one array, so it must be treated
// as read-only; a compiled handle's has no spare capacity.
func (h *Handle) Bytes() []byte {
	if h.structure != nil {
		h.once.Do(h.fill)
	}
	return h.buf
}

// fill is Compile's second pass: it lays the structure out around the
// gaps, encodes every run and appends the CRC.
func (h *Handle) fill() {
	buf := make([]byte, h.n)
	from, to := 0, 0
	for _, g := range h.gaps {
		to += copy(buf[to:], h.structure[from:g.at]) + g.n
		from = g.at
	}
	copy(buf[to:], h.structure[from:])
	fillSlots(buf, h.slots)
	binary.LittleEndian.PutUint32(buf[h.n-4:], crc32.ChecksumIEEE(buf[:h.n-4]))
	h.buf, h.gaps, h.slots = buf, nil, nil
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

// params writes a layer's weight run then its bias run as reserved
// slots, which fillSlots encodes once the blob is built. An unread
// layer's slot keeps its value source, a materialised one the layer.
func (w *writer) params(l nn.Layer) {
	nw, nb := nn.ParamLens(l)
	s := slot{nw: nw, nb: nb, w: w.reserve(nw), b: w.reserve(nb)}
	var unread bool
	if s.src, unread = nn.Unread(l); !unread {
		s.layer = l
	}
	w.slots = append(w.slots, s)
}

// slot is a layer's reserved parameter runs: nw weights at byte offset
// w of the blob and nb bias values at offset b, two bytes a value,
// filled from src, or from layer when it is set.
type slot struct {
	src    nn.ParamSource
	layer  nn.Layer
	nw, nb int
	w, b   int
}

// chunkLen is the number of values a compile worker generates and
// encodes at a time: a 64 KB scratch, which stays in cache, instead of
// one sized to the largest layer (4.1 MB for GoogLeNet's classifier).
const chunkLen = 16 << 10

// fillSlots encodes every slot's values into buf: one layer per task,
// largest first, on min(GOMAXPROCS, layers) workers, the caller's
// goroutine among them, each streaming values through its own scratch.
// Slots are disjoint, so the bytes do not depend on which worker fills
// which slot.
func fillSlots(buf []byte, slots []slot) {
	if len(slots) == 0 {
		return
	}
	slices.SortStableFunc(slots, func(a, b slot) int { return cmp.Compare(b.nw+b.nb, a.nw+a.nb) })
	scratchLen := max(1, min(chunkLen, slots[0].nw+slots[0].nb))
	var next atomic.Int64
	work := func() {
		scratch := make([]float32, scratchLen)
		for i := next.Add(1) - 1; i < int64(len(slots)); i = next.Add(1) - 1 {
			s := slots[i]
			encode := func(off int, vals []float32) {
				at := s.w + 2*off
				if off >= s.nw {
					at = s.b + 2*(off-s.nw)
				}
				encodeFP16(buf[at:at+2*len(vals)], vals)
			}
			if s.layer != nil {
				nn.ParamChunks(s.layer, scratch, encode)
			} else {
				s.src.Chunks(scratch, encode)
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(slots))
	panics := make([]any, workers)
	var wg sync.WaitGroup
	for i := range workers {
		run := func() {
			// A panic reaches the caller's goroutine, as it would
			// without workers.
			defer func() { panics[i] = recover() }()
			work()
		}
		if i == workers-1 {
			run() // the caller is the last worker
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
