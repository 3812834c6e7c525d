package nn

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// expf is float32 exp. A dedicated float32 implementation is not worth
// the complexity: math.Exp is correctly rounded in float64 and a single
// rounding to float32 keeps the error below 1 ULP.
func expf(x float32) float32 { return float32(math.Exp(float64(x))) }

// InputName is the reserved node name for the graph input tensor.
const InputName = "data"

// node ties a layer to its input edges.
type node struct {
	layer    Layer
	inputs   []string
	outShape tensor.Shape
}

// Graph is a directed acyclic network assembled layer by layer. Layers
// must be added in a valid topological order (inputs before
// consumers), which every real network description satisfies — Caffe
// prototxts are written the same way.
type Graph struct {
	name       string
	inputShape tensor.Shape // CHW, batch excluded
	order      []string
	nodes      map[string]*node
	output     string
	// plan caches the execution schedule; Add and SetOutput drop it.
	plan atomic.Pointer[plan]
}

// NewGraph creates an empty graph with the given name and CHW input
// shape.
func NewGraph(name string, inputShape tensor.Shape) *Graph {
	if !inputShape.Valid() {
		panic(fmt.Sprintf("nn: invalid input shape %v", inputShape))
	}
	return &Graph{
		name:       name,
		inputShape: inputShape.Clone(),
		nodes:      map[string]*node{},
	}
}

// Name returns the graph name.
func (g *Graph) Name() string { return g.name }

// InputShape returns the CHW input shape.
func (g *Graph) InputShape() tensor.Shape { return g.inputShape.Clone() }

// Add appends a layer consuming the named inputs ("data" or earlier
// layer names) and returns the layer name for chaining. Shape
// inference runs immediately so a malformed network fails at build
// time, not at execution.
func (g *Graph) Add(l Layer, inputs ...string) (string, error) {
	name := l.Name()
	if name == InputName {
		return "", fmt.Errorf("nn: layer name %q is reserved", InputName)
	}
	if _, dup := g.nodes[name]; dup {
		return "", fmt.Errorf("nn: duplicate layer name %q", name)
	}
	if len(inputs) == 0 {
		return "", fmt.Errorf("nn: layer %q has no inputs", name)
	}
	shapes := make([]tensor.Shape, len(inputs))
	for i, in := range inputs {
		s, err := g.shapeOf(in)
		if err != nil {
			return "", fmt.Errorf("nn: layer %q: %w", name, err)
		}
		shapes[i] = s
	}
	out, err := l.OutShape(shapes)
	if err != nil {
		return "", err
	}
	g.nodes[name] = &node{layer: l, inputs: append([]string(nil), inputs...), outShape: out}
	g.order = append(g.order, name)
	g.output = name
	g.plan.Store(nil)
	return name, nil
}

// MustAdd is Add for static builders where failure is a bug.
func (g *Graph) MustAdd(l Layer, inputs ...string) string {
	name, err := g.Add(l, inputs...)
	if err != nil {
		panic(err)
	}
	return name
}

func (g *Graph) shapeOf(name string) (tensor.Shape, error) {
	if name == InputName {
		return g.inputShape, nil
	}
	n, ok := g.nodes[name]
	if !ok {
		return nil, fmt.Errorf("unknown input %q (layers must be added after their inputs)", name)
	}
	return n.outShape, nil
}

// SetOutput overrides the output node (defaults to the last added).
func (g *Graph) SetOutput(name string) error {
	if _, ok := g.nodes[name]; !ok {
		return fmt.Errorf("nn: unknown output %q", name)
	}
	g.output = name
	g.plan.Store(nil)
	return nil
}

// Output returns the output node name.
func (g *Graph) Output() string { return g.output }

// OutputShape returns the CHW/flat shape of the output node.
func (g *Graph) OutputShape() tensor.Shape {
	return g.nodes[g.output].outShape.Clone()
}

// Len returns the number of layers.
func (g *Graph) Len() int { return len(g.order) }

// LayerNames returns the topological layer order.
func (g *Graph) LayerNames() []string { return append([]string(nil), g.order...) }

// Layer returns the named layer, or nil.
func (g *Graph) Layer(name string) Layer {
	if n, ok := g.nodes[name]; ok {
		return n.layer
	}
	return nil
}

// InputsOf returns the input edge names of a layer.
func (g *Graph) InputsOf(name string) []string {
	if n, ok := g.nodes[name]; ok {
		return append([]string(nil), n.inputs...)
	}
	return nil
}

// Forward runs a batched inference. in must have shape N×InputShape.
// With FP16 precision the input and every intermediate activation are
// rounded through binary16 (weights are assumed already quantized via
// QuantizeWeightsFP16, which the graph compiler performs).
//
// Every layer is per-image at inference, so Forward splits the batch
// into min(GOMAXPROCS, N) contiguous sub-batches, runs each through
// the layers on its own goroutine and writes its rows straight into
// the one N×out tensor it returns. Each image sees the same arithmetic
// at any batch size or core count, so the output bits do not depend on
// either. Intermediate activations live in pooled buffers (see plan),
// so the returned tensor is the only allocation that grows with the
// batch. Forward is safe for concurrent use.
func (g *Graph) Forward(in *tensor.T, prec Precision) (*tensor.T, error) {
	n := batchOf(in, g.inputShape)
	p, err := g.execPlan()
	if err != nil {
		return nil, err
	}
	chunks := max(1, min(runtime.GOMAXPROCS(0), n))
	per := g.inputShape.Elems()
	outShape := p.vals[p.out].shape
	outPer := outShape.Elems()
	out := &tensor.T{ShapeOf: append(tensor.Shape{n}, outShape...), Data: make([]float32, n*outPer)}
	panics := make([]any, chunks)
	var wg sync.WaitGroup
	for c := range chunks {
		// Sub-batch c holds images [lo, hi); sizes differ by at most one.
		lo, hi := c*n/chunks, (c+1)*n/chunks
		sub := &tensor.T{ShapeOf: append(tensor.Shape{hi - lo}, g.inputShape...), Data: in.Data[lo*per : hi*per]}
		run := func() {
			// A panic reaches the caller's goroutine, as it would
			// without workers.
			defer func() { panics[c] = recover() }()
			p.run(sub, out.Data[lo*outPer:hi*outPer], prec)
		}
		if c == chunks-1 {
			run() // the caller takes the last sub-batch
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	return out, nil
}

// Prediction is one image's top-1 class and its confidence.
type Prediction struct {
	Class int
	Conf  float32
}

// Pass is one network run at one precision.
type Pass struct {
	Net  *Graph
	Prec Precision
}

// ClassifyBatch is how many images Classify stacks into one Forward:
// few, as Forward sizes its pooled activation arenas to the batch.
const ClassifyBatch = 8

// Classify forwards images input(0) .. input(n-1) through every pass
// (all sharing one input shape) and returns each pass's predictions in
// input order. Forward gives every image the bits of a forward of that
// image alone (TestForwardBatchIndependent), so the predictions depend
// on neither the batch size nor the core count.
func Classify(n int, input func(i int) *tensor.T, passes ...Pass) ([][]Prediction, error) {
	shape := passes[0].Net.InputShape()
	per := shape.Elems()
	preds := make([][]Prediction, len(passes))
	buf := make([]float32, min(n, ClassifyBatch)*per)
	for b := 0; b < n; b += ClassifyBatch {
		m := min(ClassifyBatch, n-b)
		in := &tensor.T{ShapeOf: append(tensor.Shape{m}, shape...), Data: buf[:m*per]}
		for i := range m {
			img := input(b + i)
			if len(img.Data) != per {
				return nil, fmt.Errorf("nn: classify input %d has %d values, want %d (%v)", b+i, len(img.Data), per, shape)
			}
			copy(in.Data[i*per:(i+1)*per], img.Data)
		}
		for k, ps := range passes {
			out, err := ps.Net.Forward(in, ps.Prec)
			if err != nil {
				return nil, err
			}
			classes := len(out.Data) / m
			for i := range m {
				class, conf := tensor.FromSlice(out.Data[i*classes:(i+1)*classes], classes).ArgMax()
				preds[k] = append(preds[k], Prediction{class, conf})
			}
		}
	}
	return preds, nil
}

// QuantizeWeightsFP16 rounds every parameter tensor through binary16
// in place, filling any not yet read first. The NCSDK graph compiler
// performs the same conversion when building the NCS graph file.
//
//ncsw:allow unusedexport FP16 reference nets of nn tests (TestForwardGolden), graphfile's TestParsedGraphProducesSameOutputsAsQuantizedOriginal and vpu's TestInferFunctional are built with it
func (g *Graph) QuantizeWeightsFP16() {
	for _, name := range g.order {
		if l, ok := g.nodes[name].layer.(weighted); ok {
			w, b := tensorsOf(l)
			w.QuantizeFP16()
			b.QuantizeFP16()
		}
	}
}

// LayerStats pairs a layer name with its static cost.
type LayerStats struct {
	Name  string
	Kind  string
	Out   tensor.Shape
	Stats Stats
}

// PerLayerStats returns the per-layer cost table in topological order
// (batch 1). The device cost models and the profiling tool consume it.
func (g *Graph) PerLayerStats() []LayerStats {
	out := make([]LayerStats, 0, len(g.order))
	for _, name := range g.order {
		nd := g.nodes[name]
		shapes := make([]tensor.Shape, len(nd.inputs))
		for i, inp := range nd.inputs {
			shapes[i], _ = g.shapeOf(inp)
		}
		out = append(out, LayerStats{
			Name:  name,
			Kind:  nd.layer.Kind(),
			Out:   nd.outShape.Clone(),
			Stats: nd.layer.Stats(shapes),
		})
	}
	return out
}

// TotalStats sums PerLayerStats (batch 1).
func (g *Graph) TotalStats() Stats {
	var total Stats
	for _, ls := range g.PerLayerStats() {
		total = total.Add(ls.Stats)
	}
	return total
}

// Summary renders a human-readable per-layer table, the analogue of
// mvNCProfile's report.
func (g *Graph) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q  input %v  output %v\n", g.name, g.inputShape, g.OutputShape())
	fmt.Fprintf(&b, "%-24s %-9s %-18s %12s %12s\n", "layer", "kind", "output", "MACs", "params")
	var total Stats
	for _, ls := range g.PerLayerStats() {
		fmt.Fprintf(&b, "%-24s %-9s %-18s %12d %12d\n",
			ls.Name, ls.Kind, ls.Out.String(), ls.Stats.MACs, ls.Stats.Params)
		total = total.Add(ls.Stats)
	}
	fmt.Fprintf(&b, "%-24s %-9s %-18s %12d %12d\n", "TOTAL", "", "", total.MACs, total.Params)
	return b.String()
}

// Validate re-checks graph integrity: unique names, resolvable edges,
// consistent shape inference, acyclicity (implied by ordering). It is
// used by the graph-file parser to reject corrupted blobs.
func (g *Graph) Validate() error {
	if len(g.order) == 0 {
		return fmt.Errorf("nn: graph %q is empty", g.name)
	}
	if len(g.order) != len(g.nodes) {
		return fmt.Errorf("nn: graph %q order/node count mismatch", g.name)
	}
	seen := map[string]bool{InputName: true}
	for _, name := range g.order {
		nd, ok := g.nodes[name]
		if !ok {
			return fmt.Errorf("nn: node %q in order but missing", name)
		}
		shapes := make([]tensor.Shape, len(nd.inputs))
		for i, inp := range nd.inputs {
			if !seen[inp] {
				return fmt.Errorf("nn: layer %q consumes %q before it is produced", name, inp)
			}
			shapes[i], _ = g.shapeOf(inp)
		}
		out, err := nd.layer.OutShape(shapes)
		if err != nil {
			return err
		}
		if !out.Equal(nd.outShape) {
			return fmt.Errorf("nn: layer %q cached shape %v, recomputed %v", name, nd.outShape, out)
		}
		seen[name] = true
	}
	if _, ok := g.nodes[g.output]; !ok {
		return fmt.Errorf("nn: output %q missing", g.output)
	}
	return nil
}
