// Package nn implements the convolutional-network inference engine the
// reproduction runs on every target device. It provides the layer set
// GoogLeNet needs (convolution, max/average pooling, ReLU, LRN, depth
// concatenation, dropout, fully connected, softmax), a DAG graph
// executor, and builders for the full GoogLeNet (Inception-v1)
// architecture and a scaled-down MicroGoogLeNet used by the accuracy
// experiments.
//
// One engine serves both precisions: FP32 is plain float32 execution;
// FP16 models the Myriad 2 datapath by rounding weights at compile
// time and every activation tensor through IEEE binary16 after each
// layer, with float32 accumulation inside reductions (the VAU's FP32
// accumulate mode). The Fig. 7 confidence differences in the paper are
// reproduced by this genuine rounding, not by injected noise.
//
// Weights are lazy (see Params): a layer holds its geometry and a
// source for its values, and fills float32 tensors on first read, so
// the timing experiments, which cost layers from their geometry alone,
// never allocate them.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Precision selects the numeric mode of a forward pass.
type Precision int

const (
	// FP32 executes in plain float32 (the CPU/GPU Caffe path).
	FP32 Precision = iota
	// FP16 rounds every activation through binary16 after each layer
	// (the VPU path; weights are rounded at graph-compile time) while
	// reductions accumulate in float32, the VAU's FP32-accumulate
	// option.
	FP16
	// FP16Strict additionally keeps the accumulators of convolution
	// and fully connected reductions in binary16 — the VAU's native
	// FP16 MAC path. It diverges measurably further from FP32 (the
	// magnitude the paper's Fig. 7b reports) at a substantial software
	// emulation cost.
	FP16Strict
)

// String returns the precision name.
func (p Precision) String() string {
	switch p {
	case FP16:
		return "FP16"
	case FP16Strict:
		return "FP16-strict"
	default:
		return "FP32"
	}
}

// strictLayer is implemented by layers with long reductions that have
// a dedicated FP16-accumulate path.
type strictLayer interface {
	// ForwardFP16Strict computes the layer with binary16 accumulators.
	ForwardFP16Strict(out *tensor.T, ins []*tensor.T)
}

// Stats describes the static cost of one layer at batch size 1. The
// device models in internal/vpu and internal/devsim convert these
// counts into time using their calibrated roofline parameters.
type Stats struct {
	MACs        int64 // multiply-accumulate operations
	Params      int64 // learnable parameters (weights + biases)
	InputElems  int64 // total elements read across all inputs
	OutputElems int64 // elements written
}

// Add returns the elementwise sum of two Stats.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		MACs:        s.MACs + o.MACs,
		Params:      s.Params + o.Params,
		InputElems:  s.InputElems + o.InputElems,
		OutputElems: s.OutputElems + o.OutputElems,
	}
}

// Layer is one operator in the network graph. Implementations are
// stateless at execution time apart from their weights; Forward must
// be safe for concurrent use on distinct output tensors, since the
// multi-VPU scheduler runs devices in parallel.
type Layer interface {
	// Name returns the unique layer name within its graph.
	Name() string
	// Kind returns the operator type ("conv", "pool", ...).
	Kind() string
	// OutShape computes the output shape from the input shapes
	// (batch excluded; shapes are CHW or flat). It returns an error
	// for incompatible inputs.
	OutShape(in []tensor.Shape) (tensor.Shape, error)
	// Forward computes the layer function. ins carries one tensor per
	// declared input, each shaped N×(input shape); out has shape
	// N×OutShape and is fully overwritten. Graph.Forward relies on
	// that: out is a reused buffer still holding an earlier forward's
	// values, and never shares memory with ins.
	Forward(out *tensor.T, ins []*tensor.T)
	// Stats reports the per-inference cost at batch 1 for the given
	// input shapes.
	Stats(in []tensor.Shape) Stats
}

// weighted is implemented by layers that carry learnable parameters
// (Conv, FullyConnected).
type weighted interface {
	Layer
	// Params returns the layer's parameter source.
	Params() *Params
	// paramShapes is the one statement of the layer's parameter
	// geometry: the tensors are allocated, counted and serialized from
	// it.
	paramShapes() (w, b tensor.Shape)
}

// shapeError builds a descriptive error for OutShape failures.
func shapeError(layer, format string, args ...any) error {
	return fmt.Errorf("nn: layer %q: %s", layer, fmt.Sprintf(format, args...))
}

// wantInputs validates the input arity of a layer.
func wantInputs(layer string, in []tensor.Shape, n int) error {
	if len(in) != n {
		return shapeError(layer, "expected %d input(s), got %d", n, len(in))
	}
	return nil
}

// chw extracts (C, H, W) from a 3-D shape.
func chw(layer string, s tensor.Shape) (c, h, w int, err error) {
	if len(s) != 3 {
		return 0, 0, 0, shapeError(layer, "expected CHW input, got %v", s)
	}
	return s[0], s[1], s[2], nil
}

// batchOf verifies that t is a batched tensor (N×shape) and returns N.
func batchOf(t *tensor.T, shape tensor.Shape) int {
	if t.Rank() != len(shape)+1 {
		panic(fmt.Sprintf("nn: tensor rank %d does not carry batch over shape %v", t.Rank(), shape))
	}
	for i, d := range shape {
		if t.Dim(i+1) != d {
			panic(fmt.Sprintf("nn: tensor %v does not match batched shape %v", t.ShapeOf, shape))
		}
	}
	return t.Dim(0)
}
