// Package tensor implements the dense NCHW float32 tensors that flow
// through the inference engine. It deliberately stores a single dtype:
// the FP16 execution mode of the engine is modelled by rounding every
// element through binary16 (see internal/half), which keeps one code
// path for both the CPU (FP32) and VPU (FP16) targets — the comparison
// at the heart of the paper's Fig. 7.
package tensor

import (
	"fmt"

	"repro/internal/half"
)

// Shape describes tensor dimensions, outermost first. The inference
// engine uses NCHW (batch, channels, height, width) for activations,
// (outC, inC, kH, kW) for convolution weights, and 1-D shapes for
// biases.
type Shape []int

// Elems returns the number of elements the shape spans.
func (s Shape) Elems() int {
	if len(s) == 0 {
		return 0
	}
	n := 1
	for _, d := range s {
		if d <= 0 {
			return 0
		}
		n *= d
	}
	return n
}

// Equal reports whether s and o have identical dimensions.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of s.
func (s Shape) Clone() Shape { return append(Shape(nil), s...) }

// String formats the shape as, e.g., "(1, 3, 224, 224)".
func (s Shape) String() string {
	out := "("
	for i, d := range s {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprint(d)
	}
	return out + ")"
}

// Valid reports whether all dimensions are positive.
func (s Shape) Valid() bool {
	if len(s) == 0 {
		return false
	}
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// T is a dense tensor: a shape plus a flat float32 buffer in row-major
// (C-contiguous) order.
type T struct {
	ShapeOf Shape
	Data    []float32
}

// New allocates a zero tensor of the given shape. It panics on an
// invalid shape: shapes are static properties of the network graph and
// an invalid one is a programming error.
func New(shape ...int) *T {
	s := Shape(shape)
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &T{ShapeOf: s.Clone(), Data: make([]float32, s.Elems())}
}

// FromSlice wraps data in a tensor of the given shape. The slice is
// used directly (not copied); its length must match the shape.
func FromSlice(data []float32, shape ...int) *T {
	s := Shape(shape)
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	if len(data) != s.Elems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)",
			len(data), s, s.Elems()))
	}
	return &T{ShapeOf: s.Clone(), Data: data}
}

// Clone returns a deep copy of t.
func (t *T) Clone() *T {
	c := &T{ShapeOf: t.ShapeOf.Clone(), Data: make([]float32, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// Elems returns the element count.
func (t *T) Elems() int { return len(t.Data) }

// Dim returns dimension i of the shape.
func (t *T) Dim(i int) int { return t.ShapeOf[i] }

// Rank returns the number of dimensions.
func (t *T) Rank() int { return len(t.ShapeOf) }

// Reshape returns a view of t with a new shape spanning the same
// number of elements. The data buffer is shared.
func (t *T) Reshape(shape ...int) *T {
	s := Shape(shape)
	if s.Elems() != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes element count", t.ShapeOf, s))
	}
	return &T{ShapeOf: s.Clone(), Data: t.Data}
}

// At reads the element at the given multi-index.
//
//ncsw:allow unusedexport tests in imagenet (TestPPMComments) and nn (TestConvKnownValues, convNaive) read elements with it
func (t *T) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set writes the element at the given multi-index.
//
//ncsw:allow unusedexport nn's convNaive, the reference of TestConvMatchesNaive, writes its output with it
func (t *T) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *T) offset(idx []int) int {
	if len(idx) != len(t.ShapeOf) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.ShapeOf)))
	}
	off := 0
	for i, ix := range idx {
		d := t.ShapeOf[i]
		if ix < 0 || ix >= d {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", ix, i, d))
		}
		off = off*d + ix
	}
	return off
}

// Fill sets every element to v.
//
//ncsw:allow unusedexport tests in nn, imagenet (TestResizeConstantImage) and graphfile (TestHandleSnapshotsSource) set inputs with it
func (t *T) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Scale multiplies every element by f in place.
//
//ncsw:allow unusedexport nn's TestQuickConvLinearity scales its input with it
func (t *T) Scale(f float32) {
	for i := range t.Data {
		t.Data[i] *= f
	}
}

// ArgMax returns the flat index of the largest element and its value.
// For the classifier output this is the top-1 prediction.
func (t *T) ArgMax() (int, float32) {
	best, bv := 0, t.Data[0]
	for i, v := range t.Data[1:] {
		if v > bv {
			best, bv = i+1, v
		}
	}
	return best, bv
}

// QuantizeFP16 rounds every element through binary16 in place,
// making t an exactly-representable FP16 tensor (stored as float32).
func (t *T) QuantizeFP16() {
	half.RoundSlice(t.Data)
}

// IsFP16Exact reports whether every element is exactly representable
// in binary16, i.e. whether QuantizeFP16 would be a no-op.
//
//ncsw:allow unusedexport FP16 outputs are checked with it by tests in nn, graphfile (TestParsedWeightsAreFP16Rounded), vpu (TestInferFunctional) and ncs (TestFunctionalInference)
func (t *T) IsFP16Exact() bool {
	for _, v := range t.Data {
		if half.FromFloat32(v).Float32() != v {
			return false
		}
	}
	return true
}

// String gives a compact description (shape only; tensors are large).
func (t *T) String() string {
	return fmt.Sprintf("tensor%v", t.ShapeOf)
}
