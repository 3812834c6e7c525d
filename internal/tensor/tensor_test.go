package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/half"
	"repro/internal/rng"
)

func TestShapeElems(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{1, 3, 224, 224}, 150528},
		{Shape{8}, 8},
		{Shape{}, 0},
		{Shape{2, 0, 3}, 0},
		{Shape{2, -1}, 0},
	}
	for _, c := range cases {
		if got := c.s.Elems(); got != c.want {
			t.Errorf("Elems(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeEqualCloneString(t *testing.T) {
	a := Shape{1, 2, 3}
	if !a.Equal(Shape{1, 2, 3}) {
		t.Error("Equal(same) = false")
	}
	if a.Equal(Shape{1, 2}) || a.Equal(Shape{1, 2, 4}) {
		t.Error("Equal(different) = true")
	}
	c := a.Clone()
	c[0] = 9
	if a[0] == 9 {
		t.Error("Clone aliases")
	}
	if a.String() != "(1, 2, 3)" {
		t.Errorf("String = %q", a.String())
	}
	empty, zero := Shape{}, Shape{0}
	if !a.Valid() || empty.Valid() || zero.Valid() {
		t.Error("Valid wrong")
	}
}

func TestNewAndAccess(t *testing.T) {
	x := New(2, 3, 4)
	if x.Elems() != 24 || x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatal("basic metadata wrong")
	}
	x.Set(7.5, 1, 2, 3)
	if x.At(1, 2, 3) != 7.5 {
		t.Error("Set/At round trip failed")
	}
	// Flat layout: offset of (1,2,3) in 2x3x4 is 1*12+2*4+3 = 23.
	if x.Data[23] != 7.5 {
		t.Error("row-major layout violated")
	}
}

func TestNewInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(3, 0)
}

func TestAtBoundsPanics(t *testing.T) {
	x := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("index %v should panic", idx)
				}
			}()
			x.At(idx...)
		}()
	}
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	x := FromSlice(d, 2, 3)
	if x.At(1, 2) != 6 {
		t.Error("FromSlice layout wrong")
	}
	d[0] = 99
	if x.At(0, 0) != 99 {
		t.Error("FromSlice must not copy")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	FromSlice(d, 7)
}

func TestCloneIndependence(t *testing.T) {
	x := New(2, 2)
	x.Fill(1)
	y := x.Clone()
	y.Set(5, 0, 0)
	if x.At(0, 0) != 1 {
		t.Error("Clone shares data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	x.Set(3, 1, 0) // flat index 6
	y := x.Reshape(3, 4)
	if y.At(1, 2) != 3 { // flat index 6
		t.Error("Reshape changed layout")
	}
	y.Set(8, 0, 0)
	if x.At(0, 0) != 8 {
		t.Error("Reshape must share the buffer")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad reshape should panic")
		}
	}()
	x.Reshape(5, 5)
}

func TestElementwiseOps(t *testing.T) {
	x := New(4)
	x.Fill(2)
	x.Scale(3)
	x.AddScalar(1)
	for i := range x.Data {
		if x.Data[i] != 7 {
			t.Fatalf("expected 7, got %g", x.Data[i])
		}
	}
	y := New(4)
	y.Fill(3)
	x.Add(y)
	if x.Data[0] != 10 {
		t.Error("Add wrong")
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Error("Zero wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch Add should panic")
		}
	}()
	x.Add(New(5))
}

func TestArgMax(t *testing.T) {
	x := FromSlice([]float32{0.1, 0.9, 0.3, 0.9}, 4)
	i, v := x.ArgMax()
	if i != 1 || v != 0.9 {
		t.Errorf("ArgMax = (%d, %g), want first maximum (1, 0.9)", i, v)
	}
	neg := FromSlice([]float32{-3, -1, -2}, 3)
	if i, _ := neg.ArgMax(); i != 1 {
		t.Error("ArgMax on negatives wrong")
	}
}

func TestQuantizeFP16(t *testing.T) {
	x := FromSlice([]float32{0.1, 1.0 / 3.0, 100.0 / 7.0}, 3)
	if x.IsFP16Exact() {
		t.Fatal("test values should not be FP16-exact")
	}
	x.QuantizeFP16()
	if !x.IsFP16Exact() {
		t.Error("QuantizeFP16 left non-representable values")
	}
	for _, v := range x.Data {
		if v != half.FromFloat32(v).Float32() {
			t.Error("element not representable after quantize")
		}
	}
}

func TestFillXavierStatistics(t *testing.T) {
	src := rng.New(1)
	x := New(64, 64, 3, 3)
	fanIn := 64 * 3 * 3
	x.FillXavier(src, fanIn)
	var sum, sum2 float64
	for _, v := range x.Data {
		sum += float64(v)
		sum2 += float64(v) * float64(v)
	}
	n := float64(x.Elems())
	mean := sum / n
	variance := sum2/n - mean*mean
	want := 1.0 / float64(fanIn)
	if math.Abs(mean) > 0.001 {
		t.Errorf("xavier mean = %g", mean)
	}
	if math.Abs(variance-want)/want > 0.1 {
		t.Errorf("xavier variance = %g, want ~%g", variance, want)
	}
}

func TestFillMSRAVariance(t *testing.T) {
	src := rng.New(2)
	x := New(10000)
	x.FillMSRA(src, 100)
	var sum2 float64
	for _, v := range x.Data {
		sum2 += float64(v) * float64(v)
	}
	variance := sum2 / float64(x.Elems())
	if math.Abs(variance-0.02)/0.02 > 0.1 {
		t.Errorf("msra variance = %g, want ~0.02", variance)
	}
}

func TestFillUniformRange(t *testing.T) {
	src := rng.New(3)
	x := New(1000)
	x.FillUniform(src, -2, 5)
	for _, v := range x.Data {
		if v < -2 || v >= 5 {
			t.Fatalf("uniform out of range: %g", v)
		}
	}
}

func TestFillNormalDeterminism(t *testing.T) {
	a, b := New(100), New(100)
	a.FillNormal(rng.New(9), 1, 0.5)
	b.FillNormal(rng.New(9), 1, 0.5)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different weights")
		}
	}
}

func TestFillPanicsOnBadFanIn(t *testing.T) {
	x := New(4)
	for _, f := range []func(){
		func() { x.FillXavier(rng.New(0), 0) },
		func() { x.FillMSRA(rng.New(0), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: Reshape preserves the flat data for arbitrary factorings.
func TestQuickReshapePreservesData(t *testing.T) {
	f := func(seed uint64, aRaw, bRaw uint8) bool {
		a := int(aRaw)%6 + 1
		b := int(bRaw)%6 + 1
		x := New(a, b)
		x.FillUniform(rng.New(seed), 0, 1)
		y := x.Reshape(b, a).Reshape(a * b)
		for i := range x.Data {
			if x.Data[i] != y.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: QuantizeFP16 is idempotent.
func TestQuickQuantizeIdempotent(t *testing.T) {
	f := func(data []float32) bool {
		if len(data) == 0 {
			return true
		}
		x := FromSlice(append([]float32(nil), data...), len(data))
		x.QuantizeFP16()
		once := append([]float32(nil), x.Data...)
		x.QuantizeFP16()
		for i := range once {
			a, b := once[i], x.Data[i]
			if a != b && !(math.IsNaN(float64(a)) && math.IsNaN(float64(b))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTensorString(t *testing.T) {
	if New(1, 3).String() != "tensor(1, 3)" {
		t.Errorf("String = %q", New(1, 3).String())
	}
}

// Zero resets every element to 0.
func (t *T) Zero() {
	clear(t.Data)
}

// AddScalar adds f to every element in place.
func (t *T) AddScalar(f float32) {
	for i := range t.Data {
		t.Data[i] += f
	}
}

// Add accumulates o into t elementwise. Shapes must match.
func (t *T) Add(o *T) {
	if !t.ShapeOf.Equal(o.ShapeOf) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", t.ShapeOf, o.ShapeOf))
	}
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
}

// Sum returns the sum of all elements (float64 accumulator).
func (t *T) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}
