package half

import (
	"flag"
	"math"
	"testing"
	"testing/quick"
)

var exhaustive = flag.Bool("exhaustive", false, "check RoundSlice against FromFloat32 on all 2^32 float32 bit patterns")

func TestRoundSliceInPlace(t *testing.T) {
	s := []float32{0.1, 0.2, 0.3}
	want := Rounded(s)
	RoundSlice(s)
	for i := range s {
		if s[i] != want[i] {
			t.Errorf("index %d: in-place %g, copy %g", i, s[i], want[i])
		}
	}
	// After rounding, re-rounding is a no-op (idempotence).
	again := Rounded(s)
	for i := range s {
		if again[i] != s[i] {
			t.Errorf("RoundSlice not idempotent at %d", i)
		}
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{1, 2.5, 2}
	if got := MaxAbsDiff(a, b); got != 1 {
		t.Errorf("MaxAbsDiff = %g, want 1", got)
	}
	if got := MaxAbsDiff(a, a); got != 0 {
		t.Errorf("MaxAbsDiff(a,a) = %g, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	MaxAbsDiff(a, b[:2])
}

// Property: RoundSlice output is always exactly representable in half.
func TestQuickRoundSliceRepresentable(t *testing.T) {
	f := func(src []float32) bool {
		RoundSlice(src)
		for _, v := range src {
			if math.IsNaN(float64(v)) {
				continue
			}
			if FromFloat32(v).Float32() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRoundSliceMatchesFromFloat32: RoundSlice gives every element the
// bits of FromFloat32(v).Float32(), NaN payloads and signed zeros
// included. It checks every 4099th bit pattern plus each sign and
// exponent with mantissas at the rounding edges (ties, carries, NaN
// payloads); -exhaustive checks all 2^32 patterns (a minute or two).
func TestRoundSliceMatchesFromFloat32(t *testing.T) {
	var bits []uint32
	step := uint64(4099)
	if *exhaustive {
		step = 1
	}
	for u := uint64(0); u < 1<<32; u += step {
		bits = append(bits, uint32(u))
		if len(bits) == 1<<16 {
			checkRoundSlice(t, bits)
			bits = bits[:0]
		}
	}
	for _, sign := range []uint32{0, 0x80000000} {
		for exp := uint32(0); exp <= 0xFF; exp++ {
			for _, man := range []uint32{0, 1, 0xFFF, 0x1000, 0x1001, 0x1FFF, 0x2000, 0x3000, 0x5000, 0x7FE000, 0x7FEFFF, 0x7FF000, 0x7FFFFF, 0x400000, 0x400001} {
				bits = append(bits, sign|exp<<23|man)
			}
		}
	}
	checkRoundSlice(t, bits)
}

// checkRoundSlice rounds the float32s with the given bit patterns
// through RoundSlice and compares each with the scalar conversion.
func checkRoundSlice(t *testing.T, bits []uint32) {
	t.Helper()
	s := make([]float32, len(bits))
	for i, b := range bits {
		s[i] = math.Float32frombits(b)
	}
	RoundSlice(s)
	for i, b := range bits {
		want := math.Float32bits(FromFloat32(math.Float32frombits(b)).Float32())
		if got := math.Float32bits(s[i]); got != want {
			t.Fatalf("RoundSlice(%#08x) = %#08x, FromFloat32 round trip gives %#08x", b, got, want)
		}
	}
}
