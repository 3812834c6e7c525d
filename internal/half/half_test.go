package half

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// Special values the tests below check conversions and predicates
// against.
const (
	// PositiveZero is +0: all bits clear.
	PositiveZero Float16 = 0x0000
	// NegativeZero is -0: sign bit only.
	NegativeZero Float16 = 0x8000
	// MinSubnormal is the smallest positive subnormal half: 2^-24.
	MinSubnormal Float16 = 0x0001
	// QuietNaN is one canonical NaN encoding; IsNaN accepts all of them.
	QuietNaN Float16 = 0x7E00
	// MaxValue is the largest finite half: 65504.
	MaxValue Float16 = 0x7BFF
	// MinNormal is the smallest positive normal half: 2^-14.
	MinNormal Float16 = 0x0400
)

// IsInf reports whether h is an infinity. sign > 0 tests only +Inf,
// sign < 0 only -Inf, and sign == 0 either.
func (h Float16) IsInf(sign int) bool {
	if h&expMask != expMask || h&mantissaMask != 0 {
		return false
	}
	switch {
	case sign > 0:
		return h&signMask == 0
	case sign < 0:
		return h&signMask != 0
	default:
		return true
	}
}

// IsSubnormal reports whether h is a nonzero subnormal.
func (h Float16) IsSubnormal() bool {
	return h&expMask == 0 && h&mantissaMask != 0
}

// IsFinite reports whether h is neither infinite nor NaN.
func (h Float16) IsFinite() bool { return h&expMask != expMask }

func TestKnownConversions(t *testing.T) {
	cases := []struct {
		name string
		f    float32
		bits uint16
	}{
		{"zero", 0, 0x0000},
		{"negzero", float32(math.Copysign(0, -1)), 0x8000},
		{"one", 1, 0x3C00},
		{"negone", -1, 0xBC00},
		{"two", 2, 0x4000},
		{"half", 0.5, 0x3800},
		{"sixty-five-k", 65504, 0x7BFF},
		{"min-normal", 6.103515625e-05, 0x0400},
		{"min-subnormal", 5.960464477539063e-08, 0x0001},
		{"pi", float32(math.Pi), 0x4248},
		{"third", float32(1.0 / 3.0), 0x3555},
		{"thousand", 1000, 0x63D0},
		{"img-mean", 104, 0x5680},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := FromFloat32(c.f)
			if got.Bits() != c.bits {
				t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.f, got.Bits(), c.bits)
			}
		})
	}
}

func TestRoundTripExactForAllFiniteHalves(t *testing.T) {
	for b := uint32(0); b <= 0xFFFF; b++ {
		h := FromBits(uint16(b))
		if h.IsNaN() {
			continue
		}
		back := FromFloat32(h.Float32())
		if back != h {
			t.Fatalf("round trip failed for bits %#04x: got %#04x", b, back.Bits())
		}
	}
}

func TestNaNRoundTripStaysNaN(t *testing.T) {
	for b := uint32(0); b <= 0xFFFF; b++ {
		h := FromBits(uint16(b))
		if !h.IsNaN() {
			continue
		}
		f := h.Float32()
		if !math.IsNaN(float64(f)) {
			t.Fatalf("bits %#04x should expand to NaN, got %g", b, f)
		}
		if !FromFloat32(f).IsNaN() {
			t.Fatalf("bits %#04x lost NaN-ness on round trip", b)
		}
	}
}

func TestOverflowToInfinity(t *testing.T) {
	if got := FromFloat32(65520); got != PositiveInfinity {
		t.Errorf("FromFloat32(65520) = %#04x, want +Inf (65520 is the overflow threshold)", got.Bits())
	}
	if got := FromFloat32(-65520); got != NegativeInfinity {
		t.Errorf("FromFloat32(-65520) = %#04x, want -Inf", got.Bits())
	}
	// 65519.999... rounds down to MaxValue.
	if got := FromFloat32(65519); got != MaxValue {
		t.Errorf("FromFloat32(65519) = %#04x, want MaxValue", got.Bits())
	}
	if got := FromFloat32(float32(math.Inf(1))); got != PositiveInfinity {
		t.Errorf("FromFloat32(+Inf) = %#04x", got.Bits())
	}
}

func TestUnderflowToZero(t *testing.T) {
	// Half of the smallest subnormal rounds to zero (ties-to-even).
	tiny := float32(2.980232238769531e-08) // 2^-25 exactly
	if got := FromFloat32(tiny); got != PositiveZero {
		t.Errorf("FromFloat32(2^-25) = %#04x, want +0 (tie rounds to even)", got.Bits())
	}
	// Just above the tie rounds up to the smallest subnormal.
	if got := FromFloat32(tiny * 1.0001); got != MinSubnormal {
		t.Errorf("FromFloat32(just above 2^-25) = %#04x, want MinSubnormal", got.Bits())
	}
	if got := FromFloat32(-tiny); got != NegativeZero {
		t.Errorf("FromFloat32(-2^-25) = %#04x, want -0", got.Bits())
	}
}

func TestRoundToNearestEvenTies(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 and the next half
	// (1+2^-10); ties-to-even keeps the even mantissa (1.0).
	tie := float32(1) + float32(math.Ldexp(1, -11))
	if got := FromFloat32(tie); got.Float32() != 1 {
		t.Errorf("tie at 1+2^-11 rounded to %g, want 1", got.Float32())
	}
	// (1+2^-10) + 2^-11 is halfway between odd mantissa 1+2^-10 and
	// even 1+2^-9; must round up to the even one.
	tie2 := float32(1) + float32(math.Ldexp(1, -10)) + float32(math.Ldexp(1, -11))
	want := float32(1) + float32(math.Ldexp(1, -9))
	if got := FromFloat32(tie2); got.Float32() != want {
		t.Errorf("tie above odd mantissa rounded to %g, want %g", got.Float32(), want)
	}
}

func TestMantissaCarryIntoExponent(t *testing.T) {
	// 2047.9999 should round up to 2048 (mantissa all-ones carries).
	f := float32(2047.999)
	got := FromFloat32(f)
	if got.Float32() != 2048 {
		t.Errorf("FromFloat32(%g) = %g, want 2048", f, got.Float32())
	}
}

func TestPredicates(t *testing.T) {
	if !QuietNaN.IsNaN() {
		t.Error("QuietNaN.IsNaN() = false")
	}
	if PositiveInfinity.IsNaN() {
		t.Error("+Inf reported as NaN")
	}
	if !PositiveInfinity.IsInf(1) || !PositiveInfinity.IsInf(0) || PositiveInfinity.IsInf(-1) {
		t.Error("IsInf sign handling wrong for +Inf")
	}
	if !NegativeInfinity.IsInf(-1) || NegativeInfinity.IsInf(1) {
		t.Error("IsInf sign handling wrong for -Inf")
	}
	if !PositiveZero.IsZero() || !NegativeZero.IsZero() || MinSubnormal.IsZero() {
		t.Error("IsZero wrong")
	}
	if !MinSubnormal.IsSubnormal() || MinNormal.IsSubnormal() || PositiveZero.IsSubnormal() {
		t.Error("IsSubnormal wrong")
	}
	if !MaxValue.IsFinite() || PositiveInfinity.IsFinite() || QuietNaN.IsFinite() {
		t.Error("IsFinite wrong")
	}
	if !NegativeZero.Signbit() || PositiveZero.Signbit() {
		t.Error("Signbit wrong")
	}
}

func TestString(t *testing.T) {
	cases := map[Float16]string{
		FromFloat32(1.5):  "1.5",
		PositiveInfinity:  "+Inf",
		NegativeInfinity:  "-Inf",
		QuietNaN:          "NaN",
		FromFloat32(-2.5): "-2.5",
	}
	for h, want := range cases {
		if got := h.String(); got != want {
			t.Errorf("String(%#04x) = %q, want %q", h.Bits(), got, want)
		}
	}
}

func TestFromFloat64MatchesFloat32Path(t *testing.T) {
	vals := []float64{0, 1, -1, 0.1, 3.14159, 1e-7, 6e4, -123.456}
	for _, v := range vals {
		if FromFloat64(v) != FromFloat32(float32(v)) {
			t.Errorf("FromFloat64(%g) diverges from FromFloat32", v)
		}
	}
}

// fromFloat32Ref is FromFloat32 as it was before its branch-free
// normal-range path: every case decided by comparisons on the exponent
// and the dropped mantissa bits. TestFromFloat32MatchesReference holds
// the fast path to it.
func fromFloat32Ref(f float32) Float16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & signMask
	exp := int32(b>>23) & 0xFF
	man := b & 0x7FFFFF

	if exp == 0xFF { // infinity or NaN
		if man != 0 {
			m := uint16(man >> 13)
			if m == 0 {
				m = 1 // keep NaN-ness after truncation
			}
			return Float16(sign | expMask | m)
		}
		return Float16(sign | expMask)
	}

	e := exp - 127 + expBias
	if e >= 0x1F { // overflow to infinity
		return Float16(sign | expMask)
	}
	if e <= 0 { // subnormal half, or underflow to zero
		if e < -10 {
			return Float16(sign)
		}
		man |= 0x800000 // restore the implicit leading bit
		shift := uint32(14 - e)
		halfway := uint32(1) << (shift - 1)
		m := man >> shift
		rem := man & (1<<shift - 1)
		if rem > halfway || (rem == halfway && m&1 == 1) {
			m++ // may carry into the normal range, which is still correct
		}
		return Float16(sign | uint16(m))
	}

	// Normal range: round the 23-bit mantissa to 10 bits.
	m := man >> 13
	rem := man & 0x1FFF
	if rem > 0x1000 || (rem == 0x1000 && m&1 == 1) {
		m++
		if m == 0x400 { // mantissa overflowed into the exponent
			m = 0
			e++
			if e >= 0x1F {
				return Float16(sign | expMask)
			}
		}
	}
	return Float16(sign | uint16(e)<<expShift | uint16(m))
}

// TestFromFloat32MatchesReference compares FromFloat32 with the
// reference on every float32 whose biased exponent is 111..144: the
// whole branch-free range (113..142) and the subnormal and overflow
// paths on both sides of it, both signs, all 2^23 mantissas. Each sign
// and exponent range is one parallel subtest.
func TestFromFloat32MatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("570M conversions skipped in -short")
	}
	for _, sign := range []uint32{0, 1 << 31} {
		for _, exps := range [][2]uint32{{111, 119}, {120, 127}, {128, 136}, {137, 144}} {
			t.Run(fmt.Sprintf("sign%d-exp%d-%d", sign>>31, exps[0], exps[1]), func(t *testing.T) {
				t.Parallel()
				for exp := exps[0]; exp <= exps[1]; exp++ {
					for man := uint32(0); man < 1<<23; man++ {
						f := math.Float32frombits(sign | exp<<23 | man)
						if got, want := FromFloat32(f), fromFloat32Ref(f); got != want {
							t.Fatalf("FromFloat32(%#08x) = %#04x, want %#04x", math.Float32bits(f), got, want)
						}
					}
				}
			})
		}
	}
}

// BenchmarkFromFloat32 converts 64 Ki normal-range values drawn the
// way network weights are, so the rounding direction is a coin flip.
func BenchmarkFromFloat32(b *testing.B) {
	src := make([]float32, 64<<10)
	s := rng.New(1)
	for i := range src {
		src[i] = s.NormFloat32() * 0.05
	}
	var sink Float16
	b.SetBytes(int64(4 * len(src)))
	for b.Loop() {
		for _, v := range src {
			sink ^= FromFloat32(v)
		}
	}
	_ = sink
}

// FromFloat64 converts f to the nearest half. The conversion goes
// through float32 first; because binary16 has far fewer significant
// bits than binary32 this cannot double-round incorrectly except for
// values that are already irrepresentable border cases in float32.
func FromFloat64(f float64) Float16 { return FromFloat32(float32(f)) }

// Signbit reports whether the sign bit of h is set.
func (h Float16) Signbit() bool { return h&signMask != 0 }
