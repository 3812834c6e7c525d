// Package half implements IEEE 754 binary16 ("half precision") floating
// point conversion in software.
//
// The Myriad 2 VPU performs inference in native FP16; the paper's NCSw
// framework converts FP32 pixel data to FP16 with the OpenEXR half class
// before offloading to the Neural Compute Stick. This package is the Go
// equivalent of that conversion layer: bit-exact binary16 encoding with
// round-to-nearest-even, and the slice rounding the inference engine
// uses to emulate an FP16 datapath.
//
// All conversions are deterministic and allocation-free. The zero value
// of Float16 is +0.
package half

import (
	"math"
	"strconv"
)

// Float16 is an IEEE 754 binary16 value stored in its raw bit pattern:
// 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
type Float16 uint16

// Special bit patterns.
const (
	// PositiveInfinity is +Inf: exponent all ones, mantissa zero.
	PositiveInfinity Float16 = 0x7C00
	// NegativeInfinity is -Inf: sign bit plus the +Inf pattern.
	NegativeInfinity Float16 = 0xFC00
)

const (
	signMask     = 0x8000
	expMask      = 0x7C00
	mantissaMask = 0x03FF
	expShift     = 10
	expBias      = 15
)

// FromBits reinterprets a raw 16-bit pattern as a Float16.
func FromBits(b uint16) Float16 { return Float16(b) }

// Bits returns the raw 16-bit pattern of h.
func (h Float16) Bits() uint16 { return uint16(h) }

// FromFloat32 converts f to the nearest representable half using
// round-to-nearest-even, the rounding mode the Myriad 2 VAU implements.
// Values with magnitude above 65504, the largest finite half, round to
// infinity; values below the subnormal range flush to (signed) zero
// only when they round to it.
func FromFloat32(f float32) Float16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & signMask
	exp := int32(b>>23) & 0xFF
	if exp >= 113 && exp <= 142 {
		// Normal half range, without branches on the value: adding
		// 0xFFF plus the lowest kept mantissa bit rounds the 13 dropped
		// bits to nearest even, a carry out of the mantissa bumps the
		// exponent (at the top exponent, into infinity), and the
		// subtraction rebiases 127 to 15.
		r := b + 0xFFF + ((b >> 13) & 1)
		return Float16(sign | uint16(((r&0x7FFFFFFF)>>13)-(112<<10)))
	}
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
	// Subnormal half, or underflow to zero.
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

// Float32 expands h to the exactly representable float32 value.
func (h Float16) Float32() float32 {
	sign := uint32(h&signMask) << 16
	exp := uint32(h>>expShift) & 0x1F
	man := uint32(h & mantissaMask)

	switch {
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal half: normalize into a float32 normal.
		e := uint32(127 - expBias + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= mantissaMask
		return math.Float32frombits(sign | e<<23 | man<<13)
	case exp == 0x1F:
		if man != 0 {
			return math.Float32frombits(sign | 0x7F800000 | man<<13)
		}
		return math.Float32frombits(sign | 0x7F800000)
	}
	return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
}

// Float64 expands h to float64.
func (h Float16) Float64() float64 { return float64(h.Float32()) }

// IsNaN reports whether h is any NaN encoding.
func (h Float16) IsNaN() bool {
	return h&expMask == expMask && h&mantissaMask != 0
}

// IsZero reports whether h is +0 or -0.
func (h Float16) IsZero() bool { return h&^signMask == 0 }

// String formats h with enough precision to round-trip.
func (h Float16) String() string {
	switch {
	case h.IsNaN():
		return "NaN"
	case h == PositiveInfinity:
		return "+Inf"
	case h == NegativeInfinity:
		return "-Inf"
	}
	return strconv.FormatFloat(h.Float64(), 'g', -1, 32)
}
