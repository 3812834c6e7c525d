package half

import "math"

// Slice kernels used by the FP16 execution mode of the inference
// engine. They operate on plain []float32 buffers so tensors keep a
// single storage type; "FP16" tensors are float32 buffers whose every
// element is exactly representable in binary16.

// Quantize converts src to halves, allocating the result.
func Quantize(src []float32) []Float16 {
	dst := make([]Float16, len(src))
	for i, v := range src {
		dst[i] = FromFloat32(v)
	}
	return dst
}

// Dequantize expands src to float32, allocating the result.
func Dequantize(src []Float16) []float32 {
	dst := make([]float32, len(src))
	for i, v := range src {
		dst[i] = v.Float32()
	}
	return dst
}

// RoundSlice rounds every element of s through binary16 in place,
// leaving a float32 buffer whose values are all exactly representable
// as halves. This is how the engine models an FP16 activation tensor.
// Each element gets the bits of FromFloat32(v).Float32().
func RoundSlice(s []float32) {
	for i, v := range s {
		s[i] = round16(v)
	}
}

// Rounded returns a copy of s with every element rounded through
// binary16.
func Rounded(s []float32) []float32 {
	out := make([]float32, len(s))
	for i, v := range s {
		out[i] = round16(v)
	}
	return out
}

// round16 is FromFloat32(v).Float32() without the Float16 in between:
// it rounds v's float32 bits straight to the nearest half.
func round16(v float32) float32 {
	b := math.Float32bits(v)
	sign := b & 0x80000000
	exp := b >> 23 & 0xFF
	switch {
	case exp >= 113 && exp <= 142:
		// Normal half range: round to nearest even at bit 13, as
		// FromFloat32 does, and clear the 13 dropped bits. A carry out
		// of the top exponent is an overflow.
		r := (b + 0xFFF + (b>>13)&1) &^ 0x1FFF
		if r&^0x80000000 >= 143<<23 {
			return math.Float32frombits(sign | 0x7F800000)
		}
		return math.Float32frombits(r)
	case exp < 113:
		// Half-subnormal range, underflow included: in [0.5, 1) the
		// float32 spacing is 2^-24, the half-subnormal spacing, so
		// adding 0.5 rounds |v| to it (to nearest even) and taking
		// 0.5 away again is exact.
		a := math.Float32frombits(b &^ 0x80000000)
		return math.Float32frombits(math.Float32bits(float32(a+0.5)-0.5) | sign)
	case exp == 0xFF && b&0x7FFFFF != 0:
		// NaN: keep the top 10 mantissa bits, and a NaN whose payload
		// lies below them keeps the lowest of them set.
		m := b & 0x7FE000
		if m == 0 {
			m = 0x2000
		}
		return math.Float32frombits(sign | 0x7F800000 | m)
	}
	// Infinity, or a finite value past the largest half.
	return math.Float32frombits(sign | 0x7F800000)
}

// MaxAbsDiff returns the largest absolute elementwise difference
// between a and b, which must have equal length.
func MaxAbsDiff(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("half: MaxAbsDiff length mismatch")
	}
	var m float32
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// DotFP16 computes the dot product of a and b the way the engine's
// FP16 mode does: inputs are rounded to half, products are exact, and
// the accumulation is kept in float32 (the Myriad 2 VAU offers FP32
// accumulate for FP16 operands). The final sum is rounded back to half.
func DotFP16(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("half: DotFP16 length mismatch")
	}
	var acc float32
	for i := range a {
		x := FromFloat32(a[i]).Float32()
		y := FromFloat32(b[i]).Float32()
		acc += x * y
	}
	return FromFloat32(acc).Float32()
}

// DotFP16Strict is DotFP16 with the accumulator itself held in
// binary16, modelling the lower-precision accumulate path. It loses
// considerably more precision on long reductions and exists for the
// precision ablation experiments.
func DotFP16Strict(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("half: DotFP16Strict length mismatch")
	}
	acc := PositiveZero
	for i := range a {
		x := FromFloat32(a[i])
		y := FromFloat32(b[i])
		acc = FMA(x, y, acc)
	}
	return acc.Float32()
}
