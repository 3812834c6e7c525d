package half

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: conversion round trip h -> f32 -> h is the identity for
// every non-NaN half. (Exhaustive variant lives in half_test.go; the
// quick version exercises the generator plumbing.)
func TestQuickRoundTrip(t *testing.T) {
	f := func(b uint16) bool {
		h := FromBits(b)
		if h.IsNaN() {
			return FromFloat32(h.Float32()).IsNaN()
		}
		return FromFloat32(h.Float32()) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FromFloat32 is monotone — a <= b implies half(a) <= half(b).
func TestQuickMonotoneConversion(t *testing.T) {
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return !Less(FromFloat32(b), FromFloat32(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: rounding error is bounded by half a ULP for in-range values.
func TestQuickRoundingErrorBound(t *testing.T) {
	f := func(a float32) bool {
		if math.IsNaN(float64(a)) || math.IsInf(float64(a), 0) {
			return true
		}
		if a > 65504 || a < -65504 {
			return true // out of half range, saturates
		}
		h := FromFloat32(a)
		lo, hi := NextDown(h).Float32(), NextUp(h).Float32()
		// The rounded value must be at least as close as the neighbors.
		d := math.Abs(float64(h.Float32()) - float64(a))
		return d <= math.Abs(float64(lo)-float64(a)) && d <= math.Abs(float64(hi)-float64(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Less reports a < b under the usual total order on the extended reals.
// Any comparison involving NaN is false.
func Less(a, b Float16) bool {
	if a.IsNaN() || b.IsNaN() {
		return false
	}
	return a.Float32() < b.Float32()
}

// NextUp returns the smallest half greater than h.
// NextUp(+Inf) = +Inf, NextUp(NaN) = NaN.
func NextUp(h Float16) Float16 {
	switch {
	case h.IsNaN() || h == PositiveInfinity:
		return h
	case h == NegativeZero || h == PositiveZero:
		return MinSubnormal
	case h.Signbit():
		return h - 1
	default:
		return h + 1
	}
}

// NextDown returns the largest half smaller than h.
func NextDown(h Float16) Float16 {
	switch {
	case h.IsNaN() || h == NegativeInfinity:
		return h
	case h == PositiveZero || h == NegativeZero:
		return MinSubnormal | signMask
	case h.Signbit():
		return h + 1
	default:
		return h - 1
	}
}
