// Package stats provides the small set of descriptive statistics the
// experiment harness needs: a running standard-deviation accumulator
// (the error bars every figure in the paper shows), exact
// quantiles of retained samples and a least-squares line used for the
// Fig. 8b throughput projection.
package stats

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Running is a numerically stable (Welford) streaming accumulator.
// The zero value is ready to use.
type Running struct {
	N    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.N++
	d := x - r.mean
	r.mean += d / float64(r.N)
	r.m2 += d * (x - r.mean)
}

// Var returns the sample variance (n-1), or 0 when N < 2.
func (r *Running) Var() float64 {
	if r.N < 2 {
		return 0
	}
	return r.m2 / float64(r.N-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Sample is an exact-quantile accumulator: it retains every value, so
// quantiles are order statistics of the data rather than bucket
// midpoints. Each quantile is selected in place, O(n) expected per
// read; the mean, minimum and maximum are kept as values arrive, so
// they cost O(1) and do not depend on which reads came before. Use it
// for the samples of one run (per item latencies). The zero value is
// ready to use.
//
//ncsw:allow unusedexport core's TestLatencySummaryMatchesSamples and TestHedgerTriggerMatchesSampleRule use it as the exact-quantile reference
type Sample struct {
	xs       []float64 // in no particular order: each read partitions it in place
	sum      float64   // running sum in insertion order
	min, max float64   // extremes under sort.Float64s's order (NaN first)
}

// Add records x.
//
//ncsw:allow unusedexport core's TestLatencySummaryMatchesSamples and TestHedgerTriggerMatchesSampleRule use it as the exact-quantile reference
func (s *Sample) Add(x float64) {
	if len(s.xs) == 0 {
		s.min, s.max = x, x
	} else {
		if nanLess(x, s.min) {
			s.min = x
		}
		if nanLess(s.max, x) {
			s.max = x
		}
	}
	s.xs = append(s.xs, x)
	s.sum += x
}

// N returns the number of recorded values.
//
//ncsw:allow unusedexport core's TestLatencySummaryMatchesSamples and TestHedgerTriggerMatchesSampleRule use it as the exact-quantile reference
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 when empty): the values summed in
// the order they were added, divided by N.
//
//ncsw:allow unusedexport core's TestLatencySummaryMatchesSamples and TestHedgerTriggerMatchesSampleRule use it as the exact-quantile reference
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Max returns the largest value (0 when empty), ordering NaN first as
// sort.Float64s does.
//
//ncsw:allow unusedexport core's TestLatencySummaryMatchesSamples and TestHedgerTriggerMatchesSampleRule use it as the exact-quantile reference
func (s *Sample) Max() float64 { return s.max }

// Quantile returns the exact nearest-rank q-quantile: the value at
// index ⌊q·n⌋ of the sorted sample, clamped to the ends. "Sorted" is
// sort.Float64s's order, NaN first; of values that order ties (−0 and
// +0), either may be returned. q is clamped to [0, 1]; an empty sample returns 0.
//
//ncsw:allow unusedexport core's TestLatencySummaryMatchesSamples and TestHedgerTriggerMatchesSampleRule use it as the exact-quantile reference
func (s *Sample) Quantile(q float64) float64 {
	if s.min == s.min { // no NaN was added
		return SelectQuantile(s.xs, q)
	}
	// Move the NaNs to the front; the rest is a NaN-free selection.
	xs, k := s.xs, nearestRank(q, len(s.xs))
	nans := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nans] = xs[nans], x
			nans++
		}
	}
	if k < nans {
		return xs[k]
	}
	return selectRank(xs[nans:], k-nans)
}

// SelectQuantile returns the exact q-quantile of xs, the value at index
// ⌊q·n⌋ (clamped to [0, n-1]) of xs as sorted, reordering xs in place
// and allocating nothing; O(n) expected. xs must hold no NaN. q is
// clamped to [0, 1]; an empty xs returns the zero value. Sample and
// core's latency collectors both select through it, so every exact
// quantile in the repository comes from the one introselect below.
func SelectQuantile[T cmp.Ordered](xs []T, q float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	return selectRank(xs, nearestRank(q, len(xs)))
}

// nearestRank is the sorted-data index of the q-quantile of n > 0
// values, ⌊q·n⌋ clamped to [0, n-1]; Sample and QuantileTracker share
// it so they agree bit for bit.
func nearestRank(q float64, n int) int {
	i := int(q * float64(n))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// nanLess is sort.Float64s's order: NaN before every other value.
func nanLess(a, b float64) bool { return a < b || (a != a && b == b) }

// selectRank returns the value at index k of xs as sorted, reordering
// xs in place so that xs[k] holds it. xs must hold no NaN. It is an
// introselect: Hoare partitions around a median-of-3 pivot, narrowing
// to the side that holds k, until the range is short enough for an
// insertion sort. Partitions that keep more than 7/8 of the range make
// little progress; after 2·log2(n) of them the remaining range is
// sorted with slices.Sort, so adversarial inputs cost O(n log n), not
// O(n²). It allocates nothing.
func selectRank[T cmp.Ordered](xs []T, k int) T {
	const insertionCutoff = 12
	lo, hi := 0, len(xs) // k is in [lo, hi)
	budget := 2 * bits.Len(uint(len(xs)))
	for hi-lo > insertionCutoff {
		if budget == 0 {
			slices.Sort(xs[lo:hi])
			return xs[k]
		}
		j := partition(xs, lo, hi)
		n := hi - lo
		if k <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
		if 8*(hi-lo) > 7*n {
			budget--
		}
	}
	for i := lo + 1; i < hi; i++ {
		x := xs[i]
		j := i
		for ; j > lo && x < xs[j-1]; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = x
	}
	return xs[k]
}

// partition is Hoare's scheme on xs[lo:hi] (hi-lo >= 3) around the
// median of its first, middle and last values. It returns j with
// lo <= j < hi-1, every value of xs[lo:j+1] <= every value of
// xs[j+1:hi]. Ordering the three candidates first leaves a value <= the
// pivot at lo and one >= it at hi-1, so neither scan runs off the range;
// both scans stop on values equal to the pivot, so runs of ties split
// evenly instead of degrading to O(n²).
func partition[T cmp.Ordered](xs []T, lo, hi int) int {
	m := int(uint(lo+hi-1) >> 1)
	if xs[m] < xs[lo] {
		xs[m], xs[lo] = xs[lo], xs[m]
	}
	if xs[hi-1] < xs[m] {
		xs[m], xs[hi-1] = xs[hi-1], xs[m]
		if xs[m] < xs[lo] {
			xs[m], xs[lo] = xs[lo], xs[m]
		}
	}
	p := xs[m]
	i, j := lo-1, hi
	for {
		for i++; xs[i] < p; i++ {
		}
		for j--; p < xs[j]; j-- {
		}
		if i >= j {
			return j
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// QuantileTracker is an exact streaming quantile for one q fixed at
// construction: after every Add, Quantile returns exactly what
// Sample.Quantile(q) returns on the same stream (the value at index
// clamp(⌊q·n⌋, 0, n-1) of the sorted data), but it costs O(log n) per
// Add and O(1) per read instead of an O(n) selection. It keeps the
// smallest index+1 values in a max-heap and the rest in a min-heap, so
// it still retains every value, as Sample does. Values must not be NaN.
type QuantileTracker struct {
	q  float64
	lo minHeap // smallest values, negated: its minimum is the quantile
	hi minHeap // the rest
}

// NewQuantileTracker returns an empty tracker for the q-quantile.
func NewQuantileTracker(q float64) *QuantileTracker {
	return &QuantileTracker{q: q}
}

// Add records x and rebalances the heaps so the low heap holds the
// index+1 smallest values. The loops handle any step in the index.
func (t *QuantileTracker) Add(x float64) {
	if len(t.lo) == 0 || x <= -t.lo[0] {
		t.lo.push(-x)
	} else {
		t.hi.push(x)
	}
	want := nearestRank(t.q, t.N()) + 1
	for len(t.lo) > want {
		t.hi.push(-t.lo.pop())
	}
	for len(t.lo) < want {
		t.lo.push(-t.hi.pop())
	}
}

// N returns the number of recorded values.
func (t *QuantileTracker) N() int { return len(t.lo) + len(t.hi) }

// Quantile returns the current q-quantile, or 0 when empty.
func (t *QuantileTracker) Quantile() float64 {
	if len(t.lo) == 0 {
		return 0
	}
	return -t.lo[0]
}

// minHeap is a binary min-heap of float64, hand-rolled rather than built
// on container/heap so pushes and pops do not box through interface
// methods. QuantileTracker negates values to use it as a max-heap
// (negation is exact, so values round-trip bit for bit).
type minHeap []float64

func (h *minHeap) push(x float64) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= x {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
}

func (h *minHeap) pop() float64 {
	s := *h
	top := s[0]
	n := len(s) - 1
	x := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if x <= s[c] {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = x
	return top
}

// Line is a least-squares fit y = Slope*x + Intercept.
type Line struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine computes the ordinary least-squares line through (xs, ys).
// It panics when fewer than two points are supplied or the lengths
// differ, since the projection code always controls its inputs.
func FitLine(xs, ys []float64) Line {
	if len(xs) != len(ys) {
		panic("stats: FitLine length mismatch")
	}
	if len(xs) < 2 {
		panic("stats: FitLine needs at least two points")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: FitLine with degenerate x values")
	}
	slope := (n*sxy - sx*sy) / den
	inter := (sy - slope*sx) / n
	var ssRes, ssTot float64
	my := sy / n
	for i := range xs {
		pred := slope*xs[i] + inter
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Line{Slope: slope, Intercept: inter, R2: r2}
}

// At evaluates the line at x.
func (l Line) At(x float64) float64 { return l.Slope*x + l.Intercept }
