package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if !almostEq(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", s.Mean)
	}
	// Sample std with n-1: variance = 32/7.
	if !almostEq(s.Std, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("Std = %g", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %g/%g", s.Min, s.Max)
	}
	if !almostEq(s.Median, 4.5, 1e-12) {
		t.Errorf("Median = %g, want 4.5", s.Median)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.Median != 2 {
		t.Errorf("Median = %g, want 2", s.Median)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty sample")
		}
	}()
	Summarize(nil)
}

func TestRunningMatchesBatch(t *testing.T) {
	xs := []float64{1.5, -2, 7, 3.25, 0, 11, -4.5}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	s := Summarize(xs)
	if !almostEq(r.Mean(), s.Mean, 1e-12) || !almostEq(r.Std(), s.Std, 1e-12) {
		t.Errorf("running %g/%g vs batch %g/%g", r.Mean(), r.Std(), s.Mean, s.Std)
	}
	if r.Min() != -4.5 || r.Max() != 11 {
		t.Errorf("running min/max = %g/%g", r.Min(), r.Max())
	}
}

func TestRunningSingleValue(t *testing.T) {
	var r Running
	r.Add(42)
	if r.Mean() != 42 || r.Std() != 0 || r.Var() != 0 {
		t.Errorf("single value stats wrong: %g %g", r.Mean(), r.Std())
	}
}

func TestRunningMerge(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	var whole, a, b Running
	for i, x := range xs {
		whole.Add(x)
		if i < 4 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N != whole.N || !almostEq(a.Mean(), whole.Mean(), 1e-12) || !almostEq(a.Std(), whole.Std(), 1e-12) {
		t.Errorf("merge diverges: %v vs %v", a, whole)
	}
	var empty Running
	empty.Merge(a)
	if !almostEq(empty.Mean(), whole.Mean(), 1e-12) {
		t.Error("merge into empty lost data")
	}
	before := a
	var empty2 Running
	a.Merge(empty2)
	if a != before {
		t.Error("merging an empty accumulator changed state")
	}
}

// Property: merging any split of a sample equals accumulating the whole.
func TestQuickMergeEqualsWhole(t *testing.T) {
	f := func(raw []float64, cut uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		k := int(cut) % (len(xs) + 1)
		var whole, a, b Running
		for i, x := range xs {
			whole.Add(x)
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		tol := 1e-9 * (1 + math.Abs(whole.Mean()))
		return a.N == whole.N && almostEq(a.Mean(), whole.Mean(), tol) &&
			almostEq(a.Std(), whole.Std(), 1e-6*(1+whole.Std()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 9.5*x + 1.25
	}
	l := FitLine(xs, ys)
	if !almostEq(l.Slope, 9.5, 1e-9) || !almostEq(l.Intercept, 1.25, 1e-9) {
		t.Errorf("fit = %+v", l)
	}
	if !almostEq(l.R2, 1, 1e-12) {
		t.Errorf("R2 = %g, want 1", l.R2)
	}
	if !almostEq(l.At(32), 9.5*32+1.25, 1e-9) {
		t.Errorf("At(32) = %g", l.At(32))
	}
}

func TestFitLineNoisy(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{1.1, 1.9, 3.2, 3.8}
	l := FitLine(xs, ys)
	if l.Slope <= 0.8 || l.Slope >= 1.2 {
		t.Errorf("Slope = %g, want near 1", l.Slope)
	}
	if l.R2 <= 0.95 || l.R2 > 1 {
		t.Errorf("R2 = %g", l.R2)
	}
}

func TestFitLinePanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		xs, ys []float64
	}{
		{"mismatch", []float64{1, 2}, []float64{1}},
		{"too-few", []float64{1}, []float64{1}},
		{"degenerate", []float64{3, 3}, []float64{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			FitLine(tc.xs, tc.ys)
		})
	}
}

func TestMeanConvenience(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i%10) + 0.5)
	}
	for i, c := range h.Buckets {
		if c != 10 {
			t.Errorf("bucket %d = %d, want 10", i, c)
		}
	}
	h.Add(-1)
	h.Add(10) // boundary Hi counts as over
	h.Add(11)
	u, o := h.Outliers()
	if u != 1 || o != 2 {
		t.Errorf("outliers = %d/%d, want 1/2", u, o)
	}
	if h.N() != 103 {
		t.Errorf("N = %d", h.N())
	}
	med := h.Quantile(0.5)
	if med < 4 || med > 6 {
		t.Errorf("median estimate = %g", med)
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for hi <= lo")
		}
	}()
	NewHistogram(1, 1, 4)
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be Lo")
	}
	h.Add(0.9)
	if q := h.Quantile(0); q <= 0 || q >= 1 {
		t.Errorf("q0 = %g", q)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Error("empty String()")
	}
}

// TestHistogramQuantileFullEdges pins the q=0 / q=1 / empty contracts:
// empty returns Lo, q=0 the first occupied bucket's midpoint, q=1 Hi.
func TestHistogramQuantileFullEdges(t *testing.T) {
	empty := NewHistogram(0, 10, 5)
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%g) = %g, want Lo=0", q, got)
		}
	}

	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{1, 3, 5, 7, 9} {
		h.Add(x)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %g, want first bucket midpoint 1", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %g, want Hi=10", got)
	}

	// Out-of-range samples clamp to the bounds.
	lo := NewHistogram(0, 10, 5)
	lo.Add(-5)
	lo.Add(5)
	if got := lo.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) with an underflow sample = %g, want Lo=0", got)
	}
	hi := NewHistogram(0, 10, 5)
	hi.Add(5)
	hi.Add(15)
	if got := hi.Quantile(0.99); got != 10 {
		t.Errorf("Quantile(0.99) landing on the overflow = %g, want Hi=10", got)
	}
}

// TestSampleQuantile pins the exact-quantile accumulator: empty
// returns 0, q is clamped, and q=0 / q=1 hit min / max.
func TestSampleQuantile(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.N() != 0 {
		t.Error("empty sample should report zeros")
	}
	for _, x := range []float64{5, 1, 4, 2, 3} {
		s.Add(x)
	}
	cases := []struct{ q, want float64 }{
		{-0.5, 1}, {0, 1}, {0.5, 3}, {0.99, 5}, {1, 5}, {1.5, 5},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if s.Min() != 1 || s.Max() != 5 || s.Mean() != 3 {
		t.Errorf("min/max/mean = %g/%g/%g", s.Min(), s.Max(), s.Mean())
	}
	// Adding after a quantile query must keep working (re-sort).
	s.Add(0.5)
	if got := s.Quantile(0); got != 0.5 {
		t.Errorf("Quantile(0) after Add = %g, want 0.5", got)
	}
}

// TestSampleAgreesWithHistogram: on the same data, the exact path and
// the bucketed path must agree within one bucket width at every
// quantile — the contract that lets large runs swap Sample for
// Histogram.
func TestSampleAgreesWithHistogram(t *testing.T) {
	const nb = 100
	h := NewHistogram(0, 1, nb)
	var s Sample
	// Deterministic but irregular values in [0, 1).
	x := 0.5
	for i := 0; i < 5000; i++ {
		x = 4 * 0.97 * x * (1 - x) // logistic map, stays in (0,1)
		h.Add(x)
		s.Add(x)
	}
	// q=1 is excluded: Histogram.Quantile(1) clamps to Hi by contract
	// regardless of where the data ends, while Sample reports the true
	// maximum.
	width := 1.0 / nb
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99} {
		exact, approx := s.Quantile(q), h.Quantile(q)
		if diff := exact - approx; diff < -width || diff > width {
			t.Errorf("q=%g: exact %g vs histogram %g differ by more than bucket width %g",
				q, exact, approx, width)
		}
	}
}

// TestQuantileTrackerMatchesSample: after every Add, the streaming
// tracker returns bit for bit what Sample.Quantile returns on the same
// stream, across heavy ties, sorted runs in both directions, the
// extreme quantiles, and q values whose q·n lands on an integer
// (0.25 every fourth value, 0.95 at n = 20, 40, …) where the
// nearest-rank index steps.
func TestQuantileTrackerMatchesSample(t *testing.T) {
	const n = 10000
	qs := []float64{0, 0.05, 0.25, 0.5, 0.95, 0.99, 0.999}
	r := rand.New(rand.NewPCG(1, 2))
	streams := []struct {
		name string
		next func(i int) float64
	}{
		{"ties", func(int) float64 { return float64(r.IntN(16)) * 0.25 }},
		{"ascending", func(i int) float64 { return float64(i/3) * 1e-3 }},
		{"descending", func(i int) float64 { return float64((n-i)/3) * 1e-3 }},
	}
	for _, st := range streams {
		name, next := st.name, st.next
		var s Sample
		trs := make([]*QuantileTracker, len(qs))
		for j, q := range qs {
			trs[j] = NewQuantileTracker(q)
		}
		landings := 0
		for i := 0; i < n; i++ {
			x := next(i)
			s.Add(x)
			for j, q := range qs {
				tr := trs[j]
				tr.Add(x)
				if tr.N() != s.N() {
					t.Fatalf("%s q=%g n=%d: N() = %d", name, q, s.N(), tr.N())
				}
				got, want := tr.Quantile(), s.Quantile(q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s q=%g n=%d: tracker %g, Sample %g", name, q, s.N(), got, want)
				}
				if q == 0.95 {
					if f := q * float64(s.N()); f == math.Trunc(f) {
						landings++
					}
				}
			}
		}
		if landings == 0 {
			t.Fatalf("%s: q=0.95 never landed on an integer rank", name)
		}
	}
	empty := NewQuantileTracker(0.5)
	if empty.N() != 0 || empty.Quantile() != 0 {
		t.Errorf("empty tracker: N() = %d, Quantile() = %g; want 0, 0", empty.N(), empty.Quantile())
	}
}
