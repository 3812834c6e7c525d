package stats

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestRunningMatchesBatch: the Welford accumulator agrees with Sample's
// mean and with a direct two-pass variance.
func TestRunningMatchesBatch(t *testing.T) {
	xs := []float64{1.5, -2, 7, 3.25, 0, 11, -4.5}
	var r Running
	var s Sample
	for _, x := range xs {
		r.Add(x)
		s.Add(x)
	}
	var ss float64
	for _, x := range xs {
		ss += (x - s.Mean()) * (x - s.Mean())
	}
	std := math.Sqrt(ss / float64(len(xs)-1))
	if !almostEq(r.Mean(), s.Mean(), 1e-12) || !almostEq(r.Std(), std, 1e-12) {
		t.Errorf("running %g/%g vs batch %g/%g", r.Mean(), r.Std(), s.Mean(), std)
	}
}

func TestRunningSingleValue(t *testing.T) {
	var r Running
	r.Add(42)
	if r.Mean() != 42 || r.Std() != 0 || r.Var() != 0 {
		t.Errorf("single value stats wrong: %g %g", r.Mean(), r.Std())
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
	// Adding after a quantile query must keep working.
	s.Add(0.5)
	if got := s.Quantile(0); got != 0.5 {
		t.Errorf("Quantile(0) after Add = %g, want 0.5", got)
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

// TestSampleMeanIndependentOfQueries: Mean, Min and Max return the same
// bits however many quantile reads came before, and Mean is the
// insertion-order sum over N. Reading a quantile reorders the retained
// values, so a mean summed over them in their current order would drift
// in the last bits.
func TestSampleMeanIndependentOfQueries(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 100; trial++ {
		var s Sample
		var sum float64
		for i := 0; i < 1000; i++ {
			x := r.ExpFloat64() * 1e-3
			s.Add(x)
			sum += x
		}
		want := sum / 1000
		mean, lo, hi := s.Mean(), s.Min(), s.Max()
		if math.Float64bits(mean) != math.Float64bits(want) {
			t.Fatalf("trial %d: Mean = %b, want insertion-order %b", trial, mean, want)
		}
		for _, q := range []float64{0.5, 0.99, 0.01} {
			s.Quantile(q)
			if got := s.Mean(); math.Float64bits(got) != math.Float64bits(mean) {
				t.Fatalf("trial %d: Mean after Quantile(%g) = %b, before %b", trial, q, got, mean)
			}
			if s.Min() != lo || s.Max() != hi {
				t.Fatalf("trial %d: Min/Max after Quantile(%g) = %g/%g, before %g/%g", trial, q, s.Min(), s.Max(), lo, hi)
			}
		}
	}
}

// sameOrderValue reports whether got is the value want under
// sort.Float64s's order: bit for bit, except that the order ties −0
// with +0, so sort.Float64s itself may leave either at a given index.
func sameOrderValue(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (got == 0 && want == 0)
}

// killerPattern returns n values that drive selectRank's median-of-3
// Hoare partition to its worst case when it selects any index >= n/2:
// it replays the partition on value identities and, at each step, gives
// the range's first and middle slots the two smallest values not yet
// used. The pivot is then the range's second-smallest value, each
// partition scans the whole range and drops only two values, and
// without the depth limit selecting the median would take ~3n²/16
// comparisons (n/4 partitions over ranges of n down to n/2).
func killerPattern(n int) []float64 {
	ids := make([]int, n) // ids[i]: which input slot sits at position i
	for i := range ids {
		ids[i] = i
	}
	xs := make([]float64, n)
	next := 0.0
	give := func(pos int) {
		xs[ids[pos]] = next
		next++
	}
	lo, hi := 0, n
	for hi-lo > 12 {
		m := (lo + hi - 1) / 2
		give(lo)
		give(m)
		ids[lo+1], ids[m] = ids[m], ids[lo+1]
		lo += 2
	}
	for ; lo < hi; lo++ {
		give(lo)
	}
	return xs
}

// shape is one named input for the exactness tests.
type shape struct {
	name string
	xs   []float64
}

// sampleShapes are the inputs the exactness tests select from: n
// values of each shape, deterministic for a given n.
func sampleShapes(n int) []shape {
	r := rand.New(rand.NewPCG(uint64(n), 5))
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1}
	gens := []struct {
		name string
		f    func(i int) float64
	}{
		{"random", func(int) float64 { return r.NormFloat64() }},
		{"equal", func(int) float64 { return 2.5 }},
		{"sorted", func(i int) float64 { return float64(i) }},
		{"reversed", func(i int) float64 { return float64(n - i) }},
		{"organ", func(i int) float64 { return float64(min(i, n-1-i)) }},
		{"dups", func(int) float64 { return float64(r.IntN(4)) }},
		{"specials", func(int) float64 { return specials[r.IntN(len(specials))] }},
	}
	out := []shape{{"killer", killerPattern(n)}}
	for _, g := range gens {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = g.f(i)
		}
		out = append(out, shape{g.name, xs})
	}
	return out
}

// checkQuantiles adds xs to a fresh Sample, reads each q in turn from
// that one Sample, and compares every read with sort.Float64s followed
// by an index.
func checkQuantiles(t *testing.T, name string, xs []float64, qs []float64) {
	t.Helper()
	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	sorted := slices.Clone(xs)
	sort.Float64s(sorted)
	for _, q := range qs {
		want := sorted[nearestRank(q, len(xs))]
		if got := s.Quantile(q); !sameOrderValue(got, want) {
			t.Fatalf("%s n=%d: Quantile(%g) = %g, sorted value %g", name, len(xs), q, got, want)
		}
	}
	if !sameOrderValue(s.Min(), sorted[0]) || !sameOrderValue(s.Max(), sorted[len(xs)-1]) {
		t.Fatalf("%s n=%d: Min/Max = %g/%g, sorted ends %g/%g", name, len(xs), s.Min(), s.Max(), sorted[0], sorted[len(xs)-1])
	}
}

// TestSampleQuantileMatchesSort: selection returns what sorting and
// indexing returns, for every rank of small samples and for the report
// quantiles of a large one, on every shape in sampleShapes, reading
// several quantiles in a row from one Sample in both q orders.
func TestSampleQuantileMatchesSort(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 1000} {
		var up, down []float64
		for k := 0; k < n; k++ {
			q := (float64(k) + 0.5) / float64(n) // nearestRank(q, n) == k
			if nearestRank(q, n) != k {
				t.Fatalf("q=%g n=%d: rank %d, want %d", q, n, nearestRank(q, n), k)
			}
			up = append(up, q)
			down = append([]float64{q}, down...)
		}
		for _, sh := range sampleShapes(n) {
			checkQuantiles(t, sh.name+"/ascending", sh.xs, up)
			checkQuantiles(t, sh.name+"/descending", sh.xs, down)
		}
	}
	qs := []float64{0, 0.5, 0.95, 0.99, 1}
	for _, sh := range sampleShapes(100000) {
		checkQuantiles(t, sh.name+"/ascending", sh.xs, qs)
		checkQuantiles(t, sh.name+"/descending", sh.xs, []float64{1, 0.99, 0.95, 0.5, 0})
	}
}

// TestSampleQuantileKillerBound: on a million values in the pattern
// that makes every partition drop only two values, selecting the median
// stays within a small multiple of sorting the same values, where a
// select without the depth limit would need ~2e11 comparisons
// (thousands of sorts; over 100 s on a 2-core Xeon).
func TestSampleQuantileKillerBound(t *testing.T) {
	xs := killerPattern(1 << 20)
	sorted := slices.Clone(xs)
	start := time.Now()
	sort.Float64s(sorted)
	sortTime := time.Since(start)

	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	start = time.Now()
	got := s.Quantile(0.5)
	selectTime := time.Since(start)
	if want := sorted[len(sorted)/2]; got != want {
		t.Fatalf("Quantile(0.5) = %g, want %g", got, want)
	}
	if selectTime > 50*sortTime+time.Second {
		t.Fatalf("Quantile(0.5) on the killer pattern took %v, sort.Float64s %v", selectTime, sortTime)
	}
}

// FuzzSampleQuantile: for any values (eight bytes each, so NaN, ±0 and
// ±Inf appear) and any q, Quantile, Min and Max match sort.Float64s
// followed by an index, and Mean is the insertion-order sum over N.
func FuzzSampleQuantile(f *testing.F) {
	bytesOf := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(bytesOf(3, 1, 2), 0.5)
	f.Add(bytesOf(math.NaN(), 1, math.Copysign(0, -1), 0, math.Inf(-1), math.NaN()), 0.0)
	f.Add(bytesOf(math.Inf(1), math.NaN(), -7, 7, 7, 7), 0.99)
	f.Add(bytesOf(killerPattern(64)...), 1.0)
	f.Add(bytesOf(5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14), 0.95)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		var s Sample
		var sum float64
		xs := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			s.Add(x)
			xs = append(xs, x)
			sum += x
		}
		if len(xs) == 0 {
			if s.Quantile(q) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
				t.Fatal("empty sample should report zeros")
			}
			return
		}
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		// NaN payloads are not compared: which operand's payload a sum
		// of two NaNs keeps depends on how the compiler orders them.
		if mean := sum / float64(len(xs)); math.Float64bits(s.Mean()) != math.Float64bits(mean) && !(math.IsNaN(s.Mean()) && math.IsNaN(mean)) {
			t.Fatalf("Mean = %g, want %g", s.Mean(), mean)
		}
		for _, qq := range []float64{q, 0.5, q} {
			if math.IsNaN(qq) {
				continue
			}
			want := sorted[nearestRank(qq, len(xs))]
			if got := s.Quantile(qq); !sameOrderValue(got, want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("Quantile(%g) = %g, sorted value %g (values %v)", qq, got, want, xs)
			}
		}
		if !sameOrderValue(s.Min(), sorted[0]) && !(math.IsNaN(s.Min()) && math.IsNaN(sorted[0])) {
			t.Fatalf("Min = %g, want %g", s.Min(), sorted[0])
		}
		if last := sorted[len(xs)-1]; !sameOrderValue(s.Max(), last) && !(math.IsNaN(s.Max()) && math.IsNaN(last)) {
			t.Fatalf("Max = %g, want %g", s.Max(), last)
		}
	})
}

var quantileSink float64

// BenchmarkSampleQuantile times one latency summary's reads of a
// cpu-gpu-serve-sized sample: p50, p95, p99 and Max over 716k
// exponential values, each iteration starting from the values in their
// insertion order, as a report does.
func BenchmarkSampleQuantile(b *testing.B) {
	const n = 716_000
	r := rand.New(rand.NewPCG(7, 8))
	var s Sample
	for i := 0; i < n; i++ {
		s.Add(r.ExpFloat64() * 1e-2)
	}
	orig := slices.Clone(s.xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(s.xs, orig)
		b.StartTimer()
		quantileSink = s.Quantile(0.50) + s.Quantile(0.95) + s.Quantile(0.99) + s.Max()
	}
}

// TestSelectQuantileOrdered: the generic entry point selects from
// integer and duration slices what sorting and indexing returns, and
// an empty slice gives the zero value.
func TestSelectQuantileOrdered(t *testing.T) {
	if got := SelectQuantile([]time.Duration(nil), 0.5); got != 0 {
		t.Fatalf("empty: %v, want 0", got)
	}
	r := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 2, 13, 1000} {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(r.Int64N(1 << 40))
		}
		sorted := slices.Clone(ds)
		slices.Sort(sorted)
		for _, q := range []float64{-1, 0, 0.5, 0.95, 0.99, 1, 2} {
			if got, want := SelectQuantile(ds, q), sorted[nearestRank(q, n)]; got != want {
				t.Fatalf("n=%d q=%g: %v, want %v", n, q, got, want)
			}
		}
		is := make([]int, n)
		for i := range is {
			is[i] = r.IntN(5) - 2
		}
		sortedInts := slices.Clone(is)
		slices.Sort(sortedInts)
		if got, want := SelectQuantile(is, 0.5), sortedInts[nearestRank(0.5, n)]; got != want {
			t.Fatalf("ints n=%d: median %d, want %d", n, got, want)
		}
	}
}

// Min returns the smallest value (0 when empty), ordering NaN first as
// sort.Float64s does.
func (s *Sample) Min() float64 { return s.min }

// Mean returns the running mean (0 for an empty accumulator).
func (r *Running) Mean() float64 { return r.mean }
