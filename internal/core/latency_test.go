package core

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/stats"
)

// sampleAgg is the collector's latency store as it was before the
// chunked pair store: one stats.Sample of seconds per distribution. It
// is the reference the pair store must match bit for bit.
type sampleAgg struct {
	total, queue, service stats.Sample
}

func (a *sampleAgg) add(r Result) {
	a.queue.Add(r.Wait().Seconds())
	a.service.Add(r.ServiceTime().Seconds())
	a.total.Add(r.Latency().Seconds())
}

func (a *sampleAgg) summary() LatencySummary {
	if a.total.N() == 0 {
		return LatencySummary{}
	}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return LatencySummary{
		N:           a.total.N(),
		Mean:        sec(a.total.Mean()),
		P50:         sec(a.total.Quantile(0.50)),
		P95:         sec(a.total.Quantile(0.95)),
		P99:         sec(a.total.Quantile(0.99)),
		Max:         sec(a.total.Max()),
		QueueMean:   sec(a.queue.Mean()),
		QueueP99:    sec(a.queue.Quantile(0.99)),
		ServiceMean: sec(a.service.Mean()),
		ServiceP99:  sec(a.service.Quantile(0.99)),
	}
}

// chunkBoundaries returns the completion counts at which the pair store
// fills a chunk: the first few doublings and two chunks at the cap.
func chunkBoundaries() []int {
	var out []int
	total, size := 0, firstLatencyChunk
	for i := 0; i < 9; i++ {
		total += size
		out = append(out, total)
		size = min(2*size, maxLatencyChunk)
	}
	return out
}

// latencyShape draws the i-th result's arrival, start and end.
type latencyShape struct {
	name string
	draw func(r *rand.Rand, i int) (arrived, start, end time.Duration)
}

var latencyShapes = []latencyShape{
	{"exponential", func(r *rand.Rand, i int) (time.Duration, time.Duration, time.Duration) {
		a := time.Duration(i) * 11 * time.Millisecond
		s := a + time.Duration(r.ExpFloat64()*float64(40*time.Millisecond))
		return a, s, s + time.Duration(r.ExpFloat64()*float64(15*time.Millisecond))
	}},
	{"zero-waits", func(r *rand.Rand, i int) (time.Duration, time.Duration, time.Duration) {
		a := time.Duration(i) * time.Millisecond
		s := a - time.Duration(r.IntN(2))*time.Microsecond // a negative wait clamps to 0
		return a, s, s + time.Duration(1+r.IntN(1000))*time.Microsecond
	}},
	{"ties", func(r *rand.Rand, i int) (time.Duration, time.Duration, time.Duration) {
		a := time.Duration(i) * time.Second
		s := a + time.Duration(r.IntN(3))*5*time.Millisecond
		return a, s, s + time.Duration(r.IntN(2))*20*time.Millisecond
	}},
	{"above-1s", func(r *rand.Rand, i int) (time.Duration, time.Duration, time.Duration) {
		a := time.Duration(i) * time.Second
		s := a + time.Second + time.Duration(r.Int64N(int64(3*time.Second)))
		return a, s, s + time.Second + time.Duration(r.Int64N(int64(time.Second)))
	}},
	{"above-2^32ns", func(r *rand.Rand, i int) (time.Duration, time.Duration, time.Duration) {
		a := time.Duration(i) * time.Hour
		s := a + 1<<32 + time.Duration(r.Int64N(1<<36))
		return a, s, s + 1<<32 + time.Duration(r.Int64N(1<<40))
	}},
	{"above-2^53ns", func(r *rand.Rand, i int) (time.Duration, time.Duration, time.Duration) {
		// Seconds no longer resolve single nanoseconds: the seconds
		// round trip of every value and sum is visible.
		s := 1<<53 + time.Duration(r.Int64N(1<<56))
		return 0, s, s + 1<<53 + time.Duration(r.Int64N(1<<57))
	}},
}

// TestLatencySummaryMatchesSamples: a Collector's summary equals the
// three-Sample reference bit for bit, at every chunk boundary ±1 and
// on empty, one- and two-item streams, for zero waits, ties and
// durations above 1 s, 2^32 ns and 2^53 ns, and again on a second and
// third read of the same collector (each read reorders its scratch
// values).
func TestLatencySummaryMatchesSamples(t *testing.T) {
	counts := []int{0, 1, 2}
	for _, b := range chunkBoundaries() {
		counts = append(counts, b-1, b, b+1)
	}
	for _, sh := range latencyShapes {
		for _, n := range counts {
			r := rand.New(rand.NewPCG(uint64(n), 33))
			c := NewCollector(false)
			sink := c.Sink()
			var ref sampleAgg
			for i := 0; i < n; i++ {
				a, s, e := sh.draw(r, i)
				res := Result{Index: i, ArrivedAt: a, Start: s, End: e}
				sink(res)
				ref.add(res)
			}
			want := ref.summary()
			for read := 1; read <= 3; read++ {
				if got := c.Latency(); got != want {
					t.Fatalf("%s n=%d read %d:\n got %+v\nwant %+v", sh.name, n, read, got, want)
				}
			}
		}
	}
}

// TestCollectorSinkAllocs: once its chunks have grown to the cap, a
// collector keeps results at well under one allocation per thousand.
func TestCollectorSinkAllocs(t *testing.T) {
	c := NewCollector(false)
	sink := c.Sink()
	res := Result{Label: -1, Pred: -1, ArrivedAt: time.Millisecond, Start: 3 * time.Millisecond,
		End: 9 * time.Millisecond, Device: "gpu", Tenant: "gold"}
	for i := 0; i < 4*maxLatencyChunk; i++ {
		sink(res)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1000; i++ {
			sink(res)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm Collector.Sink: %.2f allocations per 1000 results, want <= 1", allocs)
	}
}

// BenchmarkCollectorSink times one cpu-gpu-serve-sized run's worth of
// results (750k) into a fresh collector; -benchmem shows what the
// latency store keeps.
func BenchmarkCollectorSink(b *testing.B) {
	const n = 750_000
	results := make([]Result, 1000)
	r := rand.New(rand.NewPCG(7, 8))
	for i := range results {
		a := time.Duration(i) * 11 * time.Millisecond
		s := a + time.Duration(r.ExpFloat64()*float64(40*time.Millisecond))
		results[i] = Result{Index: i, Label: -1, Pred: -1, ArrivedAt: a, Start: s,
			End: s + time.Duration(r.ExpFloat64()*float64(15*time.Millisecond)), Device: "gpu"}
	}
	b.ReportAllocs()
	for b.Loop() {
		sink := NewCollector(false).Sink()
		for i := 0; i < n; i++ {
			sink(results[i%len(results)])
		}
	}
}
