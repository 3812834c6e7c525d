package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
	"unsafe"

	"repro/internal/stats"
)

// sampleAgg is the collector's latency store as it was before the
// chunked pair store: one stats.Sample of seconds per distribution. It
// is the reference the pair store must match bit for bit.
type sampleAgg struct {
	total, queue, service stats.Sample
}

func (a *sampleAgg) add(r Result) { a.addPair(r.Wait(), r.ServiceTime()) }

func (a *sampleAgg) addPair(wait, service time.Duration) {
	a.queue.Add(wait.Seconds())
	a.service.Add(service.Seconds())
	a.total.Add((wait + service).Seconds())
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
// values); then for merged views (testMergedView).
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
	t.Run("merged-view", testMergedView)
}

// testMergedView (TestLatencySummaryMatchesSamples/merged-view): a
// merged collector over k = 1, 2 and 3 part stores reads, for the
// union of its parts, what the three-Sample reference of the union
// reports, bit for bit, and each part still reads its own. Part sizes
// run through every chunk boundary ±1 and include empty parts; results
// reach the parts interleaved, each sunk into its part and then into
// the merged collector, as a session delivers them. Every read goes
// through one shared scratch, sized for the merged collector, in
// either order: the parts first, then merged, and the reverse.
func testMergedView(t *testing.T) {
	counts := []int{0, 1, 2}
	for _, b := range chunkBoundaries() {
		counts = append(counts, b-1, b, b+1)
	}
	for k := 1; k <= 3; k++ {
		for _, sh := range latencyShapes {
			for i := range counts {
				// Part j takes every count in turn, offset so parts of
				// one view differ in size.
				sizes := make([]int, k)
				for j := range sizes {
					sizes[j] = counts[(i+11*j)%len(counts)]
				}
				checkMergedView(t, sh, sizes)
			}
			checkMergedView(t, sh, make([]int, k)) // every part empty
		}
	}
}

func checkMergedView(t *testing.T, sh latencyShape, sizes []int) {
	t.Helper()
	n := 0
	for _, s := range sizes {
		n += s
	}
	r := rand.New(rand.NewPCG(uint64(n), uint64(len(sizes))))
	parts := make([]*Collector, len(sizes))
	sinks := make([]func(Result), len(sizes))
	refs := make([]sampleAgg, len(sizes))
	for j := range parts {
		parts[j] = NewCollector(false)
		sinks[j] = parts[j].Sink()
	}
	merged := NewMergedCollector(false, parts...)
	mergedSink := merged.Sink()
	var ref sampleAgg
	left := append([]int(nil), sizes...)
	for i := 0; i < n; i++ {
		j := r.IntN(len(left))
		for left[j] == 0 {
			j = (j + 1) % len(left)
		}
		left[j]--
		a, s, e := sh.draw(r, i)
		res := Result{Index: i, ArrivedAt: a, Start: s, End: e}
		sinks[j](res)
		mergedSink(res)
		refs[j].add(res)
		ref.add(res)
	}
	want := ref.summary()
	wantParts := make([]LatencySummary, len(refs))
	for j := range refs {
		wantParts[j] = refs[j].summary()
	}
	var scratch LatencyScratch
	scratch.Reserve(n)
	readParts := func(order string) {
		for j, p := range parts {
			if got := p.LatencyIn(&scratch); got != wantParts[j] {
				t.Fatalf("%s parts %v, %s, part %d:\n got %+v\nwant %+v", sh.name, sizes, order, j, got, wantParts[j])
			}
		}
	}
	readMerged := func(order string) {
		if got := merged.LatencyIn(&scratch); got != want {
			t.Fatalf("%s parts %v, %s, merged:\n got %+v\nwant %+v", sh.name, sizes, order, got, want)
		}
	}
	readParts("parts first")
	readMerged("parts first")
	readMerged("merged first")
	readParts("merged first")
	if got := merged.Latency(); got != want {
		t.Fatalf("%s parts %v, Latency alone:\n got %+v\nwant %+v", sh.name, sizes, got, want)
	}
}

// latencyPairs is one store's (wait, service) pairs, added to its
// latencyAgg as they are, unclamped.
type latencyPairs [][2]time.Duration

// manyPairs returns n pairs of a few milliseconds each, every every-th
// one (if every > 0) with its service lengthened by long.
func manyPairs(n, every int, long time.Duration) latencyPairs {
	r := rand.New(rand.NewPCG(uint64(n), uint64(every)))
	out := make(latencyPairs, n)
	for i := range out {
		out[i] = [2]time.Duration{time.Duration(r.Int64N(int64(40 * time.Millisecond))),
			time.Duration(r.Int64N(int64(15 * time.Millisecond)))}
		if every > 0 && i%every == every-1 {
			out[i][1] += long
		}
	}
	return out
}

// TestLatencyWidthSplit: pairs at the edges of the narrow range are
// kept in the list their values pick, and every summary, of a store
// and of a merged view over the stores, equals the three-Sample
// reference bit for bit, on the first read and on two more through the
// same scratch. A fresh scratch selects in its wide buffer exactly when
// some part or some total lies outside [0, 2^32) ns, as wantWide says
// from the values themselves.
func TestLatencyWidthSplit(t *testing.T) {
	const top = 1<<32 - 1
	cases := []struct {
		name  string
		parts []latencyPairs
	}{
		{"parts at 2^32-1", []latencyPairs{{{top, 0}, {0, top}, {5, 7}}}},
		{"parts at 2^32", []latencyPairs{{{1 << 32, 0}, {3, 4}}, {{0, 1 << 32}, {top, 0}}}},
		{"total crosses 2^32", []latencyPairs{{{1 << 31, 1 << 31}, {9, 2}}, {{top, top}}}},
		{"negative wait", []latencyPairs{{{-5 * time.Millisecond, 3 * time.Millisecond}, {2 * time.Millisecond, time.Millisecond}}}},
		{"mixed in one store", []latencyPairs{manyPairs(1000, 7, 5*time.Second)}},
		{"view over narrow and one wide", []latencyPairs{manyPairs(300, 0, 0), {{1<<32 + 5, time.Millisecond}}}},
	}
	for _, tc := range cases {
		stores := make([]*latencyAgg, len(tc.parts))
		refs := make([]sampleAgg, len(tc.parts))
		view := latencyAgg{parts: stores}
		var ref sampleAgg
		var all latencyPairs
		for j, pairs := range tc.parts {
			stores[j] = new(latencyAgg)
			for _, p := range pairs {
				stores[j].add(p[0], p[1])
				view.add(p[0], p[1])
				refs[j].addPair(p[0], p[1])
				ref.addPair(p[0], p[1])
			}
			all = append(all, pairs...)
			var narrow, wide int
			for _, p := range pairs {
				if p[0] >= 0 && p[1] >= 0 && p[0] < 1<<32 && p[1] < 1<<32 {
					narrow++
				} else {
					wide++
				}
			}
			if got := chunkedLen(stores[j].narrow); got != narrow {
				t.Errorf("%s part %d: %d narrow pairs kept, want %d", tc.name, j, got, narrow)
			}
			if got := chunkedLen(stores[j].wide); got != wide {
				t.Errorf("%s part %d: %d wide pairs kept, want %d", tc.name, j, got, wide)
			}
		}
		check := func(what string, a *latencyAgg, pairs latencyPairs, ref *sampleAgg) {
			t.Helper()
			var scratch LatencyScratch
			want := ref.summary()
			for read := 1; read <= 3; read++ {
				if got := a.summary(&scratch); got != want {
					t.Fatalf("%s, %s read %d:\n got %+v\nwant %+v", tc.name, what, read, got, want)
				}
			}
			if gotWide := cap(scratch.wide) > 0; gotWide != wantWide(pairs) || gotWide == (cap(scratch.narrow) > 0) {
				t.Errorf("%s, %s: narrow scratch %d, wide scratch %d; want wide %v",
					tc.name, what, cap(scratch.narrow), cap(scratch.wide), wantWide(pairs))
			}
		}
		for j := range stores {
			check(fmt.Sprintf("part %d", j), stores[j], tc.parts[j], &refs[j])
		}
		check("merged view", &view, all, &ref)
		// A scratch that selected the view serves its parts too: a part
		// that fits narrow selects in a wide buffer that holds it rather
		// than allocate a narrow one.
		var shared LatencyScratch
		view.summary(&shared)
		for j := range stores {
			if got, want := stores[j].summary(&shared), refs[j].summary(); got != want {
				t.Fatalf("%s, part %d after the view:\n got %+v\nwant %+v", tc.name, j, got, want)
			}
		}
		if wantWide(all) && cap(shared.narrow) > 0 {
			t.Errorf("%s: parts read after a wide view allocated a narrow scratch", tc.name)
		}
	}
}

func chunkedLen[T any](chunks [][]T) int {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	return n
}

// wantWide reports whether a summary of pairs must select in durations:
// some part or some total outside [0, 2^32) ns.
func wantWide(pairs latencyPairs) bool {
	for _, p := range pairs {
		for _, v := range []time.Duration{p[0], p[1], p[0] + p[1]} {
			if v < 0 || v >= 1<<32 {
				return true
			}
		}
	}
	return false
}

// TestNarrowStoreBytes: a store of n completions under 4.29 s keeps 8
// bytes per completion, at most one chunk more than 8·n bytes of chunk
// capacity, and opens no wide chunk.
func TestNarrowStoreBytes(t *testing.T) {
	if size := unsafe.Sizeof(narrowPair{}); size != 8 {
		t.Fatalf("narrowPair is %d bytes, want 8", size)
	}
	counts := []int{1, 2, 100_000}
	for _, b := range chunkBoundaries() {
		counts = append(counts, b-1, b, b+1)
	}
	for _, n := range counts {
		var a latencyAgg
		for i := 0; i < n; i++ {
			a.add(time.Duration(i%4000)*time.Millisecond, time.Duration(1+i%13)*time.Millisecond)
		}
		bytes := 0
		for _, c := range a.narrow {
			bytes += cap(c) * int(unsafe.Sizeof(narrowPair{}))
		}
		if limit := 8*n + 8*maxLatencyChunk; bytes > limit || len(a.wide) != 0 {
			t.Errorf("n=%d: %d bytes of narrow chunks (limit %d), %d wide chunks", n, bytes, limit, len(a.wide))
		}
	}
}

// TestCollectorSinkAllocs: once its chunks have grown to the cap, a
// collector keeps results at well under one allocation per thousand,
// and a merged view, which stores no pair, at none.
func TestCollectorSinkAllocs(t *testing.T) {
	res := Result{Label: -1, Pred: -1, ArrivedAt: time.Millisecond, Start: 3 * time.Millisecond,
		End: 9 * time.Millisecond, Device: "gpu", Tenant: "gold"}
	warm := func(sink func(Result)) {
		for i := 0; i < 4*maxLatencyChunk; i++ {
			sink(res)
		}
	}
	per1000 := func(sink func(Result)) float64 {
		return testing.AllocsPerRun(50, func() {
			for i := 0; i < 1000; i++ {
				sink(res)
			}
		})
	}
	part := NewCollector(false)
	sink := part.Sink()
	warm(sink)
	if allocs := per1000(sink); allocs > 1 {
		t.Fatalf("warm Collector.Sink: %.2f allocations per 1000 results, want <= 1", allocs)
	}
	view := NewMergedCollector(false, part).Sink()
	warm(view)
	if allocs := per1000(view); allocs != 0 {
		t.Fatalf("warm merged-view Sink: %.2f allocations per 1000 results, want 0", allocs)
	}
}

// TestSummariesShareOneScratch: a report's summaries of a merged
// collector and its k parts, read through one scratch sized for the
// merged collector, allocate that scratch and nothing else.
func TestSummariesShareOneScratch(t *testing.T) {
	for k := 1; k <= 3; k++ {
		parts := make([]*Collector, k)
		for j := range parts {
			parts[j] = NewCollector(false)
		}
		merged := NewMergedCollector(false, parts...)
		mergedSink := merged.Sink()
		for i := 0; i < 5000; i++ {
			res := Result{Index: i, ArrivedAt: time.Duration(i) * time.Millisecond,
				Start: time.Duration(i+i%7) * time.Millisecond, End: time.Duration(i+i%7+3+i%5) * time.Millisecond}
			parts[i%k].Sink()(res)
			mergedSink(res)
		}
		allocs := testing.AllocsPerRun(20, func() {
			var scratch LatencyScratch
			scratch.Reserve(merged.N)
			merged.LatencyIn(&scratch)
			for _, p := range parts {
				p.LatencyIn(&scratch)
			}
		})
		if allocs != 1 {
			t.Errorf("k=%d: summaries of a merged collector and its parts made %.0f allocations, want 1 (the scratch)", k, allocs)
		}
	}
}

// BenchmarkCollectorSink times one cpu-gpu-serve-sized run's worth of
// results (750k): "store" into one fresh collector, "merged-view" into
// two group collectors (alternating, like a CPU+GPU pool) and the
// merged view over them, as a session sinks them, and "wide" into one
// collector whose service times all exceed 4.29 s. -benchmem shows what
// the latency store keeps: the session's two sinks per result keep one
// store between them, so the first two cases allocate about the same,
// 8 B per result, and "wide" keeps 16 B per result.
func BenchmarkCollectorSink(b *testing.B) {
	const n = 750_000
	results := make([]Result, 1000)
	wide := make([]Result, len(results))
	r := rand.New(rand.NewPCG(7, 8))
	for i := range results {
		a := time.Duration(i) * 11 * time.Millisecond
		s := a + time.Duration(r.ExpFloat64()*float64(40*time.Millisecond))
		results[i] = Result{Index: i, Label: -1, Pred: -1, ArrivedAt: a, Start: s,
			End: s + time.Duration(r.ExpFloat64()*float64(15*time.Millisecond)), Device: "gpu"}
		wide[i] = results[i]
		wide[i].End += 5 * time.Second
	}
	store := func(results []Result) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sink := NewCollector(false).Sink()
				for i := 0; i < n; i++ {
					sink(results[i%len(results)])
				}
			}
		}
	}
	b.Run("store", store(results))
	b.Run("merged-view", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			cpu, gpu := NewCollector(false), NewCollector(false)
			groups := [2]func(Result){cpu.Sink(), gpu.Sink()}
			merged := NewMergedCollector(false, cpu, gpu).Sink()
			for i := 0; i < n; i++ {
				res := results[i%len(results)]
				groups[i%2](res)
				merged(res)
			}
		}
	})
	b.Run("wide", store(wide))
}
