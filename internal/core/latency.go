package core

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// LatencySummary describes the per-item serving-latency distribution
// of one result stream: total latency (arrival to completion) with
// tail quantiles, split into queue wait (arrival to service start) and
// service time (in-device span). Quantiles are exact: each completion's
// (wait, service) pair is stored once per session, in the chunks of
// the collector that owns it (never re-copied), as two uint32
// nanosecond counts (8 bytes) when both parts lie in [0, 2^32) ns and
// as two durations (16 bytes) otherwise. A summary selects the order
// statistics of those values (stats.SelectQuantile), so no bucketing
// error enters the tail numbers. A merged collector
// (NewMergedCollector) stores no pairs: its summary is a view that
// selects over its parts' chunks. The result is bit for bit what a
// stats.Sample of each distribution's seconds would report.
type LatencySummary struct {
	// N is the number of items summarized.
	N int
	// Mean/P50/P95/P99/Max describe total latency, End-ArrivedAt.
	Mean, P50, P95, P99, Max time.Duration
	// QueueMean and QueueP99 describe the queueing delay,
	// Start-ArrivedAt.
	QueueMean, QueueP99 time.Duration
	// ServiceMean and ServiceP99 describe the service time, End-Start.
	ServiceMean, ServiceP99 time.Duration
}

// String renders the summary on one line, milliseconds throughout.
func (l LatencySummary) String() string {
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	return fmt.Sprintf("latency p50 %.1fms p95 %.1fms p99 %.1fms max %.1fms (queue %.1fms + service %.1fms mean, n=%d)",
		ms(l.P50), ms(l.P95), ms(l.P99), ms(l.Max), ms(l.QueueMean), ms(l.ServiceMean), l.N)
}

// latencyPair is one completion as a collector keeps it when either
// part falls outside [0, 2^32) ns. Its total latency is wait+service,
// exactly as Result.Latency derives it.
type latencyPair struct{ wait, service time.Duration }

// narrowPair is one completion whose parts both lie in [0, 2^32) ns,
// as nanosecond counts: half a latencyPair's bytes. Every pair a
// session stores under 4.29 s per part is narrow.
type narrowPair struct{ wait, service uint32 }

// latencyDist names one of the distributions a summary selects over.
type latencyDist int

const (
	totals latencyDist = iota
	waits
	services
)

// distValue is distribution d's value of a (wait, service) pair. A
// narrow total is a uint32 sum, so it is read only when the summary's
// maximum total is below 2^32 ns.
func distValue[T uint32 | time.Duration](wait, service T, d latencyDist) T {
	switch d {
	case waits:
		return wait
	case services:
		return service
	}
	return wait + service
}

// Chunk sizes of a latencyAgg's pair lists: the first chunk holds
// firstLatencyChunk pairs and each next one twice its predecessor, up
// to maxLatencyChunk (64 KB narrow, 128 KB wide). Small runs keep a
// small floor; long ones allocate one chunk per 8K completions and
// never re-copy what they keep.
const (
	firstLatencyChunk = 64
	maxLatencyChunk   = 8192
)

// appendChunked appends v to the last of chunks, opening a new chunk
// when the last is full.
func appendChunked[T any](chunks [][]T, v T) [][]T {
	last := len(chunks) - 1
	if last < 0 || len(chunks[last]) == cap(chunks[last]) {
		size := firstLatencyChunk
		if last >= 0 {
			size = min(2*cap(chunks[last]), maxLatencyChunk)
		}
		chunks = append(chunks, make([]T, 0, size))
		last++
	}
	chunks[last] = append(chunks[last], v)
	return chunks
}

// latencyAgg accumulates the per-item distributions a Collector
// summarizes: every (wait, service) pair for the exact quantiles, in
// the narrow list when both parts fit a uint32 of nanoseconds and in
// the wide list otherwise, plus the running sums and maximum, kept as
// values arrive. A view (parts not nil) keeps the sums and maximum of
// everything added to it but stores no pair: its quantiles select over
// its parts' lists, which must hold exactly the pairs added to the
// view. It keeps its own sums rather than adding up the parts'
// afterwards: a float sum depends on the order of its terms, and the
// view's order (the merged delivery order) is the one a store of the
// same results would sum in. The quantiles need no such care, since an
// order statistic of a union does not depend on the order its values
// are read in; nor does it depend on which list a value was kept in.
type latencyAgg struct {
	narrow [][]narrowPair  // all full but the last
	wide   [][]latencyPair // all full but the last
	parts  []*latencyAgg   // a view's parts; nil for a store
	n      int
	// The sums of each distribution's .Seconds() values in insertion
	// order: the bits stats.Sample.Mean would sum.
	totalSum, waitSum, serviceSum float64
	maxTotal                      time.Duration
}

func (a *latencyAgg) add(wait, service time.Duration) {
	if a.parts == nil {
		// A negative part converts to a uint64 of 2^63 or more: wide.
		if uint64(wait) < 1<<32 && uint64(service) < 1<<32 {
			a.narrow = appendChunked(a.narrow, narrowPair{uint32(wait), uint32(service)})
		} else {
			a.wide = appendChunked(a.wide, latencyPair{wait, service})
		}
	}
	a.n++
	total := wait + service
	a.totalSum += total.Seconds()
	a.waitSum += wait.Seconds()
	a.serviceSum += service.Seconds()
	a.maxTotal = max(a.maxTotal, total)
}

// stores returns the aggs whose lists hold the agg's pairs: a view's
// parts, or the store itself.
func (a *latencyAgg) stores() []*latencyAgg {
	if a.parts != nil {
		return a.parts
	}
	return []*latencyAgg{a}
}

// fitsNarrow reports whether every value the agg's summary selects
// over, totals included, is a uint32 of nanoseconds: no wide pair in
// any store it reads and a maximum total below 2^32 ns.
func (a *latencyAgg) fitsNarrow() bool {
	for _, s := range a.stores() {
		if len(s.wide) > 0 {
			return false
		}
	}
	return a.maxTotal < 1<<32
}

// fillNarrow refills dst with one distribution's value of every pair
// the agg reads; only a summary that fitsNarrow calls it.
func (a *latencyAgg) fillNarrow(dst []uint32, d latencyDist) []uint32 {
	dst = dst[:0]
	for _, s := range a.stores() {
		for _, c := range s.narrow {
			for _, p := range c {
				dst = append(dst, distValue(p.wait, p.service, d))
			}
		}
	}
	return dst
}

// fillWide refills dst with one distribution's value of every pair the
// agg reads, narrow pairs widened first.
func (a *latencyAgg) fillWide(dst []time.Duration, d latencyDist) []time.Duration {
	dst = dst[:0]
	for _, s := range a.stores() {
		for _, c := range s.narrow {
			for _, p := range c {
				dst = append(dst, distValue(time.Duration(p.wait), time.Duration(p.service), d))
			}
		}
		for _, c := range s.wide {
			for _, p := range c {
				dst = append(dst, distValue(p.wait, p.service, d))
			}
		}
	}
	return dst
}

// LatencyScratch is the reusable selection buffer of
// Collector.LatencyIn, in the two widths a summary selects in: uint32
// nanoseconds when every value fits, durations otherwise. The zero
// value is ready. Each width is allocated on first need, for the
// summary's count or the count Reserve was given, whichever is larger,
// and reused by every later summary it holds. A summary whose values
// fit uint32 but whose narrow buffer is too small selects in the wide
// one, if that holds it, rather than allocate.
type LatencyScratch struct {
	reserve int
	narrow  []uint32
	wide    []time.Duration
}

// Reserve makes the buffers the scratch allocates later hold at least
// n values: a report reserves its largest collector's count.
func (s *LatencyScratch) Reserve(n int) { s.reserve = max(s.reserve, n) }

// summary selects the quantiles in s, refilled per distribution, in
// the narrow buffer when every value fits it and in the wide one
// otherwise. Duration.Seconds is monotone, and so is widening a uint32,
// so an order statistic of either buffer is the order statistic of the
// values' seconds, and each goes through the same seconds round trip a
// stats.Sample would apply.
func (a *latencyAgg) summary(s *LatencyScratch) LatencySummary {
	if a.n == 0 {
		return LatencySummary{}
	}
	mean := func(sum float64) time.Duration { return seconds(sum / float64(a.n)) }
	l := LatencySummary{
		N:           a.n,
		Mean:        mean(a.totalSum),
		Max:         seconds(a.maxTotal.Seconds()),
		QueueMean:   mean(a.waitSum),
		ServiceMean: mean(a.serviceSum),
	}
	if a.fitsNarrow() && (cap(s.narrow) >= a.n || cap(s.wide) < a.n) {
		if cap(s.narrow) < a.n {
			s.narrow = make([]uint32, 0, max(a.n, s.reserve))
		}
		selectQuantiles(&l, s.narrow, a.fillNarrow)
	} else {
		if cap(s.wide) < a.n {
			s.wide = make([]time.Duration, 0, max(a.n, s.reserve))
		}
		selectQuantiles(&l, s.wide, a.fillWide)
	}
	return l
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// selectQuantiles sets l's quantiles, selecting in xs as fill refills
// it with totals, then waits, then services.
func selectQuantiles[T uint32 | time.Duration](l *LatencySummary, xs []T, fill func([]T, latencyDist) []T) {
	quantile := func(q float64) time.Duration {
		return seconds(time.Duration(stats.SelectQuantile(xs, q)).Seconds())
	}
	xs = fill(xs, totals)
	l.P50, l.P95, l.P99 = quantile(0.50), quantile(0.95), quantile(0.99)
	xs = fill(xs, waits)
	l.QueueP99 = quantile(0.99)
	xs = fill(xs, services)
	l.ServiceP99 = quantile(0.99)
}
