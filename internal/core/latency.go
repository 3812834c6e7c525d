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
// (wait, service) pair, 16 bytes, is stored once per session, in the
// chunks of the collector that owns it (never re-copied), and a summary
// selects the order statistics of those values (stats.SelectQuantile),
// so no bucketing error enters the tail numbers. A merged collector
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

// latencyPair is one completion as a collector keeps it. Its total
// latency is wait+service, exactly as Result.Latency derives it.
type latencyPair struct{ wait, service time.Duration }

// Chunk sizes of a latencyAgg: the first chunk holds firstLatencyChunk
// pairs and each next one twice its predecessor, up to maxLatencyChunk
// (128 KB). Small runs keep a small floor; long ones allocate one chunk
// per 8K completions and never re-copy what they keep.
const (
	firstLatencyChunk = 64
	maxLatencyChunk   = 8192
)

// latencyAgg accumulates the per-item distributions a Collector
// summarizes: every (wait, service) pair for the exact quantiles, plus
// the running sums and maximum, kept as values arrive. A view (parts
// not nil) keeps the sums and maximum of everything added to it but
// stores no pair: its quantiles select over its parts' chunks, which
// must hold exactly the pairs added to the view. It keeps its own sums
// rather than adding up the parts' afterwards: a float sum depends on
// the order of its terms, and the view's order (the merged delivery
// order) is the one a store of the same results would sum in. The
// quantiles need no such care, since an order statistic of a union
// does not depend on the order its values are read in.
type latencyAgg struct {
	chunks [][]latencyPair // all full but the last
	parts  []*latencyAgg   // a view's parts; nil for a store
	n      int
	// The sums of each distribution's .Seconds() values in insertion
	// order: the bits stats.Sample.Mean would sum.
	totalSum, waitSum, serviceSum float64
	maxTotal                      time.Duration
}

func (a *latencyAgg) add(wait, service time.Duration) {
	if a.parts == nil {
		a.store(wait, service)
	}
	a.n++
	total := wait + service
	a.totalSum += total.Seconds()
	a.waitSum += wait.Seconds()
	a.serviceSum += service.Seconds()
	a.maxTotal = max(a.maxTotal, total)
}

// store appends one pair to the chunks, opening a new chunk when the
// last is full.
func (a *latencyAgg) store(wait, service time.Duration) {
	last := len(a.chunks) - 1
	if last < 0 || len(a.chunks[last]) == cap(a.chunks[last]) {
		size := firstLatencyChunk
		if last >= 0 {
			size = min(2*cap(a.chunks[last]), maxLatencyChunk)
		}
		a.chunks = append(a.chunks, make([]latencyPair, 0, size))
		last++
	}
	a.chunks[last] = append(a.chunks[last], latencyPair{wait, service})
}

func pairTotal(p latencyPair) time.Duration   { return p.wait + p.service }
func pairWait(p latencyPair) time.Duration    { return p.wait }
func pairService(p latencyPair) time.Duration { return p.service }

// fill refills scratch with one distribution's value of every pair the
// agg reads: its own chunks, or a view's parts' chunks in part order.
func (a *latencyAgg) fill(scratch []time.Duration, part func(latencyPair) time.Duration) []time.Duration {
	scratch = scratch[:0]
	if a.parts == nil {
		return appendPairs(scratch, a.chunks, part)
	}
	for _, p := range a.parts {
		scratch = appendPairs(scratch, p.chunks, part)
	}
	return scratch
}

func appendPairs(scratch []time.Duration, chunks [][]latencyPair, part func(latencyPair) time.Duration) []time.Duration {
	for _, c := range chunks {
		for _, p := range c {
			scratch = append(scratch, part(p))
		}
	}
	return scratch
}

// summary selects the quantiles in scratch, refilled per distribution;
// it allocates a scratch of its own only when scratch cannot hold n
// values. Duration.Seconds is monotone, so an order statistic of the
// durations is the order statistic of their seconds, and each value
// goes through the same seconds round trip a stats.Sample would apply.
func (a *latencyAgg) summary(scratch []time.Duration) LatencySummary {
	if a.n == 0 {
		return LatencySummary{}
	}
	if cap(scratch) < a.n {
		scratch = make([]time.Duration, 0, a.n)
	}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	quantile := func(xs []time.Duration, q float64) time.Duration {
		return sec(stats.SelectQuantile(xs, q).Seconds())
	}
	mean := func(sum float64) time.Duration { return sec(sum / float64(a.n)) }

	l := LatencySummary{
		N:           a.n,
		Mean:        mean(a.totalSum),
		Max:         sec(a.maxTotal.Seconds()),
		QueueMean:   mean(a.waitSum),
		ServiceMean: mean(a.serviceSum),
	}
	scratch = a.fill(scratch, pairTotal)
	l.P50, l.P95, l.P99 = quantile(scratch, 0.50), quantile(scratch, 0.95), quantile(scratch, 0.99)
	scratch = a.fill(scratch, pairWait)
	l.QueueP99 = quantile(scratch, 0.99)
	scratch = a.fill(scratch, pairService)
	l.ServiceP99 = quantile(scratch, 0.99)
	return l
}
