package core

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// LatencySummary describes the per-item serving-latency distribution
// of one result stream: total latency (arrival to completion) with
// tail quantiles, split into queue wait (arrival to service start) and
// service time (in-device span). Quantiles are exact: a Collector
// keeps each completion's (wait, service) pair, 16 bytes, in chunks
// that are never re-copied, and a summary selects the order statistics
// of those values (stats.SelectQuantile), so no bucketing error enters
// the tail numbers. The result is bit for bit what a stats.Sample of
// each distribution's seconds would report.
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
// the running sums and maximum, kept as values arrive.
type latencyAgg struct {
	chunks [][]latencyPair // all full but the last
	n      int
	// The sums of each distribution's .Seconds() values in insertion
	// order: the bits stats.Sample.Mean would sum.
	totalSum, waitSum, serviceSum float64
	maxTotal                      time.Duration
}

func (a *latencyAgg) add(wait, service time.Duration) {
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
	a.n++
	total := wait + service
	a.totalSum += total.Seconds()
	a.waitSum += wait.Seconds()
	a.serviceSum += service.Seconds()
	a.maxTotal = max(a.maxTotal, total)
}

// summary selects the quantiles from one scratch slice, refilled per
// distribution. Duration.Seconds is monotone, so an order statistic of
// the durations is the order statistic of their seconds, and each value
// goes through the same seconds round trip a stats.Sample would apply.
func (a *latencyAgg) summary() LatencySummary {
	if a.n == 0 {
		return LatencySummary{}
	}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	scratch := make([]time.Duration, 0, a.n)
	fill := func(part func(latencyPair) time.Duration) {
		scratch = scratch[:0]
		for _, c := range a.chunks {
			for _, p := range c {
				scratch = append(scratch, part(p))
			}
		}
	}
	quantile := func(q float64) time.Duration { return sec(stats.SelectQuantile(scratch, q).Seconds()) }
	mean := func(sum float64) time.Duration { return sec(sum / float64(a.n)) }

	l := LatencySummary{
		N:           a.n,
		Mean:        mean(a.totalSum),
		Max:         sec(a.maxTotal.Seconds()),
		QueueMean:   mean(a.waitSum),
		ServiceMean: mean(a.serviceSum),
	}
	fill(func(p latencyPair) time.Duration { return p.wait + p.service })
	l.P50, l.P95, l.P99 = quantile(0.50), quantile(0.95), quantile(0.99)
	fill(func(p latencyPair) time.Duration { return p.wait })
	l.QueueP99 = quantile(0.99)
	fill(func(p latencyPair) time.Duration { return p.service })
	l.ServiceP99 = quantile(0.99)
	return l
}
