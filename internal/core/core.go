// Package core is the Go port of NCSw, the paper's §III contribution:
// a small inference framework that connects input *sources* to target
// *devices* (the class diagram of Fig. 3) and schedules parallel
// multi-VPU execution with one worker per Neural Compute Stick, static
// round-robin dispatch and load/result overlap across devices (the
// timeline of Fig. 4).
//
// Sources produce work items (images with ground-truth labels);
// targets consume a source inside a simulation environment and emit a
// Result per inference. The three targets mirror the paper's three
// implementations: Caffe-MKL on the CPU, Caffe-cuDNN on the GPU (both
// batch engines), and the multi-VPU NCS pipeline. Different sources
// can feed different targets in the same environment, which is how
// §III's device groups ("run a specific subset of inputs on a GPU, and
// at the same time another subset ... on several VPUs") compose.
package core

import (
	"fmt"
	"time"

	"repro/internal/imagenet"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Item is one unit of work: an image to classify. Image may be nil:
// targets only keep time, and a functional session classifies the
// dataset image at Index instead. Label is the ground-truth class, or
// -1 when unknown.
//
// Index -1 is reserved: the framework uses it as the end-of-stream
// sentinel on internal feeds. StreamSource.Push rejects it.
type Item struct {
	Index int
	Image *tensor.T
	Label int
	// ArrivedAt is the virtual instant the item became visible to the
	// serving system: the arrival instant under an ArrivalSource, the
	// Push instant on a stream, or the pull instant for closed-loop
	// (pull-on-demand) sources. Targets carry it onto the Result so
	// queueing delay is separable from service time.
	ArrivedAt time.Duration
	// Tenant identifies the traffic class the item belongs to in a
	// multi-tenant session ("" for untenanted runs). Stamped by the
	// tenant multiplexer at admission and carried through every target
	// onto the Result so per-tenant accounting survives pooling,
	// batching and stage hops.
	Tenant string
}

// Source produces items. Next blocks in virtual time when the source
// is momentarily empty (streaming sources) and reports ok=false when
// exhausted. Implementations need no locking: the simulation kernel
// runs one process at a time.
type Source interface {
	Next(p *sim.Proc) (Item, bool)
}

// Result is one completed inference.
type Result struct {
	Index int
	Image *tensor.T // copied from Item.Image
	Label int       // ground truth, -1 unknown
	// Pred is the predicted class: a functional pipeline.Session sets it
	// after the run; hand-wired targets leave -1.
	Pred int
	// Confidence is the softmax confidence of Pred.
	Confidence float32
	// Start/End are virtual timestamps of the inference span.
	Start, End time.Duration
	// ArrivedAt is when the item became visible to the serving system
	// (copied from Item.ArrivedAt); End-ArrivedAt is the per-item
	// serving latency, Start-ArrivedAt the queueing delay.
	ArrivedAt time.Duration
	// DispatchedAt is when the item left its queue into the device
	// pipeline (a VPU worker dequeued it, a batch target pulled it into
	// the assembling batch); it separates feed-queue wait from batch
	// assembly / transfer time.
	DispatchedAt time.Duration
	// Device identifies which device produced the result.
	Device string
	// Tenant is the traffic class the item belonged to (copied from
	// Item.Tenant; "" for untenanted runs).
	Tenant string
	// Err records an inference failure the device reported.
	Err error
}

// Wait returns the queueing delay: arrival to service start. It is
// only meaningful when the producing target copied Item.ArrivedAt
// onto the result (see Target); a target that leaves ArrivedAt zero
// makes Wait measure from the start of the simulation.
func (r Result) Wait() time.Duration {
	if w := r.Start - r.ArrivedAt; w > 0 {
		return w
	}
	return 0
}

// ServiceTime returns the in-device span, service start to completion.
func (r Result) ServiceTime() time.Duration {
	if s := r.End - r.Start; s > 0 {
		return s
	}
	return 0
}

// Latency returns the full per-item serving latency, arrival to
// completion.
func (r Result) Latency() time.Duration { return r.Wait() + r.ServiceTime() }

// Job tracks one target run. Its fields become meaningful as the
// simulation advances; read them after Env.Run returns.
type Job struct {
	// StartedAt is when Target.Start's main process began executing
	// (before any device setup).
	StartedAt time.Duration
	// ReadyAt is when setup finished (devices opened, graphs
	// allocated) and steady-state processing began; throughput is
	// measured from here, matching the paper's exclusion of one-time
	// setup.
	ReadyAt time.Duration
	// DoneAt is when the last result completed and the target shut
	// down.
	DoneAt time.Duration
	// Images is the number of completed inferences.
	Images int
	// Err is the first error encountered, if any.
	Err error

	// watchers run inside the target's main process the moment the job
	// completes, letting composite targets (Pool) join their children
	// in virtual time.
	watchers []func(p *sim.Proc)
	// done flips when finish runs; composite targets use it to stop
	// feeding children that have already shut down.
	done bool
}

// Done reports whether the target has shut down (in virtual time).
func (j *Job) Done() bool { return j.done }

// OnFinish registers fn to run (in the target's own process) when the
// job completes. Must be called before the simulation starts the
// target's shutdown.
func (j *Job) OnFinish(fn func(p *sim.Proc)) {
	j.watchers = append(j.watchers, fn)
}

// Finish stamps DoneAt and notifies completion watchers. Every
// Target.Start implementation must route its terminal paths through
// here (not set DoneAt directly) — composite targets like Pool join
// their children through this signal, and a child that never calls it
// deadlocks the pool join.
func (j *Job) Finish(p *sim.Proc) {
	j.DoneAt = p.Now()
	j.done = true
	for _, fn := range j.watchers {
		fn(p)
	}
}

// Span returns the steady-state window DoneAt-ReadyAt. When the
// window is degenerate (DoneAt == ReadyAt — e.g. a single-image run
// whose only completion lands on the ReadyAt instant) it falls back
// to the full run window DoneAt-StartedAt, so callers measuring
// throughput still see the real virtual time the work occupied.
func (j *Job) Span() time.Duration {
	if span := j.DoneAt - j.ReadyAt; span > 0 {
		return span
	}
	return j.DoneAt - j.StartedAt
}

// Throughput returns images per second over the steady-state window
// [ReadyAt, DoneAt] — one-time setup (firmware boot, graph
// allocation) is excluded, matching the paper's methodology. For
// degenerate windows it uses Span's full-run fallback; it returns 0
// only when no images completed or no virtual time elapsed at all.
func (j *Job) Throughput() float64 {
	if j.Images == 0 {
		return 0
	}
	span := j.Span().Seconds()
	if span <= 0 {
		return 0
	}
	return float64(j.Images) / span
}

// Target consumes a source inside env, calling sink for every result.
// Start registers simulation processes and returns immediately; the
// caller then drives env.Run. Implementations must call Job.Finish
// (in the target's own process) on every terminal path — that is the
// completion signal composite targets join on. They should also copy
// Item.ArrivedAt onto each Result (and stamp DispatchedAt when the
// item leaves its queue) so the latency lifecycle stays intact;
// otherwise Collector latency splits are meaningless for the target.
type Target interface {
	Name() string
	TDPWatts() float64
	Start(env *sim.Env, src Source, sink func(Result)) *Job
}

// Sized is implemented by finite sources that can report how many
// items they have left to serve. The Pool's static-split router needs
// it to size the contiguous per-child partitions up front.
type Sized interface {
	Remaining() int
}

// DatasetSource serves a half-open index range of a synthetic
// ImageNet dataset (one of the paper's 10 000-image subsets, usually).
type DatasetSource struct {
	ds       *imagenet.Dataset
	next, hi int
}

// NewDatasetSource creates a source over images [lo, hi) of ds. Items
// carry labels but nil images.
func NewDatasetSource(ds *imagenet.Dataset, lo, hi int) (*DatasetSource, error) {
	if lo < 0 || hi > ds.Len() || lo >= hi {
		return nil, fmt.Errorf("core: range [%d,%d) invalid for dataset of %d", lo, hi, ds.Len())
	}
	return &DatasetSource{ds: ds, next: lo, hi: hi}, nil
}

// Remaining implements Sized.
func (s *DatasetSource) Remaining() int { return s.hi - s.next }

// Next implements Source. Items are stamped as arriving at the pull
// instant (closed-loop semantics: the next request "arrives" the
// moment a device asks for it); wrap the source in an ArrivalSource
// for open-loop arrivals.
func (s *DatasetSource) Next(p *sim.Proc) (Item, bool) {
	if s.next >= s.hi {
		return Item{}, false
	}
	i := s.next
	s.next++
	return Item{Index: i, Label: s.ds.Label(i), ArrivedAt: p.Now()}, true
}

// poll is Next for the edge relay; it never waits.
func (s *DatasetSource) poll(w *sim.Proc, into *Item) (ok, open bool) {
	*into, ok = s.Next(w)
	return ok, false
}

// SliceSource serves a fixed slice of items (a session's Config.Items,
// such as an image folder LoadFolder loaded; tests, small demos).
type SliceSource struct {
	items []Item
	next  int
}

// NewSliceSource wraps items in a source.
func NewSliceSource(items []Item) *SliceSource {
	return &SliceSource{items: items}
}

// Remaining implements Sized.
func (s *SliceSource) Remaining() int { return len(s.items) - s.next }

// Next implements Source. Items arrive at the pull instant
// (closed-loop), like DatasetSource.
func (s *SliceSource) Next(p *sim.Proc) (Item, bool) {
	if s.next >= len(s.items) {
		return Item{}, false
	}
	s.next++
	item := s.items[s.next-1]
	item.ArrivedAt = p.Now()
	return item, true
}

// poll is Next for the edge relay; it never waits.
func (s *SliceSource) poll(w *sim.Proc, into *Item) (ok, open bool) {
	*into, ok = s.Next(w)
	return ok, false
}

// StreamSource is the MPI-stream-style source of Fig. 3: producers
// push items from their own simulated processes (an MPI rank, a camera
// pipeline), consumers block in virtual time until data arrives.
type StreamSource struct {
	// in.closed is set by Close before a full buffer lets the sentinel
	// in, so a Push or a second Close meanwhile is caught.
	in itemQueue
	// pushed counts the items producers have pushed.
	pushed int
}

// NewStreamSource creates a stream with the given buffer capacity
// (0 = unbounded).
func NewStreamSource(env *sim.Env, capacity int) *StreamSource {
	return &StreamSource{in: itemQueue{q: sim.NewQueue[Item](env, "core/stream", capacity)}}
}

// Push appends an item, blocking while the buffer is full. Pushing
// after Close, or pushing the reserved sentinel index -1, panics: both
// are protocol bugs in the producer.
func (s *StreamSource) Push(p *sim.Proc, item Item) {
	if s.in.closed {
		panic("core: Push after Close")
	}
	if item.Index == -1 {
		panic("core: Push with reserved Index -1 (the end-of-stream sentinel)")
	}
	item.ArrivedAt = p.Now()
	s.in.q.Put(p, item)
	s.pushed++
}

// Pushed returns how many items producers have pushed so far: every
// item the stream has released to its consumers.
func (s *StreamSource) Pushed() int { return s.pushed }

// Close marks the end of the stream; consumers drain the buffer and
// then see exhaustion.
func (s *StreamSource) Close(p *sim.Proc) {
	if s.in.closed {
		return
	}
	s.in.closed = true
	s.in.q.Put(p, Item{Index: -1}) // sentinel
}

// Next implements Source.
func (s *StreamSource) Next(p *sim.Proc) (Item, bool) { return s.in.Next(p) }

// poll is Next for the edge relay.
func (s *StreamSource) poll(w *sim.Proc, into *Item) (ok, open bool) { return s.in.poll(w, into) }

// Counters holds the serving-event counts of one slice of a run — the
// whole session, one device group or one tenant. It is declared once:
// Collector embeds it to accumulate the events, and every report level
// embeds it to publish them.
type Counters struct {
	// WithinSLO counts completions with Latency() <= the SLO target
	// (0 until SetSLO is called before the run).
	WithinSLO int
	// Shed counts arrivals dropped by the admission overload policy,
	// Expired those dropped after their deadline lapsed in the queue;
	// both come in through NoteDrop.
	Shed, Expired int
	// FaultDrops counts items lost to device failure after their
	// redelivery budget ran out (NoteDrop with DropFailed) — they count
	// against goodput like any other drop.
	FaultDrops int
	// QuotaRejected counts arrivals a tenant quota turned away at the
	// admission edge (NoteDrop with DropQuota); they count against that
	// tenant's goodput like any other drop.
	QuotaRejected int
	// Retries counts fault-triggered redeliveries (NoteRetry).
	Retries int
	// Hedged counts speculative duplicates launched, HedgeWins
	// completions where the duplicate beat the primary copy, and
	// HedgeWaste losing completions discarded after a device fully
	// served them — a cancelled-in-queue loser is neither a win nor
	// waste (NoteHedge, NoteHedgeWin, NoteHedgeWaste). Discarded
	// losers never reach the result aggregates: N counts each item at
	// most once.
	Hedged, HedgeWins, HedgeWaste int
	// Outages counts detected device outages, Recovered those that
	// ended in a successful recovery (NoteOutage).
	Outages, Recovered int
}

// Collector is a convenience sink accumulating accuracy and timing
// aggregates, optionally retaining every result. With an SLO set
// (SetSLO) it additionally tracks goodput: completions within the
// SLO, against every arrival it was told about — including items the
// admission edge shed or expired (NoteDrop).
type Collector struct {
	Counters
	N          int
	Correct    int
	Mispred    int
	ConfSum    float64
	Results    []Result
	retain     bool
	firstStart time.Duration
	lastEnd    time.Duration
	any        bool
	lat        latencyAgg
	// slo is the per-item latency target goodput is measured against.
	slo time.Duration
	// Downtime accumulates detection-to-rejoin time across recovered
	// outages (NoteOutage). It is not in Counters because a report's
	// Downtime also charges abandoned devices (DowntimeThrough).
	Downtime time.Duration
	// abandoned records the detection instants of outages that never
	// recovered (fail-stop), so DowntimeThrough can charge them to the
	// end of the run.
	abandoned []time.Duration
}

// NewCollector creates a collector; retain keeps full results.
func NewCollector(retain bool) *Collector {
	return &Collector{retain: retain}
}

// NewMergedCollector creates a collector over the union of parts'
// results, for a sink that sees each result after exactly one of parts
// has: a session's merged collector over its device groups. It keeps
// every aggregate NewCollector's does, but stores no latency pair of
// its own; its Latency selects over the parts' stores. The summary is
// exact only while N equals the sum of the parts' N.
func NewMergedCollector(retain bool, parts ...*Collector) *Collector {
	aggs := make([]*latencyAgg, len(parts)) // not nil, even with no parts: a view
	for i, p := range parts {
		aggs[i] = &p.lat
	}
	return &Collector{retain: retain, lat: latencyAgg{parts: aggs}}
}

// Sink returns the callback to pass to Target.Start.
func (c *Collector) Sink() func(Result) {
	return func(r Result) {
		c.N++
		c.Score(r.Label, r.Pred, r.Confidence)
		if !c.any || r.Start < c.firstStart {
			c.firstStart = r.Start
		}
		if r.End > c.lastEnd {
			c.lastEnd = r.End
		}
		c.any = true
		c.lat.add(r.Wait(), r.ServiceTime())
		if c.slo > 0 && r.Latency() <= c.slo {
			c.WithinSLO++
		}
		if c.retain {
			c.Results = append(c.Results, r)
		}
	}
}

// Score adds one prediction to Correct, Mispred and ConfSum, as Sink
// does for each result (a Pred of -1 with no Confidence adds nothing).
func (c *Collector) Score(label, pred int, conf float32) {
	if pred >= 0 && label >= 0 {
		if pred == label {
			c.Correct++
		} else {
			c.Mispred++
		}
	}
	c.ConfSum += float64(conf)
}

// SetSLO sets the per-item serving deadline goodput is measured
// against. Call before the run; results seen earlier are not
// re-evaluated.
func (c *Collector) SetSLO(d time.Duration) { c.slo = d }

// SLO returns the configured target (0 = none).
func (c *Collector) SLO() time.Duration { return c.slo }

// NoteDrop records one dropped item: an admission drop (DropShed,
// DropExpired — wire it to AdmissionQueue's OnDrop) or a
// fault-attributed loss (DropFailed — wire it to RecoveryConfig's
// OnDrop). Every drop counts against goodput.
func (c *Collector) NoteDrop(reason DropReason) {
	switch reason {
	case DropExpired:
		c.Expired++
	case DropFailed:
		c.FaultDrops++
	case DropQuota:
		c.QuotaRejected++
	default:
		c.Shed++
	}
}

// NoteRetry records one fault-triggered redelivery — wire it to
// RecoveryConfig's OnRetry.
func (c *Collector) NoteRetry() { c.Retries++ }

// NoteHedge records one launched hedge duplicate — wire it to
// HedgeConfig's OnHedge.
func (c *Collector) NoteHedge() { c.Hedged++ }

// NoteHedgeWin records one completion where the duplicate finished
// first — wire it to HedgeConfig's OnWin.
func (c *Collector) NoteHedgeWin() { c.HedgeWins++ }

// NoteHedgeWaste records one discarded losing completion (device time
// spent on a duplicate) — wire it to HedgeConfig's OnWaste.
func (c *Collector) NoteHedgeWaste() { c.HedgeWaste++ }

// HedgeWasteRate returns wasted duplicate completions as a fraction
// of all completions the devices produced (served results plus
// discarded losers) — the extra device time hedging spent. 0 when
// nothing completed.
func (c *Collector) HedgeWasteRate() float64 {
	total := c.N + c.HedgeWaste
	if total == 0 {
		return 0
	}
	return float64(c.HedgeWaste) / float64(total)
}

// NoteOutage records one detected device outage: from is the
// detection instant, to the rejoin (recovered) or abandonment
// (fail-stop) instant — wire it to RecoveryConfig's OnOutage. An
// abandoned device stays down for the rest of the run;
// DowntimeThrough charges that residual.
func (c *Collector) NoteOutage(from, to time.Duration, recovered bool) {
	c.Outages++
	if recovered {
		c.Recovered++
		if to > from {
			c.Downtime += to - from
		}
	} else {
		c.abandoned = append(c.abandoned, from)
	}
}

// MTTR returns the mean time to repair across recovered outages
// (0 when nothing recovered).
func (c *Collector) MTTR() time.Duration {
	if c.Recovered == 0 {
		return 0
	}
	return c.Downtime / time.Duration(c.Recovered)
}

// DowntimeThrough returns total device downtime with abandoned
// devices charged through end: repaired downtime plus end minus each
// unrecovered outage's detection instant.
func (c *Collector) DowntimeThrough(end time.Duration) time.Duration {
	total := c.Downtime
	for _, at := range c.abandoned {
		if end > at {
			total += end - at
		}
	}
	return total
}

// Arrivals returns everything the serving system was offered: served
// results plus every kind of drop.
func (c *Collector) Arrivals() int {
	return c.N + c.Shed + c.Expired + c.FaultDrops + c.QuotaRejected
}

// Goodput returns the fraction of arrivals that completed within the
// SLO — the serving metric bounded admission defends past the
// saturation knee. Without an SLO it degrades to the fraction of
// arrivals that completed at all (1.0 when nothing was dropped).
func (c *Collector) Goodput() float64 {
	arrived := c.Arrivals()
	if arrived == 0 {
		return 0
	}
	if c.slo <= 0 {
		return float64(c.N) / float64(arrived)
	}
	return float64(c.WithinSLO) / float64(arrived)
}

// ShedRate returns the fraction of arrivals dropped at the admission
// edge (shed by the overload policy or expired in the queue).
func (c *Collector) ShedRate() float64 {
	arrived := c.Arrivals()
	if arrived == 0 {
		return 0
	}
	return float64(c.Shed+c.Expired) / float64(arrived)
}

// Latency summarizes the per-item serving-latency distribution of
// everything the collector has seen: total latency with exact tail
// quantiles, split into queue wait and service time. Meaningful when
// the producing targets stamp the Result lifecycle (all built-in
// targets do); custom targets that stamp nothing report service time
// only.
func (c *Collector) Latency() LatencySummary { return c.LatencyIn(nil) }

// LatencyIn is Latency selected in scratch, which keeps its buffers for
// the next summary: a report summarizes all its collectors through one
// scratch reserved for the largest. A nil scratch selects in a buffer
// of the call's own.
func (c *Collector) LatencyIn(scratch *LatencyScratch) LatencySummary {
	if scratch == nil {
		scratch = new(LatencyScratch)
	}
	return c.lat.summary(scratch)
}

// TopOneError returns the fraction of classified items whose top-1
// prediction missed (the paper's §IV-B estimation).
func (c *Collector) TopOneError() float64 {
	total := c.Correct + c.Mispred
	if total == 0 {
		return 0
	}
	return float64(c.Mispred) / float64(total)
}

// MeanConfidence returns the average top-1 confidence.
func (c *Collector) MeanConfidence() float64 {
	if c.N == 0 {
		return 0
	}
	return c.ConfSum / float64(c.N)
}

// Span returns the virtual time between the first inference start and
// the last completion.
func (c *Collector) Span() time.Duration {
	if !c.any {
		return 0
	}
	return c.lastEnd - c.firstStart
}
