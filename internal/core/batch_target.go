package core

import (
	"fmt"
	"time"

	"repro/internal/devsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BatchAssembly configures how a BatchTarget assembles batches beyond
// the classic fill-to-batch-size behavior.
type BatchAssembly struct {
	// MaxWait is the total assembly budget of one batch: the deadline
	// is set when the first item is pulled, and however many items
	// have arrived when it lapses form the batch — so no item ever
	// waits more than MaxWait for batch-mates, the bound an SLO needs
	// (a per-arrival idle timeout could stall up to (size-1)×MaxWait).
	// A lightly loaded device therefore stops paying full-batch
	// assembly latency. 0 waits indefinitely (the classic Caffe
	// behavior). Takes effect only against sources supporting
	// bounded-wait pulls (TimedSource: ArrivalSource, AdmissionQueue,
	// pool feeds); other sources never block mid-batch, so there is
	// nothing to bound.
	MaxWait time.Duration
	// Adaptive sizes each batch from the backlog observed when the
	// batch opens — between 1 and the configured batch size — instead
	// of always waiting for a full batch. Needs a source that can
	// report its backlog (DepthSource); otherwise the configured size
	// is used.
	Adaptive bool
}

// BatchTarget runs a Caffe-style batch device: it gathers up to
// BatchSize items from the source and prices the batch on the device
// model; it keeps time only (DESIGN.md §1). The paper uses "the
// traditional Caffe batch-based processing on the CPU and GPU tests"
// (§IV). SetAssembly turns the fixed gather into SLO-aware adaptive
// assembly.
type BatchTarget struct {
	name      string
	engine    *devsim.Engine
	batchSize int
	timeline  *trace.Timeline
	assembly  BatchAssembly
	batches   int
	// carry holds items re-enqueued by an injected batch failure
	// (fault.BatchOOM): they seed the next batch ahead of fresh pulls,
	// keeping delivery order close to arrival order. carryPulls keeps
	// their original DispatchedAt instants.
	carry      []Item
	carryPulls []time.Duration
	onRequeue  func(item Item, at time.Duration)
	oomSplits  int
}

// NewBatchTarget builds the target over a Caffe batch engine
// (devsim.NewCPU or devsim.NewGPU); it takes the engine's name.
func NewBatchTarget(engine *devsim.Engine, batchSize int) (*BatchTarget, error) {
	if engine == nil {
		return nil, fmt.Errorf("core: batch target needs an engine")
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("core: batch size %d", batchSize)
	}
	return &BatchTarget{
		name:      engine.Name(),
		engine:    engine,
		batchSize: batchSize,
	}, nil
}

// SetTimeline attaches a trace timeline (Fig. 4-style spans).
func (t *BatchTarget) SetTimeline(tl *trace.Timeline) { t.timeline = tl }

// SetAssembly configures adaptive batch assembly; call before Start.
// A negative MaxWait panics (a caller bug, like a negative sleep).
func (t *BatchTarget) SetAssembly(a BatchAssembly) {
	if a.MaxWait < 0 {
		panic(fmt.Sprintf("core: negative batch max-wait %v", a.MaxWait))
	}
	t.assembly = a
}

// Batches returns how many batches the target has run — with adaptive
// assembly, Images/Batches is the realized mean batch size. Valid
// after the run completes.
func (t *BatchTarget) Batches() int { return t.batches }

// SetRetryObserver registers fn to observe every item re-enqueued by
// an injected batch failure (fault.BatchOOM) — wire it to
// Collector.NoteRetry so the session's retry accounting covers batch
// engines too. Call before Start.
func (t *BatchTarget) SetRetryObserver(fn func(item Item, at time.Duration)) {
	t.onRequeue = fn
}

// Name implements Target.
func (t *BatchTarget) Name() string { return t.name }

// TDPWatts implements Target.
func (t *BatchTarget) TDPWatts() float64 { return t.engine.TDPWatts() }

// Start implements Target. With the default assembly the gather is
// the classic one — block until the batch is full or the source is
// exhausted. With MaxWait set (against a TimedSource) a partial batch
// closes when no further item arrives in time; with Adaptive set
// (against a DepthSource) each batch targets the backlog observed
// when its first item is pulled, clamped to [1, BatchSize].
func (t *BatchTarget) Start(env *sim.Env, src Source, sink func(Result)) *Job {
	job := &Job{}
	timed, hasTimed := src.(TimedSource)
	depth, hasDepth := src.(DepthSource)
	useWait := t.assembly.MaxWait > 0 && hasTimed
	env.Process(t.name, func(p *sim.Proc) {
		job.StartedAt = p.Now()
		job.ReadyAt = p.Now()
		batch := make([]Item, 0, t.batchSize)
		pulls := make([]time.Duration, 0, t.batchSize)
		open := true
		for open || len(t.carry) > 0 {
			batch = batch[:0]
			pulls = pulls[:0]
			if len(t.carry) > 0 {
				// Items re-enqueued by a failed submission go first.
				batch = append(batch, t.carry...)
				pulls = append(pulls, t.carryPulls...)
				t.carry = t.carry[:0]
				t.carryPulls = t.carryPulls[:0]
			} else {
				// An idle device waits as long as it takes for the first
				// item; the max-wait clock only runs once a batch is open.
				item, ok := src.Next(p)
				if !ok {
					break
				}
				batch = append(batch, item)
				pulls = append(pulls, p.Now())
			}
			size := t.batchSize
			if t.assembly.Adaptive && hasDepth {
				if want := len(batch) + depth.Pending(); want < size {
					size = want
				}
			}
			deadline := p.Now() + t.assembly.MaxWait
			for len(batch) < size {
				var it Item
				var got bool
				if useWait {
					wait := deadline - p.Now()
					if wait < 0 {
						wait = 0
					}
					it, got, open = timed.NextWithin(p, wait)
					if !got {
						break // deadline hit (open) or source drained (!open)
					}
				} else {
					it, got = src.Next(p)
					if !got {
						open = false
						break
					}
				}
				batch = append(batch, it)
				// The pull instant is when the item joined the
				// assembling batch — its DispatchedAt.
				pulls = append(pulls, p.Now())
			}
			// An injected allocator failure (fault.BatchOOM) fails the
			// submission: the target splits and retries — the first
			// ⌈b/2⌉ items run as a smaller batch now, the failed half is
			// re-enqueued ahead of the next gather, so items are delayed
			// but never lost. A single-item batch cannot split (the
			// fault is a capacity fault) and runs unharmed.
			if len(batch) > 1 && t.engine.TakeBatchFailure() {
				keep := (len(batch) + 1) / 2
				t.carry = append(t.carry, batch[keep:]...)
				t.carryPulls = append(t.carryPulls, pulls[keep:]...)
				if t.onRequeue != nil {
					for _, it := range batch[keep:] {
						t.onRequeue(it, p.Now())
					}
				}
				t.timeline.Add(t.name, trace.Fault, p.Now(), p.Now(),
					fmt.Sprintf("batch-oom: %d of %d re-enqueued", len(batch)-keep, len(batch)))
				batch = batch[:keep]
				pulls = pulls[:keep]
				t.oomSplits++
			}
			start := p.Now()
			d := t.engine.NextBatchDuration(len(batch))
			p.Sleep(d)
			note := ""
			if t.timeline.Enabled() {
				note = fmt.Sprintf("batch=%d", len(batch))
			}
			t.timeline.Add(t.name, trace.Compute, start, p.Now(), note)
			for i, item := range batch {
				sink(Result{Index: item.Index, Image: item.Image, Label: item.Label, Pred: -1,
					Start: start, End: p.Now(), ArrivedAt: item.ArrivedAt, DispatchedAt: pulls[i],
					Device: t.name, Tenant: item.Tenant})
			}
			job.Images += len(batch)
			t.batches++
		}
		job.Finish(p)
	})
	return job
}
