package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/sim"
)

// This file is the streaming stage-composition half of the Target
// contract: model-parallel pipelines that cut a network at a layer
// boundary (nn.Graph.Split) and run each segment as a *stage* on its
// own device group, intermediate activations flowing between stages
// through bounded in-flight windows.
//
// The redesign extends Target rather than replacing it: a stage is a
// Target whose emissions can be re-ingested downstream. StageTarget
// adds the one missing operation — the Result→Item hop conversion —
// and Pipeline is the recursive composite (like Pool) that wires
// stages together. Any existing Target wraps transparently via
// AsStage, so stages can be single devices, multi-stick VPU targets,
// or whole Pools (e.g. stage 1 = 4 hedged VPU sticks, stage 2 = one
// CPU group).
//
// Completion contract (the multi-stage refinement of Target's "one
// terminal Finish per run"): an *item* finishes only at the last
// stage — interior emissions are hops, not completions — so the
// pipeline's Job counts only final-stage results and a Collector on
// the pipeline sink never sees an item twice. Each *stage job* still
// finishes exactly once, and the pipeline joins them all before
// finishing its own job. An interior stage that drops an item
// (recovery budget exhausted) must release the item's in-flight
// credit via Pipeline.StageDropped, or the window stays narrowed by
// every loss.

// StageTarget is a Target that can run as an interior pipeline stage:
// Forward converts one of its results into the Item the downstream
// stage consumes. The conversion must preserve the lifecycle stamps —
// the item's identity (Index, Label) and its arrival instant survive
// every hop, so the final Result's latency still measures arrival to
// last-stage completion.
type StageTarget interface {
	Target
	// Forward converts one of this stage's results into the downstream
	// stage's input item.
	Forward(r Result) Item
}

// stageItem is the standard boundary conversion: the identity and
// lifecycle stamps cross the hop, no activation (stages keep time).
func stageItem(r Result) Item {
	return Item{Index: r.Index, Label: r.Label, ArrivedAt: r.ArrivedAt, Tenant: r.Tenant}
}

// stageAdapter wraps a plain Target as a StageTarget with the
// standard boundary conversion.
type stageAdapter struct{ Target }

// Forward implements StageTarget.
func (stageAdapter) Forward(r Result) Item { return stageItem(r) }

// Unwrap exposes the adapted Target, so the pipeline can reach
// optional interfaces (HealthAware, DeviceCount) the embedding hides.
func (a stageAdapter) Unwrap() Target { return a.Target }

// AsStage adapts any Target to the stage contract. Targets that
// already implement StageTarget pass through unchanged.
func AsStage(t Target) StageTarget {
	if st, ok := t.(StageTarget); ok {
		return st
	}
	return stageAdapter{t}
}

// unwrapTarget reaches through stage adapters to the underlying
// target for optional-interface checks.
func unwrapTarget(t Target) Target {
	if u, ok := t.(interface{ Unwrap() Target }); ok {
		return u.Unwrap()
	}
	return t
}

// PipelineOptions configures a Pipeline.
type PipelineOptions struct {
	// QueueDepth bounds each stage boundary's in-flight window: at
	// most QueueDepth items may be past stage i's input pull and not
	// yet pulled by stage i+1 (in flight inside the stage or queued in
	// the handoff). Default 2, mirroring the NCS FIFO depth. This is
	// the pipeline's backpressure: a slow tail stalls the head's input
	// pulls instead of growing an unbounded activation queue.
	QueueDepth int
	// QueueDepths overrides QueueDepth per boundary (len = stages-1);
	// nil applies QueueDepth everywhere.
	QueueDepths []int
	// OnStageResult, when set, observes every stage's emissions —
	// interior hops and final completions alike — with the stage index
	// that produced them. Per-stage statistics hang off this hook; the
	// pipeline's sink sees final-stage results only.
	OnStageResult func(stage int, r Result)
}

// credit is one slot of a boundary's in-flight window.
type credit struct{}

// Pipeline is a Target over a chain of stages: a model-parallel
// composite that feeds the source through stage 0, each stage's
// emissions through the next, and only the last stage's results to
// the sink. Like Pool it composes recursively — a stage can itself be
// a Pool (or another Pipeline), and a Pipeline is just another target
// to whatever runs it. A single-stage pipeline delegates Start to its
// stage directly and is bit-identical to running the stage alone.
type Pipeline struct {
	name   string
	stages []StageTarget
	opts   PipelineOptions
	jobs   []*Job
	// credits[b] holds the free in-flight slots of boundary b (between
	// stage b and b+1), pre-filled to the boundary depth: stage b's
	// feed takes a token per input pull, stage b+1's feed returns it
	// when the item crosses the boundary.
	credits []*sim.Queue[credit]
	// handoffs[b] carries boundary b's items. Unbounded on purpose:
	// emissions come from sinks, which cannot block (no process
	// handle), and the credit window already bounds its depth.
	handoffs []*sim.Queue[Item]
	// Aggregate health bookkeeping, mirroring Pool.
	healthObs                []func(healthy, total int, at time.Duration)
	stageHealthy, stageTotal []int
}

// NewPipeline builds a model-parallel pipeline over stages, adapting
// plain Targets via AsStage.
func NewPipeline(stages []Target, opts PipelineOptions) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("core: pipeline needs at least one stage")
	}
	for i, s := range stages {
		if s == nil {
			return nil, fmt.Errorf("core: pipeline stage %d is nil", i)
		}
	}
	if opts.QueueDepth < 0 {
		return nil, fmt.Errorf("core: negative queue depth %d", opts.QueueDepth)
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 2
	}
	if opts.QueueDepths != nil {
		if len(opts.QueueDepths) != len(stages)-1 {
			return nil, fmt.Errorf("core: %d queue depths for %d boundaries", len(opts.QueueDepths), len(stages)-1)
		}
		for b, d := range opts.QueueDepths {
			if d < 1 {
				return nil, fmt.Errorf("core: boundary %d queue depth %d", b, d)
			}
		}
	}
	adapted := make([]StageTarget, len(stages))
	names := make([]string, len(stages))
	for i, s := range stages {
		adapted[i] = AsStage(s)
		names[i] = s.Name()
	}
	return &Pipeline{
		name:   fmt.Sprintf("pipe(%s)", strings.Join(names, ">")),
		stages: adapted,
		opts:   opts,
	}, nil
}

// Name implements Target.
func (pl *Pipeline) Name() string { return pl.name }

// TDPWatts implements Target: the aggregate TDP of every stage.
func (pl *Pipeline) TDPWatts() float64 {
	var w float64
	for _, s := range pl.stages {
		w += s.TDPWatts()
	}
	return w
}

// Stages returns the stage targets (adapted to StageTarget).
func (pl *Pipeline) Stages() []StageTarget { return pl.stages }

// StageJobs returns the per-stage jobs of the last Start. Valid after
// Start; fields settle once Env.Run returns.
func (pl *Pipeline) StageJobs() []*Job { return pl.jobs }

// DeviceCount reports the devices driven across all stages, for
// health-aware admission's capacity denominator.
func (pl *Pipeline) DeviceCount() int {
	n := 0
	for _, s := range pl.stages {
		n += targetDeviceCount(unwrapTarget(s))
	}
	return n
}

// SetHealthObserver implements HealthAware for the pipeline as a
// whole: fn sees the aggregate (healthy, total) device counts across
// every stage on each stage health transition. Register before Start;
// stages that are not HealthAware count as permanently healthy.
func (pl *Pipeline) SetHealthObserver(fn func(healthy, total int, at time.Duration)) {
	pl.healthObs = append(pl.healthObs, fn)
}

// notifyHealth publishes the aggregate health to the pipeline's own
// observers.
func (pl *Pipeline) notifyHealth(at time.Duration) {
	if len(pl.healthObs) == 0 {
		return
	}
	var healthy, total int
	for i := range pl.stageTotal {
		healthy += pl.stageHealthy[i]
		total += pl.stageTotal[i]
	}
	for _, fn := range pl.healthObs {
		fn(healthy, total, at)
	}
}

// StageDropped releases one in-flight credit of the boundary below
// stage — the slot a dropped item held. Interior stages cannot see
// the pipeline's credit windows, so whoever wires a stage's
// RecoveryConfig.OnDrop must route intermediate-stage drops through
// here: the dropped item will never reach the handoff, and without
// the release every loss permanently narrows the boundary window
// (QueueDepth losses deadlock the pipeline). Drops at the last stage
// hold no downstream credit and are a no-op.
func (pl *Pipeline) StageDropped(stage int) {
	if stage < 0 || stage >= len(pl.credits) {
		return
	}
	pl.credits[stage].TryPut(credit{})
}

// boundaryDepth returns boundary b's configured in-flight window.
func (pl *Pipeline) boundaryDepth(b int) int {
	if pl.opts.QueueDepths != nil {
		return pl.opts.QueueDepths[b]
	}
	return pl.opts.QueueDepth
}

// headFeed wraps the pipeline's source for stage 0: every pull first
// takes a boundary-0 credit, so the head stage cannot run ahead of
// the window a slow downstream stage drains. When the downstream
// stage has shut down the feed reports exhaustion — the head winds
// down instead of blocking on credits nobody will ever return.
type headFeed struct {
	inner   Source
	credits *sim.Queue[credit]
	// downJob is the downstream stage's job; set after every stage has
	// started, read only inside simulation processes.
	downJob *Job
}

// Next implements Source.
func (f *headFeed) Next(p *sim.Proc) (Item, bool) {
	f.credits.Get(p)
	if f.downJob.done {
		// Re-post the wake token so every other blocked puller also
		// sees the dead downstream and winds down.
		f.credits.TryPut(credit{})
		return Item{}, false
	}
	item, ok := f.inner.Next(p)
	if !ok {
		// The credit guarded an item that never materialized.
		f.credits.TryPut(credit{})
		return Item{}, false
	}
	return item, true
}

// Remaining implements Sized when the inner source does (0 otherwise)
// so a stage-0 Pool can static-split its share.
func (f *headFeed) Remaining() int {
	if sized, ok := f.inner.(Sized); ok {
		return sized.Remaining()
	}
	return 0
}

// Pending implements DepthSource, seeing through to the inner
// source's backlog when it reports one.
func (f *headFeed) Pending() int {
	if d, ok := f.inner.(DepthSource); ok {
		return d.Pending()
	}
	return 0
}

// NextWithin implements TimedSource. When the inner source is not
// timed the deadline applies to the credit wait only and the inner
// pull blocks as usual.
func (f *headFeed) NextWithin(p *sim.Proc, d time.Duration) (Item, bool, bool) {
	deadline := p.Now() + d
	if _, ok := f.credits.GetWithin(p, d); !ok {
		return Item{}, false, true
	}
	if f.downJob.done {
		f.credits.TryPut(credit{})
		return Item{}, false, false
	}
	if timed, ok := f.inner.(TimedSource); ok {
		rem := deadline - p.Now()
		if rem < 0 {
			rem = 0
		}
		item, ok, more := timed.NextWithin(p, rem)
		if !ok {
			f.credits.TryPut(credit{})
		}
		return item, ok, more
	}
	item, ok := f.inner.Next(p)
	if !ok {
		f.credits.TryPut(credit{})
		return Item{}, false, false
	}
	return item, true, true
}

// stageFeed is the input of stage i > 0: it dequeues boundary i-1's
// handoff, returning the crossed item's credit upstream, and (for
// interior stages) takes a boundary-i credit before every pull so the
// window bound composes down the whole chain.
type stageFeed struct {
	q  *sim.Queue[Item]   // handoff of the upstream boundary
	up *sim.Queue[credit] // upstream boundary's credits (release on pull)
	// depth is the upstream boundary's window, so Pending can estimate
	// backlog as held slots (in the upstream stage or the handoff).
	depth int
	// down/downJob are the downstream boundary's credits and consumer
	// (nil/nil for the last stage).
	down    *sim.Queue[credit]
	downJob *Job
}

// Next implements Source.
func (f *stageFeed) Next(p *sim.Proc) (Item, bool) {
	if f.down != nil {
		f.down.Get(p)
		if f.downJob.done {
			f.down.TryPut(credit{})
			return Item{}, false
		}
	}
	item := f.q.Get(p)
	if item.Index == feedSentinel {
		if f.down != nil {
			f.down.TryPut(credit{})
		}
		// Re-post the sentinel so every consumer of this stage sees
		// exhaustion (the childFeed convention).
		f.q.TryPut(item)
		return Item{}, false
	}
	f.up.TryPut(credit{})
	return item, true
}

// NextWithin implements TimedSource, so adaptive batch stages close
// partial batches against their boundary feed.
func (f *stageFeed) NextWithin(p *sim.Proc, d time.Duration) (Item, bool, bool) {
	deadline := p.Now() + d
	if f.down != nil {
		if _, ok := f.down.GetWithin(p, d); !ok {
			return Item{}, false, true
		}
		if f.downJob.done {
			f.down.TryPut(credit{})
			return Item{}, false, false
		}
	}
	rem := deadline - p.Now()
	if rem < 0 {
		rem = 0
	}
	item, ok := f.q.GetWithin(p, rem)
	if !ok {
		if f.down != nil {
			f.down.TryPut(credit{})
		}
		return Item{}, false, true
	}
	if item.Index == feedSentinel {
		if f.down != nil {
			f.down.TryPut(credit{})
		}
		f.q.TryPut(item)
		return Item{}, false, false
	}
	f.up.TryPut(credit{})
	return item, true, true
}

// Pending implements DepthSource: the upstream boundary's held slots
// — items queued in the handoff or still in flight inside the
// upstream stage, all of which will reach this stage — so an adaptive
// batch tail sizes its batches against real incoming work.
func (f *stageFeed) Pending() int {
	n := f.depth - f.up.Len()
	if n < 0 {
		n = 0
	}
	return n
}

// Start implements Target. A single-stage pipeline delegates to its
// stage directly (bit-identical to running the stage alone). A
// multi-stage pipeline starts every stage on its boundary feed, wires
// each interior stage's emissions through Forward into the next
// boundary's handoff, and joins all stage jobs before finishing its
// own: ReadyAt is the latest stage ReadyAt (the chain serves end to
// end only once every segment is up), Images counts final-stage
// completions only.
func (pl *Pipeline) Start(env *sim.Env, src Source, sink func(Result)) *Job {
	n := len(pl.stages)
	pl.jobs = make([]*Job, n)
	pl.stageHealthy = make([]int, n)
	pl.stageTotal = make([]int, n)
	for i, s := range pl.stages {
		pl.stageTotal[i] = targetDeviceCount(unwrapTarget(s))
		pl.stageHealthy[i] = pl.stageTotal[i]
		if ha, ok := unwrapTarget(s).(HealthAware); ok {
			i := i
			ha.SetHealthObserver(func(healthy, total int, at time.Duration) {
				pl.stageHealthy[i], pl.stageTotal[i] = healthy, total
				pl.notifyHealth(at)
			})
		}
	}

	if n == 1 {
		s := sink
		if obs := pl.opts.OnStageResult; obs != nil {
			s = func(r Result) {
				obs(0, r)
				sink(r)
			}
		}
		cj := pl.stages[0].Start(env, src, s)
		pl.jobs[0] = cj
		return cj
	}

	job := &Job{}
	pl.credits = make([]*sim.Queue[credit], n-1)
	pl.handoffs = make([]*sim.Queue[Item], n-1)
	for b := 0; b < n-1; b++ {
		pl.credits[b] = sim.NewQueue[credit](env, fmt.Sprintf("pipe/credit%d", b), 0)
		for k := 0; k < pl.boundaryDepth(b); k++ {
			pl.credits[b].TryPut(credit{})
		}
		pl.handoffs[b] = sim.NewQueue[Item](env, fmt.Sprintf("pipe/handoff%d", b), 0)
	}

	done := sim.NewQueue[int](env, "pipe/join", 0)
	feeds := make([]Source, n)
	for i := range pl.stages {
		if i == 0 {
			feeds[i] = &headFeed{inner: src, credits: pl.credits[0]}
		} else {
			f := &stageFeed{
				q:     pl.handoffs[i-1],
				up:    pl.credits[i-1],
				depth: pl.boundaryDepth(i - 1),
			}
			if i < n-1 {
				f.down = pl.credits[i]
			}
			feeds[i] = f
		}
	}

	for i, st := range pl.stages {
		i, st := i, st
		var ssink func(Result)
		if i < n-1 {
			h := pl.handoffs[i]
			ssink = func(r Result) {
				if pl.opts.OnStageResult != nil {
					pl.opts.OnStageResult(i, r)
				}
				h.TryPut(st.Forward(r))
			}
		} else {
			ssink = func(r Result) {
				if pl.opts.OnStageResult != nil {
					pl.opts.OnStageResult(i, r)
				}
				job.Images++
				sink(r)
			}
		}
		cj := st.Start(env, feeds[i], ssink)
		cj.OnFinish(func(p *sim.Proc) {
			done.Put(p, i)
			if i < n-1 {
				// End of this stage's emissions: the sentinel follows
				// them in FIFO order, so downstream drains everything
				// first.
				pl.handoffs[i].TryPut(Item{Index: feedSentinel})
			}
			if i > 0 {
				// Wake an upstream puller blocked on this stage's
				// boundary credits; the feed sees the dead consumer and
				// winds down, re-posting the token for its siblings.
				pl.credits[i-1].TryPut(credit{})
			}
		})
		pl.jobs[i] = cj
	}
	// The downstream-death checks need the next stage's job, which
	// exists only after the loop above.
	for i, f := range feeds {
		switch ff := f.(type) {
		case *headFeed:
			ff.downJob = pl.jobs[1]
		case *stageFeed:
			if ff.down != nil {
				ff.downJob = pl.jobs[i+1]
			}
		}
	}

	env.Process("pipe-main", func(p *sim.Proc) {
		job.StartedAt = p.Now()
		for range pl.stages {
			done.Get(p)
		}
		var ready time.Duration
		for i, cj := range pl.jobs {
			if cj.Err != nil && job.Err == nil {
				job.Err = fmt.Errorf("core: pipeline stage %s: %w", pl.stages[i].Name(), cj.Err)
			}
			if cj.Err == nil && cj.ReadyAt > ready {
				ready = cj.ReadyAt
			}
		}
		// Items stranded in a handoff whose consumer died are lost
		// work; surface them like the pool's stranded-item accounting.
		stranded := 0
		for _, h := range pl.handoffs {
			stranded += len(drainFeed(h))
		}
		if job.Err == nil && stranded > 0 {
			job.Err = fmt.Errorf("core: %d item(s) stranded by a stage that stopped consuming", stranded)
		}
		job.ReadyAt = ready
		job.Finish(p)
	})
	return job
}
