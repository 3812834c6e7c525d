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
// own device group, items crossing each boundary through a bounded
// in-flight window.
//
// A stage is any Target: Pipeline is the recursive composite (like
// Pool) that re-ingests each interior stage's emissions downstream as
// items (stageItem), so stages can be single devices, multi-stick VPU
// targets, or whole Pools (e.g. stage 1 = 4 hedged VPU sticks, stage
// 2 = one CPU group). A hop carries the item's identity and stamps,
// no activation: stages keep time.
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

// stageItem is the boundary conversion of an interior stage's
// emission: the identity and lifecycle stamps cross the hop, no
// activation (stages keep time).
func stageItem(r Result) Item {
	return Item{Index: r.Index, Label: r.Label, ArrivedAt: r.ArrivedAt, Tenant: r.Tenant}
}

// PipelineOptions configures a Pipeline.
type PipelineOptions struct {
	// QueueDepths bounds each stage boundary's in-flight window, one
	// entry >= 1 per boundary (len = stages-1; nil for a single
	// stage): at most QueueDepths[b] items may be past stage b's input
	// pull and not yet pulled by stage b+1 (in flight inside the stage
	// or queued in the handoff). This is the pipeline's backpressure:
	// a slow tail stalls the head's input pulls instead of growing an
	// unbounded activation queue.
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
// stage directly and is bit-identical to running the stage alone. Its
// TDP, device count, per-stage jobs (ChildJobs) and aggregate health
// (SetHealthObserver) are the shared composite's.
type Pipeline struct {
	composite
	name string
	opts PipelineOptions
	// credits[b] holds the free in-flight slots of boundary b (between
	// stage b and b+1), pre-filled to the boundary depth: stage b's
	// feed takes a token per input pull, stage b+1's feed returns it
	// when the item crosses the boundary.
	credits []*sim.Queue[credit]
	// handoffs[b] carries boundary b's items. Unbounded on purpose:
	// emissions come from sinks, which cannot block (no process
	// handle), and the credit window already bounds its depth.
	handoffs []*sim.Queue[Item]
}

// NewPipeline builds a model-parallel pipeline over stages.
func NewPipeline(stages []Target, opts PipelineOptions) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("core: pipeline needs at least one stage")
	}
	for i, s := range stages {
		if s == nil {
			return nil, fmt.Errorf("core: pipeline stage %d is nil", i)
		}
	}
	if len(opts.QueueDepths) != len(stages)-1 {
		return nil, fmt.Errorf("core: %d queue depths for %d boundaries", len(opts.QueueDepths), len(stages)-1)
	}
	for b, d := range opts.QueueDepths {
		if d < 1 {
			return nil, fmt.Errorf("core: boundary %d queue depth %d", b, d)
		}
	}
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name()
	}
	return &Pipeline{
		composite: composite{children: stages},
		name:      fmt.Sprintf("pipe(%s)", strings.Join(names, ">")),
		opts:      opts,
	}, nil
}

// Name implements Target.
func (pl *Pipeline) Name() string { return pl.name }

// StageDropped releases one in-flight credit of the boundary below
// stage — the slot a dropped item held. Interior stages cannot see
// the pipeline's credit windows, so whoever wires a stage's
// RecoveryConfig.OnDrop must route intermediate-stage drops through
// here: the dropped item will never reach the handoff, and without
// the release every loss permanently narrows the boundary window
// (QueueDepths[stage] losses deadlock the pipeline). Drops at the last
// stage hold no downstream credit and are a no-op.
func (pl *Pipeline) StageDropped(stage int) {
	if stage < 0 || stage >= len(pl.credits) {
		return
	}
	pl.credits[stage].TryPut(credit{})
}

// creditGate is the input of every stage but the last: each pull
// first takes a credit of the boundary below the stage, so the stage
// cannot run ahead of the window its downstream stage drains. It
// wraps stage 0's source or the stage's handoff reader, and returns
// the credit when the pull yields no item. When the downstream stage
// has shut down the gate reports exhaustion — the stage winds down
// instead of blocking on credits nobody will ever return.
type creditGate struct {
	inner   Source
	credits *sim.Queue[credit]
	// downJob is the downstream stage's job; set after every stage has
	// started, read only inside simulation processes.
	downJob *Job
	// handoff is set when inner is the handoff reader Start built for
	// this stage. At the end of the handoff the reader's end hook
	// returns the credit, before the sentinel goes back to wake the
	// stage's next reader; a pull that meets the end of stage 0's
	// source (which may be an enclosing pipeline's handoff reader)
	// returns it after the source's own end-of-stream work.
	handoff bool
}

// release returns one credit.
func (g *creditGate) release() { g.credits.TryPut(credit{}) }

// downGone reports a shut-down downstream stage after a credit was
// taken, re-posting the credit so every other blocked puller also
// sees it and winds down.
func (g *creditGate) downGone() bool {
	if g.downJob.done {
		g.release()
		return true
	}
	return false
}

// Next implements Source.
func (g *creditGate) Next(p *sim.Proc) (Item, bool) {
	g.credits.Get(p)
	if g.downGone() {
		return Item{}, false
	}
	item, ok := g.inner.Next(p)
	if !ok && !g.handoff {
		// The credit guarded an item that never materialized.
		g.release()
	}
	return item, ok
}

// NextWithin implements TimedSource, so adaptive batch stages close
// partial batches against their feed. When the inner source is not
// timed the deadline applies to the credit wait only and the inner
// pull blocks as usual.
func (g *creditGate) NextWithin(p *sim.Proc, d time.Duration) (Item, bool, bool) {
	deadline := p.Now() + d
	if _, ok := g.credits.GetWithin(p, d); !ok {
		return Item{}, false, true
	}
	if g.downGone() {
		return Item{}, false, false
	}
	var item Item
	var ok, more bool
	if timed, isTimed := g.inner.(TimedSource); isTimed {
		item, ok, more = timed.NextWithin(p, max(deadline-p.Now(), 0))
	} else {
		item, ok = g.inner.Next(p)
		more = ok
	}
	if !ok && (more || !g.handoff) {
		g.release()
	}
	return item, ok, more
}

// Remaining implements Sized when the inner source does (0 otherwise)
// so a stage-0 Pool can static-split its share.
func (g *creditGate) Remaining() int {
	if sized, ok := g.inner.(Sized); ok {
		return sized.Remaining()
	}
	return 0
}

// Pending implements DepthSource, seeing through to the inner
// source's backlog when it reports one.
func (g *creditGate) Pending() int {
	if d, ok := g.inner.(DepthSource); ok {
		return d.Pending()
	}
	return 0
}

// handoffReader is the input side of a boundary's handoff queue, read
// by the stage below it: every item read has crossed the boundary, so
// its dispatch returns the item's credit upstream.
type handoffReader struct {
	itemQueue
	up *sim.Queue[credit]
	// depth is the boundary's window, so Pending can estimate backlog
	// as held slots (in the upstream stage or the handoff).
	depth int
}

// newHandoffReader reads handoff q, returning each crossed item's
// credit to up.
func newHandoffReader(q *sim.Queue[Item], up *sim.Queue[credit], depth int) *handoffReader {
	return &handoffReader{
		itemQueue: itemQueue{q: q, dispatch: func(Item, time.Duration) bool {
			up.TryPut(credit{})
			return true
		}},
		up:    up,
		depth: depth,
	}
}

// Pending implements DepthSource: the boundary's held slots — items
// queued in the handoff or still in flight inside the upstream stage,
// all of which will reach this stage — so an adaptive batch tail
// sizes its batches against real incoming work.
func (h *handoffReader) Pending() int {
	return max(h.depth-h.up.Len(), 0)
}

// Start implements Target. A single-stage pipeline delegates to its
// stage directly (bit-identical to running the stage alone). A
// multi-stage pipeline starts every stage on its boundary feed, wires
// each interior stage's emissions through stageItem into the next
// boundary's handoff, and joins all stage jobs before finishing its
// own: ReadyAt is the latest stage ReadyAt (the chain serves end to
// end only once every segment is up), Images counts final-stage
// completions only.
func (pl *Pipeline) Start(env *sim.Env, src Source, sink func(Result)) *Job {
	n := len(pl.children)
	pl.start(nil)

	if n == 1 {
		s := sink
		if obs := pl.opts.OnStageResult; obs != nil {
			s = func(r Result) {
				obs(0, r)
				sink(r)
			}
		}
		cj := pl.children[0].Start(env, src, s)
		pl.jobs[0] = cj
		return cj
	}

	job := &Job{}
	pl.credits = make([]*sim.Queue[credit], n-1)
	pl.handoffs = make([]*sim.Queue[Item], n-1)
	for b, depth := range pl.opts.QueueDepths {
		pl.credits[b] = sim.NewQueue[credit](env, fmt.Sprintf("pipe/credit%d", b), 0)
		for k := 0; k < depth; k++ {
			pl.credits[b].TryPut(credit{})
		}
		pl.handoffs[b] = sim.NewQueue[Item](env, fmt.Sprintf("pipe/handoff%d", b), 0)
	}

	// Stage i reads the source (i = 0) or boundary i-1's handoff, and,
	// above the last stage, through a gate on boundary i's credits.
	done := sim.NewQueue[int](env, "pipe/join", 0)
	feeds := make([]Source, n)
	gates := make([]*creditGate, n-1)
	for i := range feeds {
		feeds[i] = src
		var r *handoffReader
		if i > 0 {
			r = newHandoffReader(pl.handoffs[i-1], pl.credits[i-1], pl.opts.QueueDepths[i-1])
			feeds[i] = r
		}
		if i < n-1 {
			gates[i] = &creditGate{inner: feeds[i], credits: pl.credits[i], handoff: r != nil}
			if r != nil {
				r.end = gates[i].release
			}
			feeds[i] = gates[i]
		}
	}

	for i, st := range pl.children {
		var ssink func(Result)
		if i < n-1 {
			h := pl.handoffs[i]
			ssink = func(r Result) {
				if pl.opts.OnStageResult != nil {
					pl.opts.OnStageResult(i, r)
				}
				h.TryPut(stageItem(r))
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
				// boundary credits; the gate sees the dead consumer and
				// winds down, re-posting the token for its siblings.
				pl.credits[i-1].TryPut(credit{})
			}
		})
		pl.jobs[i] = cj
	}
	// The downstream-death checks need the next stage's job, which
	// exists only after the loop above.
	for i, g := range gates {
		g.downJob = pl.jobs[i+1]
	}

	env.Process("pipe-main", func(p *sim.Proc) {
		job.StartedAt = p.Now()
		for range pl.children {
			done.Get(p)
		}
		var ready time.Duration
		for i, cj := range pl.jobs {
			if cj.Err != nil && job.Err == nil {
				job.Err = fmt.Errorf("core: pipeline stage %s: %w", pl.children[i].Name(), cj.Err)
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
