package core

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// TimedSource is a Source that additionally supports bounded-wait
// pulls — the primitive behind adaptive batch assembly (a partial
// batch closes when no further item arrives within the max-wait).
// ok reports an item was delivered; open=false reports the source is
// exhausted (ok is then false too). ok=false with open=true is a
// timeout: nothing arrived within d, but more may come.
type TimedSource interface {
	Source
	NextWithin(p *sim.Proc, d time.Duration) (item Item, ok bool, open bool)
}

// DepthSource is a Source that can report how many items are
// immediately available without blocking — the backlog observation
// adaptive batch sizing keys off.
type DepthSource interface {
	Source
	Pending() int
}

// OverloadPolicy selects what a full admission queue does with a new
// arrival.
type OverloadPolicy int

const (
	// ShedNewest (the zero value, and so the default) rejects the
	// arriving item: queued work keeps its place, fresh work is turned
	// away — the classic bounded-queue server.
	ShedNewest OverloadPolicy = iota
	// ShedOldest drops the head of the queue to admit the new arrival:
	// the stalest item — the one most likely to miss its deadline
	// anyway — pays, keeping queued work fresh under sustained
	// overload.
	ShedOldest
	// Block applies backpressure instead of shedding: admission waits
	// for queue space in virtual time. Nothing is dropped, so latency
	// grows without bound past saturation — the control configuration
	// the shedding policies are measured against.
	Block
)

// String names the policy.
func (o OverloadPolicy) String() string {
	switch o {
	case ShedNewest:
		return "shed-newest"
	case ShedOldest:
		return "shed-oldest"
	case Block:
		return "block"
	}
	return fmt.Sprintf("policy(%d)", int(o))
}

// valid reports whether o names a known policy.
func (o OverloadPolicy) valid() bool { return o >= ShedNewest && o <= Block }

// DropReason says why the admission queue dropped an item.
type DropReason int

const (
	// DropShed marks an item rejected by the overload policy (the
	// arrival itself under ShedNewest, the queue head under ShedOldest).
	DropShed DropReason = iota
	// DropExpired marks an item whose deadline passed while it sat in
	// the queue; it is discarded at dispatch instead of being handed to
	// a device that could only complete it late.
	DropExpired
	// DropFailed marks an item lost to device failure after its
	// redelivery budget ran out (or with recovery disabled) — the
	// fault-attributed drop the self-healing pipeline reports so
	// goodput stays honest.
	DropFailed
	// DropQuota marks an arrival rejected by its tenant's quota (max
	// in-flight or admitted-rate) before reaching any queue — the
	// tenant exceeded its contract, not the fleet its capacity.
	DropQuota
)

// String names the reason.
func (d DropReason) String() string {
	switch d {
	case DropExpired:
		return "expired"
	case DropFailed:
		return "failed"
	case DropQuota:
		return "quota"
	}
	return "shed"
}

// AdmissionOptions configures an AdmissionQueue.
type AdmissionOptions struct {
	// Depth bounds the ingress queue (>= 1).
	Depth int
	// Policy selects the overload behavior (default ShedNewest).
	Policy OverloadPolicy
	// Deadline is the per-item deadline measured from Item.ArrivedAt;
	// an item still queued when it lapses is dropped at dispatch time.
	// 0 disables expiry. Serving setups usually set it to the SLO
	// target: work that can no longer meet the SLO is not worth a
	// device's time.
	Deadline time.Duration
	// MinDepth floors the health-scaled effective depth when the queue
	// is wired to a health observer (ObserveHealth): even with every
	// device down, at least MinDepth arrivals stay admitted so the
	// first rejoining device finds work. 0 means 1. It never exceeds
	// Depth and has no effect until ObserveHealth is called.
	MinDepth int
	// OnDrop observes every dropped item (shed or expired) with the
	// virtual instant of the drop — the hook goodput accounting hangs
	// off (Collector.NoteDrop).
	OnDrop func(item Item, reason DropReason, at time.Duration)
}

// AdmissionStats counts what happened at the ingress edge.
type AdmissionStats struct {
	// Arrived is every item the wrapped source offered.
	Arrived int
	// Admitted is how many entered the queue (including any later
	// expired while queued).
	Admitted int
	// Shed is how many the overload policy dropped.
	Shed int
	// Expired is how many were admitted but dropped at dispatch after
	// their deadline lapsed in the queue.
	Expired int
	// Dispatched is how many were handed to a consumer.
	Dispatched int
	// Shrinks counts effective-depth reductions driven by health
	// observations (ObserveHealth): each device-health degradation
	// that lowered the bound adds one. 0 when the queue is not wired
	// to a health observer.
	Shrinks int
}

// AdmissionQueue is the bounded ingress edge of a serving setup: the
// edge relay drains the wrapped source (typically an ArrivalSource)
// the moment items become visible and admits them into a bounded
// queue under an overload policy, so queueing delay — and therefore
// tail latency — is capped by design instead of growing without bound
// past the saturation knee. Consumers read it as an ordinary Source;
// it also implements TimedSource and DepthSource, so adaptive batch
// targets assemble directly against the admission backlog.
//
// Expiry is lazy: an item whose deadline lapsed while queued is
// dropped when a consumer would otherwise receive it. That keeps the
// drop deterministic (no timer per item) and models the real serving
// pattern of checking the deadline at dispatch.
//
// Next and NextWithin (the embedded queue read's) deliver the oldest
// admitted, unexpired item, dropping and counting the expired ones on
// the way; Pending counts the admitted items waiting for dispatch.
type AdmissionQueue struct {
	itemQueue
	opts  AdmissionOptions
	stats AdmissionStats
	// eff is the current health-scaled effective depth (== Depth until
	// ObserveHealth reports degraded capacity).
	eff int
}

// NewAdmissionQueue wraps inner, a source of this package, with
// admission control inside env. The relay starts immediately, on the
// scheduler; admission unfolds as env runs.
func NewAdmissionQueue(env *sim.Env, inner Source, opts AdmissionOptions) (*AdmissionQueue, error) {
	src, ok := inner.(poller)
	if !ok {
		return nil, fmt.Errorf("core: admission queue cannot relay %T (it needs a source of package core)", inner)
	}
	if opts.Depth < 1 {
		return nil, fmt.Errorf("core: admission queue depth %d (need >= 1)", opts.Depth)
	}
	if !opts.Policy.valid() {
		return nil, fmt.Errorf("core: unknown overload policy %v", opts.Policy)
	}
	if opts.Deadline < 0 {
		return nil, fmt.Errorf("core: negative admission deadline %v", opts.Deadline)
	}
	if opts.MinDepth < 0 {
		return nil, fmt.Errorf("core: negative admission min-depth %d", opts.MinDepth)
	}
	if opts.MinDepth > opts.Depth {
		return nil, fmt.Errorf("core: admission min-depth %d exceeds depth %d", opts.MinDepth, opts.Depth)
	}
	a := &AdmissionQueue{
		itemQueue: itemQueue{q: sim.NewQueue[Item](env, "core/admission", opts.Depth)},
		opts:      opts,
		eff:       opts.Depth,
	}
	a.dispatch = a.pass
	startRelay(env, "admission", src, nil, "admission item", a.admit,
		func(r *relay, _ bool) bool { return a.close(r) }) // may wait for room; consumers drain
	return a, nil
}

// admit applies the overload policy to one arrival. false means the
// relay waits for room under Block; the retry counts no new arrival.
func (a *AdmissionQueue) admit(r *relay, item *Item, retry bool) bool {
	if !retry {
		a.stats.Arrived++
	}
	entered, wait := offer(r, a.q, a.opts.Policy, *item, a.drop)
	switch {
	case wait:
		return false
	case !entered:
		a.drop(*item, DropShed, r.env.Now())
	default:
		a.stats.Admitted++
	}
	return true
}

// pass is the lazy expiry at dispatch: an item whose deadline lapsed
// in the queue is dropped (false), any other is counted as
// dispatched.
func (a *AdmissionQueue) pass(item Item, now time.Duration) bool {
	if a.opts.Deadline > 0 && now > item.ArrivedAt+a.opts.Deadline {
		a.drop(item, DropExpired, now)
		return false
	}
	a.stats.Dispatched++
	return true
}

// Stats returns the admission counters; read after the run completes
// for final numbers.
func (a *AdmissionQueue) Stats() AdmissionStats { return a.stats }

// ObserveHealth makes the admission bound track device health: wire
// it to a HealthAware target's SetHealthObserver — a VPUTarget's, or
// the aggregate of a Pool or Pipeline over all its children. The
// effective depth scales proportionally to healthy capacity —
// ceil(Depth × healthy/total), floored at MinDepth and capped at
// Depth — so during an outage the queue stops admitting
// work the degraded devices could only serve past its deadline, and
// restores the full bound on rejoin. Shrinking evicts nothing:
// already-queued items keep their place and drain normally, while new
// arrivals meet the smaller bound (sheds under the shed policies,
// backpressure under Block). Deterministic: depth transitions happen
// at the health transition's virtual instant.
func (a *AdmissionQueue) ObserveHealth(healthy, total int, _ time.Duration) {
	if total <= 0 {
		return
	}
	if healthy < 0 {
		healthy = 0
	}
	eff := min(max((a.opts.Depth*healthy+total-1)/total, a.opts.MinDepth, 1), a.opts.Depth)
	if eff == a.eff {
		return
	}
	if eff < a.eff {
		a.stats.Shrinks++
	}
	a.eff = eff
	a.q.SetCapacity(eff)
}

// SetDepth re-bounds the ingress from now on — the operator's
// mid-run admission knob (scenario hot-reload). The new depth becomes
// both the configured bound (future health scaling works from it) and
// the effective bound; a MinDepth above the new depth is clamped to
// it. Shrinking evicts nothing: queued items keep their place and
// drain normally while new arrivals meet the smaller bound, exactly
// like a health shrink. It returns an error on depth < 1.
func (a *AdmissionQueue) SetDepth(depth int) error {
	if depth < 1 {
		return fmt.Errorf("core: admission queue depth %d (need >= 1)", depth)
	}
	a.opts.Depth = depth
	if a.opts.MinDepth > depth {
		a.opts.MinDepth = depth
	}
	a.eff = depth
	a.q.SetCapacity(depth)
	return nil
}

// SetDeadline replaces the per-item queueing deadline from now on (0
// disables expiry). Expiry is checked lazily at dispatch, so only
// dispatches after the change see the new deadline — items already
// queued are re-judged against it, matching an operator retuning the
// SLO mid-run. It returns an error on a negative deadline.
func (a *AdmissionQueue) SetDeadline(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("core: negative admission deadline %v", d)
	}
	a.opts.Deadline = d
	return nil
}

// drop counts and reports one dropped item.
func (a *AdmissionQueue) drop(item Item, reason DropReason, at time.Duration) {
	if reason == DropExpired {
		a.stats.Expired++
	} else {
		a.stats.Shed++
	}
	if a.opts.OnDrop != nil {
		a.opts.OnDrop(item, reason, at)
	}
}
