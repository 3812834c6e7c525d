package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/field"
	"repro/internal/sim"
)

// Routing selects how a Pool distributes source items across its
// child targets. It is the device-group scheduler of §III ("run a
// specific subset of inputs on a GPU, and at the same time another
// subset ... on several VPUs"), generalized to any mix of targets.
type Routing int

const (
	// RouteWeighted (the zero value, and so the default) deals items
	// in proportion to per-child weights. With explicit
	// PoolOptions.Weights the deal is strict deficit round-robin
	// (blocking on the preferred child, so the ratio holds). Without
	// explicit weights it adapts: weights track each child's observed
	// completion rate and a full preferred queue spills the item to
	// the next-best child, keeping the pool work-conserving — faster
	// devices receive proportionally more.
	RouteWeighted Routing = iota
	// RouteStatic partitions the source into contiguous per-child
	// blocks sized by the weights (equal split by default). It needs a
	// finite source (one implementing Sized); starting it on an
	// unbounded stream records an error on the pool's Job.
	RouteStatic
	// RouteRoundRobin deals item k to child k mod N in order — the
	// pool-level analogue of the paper's static multi-VPU scheduling.
	RouteRoundRobin
	// RouteWorkStealing hands every child the shared source directly:
	// whichever child is free pulls the next item. No dispatcher
	// process, minimum latency, but batch children may grab eagerly
	// from sources whose items are all available up front.
	RouteWorkStealing
	// RouteLatency deals each item to the child expected to finish it
	// soonest: an EWMA of each child's observed service time, scaled by
	// its queued-but-unfinished item count. A full preferred feed
	// spills the item down the preference order. Built for open-loop
	// serving (ArrivalSource), where tail latency — not the deal ratio
	// — is the objective.
	RouteLatency
)

// String names the routing policy.
func (r Routing) String() string {
	switch r {
	case RouteStatic:
		return "static-split"
	case RouteRoundRobin:
		return "round-robin"
	case RouteWorkStealing:
		return "work-stealing"
	case RouteWeighted:
		return "throughput-weighted"
	case RouteLatency:
		return "latency-ewma"
	}
	return fmt.Sprintf("routing(%d)", int(r))
}

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Routing selects the dispatch policy (default RouteWeighted).
	Routing Routing
	// Weights are optional per-child dispatch weights for RouteStatic
	// and RouteWeighted. Nil means equal (static) or adaptive
	// (weighted). When set, len(Weights) must equal the child count
	// and every weight must be positive.
	Weights []float64
	// QueueDepth bounds each child's feed queue for the dispatcher
	// policies (default 2, mirroring the NCS FIFO depth). Deeper
	// queues smooth dispatch at the cost of balance.
	QueueDepth int
	// OnResult, when set, observes every result with the index of the
	// child that produced it — the hook per-group statistics hang off.
	// Losing hedge duplicates are deduplicated before this hook: it
	// sees each item at most once.
	OnResult func(child int, r Result)
	// Hedge configures speculative hedged requests across the
	// children: an item in flight longer than the hedge trigger is
	// duplicated onto a different healthy child, the first completion
	// wins, and the loser is cancelled in-queue or discarded on
	// completion (HedgeConfig). The zero value disables hedging and
	// leaves runs bit-identical to pre-hedging behavior. Requires a
	// dealt routing policy (not RouteWorkStealing, which has no
	// per-child feeds to duplicate into) and at least two children.
	Hedge HedgeConfig
}

// Pool is a Target over N child targets: a composite device group.
// Because Pool itself implements Target, groups compose recursively —
// a pool of (CPU, pool of VPUs) is just another target. Its TDP,
// device count, child jobs and aggregate health (SetHealthObserver)
// are the shared composite's.
type Pool struct {
	composite
	name string
	opts PoolOptions
	// down marks children whose HealthAware observer reports no healthy
	// device left: their weight is effectively zero — the scored and
	// dealt policies route around them — until they rejoin.
	down []bool
	// hedge is the hedged-request engine of the current run (nil when
	// PoolOptions.Hedge is disabled).
	hedge *hedger
	// order is dispatchByScore's scratch, reused across dispatches.
	order []int
}

// NewPool builds a device group over children.
func NewPool(children []Target, opts PoolOptions) (*Pool, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("core: pool needs at least one child target")
	}
	for i, c := range children {
		if c == nil {
			return nil, fmt.Errorf("core: pool child %d is nil", i)
		}
	}
	if opts.Weights != nil {
		if len(opts.Weights) != len(children) {
			return nil, fmt.Errorf("core: %d weights for %d children", len(opts.Weights), len(children))
		}
		for i, w := range opts.Weights {
			if w <= 0 {
				return nil, fmt.Errorf("core: non-positive weight %g for child %d", w, i)
			}
		}
	}
	if opts.QueueDepth < 0 {
		return nil, fmt.Errorf("core: negative queue depth %d", opts.QueueDepth)
	}
	if err := opts.Hedge.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", field.Under("Hedge", err))
	}
	if opts.Hedge.Enabled() {
		if opts.Routing == RouteWorkStealing {
			return nil, fmt.Errorf("core: hedging needs per-child feeds to duplicate into; routing %v shares the source directly", opts.Routing)
		}
		if len(children) < 2 {
			return nil, fmt.Errorf("core: hedging needs at least two children to duplicate across")
		}
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 2
	}
	names := make([]string, len(children))
	for i, c := range children {
		names[i] = c.Name()
	}
	return &Pool{
		composite: composite{children: children},
		name:      fmt.Sprintf("pool[%s](%s)", opts.Routing, strings.Join(names, "+")),
		opts:      opts,
	}, nil
}

// Name implements Target.
func (pl *Pool) Name() string { return pl.name }

// HedgeItemLost arbitrates a child-internal item loss under
// pool-level hedging: it reports whether the loss should be counted
// as a dropped item. A child's recovery pipeline cannot see the
// pool's hedge state, so whoever wires the children's
// RecoveryConfig.OnDrop must route it through here before counting
// the drop — a lost duplicate whose other copy is still in flight
// (or already delivered) is not a loss, and a real loss disarms the
// item's hedge timer so a recorded drop cannot later be resurrected
// into a double-counted completion. Without pool-level hedging it
// always reports true.
func (pl *Pool) HedgeItemLost(index int) bool {
	return pl.hedge.copyLost(index, -1)
}

// SetHedgeBudget replaces the pool's hedge-volume budget from now on
// (0 = unlimited) — the operator's mid-run hedging knob (scenario
// hot-reload). The budget is consulted when a trigger fires, so only
// fires after the change see the new cap; with hedging disabled (or
// before Start) the call only updates the configuration.
func (pl *Pool) SetHedgeBudget(b float64) {
	pl.opts.Hedge.Budget = b
	pl.hedge.setBudget(b)
}

// childFeed is the per-child source fed by the pool dispatcher, which
// posts its end-of-feed sentinel (dealer.shutdown). Next and
// NextWithin are the embedded queue read's; NextWithin makes the feed
// a TimedSource, so adaptive batch children close partial batches
// against it.
type childFeed struct {
	itemQueue
	// upstream is the pool's source when it can report backlog (an
	// ArrivalSource or AdmissionQueue), so a child's Pending sees
	// through the shallow feed queue to the real queued work.
	upstream DepthSource
}

// Pending implements DepthSource: the feed's own buffer plus the
// undealt backlog of the pool's source. The feed queue is shallow
// (QueueDepth, default 2) and the dispatcher refills it the moment a
// child pulls, so without the upstream term an adaptive batch child
// would clamp its batches at QueueDepth+1 forever instead of
// converging to its configured size under saturation. The upstream
// backlog is shared by all children, so the estimate is an upper
// bound on what this child will actually receive — the max-wait
// deadline bounds the cost of over-sizing. The count may include the
// shutdown sentinel once dealing ends; by then sizing no longer
// matters.
func (f *childFeed) Pending() int {
	n := f.q.Len()
	if f.upstream != nil {
		n += f.upstream.Pending()
	}
	return n
}

// Start implements Target. It starts every child on its share of the
// source, runs a dispatcher process for the dealt policies, and joins
// the children in virtual time, aggregating their jobs:
// ReadyAt = earliest child ReadyAt (the group can process from then),
// DoneAt = latest child DoneAt, Images = total across children.
func (pl *Pool) Start(env *sim.Env, src Source, sink func(Result)) *Job {
	job := &Job{}
	n := len(pl.children)
	completed := make([]int, n)
	ewma := make([]float64, n)

	childSink := func(i int) func(Result) {
		return func(r Result) {
			completed[i]++
			// Track each child's observed service time for RouteLatency
			// (cheap enough to keep warm under every policy). A batch
			// result's span covers the whole batch, so the estimate is
			// an upper bound per item — conservative for batch
			// children, exact for per-item ones. Losing hedge
			// duplicates still update the estimate (the child did the
			// work) but never reach the sink.
			if obs := r.ServiceTime().Seconds(); obs > 0 {
				if ewma[i] == 0 {
					ewma[i] = obs
				} else {
					ewma[i] = ewmaAlpha*obs + (1-ewmaAlpha)*ewma[i]
				}
			}
			if !pl.hedge.complete(r.Index, i, r.End) {
				return // discarded losing duplicate
			}
			// The pool counts delivered results, not raw child work:
			// with hedging the two differ by the discarded losers
			// (child jobs still carry their own totals).
			job.Images++
			if pl.opts.OnResult != nil {
				pl.opts.OnResult(i, r)
			}
			sink(r)
		}
	}

	// RouteStatic needs the total item count up front. When the
	// source cannot provide one the error is recorded on the pool's
	// job, but the children still start and shut down cleanly so
	// ChildJobs and the per-child statistics stay well-formed.
	var total int
	var routeErr error
	if pl.opts.Routing == RouteStatic {
		if sized, ok := src.(Sized); ok {
			total = sized.Remaining()
			if total == 0 {
				routeErr = fmt.Errorf("core: static split needs a non-empty finite source; %T reports 0 items", src)
			}
		} else {
			routeErr = fmt.Errorf("core: static split needs a finite source (implementing Sized); %T is not", src)
		}
	}

	// Start the children. Work-stealing children share the source
	// directly; the dealt policies get per-child bounded feeds from the
	// dealer. A child that finishes early (device error) drains its own
	// feed on the way out, waking a dispatcher blocked on the full
	// queue; the drained items are re-routed to surviving children
	// while dealing is still in progress. Items stranded by a child
	// that dies after dealing has finished (at most QueueDepth of
	// them), or left when no child is, are dropped — the child's error
	// is on its job and the pool's, so the loss is never silent.
	done := sim.NewQueue[int](env, "pool/join", 0)
	upstream, _ := src.(DepthSource)
	pl.down = make([]bool, n)

	// Hedged requests: a timer per dispatched item duplicates it onto
	// a different healthy child when it ages past the trigger; the
	// dedup in childSink delivers the first completion and discards
	// the loser. Disabled (nil) hedging adds no timers, so the event
	// sequence — and therefore every result — is bit-identical to a
	// pool without the feature.
	pl.hedge = nil
	var deal *dealer // nil under RouteWorkStealing
	if pl.opts.Routing != RouteWorkStealing {
		// In-flight capacity: each child fleet holds one executing
		// item plus two queued slots per device, and each bounded feed
		// adds QueueDepth more — the DynamicBudget utilization
		// denominator.
		hcap := n*pl.opts.QueueDepth + 3*pl.DeviceCount()
		deal = newDealer(env, "pool/feed", n, pl.opts.QueueDepth,
			func(j int) bool { return pl.jobs[j].done }, pl.opts.Hedge, hcap)
		deal.down = pl.down
		pl.hedge = deal.hedge
	}

	// Health-aware failover: a child reporting no healthy device is
	// routed around (weight zero) and, while dealing is live, its
	// bounded feed is drained back to the dispatcher for re-dispatch;
	// it rejoins the deal on the first healthy report. The reaction
	// runs before the composite republishes the aggregate health to
	// the pool's own observers — the feed health-aware admission
	// subscribes to.
	pl.start(func(i, healthy int) {
		wasDown := pl.down[i]
		pl.down[i] = healthy == 0
		if pl.down[i] && !wasDown && deal != nil && deal.dispatching {
			deal.reclaim(i)
		}
	})
	for i, c := range pl.children {
		var csrc Source = src
		if deal != nil {
			csrc = &childFeed{itemQueue{q: deal.feeds[i]}, upstream}
		}
		cj := c.Start(env, csrc, childSink(i))
		cj.OnFinish(func(p *sim.Proc) {
			done.Put(p, i)
			if deal != nil {
				deal.reclaim(i)
			}
		})
		pl.jobs[i] = cj
	}

	env.Process("pool-main", func(p *sim.Proc) {
		job.StartedAt = p.Now()
		if routeErr != nil {
			job.Err = routeErr
			deal.shutdown(p) // only RouteStatic reports a route error
		} else if deal != nil {
			deal.place = pl.placer(deal, completed, ewma, total)
			deal.run(p, src)
		}
		// Join every child, then aggregate.
		for range pl.children {
			done.Get(p)
		}
		var lost []Item
		if deal != nil {
			lost = deal.lost()
		}
		var ready time.Duration
		readySet := false
		for i, cj := range pl.jobs {
			if cj.Err != nil && job.Err == nil {
				job.Err = fmt.Errorf("core: pool child %s: %w", pl.children[i].Name(), cj.Err)
			}
			if cj.Err == nil && (!readySet || cj.ReadyAt < ready) {
				ready = cj.ReadyAt
				readySet = true
			}
		}
		if job.Err == nil && len(lost) > 0 {
			job.Err = fmt.Errorf("core: %d item(s) stranded by a child that stopped consuming", len(lost))
		}
		job.ReadyAt = ready
		job.Finish(p)
	})
	return job
}

// placer returns the routing policy's placement for the dealer: it
// puts the item on a live child's feed and reports which (ok=false
// when no child is left alive). Static and round-robin count the items
// they placed.
func (pl *Pool) placer(deal *dealer, completed []int, ewma []float64, total int) func(*sim.Proc, Item, int) (int, bool) {
	feeds, dealt, n := deal.feeds, deal.dealt, len(deal.feeds)
	placed := 0
	switch pl.opts.Routing {
	case RouteStatic:
		// ends[i] is the exclusive end of child i's contiguous block:
		// weighted largest-remainder apportionment.
		ends := apportion(total, pl.staticWeights(n))
		return func(p *sim.Proc, item Item, _ int) (int, bool) {
			child := 0
			for child < n-1 && placed >= ends[child] {
				child++
			}
			placed++
			return deal.put(p, item, child)
		}
	case RouteRoundRobin:
		return func(p *sim.Proc, item Item, _ int) (int, bool) {
			placed++
			return deal.put(p, item, (placed-1)%n)
		}
	case RouteLatency:
		return func(p *sim.Proc, item Item, _ int) (int, bool) {
			return pl.dispatchLatency(p, feeds, dealt, completed, ewma, item)
		}
	}
	return func(p *sim.Proc, item Item, _ int) (int, bool) { // RouteWeighted
		return pl.dispatchWeighted(p, feeds, dealt, completed, item)
	}
}

// staticWeights returns the explicit weights or an equal split.
func (pl *Pool) staticWeights(n int) []float64 {
	if pl.opts.Weights != nil {
		return pl.opts.Weights
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// dispatchWeighted deals the item to the live child with the smallest
// dispatch deficit dealt/weight. With explicit weights it blocks on
// that child so the requested ratio holds exactly; in adaptive mode
// (weights from observed completions, +1 so cold children stay
// eligible) a full preferred feed spills the item down the preference
// order, chasing realized throughput instead of a fixed ratio.
func (pl *Pool) dispatchWeighted(p *sim.Proc, feeds []*sim.Queue[Item], dealt, completed []int, item Item) (int, bool) {
	explicit := pl.opts.Weights != nil
	weight := func(i int) float64 {
		if explicit {
			return pl.opts.Weights[i]
		}
		return float64(completed[i] + 1)
	}
	deficit := func(i int) float64 { return float64(dealt[i]) / weight(i) }
	return pl.dispatchByScore(p, feeds, deficit, !explicit, item)
}

// ewmaAlpha is the smoothing factor of the per-child service-time
// estimate behind RouteLatency: recent observations dominate within
// ~5 completions, slow enough to ride out single-item jitter.
const ewmaAlpha = 0.2

// dispatchLatency deals the item to the live child with the smallest
// expected completion time: EWMA service time × (outstanding items +
// 1). A cold child (no completions yet) scores zero and is probed
// first, so every child's estimate warms up immediately.
func (pl *Pool) dispatchLatency(p *sim.Proc, feeds []*sim.Queue[Item], dealt, completed []int, ewma []float64, item Item) (int, bool) {
	score := func(i int) float64 {
		outstanding := dealt[i] - completed[i]
		return ewma[i] * float64(outstanding+1)
	}
	return pl.dispatchByScore(p, feeds, score, true, item)
}

// dispatchByScore is the dispatch skeleton shared by the scored
// policies: deal to the live child with the smallest score. With
// spill, a full preferred feed spills the item down the score order
// (work-conserving); without, or when every live feed is full, it
// blocks on the best child. Reports which child received the item
// (ok=false when no child is left alive).
func (pl *Pool) dispatchByScore(p *sim.Proc, feeds []*sim.Queue[Item], score func(int) float64, spill bool, item Item) (int, bool) {
	// Unhealthy children are excluded from the deal (weight zero)
	// until they rejoin; if every live child is down, deal to the live
	// set anyway so the bounded feeds buffer the work instead of the
	// pool stalling.
	order := pl.order[:0]
	for i := range feeds {
		if !pl.jobs[i].done && !pl.down[i] {
			order = append(order, i)
		}
	}
	if len(order) == 0 {
		for i := range feeds {
			if !pl.jobs[i].done {
				order = append(order, i)
			}
		}
	}
	pl.order = order
	if len(order) == 0 {
		return 0, false
	}
	// Insertion sort by score: n is a handful of devices.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && score(order[j]) < score(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	if spill {
		for _, i := range order {
			if feeds[i].TryPut(item) {
				return i, true
			}
		}
	}
	// Put may block, and another dispatch may reuse the scratch
	// meanwhile.
	best := order[0]
	feeds[best].Put(p, item)
	return best, true
}

// apportion splits total items into contiguous blocks proportional to
// weights using largest-remainder rounding; it returns the exclusive
// end index of each block (the last always equals total).
func apportion(total int, weights []float64) []int {
	n := len(weights)
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, n)
	rema := make([]float64, n)
	assigned := 0
	for i, w := range weights {
		exact := float64(total) * w / sum
		counts[i] = int(exact)
		rema[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < total {
		best := 0
		for i := 1; i < n; i++ {
			if rema[i] > rema[best] {
				best = i
			}
		}
		counts[best]++
		rema[best] = -1
		assigned++
	}
	ends := make([]int, n)
	acc := 0
	for i, c := range counts {
		acc += c
		ends[i] = acc
	}
	return ends
}
