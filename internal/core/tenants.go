package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/field"
	"repro/internal/rng"
	"repro/internal/sim"
)

// This file is the multi-tenant admission edge: many per-tenant
// arrival processes multiplexed into one tagged stream, scheduled out
// of per-tenant queues by deficit-round-robin over weights (optionally
// inside strict priority tiers), with per-tenant quotas, deadlines and
// shed policies. One bursty tenant sheds its own traffic; its
// neighbors keep their fair share. The FIFO policy — a single shared
// queue in arrival order — is the deliberately isolation-free control
// the fair scheduler is measured against.

// TenantPolicy selects the admission-edge scheduler of a TenantMux.
type TenantPolicy int

const (
	// TenantFIFO multiplexes every tenant into one shared queue served
	// in arrival order — no isolation: a flash-crowd tenant fills the
	// queue and its neighbors' traffic sheds alongside its own. The
	// control configuration of the tenants experiment.
	TenantFIFO TenantPolicy = iota
	// TenantFair drains per-tenant queues by deficit-round-robin over
	// the tenant weights: under saturation each backlogged tenant
	// receives service proportional to its weight, and an idle
	// tenant's share is redistributed (work conservation).
	TenantFair
	// TenantPriority serves strict priority tiers (lower Priority
	// value first); within a tier, deficit-round-robin over weights.
	// A lower tier is served only when every higher tier is empty —
	// latency-critical classes preempt batch classes at the queue, at
	// the cost of possible starvation below.
	TenantPriority
)

// String names the policy.
func (t TenantPolicy) String() string {
	switch t {
	case TenantFIFO:
		return "fifo"
	case TenantFair:
		return "fair"
	case TenantPriority:
		return "priority"
	}
	return fmt.Sprintf("tenant-policy(%d)", int(t))
}

// TenantLane declares one tenant (traffic class) of a TenantMux: its
// identity, its arrival process, its scheduling share and its
// contract (queue bound, deadline, quotas).
type TenantLane struct {
	// ID names the tenant; stamped onto every item (Item.Tenant) and
	// carried through to the Result. Must be unique and non-empty.
	ID string
	// Weight is the tenant's fair-share weight (default 1). Under
	// TenantFair/TenantPriority a backlogged tenant receives service
	// proportional to Weight within its tier.
	Weight float64
	// Priority is the tenant's strict-priority class under
	// TenantPriority: lower values are served first, ties share a
	// deficit-round-robin tier. TenantFIFO/TenantFair ignore it.
	Priority int
	// Arrivals is the tenant's open-loop arrival process (required).
	// Each lane draws from its own derived random stream, so one
	// tenant's arrival sequence is identical across scheduler
	// policies.
	Arrivals Arrivals
	// Depth bounds the tenant's own admission queue (0 = unbounded).
	// Under TenantFIFO the lane depths are summed into the shared
	// bound unless SharedDepth overrides it.
	Depth int
	// Policy selects what a full tenant queue does with the tenant's
	// next arrival (default ShedNewest). Block applies backpressure to
	// this tenant's own arrival pump only.
	Policy OverloadPolicy
	// Deadline is the tenant's per-item deadline (its SLO target)
	// measured from arrival; an item still queued when it lapses is
	// dropped as expired at dispatch. 0 disables expiry.
	Deadline time.Duration
	// MaxInFlight caps the tenant's admitted-but-uncompleted items
	// (queued here plus dispatched downstream); an arrival beyond the
	// cap is rejected as a quota drop. 0 = unlimited. Wire Done to the
	// completion path to release the slots.
	MaxInFlight int
	// RatePerSec caps the tenant's admitted rate with a token bucket
	// refilled in virtual time; an arrival finding no token is
	// rejected as a quota drop. 0 = unlimited.
	RatePerSec float64
	// Burst is the token-bucket depth of the rate quota (default 1:
	// strict pacing with no burst allowance).
	Burst int
}

// TenantMuxOptions configures a TenantMux.
type TenantMuxOptions struct {
	// Lanes are the tenants, in registration order (the order DRR
	// ties and reporting follow). At least one is required.
	Lanes []TenantLane
	// Policy selects the admission scheduler (default TenantFIFO).
	Policy TenantPolicy
	// SharedDepth bounds the single shared queue of TenantFIFO
	// (0 = the sum of the lane depths; unbounded if any lane is).
	// Ignored by the fair policies.
	SharedDepth int
	// SharedPolicy is the overload policy of the shared TenantFIFO
	// queue (default ShedNewest). Ignored by the fair policies.
	SharedPolicy OverloadPolicy
}

// Validate checks the options: at least one lane, unique non-empty
// IDs, an arrival process per lane, finite non-negative weights and
// quotas, known policies. It is the one home of the tenant rules:
// NewTenantMux and the session config both call it. Errors are
// field.Errors with paths relative to the options ("Lanes[2].ID").
func (o TenantMuxOptions) Validate() error {
	if o.Policy < TenantFIFO || o.Policy > TenantPriority {
		return field.Errorf("Policy", "unknown scheduler %v", o.Policy)
	}
	if o.SharedDepth < 0 {
		return field.Errorf("SharedDepth", "negative depth %d", o.SharedDepth)
	}
	if !o.SharedPolicy.valid() {
		return field.Errorf("SharedPolicy", "unknown overload policy %v", o.SharedPolicy)
	}
	if len(o.Lanes) == 0 {
		return field.Errorf("Lanes", "needs at least one tenant lane")
	}
	seen := make(map[string]bool, len(o.Lanes))
	for i, l := range o.Lanes {
		p := fmt.Sprintf("Lanes[%d]", i)
		if l.ID == "" {
			return field.Errorf(p+".ID", "required")
		}
		if seen[l.ID] {
			return field.Errorf(p+".ID", "duplicate tenant %q", l.ID)
		}
		seen[l.ID] = true
		if l.Arrivals == nil {
			return field.Errorf(p+".Arrivals", "required (every tenant drives its own traffic)")
		}
		if !finiteNonNegative(l.Weight) {
			return field.Errorf(p+".Weight", "weight %g (need finite >= 0)", l.Weight)
		}
		if l.Deadline < 0 {
			return field.Errorf(p+".Deadline", "negative deadline %v", l.Deadline)
		}
		if l.Depth < 0 {
			return field.Errorf(p+".Depth", "negative depth %d", l.Depth)
		}
		if !l.Policy.valid() {
			return field.Errorf(p+".Policy", "unknown overload policy %v", l.Policy)
		}
		if l.MaxInFlight < 0 {
			return field.Errorf(p+".MaxInFlight", "negative quota %d", l.MaxInFlight)
		}
		if !finiteNonNegative(l.RatePerSec) {
			return field.Errorf(p+".RatePerSec", "rate quota %g (need finite >= 0)", l.RatePerSec)
		}
		if l.Burst < 0 {
			return field.Errorf(p+".Burst", "negative burst %d", l.Burst)
		}
	}
	return nil
}

func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// TenantStats counts what happened to one tenant at the admission
// edge.
type TenantStats struct {
	// Arrived is every item the tenant's arrival process offered.
	Arrived int
	// Admitted is how many entered a queue (including any later
	// expired while queued).
	Admitted int
	// Shed is how many the overload policy dropped.
	Shed int
	// Expired is how many were admitted but dropped at dispatch after
	// the tenant's deadline lapsed in the queue.
	Expired int
	// QuotaRejected is how many a quota (max in-flight or admitted
	// rate) turned away before any queue.
	QuotaRejected int
	// Dispatched is how many were handed to a consumer.
	Dispatched int
	// Completed is how many completions Done reported back.
	Completed int
}

// tenantLane is the runtime state of one tenant.
type tenantLane struct {
	cfg   TenantLane
	q     *sim.Queue[Item] // per-tenant queue (fair policies)
	stats TenantStats
	// inflight is admitted-but-uncompleted work (queued + dispatched);
	// the MaxInFlight quota gates on it.
	inflight int
	// served is the DRR service counter: the scheduler picks the
	// backlogged lane minimizing served/weight.
	served int
	// tokens/lastRefill implement the admitted-rate token bucket in
	// virtual time.
	tokens     float64
	lastRefill time.Duration
}

// weight returns the configured weight (default 1).
func (l *tenantLane) weight() float64 {
	if l.cfg.Weight > 0 {
		return l.cfg.Weight
	}
	return 1
}

// TenantMux is the multi-tenant admission edge: one arrival pump per
// tenant pulls the shared inner source at the tenant's own arrival
// instants, tags each item (Item.Tenant), applies the tenant's quotas
// and queue bound, and a scheduler drains the queues per
// TenantPolicy. Consumers read it as an ordinary Source; it also
// implements TimedSource and DepthSource, so any target — single,
// pool, batch-assembling — consumes it exactly like an
// AdmissionQueue.
//
// Expiry is lazy (checked at dispatch), exactly like AdmissionQueue.
// The stream ends when the shared inner source is exhausted and every
// queue has drained; exhaustion is re-posted so every consumer
// terminates.
type TenantMux struct {
	opts   TenantMuxOptions
	onDrop func(item Item, reason DropReason, at time.Duration)
	lanes  []*tenantLane
	byID   map[string]*tenantLane
	// tiers holds lane indices grouped by strict priority (ascending),
	// each tier in registration order. TenantFair has a single tier.
	tiers [][]int
	// ready holds one token (a zero Item) per enqueued item under the
	// fair policies, ended by the sentinel like any edge queue. Tokens
	// are not bound to specific items: a ShedOldest eviction leaves an
	// orphan token the dispatcher skips when every queue is empty.
	ready *itemQueue
	// shared is the single TenantFIFO queue (nil under fair policies).
	shared *itemQueue
	inner  Source
	// pumps counts arrival pumps still running; the last one to finish
	// posts the end-of-stream sentinel.
	pumps int
}

// NewTenantMux builds the multi-tenant admission edge inside env over
// the shared inner source. The arrival pumps start immediately;
// traffic unfolds as env runs. seed drives the stochastic arrival
// processes: each lane derives its own sub-stream keyed by tenant ID,
// so per-tenant sequences are identical across scheduler policies (nil
// defaults to seed 1). onDrop, when non-nil, observes every dropped or
// rejected item (shed, expired, quota) with the drop instant;
// item.Tenant identifies the lane.
func NewTenantMux(env *sim.Env, inner Source, opts TenantMuxOptions, seed *rng.Source, onDrop func(item Item, reason DropReason, at time.Duration)) (*TenantMux, error) {
	if inner == nil {
		return nil, fmt.Errorf("core: tenant mux needs a wrapped source")
	}
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if seed == nil {
		seed = rng.New(1)
	}
	m := &TenantMux{
		opts:   opts,
		onDrop: onDrop,
		byID:   make(map[string]*tenantLane, len(opts.Lanes)),
		inner:  inner,
		pumps:  len(opts.Lanes),
	}
	for _, cfg := range opts.Lanes {
		lane := &tenantLane{cfg: cfg, tokens: float64(cfg.burstOrDefault())}
		m.lanes = append(m.lanes, lane)
		m.byID[cfg.ID] = lane
	}
	if opts.Policy == TenantFIFO {
		depth := opts.SharedDepth
		if depth == 0 {
			for _, l := range m.lanes {
				if l.cfg.Depth == 0 {
					depth = 0 // any unbounded lane makes the shared queue unbounded
					break
				}
				depth += l.cfg.Depth
			}
		}
		m.shared = &itemQueue{q: sim.NewQueue[Item](env, "core/tenants", depth)}
		m.shared.dispatch = func(item Item, now time.Duration) bool {
			return m.dispatch(m.byID[item.Tenant], item, now)
		}
	} else {
		m.ready = &itemQueue{q: sim.NewQueue[Item](env, "core/tenants/ready", 0)}
		for _, l := range m.lanes {
			l.q = sim.NewQueue[Item](env, "core/tenant/"+l.cfg.ID, l.cfg.Depth)
		}
		m.buildTiers()
	}
	for _, lane := range m.lanes {
		lane := lane
		env.Process("tenant/"+lane.cfg.ID, func(p *sim.Proc) {
			gen := lane.cfg.Arrivals.start(seed.Derive("tenants/arrivals/" + lane.cfg.ID))
			pump(p, m.inner, gen, "tenant arrival", func(p *sim.Proc, item Item) {
				item.Tenant = lane.cfg.ID
				m.admit(p, lane, item)
			})
			m.pumps--
			if m.pumps == 0 {
				if m.shared != nil {
					m.shared.close(p)
				} else {
					m.ready.close(p)
				}
			}
		})
	}
	return m, nil
}

// burstOrDefault returns the rate-quota bucket depth (default 1).
func (cfg TenantLane) burstOrDefault() int {
	if cfg.Burst > 0 {
		return cfg.Burst
	}
	return 1
}

// buildTiers groups lane indices into strict-priority tiers
// (ascending Priority, registration order within a tier). TenantFair
// collapses everything into one tier.
func (m *TenantMux) buildTiers() {
	if m.opts.Policy == TenantFair {
		tier := make([]int, len(m.lanes))
		for i := range m.lanes {
			tier[i] = i
		}
		m.tiers = [][]int{tier}
		return
	}
	// Insertion-ordered grouping: walk priorities in ascending order
	// without iterating a map, so tier construction is deterministic.
	assigned := make([]bool, len(m.lanes))
	for remaining := len(m.lanes); remaining > 0; {
		best, found := 0, false
		for i, l := range m.lanes {
			if assigned[i] {
				continue
			}
			if !found || l.cfg.Priority < best {
				best, found = l.cfg.Priority, true
			}
		}
		var tier []int
		for i, l := range m.lanes {
			if !assigned[i] && l.cfg.Priority == best {
				assigned[i] = true
				tier = append(tier, i)
				remaining--
			}
		}
		m.tiers = append(m.tiers, tier)
	}
}

// admit applies quota gates and the queue bound to one tagged
// arrival.
func (m *TenantMux) admit(p *sim.Proc, lane *tenantLane, item Item) {
	lane.stats.Arrived++
	now := p.Now()
	// Admitted-rate quota: a token bucket refilled in virtual time.
	if lane.cfg.RatePerSec > 0 {
		burst := float64(lane.cfg.burstOrDefault())
		lane.tokens += (now - lane.lastRefill).Seconds() * lane.cfg.RatePerSec
		if lane.tokens > burst {
			lane.tokens = burst
		}
		lane.lastRefill = now
		if lane.tokens < 1 {
			m.drop(lane, item, DropQuota, now)
			return
		}
		lane.tokens--
	}
	// Max-in-flight quota: queued here plus dispatched downstream.
	if lane.cfg.MaxInFlight > 0 && lane.inflight >= lane.cfg.MaxInFlight {
		m.drop(lane, item, DropQuota, now)
		return
	}
	// Under TenantFIFO the shared policy applies and a ShedOldest
	// victim may belong to any tenant — the isolation failure the fair
	// policies exist to fix.
	q, policy := lane.q, lane.cfg.Policy
	if m.shared != nil {
		q, policy = m.shared.q, m.opts.SharedPolicy
	}
	if !offer(p, q, policy, item, m.evict) {
		m.drop(lane, item, DropShed, p.Now())
		return
	}
	lane.stats.Admitted++
	lane.inflight++
	if m.ready != nil {
		m.ready.q.TryPut(Item{}) // unbounded: never fails
	}
}

// evict drops a ShedOldest victim, charged to its own lane, whose
// in-flight slot it releases. Under the fair policies the victim's
// ready token stays behind as an orphan the scheduler skips.
func (m *TenantMux) evict(old Item, reason DropReason, at time.Duration) {
	victim := m.byID[old.Tenant]
	victim.inflight--
	m.drop(victim, old, reason, at)
}

// Next implements Source: the next scheduled, unexpired item across
// every tenant. Expired items encountered on the way are dropped and
// counted against their own tenant.
func (m *TenantMux) Next(p *sim.Proc) (Item, bool) {
	if m.shared != nil {
		return m.shared.Next(p)
	}
	// The stream ends once all pumps are done and (invariant: tokens
	// >= queued items) every queue has drained.
	for {
		if _, ok := m.ready.Next(p); !ok {
			return Item{}, false
		}
		// A token finds no item only when a ShedOldest eviction left
		// it orphaned; read the next one.
		if item, ok := m.schedule(p.Now()); ok {
			return item, true
		}
	}
}

// NextWithin implements TimedSource: like Next but gives up once d of
// virtual time passes with nothing dispatchable.
func (m *TenantMux) NextWithin(p *sim.Proc, d time.Duration) (Item, bool, bool) {
	if m.shared != nil {
		return m.shared.NextWithin(p, d)
	}
	deadline := p.Now() + d
	for {
		if _, ok, open := m.ready.NextWithin(p, max(deadline-p.Now(), 0)); !ok {
			return Item{}, false, open
		}
		if item, ok := m.schedule(p.Now()); ok {
			return item, true, true
		}
	}
}

// schedule picks the next item under the fair policies: the first
// non-empty tier (strict priority), and within it the backlogged lane
// minimizing served/weight (deficit round robin; ties go to
// registration order). ok=false means every queue is empty — the
// consumed token was an eviction orphan.
func (m *TenantMux) schedule(now time.Duration) (Item, bool) {
	for _, tier := range m.tiers {
		pick := -1
		var pickKey float64
		for _, i := range tier {
			lane := m.lanes[i]
			if lane.q.Len() == 0 {
				continue
			}
			key := float64(lane.served) / lane.weight()
			if pick == -1 || key < pickKey {
				pick, pickKey = i, key
			}
		}
		if pick == -1 {
			continue // tier empty; fall through to the next tier
		}
		lane := m.lanes[pick]
		item, _ := lane.q.TryGet()
		if !m.dispatch(lane, item, now) {
			// The expired item consumed this token; the caller loops
			// for the next one.
			return Item{}, false
		}
		lane.served++
		return item, true
	}
	return Item{}, false
}

// dispatch is the lazy expiry of an item leaving lane's queue or the
// shared one: an item whose tenant deadline lapsed in the queue is
// dropped (false) and releases its in-flight slot, any other is
// counted as dispatched.
func (m *TenantMux) dispatch(lane *tenantLane, item Item, now time.Duration) bool {
	if lane.cfg.Deadline > 0 && now > item.ArrivedAt+lane.cfg.Deadline {
		lane.inflight--
		m.drop(lane, item, DropExpired, now)
		return false
	}
	lane.stats.Dispatched++
	return true
}

// drop counts and reports one dropped or rejected item.
func (m *TenantMux) drop(lane *tenantLane, item Item, reason DropReason, at time.Duration) {
	switch reason {
	case DropExpired:
		lane.stats.Expired++
	case DropQuota:
		lane.stats.QuotaRejected++
	default:
		lane.stats.Shed++
	}
	if m.onDrop != nil {
		m.onDrop(item, reason, at)
	}
}

// Done reports one completed item back to the quota accounting: call
// it once per delivered result (and once per downstream loss, e.g. a
// fault drop) so MaxInFlight slots are released. Unknown tenants —
// untagged items in a mixed wiring — are ignored.
func (m *TenantMux) Done(tenant string) {
	lane, ok := m.byID[tenant]
	if !ok {
		return
	}
	lane.stats.Completed++
	lane.inflight--
}

// Pending implements DepthSource: admitted items waiting for
// dispatch, across every tenant.
func (m *TenantMux) Pending() int {
	if m.shared != nil {
		return m.shared.Pending()
	}
	n := 0
	for _, lane := range m.lanes {
		n += lane.q.Len()
	}
	return n
}

// Remaining implements Sized when the shared inner source does: items
// not yet pulled plus items queued at the edge. Unsized inner sources
// report 0 (a tenant-multiplexed stream cannot be split statically).
func (m *TenantMux) Remaining() int {
	if sized, ok := m.inner.(Sized); ok {
		return sized.Remaining() + m.Pending()
	}
	return 0
}

// TenantIDs returns the tenant IDs in registration order.
func (m *TenantMux) TenantIDs() []string {
	ids := make([]string, len(m.lanes))
	for i, lane := range m.lanes {
		ids[i] = lane.cfg.ID
	}
	return ids
}

// Stats returns one tenant's admission counters (zero value for an
// unknown ID); read after the run completes for final numbers.
func (m *TenantMux) Stats(tenant string) TenantStats {
	if lane, ok := m.byID[tenant]; ok {
		return lane.stats
	}
	return TenantStats{}
}
