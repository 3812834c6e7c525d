// Package tenant is the multi-tenant serving configuration surface:
// a registry of traffic classes — identity, fair-share weight,
// priority class, per-tenant SLO deadline, quotas and shed policy —
// plus the scheduler selection for the admission edge. The runtime
// mechanics (per-tenant arrival pumps, deficit-round-robin dispatch,
// quota gates) live in internal/core's TenantMux; this package owns
// declaration and validation, so sessions and benches describe a
// tenant mix without touching scheduler internals.
package tenant

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/field"
)

// Scheduler selects the admission-edge scheduling policy of a
// multi-tenant session. It mirrors core.TenantPolicy one to one.
type Scheduler int

const (
	// FIFO multiplexes every tenant into one shared queue in arrival
	// order — no isolation; the control configuration.
	FIFO Scheduler = Scheduler(core.TenantFIFO)
	// WeightedFair drains per-tenant queues by deficit-round-robin
	// over the tenant weights: backlogged tenants receive service
	// proportional to weight, idle shares redistribute.
	WeightedFair Scheduler = Scheduler(core.TenantFair)
	// Priority serves strict priority tiers (lower Tenant.Priority
	// first), deficit-round-robin within a tier.
	Priority Scheduler = Scheduler(core.TenantPriority)
)

// String names the scheduler.
func (s Scheduler) String() string { return core.TenantPolicy(s).String() }

// Tenant declares one traffic class of a multi-tenant session.
type Tenant struct {
	// ID names the tenant (unique, non-empty); it is stamped onto
	// every item and carried through to the Result and the per-tenant
	// report.
	ID string
	// Weight is the fair-share weight (default 1).
	Weight float64
	// Priority is the strict-priority class under the Priority
	// scheduler: lower is served first. Ignored otherwise.
	Priority int
	// SLO is the tenant's own latency target: per-tenant goodput is
	// measured against it, and an item still queued when it lapses is
	// dropped as expired. 0 inherits the session SLO (which may itself
	// be 0: no deadline).
	SLO time.Duration
	// Arrivals is the tenant's open-loop arrival process (required).
	Arrivals core.Arrivals
	// QueueDepth bounds the tenant's own admission queue (0 =
	// unbounded).
	QueueDepth int
	// Overload selects what a full tenant queue does with the
	// tenant's next arrival (default core.ShedNewest).
	Overload core.OverloadPolicy
	// MaxInFlight caps admitted-but-uncompleted items (0 =
	// unlimited); excess arrivals are rejected as quota drops.
	MaxInFlight int
	// RatePerSec caps the admitted rate with a virtual-time token
	// bucket (0 = unlimited); Burst is the bucket depth (default 1).
	RatePerSec float64
	Burst      int
}

// Config is the multi-tenant session description: the scheduler at
// the admission edge plus the tenant registry in registration order
// (the order scheduling ties and reporting follow).
type Config struct {
	// Scheduler selects the admission policy (default FIFO).
	Scheduler Scheduler
	// Tenants is the registry, in registration order.
	Tenants []Tenant
	// SharedDepth bounds the FIFO shared queue (0 = sum of the tenant
	// queue depths). Ignored by the fair schedulers.
	SharedDepth int
	// SharedOverload is the FIFO shared queue's overload policy
	// (default core.ShedNewest). Ignored by the fair schedulers.
	SharedOverload core.OverloadPolicy
}

// Enabled reports whether the config declares any tenants.
func (c Config) Enabled() bool { return len(c.Tenants) > 0 }

// Validate checks the registry: unique non-empty IDs, an arrival
// process per tenant, finite non-negative weights/quotas, a known
// scheduler. Errors are field.Errors with paths relative to the
// config ("Tenants[2].ID").
func (c Config) Validate() error {
	if c.Scheduler < FIFO || c.Scheduler > Priority {
		return field.Errorf("Scheduler", "unknown scheduler %v", c.Scheduler)
	}
	if c.SharedDepth < 0 {
		return field.Errorf("SharedDepth", "negative depth %d", c.SharedDepth)
	}
	seen := make(map[string]bool, len(c.Tenants))
	for i, t := range c.Tenants {
		p := fmt.Sprintf("Tenants[%d]", i)
		if t.ID == "" {
			return field.Errorf(p+".ID", "required")
		}
		if seen[t.ID] {
			return field.Errorf(p+".ID", "duplicate tenant %q", t.ID)
		}
		seen[t.ID] = true
		if t.Arrivals == nil {
			return field.Errorf(p+".Arrivals", "required (every tenant drives its own traffic)")
		}
		if !finiteNonNegative(t.Weight) {
			return field.Errorf(p+".Weight", "weight %g (need finite >= 0)", t.Weight)
		}
		if t.SLO < 0 {
			return field.Errorf(p+".SLO", "negative deadline %v", t.SLO)
		}
		if t.QueueDepth < 0 {
			return field.Errorf(p+".QueueDepth", "negative depth %d", t.QueueDepth)
		}
		if t.MaxInFlight < 0 {
			return field.Errorf(p+".MaxInFlight", "negative quota %d", t.MaxInFlight)
		}
		if !finiteNonNegative(t.RatePerSec) {
			return field.Errorf(p+".RatePerSec", "rate quota %g (need finite >= 0)", t.RatePerSec)
		}
		if t.Burst < 0 {
			return field.Errorf(p+".Burst", "negative burst %d", t.Burst)
		}
	}
	return nil
}

func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// IDs returns the tenant IDs in registration order.
func (c Config) IDs() []string {
	ids := make([]string, len(c.Tenants))
	for i, t := range c.Tenants {
		ids[i] = t.ID
	}
	return ids
}

// Lookup returns the tenant with the given ID.
func (c Config) Lookup(id string) (Tenant, bool) {
	for _, t := range c.Tenants {
		if t.ID == id {
			return t, true
		}
	}
	return Tenant{}, false
}

// MuxOptions lowers the config into the core scheduler's options.
// defaultSLO fills tenants whose SLO is unset (the session-level
// target); the caller supplies the seed and drop hook.
func (c Config) MuxOptions(defaultSLO time.Duration) core.TenantMuxOptions {
	lanes := make([]core.TenantLane, len(c.Tenants))
	for i, t := range c.Tenants {
		slo := t.SLO
		if slo == 0 {
			slo = defaultSLO
		}
		lanes[i] = core.TenantLane{
			ID:          t.ID,
			Weight:      t.Weight,
			Priority:    t.Priority,
			Arrivals:    t.Arrivals,
			Depth:       t.QueueDepth,
			Policy:      t.Overload,
			Deadline:    slo,
			MaxInFlight: t.MaxInFlight,
			RatePerSec:  t.RatePerSec,
			Burst:       t.Burst,
		}
	}
	return core.TenantMuxOptions{
		Lanes:        lanes,
		Policy:       core.TenantPolicy(c.Scheduler),
		SharedDepth:  c.SharedDepth,
		SharedPolicy: c.SharedOverload,
	}
}

// SLOFor returns the latency target tenant goodput is measured
// against: the tenant's own SLO, or defaultSLO when unset.
func (c Config) SLOFor(id string, defaultSLO time.Duration) time.Duration {
	if t, ok := c.Lookup(id); ok && t.SLO > 0 {
		return t.SLO
	}
	return defaultSLO
}
