package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/imagenet"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// tenantLoads are the aggregate offered-load fractions of the fleet's
// measured closed-loop capacity. The two highest deliberately
// over-drive the fleet so the schedulers' isolation (or lack of it)
// shows under sustained overload.
var tenantLoads = []float64{0.8, 1.0, 1.2, 1.3}

const (
	// tenantSticks is the fleet: one 4-stick VPU group, the paper's
	// headline configuration.
	tenantSticks = 4
	// tenantSteadyCount well-behaved Poisson tenants each offer
	// tenantSteadyFrac of capacity — comfortably under everyone's fair
	// share, so any goodput they lose is a neighbor's fault.
	tenantSteadyCount = 3
	tenantSteadyFrac  = 0.15
	// tenantQueueDepth bounds each tenant's own admission queue (and,
	// summed, the FIFO shared queue).
	tenantQueueDepth = 16
	// tenantBurstSLOs sizes the flash-crowd on/off window in SLO units:
	// long enough that a burst fills every queue, short enough that the
	// run sees several cycles.
	tenantBurstSLOs = 5
)

// TenantPoint is one (policy, aggregate load, tenant) measurement of
// the multi-tenant experiment — the machine-readable form behind the
// Tenants table and the -json CLI output.
type TenantPoint struct {
	// Policy names the admission-edge scheduler variant: "quiet" (the
	// steady tenants alone, the isolation baseline), "fifo", "wfq",
	// "wfq+quota" or "priority".
	Policy string `json:"policy"`
	// LoadPct is the aggregate offered load as a percent of the
	// fleet's closed-loop capacity.
	LoadPct int `json:"aggregate_load_pct"`
	// Tenant names the traffic class ("steady-a".."steady-c", "flash").
	Tenant string `json:"tenant"`
	// OfferedIPS is the tenant's mean offered rate (img/s).
	OfferedIPS float64 `json:"offered_img_per_s"`
	// AchievedIPS is the tenant's completion rate over the run window.
	AchievedIPS float64 `json:"achieved_img_per_s"`
	// P50MS and P99MS are the tenant's latency quantiles in
	// milliseconds.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// GoodputPct is the percent of the tenant's arrivals that
	// completed within the tenant's SLO; its sheds, expiries and quota
	// rejections all count against it.
	GoodputPct float64 `json:"goodput_pct"`
	// Shed, Expired and QuotaRejected count the tenant's own drops.
	Shed          int `json:"shed"`
	Expired       int `json:"expired"`
	QuotaRejected int `json:"quota_rejected"`
}

// tenantImages bounds the per-session image count: the sweep runs a
// full session per (load, policy) cell, and isolation effects
// stabilize well under 4000 arrivals.
func tenantImages(cfg Config) int {
	const cap = 4000
	if cfg.ImagesPerSubset > cap {
		return cap
	}
	return cfg.ImagesPerSubset
}

// tenantCapacity measures the fleet's closed-loop capacity and setup
// time once (memoized like the resilience probe): the normalization
// every offered load and SLO derives from.
func (h *Harness) tenantCapacity(images int) (float64, time.Duration, error) {
	return h.capacity(fmt.Sprintf("tenants/vpu-%d/%d", tenantSticks, images), func() (*pipeline.Report, error) {
		ds := imagenet.DefaultConfig()
		ds.Images = images
		sess, err := pipeline.New(
			pipeline.WithDataset(ds),
			pipeline.WithNetwork(h.goog),
			pipeline.WithVPUs(tenantSticks),
			pipeline.WithSeed(rng.New(h.cfg.Seed).Derive("tenants/capacity").Uint64()),
		)
		if err != nil {
			return nil, err
		}
		return sess.Run()
	})
}

// tenantSteady builds the three well-behaved tenants: Poisson at
// tenantSteadyFrac of capacity each, delayed past device setup.
func tenantSteady(capacity float64, ready time.Duration, slo time.Duration) []core.TenantLane {
	rate := tenantSteadyFrac * capacity
	ids := []string{"steady-a", "steady-b", "steady-c"}
	out := make([]core.TenantLane, len(ids))
	for i, id := range ids {
		out[i] = core.TenantLane{
			ID:       id,
			Weight:   1,
			Priority: 0,
			Deadline: slo,
			Arrivals: core.DelayedArrivals(core.PoissonArrivals(rate), ready),
			Depth:    tenantQueueDepth,
		}
	}
	return out
}

// tenantFlash builds the hostile tenant: an on/off flash crowd whose
// mean rate lifts the aggregate to the target load, bursting at twice
// its mean. Under the quota variant its admitted rate is capped at
// its mean — the contract it keeps violating during bursts.
func tenantFlash(capacity float64, ready time.Duration, load float64, slo time.Duration, quota bool) core.TenantLane {
	mean := (load - tenantSteadyCount*tenantSteadyFrac) * capacity
	window := time.Duration(tenantBurstSLOs) * slo
	t := core.TenantLane{
		ID:       "flash",
		Weight:   1,
		Priority: 1, // below the steady tenants under strict priority
		Deadline: slo,
		Arrivals: core.DelayedArrivals(core.BurstyArrivals(2*mean, window, window), ready),
		Depth:    tenantQueueDepth,
	}
	if quota {
		t.RatePerSec = mean
		t.Burst = tenantQueueDepth
	}
	return t
}

// tenantSession runs one multi-tenant session over the shared fleet.
// The session seed is derived from the cell name alone, so every
// policy variant of one load cell shares arrival instants and device
// jitter — a controlled comparison.
func (h *Harness) tenantSession(cell string, images int, slo time.Duration, tc core.TenantMuxOptions) (*pipeline.Report, error) {
	ds := imagenet.DefaultConfig()
	ds.Images = images
	sess, err := pipeline.New(
		pipeline.WithDataset(ds),
		pipeline.WithNetwork(h.goog),
		pipeline.WithVPUs(tenantSticks),
		pipeline.WithSLO(slo),
		pipeline.WithTenants(tc),
		pipeline.WithSeed(rng.New(h.cfg.Seed).Derive("tenants/"+cell).Uint64()),
	)
	if err != nil {
		return nil, fmt.Errorf("bench: tenants %s: %w", cell, err)
	}
	rep, err := sess.Run()
	if err != nil {
		return nil, fmt.Errorf("bench: tenants %s: %w", cell, err)
	}
	return rep, nil
}

// tenantRows reduces a session report to one point per tenant.
func tenantRows(rep *pipeline.Report, policy string, loadPct int, offered map[string]float64) []TenantPoint {
	ms := func(d time.Duration) float64 { return round2(d.Seconds() * 1e3) }
	out := make([]TenantPoint, 0, len(rep.Tenants))
	for _, t := range rep.Tenants {
		out = append(out, TenantPoint{
			Policy:        policy,
			LoadPct:       loadPct,
			Tenant:        t.ID,
			OfferedIPS:    round2(offered[t.ID]),
			AchievedIPS:   round2(t.Throughput),
			P50MS:         ms(t.Latency.P50),
			P99MS:         ms(t.Latency.P99),
			GoodputPct:    round2(t.Goodput * 100),
			Shed:          t.Shed,
			Expired:       t.Expired,
			QuotaRejected: t.QuotaRejected,
		})
	}
	return out
}

// tenantPolicies are the admission-edge scheduler variants compared at
// every load cell.
func tenantPolicies() []struct {
	name  string
	sched core.TenantPolicy
	quota bool
} {
	return []struct {
		name  string
		sched core.TenantPolicy
		quota bool
	}{
		{"fifo", core.TenantFIFO, false},
		{"wfq", core.TenantFair, false},
		{"wfq+quota", core.TenantFair, true},
		{"priority", core.TenantPriority, false},
	}
}

// TenantPoints runs the multi-tenant isolation experiment: a quiet
// baseline (the steady tenants alone), then a hostile mix — three
// steady Poisson tenants plus one flash-crowd tenant lifting the
// aggregate to 80–130% of fleet capacity — under FIFO, weighted-fair,
// weighted-fair-with-quota and strict-priority scheduling at the
// admission edge. Every variant of one load cell shares arrival
// seeds, so the only difference between rows is the scheduler.
func (h *Harness) TenantPoints() ([]TenantPoint, error) {
	images := tenantImages(h.cfg)
	capacity, ready, err := h.tenantCapacity(images)
	if err != nil {
		return nil, fmt.Errorf("bench: tenants capacity: %w", err)
	}
	slo := time.Duration(sloServiceMultiple * float64(tenantSticks) / capacity * float64(time.Second))
	steadyRate := tenantSteadyFrac * capacity

	var points []TenantPoint

	quietPct := int(tenantSteadyCount * tenantSteadyFrac * 100)
	quiet := core.TenantMuxOptions{Policy: core.TenantFair, Lanes: tenantSteady(capacity, ready, slo)}
	offered := map[string]float64{"steady-a": steadyRate, "steady-b": steadyRate, "steady-c": steadyRate}
	rep, err := h.tenantSession("quiet", images, slo, quiet)
	if err != nil {
		return nil, err
	}
	points = append(points, tenantRows(rep, "quiet", quietPct, offered)...)

	for _, load := range tenantLoads {
		pct := int(load*100 + 0.5)
		cell := fmt.Sprintf("load%03d", pct)
		flashMean := (load - tenantSteadyCount*tenantSteadyFrac) * capacity
		offered := map[string]float64{
			"steady-a": steadyRate, "steady-b": steadyRate, "steady-c": steadyRate,
			"flash": flashMean,
		}
		for _, pol := range tenantPolicies() {
			tc := core.TenantMuxOptions{
				Policy: pol.sched,
				Lanes:  append(tenantSteady(capacity, ready, slo), tenantFlash(capacity, ready, load, slo, pol.quota)),
			}
			rep, err := h.tenantSession(cell, images, slo, tc)
			if err != nil {
				return nil, err
			}
			points = append(points, tenantRows(rep, pol.name, pct, offered)...)
		}
	}
	return points, nil
}

// steadyGoodput averages the steady tenants' goodput over the points
// matching the given policy and load (0 load = any).
func steadyGoodput(points []TenantPoint, policy string, loadPct int) float64 {
	sum, n := 0.0, 0
	for _, p := range points {
		if p.Policy != policy || (loadPct != 0 && p.LoadPct != loadPct) {
			continue
		}
		if p.Tenant == "flash" {
			continue
		}
		sum += p.GoodputPct
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Tenants renders the multi-tenant experiment as a table: per-tenant
// goodput, tails and drops per scheduler and load, with isolation
// verdicts comparing the steady tenants against their quiet baseline.
func (h *Harness) Tenants() (*Table, error) {
	points, err := h.TenantPoints()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "tenants",
		Title: "Multi-tenant isolation: per-tenant goodput vs admission scheduler (flash-crowd mix)",
		Columns: []string{
			"policy", "load", "tenant", "offered img/s", "achieved img/s",
			"p50 ms", "p99 ms", "goodput", "shed", "expired", "quota",
		},
		Notes: []string{
			fmt.Sprintf("images per cell: %d; 4-stick VPU fleet; arrivals start after device setup", tenantImages(h.cfg)),
			fmt.Sprintf("mix: %d steady Poisson tenants at %.0f%% of capacity each + one on/off flash crowd lifting the aggregate to the load column", tenantSteadyCount, tenantSteadyFrac*100),
			"per-tenant queues are 16 deep (FIFO: one shared 64-deep queue); goodput is against each tenant's own SLO",
			"'quiet' is the steady tenants alone — the isolation baseline the other rows are judged against",
			"wfq+quota additionally caps the flash tenant's admitted rate at its mean (token bucket), so burst excess is rejected at admission",
		},
	}
	for _, p := range points {
		t.AddRow(
			p.Policy,
			fmt.Sprintf("%d%%", p.LoadPct),
			p.Tenant,
			fmt.Sprintf("%.1f", p.OfferedIPS),
			fmt.Sprintf("%.1f", p.AchievedIPS),
			fmt.Sprintf("%.1f", p.P50MS),
			fmt.Sprintf("%.1f", p.P99MS),
			fmt.Sprintf("%.1f%%", p.GoodputPct),
			fmt.Sprintf("%d", p.Shed),
			fmt.Sprintf("%d", p.Expired),
			fmt.Sprintf("%d", p.QuotaRejected),
		)
	}
	quiet := steadyGoodput(points, "quiet", 0)
	if quiet > 0 {
		worst := int(tenantLoads[len(tenantLoads)-1]*100 + 0.5)
		for _, pol := range tenantPolicies() {
			g := steadyGoodput(points, pol.name, worst)
			t.Notes = append(t.Notes, fmt.Sprintf(
				"isolation@%d%%: %s keeps the steady tenants at %.1f%% goodput (quiet baseline %.1f%%, %.0f%% of it)",
				worst, pol.name, g, quiet, g/quiet*100))
		}
	}
	return t, nil
}
