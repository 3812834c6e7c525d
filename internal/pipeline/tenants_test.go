package pipeline

import (
	"testing"
	"time"

	"repro/internal/core"
)

// tenantMix is a three-class tenant registry sized to roughly 70% of
// a two-stick fleet's closed-loop capacity (~9.9 img/s per stick).
func tenantMix() core.TenantMuxOptions {
	capacity := 9.9 * 2
	return core.TenantMuxOptions{
		Policy: core.TenantFair,
		Lanes: []core.TenantLane{
			{ID: "gold", Weight: 3, Arrivals: core.PoissonArrivals(0.3 * capacity)},
			{ID: "silver", Weight: 1, Arrivals: core.PoissonArrivals(0.2 * capacity)},
			{ID: "batch", Weight: 1,
				Arrivals: core.BurstyArrivals(0.4*capacity, time.Second, time.Second)},
		},
	}
}

// TestTenantSessionRuns: a tenanted session tags every delivered
// result with its tenant, reports one per-tenant section per declared
// class in registration order, and conserves items between scheduler
// counters and collector totals.
func TestTenantSessionRuns(t *testing.T) {
	const images = 60
	sess, err := NewFromConfig(Config{
		Dataset: smallDataset(images),
		Groups:  []Group{{Kind: GroupVPU, Devices: 2}},
		SLO:     time.Second,
		Tenants: tenantMix(),
		Retain:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{rep.Tenants[0].ID, rep.Tenants[1].ID, rep.Tenants[2].ID}; len(rep.Tenants) != 3 ||
		got[0] != "gold" || got[1] != "silver" || got[2] != "batch" {
		t.Fatalf("tenant sections %v, want [gold silver batch]", got)
	}
	if rep.TenantScheduler != core.TenantFair.String() {
		t.Errorf("scheduler reported as %q, want %q", rep.TenantScheduler, core.TenantFair)
	}
	completed := 0
	for _, tr := range rep.Tenants {
		if tr.Arrived != tr.Stats.Admitted+tr.Shed+tr.QuotaRejected {
			t.Errorf("tenant %s accounting leak: arrived %d != admitted %d + shed %d + quota %d",
				tr.ID, tr.Arrived, tr.Stats.Admitted, tr.Shed, tr.QuotaRejected)
		}
		completed += tr.Completed
	}
	if completed != rep.Images {
		t.Errorf("per-tenant completions sum to %d, report counts %d images", completed, rep.Images)
	}
	known := map[string]bool{"gold": true, "silver": true, "batch": true}
	for _, r := range rep.Results {
		if !known[r.Tenant] {
			t.Fatalf("result %d delivered with unknown tenant %q", r.Index, r.Tenant)
		}
	}
}

// TestTenantSessionDeterminism: the tenanted session repeats bit for
// bit — same rendered report, same simulated time — across reruns.
func TestTenantSessionDeterminism(t *testing.T) {
	run := func() *Report {
		t.Helper()
		sess, err := NewFromConfig(Config{
			Dataset: smallDataset(48),
			Groups:  []Group{{Kind: GroupVPU, Devices: 2}},
			Seed:    7,
			SLO:     time.Second,
			Tenants: tenantMix(),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.String() != b.String() || a.SimTime != b.SimTime {
		t.Errorf("tenanted session not deterministic:\n--- first\n%s--- second\n%s", a.String(), b.String())
	}
}

// TestTenantEmptyConfigBitIdentical locks the zero-cost contract: a
// session handed a tenant config that declares no lanes (here a fair
// scheduler with a shared depth) builds the exact untenanted path — same rendered report, same simulated
// time as a session that never set Config.Tenants.
func TestTenantEmptyConfigBitIdentical(t *testing.T) {
	run := func(tc core.TenantMuxOptions) *Report {
		t.Helper()
		sess, err := NewFromConfig(Config{
			Dataset: smallDataset(32),
			Groups:  []Group{{Kind: GroupVPU, Devices: 2}},
			Seed:    3,
			Tenants: tc,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(core.TenantMuxOptions{})
	empty := run(core.TenantMuxOptions{Policy: core.TenantFair, SharedDepth: 8})
	if plain.String() != empty.String() {
		t.Errorf("empty tenant config diverged from untenanted session:\n--- plain\n%s--- empty\n%s",
			plain.String(), empty.String())
	}
	if plain.SimTime != empty.SimTime {
		t.Errorf("empty tenant config simulated %v, untenanted %v", empty.SimTime, plain.SimTime)
	}
	if len(empty.Tenants) != 0 || empty.TenantScheduler != "" {
		t.Errorf("empty tenant config still reported tenancy: %d tenants, scheduler %q",
			len(empty.Tenants), empty.TenantScheduler)
	}
}

// TestTenantOptionConflicts: tenancy owns the ingress — combining it
// with the single-tenant ingress fields is a construction error.
func TestTenantOptionConflicts(t *testing.T) {
	mix := tenantMix()
	bad := []struct {
		name string
		cfg  Config
	}{
		{"arrivals", Config{Tenants: mix, Arrivals: core.PoissonArrivals(5)}},
		{"admission", Config{Tenants: mix, AdmissionDepth: 8, AdmissionPolicy: core.ShedNewest}},
		{"invalid config", Config{Tenants: core.TenantMuxOptions{Lanes: []core.TenantLane{{ID: ""}}}}},
	}
	for _, tc := range bad {
		tc.cfg.Dataset = smallDataset(8)
		tc.cfg.Groups = []Group{{Kind: GroupVPU, Devices: 1}}
		if _, err := NewFromConfig(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
