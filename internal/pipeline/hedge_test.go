package pipeline

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// hedgedSession builds the standard hedging scenario: four sticks
// under Poisson load with a mid-run slowdown straggler, hedging per
// hc, keeping every Result on the report when retain is set.
func hedgedSession(t *testing.T, hc core.HedgeConfig, retain bool) *Report {
	t.Helper()
	const n = 120
	plan := fault.Plan{Events: []fault.Event{
		{Device: "ncs1", Kind: fault.Slowdown, At: 5 * time.Second, Factor: 8, Duration: 4 * time.Second},
	}}
	sess, err := NewFromConfig(Config{
		Images:   n,
		Groups:   []Group{{Kind: GroupVPU, Devices: 4}},
		Arrivals: core.DelayedArrivals(core.PoissonArrivals(30), 4500*time.Millisecond),
		SLO:      500 * time.Millisecond,
		Faults:   plan,
		Recovery: core.DefaultRecoveryConfig(),
		Hedge:    hc,
		Retain:   retain,
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

// TestSessionHedgingSingleVPUGroup: a lone 4-stick group hedges
// across its own sticks — duplicates launch against the straggler,
// dedup keeps the completion count exact, and the report carries the
// accounting.
func TestSessionHedgingSingleVPUGroup(t *testing.T) {
	rep := hedgedSession(t, core.HedgeConfig{Trigger: 300 * time.Millisecond}, false)
	if rep.Images != 120 {
		t.Errorf("Images = %d, want 120 (dedup must keep the count exact)", rep.Images)
	}
	if rep.Collector.N != 120 {
		t.Errorf("collector N = %d, want 120", rep.Collector.N)
	}
	if rep.Hedged == 0 {
		t.Fatal("no hedges launched against an 8x straggler stick")
	}
	if rep.HedgeWins == 0 {
		t.Error("no hedge wins recorded")
	}
	if rep.HedgeWins+rep.HedgeWaste > 2*rep.Hedged {
		t.Errorf("accounting out of balance: %d launched, %d wins, %d waste",
			rep.Hedged, rep.HedgeWins, rep.HedgeWaste)
	}
	if got := rep.Targets[0].Hedged; got != rep.Hedged {
		t.Errorf("per-group Hedged = %d, want %d (single group carries all)", got, rep.Hedged)
	}
}

// TestSessionHedgingPoolGroups: hedging across device groups (a pool
// of two 2-stick groups) launches duplicates and keeps per-group
// attribution consistent with the aggregate.
func TestSessionHedgingPoolGroups(t *testing.T) {
	const n = 120
	plan := fault.Plan{Events: []fault.Event{
		{Device: "ncs1", Kind: fault.Slowdown, At: 5 * time.Second, Factor: 8, Duration: 4 * time.Second},
	}}
	sess, err := NewFromConfig(Config{
		Images:   n,
		Groups:   []Group{{Kind: GroupVPU, Devices: 2}, {Kind: GroupVPU, Devices: 2}},
		Routing:  core.RouteLatency,
		Arrivals: core.DelayedArrivals(core.PoissonArrivals(30), 9*time.Second),
		SLO:      500 * time.Millisecond,
		Faults:   plan,
		Recovery: core.DefaultRecoveryConfig(),
		Hedge:    core.HedgeConfig{Trigger: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collector.N != n {
		t.Errorf("collector N = %d, want %d", rep.Collector.N, n)
	}
	var perGroup int
	for _, tr := range rep.Targets {
		perGroup += tr.Hedged
	}
	if perGroup != rep.Hedged {
		t.Errorf("per-group hedges sum to %d, aggregate says %d", perGroup, rep.Hedged)
	}
}

// TestSessionHedgeNeverBitIdentical: trigger=∞ must reproduce the
// unhedged session bit for bit — the acceptance bar for the hedging
// machinery staying out of the event stream.
func TestSessionHedgeNeverBitIdentical(t *testing.T) {
	off := hedgedSession(t, core.HedgeConfig{}, true)
	inf := hedgedSession(t, core.HedgeConfig{Trigger: core.HedgeNever}, true)
	if off.String() != inf.String() {
		t.Errorf("reports differ between unhedged and trigger=∞:\n--- off ---\n%s\n--- inf ---\n%s", off, inf)
	}
	if len(off.Results) != len(inf.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(off.Results), len(inf.Results))
	}
	for i := range off.Results {
		if a, b := off.Results[i], inf.Results[i]; a != b {
			t.Fatalf("result %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestSessionHedgingDeterministic: the same hedged, faulted, seeded
// session twice — byte-identical reports.
func TestSessionHedgingDeterministic(t *testing.T) {
	a := hedgedSession(t, core.HedgeConfig{Trigger: 300 * time.Millisecond}, false)
	b := hedgedSession(t, core.HedgeConfig{Trigger: 300 * time.Millisecond}, false)
	if a.String() != b.String() {
		t.Errorf("hedged faulted session not reproducible:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if a.Hedged != b.Hedged || a.HedgeWins != b.HedgeWins || a.HedgeWaste != b.HedgeWaste {
		t.Errorf("hedge counters differ: %d/%d/%d vs %d/%d/%d",
			a.Hedged, a.HedgeWins, a.HedgeWaste, b.Hedged, b.HedgeWins, b.HedgeWaste)
	}
}

// TestSessionHedgingValidation: misconfigured hedging fails session
// construction with a descriptive error.
func TestSessionHedgingValidation(t *testing.T) {
	if _, err := NewFromConfig(Config{
		Images: 4,
		Groups: []Group{{Kind: GroupVPU, Devices: 1}},
		Hedge:  core.HedgeConfig{Trigger: time.Second},
	}); err == nil {
		t.Error("hedging a single-stick group must be rejected")
	}
	if _, err := NewFromConfig(Config{
		Images: 4,
		Groups: []Group{{Kind: GroupCPU, Batch: 8}},
		Hedge:  core.HedgeConfig{Trigger: time.Second},
	}); err == nil {
		t.Error("hedging a lone CPU group must be rejected")
	}
	if _, err := NewFromConfig(Config{
		Images:  4,
		Groups:  []Group{{Kind: GroupCPU, Batch: 8}, {Kind: GroupVPU, Devices: 2}},
		Routing: core.RouteWorkStealing,
		Hedge:   core.HedgeConfig{Trigger: time.Second},
	}); err == nil {
		t.Error("hedging under work-stealing must be rejected")
	}
}

// TestSessionAdmissionShrink: a bounded ingress wired to pool health
// shrinks during the outage (sheds more than the full-depth baseline)
// and the report records the shrink.
func TestSessionAdmissionShrink(t *testing.T) {
	run := func(shrink bool) *Report {
		const n = 150
		plan := fault.Plan{Events: []fault.Event{
			{Device: "ncs0", Kind: fault.StickHang, At: 5 * time.Second},
		}}
		sess, err := NewFromConfig(Config{
			Images:          n,
			Groups:          []Group{{Kind: GroupVPU, Devices: 2}},
			Arrivals:        core.DelayedArrivals(core.PoissonArrivals(14), 2500*time.Millisecond),
			SLO:             400 * time.Millisecond,
			AdmissionDepth:  16,
			AdmissionPolicy: core.ShedNewest,
			AdmissionShrink: shrink,
			Faults:          plan,
			// Detect fast, so the shrink binds while the baseline queue
			// still has room — the scenario the feature exists for.
			Recovery: core.RecoveryConfig{Timeout: 500 * time.Millisecond, Recover: true, MaxAttempts: 3},
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
	base := run(false)
	shrunk := run(true)
	if base.Admission.Shrinks != 0 {
		t.Errorf("baseline recorded %d shrinks without AdmissionShrink", base.Admission.Shrinks)
	}
	if shrunk.Admission.Shrinks == 0 {
		t.Error("no admission shrink recorded across a stick outage")
	}
	// The shrunk ingress turns work away at the edge instead of
	// letting it expire in the queue.
	if shrunk.Admission.Shed <= base.Admission.Shed {
		t.Errorf("shed %d with shrink vs %d without — the smaller bound must shed more",
			shrunk.Admission.Shed, base.Admission.Shed)
	}
	if shrunk.Admission.Expired > base.Admission.Expired {
		t.Errorf("expired %d with shrink vs %d without — a smaller bound must never increase in-queue expiry",
			shrunk.Admission.Expired, base.Admission.Expired)
	}
}

// TestSessionBatchOOMFault: a BatchOOM plan against the CPU group
// splits batches instead of losing items; the report counts the
// re-enqueues as retries.
func TestSessionBatchOOMFault(t *testing.T) {
	const n = 48
	plan := fault.Plan{Events: []fault.Event{
		{Device: "cpu", Kind: fault.BatchOOM, At: 0, Count: 2},
	}}
	sess, err := NewFromConfig(Config{
		Images: n,
		Groups: []Group{{Kind: GroupCPU, Batch: 8}},
		Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != n {
		t.Errorf("Images = %d, want %d (OOM must delay, never lose)", rep.Images, n)
	}
	if rep.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", rep.FaultsInjected)
	}
	if rep.Retries == 0 {
		t.Error("no retries recorded for the re-enqueued half-batches")
	}
	if rep.FaultDrops != 0 {
		t.Errorf("FaultDrops = %d, want 0", rep.FaultDrops)
	}
}
