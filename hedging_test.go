package repro

import (
	"testing"
	"time"
)

// hedgedRun drives the facade end to end: four sticks under Poisson
// load with a mid-run straggler slowdown, hedging per hc.
func hedgedRun(t *testing.T, hc HedgeConfig) *Report {
	t.Helper()
	plan := FaultPlan{Events: []FaultEvent{
		{Device: "ncs2", Kind: Slowdown, At: 5 * time.Second, Factor: 10, Duration: 3 * time.Second},
	}}
	sess, err := NewSession(SessionConfig{
		Images:   100,
		Groups:   []DeviceGroup{{Kind: VPUGroup, Devices: 4}},
		Arrivals: DelayedArrivals(PoissonArrivals(28), 4500*time.Millisecond),
		SLO:      500 * time.Millisecond,
		Faults:   plan,
		Recovery: DefaultRecoveryConfig(),
		Hedge:    hc,
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

// TestHedgingAcceptance: the public facade arms hedging, duplicates
// launch against the straggler, every item is delivered exactly once,
// and the report carries the hedge accounting.
func TestHedgingAcceptance(t *testing.T) {
	rep := hedgedRun(t, HedgeConfig{Trigger: 300 * time.Millisecond})
	if rep.Images != 100 {
		t.Errorf("Images = %d, want 100 (first-completion dedup must hold)", rep.Images)
	}
	if rep.Hedged == 0 {
		t.Fatal("no hedges launched against a 10x straggler")
	}
	if rep.HedgeWins == 0 {
		t.Error("no hedge wins recorded")
	}
	if rep.HedgeWasteRate < 0 || rep.HedgeWasteRate > 1 {
		t.Errorf("HedgeWasteRate = %v out of [0,1]", rep.HedgeWasteRate)
	}
}

// TestHedgingTriggerInfinityIsControl: HedgeNever reproduces the
// unhedged run byte for byte — the facade-level control guarantee the
// bench experiment relies on.
func TestHedgingTriggerInfinityIsControl(t *testing.T) {
	off := hedgedRun(t, HedgeConfig{})
	inf := hedgedRun(t, HedgeConfig{Trigger: HedgeNever})
	if off.String() != inf.String() {
		t.Errorf("trigger=∞ diverges from unhedged:\n--- off ---\n%s--- inf ---\n%s", off, inf)
	}
}

// TestHedgingDeterministic: an identical hedged, faulted session
// replays byte for byte.
func TestHedgingDeterministic(t *testing.T) {
	a := hedgedRun(t, HedgeConfig{Trigger: 300 * time.Millisecond})
	b := hedgedRun(t, HedgeConfig{Trigger: 300 * time.Millisecond})
	if a.String() != b.String() {
		t.Errorf("hedged session not reproducible:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}
