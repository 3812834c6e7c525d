package core

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestAdmissionObserveHealthScalesDepth: the effective depth tracks
// healthy/total proportionally, floored at MinDepth, and restores on
// rejoin; each reduction counts one Shrink.
func TestAdmissionObserveHealthScalesDepth(t *testing.T) {
	env := sim.NewEnv()
	adm, err := NewAdmissionQueue(env, NewSliceSource(nil), AdmissionOptions{Depth: 8, MinDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := adm.EffectiveDepth(); got != 8 {
		t.Fatalf("initial effective depth %d, want 8", got)
	}
	steps := []struct {
		healthy, total, want int
	}{
		{3, 4, 6}, // ceil(8*3/4)
		{1, 4, 2}, // ceil(8/4)
		{0, 4, 2}, // floored at MinDepth
		{4, 4, 8}, // full restore on rejoin
	}
	for _, s := range steps {
		adm.ObserveHealth(s.healthy, s.total, 0)
		if got := adm.EffectiveDepth(); got != s.want {
			t.Errorf("ObserveHealth(%d/%d): effective depth %d, want %d", s.healthy, s.total, got, s.want)
		}
	}
	if got := adm.Stats().Shrinks; got != 2 {
		t.Errorf("Shrinks = %d, want 2 (6→2 and nothing below the floor)", got)
	}
	adm.ObserveHealth(3, 0, 0) // degenerate totals are ignored
	if got := adm.EffectiveDepth(); got != 8 {
		t.Errorf("effective depth %d after total=0 report, want 8", got)
	}
	env.Run()
}

// TestAdmissionShrinkShedsDuringOutage: while health is degraded the
// smaller bound sheds arrivals that the full queue would have
// admitted; queued work is never evicted.
func TestAdmissionShrinkShedsDuringOutage(t *testing.T) {
	run := func(degrade bool) AdmissionStats {
		env := sim.NewEnv()
		// 8 arrivals in one burst at t=1ms; no consumer until t=50ms.
		instants := make([]time.Duration, 8)
		for i := range instants {
			instants[i] = ms(1)
		}
		adm := admissionRig(t, env, instants, AdmissionOptions{Depth: 8})
		if degrade {
			env.At(0, func() { adm.ObserveHealth(1, 4, 0) }) // depth 8 → 2 before the burst
		}
		recs := drainAt(env, adm, ms(50), 0)
		env.Run()
		if want := adm.Stats().Admitted; len(*recs) != want {
			t.Fatalf("dispatched %d, admitted %d — queued work must drain", len(*recs), want)
		}
		return adm.Stats()
	}
	full := run(false)
	if full.Shed != 0 || full.Admitted != 8 {
		t.Fatalf("healthy baseline: admitted %d shed %d, want 8/0", full.Admitted, full.Shed)
	}
	degraded := run(true)
	if degraded.Admitted != 2 || degraded.Shed != 6 {
		t.Errorf("degraded: admitted %d shed %d, want 2/6 (depth shrunk to 2)", degraded.Admitted, degraded.Shed)
	}
}

// TestAdmissionMinDepthValidation: MinDepth must fit inside Depth.
func TestAdmissionMinDepthValidation(t *testing.T) {
	env := sim.NewEnv()
	if _, err := NewAdmissionQueue(env, NewSliceSource(nil), AdmissionOptions{Depth: 4, MinDepth: 5}); err == nil {
		t.Error("MinDepth > Depth must be rejected")
	}
	if _, err := NewAdmissionQueue(env, NewSliceSource(nil), AdmissionOptions{Depth: 4, MinDepth: -1}); err == nil {
		t.Error("negative MinDepth must be rejected")
	}
}

// EffectiveDepth returns the current health-scaled admission bound
// (== Depth until ObserveHealth reports degraded capacity).
func (a *AdmissionQueue) EffectiveDepth() int { return a.eff }
