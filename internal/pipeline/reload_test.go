package pipeline

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// reloadSession builds the common serving session the reload tests
// drive: CPU batch-8 under steady Poisson overload with a bounded
// ingress, enough virtual seconds that a mid-run swap has work on
// both sides of it.
func reloadSession(t *testing.T, slo time.Duration, depth int) *Session {
	t.Helper()
	sess, err := NewFromConfig(Config{
		Images: 240,
		Groups: []Group{{Kind: GroupCPU, Batch: 8}},
		// CPU batch-8 capacity is ≈44 img/s; 55/s keeps a queue.
		Arrivals:        core.PoissonArrivals(55),
		SLO:             slo,
		AdmissionDepth:  depth,
		AdmissionPolicy: core.ShedNewest,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestReloadNoopBitIdentical: reloading every knob to its current
// value mid-run must be bit-identical to never reloading — a reload
// consumes no randomness and spawns no process.
func TestReloadNoopBitIdentical(t *testing.T) {
	base := reloadSession(t, 400*time.Millisecond, 16)
	baseRep, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	noop := reloadSession(t, 400*time.Millisecond, 16)
	noop.ScheduleReload(1500*time.Millisecond, func(s *Session) error {
		if err := s.ReloadSLO(400 * time.Millisecond); err != nil {
			return err
		}
		return s.ReloadAdmissionDepth(16)
	})
	noopRep, err := noop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if errs := noop.ReloadErrs(); len(errs) > 0 {
		t.Fatalf("no-op reload failed: %v", errs[0])
	}
	if baseRep.String() != noopRep.String() {
		t.Errorf("no-op reload changed the report:\n--- without ---\n%s\n--- with ---\n%s",
			baseRep.String(), noopRep.String())
	}
}

// TestReloadSLOMidRun: tightening the SLO at T must leave work
// classified before T untouched (better goodput than tight-all-along)
// while judging work after T against the new target (worse goodput
// than never tightening).
func TestReloadSLOMidRun(t *testing.T) {
	const loose, tight = 600 * time.Millisecond, 120 * time.Millisecond
	run := func(slo time.Duration, reloadAt time.Duration, to time.Duration) float64 {
		sess := reloadSession(t, slo, 16)
		if reloadAt > 0 {
			sess.ScheduleReload(reloadAt, func(s *Session) error { return s.ReloadSLO(to) })
		}
		rep, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		if errs := sess.ReloadErrs(); len(errs) > 0 {
			t.Fatalf("reload failed: %v", errs[0])
		}
		return rep.Goodput
	}
	gLoose := run(loose, 0, 0)
	gTight := run(tight, 0, 0)
	gSwap := run(loose, 2*time.Second, tight)
	if !(gTight < gSwap && gSwap < gLoose) {
		t.Errorf("goodput ordering tight %.3f < swap %.3f < loose %.3f violated",
			gTight, gSwap, gLoose)
	}
}

// TestReloadAdmissionDepthMidRun: shrinking the ingress at T sheds
// more than never shrinking and less than starting shrunk.
func TestReloadAdmissionDepthMidRun(t *testing.T) {
	run := func(depth int, reloadAt time.Duration, to int) int {
		sess := reloadSession(t, 400*time.Millisecond, depth)
		if reloadAt > 0 {
			sess.ScheduleReload(reloadAt, func(s *Session) error { return s.ReloadAdmissionDepth(to) })
		}
		rep, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		if errs := sess.ReloadErrs(); len(errs) > 0 {
			t.Fatalf("reload failed: %v", errs[0])
		}
		return rep.Admission.Shed + rep.Admission.Expired
	}
	wide := run(16, 0, 0)
	narrow := run(2, 0, 0)
	swap := run(16, 2*time.Second, 2)
	if !(wide < swap && swap < narrow) {
		t.Errorf("drop ordering wide %d < swap %d < narrow %d violated", wide, swap, narrow)
	}
}

// TestReloadHedgeBudget: cutting the hedge budget to zero mid-run
// caps duplicates launched after T — the run hedges less than with
// the budget left alone, and at least as much as never hedging at
// all.
func TestReloadHedgeBudget(t *testing.T) {
	run := func(reloadAt time.Duration, to float64) int {
		sess, err := NewFromConfig(Config{
			Images:   160,
			Groups:   []Group{{Kind: GroupVPU, Devices: 4}},
			Arrivals: core.PoissonArrivals(36),
			SLO:      600 * time.Millisecond,
			Hedge:    core.HedgeConfig{Trigger: 110 * time.Millisecond, Budget: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if reloadAt > 0 {
			sess.ScheduleReload(reloadAt, func(s *Session) error { return s.ReloadHedgeBudget(to) })
		}
		rep, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		if errs := sess.ReloadErrs(); len(errs) > 0 {
			t.Fatalf("reload failed: %v", errs[0])
		}
		return rep.Hedged
	}
	full := run(0, 0)
	cut := run(2*time.Second, 0.001)
	if full == 0 {
		t.Skip("no hedges fired at full budget; nothing to compare")
	}
	if cut >= full {
		t.Errorf("hedges with mid-run budget cut %d, want < %d (uncut)", cut, full)
	}
}

// TestReloadErrors: a scheduled reload that violates a knob's
// constraints must surface through ReloadErrs, not crash the run.
func TestReloadErrors(t *testing.T) {
	sess, err := NewFromConfig(Config{Images: 40, Groups: []Group{{Kind: GroupCPU, Batch: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	sess.ScheduleReload(50*time.Millisecond, func(s *Session) error {
		return s.ReloadAdmissionDepth(4) // session has no bounded ingress
	})
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	errs := sess.ReloadErrs()
	if len(errs) != 1 {
		t.Fatalf("ReloadErrs = %v, want exactly one error", errs)
	}
	if !strings.Contains(errs[0].Error(), "bounded ingress") {
		t.Errorf("error %q does not explain the constraint", errs[0])
	}
	if !strings.Contains(errs[0].Error(), "reload at 50ms") {
		t.Errorf("error %q does not carry the reload instant", errs[0])
	}
}

// TestReloadValidation: direct knob misuse errors immediately.
func TestReloadValidation(t *testing.T) {
	sess := reloadSession(t, 400*time.Millisecond, 16)
	if err := sess.ReloadSLO(-time.Second); err == nil {
		t.Error("negative SLO accepted")
	}
	if err := sess.ReloadHedgeBudget(-0.1); err == nil {
		t.Error("negative hedge budget accepted")
	}
	if err := sess.ReloadAdmissionDepth(0); err == nil {
		t.Error("zero admission depth accepted")
	}
}
