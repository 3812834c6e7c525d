package pipeline

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Hot-reload: the session's operator-intervention surface. A running
// session exposes three knobs whose runtime state is consulted lazily
// — the SLO at result-sink and dispatch time, the hedge budget at
// trigger-fire time, the admission depth at admit time — so each can
// be swapped mid-run and takes effect strictly after the swap instant,
// with everything before it untouched. The scenario engine schedules
// these through ScheduleReload at declared sim-times to model an
// operator retuning a live fleet; tests and custom drivers may call
// the Reload* methods directly from simulation callbacks.
//
// Determinism: a reload mutates plain session state inside the
// single-threaded kernel — no RNG is consumed and no process is
// spawned — so a reload that sets a knob to its current value is
// bit-identical to never reloading.

// ReloadSLO replaces the session's serving deadline from now on:
// completions after the call are judged against the new target (the
// collectors classify at sink time), and with bounded admission the
// ingress deadline follows it — work that can no longer meet the new
// SLO is not worth a device's time, exactly as at construction.
// Per-tenant SLOs are contracts, not operator knobs, and are
// untouched; so is goodput already accounted. A negative target is an
// error; 0 disables SLO accounting for the rest of the run.
func (s *Session) ReloadSLO(target time.Duration) error {
	if target < 0 {
		return fmt.Errorf("pipeline: negative SLO %v", target)
	}
	s.cfg.SLO = target
	if s.merged != nil {
		s.merged.SetSLO(target)
	}
	for _, c := range s.perGroup {
		c.SetSLO(target)
	}
	if s.admission != nil {
		if err := s.admission.SetDeadline(target); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	return nil
}

// ReloadHedgeBudget replaces the hedge-volume budget from now on (0 =
// unlimited): triggers firing after the call are capped by the new
// budget, duplicates already launched stay counted against the old
// one. It reaches whichever engine carries the session's hedger — the
// device-group pool, or the lone multi-stick VPU target. A negative
// budget is an error.
func (s *Session) ReloadHedgeBudget(budget float64) error {
	if budget < 0 {
		return fmt.Errorf("pipeline: negative hedge budget %g", budget)
	}
	s.cfg.Hedge.Budget = budget
	if s.pool != nil {
		s.pool.SetHedgeBudget(budget)
	}
	for _, t := range s.targets {
		if vt, ok := t.(*core.VPUTarget); ok {
			vt.SetHedgeBudget(budget)
		}
	}
	return nil
}

// ReloadAdmissionDepth re-bounds the session ingress from now on:
// queued items keep their place and drain normally, new arrivals meet
// the new bound. It is an error on a session without bounded
// admission (Config.AdmissionDepth), or for a depth < 1 — admission cannot be
// turned on or off mid-run, only resized.
func (s *Session) ReloadAdmissionDepth(depth int) error {
	if s.cfg.AdmissionDepth == 0 {
		return fmt.Errorf("pipeline: admission depth reload needs a bounded ingress (AdmissionDepth > 0)")
	}
	if s.admission == nil {
		// Run not reached yet: record the new depth for construction.
		if depth < 1 {
			return fmt.Errorf("pipeline: admission queue depth %d (need >= 1)", depth)
		}
		s.cfg.AdmissionDepth = depth
		return nil
	}
	if err := s.admission.SetDepth(depth); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	s.cfg.AdmissionDepth = depth
	return nil
}

// ScheduleReload schedules fn at the virtual instant `at`, before or
// during the run — the hook the scenario engine hangs declared
// operator interventions on. fn runs inside the simulation kernel;
// errors it returns are collected and surfaced by Run's caller via
// ReloadErrs. Call before Run (scheduling after the simulation
// finished would never fire).
func (s *Session) ScheduleReload(at time.Duration, fn func(s *Session) error) {
	s.env.At(at, func() {
		if err := fn(s); err != nil {
			s.reloadErrs = append(s.reloadErrs, fmt.Errorf("reload at %v: %w", at, err))
		}
	})
}

// ReloadErrs returns the errors of scheduled reloads that failed
// during the run (nil when every reload applied cleanly).
func (s *Session) ReloadErrs() []error { return s.reloadErrs }
