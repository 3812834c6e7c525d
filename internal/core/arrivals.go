package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Arrivals describes an open-loop arrival process: the instants at
// which work becomes visible to the serving system, independent of how
// fast the devices drain it. Construct one with
// DeterministicArrivals, PoissonArrivals, BurstyArrivals or
// TraceArrivals, and feed it to NewArrivalSource (or a session's
// Config.Arrivals).
type Arrivals interface {
	fmt.Stringer
	// start returns a fresh arrival-instant generator for one run.
	// Successive calls yield non-decreasing absolute instants;
	// ok=false ends the process (only trace replay is finite). The
	// generator owns all process state, so one Arrivals value is
	// reusable across runs and produces identical instants given an
	// identically seeded source.
	start(r *rng.Source) func() (time.Duration, bool)
}

// DeterministicArrivals is a constant-rate process: one arrival every
// 1/rate seconds. It panics when rate is not positive.
func DeterministicArrivals(ratePerSec float64) Arrivals {
	mustPositiveRate(ratePerSec)
	return deterministicArrivals{rate: ratePerSec}
}

type deterministicArrivals struct{ rate float64 }

func (a deterministicArrivals) String() string {
	return fmt.Sprintf("deterministic(%.4g/s)", a.rate)
}

func (a deterministicArrivals) start(_ *rng.Source) func() (time.Duration, bool) {
	period := time.Duration(float64(time.Second) / a.rate)
	next := period
	return func() (time.Duration, bool) {
		t := next
		next += period
		return t, true
	}
}

// PoissonArrivals is a memoryless process at the given mean rate:
// exponentially distributed interarrival gaps, the standard model for
// aggregate request traffic from many independent users. It panics
// when rate is not positive.
func PoissonArrivals(ratePerSec float64) Arrivals {
	mustPositiveRate(ratePerSec)
	return poissonArrivals{rate: ratePerSec}
}

type poissonArrivals struct{ rate float64 }

func (a poissonArrivals) String() string { return fmt.Sprintf("poisson(%.4g/s)", a.rate) }

func (a poissonArrivals) start(r *rng.Source) func() (time.Duration, bool) {
	var now time.Duration
	return func() (time.Duration, bool) {
		// Inverse-CDF exponential gap; 1-U is in (0, 1] so Log never
		// sees zero.
		gap := -math.Log(1-r.Float64()) / a.rate
		now += time.Duration(gap * float64(time.Second))
		return now, true
	}
}

// BurstyArrivals is an on/off process: deterministic arrivals at
// ratePerSec for on, then silence for off, repeating — the worst-case
// pattern for bounded feed queues. It panics when rate is not
// positive, either phase is negative, or the on-phase is too short to
// contain even one arrival at the given rate (such a "burst" would
// never emit anything).
func BurstyArrivals(ratePerSec float64, on, off time.Duration) Arrivals {
	mustPositiveRate(ratePerSec)
	if on <= 0 || off < 0 {
		panic(fmt.Sprintf("core: bursty arrivals need on > 0 and off >= 0 (got %v/%v)", on, off))
	}
	if time.Duration(float64(time.Second)/ratePerSec) > on {
		panic(fmt.Sprintf("core: bursty on-phase %v holds no arrivals at %g/s (period %v)",
			on, ratePerSec, time.Duration(float64(time.Second)/ratePerSec)))
	}
	return burstyArrivals{rate: ratePerSec, on: on, off: off}
}

type burstyArrivals struct {
	rate    float64
	on, off time.Duration
}

func (a burstyArrivals) String() string {
	return fmt.Sprintf("bursty(%.4g/s, %v on / %v off)", a.rate, a.on, a.off)
}

func (a burstyArrivals) start(_ *rng.Source) func() (time.Duration, bool) {
	period := time.Duration(float64(time.Second) / a.rate)
	var cycleStart time.Duration
	next := period
	return func() (time.Duration, bool) {
		// Roll past any cycle whose on-window the candidate overshot.
		// The constructor guarantees period <= on, so the loop settles
		// on the first arrival of the next cycle after one step.
		for next-cycleStart > a.on {
			cycleStart += a.on + a.off
			next = cycleStart + period
		}
		t := next
		next += period
		return t, true
	}
}

// TraceArrivals replays explicit absolute arrival instants (a recorded
// production trace). The instants are copied and sorted; the process
// ends when the trace does, so any items remaining in the wrapped
// source never arrive. It panics on an empty trace or a negative
// instant.
func TraceArrivals(instants []time.Duration) Arrivals {
	if len(instants) == 0 {
		panic("core: empty arrival trace")
	}
	ts := append([]time.Duration(nil), instants...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	if ts[0] < 0 {
		panic(fmt.Sprintf("core: negative arrival instant %v in trace", ts[0]))
	}
	return traceArrivals{instants: ts}
}

type traceArrivals struct{ instants []time.Duration }

func (a traceArrivals) String() string { return fmt.Sprintf("trace(%d arrivals)", len(a.instants)) }

func (a traceArrivals) start(_ *rng.Source) func() (time.Duration, bool) {
	i := 0
	return func() (time.Duration, bool) {
		if i >= len(a.instants) {
			return 0, false
		}
		t := a.instants[i]
		i++
		return t, true
	}
}

// Phase is one segment of a PhasedArrivals schedule: an arrival
// process active for a window of the given length. A nil Arrivals is a
// quiet phase — the window passes with no arrivals (the overnight
// trough of a diurnal curve).
type Phase struct {
	// Arrivals is the process active during this phase (nil = silence).
	Arrivals Arrivals
	// Duration is the phase window length (> 0).
	Duration time.Duration
}

// PhasedArrivals chains arrival processes through consecutive time
// windows — the workload-shape primitive behind diurnal load curves
// and scheduled traffic ramps. Each phase restarts its process from
// the phase's window start; an instant the process places past its
// window is discarded and the next phase begins. With cycle set the
// schedule repeats from the first phase when the last window closes
// (a full cycle yielding no arrival ends the process, so a schedule
// that can never emit cannot spin forever). It panics on an empty
// schedule, a non-positive phase duration, or an all-silent schedule.
func PhasedArrivals(phases []Phase, cycle bool) Arrivals {
	if len(phases) == 0 {
		panic("core: phased arrivals need at least one phase")
	}
	active := 0
	for i, ph := range phases {
		if ph.Duration <= 0 {
			panic(fmt.Sprintf("core: phase %d duration %v (need > 0)", i, ph.Duration))
		}
		if ph.Arrivals != nil {
			active++
		}
	}
	if active == 0 {
		panic("core: phased arrivals with every phase silent")
	}
	return phasedArrivals{phases: append([]Phase(nil), phases...), cycle: cycle}
}

type phasedArrivals struct {
	phases []Phase
	cycle  bool
}

func (a phasedArrivals) String() string {
	if a.cycle {
		return fmt.Sprintf("phased(%d phases, cycling)", len(a.phases))
	}
	return fmt.Sprintf("phased(%d phases)", len(a.phases))
}

func (a phasedArrivals) start(r *rng.Source) func() (time.Duration, bool) {
	idx := -1
	var base time.Duration // window start of the current phase
	var gen func() (time.Duration, bool)
	dry := 0 // consecutive phases yielding nothing
	return func() (time.Duration, bool) {
		for {
			if gen != nil {
				if t, ok := gen(); ok && t <= a.phases[idx].Duration {
					dry = 0
					return base + t, true
				}
				// Phase over: the process ended, or placed its next
				// instant past the window. Either way the window's full
				// length elapses before the next phase starts.
				base += a.phases[idx].Duration
				gen = nil
				dry++
				if dry > len(a.phases) {
					// A full cycle passed with no arrival: the schedule
					// is dry (every phase silent or overshooting), so
					// end the process instead of spinning.
					return 0, false
				}
			}
			idx++
			if idx >= len(a.phases) {
				if !a.cycle {
					return 0, false
				}
				idx = 0
			}
			if a.phases[idx].Arrivals == nil {
				base += a.phases[idx].Duration
				continue
			}
			gen = a.phases[idx].Arrivals.start(r)
		}
	}
}

// DelayedArrivals shifts every instant of arr by delay — e.g. to
// start offered load only once a device group's one-time setup
// (firmware boot, graph allocation) is behind it, so the measured
// latency reflects steady-state serving rather than boot backlog. It
// panics on a negative delay.
func DelayedArrivals(arr Arrivals, delay time.Duration) Arrivals {
	if arr == nil {
		panic("core: delayed arrivals need a wrapped process")
	}
	if delay < 0 {
		panic(fmt.Sprintf("core: negative arrival delay %v", delay))
	}
	return delayedArrivals{inner: arr, delay: delay}
}

type delayedArrivals struct {
	inner Arrivals
	delay time.Duration
}

func (a delayedArrivals) String() string {
	return fmt.Sprintf("%v after %v", a.inner, a.delay)
}

func (a delayedArrivals) start(r *rng.Source) func() (time.Duration, bool) {
	gen := a.inner.start(r)
	return func() (time.Duration, bool) {
		t, ok := gen()
		return t + a.delay, ok
	}
}

func mustPositiveRate(rate float64) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		panic(fmt.Sprintf("core: arrival rate must be positive and finite (got %g)", rate))
	}
}

// ArrivalSource turns any source into an open-loop traffic source: a
// simulation process pulls the wrapped source and makes each item
// visible only at its arrival instant, stamping Item.ArrivedAt. Until
// then, consumers block in virtual time — so a batch target cannot
// eagerly drain a dataset whose items "exist" up front, and
// RouteWorkStealing behaves like real request traffic.
//
// The stream ends when the wrapped source is exhausted (or, for trace
// replay, when the trace ends). Multiple consumers may share one
// ArrivalSource: exhaustion is re-posted so every consumer terminates,
// exactly like StreamSource. Next blocks in virtual time until the
// next item arrives, NextWithin (TimedSource) gives up after d, and
// Pending (DepthSource) counts the items arrived but not yet consumed;
// all three are the embedded queue read's.
type ArrivalSource struct {
	itemQueue
	inner Source
}

// NewArrivalSource wraps inner with the arrival process, driving it
// from a new process in env. seed drives the stochastic processes
// (Poisson); deterministic processes ignore it. The returned source is
// ready immediately; arrivals unfold once env runs.
func NewArrivalSource(env *sim.Env, inner Source, arr Arrivals, seed *rng.Source) (*ArrivalSource, error) {
	if inner == nil {
		return nil, fmt.Errorf("core: arrival source needs a wrapped source")
	}
	if arr == nil {
		return nil, fmt.Errorf("core: arrival source needs an arrival process")
	}
	if seed == nil {
		seed = rng.New(1)
	}
	s := &ArrivalSource{itemQueue: itemQueue{q: sim.NewQueue[Item](env, "core/arrivals", 0)}, inner: inner}
	env.Process("arrivals", func(p *sim.Proc) {
		pump(p, inner, arr.start(seed), "arrival item", s.q.Put)
		s.close(p)
	})
	return s, nil
}

// Remaining implements Sized: items not yet arrived plus items
// arrived but not yet consumed, when the wrapped source can count
// them. Unsized inner sources report 0, which RouteStatic rejects as
// an empty partition — an arrival-wrapped stream cannot be split
// statically, same as the stream itself.
func (s *ArrivalSource) Remaining() int {
	if sized, ok := s.inner.(Sized); ok {
		return sized.Remaining() + s.q.Len()
	}
	return 0
}
