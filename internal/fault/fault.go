// Package fault is the deterministic fault-injection subsystem: it
// describes failure scenarios for the simulated hardware — stick
// firmware hangs, USB link drops, transient inference errors,
// straggler slowdowns — and drives them into the device models in
// virtual time, so every failure scenario is scripted or seeded and
// bit-for-bit reproducible.
//
// The paper's co-processor platform (and every NCSDK user's lived
// experience) involves flaky USB-attached hardware: internal/ncs
// already models the mvncStatus error surface (MVNC_GONE, MVNC_BUSY),
// and this package is what finally triggers it. The device models
// expose small injection hooks (ncs.Device, usb.Port, the devsim batch
// engines); a Plan names which faults hit which devices when; Apply
// expands the plan (scripted events plus seeded-stochastic processes)
// and runs a driver process that injects each fault at its instant.
// Detection and self-healing live one layer up, in internal/core
// (RecoveryConfig on the multi-VPU target, health-aware Pool routing).
package fault

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/field"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Kind identifies a fault class.
type Kind int

const (
	// StickHang freezes a device's firmware: queued inferences are
	// accepted but never complete until the host resets the device.
	StickHang Kind = iota
	// LinkDrop severs a device's USB link: the device goes away
	// (MVNC_GONE), in-flight work is lost, and every subsequent call
	// fails until the host re-enumerates and re-opens it.
	LinkDrop
	// TransientError makes the next inference(s) on a device complete
	// with an error (a recoverable Myriad runtime fault).
	TransientError
	// Slowdown stretches a device's service time ×Factor for a window —
	// the straggler fault (thermal trouble, a flaky link retrying).
	Slowdown
	// BatchOOM makes a batch engine's next Count submissions fail with
	// an OOM-style allocator error (cudaMalloc on a fragmented GPU,
	// the MKL arena on an overcommitted host). The consuming
	// core.BatchTarget splits the failed batch — the first half runs,
	// the failed half is re-enqueued — so items are delayed, never
	// lost, and no serving-side recovery is needed.
	BatchOOM
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case StickHang:
		return "hang"
	case LinkDrop:
		return "link-drop"
	case TransientError:
		return "transient"
	case Slowdown:
		return "slowdown"
	case BatchOOM:
		return "batch-oom"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Injection hooks. The device models implement these implicitly; a
// registry entry may carry several hook objects (an NCS stick and its
// USB port, say), and a fault is delivered to every hook supporting
// its kind.
type (
	// Hanger is implemented by devices that can freeze (ncs.Device).
	Hanger interface{ InjectHang() }
	// Dropper is implemented by devices whose link can sever
	// (ncs.Device).
	Dropper interface{ InjectLinkDrop() }
	// Erratic is implemented by devices that can fail single
	// inferences (ncs.Device).
	Erratic interface{ InjectTransientErrors(n int) }
	// Slower is implemented by anything whose service can be stretched
	// (ncs.Device, usb.Port, devsim.Engine).
	Slower interface {
		InjectSlowdown(factor float64)
		ClearSlowdown()
	}
	// OOMer is implemented by batch engines whose next submissions can
	// fail allocator-style (devsim.Engine) — the BatchOOM hook.
	OOMer interface{ InjectBatchFailures(n int) }
)

// Event is one scripted fault.
type Event struct {
	// Device names the target (a registry key, e.g. "ncs0" or "cpu").
	Device string
	// Kind selects the fault class.
	Kind Kind
	// At is the virtual instant the fault fires.
	At time.Duration
	// Duration is the Slowdown window (required > 0 for Slowdown,
	// ignored otherwise).
	Duration time.Duration
	// Factor is the Slowdown service-time multiplier (required > 1 for
	// Slowdown, ignored otherwise).
	Factor float64
	// Count is how many inferences a TransientError fails, or how many
	// batch submissions a BatchOOM fails (default 1).
	Count int
}

// Process is a seeded-stochastic fault generator: faults arrive as a
// Poisson process at Rate over [Start, End), each hitting a uniformly
// drawn device with a uniformly drawn kind. Expansion happens up front
// from the plan seed, so two runs of the same plan inject the
// identical sequence.
type Process struct {
	// Devices are the candidate targets (registry keys).
	Devices []string
	// Kinds are the fault classes drawn from.
	Kinds []Kind
	// Rate is the mean fault arrival rate (faults/sec over the whole
	// device set).
	Rate float64
	// Start and End bound the active window; End > Start is required
	// (the expansion must be finite).
	Start, End time.Duration
	// Factor and Window parameterize drawn Slowdown faults
	// (defaults 4 and 2s).
	Factor float64
	// Window is the drawn Slowdown duration.
	Window time.Duration
}

// Plan is a full failure scenario: scripted events plus stochastic
// processes. The zero value is the empty plan (no faults).
type Plan struct {
	Events    []Event
	Processes []Process
}

// Empty reports whether the plan injects nothing.
func (pl Plan) Empty() bool { return len(pl.Events) == 0 && len(pl.Processes) == 0 }

// NeedsRecovery reports whether the plan can kill inferences outright
// (hang, link drop, transient error) — scenarios that need health
// monitoring on the serving side to terminate; a slowdown-only plan
// does not.
func (pl Plan) NeedsRecovery() bool {
	needs := func(k Kind) bool { return k == StickHang || k == LinkDrop || k == TransientError }
	for _, e := range pl.Events {
		if needs(e.Kind) {
			return true
		}
	}
	for _, p := range pl.Processes {
		for _, k := range p.Kinds {
			if needs(k) {
				return true
			}
		}
	}
	return false
}

// Validate checks the plan's own shape (device resolution happens in
// Apply, against the registry). Errors are field.Errors with paths
// relative to the plan ("Events[0].Factor").
func (pl Plan) Validate() error {
	for i, e := range pl.Events {
		p := fmt.Sprintf("Events[%d]", i)
		if e.Device == "" {
			return field.Errorf(p+".Device", "required")
		}
		if e.Kind < StickHang || e.Kind > BatchOOM {
			return field.Errorf(p+".Kind", "unknown fault kind %v", e.Kind)
		}
		if e.At < 0 {
			return field.Errorf(p+".At", "negative instant %v", e.At)
		}
		if e.Kind == Slowdown {
			if !finiteAbove1(e.Factor) {
				return field.Errorf(p+".Factor", "slowdown factor %g (need finite > 1)", e.Factor)
			}
			if e.Duration <= 0 {
				return field.Errorf(p+".Duration", "slowdown window %v (need > 0)", e.Duration)
			}
		}
		if e.Count < 0 {
			return field.Errorf(p+".Count", "negative count %d", e.Count)
		}
	}
	for i, pr := range pl.Processes {
		p := fmt.Sprintf("Processes[%d]", i)
		if len(pr.Devices) == 0 {
			return field.Errorf(p+".Devices", "required")
		}
		if len(pr.Kinds) == 0 {
			return field.Errorf(p+".Kinds", "required")
		}
		for j, k := range pr.Kinds {
			if k < StickHang || k > BatchOOM {
				return field.Errorf(fmt.Sprintf("%s.Kinds[%d]", p, j), "unknown fault kind %v", k)
			}
		}
		if !(pr.Rate > 0) || math.IsInf(pr.Rate, 1) {
			return field.Errorf(p+".Rate", "fault rate %g (need positive finite)", pr.Rate)
		}
		if pr.Start < 0 {
			return field.Errorf(p+".Start", "negative instant %v", pr.Start)
		}
		if pr.End <= pr.Start {
			return field.Errorf(p+".End", "window end %v at or before start %v", pr.End, pr.Start)
		}
		if pr.Factor != 0 && !finiteAbove1(pr.Factor) {
			return field.Errorf(p+".Factor", "slowdown factor %g (need 0 for the default, or finite > 1)", pr.Factor)
		}
		if pr.Window < 0 {
			return field.Errorf(p+".Window", "negative window %v", pr.Window)
		}
	}
	return nil
}

// finiteAbove1 reports whether a slowdown factor actually slows: a
// finite multiplier above 1 (NaN fails every comparison).
func finiteAbove1(f float64) bool { return f > 1 && !math.IsInf(f, 1) }

// Registry maps device names to their injection hooks. One name may
// carry several hook objects — register an NCS stick together with its
// USB port so a Slowdown degrades both the SHAVE clock and the link.
type Registry map[string][]any

// Add registers hooks under name (appending to any already present).
func (r Registry) Add(name string, hooks ...any) {
	r[name] = append(r[name], hooks...)
}

// supports reports whether any hook of the named device handles kind.
func (r Registry) supports(name string, kind Kind) bool {
	for _, h := range r[name] {
		switch kind {
		case StickHang:
			if _, ok := h.(Hanger); ok {
				return true
			}
		case LinkDrop:
			if _, ok := h.(Dropper); ok {
				return true
			}
		case TransientError:
			if _, ok := h.(Erratic); ok {
				return true
			}
		case Slowdown:
			if _, ok := h.(Slower); ok {
				return true
			}
		case BatchOOM:
			if _, ok := h.(OOMer); ok {
				return true
			}
		}
	}
	return false
}

// Injection is one applied fault — the log/trace record.
type Injection struct {
	Device string
	Kind   Kind
	At     time.Duration
	// Until is the slowdown window end (== At for point faults).
	Until time.Duration
	// Factor is the slowdown multiplier (0 for point faults).
	Factor float64
	// Count is the transient-error burst size (0 otherwise).
	Count int
}

// String renders one injection for logs.
func (in Injection) String() string {
	switch in.Kind {
	case Slowdown:
		return fmt.Sprintf("%v %s ×%g on %s until %v", in.At, in.Kind, in.Factor, in.Device, in.Until)
	case TransientError, BatchOOM:
		return fmt.Sprintf("%v %s ×%d on %s", in.At, in.Kind, in.Count, in.Device)
	}
	return fmt.Sprintf("%v %s on %s", in.At, in.Kind, in.Device)
}

// Log records every fault the driver injected, in injection order.
type Log struct {
	Injections []Injection
}

// Count returns the number of injected faults.
func (l *Log) Count() int {
	if l == nil {
		return 0
	}
	return len(l.Injections)
}

// Apply expands the plan — scripted events merged with the seeded
// expansion of every stochastic process, ordered by instant — and
// starts a driver process in env that injects each fault at its time.
// Every target must resolve in the registry with a hook supporting the
// fault's kind, so a typo'd device name fails fast instead of silently
// injecting nothing. observe (optional) sees each injection as it is
// applied — the hook timeline annotation hangs off. The returned Log
// fills in as the simulation runs.
func Apply(env *sim.Env, plan Plan, seed *rng.Source, reg Registry, observe func(Injection)) (*Log, error) {
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	if seed == nil {
		seed = rng.New(1)
	}
	events := expand(plan, seed)
	for i, e := range events {
		if _, ok := reg[e.Device]; !ok {
			return nil, fmt.Errorf("fault: event %d targets unknown device %q (registry has %d devices)",
				i, e.Device, len(reg))
		}
		if !reg.supports(e.Device, e.Kind) {
			return nil, fmt.Errorf("fault: device %q has no hook for %v faults", e.Device, e.Kind)
		}
	}
	log := &Log{}
	if len(events) == 0 {
		return log, nil
	}
	// Note: the driver keeps the simulation alive until the plan's
	// last instant (including slowdown window ends) — the scenario is
	// part of the simulated universe, so a plan extending past the
	// workload extends SimTime and the idle-power integrals with it.
	// Keep plans inside the serving window when those aggregates
	// matter.
	slowGen := map[string]int{}
	env.Process("fault-driver", func(p *sim.Proc) {
		for _, e := range events {
			if e.At > p.Now() {
				p.Sleep(e.At - p.Now())
			}
			inj := inject(p, reg, e, slowGen)
			log.Injections = append(log.Injections, inj)
			if observe != nil {
				observe(inj)
			}
		}
	})
	return log, nil
}

// expand turns the plan into a time-ordered event list: scripted
// events plus the deterministic Poisson expansion of every stochastic
// process (each process draws from its own derived sub-stream, so
// adding a process never perturbs another's sequence).
func expand(plan Plan, seed *rng.Source) []Event {
	events := append([]Event(nil), plan.Events...)
	for pi, proc := range plan.Processes {
		r := seed.Derive(fmt.Sprintf("process/%d", pi))
		t := proc.Start
		for {
			gap := -math.Log(1-r.Float64()) / proc.Rate
			t += time.Duration(gap * float64(time.Second))
			if t >= proc.End {
				break
			}
			e := Event{
				Device:   proc.Devices[r.Intn(len(proc.Devices))],
				Kind:     proc.Kinds[r.Intn(len(proc.Kinds))],
				At:       t,
				Factor:   proc.Factor,
				Duration: proc.Window,
			}
			if e.Kind == Slowdown {
				if e.Factor <= 1 {
					e.Factor = 4
				}
				if e.Duration <= 0 {
					e.Duration = 2 * time.Second
				}
			}
			events = append(events, e)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// inject delivers one fault to every supporting hook of its device.
// Slowdowns schedule their own clear at the window end; when windows
// on one device overlap, the newest injection wins (its factor
// applies and only its own end clears the device — an older window's
// clear must not cut a newer one short), tracked by a per-device
// generation counter.
func inject(p *sim.Proc, reg Registry, e Event, slowGen map[string]int) Injection {
	inj := Injection{Device: e.Device, Kind: e.Kind, At: p.Now(), Until: p.Now()}
	hooks := reg[e.Device]
	switch e.Kind {
	case StickHang:
		for _, h := range hooks {
			if hh, ok := h.(Hanger); ok {
				hh.InjectHang()
			}
		}
	case LinkDrop:
		for _, h := range hooks {
			if hh, ok := h.(Dropper); ok {
				hh.InjectLinkDrop()
			}
		}
	case TransientError:
		n := e.Count
		if n == 0 {
			n = 1
		}
		inj.Count = n
		for _, h := range hooks {
			if hh, ok := h.(Erratic); ok {
				hh.InjectTransientErrors(n)
			}
		}
	case BatchOOM:
		n := e.Count
		if n == 0 {
			n = 1
		}
		inj.Count = n
		for _, h := range hooks {
			if hh, ok := h.(OOMer); ok {
				hh.InjectBatchFailures(n)
			}
		}
	case Slowdown:
		inj.Factor = e.Factor
		inj.Until = p.Now() + e.Duration
		slowGen[e.Device]++
		gen := slowGen[e.Device]
		var slowed []Slower
		for _, h := range hooks {
			if hh, ok := h.(Slower); ok {
				hh.InjectSlowdown(e.Factor)
				slowed = append(slowed, hh)
			}
		}
		p.Env().After(e.Duration, func() {
			if slowGen[e.Device] != gen {
				return // a newer overlapping window owns the device now
			}
			for _, hh := range slowed {
				hh.ClearSlowdown()
			}
		})
	}
	return inj
}
