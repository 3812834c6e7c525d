package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/field"
	"repro/internal/graphfile"
	"repro/internal/ncs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scheduling selects how the multi-VPU dispatcher assigns items to
// devices.
type Scheduling int

const (
	// RoundRobin is the paper's static scheduling (§III): item i goes
	// to device i mod N, in order.
	RoundRobin Scheduling = iota
	// Dynamic lets idle workers steal the next item — the ablation
	// alternative to the paper's choice.
	Dynamic
)

// String names the policy.
func (s Scheduling) String() string {
	if s == Dynamic {
		return "dynamic"
	}
	return "round-robin"
}

// RecoveryConfig configures per-device health monitoring and
// self-healing on a VPUTarget. The zero value means no health
// monitoring: workers block indefinitely on results, and a device
// error (a dead link, a failed load) abandons the stick fail-stop
// while the survivors absorb the source. A hang raises no error, so
// it still needs a Timeout: without one it deadlocks the simulation,
// which panics loudly.
type RecoveryConfig struct {
	// Timeout is the completion heartbeat: the longest a worker waits
	// for a queued inference before declaring its device unhealthy. It
	// must exceed the device's worst-case service time (including any
	// slowdown window you inject) or healthy stragglers are treated as
	// hangs. 0 disables health monitoring: results are awaited
	// untimed and transient inference errors are delivered as results
	// rather than redelivered.
	Timeout time.Duration
	// Recover re-opens a failed device — reset (re-enumeration),
	// firmware re-upload, RTOS boot, graph re-allocation: the real
	// ~1.7 s cost — and redelivers its in-flight items. False is
	// fail-stop: the device is abandoned, its in-flight items are
	// dropped through OnDrop, and the surviving devices absorb the
	// source.
	Recover bool
	// MaxAttempts bounds deliveries per item (first try + redeliveries);
	// an item failing more often is dropped through OnDrop so goodput
	// accounting stays honest. 0 means DefaultRecoveryAttempts.
	MaxAttempts int
	// OnRetry observes every redelivered item (wire it to
	// Collector.NoteRetry).
	OnRetry func(item Item, at time.Duration)
	// OnDrop observes every item lost to device failure (wire it to
	// Collector.NoteDrop with DropFailed).
	OnDrop func(item Item, at time.Duration)
	// OnOutage observes every detected outage once it resolves:
	// recovered=true when the device rejoined, false when it was
	// abandoned (wire it to Collector.NoteOutage).
	OnOutage func(device string, from, to time.Duration, recovered bool)
}

// DefaultRecoveryAttempts is the redelivery budget when
// RecoveryConfig.MaxAttempts is 0.
const DefaultRecoveryAttempts = 3

// DefaultRecoveryConfig returns the standard self-healing policy: a
// 2 s completion heartbeat (far above the ~101 ms GoogLeNet service
// time, below the cost of a reboot), recovery on, three delivery
// attempts per item.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{Timeout: 2 * time.Second, Recover: true, MaxAttempts: DefaultRecoveryAttempts}
}

// enabled reports whether health monitoring (the completion
// heartbeat) is on.
func (rc RecoveryConfig) enabled() bool { return rc.Timeout > 0 }

// attempts returns the per-item delivery budget.
func (rc RecoveryConfig) attempts() int {
	if rc.MaxAttempts > 0 {
		return rc.MaxAttempts
	}
	return DefaultRecoveryAttempts
}

// HealthAware is implemented by targets that monitor their devices'
// health. Observers are called in virtual time on every transition
// with the current healthy and total device counts. Registration
// accumulates: every registered observer sees every subsequent
// transition, so a Pool (failover routing) and an AdmissionQueue
// (health-scaled depth) can subscribe to the same target. Register
// before the target starts; a run without device errors (or, with a
// Timeout, hangs) makes no transition, so observers never fire.
type HealthAware interface {
	SetHealthObserver(fn func(healthy, total int, at time.Duration))
}

// VPUOptions configures the multi-VPU target.
type VPUOptions struct {
	// Scheduling selects the dispatch policy (default RoundRobin).
	Scheduling Scheduling
	// Overlap makes each worker keep two inferences in flight per
	// stick (exploiting the NCS FIFO), hiding the USB transfer behind
	// execution. The paper's NCSw issues load/get sequentially per
	// device (Listing 1); overlap is the ablation showing what the
	// non-blocking API could buy.
	Overlap bool
	// HostOverhead is the host-side thread cost charged around each
	// LoadTensor and GetResult (thread wakeup, pixel marshalling).
	// Calibrated to the paper's multi-VPU penalty; default 250µs.
	HostOverhead time.Duration
	// Recovery configures health monitoring and self-healing. The
	// zero value means no health monitoring: a device error abandons
	// the stick fail-stop, and a hang needs a Timeout to be noticed.
	Recovery RecoveryConfig
	// Hedge configures speculative hedged requests across the sticks:
	// an item in flight (queued or executing) longer than the hedge
	// trigger is duplicated onto a different live worker, the first
	// completion wins, and the loser is withdrawn from its queue or
	// discarded on completion. The zero value disables hedging and
	// leaves runs bit-identical to pre-hedging behavior; with a single
	// device the option is inert (there is no second worker to
	// duplicate onto).
	Hedge HedgeConfig
	// Timeline receives Fig. 4 spans when set (nil records nothing).
	Timeline *trace.Timeline
}

// DefaultVPUOptions returns the paper-faithful configuration.
func DefaultVPUOptions() VPUOptions {
	return VPUOptions{
		Scheduling:   RoundRobin,
		Overlap:      false,
		HostOverhead: 250 * time.Microsecond,
	}
}

// VPUTarget is the parallel multi-VPU implementation of NCSw: a main
// process connects to every NCS device, forks one worker thread per
// device, dispatches items round-robin, and joins the workers when the
// source drains (Fig. 4). Each worker doubles as its device's health
// monitor: a dead link, a failed load or (with Recovery.Timeout) a
// completion timeout marks the device down, recovery re-opens it at
// the real firmware-boot cost and redelivers the in-flight items, and
// a device that cannot rejoin (or any device without Recover) is
// abandoned while the survivors absorb the source. The sticks only
// keep time (DESIGN.md §1).
type VPUTarget struct {
	devices []*ncs.Device
	blob    *graphfile.Handle
	opts    VPUOptions

	// Health state of the current run (downCount is reset by Start;
	// observers persist across the target's lifetime, and
	// SetHealthObserver is theirs).
	healthObservers
	downCount int
	// hedge is the hedged-request engine of the current run (nil when
	// VPUOptions.Hedge is disabled or the target has one device).
	hedge *hedger
}

// NewVPUTarget builds the target. blob is the graph file loaded onto
// every stick (ncs.Device.AllocateGraph).
func NewVPUTarget(devices []*ncs.Device, blob *graphfile.Handle, opts VPUOptions) (*VPUTarget, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: multi-VPU target needs at least one device")
	}
	if blob == nil || blob.Len() == 0 {
		return nil, fmt.Errorf("core: empty graph blob")
	}
	if opts.HostOverhead < 0 {
		return nil, fmt.Errorf("core: negative host overhead")
	}
	if opts.Recovery.Timeout < 0 {
		return nil, fmt.Errorf("core: negative recovery timeout %v", opts.Recovery.Timeout)
	}
	if opts.Recovery.MaxAttempts < 0 {
		return nil, fmt.Errorf("core: negative recovery attempt budget %d", opts.Recovery.MaxAttempts)
	}
	if err := opts.Hedge.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", field.Under("Hedge", err))
	}
	return &VPUTarget{devices: devices, blob: blob, opts: opts}, nil
}

// Name implements Target.
func (t *VPUTarget) Name() string {
	return fmt.Sprintf("vpu-multi(%d)", len(t.devices))
}

// TDPWatts implements Target: the aggregate stick TDP, the Fig. 8a
// denominator.
func (t *VPUTarget) TDPWatts() float64 {
	return power.MultiVPUTDP(len(t.devices))
}

// Devices returns the managed devices.
func (t *VPUTarget) Devices() []*ncs.Device { return t.devices }

// DeviceCount reports how many sticks the target drives — the
// capacity denominator health-aware routing and admission scale
// against.
func (t *VPUTarget) DeviceCount() int { return len(t.devices) }

// SetHedgeBudget replaces the target's hedge-volume budget from now
// on (0 = unlimited) — the operator's mid-run hedging knob (scenario
// hot-reload). The budget is consulted when a trigger fires, so only
// fires after the change see the new cap; with hedging disabled (or
// before Start) the call only updates the configuration.
func (t *VPUTarget) SetHedgeBudget(b float64) {
	t.opts.Hedge.Budget = b
	t.hedge.setBudget(b)
}

// noteDown/noteUp track device health transitions and notify the
// observers (the Pool's failover routing and health-aware admission
// hang off this).
func (t *VPUTarget) noteDown(at time.Duration) {
	t.downCount++
	t.publish(len(t.devices)-t.downCount, len(t.devices), at)
}

func (t *VPUTarget) noteUp(at time.Duration) {
	t.downCount--
	t.publish(len(t.devices)-t.downCount, len(t.devices), at)
}

// Start implements Target.
func (t *VPUTarget) Start(env *sim.Env, src Source, sink func(Result)) *Job {
	job := &Job{}
	t.downCount = 0
	env.Process("ncsw-main", func(p *sim.Proc) {
		job.StartedAt = p.Now()
		n := len(t.devices)
		tl := t.opts.Timeline

		// 1. Connect: open every device and allocate the graph (the
		// main host process is responsible for connecting to each
		// device, §III).
		graphs := make([]*ncs.Graph, n)
		for i, d := range t.devices {
			if tl.Enabled() {
				d.SetExecObserver(func(name string, start, end time.Duration) {
					tl.Add(name, trace.Exec, start, end, "")
				})
			}
			g, err := t.connect(p, d)
			if err != nil {
				job.Err = err
				job.Finish(p)
				return
			}
			graphs[i] = g
		}
		job.ReadyAt = p.Now()

		// 2. Fork one worker per device, fed by per-worker queues. A
		// worker that abandons its device (fail-stop) marks itself dead
		// and hands its queue back to the dealer for re-dispatch.
		forkStart := p.Now()
		dead := make([]bool, n)
		// Hedged requests: a timer per dispatched item duplicates it
		// onto a different live worker when it ages past the trigger;
		// the worker dedup delivers the first completion and discards
		// the loser. Disabled (or single-stick) hedging adds no timers,
		// so the event sequence is bit-identical to pre-hedging runs.
		hedge := t.opts.Hedge
		if n == 1 {
			hedge = HedgeConfig{} // no second worker to duplicate onto
		}
		// In-flight capacity: per worker, one executing item plus its
		// two queued slots — the DynamicBudget utilization denominator.
		deal := newDealer(env, "ncsw/q", n, 2, func(j int) bool { return dead[j] }, hedge, 3*n)
		t.hedge = deal.hedge
		done := sim.NewQueue[int](env, "ncsw/join", 0)
		for i := range t.devices {
			i := i
			env.Process(fmt.Sprintf("ncsw-worker%d", i), func(wp *sim.Proc) {
				t.worker(wp, t.devices[i], graphs[i], i, deal.feeds[i], sink, job, dead)
				if dead[i] {
					deal.reclaim(i)
				}
				done.Put(wp, i)
			})
		}
		tl.Add("main", trace.Fork, forkStart, p.Now(), fmt.Sprintf("%d workers", n))

		// 3. Dispatch. Round-robin pushes item k to queue k mod n;
		// dynamic pushes to whichever queue has room first. Dead
		// workers are skipped and their reclaimed items re-dispatched
		// to survivors.
		deal.place = func(p *sim.Proc, item Item, k int) (int, bool) {
			return deal.put(p, item, k%n)
		}
		if t.opts.Scheduling == Dynamic {
			deal.place = func(p *sim.Proc, item Item, k int) (int, bool) {
				return dispatchDynamic(p, deal, item, k)
			}
		}
		deal.run(p, src)

		// 4. Join workers, then close devices. Items stranded by a
		// worker that died after dispatch ended are dropped through the
		// recovery hook (or recorded as an error when nothing observes
		// drops, so the loss is never silent).
		joinStart := p.Now()
		for range t.devices {
			done.Get(p)
		}
		tl.Add("main", trace.Join, joinStart, p.Now(), "")
		if lost := deal.lost(); len(lost) > 0 {
			if t.opts.Recovery.OnDrop != nil {
				for _, it := range lost {
					t.opts.Recovery.OnDrop(it, p.Now())
				}
			} else if job.Err == nil {
				job.Err = fmt.Errorf("core: %d item(s) stranded by failed devices", len(lost))
			}
		}
		for i, d := range t.devices {
			if dead[i] {
				continue // already reset at abandonment
			}
			if err := d.Close(p); err != nil && job.Err == nil {
				job.Err = err
			}
		}
		job.Finish(p)
	})
	return job
}

// connect opens d and allocates the graph on it. A device that fails
// to connect (a link dropped before or during Open) is an outage like
// one in service: with Recover it is healed as worker's fail heals it;
// a second failure, or any failure without Recover, ends the job with
// the connect error.
func (t *VPUTarget) connect(p *sim.Proc, d *ncs.Device) (*ncs.Graph, error) {
	g, err := t.open(p, d)
	rc := t.opts.Recovery
	if err == nil || !rc.Recover {
		return g, err
	}
	from := p.Now()
	t.noteDown(from)
	g, err2 := t.heal(p, d, from, err.Error())
	if err2 != nil {
		if rc.OnOutage != nil {
			rc.OnOutage(d.Name(), from, p.Now(), false)
		}
		return nil, fmt.Errorf("%w; re-open failed: %w", err, err2)
	}
	return g, nil
}

// open boots d and allocates the graph on it. Its errors name the
// failed step and wrap the device's error.
func (t *VPUTarget) open(p *sim.Proc, d *ncs.Device) (*ncs.Graph, error) {
	if err := d.Open(p); err != nil {
		return nil, fmt.Errorf("core: open %s: %w", d.Name(), err)
	}
	g, err := d.AllocateGraph(p, t.blob, ncs.GraphOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: allocate on %s: %w", d.Name(), err)
	}
	return g, nil
}

// heal ends the outage of d that began at from by paying its real
// cost: reset (re-enumeration), firmware re-upload, RTOS boot and
// graph re-allocation. Once d is back it reports the device up,
// records the outage's Down span with note and reports the outage
// recovered; on error nothing is reported and the caller gives d up.
func (t *VPUTarget) heal(p *sim.Proc, d *ncs.Device, from time.Duration, note string) (*ncs.Graph, error) {
	d.Reset()
	g, err := t.open(p, d)
	if err != nil {
		return nil, err
	}
	t.noteUp(p.Now())
	t.opts.Timeline.Add(d.Name(), trace.Down, from, p.Now(), note)
	if on := t.opts.Recovery.OnOutage; on != nil {
		on(d.Name(), from, p.Now(), true)
	}
	return g, nil
}

// dispatchDynamic places the item on the first live queue with room,
// scanning from the item's round-robin home for fairness, blocking on
// the home queue when all are full. It reports which queue received
// the item (ok=false when no live worker is left).
func dispatchDynamic(p *sim.Proc, deal *dealer, item Item, k int) (int, bool) {
	n := len(deal.feeds)
	for off := 0; off < n; off++ {
		j := (k + off) % n
		if deal.gone(j) {
			continue
		}
		if deal.feeds[j].TryPut(item) {
			return j, true
		}
	}
	return deal.put(p, item, k%n)
}

// inflight is one dispatched-but-unfinished item on a worker.
type inflight struct {
	item     Item
	start    time.Duration
	attempts int // deliveries so far (>= 1 once loaded)
}

// worker drains its queue through one stick, sequential per Listing 1
// (or two-deep pipelined with Overlap). It is also the device's
// health monitor: a device error (a dead link, a failed load, or with
// Recovery.Timeout a completion timeout) triggers reset + re-open +
// re-allocation under Recovery.Recover, or fail-stop abandonment
// without it, and in-flight items are redelivered within the attempt
// budget.
func (t *VPUTarget) worker(p *sim.Proc, dev *ncs.Device, g *ncs.Graph, wi int, q *sim.Queue[Item], sink func(Result), job *Job, dead []bool) {
	tl := t.opts.Timeline
	rc := t.opts.Recovery
	var pending []inflight // loaded, awaiting results (in load order)
	var retry []inflight   // awaiting redelivery after a failure

	// dropItem accounts one item lost to device failure. Without an
	// OnDrop observer the loss surfaces on the job error instead —
	// like the stranded-orphans path, it is never silent. With hedging
	// armed, the hedger arbitrates first: a lost duplicate whose other
	// copy is still in flight (or already delivered) is not a loss,
	// and a real loss disarms the item's hedge timer so a recorded
	// drop cannot be resurrected into a double-counted completion.
	dropItem := func(item Item) {
		if !t.hedge.copyLost(item.Index, wi) {
			return
		}
		if rc.OnDrop != nil {
			rc.OnDrop(item, p.Now())
		} else if job.Err == nil {
			job.Err = fmt.Errorf("core: item %d lost to device failure on %s (no Recovery.OnDrop observer)",
				item.Index, dev.Name())
		}
	}

	// fail handles a device failure: requeue or drop the in-flight
	// items, then either heal the device or abandon it. It reports
	// whether the worker should keep running.
	fail := func(reason string) bool {
		from := p.Now()
		t.noteDown(from)
		victims := pending
		pending = nil
		for _, v := range victims {
			// A duplicate whose other copy already completed is neither
			// retried nor counted as a loss.
			if t.hedge.settled(v.item.Index) {
				continue
			}
			if rc.Recover && v.attempts < rc.attempts() {
				retry = append(retry, v)
				if rc.OnRetry != nil {
					rc.OnRetry(v.item, p.Now())
				}
			} else {
				dropItem(v.item)
			}
		}
		if rc.Recover {
			g2, err := t.heal(p, dev, from, reason)
			if err == nil {
				g = g2
				return true
			}
			// The note names the device's error, not open's wrapping.
			reason = fmt.Sprintf("%s; re-open failed: %v", reason, errors.Unwrap(err))
		}
		// Fail-stop: nothing left to retry on — drop the redelivery
		// queue too, kill the device model so its runtime cannot
		// deadlock the simulation, and exit; the dispatcher reclaims
		// whatever is still queued for this worker.
		for _, v := range retry {
			dropItem(v.item)
		}
		retry = nil
		dev.Reset()
		dead[wi] = true
		tl.Add(dev.Name(), trace.Down, from, p.Now(), reason+" (abandoned)")
		if rc.OnOutage != nil {
			rc.OnOutage(dev.Name(), from, p.Now(), false)
		}
		if job.Err == nil {
			job.Err = fmt.Errorf("core: device %s abandoned: %s", dev.Name(), reason)
		}
		return false
	}

	// settle retrieves and publishes the result of the oldest
	// in-flight item, failing the device on a dead link or a
	// completion timeout. It reports whether the worker should keep
	// running.
	settle := func() bool {
		fl := pending[0]
		readStart := p.Now()
		var res ncs.Result
		var err error
		if rc.enabled() {
			res, err = g.GetResultWithin(p, rc.Timeout)
		} else {
			res, err = g.GetResult(p)
		}
		if err != nil {
			return fail("completion timeout or dead link")
		}
		pending = pending[1:]
		p.Sleep(t.opts.HostOverhead)
		tl.Add(dev.Name(), trace.Read, readStart, p.Now(), "")
		if rc.enabled() && errors.Is(res.Err, ncs.ErrTransient) {
			// A failed duplicate of an item already served through its
			// other copy is dropped quietly — no retry, no loss.
			if t.hedge.settled(fl.item.Index) {
				return true
			}
			// Recoverable single-inference failure: redeliver within the
			// budget instead of surfacing a broken result.
			if fl.attempts < rc.attempts() {
				retry = append(retry, fl)
				if rc.OnRetry != nil {
					rc.OnRetry(fl.item, p.Now())
				}
			} else {
				dropItem(fl.item)
			}
			return true
		}
		r := Result{
			Index:        fl.item.Index,
			Image:        fl.item.Image,
			Label:        fl.item.Label,
			Pred:         -1,
			Start:        fl.start,
			End:          p.Now(),
			ArrivedAt:    fl.item.ArrivedAt,
			DispatchedAt: fl.start,
			Device:       dev.Name(),
			Tenant:       fl.item.Tenant,
			Err:          res.Err,
		}
		// First-completion dedup: a losing hedge duplicate is discarded
		// here, so each item reaches the sink (and Job.Images) at most
		// once.
		if t.hedge.complete(fl.item.Index, wi, p.Now()) {
			sink(r)
			job.Images++
		}
		return true
	}

	depth := 1
	if t.opts.Overlap {
		depth = 2
	}
	feedDone := false
	for {
		// Pick the next delivery: redeliveries first, then the feed;
		// once the feed closes, drain what is still in flight.
		var fl inflight
		switch {
		case len(retry) > 0:
			fl = retry[0]
			retry = retry[1:]
			if t.hedge.settled(fl.item.Index) {
				continue // the other copy won while this one waited for redelivery
			}
		case !feedDone:
			item := q.Get(p)
			if item.Index == feedSentinel {
				feedDone = true
				continue
			}
			if t.hedge.settled(item.Index) {
				continue // a duplicate whose other copy already completed
			}
			fl = inflight{item: item}
		case len(pending) > 0:
			if !settle() {
				return
			}
			continue
		default:
			return
		}

		fl.attempts++
		fl.start = p.Now()
		p.Sleep(t.opts.HostOverhead)
		loadStart := p.Now()
		pending = append(pending, fl)
		if err := g.LoadTensor(p, nil, fl.item.Index); err != nil {
			if !fail(fmt.Sprintf("load failed: %v", err)) {
				return
			}
			continue
		}
		note := ""
		if tl.Enabled() {
			note = fmt.Sprintf("img%d", fl.item.Index)
		}
		tl.Add(dev.Name(), trace.Load, loadStart, p.Now(), note)
		if len(pending) >= depth && !settle() {
			return
		}
	}
}
