// Package sim is a deterministic discrete-event simulation kernel in
// the style of SimPy: model code runs as ordinary Go functions inside
// simulated processes, blocking on virtual-time primitives (Sleep,
// resource acquisition, queue operations) while a single-threaded
// scheduler advances a virtual clock.
//
// Every performance number in the reproduction comes from this kernel
// (DESIGN.md §4): the NCS devices, the USB fabric, the host threads of
// the NCSw multi-VPU scheduler and the CPU/GPU baselines are all
// processes here, so experiments are fast, deterministic and
// independent of the host machine.
//
// Concurrency model: processes are coroutines (iter.Pull), and exactly
// one runs at a time — the scheduler resumes a process and regains
// control when it parks (blocks on a primitive) or terminates, before
// dispatching the next event. Event order is a strict (time, sequence)
// lexicographic order, so simulations are reproducible bit-for-bit. A
// panic or runtime.Goexit in a process is re-raised on the caller of
// Run, and Env.Stop ends processes a run leaves parked.
//
// Model code that only waits and hands on need not be a process at
// all: callbacks (At, Tick) run on the scheduler itself, and a callback
// waiter (Env.Waiter) waits on a Queue through TryGetOr and TryPutOr,
// or on a Resource through TryAcquireOr, beside parked processes. A
// waiter is woken in the (time, sequence) slot a parked process would
// resume in, so converting a process into callbacks keeps every
// event's order and saves its coroutine switches. A process can also
// hand one multi-step wait to callbacks: it parks with Suspend, and
// the last callback schedules its resume with ResumeAt.
//
// Performance model (DESIGN.md §9): the event queue is a
// hand-specialized 4-ary min-heap over a reused backing array (no
// container/heap, no interface boxing — scheduling is allocation-free
// in steady state), timers cancel through index-based slots instead of
// per-timer heap flags, callback-only events (callback waiters'
// wakeups included) dispatch without touching the process machinery,
// and a park/resume handoff is a direct coroutine switch with no trip
// through the Go scheduler.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"time"
)

// Env is one simulation universe: a virtual clock plus an event queue.
// Create with NewEnv; not safe for concurrent use by multiple OS
// threads outside the process protocol.
type Env struct {
	now time.Duration
	seq uint64
	// The event queue is a 4-ary min-heap ordered by (t, seq), stored
	// structure-of-arrays: keys (16 bytes — four children fit in one
	// cache line during sift-down) are compared, vals (payload) move
	// alongside. Both backing arrays are reused across the run, so
	// scheduling is allocation-free in steady state.
	keys []eventKey
	vals []eventVal
	// timers holds the cancellation slots of pending cancellable
	// timers; timerFree recycles slots so arming a timer never
	// allocates in steady state.
	timers    []timerSlot
	timerFree []int32
	// active counts live (started, unterminated) processes, to detect
	// deadlock: events exhausted while processes still wait; live
	// links them, newest first, for Stop.
	active int
	live   *Proc
	// waiting counts processes parked on resources/queues, and callback
	// waiters registered on them, with no pending event (only another
	// process or callback can wake them); callbacks counts the callback
	// waiters among them. Both feed the deadlock diagnostic.
	waiting   int
	callbacks int
	// events counts dispatched events (Counts); resumes holds the
	// resume counts of retired processes by name, each folded in once
	// from its Proc's own counter, so a resume costs no map lookup.
	events  uint64
	resumes map[string]uint64
}

// NewEnv creates an empty simulation at time zero.
func NewEnv() *Env { return &Env{} }

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// eventKey is the heap-ordering half of an event: strict (t, seq)
// lexicographic order, so dispatch is deterministic.
type eventKey struct {
	t   time.Duration
	seq uint64
}

// eventVal is the payload half of an event. Exactly one of p/fn is set
// by internal schedulers: fn-only events are callbacks dispatched
// without touching the process machinery; p-only events resume a
// parked process. An event with timer != 0 is cancellable: timer-1
// indexes the Env.timers slot holding its cancellation flag, and a
// timer event carrying p is a queue-timeout wakeup (it fires only if p
// is still parked on a wait list).
type eventVal struct {
	p     *Proc
	fn    func()
	timer int32
}

// timerSlot is the cancellation state of one pending cancellable
// timer. gen guards handle reuse: a slot is freed (gen bumped) when
// its event dispatches, so a stale Cancel through an old handle is a
// no-op instead of killing an unrelated timer.
type timerSlot struct {
	gen       uint32
	cancelled bool
}

// keyLess reports the strict (t, seq) heap order as one branchless
// 128-bit unsigned compare (t is never negative): the min-child scans
// in pop run on random keys, so an ||/&& formulation would mispredict
// about half its branches — the borrow chain keeps flags out of the
// branch predictor entirely.
func keyLess(a, b eventKey) bool {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.t), uint64(b.t), borrow)
	return borrow != 0
}

// keyLessMask is keyLess returning an all-ones mask instead of a bool,
// feeding the masked selects below without a conditional move the
// compiler may or may not emit.
func keyLessMask(a, b eventKey) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.t), uint64(b.t), borrow)
	return -borrow
}

// isel returns a (mask == 0) or b (mask == all-ones), branch-free.
func isel(a, b int, mask uint64) int {
	return int(uint64(a) ^ (uint64(a)^uint64(b))&mask)
}

// ksel returns key a (mask == 0) or b (mask == all-ones), branch-free.
func ksel(a, b eventKey, mask uint64) eventKey {
	a.t = time.Duration(uint64(a.t) ^ (uint64(a.t)^uint64(b.t))&mask)
	a.seq = a.seq ^ (a.seq^b.seq)&mask
	return a
}

// push inserts an event into the 4-ary heap, sifting a hole up instead
// of swapping whole elements.
func (e *Env) push(key eventKey, val eventVal) {
	k := append(e.keys, key)
	v := append(e.vals, val)
	i := len(k) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		pk := k[parent]
		if keyLess(pk, key) {
			break
		}
		k[i], v[i] = pk, v[parent]
		i = parent
	}
	k[i], v[i] = key, val
	e.keys, e.vals = k, v
}

// pop removes and returns the minimum event, zeroing the vacated
// payload slot so the backing array never pins dead closures or
// processes. Sift-down compares only the dense key array — the four
// children of a node share a cache line.
func (e *Env) pop() (eventKey, eventVal) {
	k, v := e.keys, e.vals
	topK, topV := k[0], v[0]
	n := len(k) - 1
	lastK, lastV := k[n], v[n]
	v[n] = eventVal{}
	k, v = k[:n], v[:n]
	e.keys, e.vals = k, v
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			var m int
			var mk eventKey
			if c+3 < n {
				// Full node: tournament min of the four children with
				// masked selects — zero data-dependent branches, and the
				// two first-round compares are independent.
				s01 := keyLessMask(k[c+1], k[c])
				m0, k0 := isel(c, c+1, s01), ksel(k[c], k[c+1], s01)
				s23 := keyLessMask(k[c+3], k[c+2])
				m1, k1 := isel(c+2, c+3, s23), ksel(k[c+2], k[c+3], s23)
				s := keyLessMask(k1, k0)
				m, mk = isel(m0, m1, s), ksel(k0, k1, s)
			} else {
				m, mk = c, k[c]
				for j := c + 1; j < n; j++ {
					jk := k[j]
					if keyLess(jk, mk) {
						m, mk = j, jk
					}
				}
			}
			if keyLess(lastK, mk) {
				break
			}
			k[i], v[i] = mk, v[m]
			i = m
		}
		k[i], v[i] = lastK, lastV
	}
	return topK, topV
}

func (e *Env) schedule(at time.Duration, p *Proc, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", at, e.now))
	}
	e.seq++
	e.push(eventKey{t: at, seq: e.seq}, eventVal{p: p, fn: fn})
}

// At schedules fn to run as a callback at absolute virtual time t
// (t >= Now). Callbacks run on the scheduler and must not block.
func (e *Env) At(t time.Duration, fn func()) { e.schedule(t, nil, fn) }

// Timer is an index-based handle to a pending cancellable callback
// (TimerAt) — the allocation-free alternative to AtCancelable's
// closure. The zero value is no timer; Cancel ignores it.
type Timer uint64

// armTimer allocates a cancellation slot and returns its handle.
func (e *Env) armTimer() (int32, Timer) {
	var slot int32
	if n := len(e.timerFree); n > 0 {
		slot = e.timerFree[n-1]
		e.timerFree = e.timerFree[:n-1]
	} else {
		slot = int32(len(e.timers))
		// gen starts at 1 so a valid handle is never the zero Timer.
		e.timers = append(e.timers, timerSlot{gen: 1})
	}
	e.timers[slot].cancelled = false
	return slot, Timer(uint64(e.timers[slot].gen)<<32 | uint64(slot+1))
}

// freeTimer recycles a slot once its event has dispatched, bumping the
// generation so stale handles die.
func (e *Env) freeTimer(slot int32) {
	e.timers[slot].gen++
	e.timerFree = append(e.timerFree, slot)
}

// TimerAt schedules fn like At and returns an index-based handle for
// Cancel. Cancelling before the event fires discards it completely:
// the callback never runs and the clock never advances to t on its
// account — the primitive behind timeout timers (Queue.GetWithin)
// whose deadline usually never arrives. Unlike AtCancelable it
// allocates nothing in steady state (slots are recycled).
func (e *Env) TimerAt(t time.Duration, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
	slot, handle := e.armTimer()
	e.seq++
	e.push(eventKey{t: t, seq: e.seq}, eventVal{fn: fn, timer: slot + 1})
	return handle
}

// timeoutAt schedules an index-cancellable wakeup for p: when it fires
// with p still parked on a wait list, p is removed, marked timed out,
// and woken. It is the allocation-free engine behind Queue.GetWithin.
func (e *Env) timeoutAt(t time.Duration, p *Proc) Timer {
	slot, handle := e.armTimer()
	e.seq++
	e.push(eventKey{t: t, seq: e.seq}, eventVal{p: p, timer: slot + 1})
	return handle
}

// Cancel discards a pending timer by handle. Cancelling an already
// fired (or already cancelled) timer is a no-op, as is the zero Timer.
func (e *Env) Cancel(tm Timer) {
	slot := int32(uint64(tm)&0xffffffff) - 1
	if slot < 0 || int(slot) >= len(e.timers) {
		return
	}
	if e.timers[slot].gen == uint32(uint64(tm)>>32) {
		e.timers[slot].cancelled = true
	}
}

// AtCancelable schedules fn like At and returns a cancel function —
// a closure-based convenience over TimerAt/Cancel.
func (e *Env) AtCancelable(t time.Duration, fn func()) (cancel func()) {
	handle := e.TimerAt(t, fn)
	return func() { e.Cancel(handle) }
}

// After schedules fn to run after delay d.
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(e.now+d, nil, fn)
}

// Tick schedules fn as a coalesced repeating callback: first at
// absolute time start, then every interval for as long as fn returns
// true. The whole ticker costs one closure for its lifetime and reuses
// one heap slot per period — the allocation-free, goroutine-free way
// to run fixed-period work (health polls, samplers) that a full
// Process would pay two context switches per period for. Work paced
// by irregular instants, such as an arrival process, reschedules
// itself with At instead, and work that waits on a queue registers a
// callback waiter (Waiter). fn runs on the scheduler and must not
// block; it may schedule further events, including at the current
// instant.
func (e *Env) Tick(start, interval time.Duration, fn func(now time.Duration) bool) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick interval %v", interval))
	}
	if start < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", start, e.now))
	}
	var tick func()
	tick = func() {
		if fn(e.now) {
			e.schedule(e.now+interval, nil, tick)
		}
	}
	e.schedule(start, nil, tick)
}

// Proc is the handle a simulated process uses to interact with
// virtual time. It is only valid inside the function passed to
// Env.Process. Env.Waiter makes a Proc with no process behind it, a
// callback waiter, which only the queue's TryGetOr and TryPutOr and
// the resource's TryAcquireOr use.
type Proc struct {
	env *Env
	// yield parks the body (the coroutine side of the handoff) and
	// reports false once Stop has ended the process; resume runs the
	// body until it next parks (the scheduler side).
	yield  func(struct{}) bool
	resume func() (struct{}, bool)
	stop   func()
	name   string
	// Intrusive wait-list links: a parked process sits on exactly one
	// waitList (queue getters/putters, resource waiters) at a time, so
	// membership tests and removals are O(1) with no per-wait
	// allocation.
	next, prev *Proc
	waitq      *waitList
	// Intrusive live-list links: every started, unterminated process
	// is on Env.live, so Stop can end it and a finished process is
	// unlinked at once.
	liveNext, livePrev *Proc
	// timedOut is set by a fired queue-timeout event just before the
	// wakeup; GetWithin consumes and resets it.
	timedOut bool
	// suspended is set while the process is parked by Suspend with no
	// resume scheduled; ResumeAt clears it.
	suspended bool
	// resumes counts the scheduler's switches into this process; retire
	// folds it into Env.resumes.
	resumes uint64
	// fn is set on a callback waiter (Env.Waiter), which has no
	// coroutine: waking it schedules fn instead of a resume.
	fn func()
}

// Waiter returns a callback waiter: a Proc with no coroutine that
// Queue.TryGetOr, Queue.TryPutOr and Resource.TryAcquireOr register on
// a queue's or a resource's wait list, beside any parked processes.
// Waking it schedules fn on the scheduler at the current instant,
// consuming the one sequence number a parked process's resume would,
// so fn runs in the (time, sequence) slot the process would have
// resumed in and same-time FIFO order is unchanged; what it saves is
// the two coroutine switches. fn must not block: it usually retries
// the operation that registered the waiter, or, woken by a resource,
// goes on holding the unit it was handed.
// A waiter sits on at most one wait list at a time, and one still
// registered when Run runs out of events is a deadlock, reported like
// a parked process. It cannot wait with a timeout, and Stop, which
// ends processes, leaves it registered.
func (e *Env) Waiter(name string, fn func()) *Proc {
	if fn == nil {
		panic(fmt.Sprintf("sim: callback waiter %q with nil fn", name))
	}
	return &Proc{env: e, name: name, fn: fn}
}

// Name returns the process name (for traces and errors).
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// stopSignal is the panic value that unwinds a parked body when Stop
// ends its process; the coroutine wrapper in Process recovers it.
type stopSignal struct{}

// park returns control to the scheduler and blocks until resumed: one
// coroutine switch each way. After Stop it unwinds the body instead,
// running the body's deferred calls.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(stopSignal{})
	}
}

// Process starts a new simulated process running fn. The process
// begins at the current virtual time (after the caller yields). fn
// must interact with virtual time only through p. fn runs as a
// coroutine on a goroutine of its own; it may start goroutines and
// wait for them, but only fn's goroutine may use p.
func (e *Env) Process(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != (stopSignal{}) {
				panic(r)
			}
		}()
		p.yield = yield
		fn(p)
		e.retire(p)
	})
	e.active++
	p.liveNext = e.live
	if e.live != nil {
		e.live.livePrev = p
	}
	e.live = p
	e.schedule(e.now, p, nil)
	return p
}

// retire unlinks a terminated process from the live list and folds
// its resume count into the environment's.
func (e *Env) retire(p *Proc) {
	e.active--
	if p.resumes > 0 {
		if e.resumes == nil {
			e.resumes = make(map[string]uint64)
		}
		e.resumes[p.name] += p.resumes
		p.resumes = 0
	}
	if p.livePrev != nil {
		p.livePrev.liveNext = p.liveNext
	} else {
		e.live = p.liveNext
	}
	if p.liveNext != nil {
		p.liveNext.livePrev = p.livePrev
	}
	p.liveNext, p.livePrev = nil, nil
}

// Counts is the kernel's work so far: the cost model of a run that does
// not depend on the host, so a change that adds coroutine switches
// shows up as a number.
type Counts struct {
	// Events is the number of events dispatched: callbacks, process
	// resumes and fired queue timeouts. A cancelled timer is discarded,
	// not dispatched.
	Events uint64
	// Resumes is the number of switches into a process body (each one
	// also switches back when the body parks or ends); ByName splits it
	// by process name.
	Resumes uint64
	ByName  map[string]uint64
}

// Counts returns the events dispatched and processes resumed since
// NewEnv, live processes included.
func (e *Env) Counts() Counts {
	c := Counts{Events: e.events, ByName: make(map[string]uint64, len(e.resumes))}
	for name, n := range e.resumes {
		c.ByName[name] += n
		c.Resumes += n
	}
	for p := e.live; p != nil; p = p.liveNext {
		if p.resumes > 0 {
			c.ByName[p.name] += p.resumes
			c.Resumes += p.resumes
		}
	}
	return c
}

// Stop ends every live process: each parked body unwinds from its
// blocking call with its deferred calls run, and an unstarted one
// never runs. Call it, from outside any process, when abandoning a
// simulation that still has live processes after RunUntil, so none
// stays suspended for the life of the program; Run and RunUntil call
// it themselves when they panic. Events left for a stopped process
// are discarded when dispatched.
func (e *Env) Stop() {
	for p := e.live; p != nil; p = e.live {
		if p.waitq != nil {
			p.waitq.remove(p)
			e.waiting--
		}
		e.retire(p)
		p.stop()
	}
}

// Suspend parks the process with no pending event until a callback,
// or another process, schedules its resume with ResumeAt. It is how a
// process hands a multi-step wait to scheduler callbacks and pays one
// resume for the lot: usb.Port.Transfer suspends its caller, runs every
// hop of every chunk as callbacks and resumes the caller in the last
// hop's slot. A process still suspended when Run runs out of events is
// a deadlock, and Stop ends it like any parked process.
func (p *Proc) Suspend() {
	if p.fn != nil {
		panic(fmt.Sprintf("sim: callback waiter %q cannot suspend", p.name))
	}
	p.suspended = true
	p.park()
}

// ResumeAt schedules a suspended process to resume at absolute virtual
// time t (t >= Now), consuming the one sequence number that the
// process's own Sleep to t, issued at this instant, would. It panics
// unless the process is suspended with no resume scheduled yet.
func (p *Proc) ResumeAt(t time.Duration) {
	if !p.suspended {
		panic(fmt.Sprintf("sim: resuming %q, which is not suspended", p.name))
	}
	p.suspended = false
	p.env.schedule(t, p, nil)
}

// Sleep suspends the process for d of virtual time. d < 0 panics;
// d == 0 yields, letting same-time events run in FIFO order.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q sleeping negative duration %v", p.name, d))
	}
	p.env.schedule(p.env.now+d, p, nil)
	p.park()
}

// blockUnscheduled parks the process with no pending event; it must be
// woken via wake() by another process (resource release, queue push)
// or a queue-timeout event. The caller has already pushed p onto the
// wait list it blocks on.
func (p *Proc) blockUnscheduled() {
	p.env.waiting++
	p.park()
}

// register puts a callback waiter on w with no pending event; it is
// woken like a parked process, and its fn runs instead of a resume.
func (p *Proc) register(w *waitList) {
	if p.fn == nil || p.waitq != nil {
		panic(fmt.Sprintf("sim: %q is not a free callback waiter", p.name))
	}
	w.push(p)
	p.env.waiting++
	p.env.callbacks++
}

// wake schedules p to resume at the current time, or, for a callback
// waiter, its fn in the same slot.
func (p *Proc) wake() {
	e := p.env
	e.waiting--
	if p.fn != nil {
		e.callbacks--
		e.schedule(e.now, nil, p.fn)
		return
	}
	e.schedule(e.now, p, nil)
}

// waitList is an intrusive FIFO of parked processes: links are
// embedded in Proc, so push/pop/remove allocate nothing and removal
// from the middle (timeouts, waiter cancellation) is O(1).
type waitList struct {
	head, tail *Proc
	count      int
}

// empty reports whether no process is parked here.
func (w *waitList) empty() bool { return w.head == nil }

// len returns the number of parked processes.
func (w *waitList) len() int { return w.count }

// push appends p at the tail.
func (w *waitList) push(p *Proc) {
	p.waitq = w
	p.prev = w.tail
	p.next = nil
	if w.tail != nil {
		w.tail.next = p
	} else {
		w.head = p
	}
	w.tail = p
	w.count++
}

// pop removes and returns the head process (nil when empty).
func (w *waitList) pop() *Proc {
	p := w.head
	if p != nil {
		w.unlink(p)
	}
	return p
}

// remove unlinks p if it is parked on this list, reporting success.
func (w *waitList) remove(p *Proc) bool {
	if p.waitq != w {
		return false
	}
	w.unlink(p)
	return true
}

func (w *waitList) unlink(p *Proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		w.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		w.tail = p.prev
	}
	p.next, p.prev, p.waitq = nil, nil, nil
	w.count--
}

// Run dispatches events until none remain. It panics if live
// processes, or callback waiters, are still blocked when the queue
// drains — that is a deadlock in the model, which must fail loudly
// rather than silently truncate an experiment. A panic or
// runtime.Goexit inside a process is re-raised on Run's caller. On
// every such exit Run first calls Stop, so no process outlives it
// suspended.
func (e *Env) Run() {
	e.dispatch(math.MaxInt64)
	if e.active > 0 || e.callbacks > 0 {
		msg := fmt.Sprintf("sim: deadlock — %d process(es) still blocked at t=%v (%d waiting on resources/queues)",
			e.active+e.callbacks, e.now, e.waiting)
		e.Stop()
		panic(msg)
	}
}

// RunUntil dispatches events with timestamp <= t, then sets the clock
// to t. Processes may still be live afterwards; Stop ends them. Like
// Run, it re-raises a process's panic or runtime.Goexit after calling
// Stop.
func (e *Env) RunUntil(t time.Duration) {
	e.dispatch(t)
	if t > e.now {
		e.now = t
	}
}

// dispatch steps through the events with timestamp <= t, calling Stop
// if a process's panic or runtime.Goexit unwinds it.
func (e *Env) dispatch(t time.Duration) {
	finished := false
	defer func() {
		if !finished {
			e.Stop()
		}
	}()
	for len(e.keys) > 0 && e.keys[0].t <= t {
		e.step()
	}
	finished = true
}

// step dispatches one event. Callback-only events (the common case:
// timers, ticks, At callbacks) run inline without touching the process
// machinery; a process resume is one coroutine switch into the body
// and one back when it parks or ends.
func (e *Env) step() {
	key, val := e.pop()
	if val.timer != 0 {
		slot := val.timer - 1
		cancelled := e.timers[slot].cancelled
		e.freeTimer(slot)
		if cancelled {
			// Skipped entirely: no callback, and crucially no clock
			// advance, so a cancelled timer left at the end of a run
			// cannot inflate the simulation horizon.
			return
		}
		e.events++
		e.now = key.t
		if val.p != nil {
			// Queue-timeout wakeup: fires only if p is still parked on
			// a wait list (a putter may have woken it first at this
			// same instant; then there is nothing to do).
			if val.p.waitq != nil {
				val.p.waitq.remove(val.p)
				val.p.timedOut = true
				val.p.wake()
			}
			return
		}
		if val.fn != nil {
			val.fn()
		}
		return
	}
	e.events++
	e.now = key.t
	if val.fn != nil {
		// Fast path: a pure callback never touches the coroutine
		// machinery.
		val.fn()
		return
	}
	if val.p != nil {
		// A stopped process's coroutine has ended, so resuming it
		// returns at once (and its count, already folded, is dropped).
		val.p.resumes++
		val.p.resume()
	}
}
