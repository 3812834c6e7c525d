package core

import (
	"time"

	"repro/internal/sim"
)

// This file is the one implementation of the ingress edge's three
// jobs, shared by StreamSource, ArrivalSource, AdmissionQueue,
// TenantMux, the pool's childFeed and the pipeline's handoffReader:
// reading a sentinel-terminated item queue (itemQueue), admitting into a bounded queue under an
// overload policy (offer), and relaying an upstream source into the
// edge at arrival instants (relay).

// itemQueue is the consumer side of a sentinel-terminated item queue.
// The producer ends the stream by posting Item{Index: -1}; a consumer
// that reads it puts it back (there is always room: the read just
// freed a slot), so every consumer sharing the queue sees exhaustion,
// and consumers that poll exhaustion repeatedly keep seeing it.
//
// ArrivalSource, AdmissionQueue, childFeed and handoffReader embed
// it, so its Next, NextWithin and Pending are theirs (a promoted
// method costs one jump on the per-item path, where a hand-written
// wrapper costs a call; handoffReader replaces Pending).
// StreamSource and TenantMux hold theirs in a field: a stream is
// neither a TimedSource nor a DepthSource, and the mux reads either its
// shared FIFO queue or its fair policies' ready tokens.
type itemQueue struct {
	q *sim.Queue[Item]
	// closed is set once close has posted the end-of-stream sentinel,
	// so Pending does not count it as work.
	closed bool
	// dispatch, when set, judges each item as it leaves the queue (the
	// admission edges' lazy expiry and dispatch count): false means
	// the item was dropped, and the read goes on to the next one. It
	// returns a verdict, not a replacement item: handing an Item back
	// through the indirect call is measurably slower on the per-item
	// path.
	dispatch func(item Item, now time.Duration) bool
	// end, when set, runs each time Next or NextWithin meets the
	// end-of-stream sentinel, before putting it back: a gated pipeline
	// stage returns its boundary credit there (creditGate), ahead of
	// the wakeup the sentinel gives the next reader.
	end func()
}

// Next implements Source: it blocks until an item passes dispatch or
// the stream ends (ok=false).
func (r *itemQueue) Next(p *sim.Proc) (Item, bool) {
	for {
		item := r.q.Get(p)
		if item.Index == -1 {
			if r.end != nil {
				r.end()
			}
			r.q.TryPut(item)
			return Item{}, false
		}
		if r.dispatch == nil || r.dispatch(item, p.Now()) {
			return item, true
		}
	}
}

// NextWithin implements TimedSource: Next bounded by d of virtual
// time. ok=false with open=true is a timeout, open=false the end of
// the stream. Items dropped by dispatch spend the same budget.
func (r *itemQueue) NextWithin(p *sim.Proc, d time.Duration) (Item, bool, bool) {
	deadline := p.Now() + d
	for {
		wait := deadline - p.Now()
		if wait < 0 {
			wait = 0
		}
		item, ok := r.q.GetWithin(p, wait)
		if !ok {
			return Item{}, false, true
		}
		if item.Index == -1 {
			if r.end != nil {
				r.end()
			}
			r.q.TryPut(item)
			return Item{}, false, false
		}
		if r.dispatch == nil || r.dispatch(item, p.Now()) {
			return item, true, true
		}
	}
}

// Pending implements DepthSource: the queued items, not counting the
// end-of-stream sentinel that close posted.
func (r *itemQueue) Pending() int {
	n := r.q.Len()
	if r.closed && n > 0 {
		n--
	}
	return n
}

// poll is Next for the edge relay's callback waiter w: the next item
// that passes dispatch, read into into (ok), or w registered as a
// getter, to run again when an item is put (open), or the end of the
// stream.
func (r *itemQueue) poll(w *sim.Proc, into *Item) (ok, open bool) {
	for {
		item, ok := r.q.TryGetOr(w)
		if !ok {
			return false, true
		}
		if item.Index == -1 {
			r.q.TryPut(item)
			return false, false
		}
		if r.dispatch == nil || r.dispatch(item, w.Now()) {
			*into = item
			return true, true
		}
	}
}

// close posts the end-of-stream sentinel through rl, which waits for
// room on a full bounded queue (consumers drain it), and marks it
// posted. false means rl now waits as a putter and calls close again.
func (r *itemQueue) close(rl *relay) bool {
	if !r.q.TryPutOr(rl.w, Item{Index: -1}) {
		return false
	}
	r.closed = true
	return true
}

// offer admits item into the bounded queue q under policy and reports
// whether it entered; the caller counts and drops a rejected item.
// Block waits in virtual time for room: wait=true means the relay now
// waits as a putter, still holding the item, and calls offer again
// when woken. ShedOldest evicts queue heads until the item fits,
// handing each victim to drop as DropShed at the eviction instant:
// after a health shrink (sim.Queue.SetCapacity) the queue may be
// over-full by more than one item, and a shed policy must never block
// its producer. The relay is the queue's only producer, so the
// TryGet-then-TryPut sequence cannot race: both run in one
// uninterrupted scheduler step.
func offer(r *relay, q *sim.Queue[Item], policy OverloadPolicy, item Item, drop func(Item, DropReason, time.Duration)) (entered, wait bool) {
	switch policy {
	case Block:
		ok := q.TryPutOr(r.w, item)
		return ok, !ok
	case ShedOldest:
		for !q.TryPut(item) {
			old, ok := q.TryGet()
			if !ok {
				return false, false
			}
			drop(old, DropShed, r.env.Now())
		}
		return true, false
	default: // ShedNewest
		return q.TryPut(item), false
	}
}

// poller is a Source the edge relay can read from the scheduler,
// without a process of its own: every source of this package whose
// Next either never blocks or is an itemQueue read (DatasetSource,
// SliceSource, StreamSource, ArrivalSource, AdmissionQueue). The edge
// relays nothing else, so their constructors reject any other Source.
// poll is Next for the callback waiter w, reading the item into into
// (the relay's own, so the Item is not copied back through each
// return); ok=false with open=true means w is now registered as a
// getter and runs again when an item is put.
type poller interface {
	poll(w *sim.Proc, into *Item) (ok, open bool)
}

// relayStage is where a relay stopped: what it does when it next
// runs.
type relayStage uint8

const (
	relayPull   relayStage = iota // read the next item from src
	relayArrive                   // the item's arrival instant came: stamp it
	relayHand                     // hand the item on
	relayEnd                      // post the end of the stream
	relayDone
)

// relay is the edge's one relay, run by ArrivalSource, AdmissionQueue
// and each tenant lane. It pulls the next item before it waits, so
// exhaustion is detected at the last item's arrival instant rather
// than one arrival later; rejects the reserved sentinel index, which
// would silently truncate the stream for consumers; waits for the
// instant gen gives and stamps ArrivedAt; then hands the item on.
// With a nil gen it hands each item on the moment it is pulled,
// unstamped (the admission relay behind an arrival source). When src
// or gen ends, it posts the end of the stream.
//
// A relay only waits and hands on, so it runs on the scheduler, not
// as a process: a callback waiter polls src, an At event waits for
// each arrival instant, and a full queue registers the waiter as a
// putter. Each wait consumes the one sequence number a process's Get,
// Sleep or Put would, so every event keeps its (time, sequence) slot
// and no coroutine switch is spent.
type relay struct {
	env *sim.Env
	// w is the callback waiter that runs step.
	w *sim.Proc
	// run is step bound once, so a wait allocates nothing.
	run func()
	src poller
	gen func() (time.Duration, bool)
	// what names the item in the protocol-bug panic.
	what string
	// hand passes item on; false means it waits on a full queue as a
	// putter, and it is called again with retry set when woken.
	// end posts the end of the stream, with the same contract.
	hand func(r *relay, item *Item, retry bool) bool
	end  func(r *relay, retry bool) bool

	stage relayStage
	item  Item
	retry bool
}

// startRelay starts a relay over src in env on a callback waiter named
// name. Its first step takes the slot a new process's first resume
// would.
func startRelay(env *sim.Env, name string, src poller, gen func() (time.Duration, bool), what string,
	hand func(r *relay, item *Item, retry bool) bool, end func(r *relay, retry bool) bool) {
	r := &relay{env: env, src: src, gen: gen, what: what, hand: hand, end: end}
	r.run = r.step
	r.w = env.Waiter(name, r.run)
	env.At(env.Now(), r.run)
}

// step runs the relay until it waits or is done.
func (r *relay) step() {
	for {
		switch r.stage {
		case relayPull:
			if ok, open := r.src.poll(r.w, &r.item); !ok {
				if open {
					return // a put runs step again
				}
				r.stage = relayEnd
				continue
			}
			if r.item.Index == -1 {
				panic("core: " + r.what + " with reserved Index -1 (the end-of-stream sentinel)")
			}
			if r.gen == nil {
				r.stage = relayHand
				continue
			}
			at, more := r.gen()
			if !more {
				r.stage = relayEnd
				continue
			}
			r.stage = relayArrive
			if at > r.env.Now() {
				r.env.At(at, r.run)
				return
			}
		case relayArrive:
			r.item.ArrivedAt = r.env.Now()
			r.stage = relayHand
		case relayHand:
			if !r.hand(r, &r.item, r.retry) {
				r.retry = true
				return // a get runs step again
			}
			r.retry = false
			r.stage = relayPull
		case relayEnd:
			if !r.end(r, r.retry) {
				r.retry = true
				return
			}
			r.retry = false
			r.stage = relayDone
		default:
			return
		}
	}
}
