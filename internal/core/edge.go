package core

import (
	"time"

	"repro/internal/sim"
)

// This file is the one implementation of the ingress edge's three
// jobs, shared by StreamSource, ArrivalSource, AdmissionQueue,
// TenantMux and the pool's childFeed: reading a sentinel-terminated
// item queue (itemQueue), admitting into a bounded queue under an
// overload policy (offer), and pumping an upstream source into the
// edge at arrival instants (pump).

// itemQueue is the consumer side of a sentinel-terminated item queue.
// The producer ends the stream by posting Item{Index: -1}; a consumer
// that reads it puts it back (there is always room: the read just
// freed a slot), so every consumer sharing the queue sees exhaustion,
// and consumers that poll exhaustion repeatedly keep seeing it.
//
// ArrivalSource, AdmissionQueue and childFeed embed it, so its Next,
// NextWithin and Pending are theirs (a promoted method costs one jump
// on the per-item path, where a hand-written wrapper costs a call).
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
}

// Next implements Source: it blocks until an item passes dispatch or
// the stream ends (ok=false).
func (r *itemQueue) Next(p *sim.Proc) (Item, bool) {
	for {
		item := r.q.Get(p)
		if item.Index == -1 {
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

// close posts the end-of-stream sentinel, waiting for room on a full
// bounded queue (consumers drain it), and marks it posted.
func (r *itemQueue) close(p *sim.Proc) {
	r.q.Put(p, Item{Index: -1})
	r.closed = true
}

// offer admits item into the bounded queue q under policy and reports
// whether it entered; the caller counts and drops a rejected item.
// Block waits in virtual time for room. ShedOldest evicts queue heads
// until the item fits, handing each victim to drop as DropShed at the
// eviction instant: after a health shrink (sim.Queue.SetCapacity) the queue may
// be over-full by more than one item, and a shed policy must never
// block its producer. The producer is the queue's only one, so the
// TryGet-then-TryPut sequence cannot race: both run in one
// uninterrupted process step.
func offer(p *sim.Proc, q *sim.Queue[Item], policy OverloadPolicy, item Item, drop func(Item, DropReason, time.Duration)) bool {
	switch policy {
	case Block:
		q.Put(p, item)
	case ShedOldest:
		for !q.TryPut(item) {
			old, ok := q.TryGet()
			if !ok {
				return false
			}
			drop(old, DropShed, p.Now())
		}
	default: // ShedNewest
		return q.TryPut(item)
	}
	return true
}

// pump relays src into the edge until src or gen ends: it pulls the
// next item before sleeping, so exhaustion is detected at the last
// item's arrival instant rather than one arrival later; rejects the
// reserved sentinel index, which would silently truncate the stream
// for consumers; sleeps to the instant gen gives and stamps ArrivedAt;
// then hands the item on. A nil gen hands each item on the moment it
// is pulled, unstamped (the admission pump behind an arrival source).
// what names the item in the protocol-bug panic. The caller posts the
// end of the stream when pump returns.
func pump(p *sim.Proc, src Source, gen func() (time.Duration, bool), what string, hand func(*sim.Proc, Item)) {
	for {
		item, ok := src.Next(p)
		if !ok {
			return
		}
		if item.Index == -1 {
			panic("core: " + what + " with reserved Index -1 (the end-of-stream sentinel)")
		}
		if gen != nil {
			at, more := gen()
			if !more {
				return
			}
			if at > p.Now() {
				p.Sleep(at - p.Now())
			}
			item.ArrivedAt = p.Now()
		}
		hand(p, item)
	}
}
