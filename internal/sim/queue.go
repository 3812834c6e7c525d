package sim

import (
	"fmt"
	"time"
)

// Queue is a FIFO channel between simulated processes, optionally
// bounded. It models the NCS inference FIFO (bounded: the device
// accepts a limited number of queued tensors) and result mailboxes.
//
// Storage is a growable power-of-two ring buffer, so steady-state
// Put/Get churn allocates nothing and never shifts elements; blocked
// getters and putters, parked processes and callback waiters alike,
// sit on intrusive wait lists (links embedded in Proc), so waiting
// allocates nothing and timeout removal is O(1).
type Queue[T any] struct {
	env      *Env
	name     string
	capacity int // 0 = unbounded
	// Ring buffer: n items starting at buf[head], wrapping modulo
	// len(buf) (always a power of two; empty until first use).
	buf     []T
	head, n int
	getters waitList
	putters waitList
	// peak tracks the high-water mark for reporting.
	peak int
}

// NewQueue creates a FIFO with the given capacity; capacity 0 means
// unbounded.
func NewQueue[T any](e *Env, name string, capacity int) *Queue[T] {
	if capacity < 0 {
		panic(fmt.Sprintf("sim: queue %q negative capacity", name))
	}
	return &Queue[T]{env: e, name: name, capacity: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.n }

// Capacity returns the current bound (0 = unbounded).
func (q *Queue[T]) Capacity() int { return q.capacity }

// grow doubles the ring (min 8 slots), unwrapping into FIFO order.
// Called only when the ring is completely full, so every slot is live.
func (q *Queue[T]) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf = buf
	q.head = 0
}

// pushBack appends v at the tail of the ring and updates the peak.
func (q *Queue[T]) pushBack(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	if q.n > q.peak {
		q.peak = q.n
	}
}

// popFront removes and returns the oldest item, zeroing the slot so
// the ring never pins dead values.
func (q *Queue[T]) popFront() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// SetCapacity rebounds the queue to capacity n (0 = unbounded).
// Shrinking below the current occupancy evicts nothing — the queue
// stays over-full until consumers drain it, with Put blocking and
// TryPut failing meanwhile. Growing (or unbounding) wakes blocked
// putters for the new room. This is the primitive behind health-aware
// admission: the ingress bound tracks healthy device capacity while
// queued work keeps its place.
func (q *Queue[T]) SetCapacity(n int) {
	if n < 0 {
		panic(fmt.Sprintf("sim: queue %q negative capacity", q.name))
	}
	q.capacity = n
	room := q.putters.len()
	if n > 0 {
		room = n - q.n
	}
	for i := 0; i < room; i++ {
		w := q.putters.pop()
		if w == nil {
			break
		}
		w.wake()
	}
}

// RemoveWhere removes and returns the first buffered item satisfying
// pred, waking one blocked putter for the freed slot. It is the
// cancellation primitive behind hedged requests: a speculative
// duplicate still sitting in a feed queue is withdrawn the moment the
// other copy completes, so no device time is spent serving it.
func (q *Queue[T]) RemoveWhere(pred func(T) bool) (T, bool) {
	var zero T
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		idx := (q.head + i) & mask
		if !pred(q.buf[idx]) {
			continue
		}
		v := q.buf[idx]
		// Close the gap by shifting whichever side is shorter,
		// preserving FIFO order of the survivors.
		if i < q.n-1-i {
			for j := i; j > 0; j-- {
				q.buf[(q.head+j)&mask] = q.buf[(q.head+j-1)&mask]
			}
			q.buf[q.head] = zero
			q.head = (q.head + 1) & mask
		} else {
			for j := i; j < q.n-1; j++ {
				q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
			}
			q.buf[(q.head+q.n-1)&mask] = zero
		}
		q.n--
		if w := q.putters.pop(); w != nil {
			w.wake()
		}
		return v, true
	}
	return zero, false
}

// Peak returns the high-water mark of the buffer.
func (q *Queue[T]) Peak() int { return q.peak }

// Name returns the queue name.
func (q *Queue[T]) Name() string { return q.name }

// Put appends v, blocking while the queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.capacity > 0 && q.n >= q.capacity {
		q.putters.push(p)
		p.blockUnscheduled()
	}
	q.pushBack(v)
	if g := q.getters.pop(); g != nil {
		g.wake()
	}
}

// TryPut appends v without blocking; it reports success.
func (q *Queue[T]) TryPut(v T) bool {
	if q.capacity > 0 && q.n >= q.capacity {
		return false
	}
	q.pushBack(v)
	if g := q.getters.pop(); g != nil {
		g.wake()
	}
	return true
}

// TryPutOr is Put for a callback waiter (Env.Waiter): it appends v and
// reports true, or, while the queue is full, registers w on the putter
// list behind any parked processes and reports false. The waiter's fn
// then runs when a Put would have resumed, and retries with the item
// it still holds.
func (q *Queue[T]) TryPutOr(w *Proc, v T) bool {
	if q.TryPut(v) {
		return true
	}
	w.register(&q.putters)
	return false
}

// TryGetOr is Get for a callback waiter (Env.Waiter): it removes and
// returns the oldest item, or, while the queue is empty, registers w
// on the getter list behind any parked processes and reports false.
// The waiter's fn then runs when a Get would have resumed, and
// retries.
func (q *Queue[T]) TryGetOr(w *Proc) (T, bool) {
	if q.n == 0 {
		w.register(&q.getters)
		var zero T
		return zero, false
	}
	v := q.popFront()
	if p := q.putters.pop(); p != nil {
		p.wake()
	}
	return v, true
}

// GetWithin removes and returns the oldest item like Get, but waits
// at most d of virtual time: ok=false reports that the deadline
// passed with the queue still empty. d == 0 is a non-blocking poll.
// The timeout is an ordinary scheduled event, so an item put at the
// same instant as the deadline by an earlier-scheduled process still
// wins — deterministic like everything else in the kernel.
func (q *Queue[T]) GetWithin(p *Proc, d time.Duration) (T, bool) {
	var zero T
	if d < 0 {
		panic(fmt.Sprintf("sim: queue %q GetWithin with negative wait %v", q.name, d))
	}
	deadline := p.env.now + d
	for q.n == 0 {
		if p.env.now >= deadline {
			return zero, false
		}
		// The timeout is an index-cancellable wakeup event: it fires
		// only if p is still parked on the getter list (a putter may
		// have woken p first at the same instant), and the usual case
		// — an item arrives well before the deadline — cancels it so a
		// stale timer cannot wake p spuriously or drag the clock (and
		// thus SimTime and energy integrals) past the real end of the
		// run. The whole wait allocates nothing: slot-recycled timer,
		// intrusive wait list, flag on the Proc itself.
		tm := p.env.timeoutAt(deadline, p)
		q.getters.push(p)
		p.blockUnscheduled()
		if p.timedOut {
			p.timedOut = false
			return zero, false
		}
		p.env.Cancel(tm)
		// Woken by a putter; re-check in case another consumer took
		// the item at the same instant.
	}
	v := q.popFront()
	if w := q.putters.pop(); w != nil {
		w.wake()
	}
	return v, true
}

// Get removes and returns the oldest item, blocking while empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.n == 0 {
		q.getters.push(p)
		p.blockUnscheduled()
	}
	v := q.popFront()
	if w := q.putters.pop(); w != nil {
		w.wake()
	}
	return v
}

// TryGet removes the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.popFront()
	if w := q.putters.pop(); w != nil {
		w.wake()
	}
	return v, true
}
