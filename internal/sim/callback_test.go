package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// scriptOp is one step of a queue actor's script.
type scriptOp struct {
	kind string // until (sleep to instant d), get, put, within (GetWithin d), cap (SetCapacity), remove (RemoveWhere)
	v    int
	d    time.Duration
}

// scriptActor is one actor on the shared queue. A process-only actor
// (GetWithin) always runs as a process; the others run as a process
// or as a callback waiter.
type scriptActor struct {
	name string
	ops  []scriptOp
}

// runScripts runs the actors on one queue of capacity 2 until the
// horizon and returns the dispatch log: one line per completed queue
// operation, with the instant, the kernel's sequence counter and the
// actor, then the end state. callback[i] runs actor i as a callback
// waiter.
func runScripts(actors []scriptActor, callback []bool) []string {
	e := NewEnv()
	q := NewQueue[int](e, "shared", 2)
	var log []string
	note := func(who string, op scriptOp, what string) {
		log = append(log, fmt.Sprintf("t=%v seq=%d %s %s %s", e.now, e.seq, who, op.kind, what))
	}
	// apply runs a non-blocking op.
	apply := func(who string, op scriptOp) {
		switch op.kind {
		case "cap":
			q.SetCapacity(op.v)
			note(who, op, fmt.Sprint(op.v))
		case "remove":
			v, ok := q.RemoveWhere(func(x int) bool { return x == op.v })
			note(who, op, fmt.Sprint(v, ok))
		}
	}
	for i, a := range actors {
		if !callback[i] {
			e.Process(a.name, func(p *Proc) {
				for _, op := range a.ops {
					switch op.kind {
					case "until":
						p.Sleep(op.d - p.Now())
					case "get":
						note(a.name, op, fmt.Sprint(q.Get(p)))
					case "put":
						q.Put(p, op.v)
						note(a.name, op, fmt.Sprint(op.v))
					case "within":
						v, ok := q.GetWithin(p, op.d)
						note(a.name, op, fmt.Sprint(v, ok))
					default:
						apply(a.name, op)
					}
				}
			})
			continue
		}
		pc := 0
		var w *Proc
		var step func()
		step = func() {
			for ; pc < len(a.ops); pc++ {
				op := a.ops[pc]
				switch op.kind {
				case "until":
					pc++
					e.At(op.d, step)
					return
				case "get":
					v, ok := q.TryGetOr(w)
					if !ok {
						return
					}
					note(a.name, op, fmt.Sprint(v))
				case "put":
					if !q.TryPutOr(w, op.v) {
						return
					}
					note(a.name, op, fmt.Sprint(op.v))
				default:
					apply(a.name, op)
				}
			}
		}
		w = e.Waiter(a.name, step)
		e.At(e.now, step)
	}
	e.RunUntil(time.Second)
	log = append(log, fmt.Sprintf("end t=%v seq=%d events=%d blocked=%d waiting=%d queue=%d",
		e.now, e.seq, e.events, e.active+e.callbacks, e.waiting, q.Len()))
	e.Stop()
	return log
}

// TestCallbackWaiterOrder: callback waiters keep the kernel's
// (time, sequence) order. Processes and callback waiters get from and
// put to one bounded queue, alongside GetWithin timeouts that unlink a
// process from between callback waiters, a capacity growth that wakes
// several putters at once and RemoveWhere freeing a slot. For every
// choice of which actors run as callbacks, the dispatch log must equal
// the all-process run's, sequence numbers included.
func TestCallbackWaiterOrder(t *testing.T) {
	put := func(v int) scriptOp { return scriptOp{kind: "put", v: v} }
	get := scriptOp{kind: "get"}
	until := func(us int) scriptOp { return scriptOp{kind: "until", d: time.Duration(us) * time.Microsecond} }
	within := func(us int) scriptOp { return scriptOp{kind: "within", d: time.Duration(us) * time.Microsecond} }
	actors := []scriptActor{
		// Both putters block on the full queue at t=0; the capacity
		// growth at 0.5 ms wakes both, the RemoveWhere at 1 ms the head
		// one, and the gets from 2 ms on the rest.
		{"putA", []scriptOp{put(1), put(2), put(3), put(4), put(5), until(8000), put(30)}},
		{"putB", []scriptOp{until(0), put(10), put(11), until(7000), put(20), put(21), put(22)}},
		{"ctl", []scriptOp{until(500), {kind: "cap", v: 4}, until(1000), {kind: "remove", v: 3},
			until(9000), {kind: "cap", v: 0}}},
		// At 5 ms D, then the GetWithin, then C wait on the empty
		// queue; the GetWithin times out from between them at 6 ms.
		{"getD", []scriptOp{until(2000), get, get, get, until(5000), get, get}},
		{"getC", []scriptOp{until(2000), get, get, get, until(5000), get}},
		// Process-only.
		{"within", []scriptOp{until(5000), within(1000), within(0), within(5000)}},
	}
	either := len(actors) - 1 // the last actor is process-only
	want := runScripts(actors, make([]bool, len(actors)))
	joined := strings.Join(want, "\n")
	for _, part := range []string{"within 0 false", "cap 4", "remove 3 true", "within 30 true", "blocked=0 waiting=0"} {
		if !strings.Contains(joined, part) {
			t.Fatalf("the all-process run never reaches %q, so the script misses a case:\n%s", part, joined)
		}
	}
	for mask := 1; mask < 1<<either; mask++ {
		callback := make([]bool, len(actors))
		var names []string
		for i := 0; i < either; i++ {
			if callback[i] = mask&(1<<i) != 0; callback[i] {
				names = append(names, actors[i].name)
			}
		}
		if got := runScripts(actors, callback); !slices.Equal(got, want) {
			t.Errorf("callbacks %v: dispatch log\n%s\nwant the all-process log\n%s",
				names, strings.Join(got, "\n"), joined)
		}
	}
}

// TestCallbackWaiterMisuse: a process cannot register through the
// callback operations, and a waiter cannot sit on two wait lists or
// suspend.
func TestCallbackWaiterMisuse(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, "q", 1)
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("a nil fn", func() { e.Waiter("w", nil) })
	w := e.Waiter("w", func() {})
	if _, ok := q.TryGetOr(w); ok {
		t.Fatal("got an item from an empty queue")
	}
	full := NewQueue[int](e, "full", 1)
	full.TryPut(0)
	mustPanic("a second registration", func() { full.TryPutOr(w, 1) })
	mustPanic("a waiter suspending", func() { w.Suspend() })
	var p *Proc
	e.Process("p", func(pp *Proc) { p = pp })
	e.RunUntil(0)
	mustPanic("a process registering", func() { q.TryGetOr(p) })
}

// runResourceScripts runs the actors on one resource of capacity 2
// until the horizon and returns the dispatch log, like runScripts: one
// line per completed acquire, release or non-blocking try, then the
// end state. An actor's ops are until (sleep to instant d), acquire,
// hold (sleep d), release, and try (TryAcquire, released at once on
// success). callback[i] runs actor i as a callback waiter.
func runResourceScripts(actors []scriptActor, callback []bool) []string {
	e := NewEnv()
	r := e.NewResource("shared", 2)
	var log []string
	note := func(who, what string) {
		log = append(log, fmt.Sprintf("t=%v seq=%d %s %s", e.now, e.seq, who, what))
	}
	try := func(who string) {
		ok := r.TryAcquire()
		if ok {
			r.Release()
		}
		note(who, fmt.Sprint("try ", ok))
	}
	for i, a := range actors {
		if !callback[i] {
			e.Process(a.name, func(p *Proc) {
				for _, op := range a.ops {
					switch op.kind {
					case "until":
						p.Sleep(op.d - p.Now())
					case "hold":
						p.Sleep(op.d)
					case "acquire":
						r.Acquire(p)
						note(a.name, "acquire")
					case "release":
						r.Release()
						note(a.name, "release")
					case "try":
						try(a.name)
					}
				}
			})
			continue
		}
		pc := 0
		queued := false // registered by TryAcquireOr, so the next step holds the unit
		var w *Proc
		var step func()
		step = func() {
			for ; pc < len(a.ops); pc++ {
				op := a.ops[pc]
				switch op.kind {
				case "until":
					pc++
					e.At(op.d, step)
					return
				case "hold":
					pc++
					e.At(e.now+op.d, step)
					return
				case "acquire":
					if !queued && !r.TryAcquireOr(w) {
						queued = true
						return
					}
					queued = false
					note(a.name, "acquire")
				case "release":
					r.Release()
					note(a.name, "release")
				case "try":
					try(a.name)
				}
			}
		}
		w = e.Waiter(a.name, step)
		e.At(e.now, step)
	}
	e.RunUntil(time.Second)
	log = append(log, fmt.Sprintf("end t=%v seq=%d events=%d blocked=%d waiting=%d inUse=%d acquisitions=%d utilization=%v",
		e.now, e.seq, e.events, e.active+e.callbacks, e.waiting, r.InUse(), r.Acquisitions(), r.Utilization()))
	e.Stop()
	return log
}

// TestCallbackResourceOrder is TestCallbackWaiterOrder for a Resource:
// processes and callback waiters contend for one unit pair through
// Acquire and TryAcquireOr, with same-instant arrivals, hand-overs to
// a queue of mixed waiters and TryAcquire barging attempts that a
// queued waiter must refuse. For every choice of which actors run as
// callbacks, the dispatch log must equal the all-process run's,
// sequence numbers included.
func TestCallbackResourceOrder(t *testing.T) {
	until := func(us int) scriptOp { return scriptOp{kind: "until", d: time.Duration(us) * time.Microsecond} }
	hold := func(us int) scriptOp { return scriptOp{kind: "hold", d: time.Duration(us) * time.Microsecond} }
	acq := scriptOp{kind: "acquire"}
	rel := scriptOp{kind: "release"}
	try := scriptOp{kind: "try"}
	actors := []scriptActor{
		// A and B take both units at t=0; C and D queue behind them,
		// then E, and are handed the units in that order.
		{"A", []scriptOp{acq, hold(300), rel, until(1000), acq, hold(100), rel, acq, rel}},
		{"B", []scriptOp{acq, hold(500), rel, until(1000), acq, hold(400), rel}},
		{"C", []scriptOp{until(0), acq, hold(200), rel, try, until(1000), acq, hold(50), rel}},
		{"D", []scriptOp{until(0), acq, hold(700), rel, until(1300), acq, rel, until(1700), try}},
		// E's tries fail while both units are held (at 0.5 ms while a
		// waiter queues for the next one); D's try at the end, on an
		// idle resource, succeeds.
		{"E", []scriptOp{until(100), try, acq, hold(0), rel, until(1000), try, acq, hold(300), rel}},
	}
	want := runResourceScripts(actors, make([]bool, len(actors)))
	joined := strings.Join(want, "\n")
	for _, part := range []string{"try false", "try true", "blocked=0 waiting=0 inUse=0"} {
		if !strings.Contains(joined, part) {
			t.Fatalf("the all-process run never reaches %q, so the script misses a case:\n%s", part, joined)
		}
	}
	for mask := 1; mask < 1<<len(actors); mask++ {
		callback := make([]bool, len(actors))
		var names []string
		for i := range actors {
			if callback[i] = mask&(1<<i) != 0; callback[i] {
				names = append(names, actors[i].name)
			}
		}
		if got := runResourceScripts(actors, callback); !slices.Equal(got, want) {
			t.Errorf("callbacks %v: dispatch log\n%s\nwant the all-process log\n%s",
				names, strings.Join(got, "\n"), joined)
		}
	}
}
