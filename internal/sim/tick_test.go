package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestTickFiresAtStartThenEveryInterval covers the coalesced-callback
// ticker: first firing at start, then one per interval while fn keeps
// returning true, all on the scheduler with no goroutine.
func TestTickFiresAtStartThenEveryInterval(t *testing.T) {
	e := NewEnv()
	var at []time.Duration
	e.Tick(2*time.Millisecond, 3*time.Millisecond, func(now time.Duration) bool {
		at = append(at, now)
		return len(at) < 4
	})
	e.Run()
	want := []time.Duration{2 * time.Millisecond, 5 * time.Millisecond, 8 * time.Millisecond, 11 * time.Millisecond}
	if len(at) != len(want) {
		t.Fatalf("fired %d times, want %d", len(at), len(want))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("firing %d at %v, want %v", i, at[i], want[i])
		}
	}
	if e.Now() != 11*time.Millisecond {
		t.Errorf("clock at %v after last firing, want 11ms", e.Now())
	}
}

// TestTickInterleavesWithProcesses pins the ordering contract: a tick
// firing at the same instant as a process wakeup dispatches in (t, seq)
// order like any other event.
func TestTickInterleavesWithProcesses(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Tick(time.Millisecond, time.Millisecond, func(now time.Duration) bool {
		order = append(order, "tick")
		return now < 2*time.Millisecond
	})
	e.Process("sleeper", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		order = append(order, "proc")
	})
	e.Run()
	// The tick at 2ms was scheduled by the 1ms tick (seq after the
	// sleeper's 2ms wakeup, which was scheduled at t=0): proc first.
	want := "tick,proc,tick"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("order %q, want %q", got, want)
	}
}

// TestTickValidation locks the panics on bad arguments.
func TestTickValidation(t *testing.T) {
	e := NewEnv()
	e.now = time.Millisecond
	for name, fn := range map[string]func(){
		"non-positive interval": func() { e.Tick(2*time.Millisecond, 0, func(time.Duration) bool { return false }) },
		"start in the past":     func() { e.Tick(0, time.Millisecond, func(time.Duration) bool { return false }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Tick must panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestDeadlockPanicCountsBlockedProcesses locks the diagnostic folded
// into the deadlock panic: it reports how many processes are still
// blocked and how many of those wait on resources/queues.
func TestDeadlockPanicCountsBlockedProcesses(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, "never-fed", 0)
	r := e.NewResource("unit", 1)
	e.Process("holder", func(p *Proc) {
		r.Acquire(p) // holds forever, terminates without releasing
	})
	for i := 0; i < 2; i++ {
		e.Process("getter", func(p *Proc) {
			q.Get(p) // blocks forever
		})
	}
	e.Process("waiter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p) // blocks forever behind the leaked unit
	})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Run must panic on deadlock")
		}
		msg, ok := v.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", v)
		}
		for _, part := range []string{"3 process(es)", "3 waiting on resources/queues", "t=1ms"} {
			if !strings.Contains(msg, part) {
				t.Errorf("deadlock panic %q missing %q", msg, part)
			}
		}
	}()
	e.Run()
}

// Tick schedules fn as a coalesced repeating callback: first at
// absolute time start, then every interval for as long as fn returns
// true, with one closure and one heap slot per period. It drives
// BenchmarkKernelRelay. fn runs on the scheduler and must not block;
// it may schedule further events, including at the current instant.
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
