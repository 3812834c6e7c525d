package sim

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Processes are coroutines owned by their Env: these tests pin how
// they end — normally, by Stop, by a deadlock, a panic or a Goexit —
// and that none of those paths leaves a suspended goroutine behind.
// Goroutine counts are checked against a baseline taken first: the
// count may fall below it (an earlier test's goroutine finishing its
// exit) but must not rise.

// parkAll starts n processes of each blocking kind (sleeping, waiting
// on a queue, waiting on a resource), each counting its deferred
// unwind in *unwound.
func parkAll(e *Env, n int, unwound *int) {
	q := NewQueue[int](e, "q", 0)
	r := e.NewResource("r", 1)
	e.Process("holder", func(p *Proc) {
		defer func() { *unwound++ }()
		r.Acquire(p)
		p.Sleep(time.Hour)
	})
	for i := 0; i < n; i++ {
		e.Process("sleeper", func(p *Proc) {
			defer func() { *unwound++ }()
			p.Sleep(time.Hour)
		})
		e.Process("getter", func(p *Proc) {
			defer func() { *unwound++ }()
			q.Get(p)
		})
		e.Process("waiter", func(p *Proc) {
			defer func() { *unwound++ }()
			r.Acquire(p)
		})
	}
}

func TestStopEndsParkedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	unwound := 0
	parkAll(e, 100, &unwound)
	e.RunUntil(time.Second)
	ranLate := false
	e.Process("unstarted", func(p *Proc) { ranLate = true })
	e.Stop()
	if unwound != 301 {
		t.Errorf("%d deferred unwinds ran, want 301", unwound)
	}
	if ranLate {
		t.Error("a process started after RunUntil ran during Stop")
	}
	if e.active != 0 || e.waiting != 0 || e.live != nil {
		t.Errorf("after Stop: active=%d waiting=%d live=%v, want 0 0 nil", e.active, e.waiting, e.live)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Stop, want at most the baseline %d", n, base)
	}
	// The stopped sleepers' wakeups are still queued; dispatching them
	// must neither resume a body nor report a deadlock.
	e.Run()
	if e.Now() != time.Hour {
		t.Errorf("clock after draining = %v, want 1h", e.Now())
	}
	e.Stop() // nothing live: a no-op
}

func TestFinishedProcessLeavesLiveList(t *testing.T) {
	e := NewEnv()
	for i := 0; i < 3; i++ {
		e.Process("short", func(p *Proc) { p.Sleep(time.Duration(i) * ms) })
	}
	e.RunUntil(ms)
	if e.active != 1 || e.live == nil || e.live.liveNext != nil {
		t.Fatalf("after 1ms: active=%d, want exactly the 2ms process live", e.active)
	}
	e.Run()
	if e.live != nil || e.active != 0 {
		t.Errorf("after Run: live=%v active=%d", e.live, e.active)
	}
}

func TestDeadlockPanicStopsProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	unwound := 0
	parkAll(e, 10, &unwound)
	func() {
		defer func() {
			msg, _ := recover().(string)
			for _, part := range []string{"sim: deadlock — 20 process(es) still blocked at t=1h0m0s", "(20 waiting on resources/queues)"} {
				if !strings.Contains(msg, part) {
					t.Errorf("deadlock panic %q missing %q", msg, part)
				}
			}
		}()
		e.Run()
	}()
	if unwound != 31 {
		t.Errorf("%d deferred unwinds ran, want 31", unwound)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the deadlock panic, want at most the baseline %d", n, base)
	}
}

// boom is a panic value with identity, so the test can tell it is the
// process's own value that reaches Run's caller.
type boom struct{ at time.Duration }

func TestProcessPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	unwound := 0
	parkAll(e, 5, &unwound)
	e.Process("faulty", func(p *Proc) {
		p.Sleep(5 * ms)
		panic(boom{p.Now()})
	})
	func() {
		defer func() {
			if v := recover(); v != (boom{5 * ms}) {
				t.Errorf("Run panicked with %v, want boom{5ms}", v)
			}
		}()
		e.Run()
		t.Error("Run returned after a process panicked")
	}()
	if unwound != 16 {
		t.Errorf("%d deferred unwinds ran, want 16", unwound)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the panic, want at most the baseline %d", n, base)
	}
}

func TestProcessPanicReachesRunUntilCaller(t *testing.T) {
	e := NewEnv()
	e.Process("faulty", func(p *Proc) {
		p.Sleep(ms)
		panic("late")
	})
	defer func() {
		if v := recover(); v != "late" {
			t.Errorf("RunUntil panicked with %v, want \"late\"", v)
		}
		if e.live != nil {
			t.Error("a process is still live after RunUntil panicked")
		}
	}()
	e.RunUntil(time.Second)
}

// runtime.Goexit in a process — what t.Fatal does — ends the goroutine
// that called Run instead of hanging the scheduler.
func TestGoexitInProcessEndsCaller(t *testing.T) {
	e := NewEnv()
	unwound := 0
	parkAll(e, 5, &unwound)
	e.Process("fatal", func(p *Proc) {
		p.Sleep(ms)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned normally after a process called runtime.Goexit")
	}
	if unwound != 16 {
		t.Errorf("%d deferred unwinds ran, want 16", unwound)
	}
	if e.live != nil {
		t.Error("a process is still live after the Goexit")
	}
}

// A process may fan work out to goroutines and wait for them, as
// nn.Graph.Forward's batch workers do: the body blocks as an ordinary
// goroutine while the scheduler waits for it to park.
func TestProcessWaitsForItsGoroutines(t *testing.T) {
	const rounds, workers = 20, 4
	e := NewEnv()
	var sums []int
	var stamps []time.Duration
	e.Process("fanout", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			part := make([]int, workers)
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func() {
					defer wg.Done()
					for i := 0; i <= r*100; i++ {
						part[w] += i % (w + 2)
					}
				}()
			}
			wg.Wait()
			total := 0
			for _, v := range part {
				total += v
			}
			sums = append(sums, total)
			p.Sleep(ms)
		}
	})
	e.Process("ticker", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			stamps = append(stamps, p.Now())
			p.Sleep(ms)
		}
	})
	e.Run()
	for r, got := range sums {
		want := 0
		for w := 0; w < workers; w++ {
			for i := 0; i <= r*100; i++ {
				want += i % (w + 2)
			}
		}
		if got != want {
			t.Fatalf("round %d: sum %d, want %d", r, got, want)
		}
	}
	if len(sums) != rounds || len(stamps) != rounds || e.Now() != rounds*ms {
		t.Errorf("%d rounds, %d stamps, end at %v; want %d, %d, %v", len(sums), len(stamps), e.Now(), rounds, rounds, rounds*ms)
	}
}
