package sim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

const ms = time.Millisecond

func TestClockAdvancesWithSleep(t *testing.T) {
	e := NewEnv()
	var stamps []time.Duration
	e.Process("p", func(p *Proc) {
		stamps = append(stamps, p.Now())
		p.Sleep(10 * ms)
		stamps = append(stamps, p.Now())
		p.Sleep(5 * ms)
		stamps = append(stamps, p.Now())
	})
	e.Run()
	want := []time.Duration{0, 10 * ms, 15 * ms}
	for i, w := range want {
		if stamps[i] != w {
			t.Errorf("stamp[%d] = %v, want %v", i, stamps[i], w)
		}
	}
	if e.Now() != 15*ms {
		t.Errorf("final time = %v", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEnv()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Process(name, func(p *Proc) {
			p.Sleep(ms)
			order = append(order, name)
		})
	}
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("order = %v, want FIFO by creation", order)
	}
}

func TestCallbacksAt(t *testing.T) {
	e := NewEnv()
	var at time.Duration
	e.At(7*ms, func() { at = e.Now() })
	e.After(3*ms, func() {
		if e.Now() != 3*ms {
			t.Errorf("After fired at %v", e.Now())
		}
	})
	e.Run()
	if at != 7*ms {
		t.Errorf("At fired at %v", at)
	}
}

func TestSchedulingIntoThePastPanics(t *testing.T) {
	e := NewEnv()
	e.After(5*ms, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		e.At(ms, func() {})
	})
	e.Run()
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEnv()
	e.Process("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		p.Sleep(-ms)
	})
	e.Run()
}

func TestZeroSleepYields(t *testing.T) {
	e := NewEnv()
	var order []int
	e.Process("a", func(p *Proc) {
		order = append(order, 1)
		p.Sleep(0)
		order = append(order, 3)
	})
	e.Process("b", func(p *Proc) {
		order = append(order, 2)
	})
	e.Run()
	want := []int{1, 2, 3}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcessSpawnsProcess(t *testing.T) {
	e := NewEnv()
	var childTime time.Duration
	e.Process("parent", func(p *Proc) {
		p.Sleep(4 * ms)
		e.Process("child", func(c *Proc) {
			c.Sleep(2 * ms)
			childTime = c.Now()
		})
		p.Sleep(10 * ms)
	})
	e.Run()
	if childTime != 6*ms {
		t.Errorf("child finished at %v, want 6ms", childTime)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	ticks := 0
	e.Process("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10 * ms)
			ticks++
		}
	})
	e.RunUntil(55 * ms)
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if e.Now() != 55*ms {
		t.Errorf("Now = %v, want 55ms", e.Now())
	}
	e.RunUntil(1000 * ms)
	if ticks != 100 {
		t.Errorf("ticks = %d, want 100", ticks)
	}
}

func TestRunUntilDoesNotRewindClock(t *testing.T) {
	e := NewEnv()
	e.Process("p", func(p *Proc) { p.Sleep(50 * ms) })
	e.RunUntil(100 * ms)
	e.RunUntil(70 * ms) // earlier than Now; must be a no-op
	if e.Now() != 100*ms {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := NewEnv()
		r := e.NewResource("r", 2)
		var finish []time.Duration
		src := rng.New(42)
		for i := 0; i < 10; i++ {
			d := time.Duration(1+src.Intn(20)) * ms
			e.Process("w", func(p *Proc) {
				r.Acquire(p)
				p.Sleep(d)
				r.Release()
				finish = append(finish, p.Now())
			})
		}
		e.Run()
		return finish
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResourceSerializesHolders(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("unit", 1)
	var spans [][2]time.Duration
	for i := 0; i < 3; i++ {
		e.Process("w", func(p *Proc) {
			r.Acquire(p)
			start := p.Now()
			p.Sleep(10 * ms)
			r.Release()
			spans = append(spans, [2]time.Duration{start, p.Now()})
		})
	}
	e.Run()
	if len(spans) != 3 {
		t.Fatalf("spans = %d", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			t.Errorf("holder %d overlaps previous: %v vs %v", i, spans[i], spans[i-1])
		}
	}
	if e.Now() != 30*ms {
		t.Errorf("three serialized 10ms holds should end at 30ms, got %v", e.Now())
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("duo", 2)
	for i := 0; i < 4; i++ {
		e.Process("w", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * ms)
			r.Release()
		})
	}
	e.Run()
	// 4 holders, 2 at a time, 10ms each => 20ms.
	if e.Now() != 20*ms {
		t.Errorf("end = %v, want 20ms", e.Now())
	}
	if u := r.Utilization(); u < 0.99 || u > 1.01 {
		t.Errorf("utilization = %g, want 1.0", u)
	}
	if r.Acquisitions() != 4 {
		t.Errorf("acquisitions = %d", r.Acquisitions())
	}
}

func TestResourceFCFSOrder(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("unit", 1)
	var order []int
	e.Process("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(10 * ms)
		r.Release()
	})
	for i := 1; i <= 3; i++ {
		i := i
		e.Process("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * ms) // arrive in order 1,2,3
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(ms)
			r.Release()
		})
	}
	e.Run()
	for i, w := range []int{1, 2, 3} {
		if order[i] != w {
			t.Fatalf("order = %v, want FCFS", order)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("unit", 1)
	e.Process("p", func(p *Proc) {
		if !r.TryAcquire() {
			t.Error("first TryAcquire must succeed")
		}
		if r.TryAcquire() {
			t.Error("second TryAcquire must fail")
		}
		r.Release()
		if !r.TryAcquire() {
			t.Error("TryAcquire after release must succeed")
		}
		r.Release()
	})
	e.Run()
}

func TestReleaseIdlePanics(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("unit", 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.Release()
}

func TestResourceUse(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("unit", 1)
	e.Process("p", func(p *Proc) {
		r.Use(p, func() {
			if r.InUse() != 1 {
				t.Error("not held inside Use")
			}
			p.Sleep(5 * ms)
		})
		if r.InUse() != 0 {
			t.Error("not released after Use")
		}
	})
	e.Run()
}

func TestDeadlockPanics(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("unit", 1)
	e.Process("holder", func(p *Proc) {
		r.Acquire(p) // never released
	})
	e.Process("waiter", func(p *Proc) {
		p.Sleep(ms)
		r.Acquire(p) // blocks forever
		t.Error("waiter should never acquire")
	})
	defer func() {
		if recover() == nil {
			t.Error("Run must panic on deadlock")
		}
	}()
	e.Run()
}

func TestQueueFIFO(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, "q", 0)
	var got []int
	e.Process("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Process("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(ms)
			q.Put(p, i*10)
		}
	})
	e.Run()
	for i, w := range []int{10, 20, 30} {
		if got[i] != w {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestQueueBoundedBlocksProducer(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, "q", 2)
	var putDone time.Duration
	e.Process("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // must block until the consumer drains one
		putDone = p.Now()
	})
	e.Process("consumer", func(p *Proc) {
		p.Sleep(10 * ms)
		q.Get(p)
		p.Sleep(10 * ms)
		q.Get(p)
		q.Get(p)
	})
	e.Run()
	if putDone != 10*ms {
		t.Errorf("third Put completed at %v, want 10ms", putDone)
	}
	if q.Peak() != 2 {
		t.Errorf("peak = %d, want 2", q.Peak())
	}
}

func TestQueueTryOps(t *testing.T) {
	e := NewEnv()
	q := NewQueue[string](e, "q", 1)
	e.Process("p", func(p *Proc) {
		if _, ok := q.TryGet(); ok {
			t.Error("TryGet on empty must fail")
		}
		if !q.TryPut("a") {
			t.Error("TryPut must succeed")
		}
		if q.TryPut("b") {
			t.Error("TryPut on full must fail")
		}
		v, ok := q.TryGet()
		if !ok || v != "a" {
			t.Errorf("TryGet = %q, %v", v, ok)
		}
	})
	e.Run()
}

func TestQueueGetBeforePut(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, "q", 0)
	var got int
	var when time.Duration
	e.Process("consumer", func(p *Proc) {
		got = q.Get(p)
		when = p.Now()
	})
	e.Process("producer", func(p *Proc) {
		p.Sleep(25 * ms)
		q.Put(p, 7)
	})
	e.Run()
	if got != 7 || when != 25*ms {
		t.Errorf("got %d at %v", got, when)
	}
}

func TestNewResourceValidation(t *testing.T) {
	e := NewEnv()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.NewResource("bad", 0)
}

func TestNewQueueValidation(t *testing.T) {
	e := NewEnv()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewQueue[int](e, "bad", -1)
}

func TestProcNameAndEnv(t *testing.T) {
	e := NewEnv()
	e.Process("myproc", func(p *Proc) {
		if p.Name() != "myproc" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Env() != e {
			t.Error("Env mismatch")
		}
	})
	e.Run()
}

// Property: with a capacity-1 resource and n holders of duration d,
// total makespan is exactly n*d regardless of arrival pattern, and
// FCFS order matches arrival order.
func TestQuickResourceMakespan(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%8 + 1
		e := NewEnv()
		r := e.NewResource("u", 1)
		src := rng.New(seed)
		arrivals := make([]time.Duration, n)
		for i := range arrivals {
			arrivals[i] = time.Duration(src.Intn(3)) * ms
		}
		hold := 10 * ms
		var busy time.Duration
		for i := 0; i < n; i++ {
			a := arrivals[i]
			e.Process("w", func(p *Proc) {
				p.Sleep(a)
				r.Acquire(p)
				p.Sleep(hold)
				busy += hold
				r.Release()
			})
		}
		e.Run()
		// Clock must end at least n*hold (serialized) and the total
		// busy time is exactly n*hold.
		return busy == time.Duration(n)*hold && e.Now() >= time.Duration(n)*hold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: queue preserves order for arbitrary put sequences.
func TestQuickQueueOrder(t *testing.T) {
	f := func(vals []int) bool {
		e := NewEnv()
		q := NewQueue[int](e, "q", 0)
		var got []int
		e.Process("producer", func(p *Proc) {
			for _, v := range vals {
				q.Put(p, v)
				p.Sleep(ms)
			}
		})
		e.Process("consumer", func(p *Proc) {
			for range vals {
				got = append(got, q.Get(p))
			}
		})
		e.Run()
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCounts: every dispatched event and every switch into a process
// is counted, by process name, for retired and live processes alike; a
// cancelled timer is not an event.
func TestCounts(t *testing.T) {
	e := NewEnv()
	for _, name := range []string{"w", "w"} {
		e.Process(name, func(p *Proc) {
			p.Sleep(ms)
			p.Sleep(ms)
		}) // 3 resumes each: start, two wakeups
	}
	q := NewQueue[int](e, "q", 1)
	e.Process("getter", func(p *Proc) { q.Get(p) }) // start, then parked forever
	e.At(ms, func() {})
	e.Cancel(e.TimerAt(2*ms, func() {}))
	e.RunUntil(10 * ms)
	c := e.Counts()
	if c.Events != 8 || c.Resumes != 7 || len(c.ByName) != 2 || c.ByName["w"] != 6 || c.ByName["getter"] != 1 {
		t.Fatalf("Counts = %+v, want 8 events, 7 resumes (w 6, getter 1)", c)
	}
	e.Stop()
	if c := e.Counts(); c.Resumes != 7 || c.ByName["getter"] != 1 {
		t.Fatalf("after Stop: Counts = %+v, want the getter's resume kept", c)
	}
}
