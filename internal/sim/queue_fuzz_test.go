package sim_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Fuzz-style model check for the ring-buffer queue: a long seeded
// random interleaving of puts, gets, mid-queue removals, capacity
// changes and timed waits runs against a naive slice-backed model of
// the documented semantics, comparing every observable result. This is
// the safety net under the PR 7 rewrite from slice-shift storage to a
// growable power-of-two ring with intrusive wait lists: wraparound,
// regrowth mid-wrap, middle deletion across the seam, and
// timeout-versus-arrival races all occur naturally in the op stream.

// queueModel is the reference implementation: the pre-rewrite
// slice-shift queue semantics in their plainest possible form.
type queueModel struct {
	items    []int
	capacity int
	peak     int
}

func (m *queueModel) tryPut(v int) bool {
	if m.capacity > 0 && len(m.items) >= m.capacity {
		return false
	}
	m.items = append(m.items, v)
	if len(m.items) > m.peak {
		m.peak = len(m.items)
	}
	return true
}

func (m *queueModel) tryGet() (int, bool) {
	if len(m.items) == 0 {
		return 0, false
	}
	v := m.items[0]
	m.items = m.items[1:]
	return v, true
}

func (m *queueModel) removeWhere(pred func(int) bool) (int, bool) {
	for i, v := range m.items {
		if pred(v) {
			m.items = append(m.items[:i:i], m.items[i+1:]...)
			return v, true
		}
	}
	return 0, false
}

// TestQueueFuzzAgainstSliceModel drives 20k random operations through
// both implementations inside one simulated process, checking every
// return value, length and peak, then drains both and compares the
// leftovers item by item.
func TestQueueFuzzAgainstSliceModel(t *testing.T) {
	const steps = 20000
	e := sim.NewEnv()
	q := sim.NewQueue[int](e, "fuzz", 0)
	m := &queueModel{}
	src := rng.New(42)
	next := 0 // distinct values so FIFO violations are visible

	// Failures are recorded and raised after Run returns, so the report
	// names the first divergence. (t.Fatalf inside the process would
	// also end the test: Run re-raises its runtime.Goexit.)
	var failMsg string
	fail := func(format string, args ...any) {
		if failMsg == "" {
			failMsg = fmt.Sprintf(format, args...)
		}
	}
	check := func(step int, what string, got, want int, gotOK, wantOK bool) {
		if gotOK != wantOK || (gotOK && got != want) {
			fail("step %d %s: got (%d, %v), model says (%d, %v)", step, what, got, gotOK, want, wantOK)
		}
	}

	e.Process("driver", func(p *sim.Proc) {
		for step := 0; step < steps && failMsg == ""; step++ {
			switch op := src.Intn(10); {
			case op < 4: // put
				v := next
				next++
				gotOK := q.TryPut(v)
				wantOK := m.tryPut(v)
				if gotOK != wantOK {
					fail("step %d TryPut(%d): got %v, model says %v", step, v, gotOK, wantOK)
				}
			case op < 7: // get
				got, gotOK := q.TryGet()
				want, wantOK := m.tryGet()
				check(step, "TryGet", got, want, gotOK, wantOK)
			case op < 8: // middle removal, possibly across the ring seam
				r := 1 + src.Intn(6)
				pred := func(v int) bool { return v%r == 0 }
				got, gotOK := q.RemoveWhere(pred)
				want, wantOK := m.removeWhere(pred)
				check(step, "RemoveWhere", got, want, gotOK, wantOK)
			case op < 9: // rebound, including shrink below occupancy
				c := src.Intn(7)
				q.SetCapacity(c)
				m.capacity = c
				// No blocked putters exist in this single-process
				// drive, so rebounding only changes admission.
			default: // timed wait racing a scheduled arrival
				d := time.Duration(1+src.Intn(5)) * time.Microsecond
				if len(m.items) == 0 {
					arrival := time.Duration(1+src.Intn(7)) * time.Microsecond
					v := next
					next++
					p.Env().At(p.Now()+arrival, func() { q.TryPut(v) })
					got, gotOK := q.GetWithin(p, d)
					if arrival <= d {
						// The arrival callback was scheduled before the
						// wait began, so at a same-instant deadline the
						// item still wins. It transits the buffer (the
						// peak sees it) before the waiter consumes it.
						m.tryPut(v)
						m.tryGet()
						check(step, "GetWithin(hit)", got, v, gotOK, true)
					} else {
						check(step, "GetWithin(timeout)", got, 0, gotOK, false)
						// The late arrival is still a pending event;
						// sleep past it so the lockstep model stays in
						// sync (the callback fires first — it was
						// scheduled before this sleep, so its sequence
						// number is lower at the same instant).
						p.Sleep(arrival - d)
						m.tryPut(v)
					}
				} else {
					got, gotOK := q.GetWithin(p, d)
					want, wantOK := m.tryGet()
					check(step, "GetWithin(buffered)", got, want, gotOK, wantOK)
				}
			}
			if q.Len() != len(m.items) {
				fail("step %d: Len %d, model %d", step, q.Len(), len(m.items))
			}
			if q.Peak() != m.peak {
				fail("step %d: Peak %d, model %d", step, q.Peak(), m.peak)
			}
		}
		for q.Len() > 0 && failMsg == "" {
			got, gotOK := q.TryGet()
			want, wantOK := m.tryGet()
			check(steps, "drain", got, want, gotOK, wantOK)
		}
		if failMsg == "" && len(m.items) != 0 {
			fail("model has %d leftover items after drain", len(m.items))
		}
	})
	e.Run()
	if failMsg != "" {
		t.Fatal(failMsg)
	}
}
