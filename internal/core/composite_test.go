package core

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// sickTarget is a stubTarget driving devices devices that reports all
// of them down over [downAt, upAt) — the shape of a VPU group losing
// its sticks and recovering them.
type sickTarget struct {
	stubTarget
	devices      int
	downAt, upAt time.Duration
	obs          []func(healthy, total int, at time.Duration)
}

func (t *sickTarget) DeviceCount() int { return t.devices }

func (t *sickTarget) SetHealthObserver(fn func(healthy, total int, at time.Duration)) {
	t.obs = append(t.obs, fn)
}

func (t *sickTarget) report(healthy int, at time.Duration) {
	for _, fn := range t.obs {
		fn(healthy, t.devices, at)
	}
}

func (t *sickTarget) Start(env *sim.Env, src Source, sink func(Result)) *Job {
	env.Process(t.name+"/health", func(p *sim.Proc) {
		p.Sleep(t.downAt)
		t.report(0, p.Now())
		p.Sleep(t.upAt - t.downAt)
		t.report(t.devices, p.Now())
	})
	return t.stubTarget.Start(env, src, sink)
}

// pacedSource releases n items one every gap, so the pool's dealer
// never blocks on a full feed and each item's child is chosen when it
// arrives. The pacing works around a known dealer defect: a dealer
// blocked in Put on a full feed when that child goes down still lands
// its item there, because reclaim's drain wakes the Put (ROADMAP, the
// dealer item). Add an unpaced case once that is mended.
type pacedSource struct {
	n, next int
	gap     time.Duration
}

func (s *pacedSource) Next(p *sim.Proc) (Item, bool) {
	if s.next == s.n {
		return Item{}, false
	}
	p.Sleep(s.gap)
	s.next++
	return Item{Index: s.next - 1}, true
}

// TestCompositeHealth: a composite republishes a child's health
// transition as the aggregate (healthy, total) over all its children
// — a child that is not HealthAware counts as one healthy device —
// and a pool deals no item to a child reporting no healthy device
// until it rejoins.
func TestCompositeHealth(t *testing.T) {
	const n = 40
	const downAt, upAt = 5500 * time.Microsecond, 12500 * time.Microsecond
	type healthComposite interface {
		Target
		HealthAware
		DeviceCount() int
	}
	cases := []struct {
		name  string
		build func([]Target) (healthComposite, error)
		// routed: the sink sees which child served each item, so the
		// down window can be checked.
		routed bool
	}{
		{"pool", func(c []Target) (healthComposite, error) {
			return NewPool(c, PoolOptions{Routing: RouteRoundRobin})
		}, true},
		{"pipeline", func(c []Target) (healthComposite, error) {
			return NewPipeline(c, PipelineOptions{QueueDepths: []int{2}})
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sick := &sickTarget{
				stubTarget: stubTarget{name: "sick", latency: time.Millisecond},
				devices:    2, downAt: downAt, upAt: upAt,
			}
			well := &stubTarget{name: "well", latency: time.Millisecond}
			c, err := tc.build([]Target{sick, well})
			if err != nil {
				t.Fatal(err)
			}
			if got := c.DeviceCount(); got != 3 {
				t.Errorf("DeviceCount() = %d, want 3", got)
			}
			type report struct {
				healthy, total int
				at             time.Duration
			}
			var seen []report
			c.SetHealthObserver(func(healthy, total int, at time.Duration) {
				seen = append(seen, report{healthy, total, at})
			})
			env := sim.NewEnv()
			var results []Result
			src := &pacedSource{n: n, gap: 500 * time.Microsecond}
			job := c.Start(env, src, func(r Result) { results = append(results, r) })
			env.Run()
			if job.Err != nil {
				t.Fatal(job.Err)
			}
			if len(results) != n {
				t.Fatalf("%d results, want %d", len(results), n)
			}
			want := []report{{1, 3, downAt}, {3, 3, upAt}}
			if len(seen) != len(want) {
				t.Fatalf("observer saw %v, want %v", seen, want)
			}
			for i := range want {
				if seen[i] != want[i] {
					t.Errorf("report %d = %+v, want %+v", i, seen[i], want[i])
				}
			}
			if !tc.routed {
				return
			}
			after := 0
			for _, r := range results {
				if r.Device != "sick" {
					continue
				}
				if r.Start >= downAt && r.Start < upAt {
					t.Errorf("item %d started on the down child at %v", r.Index, r.Start)
				}
				if r.Start >= upAt {
					after++
				}
			}
			if after == 0 {
				t.Error("the child never rejoined the deal after reporting healthy")
			}
		})
	}
}
