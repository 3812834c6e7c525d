package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TestPlacementsPinned pins the item→child sequence of every dealt
// policy against testdata/placements.golden: each completion's index,
// child and service span, the items lost, and the run's event count.
// The pool cases deal 24 items at once onto one-deep feeds, so the
// feeds fill and the dealer blocks or spills, over three children:
// "a" always serves, "b" reports no healthy device over [4.5 ms,
// 9.5 ms), and "c" stops consuming after three items. The VPUTarget
// cases run three sticks, the middle one hanging at 3.4 s under
// fail-stop. Regenerate with -update only for an intended change of
// placement.
func TestPlacementsPinned(t *testing.T) {
	type placement struct {
		name string
		run  func(t *testing.T) string
	}
	var cases []placement
	pool := func(opts PoolOptions) func(t *testing.T) string {
		return func(t *testing.T) string {
			opts.QueueDepth = 1
			children := []Target{
				&stubTarget{name: "a", latency: time.Millisecond},
				&sickTarget{
					stubTarget: stubTarget{name: "b", latency: 2 * time.Millisecond},
					devices:    1, downAt: 4500 * time.Microsecond, upAt: 9500 * time.Microsecond,
				},
				&stubTarget{name: "c", latency: 3 * time.Millisecond, quitAfter: 3},
			}
			pl, err := NewPool(children, opts)
			if err != nil {
				t.Fatal(err)
			}
			env := sim.NewEnv()
			var log []string
			job := pl.Start(env, sliceOf(24), func(r Result) {
				log = append(log, fmt.Sprintf("%d %s %v-%v", r.Index, r.Device, r.Start, r.End))
			})
			env.Run()
			return fmt.Sprintf("%s\nerr %v\nevents %d\n", strings.Join(log, "\n"), job.Err, env.Counts().Events)
		}
	}
	for _, r := range []Routing{RouteStatic, RouteRoundRobin, RouteWeighted, RouteLatency} {
		cases = append(cases, placement{"pool/" + r.String(), pool(PoolOptions{Routing: r})})
	}
	cases = append(cases, placement{"pool/weights", pool(PoolOptions{Routing: RouteWeighted, Weights: []float64{3, 2, 1}})})
	vpu := func(s Scheduling) func(t *testing.T) string {
		return func(t *testing.T) string {
			tb := newTestbed(t, 3, nn.NewGoogLeNet(rng.New(1)), 24)
			var log []string
			opts := DefaultVPUOptions()
			opts.Scheduling = s
			opts.Recovery = RecoveryConfig{
				Timeout: 500 * time.Millisecond,
				OnDrop:  func(it Item, at time.Duration) { log = append(log, fmt.Sprintf("drop %d at %v", it.Index, at)) },
			}
			target, err := NewVPUTarget(tb.devices, tb.blob, opts)
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewDatasetSource(tb.ds, 0, 24)
			if err != nil {
				t.Fatal(err)
			}
			tb.env.At(3400*time.Millisecond, func() { tb.devices[1].InjectHang() })
			job := target.Start(tb.env, src, func(r Result) {
				log = append(log, fmt.Sprintf("%d %s %v-%v", r.Index, r.Device, r.Start, r.End))
			})
			tb.env.Run()
			return fmt.Sprintf("%s\nerr %v\nevents %d\n", strings.Join(log, "\n"), job.Err, tb.env.Counts().Events)
		}
	}
	for _, s := range []Scheduling{RoundRobin, Dynamic} {
		cases = append(cases, placement{"vpu/" + s.String(), vpu(s)})
	}

	path := filepath.Join("testdata", "placements.golden")
	if *update {
		var b strings.Builder
		for _, tc := range cases {
			fmt.Fprintf(&b, "== %s\n%s", tc.name, tc.run(t))
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, sec := range strings.Split(string(data), "== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		want[name] = body
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != want[tc.name] {
				t.Errorf("placements differ from %s:\n--- got\n%s--- want\n%s", path, got, want[tc.name])
			}
		})
	}
}
